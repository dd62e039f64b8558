"""ptq-fp4rl-sd: the paper's full FP4/FP8 + rounding-learning PTQ of the SD stand-in.

One round: collect calibration activations from the FP32 pipeline, run
``quantize_pipeline`` with ``fp4_fp8_config(True)`` (111 bias candidates
per encoding, 60 rounding-learning iterations per layer), then generate
``NUM_IMAGES`` seed-matched images with the quantized pipeline.  Here
``core.search`` and ``core.rounding`` do nearly all the work.

Operations per round: the PTQ; its rounding learning, which fails when
the layer-output MSE it reaches on the recorded calibration inputs,
summed over layers, is higher than round-to-nearest gives; and one per
generated image.  ``latency_p50_s`` is the median over rounds of
calibration plus quantization, the wait for a quantized model;
``rmse_vs_fp32`` compares the FP4/FP8+RL images with seed-matched FP32
ones.

The calibration prompts are fixed, as a PTQ calibration set is: the PTQ
is then the same computation in every run, and so is the verdict on its
rounding learning.  Evaluation prompts and noise come from the seed.
"""

from __future__ import annotations

import sys
import time
import traceback

import checks
from inputs import load_model
from workload import Outcome, another_round, derive

MODEL = "stable-diffusion"
NUM_IMAGES = 32
BATCH = 8
CALIBRATION_PROMPT_SEED = 0


def setup(seed: int, source: str) -> dict:
    from repro.core import fp4_fp8_config
    from repro.data import PromptDataset
    from repro.diffusion import DiffusionPipeline

    pipeline = DiffusionPipeline(load_model(MODEL, source))
    config = fp4_fp8_config(True)
    eval_prompts = PromptDataset(NUM_IMAGES, seed=derive(seed, "eval-prompts")).prompts
    noise_seed = derive(seed, "noise")
    reference = pipeline.generate_from_prompts(eval_prompts, seed=noise_seed,
                                               batch_size=BATCH)
    return {
        "pipeline": pipeline,
        "config": config,
        "calibration_prompts": PromptDataset(config.calibration.num_samples,
                                             seed=CALIBRATION_PROMPT_SEED).prompts,
        "eval_prompts": eval_prompts,
        "noise_seed": noise_seed,
        "other_noise_seed": derive(seed, "other-noise"),
        "reference": reference,
    }


def measure(state: dict, seed: int, seconds: float, rounds=None) -> Outcome:
    import repro.core as core

    pipeline, config = state["pipeline"], state["config"]
    ptq_times, results = [], []
    attempted = failed = done = 0
    started = time.perf_counter()
    while another_round(done, rounds, started, seconds):
        done += 1
        attempted += 2 + NUM_IMAGES
        try:
            t0 = time.perf_counter()
            calibration = core.collect_calibration_data(
                pipeline, config.calibration, prompts=state["calibration_prompts"])
            quantized, report = core.quantize_pipeline(pipeline, config,
                                                       calibration=calibration)
            ptq_times.append(time.perf_counter() - t0)
            images = quantized.generate_from_prompts(
                state["eval_prompts"], seed=state["noise_seed"], batch_size=BATCH)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 2 + NUM_IMAGES
            continue
        results.append((quantized, report, calibration, images))
    work = time.perf_counter() - started

    figures = {}
    for quantized, report, calibration, _ in results:
        learned, nearest = rounding_objective(quantized, report, calibration)
        figures = {"learned_rounding_output_mse": learned,
                   "nearest_rounding_output_mse": nearest}
        if learned > nearest:
            failed += 1
    metrics = {}
    if results:
        metrics["latency_p50_s"] = checks.median(ptq_times)
        metrics["rmse_vs_fp32"] = checks.rmse(results[-1][3], state["reference"])
    return Outcome(metrics=metrics, attempted=attempted, failed=failed,
                   rounds=done, work_s=work, check_figures=figures,
                   artifacts={"results": results})


def rounding_objective(quantized, report, calibration):
    """Layer-output MSE against FP32, summed over the learned-rounding
    layers, for the learned weights and for round-to-nearest ones."""
    learned_layers = {record.path for record in report.layers
                      if record.rounding_learning_used}
    learned = nearest = 0.0
    for path, module in checks.fp_layers(quantized.model.unet):
        if path not in learned_layers:
            continue
        fmt = module.weight_quantizer.fmt
        grid = checks.fp_grid(fmt.exponent_bits, fmt.mantissa_bits, fmt.bias)
        original = module.original_weight
        inputs = calibration.samples(path)
        learned += checks.layer_output_mse(module, inputs, module.weight.data, original)
        nearest += checks.layer_output_mse(
            module, inputs, checks.round_to_nearest(grid, original), original)
    return learned, nearest


def check(state: dict, outcome: Outcome) -> None:
    checks.require(len(outcome.artifacts["results"]) > 0, "no PTQ round completed")
    quantized, report, _, images = outcome.artifacts["results"][-1]
    checks.check_images("fp4rl", images)
    checks.check_images("fp32", state["reference"])
    learned = {record.path: record.rounding_learning_used for record in report.layers}
    checks.require(any(learned.values()), "no layer used rounding learning")
    checks.check_fp_weights("fp4rl", quantized.model.unet, learned)

    other_noise = state["pipeline"].generate_from_prompts(
        state["eval_prompts"], seed=state["other_noise_seed"], batch_size=BATCH)
    seed_vs_seed = checks.rmse(other_noise, state["reference"])
    value = outcome.metrics["rmse_vs_fp32"]
    checks.require(value < seed_vs_seed,
                   f"FP4/FP8+RL rmse {value:.4f} is not below the FP32 "
                   f"seed-vs-seed rmse {seed_vs_seed:.4f}")
    outcome.check_figures["seed_vs_seed_rmse"] = seed_vs_seed
