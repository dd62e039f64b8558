"""generate-w8a8-sdxl: offline text-to-image on the SDXL stand-in, three arms.

Set-up quantizes the checkpoint to INT8/INT8 and FP8/FP8 (the paper's
8-bit rows of Table 5).  One round generates one batch of ``BATCH``
seed-matched images on each arm (FP32, INT8, FP8); the arms take turns
going first, so drift hits all three alike.  Inference kernels and
activation quantizers do the work; no PTQ runs after set-up.  The FP32
and INT8 arms never reach the FP quantizer, so an FP-quantizer change
should move only the FP8 arm's time.

Operations: one per generated image.  ``latency_p50_s`` is the median
over rounds of a round's generation seconds (the three batches);
``rmse_vs_fp32`` compares the FP8/FP8 arm with the FP32 one over all
rounds.  Each arm's images per second (``BATCH`` over its median batch
time) and the INT8/INT8 rmse go to the run record.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import replace

import numpy as np

import checks
from inputs import load_model
from workload import Outcome, another_round, derive

MODEL = "sdxl"
ARMS = ("fp32", "int8", "fp8")
BATCH = 8
PROMPT_POOL = 64
#: Bias candidates of the FP8 search in set-up.  The paper's 111 would
#: make set-up 44 s on a 2-vCPU machine; the candidate count changes the
#: chosen formats slightly and the cost of inference not at all.
FP8_BIAS_CANDIDATES = 8


def setup(seed: int, source: str) -> dict:
    import repro.core as core
    from repro.data import PromptDataset
    from repro.diffusion import DiffusionPipeline

    fp32 = DiffusionPipeline(load_model(MODEL, source))
    fp8_config = replace(core.fp8_fp8_config(), num_bias_candidates=FP8_BIAS_CANDIDATES)
    calibration = core.collect_calibration_data(
        fp32, fp8_config.calibration,
        prompts=PromptDataset(fp8_config.calibration.num_samples,
                              seed=derive(seed, "calibration-prompts")).prompts)
    int8, _ = core.quantize_pipeline(fp32, core.int8_int8_config(),
                                     calibration=calibration)
    fp8, _ = core.quantize_pipeline(fp32, fp8_config, calibration=calibration)
    return {"pipelines": {"fp32": fp32, "int8": int8, "fp8": fp8},
            "prompts": PromptDataset(PROMPT_POOL, seed=derive(seed, "prompts")).prompts,
            "rng_seed": derive(seed, "rounds")}


def measure(state: dict, seed: int, seconds: float, rounds=None) -> Outcome:
    pipelines = state["pipelines"]
    rng = np.random.default_rng(state["rng_seed"])
    times = {arm: [] for arm in ARMS}
    round_times = []
    squared = {arm: 0.0 for arm in ARMS}
    counted = {arm: 0 for arm in ARMS}
    outputs = {arm: [] for arm in ARMS}
    first_round = None
    attempted = failed = done = 0
    started = time.perf_counter()
    while another_round(done, rounds, started, seconds):
        prompts = [state["prompts"][i] for i in
                   rng.choice(len(state["prompts"]), size=BATCH, replace=False)]
        noise_seed = int(rng.integers(2 ** 31))
        order = ARMS[done % len(ARMS):] + ARMS[:done % len(ARMS)]
        done += 1
        images = {}
        for arm in order:
            attempted += BATCH
            try:
                t0 = time.perf_counter()
                images[arm] = pipelines[arm].generate_from_prompts(
                    prompts, seed=noise_seed, batch_size=BATCH)
                times[arm].append(time.perf_counter() - t0)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += BATCH
        if len(images) == len(ARMS):
            round_times.append(sum(times[arm][-1] for arm in ARMS))
        for arm, batch in images.items():
            outputs[arm].append(batch)
            if arm != "fp32" and "fp32" in images:
                diff = batch.astype(np.float64) - images["fp32"]
                squared[arm] += float(np.sum(diff * diff))
                counted[arm] += diff.size
        if first_round is None and "fp32" in images:
            first_round = (prompts, noise_seed, images["fp32"])
    work = time.perf_counter() - started
    figures = {f"images_per_s.{arm}": BATCH / checks.median(times[arm])
               for arm in ARMS if times[arm]}
    figures.update({f"rmse_vs_fp32.{arm}": float(np.sqrt(squared[arm] / counted[arm]))
                    for arm in ("int8", "fp8") if counted[arm]})
    metrics = {}
    if round_times:
        metrics["latency_p50_s"] = checks.median(round_times)
    if "rmse_vs_fp32.fp8" in figures:
        metrics["rmse_vs_fp32"] = figures["rmse_vs_fp32.fp8"]
    return Outcome(metrics=metrics, attempted=attempted, failed=failed,
                   rounds=done, work_s=work, check_figures=figures,
                   artifacts={"first_round": first_round, "outputs": outputs})


def check(state: dict, outcome: Outcome) -> None:
    figures = outcome.check_figures
    for name in ("rmse_vs_fp32.int8", "rmse_vs_fp32.fp8"):
        checks.require(name in figures, f"{name} was not measured")
    checks.require("latency_p50_s" in outcome.metrics, "no round completed on every arm")
    for arm, batches in outcome.artifacts["outputs"].items():
        checks.require(len(batches) > 0, f"{arm}: no batch completed")
        checks.check_images(arm, np.concatenate(batches))
    checks.check_fp_weights("fp8", state["pipelines"]["fp8"].model.unet)

    prompts, noise_seed, reference = outcome.artifacts["first_round"]
    other = state["pipelines"]["fp32"].generate_from_prompts(
        prompts, seed=noise_seed + 1, batch_size=BATCH)
    seed_vs_seed = checks.rmse(other, reference)
    for name in ("rmse_vs_fp32.int8", "rmse_vs_fp32.fp8"):
        checks.require(figures[name] < seed_vs_seed,
                       f"{name} {figures[name]:.4f} is not below the FP32 "
                       f"seed-vs-seed rmse {seed_vs_seed:.4f}")
    checks.require(figures["rmse_vs_fp32.fp8"] < figures["rmse_vs_fp32.int8"],
                   "FP8/FP8 is not closer to FP32 than INT8/INT8 "
                   f"({figures['rmse_vs_fp32.fp8']:.4f} vs "
                   f"{figures['rmse_vs_fp32.int8']:.4f})")
    figures["seed_vs_seed_rmse"] = seed_vs_seed
