"""serve-t2i-sd: open-loop Poisson traffic through ``ServingEngine`` on the SD stand-in.

Set-up builds the FP32 and FP8/FP8 variants, quantized fresh from the
checkpoint (never from a run store), and prewarms the pool with them.
These are the variants the router picks here: its default ladder also
holds FP4, but at stand-in scale the predicted FP4 and FP8 costs differ
by less than the 0.01% slack of the tightest tier, so FP4 is never
chosen.  Were it chosen, the pool would build it during traffic, which
``serving.pool.builds_during_traffic`` and the latency would show.

One round sends ``ROUND_SECONDS`` of traffic at ``RATE`` requests per
second through a fresh engine, from this one thread, on a seeded Poisson
schedule, and pumps the engine between arrivals; the run repeats whole
rounds, each with its own schedule, until ``seconds`` have passed.
Prompts come from ``serving.loadgen`` with Zipf popularity, so the
embedding cache hits; SLO tiers are mixed, so the router spreads
requests across the variants and the batcher forms several groups.
Each request is timed from the moment it was due, so a stall that
delays later submissions counts against them.  The engine runs on a
``SkipIdleClock``: where the load generator would sleep until the next
arrival or batch deadline, it moves that clock there instead.

Operations: one per request; a request counts as failed when it is
rejected or gets no response.  ``latency_p50_s`` is the median request
latency over all rounds; its p90 goes to the traced run as
``serving.latency_p90_s``.
``rmse_vs_fp32`` compares every image the FP8/FP8 variant served with
the FP32 pipeline's image for the same request (made in ``check``,
after the measured loop).
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

MODEL = "stable-diffusion"
SCHEMES = ("fp32", "fp8")
#: Requests per second, well below saturation on a 2-vCPU machine: the
#: engine is busy about a quarter of the time, so the queue stays short
#: and latency repeats from run to run.
RATE = 7.0
#: Traffic seconds per round: 105 requests, enough on their own for a
#: p90 with ten requests beyond it.
ROUND_SECONDS = 15.0
#: Denoising steps per request, fewer than the model's default 10: with
#: 4 steps the engine is busy 40% of the time at this rate, and p90
#: spreads over 30% across seeds.
STEPS = 2
MAX_WAIT = 0.05
PROMPT_POOL = 16
#: Bias candidates of the set-up FP searches (see generate_w8a8_sdxl).
BIAS_CANDIDATES = 8
#: Served requests regenerated alone for the consistency check.
REGENERATED = 4
#: Batch size of the FP32 regeneration behind ``rmse_vs_fp32``.
REGENERATE_BATCH = 8
#: Rounds whose served images are kept for ``check`` (about 100 FP8/FP8
#: images).  Later rounds keep only their images' range, so peak memory
#: does not grow with the number of rounds a run fits in.
KEPT_ROUNDS = 2


def setup(seed: int, source: str) -> dict:
    import repro.core as core
    from repro.data import PromptDataset
    from repro.diffusion import DiffusionPipeline
    from repro.serving import ModelVariantPool

    fp32 = DiffusionPipeline(load_model(MODEL, source))
    fp8_config = replace(core.fp8_fp8_config(), num_bias_candidates=BIAS_CANDIDATES)
    calibration = core.collect_calibration_data(
        fp32, fp8_config.calibration,
        prompts=PromptDataset(fp8_config.calibration.num_samples,
                              seed=derive(seed, "calibration-prompts")).prompts)

    def build(model: str, scheme: str):
        if scheme == "fp32":
            return fp32
        config = replace(fp8_config, weight_dtype=scheme, activation_dtype=scheme)
        quantized, _ = core.quantize_pipeline(fp32, config, calibration=calibration)
        return quantized

    pool = ModelVariantPool(builder=build)
    pool.prewarm([(MODEL, scheme) for scheme in SCHEMES])
    return {"pool": pool}


class SkipIdleClock:
    """Wall time in which the load generator's idle waits take no time.

    Instead of sleeping until the next arrival or batch deadline, the
    generator moves this clock forward to it.  The engine, its batcher
    and the latencies all read this clock, so queueing and service keep
    their measured durations, while how promptly a shared host wakes a
    sleeping process no longer enters the latency.
    """

    def __init__(self):
        self.skipped = 0.0

    def __call__(self) -> float:
        return time.perf_counter() + self.skipped

    def advance_to(self, moment: float) -> None:
        self.skipped += max(0.0, moment - self())


def _schedule(round_seed: int, router):
    from repro.serving.loadgen import WorkloadConfig, generate_workload

    count = int(round(RATE * ROUND_SECONDS))
    requests = generate_workload(WorkloadConfig(
        num_requests=count, models=(MODEL,), num_steps=STEPS,
        prompt_pool_size=PROMPT_POOL, popularity_skew=1.2,
        slo_tiers=("loose", "medium", "tight", None),
        seed=derive(round_seed, "requests")), router=router)
    gaps = np.random.default_rng(derive(round_seed, "arrivals")).exponential(1.0 / RATE, count)
    return requests, np.cumsum(gaps)


def _serve_round(pool, clock: SkipIdleClock, round_seed: int,
                 keep_images: bool) -> dict:
    """One round of open-loop traffic through a fresh engine."""
    from repro.serving import EngineConfig, ServingEngine, SLORouter

    engine = ServingEngine(pool, router=SLORouter(), clock=clock,
                           config=EngineConfig(max_batch_size=8, max_wait=MAX_WAIT))
    requests, due = _schedule(round_seed, engine.router)
    responses, finished_at, lag = {}, {}, []
    rejected = submitted = 0
    started = clock()
    while submitted < len(requests) or engine.batcher.pending_count or len(engine.queue):
        now = clock() - started
        while submitted < len(requests) and due[submitted] <= now:
            request = requests[submitted]
            request.request_id = submitted
            lag.append(now - due[submitted])
            if not engine.submit(request):
                rejected += 1
            submitted += 1
        try:
            served = engine.pump()
        except Exception:
            # the engine has no error path: the raising batch's requests
            # are lost and count as failed
            traceback.print_exc(file=sys.stderr)
            served = []
        for response in served:
            request = requests[response.request_id]
            responses.setdefault(response.request_id, []).append(response)
            finished_at[response.request_id] = request.arrival_time + response.total_latency
        wake = [started + due[submitted]] if submitted < len(requests) else []
        if engine.batcher.next_due_at() is not None:
            wake.append(engine.batcher.next_due_at())
        if wake:
            clock.advance_to(min(wake))
    engine.sync_component_stats()
    images = [r.image for rs in responses.values() for r in rs]
    image_range = (all(bool(np.all(np.isfinite(image))) for image in images),
                   min((float(image.min()) for image in images), default=0.0),
                   max((float(image.max()) for image in images), default=0.0))
    if not keep_images:
        for rs in responses.values():
            for response in rs:
                response.image = None
    return {"requests": requests, "responses": responses, "lag": lag,
            "rejected": rejected, "image_range": image_range,
            "images_kept": keep_images,
            "latencies": [finished_at[i] - (started + due[i]) for i in sorted(finished_at)],
            "batches": engine.stats.report()["batch"]["count"],
            "cache": engine.embedding_cache.stats()}


def measure(state: dict, seed: int, seconds: float, rounds=None) -> Outcome:
    pool = state["pool"]
    clock = SkipIdleClock()
    builds_before = pool.builds
    served = []
    started = time.perf_counter()
    while another_round(len(served), rounds, started, seconds):
        served.append(_serve_round(pool, clock, derive(seed, f"round-{len(served)}"),
                                   keep_images=len(served) < KEPT_ROUNDS))
    work = time.perf_counter() - started

    latencies = [value for one in served for value in one["latencies"]]
    lag = [value for one in served for value in one["lag"]]
    responses = [r for one in served for rs in one["responses"].values() for r in rs]
    batches = sum(one["batches"] for one in served)
    hits = sum(one["cache"]["hits"] for one in served)
    misses = sum(one["cache"]["misses"] for one in served)
    metrics = {}
    if latencies:
        metrics["latency_p50_s"] = checks.percentile(latencies, 50)
    figures = {
        "serving.batcher.batches": batches,
        "serving.batcher.mean_batch_size": len(responses) / batches if batches else 0.0,
        "serving.embedding_cache.hits": hits,
        "serving.embedding_cache.misses": misses,
        "serving.embedding_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.pool.builds_during_traffic": pool.builds - builds_before,
        "serving.loadgen.lag_s": checks.percentile(lag, 90) if lag else 0.0,
    }
    if responses:
        figures["serving.queue_wait_p50_s"] = checks.percentile(
            [r.queue_wait for r in responses], 50)
        figures["serving.batch_latency_p50_s"] = checks.percentile(
            [r.batch_latency for r in responses], 50)
    if len(latencies) >= checks.min_samples_for(90):
        figures["serving.latency_p90_s"] = checks.percentile(latencies, 90)
    attempted = sum(len(one["requests"]) for one in served)
    answered = sum(1 for one in served for i in range(len(one["requests"]))
                   if len(one["responses"].get(i, ())) == 1)
    return Outcome(metrics=metrics, attempted=attempted, failed=attempted - answered,
                   rounds=len(served), work_s=work, layer_figures=figures,
                   artifacts={"served": served, "seed": seed})


def check(state: dict, outcome: Outcome) -> None:
    from repro.tensor import Tensor

    served = outcome.artifacts["served"]
    for number, one in enumerate(served):
        requests, responses = one["requests"], one["responses"]
        checks.require(one["rejected"] == 0,
                       f"round {number}: {one['rejected']} requests were rejected")
        for index in range(len(requests)):
            got = len(responses.get(index, ()))
            checks.require(got == 1, f"round {number}: request {index} got {got} responses")
        checks.require(set(responses) <= set(range(len(requests))),
                       f"round {number}: responses to requests never sent")
        finite, low, high = one["image_range"]
        checks.require(finite, f"round {number}: non-finite served image values")
        checks.require(low >= -1.0 and high <= 1.0,
                       f"round {number}: served image values outside [-1, 1] "
                       f"({low}, {high})")
    pairs = [(one["requests"][i], one["responses"][i][0])
             for one in served if one["images_kept"] for i in sorted(one["responses"])]

    # A served image must not depend on its batchmates: regenerate a
    # seeded sample of requests alone through the pipeline API.
    rng = np.random.default_rng(derive(outcome.artifacts["seed"], "regenerate"))
    pool = state["pool"]
    largest = 0.0
    for index in rng.choice(len(pairs), size=min(REGENERATED, len(pairs)), replace=False):
        request, response = pairs[index]
        pipeline = pool.get(response.model, response.scheme)
        alone = pipeline.generate_batch(
            [request.seed], context=Tensor(pipeline.encode_prompts([request.prompt]).data),
            plan=response.plan)[0]
        difference = float(np.max(np.abs(alone - response.image)))
        largest = max(largest, difference)
        checks.require(np.allclose(alone, response.image, rtol=1e-4, atol=1e-5),
                       f"request {request.request_id} ({response.scheme}, batch of "
                       f"{response.batch_size}) differs from its lone "
                       f"regeneration by {difference:.3g}")
    checks.require("serving.latency_p90_s" in outcome.layer_figures,
                   f"p90 needs {checks.min_samples_for(90)} requests, "
                   f"{outcome.attempted} were sent")
    outcome.check_figures["regenerated_max_abs_diff"] = largest
    _served_quality(state, outcome, pairs)


def _served_quality(state: dict, outcome: Outcome, pairs) -> None:
    """``rmse_vs_fp32`` of the FP8/FP8-served images, checked against the
    FP32 pipeline's own seed-vs-seed rmse on the same requests."""
    from repro.tensor import Tensor

    fp8 = [(request, response) for request, response in pairs
           if response.scheme == "fp8"]
    checks.require(len(fp8) > 0, "no request was served by the FP8/FP8 variant")
    fp32 = state["pool"].get(MODEL, "fp32")
    by_plan = {}
    for request, response in fp8:
        by_plan.setdefault(response.plan, []).append((request, response))
    quantized, same_seed, next_seed = [], [], []
    for plan, group in by_plan.items():
        for start in range(0, len(group), REGENERATE_BATCH):
            chunk = group[start:start + REGENERATE_BATCH]
            context = Tensor(fp32.encode_prompts([r.prompt for r, _ in chunk]).data)
            seeds = [r.seed for r, _ in chunk]
            same_seed.append(fp32.generate_batch(seeds, context=context, plan=plan))
            next_seed.append(fp32.generate_batch([s + 1 for s in seeds],
                                                 context=context, plan=plan))
            quantized.append(np.stack([response.image for _, response in chunk]))
    reference = np.concatenate(same_seed)
    value = checks.rmse(np.concatenate(quantized), reference)
    seed_vs_seed = checks.rmse(np.concatenate(next_seed), reference)
    checks.require(value < seed_vs_seed,
                   f"served FP8/FP8 rmse {value:.4f} is not below the FP32 "
                   f"seed-vs-seed rmse {seed_vs_seed:.4f}")
    outcome.metrics["rmse_vs_fp32"] = value
    outcome.check_figures.update(seed_vs_seed_rmse=seed_vs_seed, fp8_served=len(fp8))
