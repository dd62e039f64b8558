"""Per-layer spans recorded from the benchmark's own files.

A traced run wraps the public functions each layer of the program
exports, on the objects callers look them up on, keeps the spans in
memory and reports per layer the inclusive seconds, the self seconds
(inclusive minus the part its child spans cover) and the call count.
Nothing is wrapped in an untraced run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.top_level = 0.0
        self._stack: List[list] = []  # [name, started, child seconds]

    def wrap(self, owner, attribute: str, name: str,
             on_return: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` by a timed wrapper named ``name``.

        ``on_return(tracer, args, kwargs, result)`` may add counts.
        """
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                elapsed = time.perf_counter() - frame[1]
                tracer._close(name, elapsed, frame[2])
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        setattr(owner, attribute, traced)

    def _close(self, name: str, elapsed: float, children: float) -> None:
        # A span nested in one of the same name (recursion) is already
        # inside the outer span's inclusive time.
        if not any(frame[0] == name for frame in self._stack):
            self.inclusive[name] += elapsed
        self.self_time[name] += elapsed - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += elapsed
        else:
            self.top_level += elapsed

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount


BACKEND_KERNELS = ("gemm", "batched_gemm", "im2col_conv", "group_norm",
                   "layer_norm", "silu", "softmax")


def install_spans(tracer: Tracer) -> None:
    """Wrap the public functions of every layer a workload can reach."""
    import repro.core as core
    from repro.core import qmodules, schemes
    from repro.diffusion import samplers
    from repro.models import autoencoder, text_encoder, unet
    from repro.serving import embedding_cache, engine, router
    from repro.tensor import Tensor, backend

    def calibrated(t, args, kwargs, result):
        t.add("core.calibration.records",
              sum(len(records) for records in result.activations.values()))

    def searched(t, args, kwargs, result):
        t.add("core.search.tensors")
        t.add("core.search.candidates", result.candidates_evaluated)

    def rounded(t, args, kwargs, result):
        t.add("core.rounding.layers")
        t.add("core.rounding.iterations", len(result.losses))

    def sampled(t, args, kwargs, result):
        t.add("diffusion.sampler.steps", args[0].num_steps)

    def decided(t, args, kwargs, result):
        t.add(f"serving.router.scheme.{result.scheme}")

    tracer.wrap(core, "collect_calibration_data", "core.calibration", calibrated)
    tracer.wrap(schemes, "search_tensor_format", "core.search", searched)
    tracer.wrap(schemes, "learn_rounding", "core.rounding", rounded)
    tracer.wrap(Tensor, "backward", "tensor.backward")
    reference = backend.get_backend("reference")
    for kernel in BACKEND_KERNELS:
        tracer.wrap(reference, kernel, f"tensor.backend.{kernel}")
    tracer.wrap(qmodules.FPTensorQuantizer, "quantize", "core.qmodules.fp_quant")
    tracer.wrap(qmodules.IntTensorQuantizer, "quantize", "core.qmodules.int_quant")
    tracer.wrap(qmodules.PackedIntWeight, "dequantize", "core.qmodules.dequantize")
    tracer.wrap(unet.UNet, "forward", "models.unet")
    tracer.wrap(text_encoder.TextEncoder, "encode_prompts", "models.text_encoder")
    tracer.wrap(autoencoder.Autoencoder, "decode", "models.autoencoder.decode")
    for sampler in (samplers.DDIMSampler, samplers.DDPMSampler,
                    samplers.DPMSolver2Sampler):
        tracer.wrap(sampler, "sample", "diffusion.sampler", sampled)
    tracer.wrap(router.SLORouter, "decide", "serving.router.decide", decided)
    tracer.wrap(engine.ServingEngine, "pump", "serving.engine")
    tracer.wrap(engine.ServingEngine, "complete_batch", "serving.engine.execute")
    tracer.wrap(embedding_cache.EmbeddingCache, "get_contexts",
                "serving.embedding_cache")


#: Spans reported as ``<name>.s`` (inclusive), ``<name>.self.s`` and
#: ``<name>.calls``.
SPANS = (("core.calibration", "core.search", "core.rounding", "tensor.backward")
         + tuple(f"tensor.backend.{kernel}" for kernel in BACKEND_KERNELS)
         + ("core.qmodules.fp_quant", "core.qmodules.int_quant",
            "core.qmodules.dequantize", "models.unet", "models.text_encoder",
            "models.autoencoder.decode", "diffusion.sampler",
            "serving.router.decide", "serving.engine", "serving.engine.execute",
            "serving.embedding_cache"))

#: Counts and figures reported as they are: (name, unit, better).
FIGURES = (
    ("core.calibration.records", "count", "lower"),
    ("core.search.tensors", "count", "lower"),
    ("core.search.candidates", "count", "lower"),
    ("core.rounding.layers", "count", "lower"),
    ("core.rounding.iterations", "count", "lower"),
    ("tensor.backend.macs", "count", "lower"),
    ("diffusion.sampler.steps", "count", "lower"),
    ("serving.router.scheme.fp32", "count", "higher"),
    ("serving.router.scheme.fp8", "count", "higher"),
    ("serving.router.scheme.fp4", "count", "lower"),
    ("serving.batcher.batches", "count", "lower"),
    ("serving.batcher.mean_batch_size", "requests", "higher"),
    ("serving.queue_wait_p50_s", "s", "lower"),
    ("serving.batch_latency_p50_s", "s", "lower"),
    # request latency p90 (nearest rank, at least ten requests beyond it)
    ("serving.latency_p90_s", "s", "lower"),
    ("serving.embedding_cache.hits", "count", "higher"),
    ("serving.embedding_cache.misses", "count", "lower"),
    ("serving.embedding_cache.hit_ratio", "ratio", "higher"),
    ("serving.pool.builds_during_traffic", "count", "lower"),
    ("serving.loadgen.lag_s", "s", "lower"),
    # share of the measured wall time the top-level spans cover
    ("trace.coverage", "ratio", "higher"),
    # traced wall time over untraced wall time of the same work
    ("trace.overhead", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
)


def metric_table() -> List[tuple]:
    """Every per-layer metric as (name, unit, better), in report order."""
    table = []
    for name in SPANS:
        table += [(f"{name}.s", "s", "lower"), (f"{name}.self.s", "s", "lower"),
                  (f"{name}.calls", "count", "lower")]
    return table + list(FIGURES)


def per_layer_metrics(tracer: Tracer, figures: Dict[str, float]) -> Dict:
    """Every per-layer metric with its value from ``tracer`` or ``figures``."""
    values = dict(tracer.counts)
    for name in SPANS:
        values[f"{name}.s"] = tracer.inclusive[name]
        values[f"{name}.self.s"] = tracer.self_time[name]
        values[f"{name}.calls"] = tracer.calls[name]
    values.update(figures)
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in metric_table()}
