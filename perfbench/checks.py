"""Output checks made apart from the program.

Nothing here calls into ``repro.core``: the FP grid is enumerated from
(exponent bits, mantissa bits, bias) by the paper's Eq. 6-9, and layer
outputs come from a plain numpy forward.  A check that fails raises
``CheckFailed``; the run then reports ``correct: false`` and exits 1.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: float32 values carry a relative rounding error of up to one half ulp;
#: the program and this module also reach a grid point by different
#: float64 spellings, so a match allows a few float32 ulps.
F32_RTOL = 4 * float(np.finfo(np.float32).eps)


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# FP grid (paper Eq. 6-9)
# ----------------------------------------------------------------------
def fp_grid(exponent_bits: int, mantissa_bits: int, bias: float) -> np.ndarray:
    """Every value of a sign/exponent/mantissa format, sorted ascending.

    Exponent field ``p = 0`` encodes subnormals ``2^(1-b) * (0.d1..dm)``;
    ``p = 1 .. 2^e - 1`` encode normals ``2^(p-b) * (1.d1..dm)``.  No code
    is reserved for inf or NaN, so the largest magnitude is
    ``(2 - 2^-m) * 2^(2^e - b - 1)`` (Eq. 7).
    """
    steps = 2 ** mantissa_bits
    magnitudes = [k / steps * 2.0 ** (1 - bias) for k in range(steps)]
    for p in range(1, 2 ** exponent_bits):
        magnitudes.extend((1 + k / steps) * 2.0 ** (p - bias)
                          for k in range(steps))
    positive = np.unique(np.asarray(magnitudes, dtype=np.float64))
    return np.concatenate([-positive[:0:-1], positive])


def grid_neighbours(grid: np.ndarray, values: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """The largest grid value <= each value and the smallest >= it.

    Values are first clipped to the grid's range, as the quantizer clips
    to ``[-c, c]``.
    """
    values = np.clip(np.asarray(values, dtype=np.float64), grid[0], grid[-1])
    below = grid[np.clip(np.searchsorted(grid, values, side="right") - 1,
                         0, grid.size - 1)]
    above = grid[np.clip(np.searchsorted(grid, values, side="left"),
                         0, grid.size - 1)]
    return below, above


def _close(a: np.ndarray, b: np.ndarray, smallest: float) -> np.ndarray:
    scale = np.maximum(np.abs(b), smallest)
    return np.abs(np.asarray(a, dtype=np.float64) - b) <= F32_RTOL * scale


def off_grid_count(grid: np.ndarray, values: np.ndarray) -> int:
    """How many values lie on no grid point (within float32 rounding)."""
    below, above = grid_neighbours(grid, values)
    smallest = float(grid[grid > 0][0])
    on = _close(values, below, smallest) | _close(values, above, smallest)
    inside = (values >= grid[0] * (1 + F32_RTOL)) & (values <= grid[-1] * (1 + F32_RTOL))
    return int(np.count_nonzero(~(on & inside)))


def not_neighbour_count(grid: np.ndarray, quantized: np.ndarray,
                        original: np.ndarray) -> int:
    """How many quantized values are neither grid neighbour of the original."""
    below, above = grid_neighbours(grid, original)
    smallest = float(grid[grid > 0][0])
    ok = _close(quantized, below, smallest) | _close(quantized, above, smallest)
    return int(np.count_nonzero(~ok))


def round_to_nearest(grid: np.ndarray, original: np.ndarray) -> np.ndarray:
    """Round-to-nearest onto the grid (ties go to the lower neighbour)."""
    original = np.asarray(original, dtype=np.float64)
    below, above = grid_neighbours(grid, original)
    clipped = np.clip(original, grid[0], grid[-1])
    return np.where(above - clipped < clipped - below, above, below)


# ----------------------------------------------------------------------
# plain numpy layer forward
# ----------------------------------------------------------------------
def conv2d(x: np.ndarray, weight: np.ndarray, bias, stride: int,
           padding: int) -> np.ndarray:
    """Cross-correlation of NCHW ``x`` with OIHW ``weight``, in float64."""
    x = np.asarray(x, dtype=np.float64)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    kh, kw = weight.shape[2:]
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    out = np.einsum("nchwij,ocij->nohw", windows,
                    np.asarray(weight, dtype=np.float64), optimize=True)
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[None, :, None, None]
    return out


def linear(x: np.ndarray, weight: np.ndarray, bias) -> np.ndarray:
    out = np.asarray(x, dtype=np.float64) @ np.asarray(weight, dtype=np.float64).T
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)
    return out


def layer_output_mse(layer, inputs: Iterable[np.ndarray], weight: np.ndarray,
                     reference_weight: np.ndarray) -> float:
    """Mean over inputs of the output MSE of ``weight`` against the reference."""
    bias = None if layer.bias is None else layer.bias.data

    def forward(x, w):
        if hasattr(layer, "stride"):
            return conv2d(x, w, bias, layer.stride, layer.padding)
        return linear(x, w, bias)

    errors = [float(np.mean((forward(x, weight) - forward(x, reference_weight)) ** 2))
              for x in inputs]
    return float(np.mean(errors))


# ----------------------------------------------------------------------
# images and summaries
# ----------------------------------------------------------------------
def check_images(name: str, images: np.ndarray) -> None:
    require(bool(np.all(np.isfinite(images))), f"{name}: non-finite image values")
    require(float(images.min()) >= -1.0 and float(images.max()) <= 1.0,
            f"{name}: image values outside [-1, 1] "
            f"({float(images.min())}, {float(images.max())})")


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt(np.mean(diff * diff)))


#: A tail percentile is reported only with at least this many samples
#: beyond it, so that it is a tail and not one outlier.
TAIL_SAMPLES = 10


def min_samples_for(q: float) -> int:
    """Samples needed so that ``TAIL_SAMPLES`` lie beyond percentile ``q``."""
    return math.ceil(TAIL_SAMPLES / (1.0 - q / 100.0) - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below it."""
    ordered = sorted(values)
    require(len(ordered) > 0, "percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def fp_layers(unet) -> List[Tuple[str, object]]:
    """Quantized U-Net layers whose weight quantizer holds an FP format."""
    found = []
    for path, module in unet.named_modules():
        quantizer = getattr(module, "weight_quantizer", None)
        fmt = getattr(quantizer, "fmt", None)
        if fmt is not None and hasattr(fmt, "exponent_bits") \
                and hasattr(module, "original_weight"):
            found.append((path, module))
    return found


def check_fp_weights(name: str, unet, learned: Dict[str, bool] = None) -> int:
    """Every FP-quantized weight lies on its format's grid; learned-rounding
    weights are a grid neighbour of their clipped FP32 weight.

    Returns the number of layers checked.
    """
    layers = fp_layers(unet)
    require(len(layers) > 0, f"{name}: no FP-quantized layers found")
    for path, module in layers:
        fmt = module.weight_quantizer.fmt
        grid = fp_grid(fmt.exponent_bits, fmt.mantissa_bits, fmt.bias)
        weight = module.weight.data
        bad = off_grid_count(grid, weight)
        require(bad == 0, f"{name}: {bad} weights of {path} lie off the "
                f"E{fmt.exponent_bits}M{fmt.mantissa_bits} bias={fmt.bias} grid")
        if learned and learned.get(path):
            bad = not_neighbour_count(grid, weight, module.original_weight)
            require(bad == 0, f"{name}: {bad} learned-rounding weights of "
                    f"{path} are not a grid neighbour of their FP32 weight")
    return len(layers)
