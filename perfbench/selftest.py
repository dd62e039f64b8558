"""Self-tests of the benchmark's own helpers; every run executes them first.

Run alone with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import numpy as np

from checks import (
    conv2d,
    fp_grid,
    min_samples_for,
    not_neighbour_count,
    off_grid_count,
    percentile,
    require,
    round_to_nearest,
)


def _grid() -> None:
    e4m3 = fp_grid(4, 3, 7)
    # Eq. 7 reserves no NaN code, so E4M3 with bias 7 reaches 480; the
    # OCP E4M3 "FN" variant gives that top code to NaN and stops at 448,
    # the next grid value down.
    require(e4m3[-1] == 480.0 and e4m3[-2] == 448.0,
            f"E4M3 bias 7 tops at {e4m3[-2:]}, expected 448, 480")
    require(e4m3.size == 255, f"E4M3 has {e4m3.size} signed values, expected 255")
    require(e4m3[128] == 2.0 ** -9, "E4M3 bias 7 smallest subnormal is not 2^-9")
    e2m1 = fp_grid(2, 1, 1)
    require(list(e2m1[e2m1 >= 0]) == [0, 0.5, 1, 1.5, 2, 3, 4, 6],
            f"E2M1 bias 1 grid is {list(e2m1)}")
    require(np.array_equal(e2m1, -e2m1[::-1]), "grid is not sign-symmetric")
    # A real-valued bias slides the grid: bias 2 halves every E2M1 value.
    require(np.allclose(fp_grid(2, 1, 2), e2m1 / 2), "bias does not scale the grid")

    values = np.array([0.0, 0.5, -6.0, 2.9999999], dtype=np.float32)
    require(off_grid_count(e2m1, values) == 0, "on-grid values reported off grid")
    require(off_grid_count(e2m1, np.array([2.5, 7.0])) == 2,
            "off-grid values not reported")
    original = np.array([2.2, -2.2, 9.0, 0.1])
    require(not_neighbour_count(e2m1, np.array([2.0, -3.0, 6.0, 0.5]), original) == 0,
            "floor/ceiling neighbours rejected")
    require(not_neighbour_count(e2m1, np.array([4.0, 2.0, 4.0, 1.0]), original) == 4,
            "non-neighbours accepted")
    require(list(round_to_nearest(e2m1, np.array([2.2, -2.6, 9.0, 0.3])))
            == [2.0, -3.0, 6.0, 0.5], "round-to-nearest onto the grid is wrong")


def _percentiles() -> None:
    values = list(range(100, 0, -1))
    require(percentile(values, 50) == 50 and percentile(values, 90) == 90,
            "nearest-rank percentile is wrong")
    require(percentile([3.0], 90) == 3.0, "percentile of one sample")
    require(min_samples_for(90) == 100 and min_samples_for(50) == 20,
            "tail sample count is wrong")


def _conv() -> None:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 5, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    out = conv2d(x, w, b, stride=2, padding=1)
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    naive = np.zeros((2, 4, 3, 3))
    for n in range(2):
        for o in range(4):
            for i in range(3):
                for j in range(3):
                    patch = padded[n, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                    naive[n, o, i, j] = np.sum(patch * w[o]) + b[o]
    require(np.allclose(out, naive), "numpy conv2d disagrees with the naive loop")


def run() -> int:
    """Run every self-test; returns how many ran."""
    tests = (_grid, _percentiles, _conv)
    for test in tests:
        test()
    return len(tests)


if __name__ == "__main__":
    print(f"{run()} self-tests passed")
