"""End-to-end benchmark: PTQ, W8A8 generation and serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ptq-fp4rl-sd --seed 1 --seconds 10 --trace 0

Workloads: ``ptq-fp4rl-sd``, ``generate-w8a8-sdxl``, ``serve-t2i-sd``
(see README.md).  ``--trace 0`` prints the end-to-end metrics of an
untraced run; ``--trace 1`` runs the same work untraced and then traced
and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is the result object; the lines before it
record the run's conditions.  Exit code 0 means every output check
passed; a failed check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from env import pin_threads

pin_threads()  # before anything imports numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = {
    "ptq-fp4rl-sd": "ptq_fp4rl_sd",
    "generate-w8a8-sdxl": "generate_w8a8_sdxl",
    "serve-t2i-sd": "serve_t2i_sd",
}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _arguments():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(line: dict) -> None:
    print(json.dumps(line), flush=True)


def main() -> int:
    args = _arguments()
    import importlib

    import checks
    import inputs
    import selftest
    from env import environment

    selftests = selftest.run()
    conditions = environment(ROOT)
    prepare_s = inputs.prepare(conditions["source_sha256"])
    _emit({"environment": conditions, "selftests_passed": selftests,
           "inputs_prepare_s": prepare_s})

    workload = importlib.import_module(WORKLOADS[args.workload])
    source = conditions["source_sha256"]
    setup_times, state = [], None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        state = None
        started = time.perf_counter()
        state = workload.setup(args.seed, source)
        setup_times.append(time.perf_counter() - started)
    peaks = {"setup": _peak_rss_mb()}

    correct, problem, metrics = True, None, {}
    outcome = workload.measure(state, args.seed, args.seconds)
    peaks["measure"] = _peak_rss_mb()
    units = _units("per_layer" if args.trace else "end_to_end")
    try:
        workload.check(state, outcome)
        if args.trace:
            metrics = _traced(workload, state, args, outcome)
        else:
            # memory of set-up and the measured work; the checks' own
            # regenerations come after and are not the program's cost
            metrics = dict(outcome.metrics, setup_s=checks.median(setup_times),
                           peak_rss_mb=peaks["measure"])
        checks.require(set(metrics) == set(units),
                       f"metrics missing: {sorted(set(units) - set(metrics))}, "
                       f"not in BENCHMARK.json: {sorted(set(metrics) - set(units))}")
    except checks.CheckFailed as failure:
        correct, problem, metrics = False, str(failure), {}
    _emit({"run": {"workload": args.workload, "seed": args.seed,
                   "setup_times_s": setup_times, "peak_rss_mb_by_phase": peaks,
                   "rounds": outcome.rounds,
                   "work_s": outcome.work_s, "problem": problem,
                   "checks": outcome.check_figures,
                   "layers": outcome.layer_figures}})
    _emit({"correct": correct, "attempted": outcome.attempted,
           "failed": outcome.failed,
           "metrics": {name: {"value": value, "unit": units[name]}
                       for name, value in metrics.items()}})
    return 0 if correct else 1


def _traced(workload, state, args, untraced) -> dict:
    """Repeat the untraced run's rounds with every layer wrapped."""
    from repro.tensor import count_macs

    import checks
    import tracing

    tracer = tracing.Tracer()
    tracing.install_spans(tracer)
    with count_macs() as macs:
        traced = workload.measure(state, args.seed, args.seconds,
                                  rounds=untraced.rounds)
    tracer.add("tensor.backend.macs", macs.macs)
    for name, value in traced.layer_figures.items():
        tracer.add(name, value)
    figures = {"trace.coverage": tracer.top_level / traced.work_s,
               "trace.overhead": traced.work_s / untraced.work_s,
               "trace.wall_s": traced.work_s,
               "trace.untraced_wall_s": untraced.work_s}
    metrics = {name: entry["value"] for name, entry in
               tracing.per_layer_metrics(tracer, figures).items()}
    # checked after the figures are taken: check work is not workload work
    workload.check(state, traced)
    checks.require(traced.attempted == untraced.attempted
                   and traced.failed == untraced.failed,
                   "the traced run attempted other work than the untraced one")
    return metrics


def _units(kind: str) -> dict:
    """Name -> unit of every metric a run of ``kind`` must print: every
    ``end_to_end`` metric untraced, every ``per_layer`` metric traced."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in benchmark[kind]}


if __name__ == "__main__":
    sys.exit(main())
