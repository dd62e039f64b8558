"""What every workload module shares.

A workload module provides ``setup(seed, source) -> state`` (timed and
repeated by ``run.py``), ``measure(state, seed, seconds, rounds=None)
-> Outcome`` and ``check(state, outcome)``, which raises
``checks.CheckFailed``.  ``measure`` attempts whole rounds of the same
operations until ``seconds`` have passed (at least one round), or
exactly ``rounds`` rounds when given: the traced run repeats the
untraced run's rounds so that the two wall times price the same work.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict


def derive(seed: int, purpose: str) -> int:
    """A seed for one purpose (prompts, noise, arrivals) of a run seed."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def another_round(done: int, rounds, started: float, seconds: float) -> bool:
    """Whether ``measure`` starts another round."""
    if rounds:
        return done < rounds
    return done == 0 or time.perf_counter() - started < seconds


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    rounds: int
    #: Seconds the program worked: the measured loop's wall time.
    work_s: float
    #: Per-layer figures only the workload can see (serving statistics).
    layer_figures: Dict[str, float] = field(default_factory=dict)
    #: Reference figures ``check`` computed (printed with the run record).
    check_figures: Dict[str, float] = field(default_factory=dict)
    #: Outputs kept for ``check``.
    artifacts: Dict[str, Any] = field(default_factory=dict)
