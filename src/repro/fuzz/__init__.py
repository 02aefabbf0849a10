"""Seeded adversary-strategy fuzzing (``python -m repro fuzz``).

Exhaustive verification (:mod:`repro.verify`) owns the soundness story:
it quantifies over *every* schedule of an instance and is therefore the
final word on whether a property holds.  The fuzzer owns the opposite
trade: it samples schedules from adversary *strategy families* —
pure-random, telemetry-greedy, lockstep and covering-style templates —
and hunts for violations far beyond the state budgets an exhaustive
walk can afford.  Its verdicts are one-sided by construction: a hit is
always certified (replayed through
:func:`repro.runtime.replay.replay_schedule` and shrunk to a minimal
schedule) while a clean run proves nothing.

Everything is driven by one root seed: episode ``i`` of family ``f``
derives its own :class:`random.Random` from ``(seed, i, f)``, so runs
are reproducible step-for-step and shard cleanly across farm cells
(:mod:`repro.farm`).

The search steps through a :class:`StepMemo`, the interpreted kernel
memoised over interned states: one per one-shot run, or one per target
for every cell a farm worker drains.  The public shrinkers
(:func:`shrink_lasso`, :func:`shrink_safety`) step through a
:class:`StepMemo` the caller builds for one instance.
See ``docs/FUZZING.md`` for the strategy families, the seed/replay
contract and shrink semantics.
"""

from repro.fuzz.engine import FuzzReport, FuzzViolation, run_fuzz
from repro.fuzz.shrink import StepMemo, shrink_lasso, shrink_safety
from repro.fuzz.strategies import STRATEGY_FAMILIES, build_strategy

__all__ = [
    "FuzzReport",
    "FuzzViolation",
    "run_fuzz",
    "StepMemo",
    "shrink_safety",
    "shrink_lasso",
    "STRATEGY_FAMILIES",
    "build_strategy",
]
