"""Adversary strategy families for the fuzzer.

A *strategy* picks which enabled process steps next, one pid at a time,
from a :class:`FuzzContext` snapshot of the current state.  Strategies
are the fuzzer's hypothesis library — each family encodes one folk
theorem about where coordination algorithms break:

* ``random`` — uniform over the enabled set; the unbiased baseline.
* ``greedy`` — telemetry-biased: processes that have been colliding on
  physical registers (and those whose pending operation targets a
  register another enabled process is also about to touch) are favoured,
  steering runs toward contention.
* ``lockstep`` — the Theorem 3.4 template: every live process takes
  exactly one step per round, in a fixed rotation.  Against a symmetric
  algorithm over an even register count this *is* the livelock schedule;
  the strategy surrenders (returns ``None``) as soon as strict lockstep
  becomes impossible, because a broken rotation proves nothing.
* ``covering`` — the covering-argument template from
  :mod:`repro.lowerbounds`: block a pseudo-random subset of processes,
  run the rest in rotation for a burst, release, re-plan.  Bursts
  manufacture the "poised writers then overwrite" shapes the paper's
  lower-bound proofs build by hand.

Determinism contract: a strategy's entire decision sequence is a pure
function of its constructor ``rng`` and the sequence of contexts it is
shown.  The engine builds each context from the step memo, which is a
pure function of the state, so fixed ``(seed, episode, family)`` yields
the same schedule in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import FuzzError
from repro.types import ProcessId

__all__ = [
    "FuzzContext",
    "Strategy",
    "PureRandomStrategy",
    "TelemetryGreedyStrategy",
    "LockstepStrategy",
    "CoveringStrategy",
    "STRATEGY_FAMILIES",
    "build_strategy",
]


@dataclass(frozen=True)
class FuzzContext:
    """What a strategy sees before picking the next step.

    ``enabled`` preserves the instance's scheduler order;
    ``pending`` maps each enabled pid to the *physical* register its
    next operation touches (``None`` for local/halt steps) — both read
    from the step memo, which keeps them per locals part.
    ``contention`` counts, per pid, how many of its past accesses hit a
    register last touched by a different process.
    """

    enabled: Tuple[ProcessId, ...]
    step_index: int
    pending: Dict[ProcessId, Optional[int]]
    contention: Dict[ProcessId, int]
    halted: int


class Strategy:
    """One episode's schedule chooser (fresh instance per episode)."""

    name = "abstract"

    def choose(self, ctx: FuzzContext) -> Optional[ProcessId]:
        """The pid to step next, or ``None`` to end the episode."""
        raise NotImplementedError


class PureRandomStrategy(Strategy):
    """Uniform choice over the enabled set."""

    name = "random"

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def choose(self, ctx: FuzzContext) -> Optional[ProcessId]:
        return ctx.enabled[self._rng.randrange(len(ctx.enabled))]


class TelemetryGreedyStrategy(Strategy):
    """Weighted choice favouring contended processes.

    Weight of an enabled pid = 1 (floor: never starve anyone)
    + its contention count
    + the number of *other* enabled processes whose pending operation
    targets the same physical register (an imminent collision).
    """

    name = "greedy"

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def choose(self, ctx: FuzzContext) -> Optional[ProcessId]:
        weights: List[int] = []
        for pid in ctx.enabled:
            weight = 1 + ctx.contention.get(pid, 0)
            target = ctx.pending.get(pid)
            if target is not None:
                weight += sum(
                    1
                    for other in ctx.enabled
                    if other != pid and ctx.pending.get(other) == target
                )
            weights.append(weight)
        pick = self._rng.randrange(sum(weights))
        for pid, weight in zip(ctx.enabled, weights):
            pick -= weight
            if pick < 0:
                return pid
        return ctx.enabled[-1]  # pragma: no cover — arithmetic guard


class LockstepStrategy(Strategy):
    """Strict rotation: one step per live process per round."""

    name = "lockstep"

    def __init__(self, rng: random.Random) -> None:
        self._ring: Optional[Tuple[ProcessId, ...]] = None
        self._next = 0

    def choose(self, ctx: FuzzContext) -> Optional[ProcessId]:
        if self._ring is None:
            self._ring = ctx.enabled
        pid = self._ring[self._next % len(self._ring)]
        if pid not in ctx.enabled:
            return None  # rotation broken (someone halted): surrender
        self._next += 1
        return pid


class CoveringStrategy(Strategy):
    """Block-a-subset / run-a-burst / release, repeatedly."""

    name = "covering"

    def __init__(self, rng: random.Random, burst: int = 12) -> None:
        self._rng = rng
        self.burst = burst
        self._blocked: FrozenSet[ProcessId] = frozenset()
        self._left = 0
        self._rotation = 0

    def choose(self, ctx: FuzzContext) -> Optional[ProcessId]:
        if self._left == 0:
            # Re-plan: suspend a proper pseudo-random subset (possibly
            # empty — a burst of free rotation is also a plan).
            size = self._rng.randrange(len(ctx.enabled))
            self._blocked = frozenset(
                self._rng.sample(list(ctx.enabled), size)
            )
            self._left = self.burst
        self._left -= 1
        runnable = [p for p in ctx.enabled if p not in self._blocked]
        if not runnable:  # every survivor is blocked: release them all
            runnable = list(ctx.enabled)
            self._blocked = frozenset()
        pid = runnable[self._rotation % len(runnable)]
        self._rotation += 1
        return pid


#: Episode rotation order: episode ``i`` runs family ``i % len(...)``.
#: Lockstep first so the Theorem 3.4 template fires in episode 0.
STRATEGY_FAMILIES: Tuple[str, ...] = (
    "lockstep",
    "random",
    "greedy",
    "covering",
)

_BUILDERS = {
    "random": PureRandomStrategy,
    "greedy": TelemetryGreedyStrategy,
    "lockstep": LockstepStrategy,
    "covering": CoveringStrategy,
}


def build_strategy(family: str, rng: random.Random) -> Strategy:
    """A fresh strategy instance for one episode."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise FuzzError(
            f"unknown strategy family {family!r}; "
            f"expected one of {list(_BUILDERS)}"
        ) from None
    return builder(rng)
