"""The fuzz engine: seeded episodes over the run's step memo, certified hits.

One *episode* = one strategy instance driving one schedule from the
initial state, up to ``max_steps`` steps.  The engine watches every
state along the way:

* the spec's **safety invariant** — a violation message is a safety
  hit, witnessed by the whole schedule so far;
* **state revisits** — a revisit closes a candidate lasso
  ``(prefix, cycle)``; the oracles in :mod:`repro.fuzz.shrink` decide
  whether the cycle is a fair non-progress cycle (deadlock-freedom) or
  a solo livelock (obstruction-freedom).  The oracles re-check the
  exact conditions the exhaustive verifier's lasso validator enforces,
  so they cannot produce a false positive on a correct instance.

Every hit is shrunk (:mod:`repro.fuzz.shrink`) and then *certified*:
replayed through :func:`repro.runtime.replay.replay_schedule` on a
freshly built system, re-exhibiting the claimed violation.  A hit that
fails certification raises :class:`~repro.errors.FuzzError` — it is a
fuzzer bug, never a result.

The search, the revisit oracles and the shrinkers step through one
:class:`~repro.fuzz.shrink.StepMemo`; certification judges through a
fresh one.  A one-shot run builds its memo and drops it on return; a
caller that runs many shards of one target (a farm worker) passes
``memos=`` and every shard steps through the same memo.  The search's
states are the memo's ids, so a step, a strategy's context or an
invariant message met before is a table lookup, and a revisit hands
the oracles the id itself.

The memo also keeps the lasso witnesses its runs have certified
(:attr:`~repro.fuzz.shrink.StepMemo.certified`).  A lasso hit whose
raw witness is already there (the lockstep family, which reads no RNG,
finds the same lasso in every episode) is published with the stored
shrunk form, under its own family, episode and message, without
shrinking or replaying it again; a new witness is stored only once its
certification passes.  So each distinct witness is still certified on
a fresh system through a fresh memo, once per memo, and the report is
the one certifying every hit would give.  Runs with ``shrink=False``
or ``validate=False`` neither read nor write the table.  Safety hits
are shrunk and certified one by one: no shipped instance yields one.

Determinism: episode ``i`` of family ``f`` seeds its own
``random.Random`` from ``blake2b(f"{seed}:{i}:{f}")`` — independent of
``PYTHONHASHSEED`` and stable across shards (farm cells pass
``episode_base``).  Schedules, hits and shrunk witnesses are therefore
a pure function of the request; ``tests/fuzz/test_differential.py``
pins whole reports by digest.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, FuzzError
from repro.fuzz.shrink import (
    LASSO_ORACLES,
    StepMemo,
    cycle_is_df_violation,
    cycle_is_of_violation,
    shrink_lasso,
    shrink_safety,
)
from repro.fuzz.strategies import (
    STRATEGY_FAMILIES,
    FuzzContext,
    build_strategy,
)
from repro.request import RunRequest
from repro.runtime.kernel import GlobalState, StepInstance
from repro.types import ProcessId

__all__ = [
    "FuzzViolation",
    "FuzzReport",
    "run_fuzz",
    "episode_seed",
]

#: Per-episode schedule budget when the request does not pin one.
DEFAULT_MAX_STEPS = 256

#: Episode budget when the caller does not pin one.
DEFAULT_EPISODES = 64

Schedule = Tuple[ProcessId, ...]


def episode_seed(seed: int, episode: int, family: str) -> int:
    """The derived RNG seed of one episode.

    blake2b rather than ``hash()``: independent of PYTHONHASHSEED, so
    the same (seed, episode, family) triple replays anywhere.
    """
    digest = hashlib.blake2b(
        f"{seed}:{episode}:{family}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class FuzzViolation:
    """One certified violation: raw witness plus its shrunk form.

    For ``kind == "safety"`` the witness is ``schedule`` (the final
    state violates the invariant) and the lasso fields are empty; for
    the liveness kinds the witness is ``prefix`` + ``cycle`` repeated
    forever, and ``schedule == prefix + cycle`` for convenience.  The
    shrunk fields are what reports and regression tests should replay.
    """

    kind: str  # "safety" | "deadlock-freedom" | "obstruction-freedom"
    family: str
    episode: int
    message: str
    schedule: Schedule
    prefix: Schedule = ()
    cycle: Schedule = ()
    shrunk_schedule: Schedule = ()
    shrunk_prefix: Schedule = ()
    shrunk_cycle: Schedule = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "family": self.family,
            "episode": self.episode,
            "message": self.message,
            "schedule": list(self.schedule),
            "prefix": list(self.prefix),
            "cycle": list(self.cycle),
            "shrunk_schedule": list(self.shrunk_schedule),
            "shrunk_prefix": list(self.shrunk_prefix),
            "shrunk_cycle": list(self.shrunk_cycle),
        }


@dataclass
class FuzzReport:
    """The outcome of one fuzz run (JSON-able via :meth:`to_dict`)."""

    #: The search always steps the interpreted kernel, through the run's
    #: step memo; :meth:`to_dict` reports it under both ``kernel`` and
    #: ``effective_kernel``, the keys farm rows and manifests carry.
    kernel: ClassVar[str] = "interpreted"

    problem: str
    instance: str
    seed: int
    episode_base: int
    episodes: int
    max_steps: int
    families: Tuple[str, ...]
    episodes_run: int = 0
    steps: int = 0
    distinct_states: int = 0
    truncated_by: Optional[str] = None
    violations: List[FuzzViolation] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return bool(self.violations)

    def by_family(self) -> Dict[str, int]:
        """Violation counts per strategy family (zero rows included)."""
        counts = {family: 0 for family in self.families}
        for violation in self.violations:
            counts[violation.family] = counts.get(violation.family, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "verdict": "violation" if self.violations else "ok",
            "problem": self.problem,
            "instance": self.instance,
            "kernel": self.kernel,
            "effective_kernel": self.kernel,
            "seed": self.seed,
            "episode_base": self.episode_base,
            "episodes": self.episodes,
            "max_steps": self.max_steps,
            "families": list(self.families),
            "episodes_run": self.episodes_run,
            "steps": self.steps,
            "distinct_states": self.distinct_states,
            "truncated_by": self.truncated_by,
            "violations": [v.to_dict() for v in self.violations],
            "violations_by_family": self.by_family(),
        }


# -- the engine --------------------------------------------------------

def run_fuzz(
    request: RunRequest,
    *,
    episodes: int = DEFAULT_EPISODES,
    episode_base: int = 0,
    families: Optional[Sequence[str]] = None,
    max_violations: Optional[int] = None,
    shrink: bool = True,
    validate: bool = True,
    memos: Optional[Dict[Tuple[str, str], StepMemo]] = None,
) -> FuzzReport:
    """Fuzz one registry instance per ``request``; see module docstring.

    ``request`` carries the target (``problem``/``instance``/``params``),
    the root ``seed`` (default 0), the per-episode ``max_steps`` budget
    and an optional ``max_states`` cap on distinct states visited across
    the whole run (the run stops early with ``truncated_by="max_states"``
    when it trips).  Its ``kernel`` may be unset or ``"interpreted"``:
    the search steps through the run's step memo.  ``episode_base``
    offsets the global episode numbering so farm cells sharding one run
    reproduce exactly the episodes a one-shot run would execute.

    ``memos`` is a dict the caller owns, keyed by the resolved target
    ``(problem key, instance label)``: the run steps through the memo
    stored under its target, or builds one and stores it there.  A
    farm worker passes one dict to every fuzz cell it runs, so a state
    an earlier cell met costs later cells a lookup.  Without it the run
    builds its own memo and drops it on return.  The report is the same
    either way.
    """
    from repro.obs.telemetry import NULL_TELEMETRY

    if request.kernel == "compiled":
        raise ConfigurationError(
            "fuzzing steps the interpreted kernel through the run's step "
            "memo; got kernel='compiled' (leave kernel unset)"
        )
    if episodes < 0:
        raise FuzzError(f"episodes must be >= 0, got {episodes}")
    spec, instance_record = request.resolve()
    seed = request.seed if request.seed is not None else 0
    max_steps = request.max_steps or DEFAULT_MAX_STEPS
    telemetry = request.telemetry or NULL_TELEMETRY

    families = tuple(families or STRATEGY_FAMILIES)
    for family in families:
        build_strategy(family, random.Random(0))  # validate names early

    system = spec.system(instance_record)
    initial = system.scheduler.capture_state()
    # The search, the lasso oracles and both shrinkers step through one
    # memo, so a step met before costs a table lookup, not a kernel step.
    target = (spec.key, instance_record.label)
    memo = None if memos is None else memos.get(target)
    if memo is None:
        memo = StepMemo(StepInstance.from_system(system), spec.invariant)
        if memos is not None:
            memos[target] = memo
    start = memo.intern(initial)
    liveness_kinds = {prop.kind for prop in spec.liveness}
    theorem_of = {prop.kind: prop.theorem for prop in spec.liveness}
    check_df = "deadlock-freedom" in liveness_kinds and memo.supported
    check_of = "obstruction-freedom" in liveness_kinds

    report = FuzzReport(
        problem=spec.key,
        instance=instance_record.label,
        seed=seed,
        episode_base=episode_base,
        episodes=episodes,
        max_steps=max_steps,
        families=families,
    )
    if telemetry.enabled:
        telemetry.event(
            "fuzz.start",
            problem=spec.key,
            instance=instance_record.label,
            kernel=report.kernel,
            seed=seed,
            episodes=episodes,
        )

    context, advance, message_of = memo.context, memo.advance, memo.message
    coverage: Set[int] = set()
    pid_count = len(memo.instance.pid_order)
    for episode in range(episode_base, episode_base + episodes):
        if request.max_states is not None and len(coverage) >= request.max_states:
            report.truncated_by = "max_states"
            break
        if max_violations is not None and len(report.violations) >= max_violations:
            break
        family = families[episode % len(families)]
        rng = random.Random(episode_seed(seed, episode, family))
        strategy = build_strategy(family, rng)
        report.episodes_run += 1

        state = start
        coverage.add(state)
        seen: Dict[int, int] = {state: 0}
        schedule: List[ProcessId] = []
        contention: Dict[ProcessId, int] = {}
        last_accessor: Dict[int, ProcessId] = {}

        for step_index in range(max_steps):
            enabled, pending = context(state)
            if not enabled:
                break  # everyone settled: nothing left to schedule
            pid = strategy.choose(
                FuzzContext(
                    enabled=enabled,
                    step_index=step_index,
                    pending=pending,
                    contention=contention,
                    halted=pid_count - len(enabled),
                )
            )
            if pid is None:
                break  # strategy surrendered (e.g. broken lockstep)
            physical = pending[pid]
            state = advance(state, pid)
            schedule.append(pid)
            report.steps += 1
            if physical is not None:
                previous = last_accessor.get(physical)
                if previous is not None and previous != pid:
                    contention[pid] = contention.get(pid, 0) + 1
                last_accessor[physical] = pid

            message = message_of(state)
            if message is not None:
                report.violations.append(
                    _certify_safety(
                        spec, instance_record, memo, initial,
                        family, episode, tuple(schedule), message,
                        shrink=shrink, validate=validate,
                    )
                )
                break

            position = seen.get(state)
            if position is None:
                seen[state] = len(schedule)
                coverage.add(state)
                continue
            # Revisit: candidate lasso (prefix=schedule[:j], cycle=rest).
            cycle = tuple(schedule[position:])
            hit_kind: Optional[str] = None
            if check_df and cycle_is_df_violation(memo, state, cycle):
                hit_kind = "deadlock-freedom"
            elif check_of and cycle_is_of_violation(memo, state, cycle):
                hit_kind = "obstruction-freedom"
            if hit_kind is None:
                # Benign cycle; slide the window so the next revisit
                # yields the shortest (most recent) candidate.
                seen[state] = len(schedule)
                continue
            report.violations.append(
                _certify_lasso(
                    spec, instance_record, memo, initial,
                    family, episode, tuple(schedule[:position]), cycle,
                    hit_kind, theorem_of[hit_kind],
                    shrink=shrink, validate=validate,
                )
            )
            break

    report.distinct_states = len(coverage)
    if telemetry.enabled:
        telemetry.gauge("fuzz.episodes", report.episodes_run)
        telemetry.gauge("fuzz.steps", report.steps)
        telemetry.gauge("fuzz.distinct_states", report.distinct_states)
        telemetry.event(
            "fuzz.done",
            violations=len(report.violations),
            truncated_by=report.truncated_by,
        )
    return report


# -- certification -----------------------------------------------------

def _certify_safety(
    spec: Any,
    instance_record: Any,
    memo: StepMemo,
    initial: GlobalState,
    family: str,
    episode: int,
    schedule: Schedule,
    message: str,
    shrink: bool,
    validate: bool,
) -> FuzzViolation:
    shrunk = (
        shrink_safety(memo, initial, schedule, spec.invariant)
        if shrink
        else schedule
    )
    violation = FuzzViolation(
        kind="safety",
        family=family,
        episode=episode,
        message=message,
        schedule=schedule,
        shrunk_schedule=shrunk,
    )
    if validate:
        _validate_safety(spec, instance_record, violation)
    return violation


def _certify_lasso(
    spec: Any,
    instance_record: Any,
    memo: StepMemo,
    initial: GlobalState,
    family: str,
    episode: int,
    prefix: Schedule,
    cycle: Schedule,
    kind: str,
    theorem: str,
    shrink: bool,
    validate: bool,
) -> FuzzViolation:
    witness = (kind, prefix, cycle)
    # A run that skips either gate neither reads nor writes the table.
    certified = memo.certified if shrink and validate else {}
    known = certified.get(witness)
    if known is not None:
        shrunk_prefix, shrunk_cycle = known
    elif shrink:
        shrunk_prefix, shrunk_cycle = shrink_lasso(
            memo, initial, prefix, cycle, kind
        )
    else:
        shrunk_prefix, shrunk_cycle = prefix, cycle
    if kind == "deadlock-freedom":
        message = (
            f"fair non-progress cycle of length {len(shrunk_cycle)} after "
            f"a {len(shrunk_prefix)}-step prefix: every live process "
            f"steps, none enters the critical section ({theorem})"
        )
    else:
        message = (
            f"solo livelock: process {shrunk_cycle[0]} cycles every "
            f"{len(shrunk_cycle)} steps without settling, after a "
            f"{len(shrunk_prefix)}-step prefix ({theorem})"
        )
    violation = FuzzViolation(
        kind=kind,
        family=family,
        episode=episode,
        message=message,
        schedule=prefix + cycle,
        prefix=prefix,
        cycle=cycle,
        shrunk_schedule=shrunk_prefix + shrunk_cycle,
        shrunk_prefix=shrunk_prefix,
        shrunk_cycle=shrunk_cycle,
    )
    if known is None:
        if validate:
            _validate_lasso(spec, instance_record, memo.instance, violation)
        certified[witness] = (shrunk_prefix, shrunk_cycle)
    return violation


def _validate_safety(
    spec: Any, instance_record: Any, violation: FuzzViolation
) -> None:
    """Replay the shrunk schedule on a fresh system; the claimed
    invariant violation must reappear."""
    from repro.runtime.replay import replay_schedule

    system = spec.system(instance_record, record_trace=True)
    trace = replay_schedule(system, list(violation.shrunk_schedule))
    if len(trace.events) != len(violation.shrunk_schedule):
        raise FuzzError(
            f"safety witness did not replay: {len(trace.events)} of "
            f"{len(violation.shrunk_schedule)} steps executed"
        )
    message = spec.invariant(system)
    if message is None:
        raise FuzzError(
            "safety witness replayed clean; the fuzzer's invariant check "
            "and the live system disagree"
        )


def _validate_lasso(
    spec: Any,
    instance_record: Any,
    instance: StepInstance,
    violation: FuzzViolation,
) -> None:
    """Replay the prefix on a fresh system, then the cycle on the same
    system; the cycle must close back to the prefix's end state and the
    oracle must still hold there, judged through a fresh step memo so
    that certification re-executes every step it checks and shares
    nothing with the shrinker."""
    from repro.runtime.replay import replay_schedule

    prefix = violation.shrunk_prefix
    cycle = violation.shrunk_cycle

    system = spec.system(instance_record, record_trace=True)
    trace = replay_schedule(system, prefix)
    if len(trace.events) != len(prefix):
        raise FuzzError("lasso prefix did not replay on a fresh system")
    entry = system.scheduler.capture_state()
    # The step budget counts every step the system has taken.
    trace = replay_schedule(
        system, cycle, max_steps=len(prefix) + len(cycle) + 1
    )
    if len(trace.events) != len(prefix) + len(cycle):
        raise FuzzError("lasso cycle did not replay on a fresh system")
    if system.scheduler.capture_state() != entry:
        raise FuzzError("lasso cycle does not close back to its entry state")

    memo = StepMemo(instance)
    oracle = LASSO_ORACLES[violation.kind]
    if not oracle(memo, memo.intern(entry), tuple(cycle)):
        raise FuzzError(
            f"replayed lasso no longer satisfies the "
            f"{violation.kind} violation conditions"
        )
