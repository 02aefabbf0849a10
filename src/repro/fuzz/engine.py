"""The fuzz engine: seeded episodes, two kernels, certified hits.

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
fuzzer bug, never a result.  The revisit oracles and the shrinkers
step through one :class:`~repro.fuzz.shrink.StepMemo` per run;
certification judges through a fresh one.

Determinism: episode ``i`` of family ``f`` seeds its own
``random.Random`` from ``blake2b(f"{seed}:{i}:{f}")`` — independent of
``PYTHONHASHSEED``, stable across shards (farm cells pass
``episode_base``), and kernel-independent.  The compiled kernel steps
packed states (:mod:`repro.runtime.compiled`); packing is a bijection
on the states a run reaches, so revisit positions — and therefore
schedules, hits and shrunk witnesses — are byte-identical to the
interpreted kernel's (pinned by ``tests/fuzz/test_differential.py``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

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
from repro.runtime.kernel import (
    GlobalState,
    StateView,
    StepInstance,
    step_value,
)
from repro.runtime.ops import ReadOp, WriteOp
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

    problem: str
    instance: str
    kernel: str
    effective_kernel: str
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
            "problem": self.problem,
            "instance": self.instance,
            "kernel": self.kernel,
            "effective_kernel": self.effective_kernel,
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


# -- steppers ----------------------------------------------------------
#
# Both kernels expose the same five operations; their state keys differ
# (value tuples vs packed index tuples) but are bijective over the
# states a run reaches, so revisit bookkeeping is kernel-independent.

class _InterpretedStepper:
    kernel = "interpreted"
    #: No step here can overflow a table (catches nothing).
    overflow: Tuple[type, ...] = ()

    def __init__(
        self,
        instance: StepInstance,
        initial: GlobalState,
        invariant: Optional[Callable[..., Optional[str]]],
    ) -> None:
        self.instance = instance
        self.initial = initial
        self._invariant = invariant

    def step(self, state: GlobalState, pid: ProcessId) -> GlobalState:
        return step_value(self.instance, state, pid)

    def enabled(self, state: GlobalState) -> Tuple[ProcessId, ...]:
        locals_part = state[1]
        slot_of = self.instance.slot_of
        return tuple(
            pid
            for pid in self.instance.pid_order
            if not (
                locals_part[slot_of[pid]][2] or locals_part[slot_of[pid]][3]
            )
        )

    def check(self, state: GlobalState) -> Optional[str]:
        if self._invariant is None:
            return None
        return self._invariant(StateView(self.instance, state))

    def pending_physical(
        self, state: GlobalState, pid: ProcessId
    ) -> Optional[int]:
        local = self.instance.slot_entry(state, pid)[1]
        try:
            op = self.instance.automata[pid].next_op(local)
        except Exception:  # noqa: BLE001 — poison ops surface on step
            return None
        if isinstance(op, (ReadOp, WriteOp)):
            perm = self.instance.permutations[pid]
            if 0 <= op.index < len(perm):
                return perm[op.index]
        return None

    def to_value_state(self, state: GlobalState) -> GlobalState:
        return state


class _CompiledStepper:
    kernel = "compiled"

    def __init__(
        self,
        program: Any,
        invariant: Optional[Callable[..., Optional[str]]],
    ) -> None:
        from repro.runtime.compiled import CompileOverflow, compile_checker

        #: Raised when a step fills the tables past their caps.
        self.overflow = CompileOverflow
        self.instance = program.instance
        self.program = program
        self.initial = program.initial_packed
        self._checker = (
            compile_checker(invariant, program)
            if invariant is not None
            else None
        )

    def step(self, packed: Tuple[int, ...], pid: ProcessId) -> Tuple[int, ...]:
        return self.program.step_packed(
            packed, self.instance.slot_of[pid]
        )

    def enabled(self, packed: Tuple[int, ...]) -> Tuple[ProcessId, ...]:
        program = self.program
        return tuple(
            pid
            for pid, slot, offset in program.step_order
            if not (
                program.halted[slot][packed[offset]] or program.crashed[slot]
            )
        )

    def check(self, packed: Tuple[int, ...]) -> Optional[str]:
        if self._checker is None:
            return None
        return self._checker(packed)

    def pending_physical(
        self, packed: Tuple[int, ...], pid: ProcessId
    ) -> Optional[int]:
        from repro.runtime.compiled import OP_READ, OP_WRITE

        program = self.program
        slot = self.instance.slot_of[pid]
        si = packed[program.m + slot]
        # The tables fill on demand: classify a pending state first.
        if program.classify(slot, si) in (OP_READ, OP_WRITE):
            return program.arg[slot][si]
        return None

    def to_value_state(self, packed: Tuple[int, ...]) -> GlobalState:
        return self.program.unpack(packed)


# -- the engine --------------------------------------------------------

def _build_stepper(
    spec: Any,
    instance: StepInstance,
    initial: GlobalState,
    invariant: Optional[Callable[..., Optional[str]]],
    kernel: str,
    params: Dict[str, Any],
) -> Any:
    if kernel == "interpreted":
        return _InterpretedStepper(instance, initial, invariant)
    from repro.runtime.compiled import CompileOverflow, compile_program

    domain_hint: Sequence[Any] = ()
    if spec.value_domain is not None:
        domain_hint = spec.value_domain(params)
    try:
        program = compile_program(instance, initial, domain_hint=domain_hint)
    except CompileOverflow:
        # Same fallback contract as CompiledBackend: outside the
        # enumerable envelope the interpreted kernel takes over; the
        # report records the effective kernel.
        return _InterpretedStepper(instance, initial, invariant)
    return _CompiledStepper(program, invariant)


def run_fuzz(
    request: RunRequest,
    *,
    episodes: int = DEFAULT_EPISODES,
    episode_base: int = 0,
    families: Optional[Sequence[str]] = None,
    max_violations: Optional[int] = None,
    shrink: bool = True,
    validate: bool = True,
) -> FuzzReport:
    """Fuzz one registry instance per ``request``; see module docstring.

    ``request`` carries the target (``problem``/``instance``/``params``),
    the root ``seed`` (default 0), the per-episode ``max_steps`` budget,
    the step ``kernel`` and an optional ``max_states`` cap on distinct
    states visited across the whole run (the run stops early with
    ``truncated_by="max_states"`` when it trips).  ``episode_base``
    offsets the global episode numbering so farm cells sharding one run
    reproduce exactly the episodes a one-shot run would execute.
    """
    from repro.obs.telemetry import NULL_TELEMETRY

    if isinstance(request.backend, str) and request.backend != "serial":
        raise ConfigurationError(
            f"fuzzing is serial per episode; got backend "
            f"{request.backend!r} (use workers= to shard episodes "
            "across farm cells)"
        )
    if episodes < 0:
        raise FuzzError(f"episodes must be >= 0, got {episodes}")
    spec, instance_record = request.resolve()
    kernel = request.kernel or "interpreted"
    seed = request.seed if request.seed is not None else 0
    max_steps = request.max_steps or DEFAULT_MAX_STEPS
    telemetry = request.telemetry or NULL_TELEMETRY

    families = tuple(families or STRATEGY_FAMILIES)
    for family in families:
        build_strategy(family, random.Random(0))  # validate names early

    system = spec.system(instance_record)
    instance = StepInstance.from_system(system)
    initial = system.scheduler.capture_state()
    params = instance_record.params_dict()
    stepper = _build_stepper(
        spec, instance, initial, spec.invariant, kernel, params
    )
    # One step memo per run: the lasso oracles and both shrinkers step
    # through it, so ddmin's replays cost table lookups, not kernel steps.
    memo = StepMemo(instance)
    liveness_kinds = {prop.kind for prop in spec.liveness}
    theorem_of = {prop.kind: prop.theorem for prop in spec.liveness}
    check_df = "deadlock-freedom" in liveness_kinds and memo.supported
    check_of = "obstruction-freedom" in liveness_kinds

    def fuzz_with(stepper: Any) -> FuzzReport:
        report = FuzzReport(
            problem=spec.key,
            instance=instance_record.label,
            kernel=kernel,
            effective_kernel=stepper.kernel,
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
                kernel=stepper.kernel,
                seed=seed,
                episodes=episodes,
            )

        coverage: Set[Any] = set()
        pid_count = len(instance.pid_order)
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

            state = stepper.initial
            coverage.add(state)
            seen: Dict[Any, int] = {state: 0}
            schedule: List[ProcessId] = []
            contention: Dict[ProcessId, int] = {}
            last_accessor: Dict[int, ProcessId] = {}

            for step_index in range(max_steps):
                enabled = stepper.enabled(state)
                if not enabled:
                    break  # everyone settled: nothing left to schedule
                pending = {
                    pid: stepper.pending_physical(state, pid) for pid in enabled
                }
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
                state = stepper.step(state, pid)
                schedule.append(pid)
                report.steps += 1
                if physical is not None:
                    previous = last_accessor.get(physical)
                    if previous is not None and previous != pid:
                        contention[pid] = contention.get(pid, 0) + 1
                    last_accessor[physical] = pid

                message = stepper.check(state)
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
                entry = memo.intern(stepper.to_value_state(state))
                hit_kind: Optional[str] = None
                if check_df and cycle_is_df_violation(memo, entry, cycle):
                    hit_kind = "deadlock-freedom"
                elif check_of and cycle_is_of_violation(memo, entry, cycle):
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
        return report

    try:
        report = fuzz_with(stepper)
    except stepper.overflow:
        # The run reached past the compiled tables' caps: as with
        # CompiledBackend, the interpreted kernel runs it again whole.
        report = fuzz_with(
            _InterpretedStepper(instance, initial, spec.invariant)
        )
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
    if shrink:
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
    if validate:
        _validate_lasso(spec, instance_record, memo.instance, violation)
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
    """Replay prefix and prefix+cycle on fresh systems; the cycle must
    close back to the prefix's end state and the oracle must still hold
    there, judged through a fresh step memo so that certification
    re-executes every step it checks and shares nothing with the
    shrinker."""
    from repro.runtime.replay import replay_schedule

    prefix = list(violation.shrunk_prefix)
    cycle = list(violation.shrunk_cycle)

    entry_system = spec.system(instance_record, record_trace=True)
    entry_trace = replay_schedule(entry_system, prefix)
    if len(entry_trace.events) != len(prefix):
        raise FuzzError("lasso prefix did not replay on a fresh system")
    entry = entry_system.scheduler.capture_state()

    closed_system = spec.system(instance_record, record_trace=True)
    closed_trace = replay_schedule(closed_system, prefix + cycle)
    if len(closed_trace.events) != len(prefix) + len(cycle):
        raise FuzzError("lasso cycle did not replay on a fresh system")
    if closed_system.scheduler.capture_state() != entry:
        raise FuzzError("lasso cycle does not close back to its entry state")

    memo = StepMemo(instance)
    oracle = LASSO_ORACLES[violation.kind]
    if not oracle(memo, memo.intern(entry), tuple(cycle)):
        raise FuzzError(
            f"replayed lasso no longer satisfies the "
            f"{violation.kind} violation conditions"
        )
