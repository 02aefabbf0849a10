"""Problem specifications: one declarative record per shipped algorithm.

A :class:`ProblemSpec` bundles everything the rest of the codebase used
to hand-wire per consumer — the automaton builder, the parameter space,
the safety invariant, the declared liveness properties, and the concrete
instances each consumer runs — so that ``explore()``/``sweep()``, the
lint passes, the experiments harness, the exploration benchmark and the
CLI all resolve algorithms through one table
(:mod:`repro.problems.registry`) instead of five drifting copies.

Design notes
------------
* Specs are *frozen* values: builders are plain callables taking the
  instance's parameter dict, so a spec can be shipped to worker
  processes or introspected without instantiating anything.
* Instances carry **roles** (``"lint"``, ``"verify"``, ``"bench"``)
  rather than living in per-consumer tables; budgets that only one
  consumer reads (lint exploration caps, bench overrides) live on the
  instance next to the parameters they budget.
* Liveness properties are declarations, not implementations: the
  exhaustive checkers live in :mod:`repro.verify` and look the property
  kind up here (``"deadlock-freedom"`` → SCC non-progress-cycle
  analysis, ``"obstruction-freedom"`` → per-state solo-run
  termination).  ``expect_violation`` marks seeded mutants whose whole
  point is to *fail* verification with a replayable counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.runtime.automaton import Algorithm, ProcessAutomaton
from repro.types import ProcessId

#: Inputs as accepted by :class:`repro.runtime.system.System`.
Inputs = Union[Sequence[ProcessId], Mapping[ProcessId, object]]

#: Builder callables receive the instance's parameter dict.
AlgorithmBuilder = Callable[[Dict[str, Any]], Algorithm]
InputsBuilder = Callable[[Dict[str, Any]], Inputs]
NamingBuilder = Callable[[Dict[str, Any]], Any]

#: The roles an instance can play (which consumer runs it).
ROLES = ("lint", "verify", "bench")

#: Liveness property kinds the exhaustive verifier implements.
LIVENESS_KINDS = ("deadlock-freedom", "obstruction-freedom")


@dataclass(frozen=True)
class AutomatonFootprint:
    """The register read/write footprint of one automaton class.

    Declared here (on the spec, next to the automata it describes) and
    *inferred* independently by the dataflow IR in
    :mod:`repro.lint.ir`; :mod:`repro.lint.footprints` cross-checks the
    two and turns any drift into a build-breaking finding.  The
    ``writes_*`` flags classify the provenance of values an automaton
    can store into registers; ``write_constants``/``index_constants``
    name the literal payloads and register indices used along
    pure-constant paths; ``symbolic_indexing`` records whether any
    register index is computed (renamed views, hashed slots) rather
    than literal; ``forwards_values`` marks wrappers that relay an
    inner automaton's operations; ``no_ops`` marks automata that never
    construct a register operation themselves.
    """

    writes_pid: bool = False
    writes_input: bool = False
    writes_memory: bool = False
    writes_counter: bool = False
    writes_config: bool = False
    write_constants: Tuple[Any, ...] = ()
    index_constants: Tuple[Any, ...] = ()
    symbolic_indexing: bool = False
    forwards_values: bool = False
    no_ops: bool = False

    def describe(self) -> str:
        """A compact human-readable summary (used in drift findings)."""
        parts = [
            name
            for name, flag in (
                ("pid", self.writes_pid),
                ("input", self.writes_input),
                ("memory", self.writes_memory),
                ("counter", self.writes_counter),
                ("config", self.writes_config),
            )
            if flag
        ]
        if self.write_constants:
            parts.append(f"consts={list(self.write_constants)!r}")
        if self.index_constants:
            parts.append(f"indices={list(self.index_constants)!r}")
        if self.symbolic_indexing:
            parts.append("symbolic-indexing")
        if self.forwards_values:
            parts.append("forwards")
        if self.no_ops:
            parts.append("no-ops")
        return "writes[" + ", ".join(parts) + "]" if parts else "writes[]"


@dataclass(frozen=True)
class LivenessProperty:
    """One liveness claim the exhaustive verifier can check.

    ``kind`` selects the checker (see :data:`LIVENESS_KINDS`);
    ``theorem`` names the paper claim the check reproduces;
    ``expect_violation`` marks seeded mutants: the verifier still runs
    the same analysis, but a *found* counterexample is the expected
    outcome (Theorem 3.4's even-``m`` livelock, for example).
    """

    kind: str
    theorem: str
    expect_violation: bool = False

    def __post_init__(self) -> None:
        if self.kind not in LIVENESS_KINDS:
            raise ValueError(
                f"unknown liveness kind {self.kind!r}; "
                f"expected one of {LIVENESS_KINDS}"
            )


@dataclass(frozen=True)
class ProblemInstance:
    """One concrete parameterisation of a problem.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so
    instances stay hashable; :meth:`params_dict` rebuilds the dict the
    spec's builders consume.  ``max_states``/``max_depth`` budget the
    *lint* exploration (pc reachability, anonymity audit);
    ``verify_max_states`` budgets the exhaustive verification walk,
    which retains the full state graph and therefore gets its own cap.
    ``bench_label``/``bench_quick``/``bench_overrides`` parameterise the
    exploration benchmark row this instance backs (labels are the
    trajectory keys in ``benchmarks/BENCH_explore.json`` and must stay
    stable across refactors).
    """

    label: str
    params: Tuple[Tuple[str, Any], ...] = ()
    roles: Tuple[str, ...] = ("lint",)
    max_states: int = 150_000
    max_depth: int = 10_000
    race_check: bool = False
    thread_steps: int = 200_000
    naming_seed: Optional[int] = 1
    notes: str = field(default="", compare=False)
    verify_max_states: int = 1_000_000
    bench_label: Optional[str] = None
    bench_quick: bool = False
    bench_overrides: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        for role in self.roles:
            if role not in ROLES:
                raise ValueError(
                    f"instance {self.label!r}: unknown role {role!r}; "
                    f"expected a subset of {ROLES}"
                )

    def params_dict(self) -> Dict[str, Any]:
        """The parameters as the dict the spec's builders receive."""
        return dict(self.params)

    def has_role(self, role: str) -> bool:
        """Whether this instance is run by the given consumer."""
        return role in self.roles


@dataclass(frozen=True)
class ProblemSpec:
    """The single source of truth for one shipped (or mutant) algorithm.

    ``build``/``inputs`` construct a fresh algorithm and its inputs from
    an instance's parameter dict; ``naming`` (optional) builds the
    naming assignment the *verifier* uses — ``None`` means the system
    default, while seeded mutants pin the adversarial naming their
    counterexample needs (the Theorem 3.4 ring).  ``automata`` lists the
    :class:`~repro.runtime.automaton.ProcessAutomaton` classes this
    problem ships, which is what the lint passes analyse statically.
    """

    key: str
    title: str
    module: str
    automata: Tuple[Type[ProcessAutomaton], ...]
    build: AlgorithmBuilder
    inputs: InputsBuilder
    theorems: Tuple[str, ...] = ()
    invariant: Optional[Callable[[Any], Optional[str]]] = None
    liveness: Tuple[LivenessProperty, ...] = ()
    instances: Tuple[ProblemInstance, ...] = ()
    naming: Optional[NamingBuilder] = None
    mutant: bool = False
    #: Declared register footprints, keyed by automaton qualname; the
    #: footprint pass cross-checks these against the inferred ones.
    footprints: Tuple[Tuple[str, AutomatonFootprint], ...] = ()
    #: Optional declaration of the closed register value domain, as a
    #: function of an instance's parameter dict: every value any
    #: register can ever hold (including initial contents).  The
    #: compiled kernel seeds its value domain with it (a superset is
    #: harmless — writes complete any subset as a walk reaches them, at
    #: the cost of re-encoding the two-process walk's int states), and
    #: the differential tests cross-check the discovered domain against
    #: it.
    #: ``None`` for problems whose domain is combinatorial (renaming
    #: records carry unbounded history sets).
    value_domain: Optional[Callable[[Dict[str, Any]], Tuple[Any, ...]]] = None

    def instance(self, label: str) -> ProblemInstance:
        """The instance with the given label.

        Raises :class:`KeyError` (with the known labels) when absent, so
        CLI typos fail with a useful message.
        """
        for inst in self.instances:
            if inst.label == label:
                return inst
        raise KeyError(
            f"problem {self.key!r} has no instance {label!r}; "
            f"known: {[inst.label for inst in self.instances]}"
        )

    def instances_with_role(self, role: str) -> Tuple[ProblemInstance, ...]:
        """All instances the given consumer runs, in declaration order."""
        return tuple(inst for inst in self.instances if inst.has_role(role))

    def algorithm(self, instance: ProblemInstance) -> Algorithm:
        """A fresh algorithm object for the instance."""
        return self.build(instance.params_dict())

    def system(self, instance: ProblemInstance, record_trace: bool = False):
        """A configured :class:`~repro.runtime.system.System` for the
        instance, under the spec's verification naming (identity unless
        the spec pins one)."""
        from repro.runtime.system import System

        params = instance.params_dict()
        naming = self.naming(params) if self.naming is not None else None
        return System(
            self.build(params),
            self.inputs(params),
            naming=naming,
            record_trace=record_trace,
        )
