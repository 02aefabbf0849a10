"""Run registry instances through exhaustive safety + liveness checking.

One :func:`verify_instance` call is the whole pipeline for a single
:class:`~repro.problems.spec.ProblemInstance`:

1. build the system through its :class:`~repro.problems.spec.ProblemSpec`
   (the spec's pinned naming included — mutants pin the adversarial
   naming their counterexample needs);
2. exhaustively explore with the safety invariant and
   ``retain_graph=True`` (trivial canonicalizer; interpreted or
   compiled kernel — the retained graph is byte-identical either way);
3. run every declared liveness property's checker
   (:data:`~repro.verify.liveness.LIVENESS_CHECKERS`) over the graph,
   each timed as its own ``verify.liveness.<kind>`` telemetry phase
   inside ``verify.liveness``.

The resulting :class:`VerificationReport` is the CLI's unit of output
(``python -m repro verify``) and can be serialised as a
``repro.run_manifest/v1`` document for ``python -m repro report``.

No adversary sampling anywhere: where the seed CLI's verify command
checked safety exhaustively but left liveness to the adversary-driven
experiment harness, this pipeline decides the declared liveness
theorems over *every* reachable state.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import ConfigurationError, VerificationError
from repro.obs.manifest import RunManifest
from repro.obs.telemetry import NULL_TELEMETRY, TelemetrySink
from repro.problems.spec import LivenessProperty, ProblemInstance, ProblemSpec
from repro.request import RunRequest, resolve_target
from repro.runtime.exploration import ExplorationResult, explore
from repro.runtime.kernel import StepInstance
from repro.verify.liveness import LIVENESS_CHECKERS, LivenessVerdict


def _no_invariant(system: Any) -> Optional[str]:
    """Stand-in safety invariant for specs that declare none."""
    return None


@dataclass(frozen=True)
class PropertyOutcome:
    """One liveness property's declared expectation vs. checked verdict."""

    declared: LivenessProperty
    verdict: LivenessVerdict

    @property
    def ok(self) -> bool:
        """Whether the verdict matches the declaration: properties hold,
        and seeded mutants (``expect_violation``) are *found out*."""
        return self.verdict.holds is not self.declared.expect_violation

    def describe(self) -> str:
        kind = self.verdict.kind
        if self.verdict.holds:
            word = "holds"
        elif self.declared.expect_violation:
            word = "violated (as seeded)"
        else:
            word = "VIOLATED"
        return f"{kind} ({self.declared.theorem}) {word}"


@dataclass
class VerificationReport:
    """Everything one instance's verification run established."""

    problem: str
    instance: str
    exploration: ExplorationResult
    outcomes: Tuple[PropertyOutcome, ...] = ()
    #: Wall seconds of the graph-retaining exploration walk.
    explore_seconds: float = 0.0
    #: Wall seconds of the liveness analyses over the retained graph.
    verify_seconds: float = 0.0

    @property
    def retained_edges(self) -> int:
        graph = self.exploration.graph
        return graph.edge_count if graph is not None else 0

    @property
    def safety_ok(self) -> bool:
        return self.exploration.ok

    @property
    def ok(self) -> bool:
        """Safety exhaustively confirmed and every declared liveness
        property matched its expectation."""
        return (
            self.exploration.ok
            and self.exploration.complete
            and all(outcome.ok for outcome in self.outcomes)
        )

    def summary(self) -> str:
        """One line for the CLI table."""
        if not self.exploration.ok:
            return f"safety VIOLATED: {self.exploration.violation}"
        parts = [
            f"safety exhaustive over {self.exploration.states_explored} "
            f"states ({self.retained_edges} edges)"
        ]
        parts.extend(outcome.describe() for outcome in self.outcomes)
        return "; ".join(parts)


def verify_instance(
    spec: Optional[ProblemSpec] = None,
    instance: Optional[ProblemInstance] = None,
    *,
    request: Optional[RunRequest] = None,
) -> VerificationReport:
    """Exhaustively verify one registry instance (see module docstring).

    Execution choices ride on a :class:`~repro.request.RunRequest`:
    ``verify_instance(spec, inst, request=RunRequest(kernel="compiled"))``
    — or omit ``spec``/``instance`` entirely and let the request's
    ``problem``/``instance``/``params`` resolve through the registry.

    ``kernel="compiled"`` runs the graph-retaining walk on the
    table-compiled step kernel (:mod:`repro.runtime.compiled`), seeded
    with the spec's declared value domain when it has one; the retained
    graph is byte-identical to the interpreted walk's, so every liveness
    verdict is too.

    A request field the call does not read raises
    :class:`~repro.errors.ConfigurationError`: ``seed`` and
    ``max_steps`` always (the walk is exhaustive and depth-unbounded),
    and the target fields an explicit ``spec`` (problem) or
    ``instance`` (instance and params) leaves unread.

    Raises :class:`~repro.errors.VerificationError` when the instance
    declares liveness properties but the exploration could not retain a
    complete graph (state budget truncation) — an incomplete graph
    supports no liveness verdict.
    """
    kernel: Optional[str] = None
    max_states: Optional[int] = None
    telemetry: Optional[TelemetrySink] = None
    if request is not None:
        reads = ["kernel", "max_states", "telemetry"]
        if spec is None:
            reads += ["problem", "instance", "params"]
        elif instance is None:
            reads += ["instance", "params"]
        request.refuse_unread("verify_instance()", reads)
        kernel = request.kernel
        max_states = request.max_states
        telemetry = request.telemetry
        if spec is None:
            spec, instance = request.resolve()
        elif instance is None and (
            request.instance is not None or request.params is not None
        ):
            _, instance = resolve_target(
                spec.key, request.instance, request.params_dict()
            )
    if spec is None or instance is None:
        raise ConfigurationError(
            "verify_instance needs a (spec, instance) pair or a request= "
            "naming a problem/instance to resolve through the registry"
        )
    if telemetry is None:
        telemetry = NULL_TELEMETRY
    system = spec.system(instance)
    invariant = spec.invariant if spec.invariant is not None else _no_invariant
    budget = max_states if max_states is not None else instance.verify_max_states
    backend: Any = None
    if kernel == "compiled":
        from repro.runtime.compiled import CompiledBackend

        domain = (
            spec.value_domain(instance.params_dict())
            if spec.value_domain is not None
            else ()
        )
        backend = CompiledBackend(domain_hint=domain)
    result = explore(
        system,
        invariant,
        max_states=budget,
        # A DFS branch can run as deep as the budget allows; make sure
        # the walk is only ever truncated by max_states, never by depth.
        max_depth=budget,
        backend=backend,
        kernel=kernel,
        telemetry=telemetry,
        retain_graph=True,
    )
    report = VerificationReport(
        problem=spec.key,
        instance=instance.label,
        exploration=result,
        explore_seconds=result.wall_seconds,
    )
    if not result.ok:
        # A safety violation is a final (negative) verdict; the walk
        # stopped early, so no liveness analysis is possible or needed.
        return report
    if spec.liveness and not result.complete:
        raise VerificationError(
            f"{instance.label}: exploration truncated by "
            f"{result.truncated_by} after {result.states_explored} states "
            f"(budget {budget}); liveness verification needs the complete "
            "graph — raise the instance's verify_max_states"
        )
    step_instance = StepInstance.from_system(system)
    outcomes = []
    started = time.perf_counter()
    with telemetry.phase("verify.liveness"):
        for declared in spec.liveness:
            checker = LIVENESS_CHECKERS[declared.kind]
            with telemetry.phase(f"verify.liveness.{declared.kind}"):
                verdict = checker(step_instance, result.graph)
            outcomes.append(PropertyOutcome(declared=declared, verdict=verdict))
            if telemetry.enabled:
                telemetry.event(
                    "verify.property",
                    problem=spec.key,
                    instance=instance.label,
                    kind=declared.kind,
                    theorem=declared.theorem,
                    holds=verdict.holds,
                    expected_violation=declared.expect_violation,
                )
    report.outcomes = tuple(outcomes)
    report.verify_seconds = time.perf_counter() - started
    if telemetry.enabled:
        telemetry.gauge("verify.states", result.states_explored)
        telemetry.gauge("verify.retained_edges", report.retained_edges)
        telemetry.gauge("verify.seconds", report.verify_seconds)
    return report


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")


def verify_manifest(
    spec: ProblemSpec,
    instance: ProblemInstance,
    report: VerificationReport,
    telemetry: Optional[Dict[str, Any]] = None,
) -> RunManifest:
    """The ``repro.run_manifest/v1`` record of one verification run."""
    params = instance.params_dict()
    naming_obj = spec.naming(params) if spec.naming is not None else None
    exploration = report.exploration
    properties = [
        {
            "kind": outcome.declared.kind,
            "theorem": outcome.declared.theorem,
            "holds": outcome.verdict.holds,
            "expected_violation": outcome.declared.expect_violation,
            "ok": outcome.ok,
            "detail": outcome.verdict.detail,
        }
        for outcome in report.outcomes
    ]
    return RunManifest.create(
        kind="verify",
        algorithm=spec.key,
        parameters=params,
        naming=(
            type(naming_obj).__name__ if naming_obj is not None else "identity"
        ),
        backend=exploration.backend,
        outcome={
            "verdict": "verified" if report.ok else "failed",
            "instance": instance.label,
            "kernel": exploration.kernel,
            "states": exploration.states_explored,
            "retained_edges": report.retained_edges,
            "explore_seconds": report.explore_seconds,
            "verify_seconds": report.verify_seconds,
            "safety": exploration.summary(),
            "properties": properties,
        },
        telemetry=telemetry,
    )


def write_verify_manifest(
    directory: Union[str, Path],
    spec: ProblemSpec,
    instance: ProblemInstance,
    report: VerificationReport,
    telemetry: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write the manifest as ``verify-<instance-slug>.json`` under
    ``directory`` (created if needed); returns the path."""
    manifest = verify_manifest(spec, instance, report, telemetry)
    return manifest.write(
        Path(directory) / f"verify-{_slug(instance.label)}.json"
    )
