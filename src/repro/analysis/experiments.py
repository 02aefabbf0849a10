"""Sweep harness: run an algorithm across namings × adversaries × seeds.

Every possibility-side experiment has the same shape: build a system,
run it under a schedule, check the theorem's properties on the trace,
collect metrics, and aggregate over a battery of namings and adversaries.
:func:`sweep` is that loop; :class:`SweepResult` is what the benchmark
tables are printed from.

The (naming × adversary) cells of a sweep are independent runs, taken
in naming-major order in the calling process.  Every adversary's
``reset()`` reseeds from its stored seed, so a cell's record does not
depend on the cells before it.  Grids that should survive a crash or
spread over processes run as a sweep farm (:mod:`repro.farm`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from repro.analysis.metrics import RunMetrics, collect_metrics
from repro.errors import ConfigurationError, SpecViolation
from repro.memory.naming import NamingAssignment
from repro.obs.telemetry import NULL_TELEMETRY, TelemetrySink
from repro.runtime.adversary import Adversary
from repro.runtime.automaton import Algorithm
from repro.runtime.events import Trace
from repro.runtime.system import System
from repro.spec.properties import PropertyChecker


@dataclass
class RunRecord:
    """One (naming, adversary) cell of a sweep."""

    naming: str
    adversary: str
    trace: Trace
    metrics: RunMetrics
    violations: List[SpecViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every checked property held."""
        return not self.violations


@dataclass
class SweepResult:
    """All runs of one sweep, one record per cell in naming-major
    order, with the aggregate queries the experiment scripts and
    benchmark tables consume."""

    algorithm: str
    records: List[RunRecord] = field(default_factory=list)

    @property
    def runs(self) -> int:
        """Total runs performed."""
        return len(self.records)

    @property
    def all_ok(self) -> bool:
        """True when no run violated any checked property."""
        return all(record.ok for record in self.records)

    @property
    def failures(self) -> List[RunRecord]:
        """Runs with at least one violation."""
        return [record for record in self.records if not record.ok]

    def metric_values(self, extract: Callable[[RunRecord], float]) -> List[float]:
        """Apply ``extract`` to every record (for distribution summaries)."""
        return [extract(record) for record in self.records]

    def describe_failures(self, limit: int = 3) -> str:
        """Short multi-line description of the first few failures."""
        lines = []
        for record in self.failures[:limit]:
            for violation in record.violations:
                lines.append(
                    f"[{record.naming} / {record.adversary}] {violation}"
                )
        remaining = len(self.failures) - limit
        if remaining > 0:
            lines.append(f"... and {remaining} more failing runs")
        return "\n".join(lines)


def _run_sweep_cell(
    algorithm_factory: Callable[[], Algorithm],
    inputs: Any,
    naming: NamingAssignment,
    adversary: Adversary,
    checkers_factory: Callable[..., Iterable[PropertyChecker]],
    max_steps: int,
) -> RunRecord:
    """Run one (naming, adversary) cell and check its trace."""
    system = System(algorithm_factory(), inputs, naming=naming)
    trace = system.run(adversary, max_steps=max_steps)
    record = RunRecord(
        naming=naming.describe(),
        adversary=adversary.describe(),
        trace=trace,
        metrics=collect_metrics(trace),
    )
    try:
        checkers = checkers_factory(adversary)
    except TypeError:
        checkers = checkers_factory()
    for checker in checkers:
        try:
            checker.check(trace)
        except SpecViolation as exc:
            record.violations.append(exc)
    return record


def sweep(
    algorithm_factory: Callable[[], Algorithm],
    inputs,
    namings: Sequence[NamingAssignment],
    adversaries: Sequence[Adversary],
    checkers_factory: Callable[..., Iterable[PropertyChecker]],
    max_steps: int = 200_000,
    telemetry: Optional[TelemetrySink] = None,
    manifest_dir: Optional[Union[str, Path]] = None,
) -> SweepResult:
    """Run every naming × adversary combination and check each trace.

    ``algorithm_factory`` is called once per run (some algorithms carry
    per-instance state such as slot counters).  ``checkers_factory``
    builds fresh checkers per run; it is called with the adversary when
    it accepts an argument, so callers can drop liveness checks for
    schedules that give no solo opportunities (obstruction-freedom
    guarantees nothing under, say, strict round-robin — and Figure 2
    really does livelock there, which is a feature of the model, not a
    bug).  Violations are *collected*, not raised — impossibility-side
    sweeps count them.

    The cells run one after another in this process, naming-major.

    ``telemetry`` receives the per-sweep counters (``sweep.cells``,
    ``sweep.violations``) and the ``sweep.map`` phase timer;
    ``manifest_dir`` additionally writes one
    :class:`~repro.obs.manifest.RunManifest` per cell (NDJSON, one line
    per cell) into that directory — the after-the-fact audit record of
    what each cell ran.
    """
    if telemetry is None:
        telemetry = NULL_TELEMETRY
    with telemetry.phase("sweep.map"):
        records = [
            _run_sweep_cell(
                algorithm_factory, inputs, naming, adversary,
                checkers_factory, max_steps,
            )
            for naming in namings
            for adversary in adversaries
        ]
    result = SweepResult(algorithm=algorithm_factory().name, records=records)
    if telemetry.enabled:
        telemetry.count("sweep.cells", len(records))
        telemetry.count(
            "sweep.violations",
            sum(len(record.violations) for record in records),
        )
        telemetry.event(
            "sweep.done",
            algorithm=result.algorithm,
            cells=len(records),
            all_ok=result.all_ok,
        )
    if manifest_dir is not None:
        write_sweep_manifests(result, Path(manifest_dir), max_steps=max_steps)
    return result


def sweep_problem(
    problem: str,
    namings: Sequence[NamingAssignment],
    adversaries: Sequence[Adversary],
    checkers_factory: Callable[..., Iterable[PropertyChecker]],
    instance: Optional[str] = None,
    params: Optional[dict] = None,
    *,
    manifest_dir: Optional[Union[str, Path]] = None,
    request: Optional[Any] = None,
) -> SweepResult:
    """:func:`sweep`, with the algorithm resolved through the problem
    registry instead of a hand-built factory.

    ``problem`` is a :mod:`repro.problems` key (e.g.
    ``"figure-1-mutex"``); the algorithm factory and inputs come from
    the spec.  The target resolves through
    :func:`~repro.request.resolve_target`: ``params`` (an explicit
    dict) or ``instance`` — a registered label of ``problem``, or a
    mutant's problem key such as ``"figure-1-mutex-even-m"``, whose
    spec then builds the algorithm — but not both; with neither, the
    spec's first declared instance.  Everything else forwards to
    :func:`sweep`.

    Execution choices (``max_steps``, ``telemetry``, plus
    ``instance``/``params`` defaults) ride on a
    :class:`~repro.request.RunRequest` passed as ``request=``; any other
    set field of it raises :class:`~repro.errors.ConfigurationError`.
    """
    from functools import partial

    from repro.request import resolve_target

    max_steps = telemetry = None
    if request is not None:
        request.refuse_unread(
            "sweep_problem()", ("instance", "params", "max_steps", "telemetry")
        )
        max_steps = request.max_steps
        telemetry = request.telemetry
        if instance is None and request.instance is not None:
            instance = request.instance
        if params is None and request.params is not None:
            params = request.params_dict()
    if max_steps is None:
        max_steps = 200_000

    if params is not None and instance is not None:
        raise ConfigurationError("pass either params= or instance=, not both")
    spec, record = resolve_target(problem, instance, params)
    chosen_params = record.params_dict()
    return sweep(
        partial(spec.build, chosen_params),
        spec.inputs(chosen_params),
        namings,
        adversaries,
        checkers_factory,
        max_steps=max_steps,
        telemetry=telemetry,
        manifest_dir=manifest_dir,
    )


def write_sweep_manifests(
    result: SweepResult,
    directory: Path,
    max_steps: int = 0,
) -> Path:
    """Write one manifest per sweep cell as NDJSON under ``directory``.

    The file is named after the algorithm (slugged); an existing file
    gets a numeric suffix instead of being overwritten, so repeated
    sweeps in one telemetry directory all keep their records.
    """
    from repro.obs.manifest import RunManifest, write_manifests_ndjson

    slug = "".join(
        ch if ch.isalnum() or ch in "-_" else "-" for ch in result.algorithm.lower()
    ).strip("-")
    target = directory / f"sweep-{slug}.ndjson"
    suffix = 1
    while target.exists():
        suffix += 1
        target = directory / f"sweep-{slug}-{suffix}.ndjson"
    manifests = []
    for index, record in enumerate(result.records):
        manifests.append(
            RunManifest.create(
                kind="sweep-cell",
                algorithm=result.algorithm,
                parameters={"cell": index, "max_steps": max_steps},
                naming=record.naming,
                adversary=record.adversary,
                outcome={
                    "verdict": "ok" if record.ok else "violation",
                    "events": len(record.trace),
                    "violations": [str(v) for v in record.violations],
                },
            )
        )
    return write_manifests_ndjson(manifests, target)


def gives_solo_opportunities(adversary: Adversary) -> bool:
    """Whether a schedule eventually lets each process run alone.

    Used to decide if obstruction-free *termination* may be demanded of
    a run driven by this adversary.
    """
    from repro.runtime.adversary import SoloAdversary, StagedObstructionAdversary

    return isinstance(adversary, (SoloAdversary, StagedObstructionAdversary))


def solo_run(
    algorithm_factory: Callable[[], Algorithm],
    inputs,
    pid,
    naming: Optional[NamingAssignment] = None,
    max_steps: int = 1_000_000,
) -> Trace:
    """Run a single process alone to completion (obstruction-free bounds).

    All other participants exist (their views are allocated) but never
    take a step — the paper's "runs alone from the beginning" scenario.
    """
    from repro.runtime.adversary import SoloAdversary

    system = System(algorithm_factory(), inputs, naming=naming)
    return system.run(SoloAdversary(pid), max_steps=max_steps)
