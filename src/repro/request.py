"""The unified run-request surface: one value describing "what to run".

Four entry points execute registry work — :func:`~repro.runtime.
exploration.explore`, :func:`~repro.verify.runner.verify_instance`,
:func:`~repro.analysis.experiments.sweep_problem` and the fuzz engine
(:func:`~repro.fuzz.engine.run_fuzz`) — and before this module each
grew its own drifting keyword list (kernel here, max_states under two
names there).  A :class:`RunRequest` is the frozen value they all
consume instead:

* *what*: ``problem`` / ``instance`` / ``params`` — resolved through
  the problem registry by :func:`resolve_target`;
* *how*: ``kernel`` — the step kernel, the one engine selector;
* *budgets*: ``max_steps`` (schedule length), ``max_states`` (distinct
  states);
* *determinism*: ``seed`` — the single RNG root for stochastic
  workloads (fuzzing);
* *observability*: ``telemetry`` — a
  :class:`~repro.obs.telemetry.TelemetrySink`.

Every field defaults to ``None`` ("entry point's default"), so a
request only pins what the caller cares about.  Validation happens
before any work starts, with the same error text the CLI prints: an
unknown kernel or a non-positive budget fails at construction, and an
entry point refuses a set field it does not read
(:meth:`RunRequest.refuse_unread`) — an exhaustive walk has no seed to
take, for example.  The farm's worker count is not a request field:
``run_farm(workers=)`` and the CLIs' ``--workers`` spell it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Collection, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import TelemetrySink
    from repro.problems.spec import ProblemInstance, ProblemSpec

__all__ = [
    "KERNELS",
    "RunRequest",
    "resolve_target",
]

#: The step-kernel vocabulary every entry point shares.
KERNELS: Tuple[str, ...] = ("interpreted", "compiled")


@dataclass(frozen=True)
class RunRequest:
    """One frozen description of a run (see module docstring).

    ``params`` accepts any mapping and is stored as a sorted item tuple
    so the request stays hashable; read it back via
    :meth:`params_dict`.
    """

    problem: Optional[str] = None
    instance: Optional[str] = None
    params: Optional[Any] = None
    kernel: Optional[str] = None
    max_steps: Optional[int] = None
    max_states: Optional[int] = None
    seed: Optional[int] = None
    telemetry: Optional["TelemetrySink"] = None

    def __post_init__(self) -> None:
        if self.params is not None and isinstance(self.params, Mapping):
            object.__setattr__(
                self, "params", tuple(sorted(self.params.items()))
            )
        if self.kernel is not None and self.kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r}; "
                "expected 'interpreted' or 'compiled'"
            )
        for name in ("max_steps", "max_states"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ConfigurationError(
                    f"RunRequest.{name} must be a positive int, "
                    f"got {value!r}"
                )
        if self.seed is not None and not isinstance(self.seed, int):
            raise ConfigurationError(
                f"RunRequest.seed must be an int, got {self.seed!r}"
            )

    # -- accessors -----------------------------------------------------

    def params_dict(self) -> Optional[Dict[str, Any]]:
        """The ``params`` item tuple as a dict (``None`` when unset)."""
        if self.params is None:
            return None
        return dict(self.params)

    def replace(self, **changes: Any) -> "RunRequest":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def refuse_unread(self, entry: str, reads: Collection[str]) -> None:
        """Raise :class:`ConfigurationError` naming every set field that
        ``entry`` does not read (any field outside ``reads``), instead
        of ignoring it."""
        unread = [
            field.name
            for field in dataclasses.fields(self)
            if field.name not in reads and getattr(self, field.name) is not None
        ]
        if unread:
            raise ConfigurationError(
                f"{entry} does not read RunRequest field(s) "
                f"{', '.join(unread)}; leave them unset"
            )

    def resolve(self) -> Tuple["ProblemSpec", "ProblemInstance"]:
        """Resolve ``problem``/``instance``/``params`` via the registry."""
        return resolve_target(self.problem, self.instance, self.params_dict())

    # -- keyword merging -----------------------------------------------

    def merged(
        self, name: str, explicit: Any, default: Any = None
    ) -> Any:
        """The effective value of one execution field.

        The request's field wins when set; an *explicit* keyword (one
        differing from the entry point's ``default``) that contradicts
        it is a configuration error, never a silent override.
        """
        value = getattr(self, name)
        if value is None:
            return explicit
        if (
            explicit is not None
            and explicit != default
            and explicit != value
        ):
            raise ConfigurationError(
                f"request= already carries {name}={value!r}; drop the "
                f"conflicting {name}={explicit!r} keyword"
            )
        return value


def resolve_target(
    problem: Optional[str],
    instance: Optional[str] = None,
    params: Optional[Mapping[str, Any]] = None,
) -> Tuple["ProblemSpec", "ProblemInstance"]:
    """Resolve a (problem, instance, params) triple through the registry.

    ``instance`` may be

    * a registered instance *label* of ``problem``
      (``"figure-1-mutex(m=3)"``),
    * a problem *key* in its own right (``"figure-1-mutex-even-m"``) —
      how mutants hang off their parent problem on the CLI; the named
      spec replaces ``problem`` and its first instance is used, or
    * ``None`` — ``params`` (synthesizing an unregistered instance) or
      the spec's first declared instance.

    Every failure is a :class:`~repro.errors.ConfigurationError`; an
    unknown ``problem`` carries the registry's "unknown problem" text.
    """
    from repro.errors import ReproError
    from repro.problems import get_problem
    from repro.problems.spec import ProblemInstance

    if problem is None:
        raise ConfigurationError(
            "a problem key is required to resolve a registry instance "
            "(RunRequest.problem / --problem)"
        )
    try:
        spec = get_problem(problem)
    except KeyError as error:
        raise ConfigurationError(error.args[0]) from None
    if instance is not None:
        try:
            return spec, spec.instance(instance)
        except (ReproError, KeyError):
            pass
        try:
            other = get_problem(instance)
        except (ReproError, KeyError):
            raise ConfigurationError(
                f"{instance!r} is neither an instance label of "
                f"{spec.key!r} (known: "
                f"{[inst.label for inst in spec.instances]}) nor a "
                "problem key"
            ) from None
        if not other.instances:
            raise ConfigurationError(
                f"problem {other.key!r} declares no instances"
            )
        return other, other.instances[0]
    if params is not None:
        rendered = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        return spec, ProblemInstance(
            label=f"{spec.key}({rendered})",
            params=tuple(sorted(params.items())),
            roles=("verify",),
        )
    if not spec.instances:
        raise ConfigurationError(
            f"problem {spec.key!r} declares no instances; pass params"
        )
    return spec, spec.instances[0]
