"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` etc.) propagate.

Specification violations detected by the :mod:`repro.spec` checkers are
*also* exceptions (:class:`SpecViolation` and subclasses): the lower-bound
experiments in :mod:`repro.lowerbounds` intentionally drive algorithms into
forbidden regimes and *catch* these to demonstrate the paper's
impossibility results.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An algorithm or system was instantiated with invalid parameters.

    Examples: an even register count for the Figure 1 mutex, fewer than
    ``2n - 1`` registers for the Figure 2 consensus, duplicate process
    identifiers, or a naming assignment whose permutation is not a
    bijection.
    """


class ProtocolError(ReproError):
    """A process automaton violated the execution protocol.

    Raised when an automaton emits a malformed operation (e.g. a register
    index out of range) or is stepped after it has already halted.
    """


class SchedulingError(ReproError):
    """The adversary or scheduler reached an inconsistent state.

    Examples: an adversary selecting a crashed or halted process, or a
    schedule referring to an unknown process identifier.
    """


class ManifestValidationError(ReproError):
    """A run manifest failed its schema check.

    Raised when loading or constructing a
    :class:`repro.obs.manifest.RunManifest` from a document that is
    missing required fields, carries wrong types, or declares an
    unsupported schema version.  The message lists every problem found,
    not just the first.
    """


class FarmError(ReproError):
    """A sweep-farm run table refused an operation.

    Raised by :mod:`repro.farm` when the claim protocol is violated
    (finishing a cell that is not claimed, claiming from a table that
    does not exist, creating a farm over an existing run table) or when
    a farm directory is structurally broken.  The claim transaction
    itself never raises this for the benign case — "someone else claimed
    it first" simply returns no cell.
    """


class FuzzError(ReproError):
    """The adversary-strategy fuzzer refused an operation or failed to
    certify a hit.

    Raised by :mod:`repro.fuzz` for invalid budgets/strategy names and —
    the load-bearing case — when a candidate violation does not survive
    replay validation: every reported schedule must re-execute through
    :func:`repro.runtime.replay.replay_schedule` and exhibit the claimed
    violation, so a validation failure is a fuzzer bug, never a result.
    """


class VerificationError(ReproError):
    """The exhaustive verifier could not produce a verdict.

    Raised by :mod:`repro.verify` when the retained state graph is
    unusable for a liveness analysis — the walk was truncated (an
    incomplete graph is a strict under-approximation, so any verdict
    over it would be unsound), the graph is missing, or a problem
    declares a liveness property its automata cannot support.  Distinct
    from a :class:`SpecViolation`: this is "could not check", not
    "checked and failed".
    """


class SpecViolation(ReproError):
    """Base class for safety/liveness property violations found in a trace.

    Attributes
    ----------
    trace:
        The offending :class:`repro.runtime.events.Trace`, when available.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class MutualExclusionViolation(SpecViolation):
    """Two processes were inside the critical section simultaneously."""


class DeadlockFreedomViolation(SpecViolation):
    """Processes starved in their entry sections despite a fair schedule."""


class AgreementViolation(SpecViolation):
    """Two processes decided different values in a consensus run."""


class ValidityViolation(SpecViolation):
    """A consensus decision was not the input of any participant."""


class UniquenessViolation(SpecViolation):
    """Two processes acquired the same new name in a renaming run."""


class NameRangeViolation(SpecViolation):
    """A renaming output fell outside the permitted name range."""


class TerminationViolation(SpecViolation):
    """A process failed to terminate within the progress condition's bound.

    For obstruction-free algorithms this is raised when a process that ran
    solo for the guaranteed number of steps still had not produced an
    output.
    """
