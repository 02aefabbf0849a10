"""System façade: assemble memory + automata + scheduler in one call.

Experiments, tests and examples all follow the same pattern: pick an
algorithm, pick the participants and their inputs, pick the adversary's
register naming, run under some schedule, check the trace.
:class:`System` packages the first three steps; its :meth:`System.run`
performs the fourth.

Example
-------
>>> from repro.core.consensus import AnonymousConsensus
>>> from repro.memory.naming import RandomNaming
>>> from repro.runtime.adversary import StagedObstructionAdversary
>>> from repro.runtime.system import System
>>> system = System(
...     AnonymousConsensus(n=3),
...     inputs={10: "a", 20: "b", 30: "c"},
...     naming=RandomNaming(seed=7),
... )
>>> trace = system.run(StagedObstructionAdversary(prefix_steps=40, seed=7))
>>> len(set(trace.outputs.values())) == 1
True
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.memory.anonymous import AnonymousMemory
from repro.memory.naming import IdentityNaming, NamingAssignment
from repro.runtime.adversary import Adversary
from repro.runtime.automaton import Algorithm
from repro.runtime.events import Trace
from repro.runtime.scheduler import Scheduler
from repro.types import ProcessId, require, validate_distinct_ids


def check_naming(algorithm: Algorithm, naming: NamingAssignment) -> None:
    """Refuse any naming but the identity for an algorithm that assumes
    named registers (``is_anonymous()`` false), as :class:`System` does."""
    if not algorithm.is_anonymous() and not isinstance(naming, IdentityNaming):
        raise ConfigurationError(
            f"{algorithm.name} assumes named registers (prior agreement) "
            f"and cannot run under {naming.describe()}; this is "
            "precisely the distinction the paper studies"
        )


class System:
    """A ready-to-run configuration of one algorithm instance.

    Parameters
    ----------
    algorithm:
        The :class:`~repro.runtime.automaton.Algorithm` to execute.
    inputs:
        Either a mapping ``{pid: input}`` or a plain sequence of pids (for
        input-free problems such as mutual exclusion, where the "input"
        defaults to ``None``).
    naming:
        The adversary's register-naming choice.  Defaults to identity.
        Named-model baselines *reject* any other naming — they are the
        algorithms whose correctness depends on prior agreement.
    locked:
        Use lock-guarded registers (when the system will be driven by the
        real-thread backend rather than the scheduler).
    record_trace:
        Forwarded to the scheduler; exploration turns it off.
    telemetry:
        Optional :class:`~repro.obs.telemetry.TelemetrySink`, forwarded
        to the scheduler for per-step and contention counters (see
        :class:`~repro.runtime.scheduler.Scheduler`).
    """

    def __init__(
        self,
        algorithm: Algorithm,
        inputs,
        naming: Optional[NamingAssignment] = None,
        locked: bool = False,
        record_trace: bool = True,
        telemetry=None,
    ):
        self.algorithm = algorithm
        if isinstance(inputs, Mapping):
            self.inputs: Dict[ProcessId, Any] = dict(inputs)
        else:
            # Validate the raw sequence before the dict comprehension can
            # silently collapse duplicate pids.
            pid_list = list(inputs)
            validate_distinct_ids(pid_list)
            self.inputs = {pid: None for pid in pid_list}
        validate_distinct_ids(self.inputs.keys())
        require(
            len(self.inputs) >= 1,
            "a system needs at least one participating process",
            ConfigurationError,
        )

        self.naming = naming if naming is not None else IdentityNaming()
        check_naming(algorithm, self.naming)

        self.memory = AnonymousMemory(
            size=algorithm.register_count(),
            pids=tuple(self.inputs),
            naming=self.naming,
            initial=algorithm.initial_value(),
            locked=locked,
        )
        self.automata = {
            pid: algorithm.automaton_for(pid, value)
            for pid, value in self.inputs.items()
        }
        self.scheduler = Scheduler(
            self.memory, self.automata, record_trace=record_trace,
            telemetry=telemetry,
        )

    @property
    def pids(self) -> Sequence[ProcessId]:
        """The participating process identifiers."""
        return tuple(self.inputs)

    def run(self, adversary: Adversary, max_steps: int = 100_000) -> Trace:
        """Run to adversary stop / all-halted / step budget; return trace."""
        return self.scheduler.run(adversary, max_steps=max_steps)

    def outputs(self) -> Dict[ProcessId, Any]:
        """Outputs of all processes that have halted so far."""
        return self.scheduler.outputs()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"System({self.algorithm.name}, pids={list(self.inputs)}, "
            f"m={self.memory.size}, naming={self.naming.describe()})"
        )


def fresh_system(algorithm: Algorithm, inputs, **kwargs) -> System:
    """Build a new :class:`System`; sugar for sweep loops in experiments."""
    return System(algorithm, inputs, **kwargs)
