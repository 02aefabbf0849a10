"""In-memory telemetry: counters, gauges, phase timers, bounded events.

The design constraint is the explorer's hot loop: instrumentation must
cost (close to) nothing when disabled and stay cheap when enabled.  Two
decisions follow:

* the *disabled* sink is a distinct :class:`NullTelemetry` class whose
  methods are no-ops and whose :attr:`~TelemetrySink.enabled` flag is
  False — instrumented loops hoist ``telemetry.enabled`` into a local
  and skip recording entirely (the acceptance bar is < 5% overhead on
  the m=3 exhaustive mutex walk, measured in
  ``tests/obs/test_telemetry.py`` only qualitatively — CI machines are
  too noisy for a hard wall-time assert, so the differential tests pin
  *result* identity instead);
* a :class:`Telemetry` is plain dictionaries and a bounded
  :class:`~collections.deque` — no locks, no I/O, no background thread.
  One sink belongs to one run in one process; it never crosses a
  process boundary.

Phase timers use :func:`time.perf_counter` (monotonic); re-entering a
phase accumulates.  The event log is bounded (default 1024 entries,
oldest dropped first) so a pathological producer cannot turn telemetry
into a memory leak; ``events_dropped`` records how many were lost.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

try:  # pragma: no cover - version-dependent import
    from typing import Protocol
except ImportError:  # pragma: no cover - Python 3.7 fallback, untested
    Protocol = object  # type: ignore[assignment]

__all__ = [
    "TelemetrySink",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
]


class TelemetrySink(Protocol):
    """What instrumented code may call on the object it is handed.

    Implementations must make every method safe to call at any time —
    sinks are deliberately forgiving so that instrumentation can never
    turn a correct run into a crashed one.
    """

    #: Hot loops hoist this into a local and skip recording when False.
    enabled: bool

    def count(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to the counter ``name`` (created at 0)."""
        ...

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest ``value``."""
        ...

    def event(self, name: str, **fields: Any) -> None:
        """Append a timestamped entry to the bounded event log."""
        ...

    def phase(self, name: str) -> "PhaseTimer":
        """Context manager accumulating wall time under phase ``name``."""
        ...


class PhaseTimer:
    """One timed section; returned by :meth:`Telemetry.phase`.

    Re-entrant in the sequential sense (enter/exit pairs may repeat and
    durations accumulate), not in the nested sense — nesting the *same*
    phase name double-counts and is on the caller.
    """

    __slots__ = ("_telemetry", "_name", "_started")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name
        self._started: Optional[float] = None

    def __enter__(self) -> "PhaseTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._started is None:  # pragma: no cover - misuse guard
            return
        elapsed = time.perf_counter() - self._started
        self._started = None
        seconds, entries = self._telemetry._phases.get(self._name, (0.0, 0))
        self._telemetry._phases[self._name] = (seconds + elapsed, entries + 1)


class _NullPhaseTimer:
    """The no-op twin of :class:`PhaseTimer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhaseTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


class Telemetry:
    """The recording sink: counters, gauges, phase timers, bounded events.

    Parameters
    ----------
    max_events:
        Bound on the event log; the oldest entries are dropped first and
        :attr:`events_dropped` counts the loss.  Counters, gauges and
        phases are per-name and therefore bounded by the instrumentation
        itself.
    clock:
        Timestamp source for events (seconds; default
        :func:`time.monotonic`).  Injectable so tests can pin event
        timestamps without sleeping.
    """

    enabled = True

    def __init__(self, max_events: int = 1024, clock: Any = time.monotonic) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        #: name -> (accumulated seconds, times entered)
        self._phases: Dict[str, Tuple[float, int]] = {}
        self._events: Deque[Tuple[float, str, Dict[str, Any]]] = deque(
            maxlen=max_events
        )
        self.events_dropped = 0
        self._clock = clock

    # -- recording ----------------------------------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def event(self, name: str, **fields: Any) -> None:
        if len(self._events) == self._events.maxlen:
            self.events_dropped += 1
        self._events.append((self._clock(), name, fields))

    def phase(self, name: str) -> PhaseTimer:
        return PhaseTimer(self, name)

    # -- reading ------------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """Counter name -> accumulated total (copy)."""
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        """Gauge name -> last recorded value (copy)."""
        return dict(self._gauges)

    @property
    def phases(self) -> Dict[str, Dict[str, float]]:
        """Phase name -> ``{"seconds": total, "entries": count}`` (copy)."""
        return {
            name: {"seconds": seconds, "entries": float(entries)}
            for name, (seconds, entries) in self._phases.items()
        }

    def events(self) -> Iterator[Tuple[float, str, Dict[str, Any]]]:
        """The retained ``(timestamp, name, fields)`` entries, oldest first."""
        return iter(tuple(self._events))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of everything recorded so far.

        This is the ``telemetry`` block embedded in a
        :class:`~repro.obs.manifest.RunManifest`; phase seconds are
        rounded to microseconds so manifests diff cleanly.
        """
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "phases": {
                name: {"seconds": round(seconds, 6), "entries": entries}
                for name, (seconds, entries) in self._phases.items()
            },
            "events": [
                {"t": round(ts, 6), "name": name, **fields}
                for ts, name, fields in self._events
            ],
            "events_dropped": self.events_dropped,
        }


class NullTelemetry:
    """The disabled sink: every method is a no-op.

    A dedicated class rather than ``Telemetry(enabled=False)`` so the
    hot-path guard is one attribute load (``telemetry.enabled``) and so
    the null sink is trivially picklable and shareable — there is one
    module-level :data:`NULL_TELEMETRY` instance and no reason ever to
    construct more (constructing more is still fine and tested).
    """

    enabled = False

    def count(self, name: str, delta: int = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def event(self, name: str, **fields: Any) -> None:
        return None

    def phase(self, name: str) -> _NullPhaseTimer:
        return _NULL_PHASE

    def snapshot(self) -> Dict[str, Any]:
        """Uniform shape with :meth:`Telemetry.snapshot`, always empty."""
        empty_events: List[Dict[str, Any]] = []
        return {
            "counters": {},
            "gauges": {},
            "phases": {},
            "events": empty_events,
            "events_dropped": 0,
        }


_NULL_PHASE = _NullPhaseTimer()

#: The shared disabled sink; the default value of every ``telemetry=``
#: hook in the library.
NULL_TELEMETRY = NullTelemetry()
