"""Unit tests for the telemetry sinks, plus the differential guarantee
that attaching a live sink never changes an exploration's result."""

import json
import pickle

import pytest

from repro.core.mutex import AnonymousMutex
from repro.obs import NULL_TELEMETRY, NullTelemetry, Telemetry
from repro.runtime.adversary import RandomAdversary
from repro.runtime.exploration import explore, mutual_exclusion_invariant
from repro.runtime.system import System

from tests.conftest import pids


def mutex_system():
    return System(AnonymousMutex(m=3, cs_visits=1), pids(2), record_trace=False)


class TestTelemetry:
    def test_counters_accumulate(self):
        tel = Telemetry()
        tel.count("x")
        tel.count("x", 4)
        tel.count("y", -2)
        assert tel.counters == {"x": 5, "y": -2}

    def test_gauges_keep_the_latest_value(self):
        tel = Telemetry()
        tel.gauge("frontier", 10)
        tel.gauge("frontier", 3)
        assert tel.gauges == {"frontier": 3}

    def test_phase_timer_accumulates_across_entries(self):
        tel = Telemetry()
        for _ in range(3):
            with tel.phase("walk"):
                pass
        phases = tel.phases
        assert phases["walk"]["entries"] == 3
        assert phases["walk"]["seconds"] >= 0.0

    def test_event_log_is_bounded_oldest_dropped_first(self):
        tel = Telemetry(max_events=2, clock=lambda: 0.0)
        for k in range(5):
            tel.event("tick", k=k)
        kept = [fields["k"] for _, _, fields in tel.events()]
        assert kept == [3, 4]
        assert tel.events_dropped == 3

    def test_injected_clock_stamps_events(self):
        ticks = iter([1.5, 2.5])
        tel = Telemetry(clock=lambda: next(ticks))
        tel.event("a")
        tel.event("b")
        assert [ts for ts, _, _ in tel.events()] == [1.5, 2.5]

    def test_snapshot_is_json_serialisable(self):
        tel = Telemetry(clock=lambda: 0.25)
        tel.count("c")
        tel.gauge("g", 2.0)
        tel.event("e", detail="fine")
        with tel.phase("p"):
            pass
        snapshot = tel.snapshot()
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped["counters"] == {"c": 1}
        assert round_tripped["gauges"] == {"g": 2.0}
        assert round_tripped["events"] == [
            {"t": 0.25, "name": "e", "detail": "fine"}
        ]
        assert round_tripped["phases"]["p"]["entries"] == 1
        assert round_tripped["events_dropped"] == 0


class TestNullTelemetry:
    def test_everything_is_a_noop(self):
        tel = NullTelemetry()
        assert tel.enabled is False
        tel.count("x")
        tel.gauge("g", 1)
        tel.event("e", k=1)
        with tel.phase("p"):
            pass
        assert tel.snapshot() == {
            "counters": {},
            "gauges": {},
            "phases": {},
            "events": [],
            "events_dropped": 0,
        }

    def test_snapshot_shape_matches_live_sink(self):
        assert set(NULL_TELEMETRY.snapshot()) == set(Telemetry().snapshot())

    def test_shared_instance_is_picklable(self):
        clone = pickle.loads(pickle.dumps(NULL_TELEMETRY))
        assert clone.enabled is False


class TestExplorationIsTelemetryInvariant:
    """Attaching a live sink must be an observational no-op."""

    @pytest.mark.parametrize("reduction", ["none", "symmetry"])
    def test_results_identical_up_to_wall_time(self, reduction):
        silent = explore(
            mutex_system(), mutual_exclusion_invariant, reduction=reduction
        )
        tel = Telemetry()
        observed = explore(
            mutex_system(),
            mutual_exclusion_invariant,
            reduction=reduction,
            telemetry=tel,
        )
        for field_name in (
            "complete", "states_explored", "events_executed",
            "max_depth_reached", "violation", "violation_schedule",
            "stuck_states", "truncated_by", "orbits_collapsed",
            "group_size", "peak_visited", "backend", "kernel",
        ):
            assert getattr(observed, field_name) == getattr(silent, field_name), (
                field_name
            )

    @pytest.mark.parametrize("retain_graph", [False, True])
    def test_compiled_walks_emit_what_the_interpreter_emits(self, retain_graph):
        # m=5 (14,673 states) passes one 8,192-state progress tick.
        sinks = {}
        for kernel in ("interpreted", "compiled"):
            tel = Telemetry()
            result = explore(
                System(AnonymousMutex(m=5, cs_visits=1), pids(2), record_trace=False),
                mutual_exclusion_invariant,
                kernel=kernel,
                retain_graph=retain_graph,
                telemetry=tel,
            )
            assert result.kernel == kernel and result.complete
            sinks[kernel] = tel

        def progress(tel):
            return [
                fields for _, name, fields in tel.events()
                if name == "explore.progress"
            ]

        interpreted, compiled = sinks["interpreted"], sinks["compiled"]
        assert len(progress(interpreted)) == 1
        assert progress(compiled) == progress(interpreted)
        assert compiled.gauges == interpreted.gauges
        assert compiled.counters == interpreted.counters

    def test_explore_records_phases_gauges_and_events(self):
        tel = Telemetry()
        result = explore(
            mutex_system(),
            mutual_exclusion_invariant,
            reduction="symmetry",
            telemetry=tel,
        )
        phases = tel.phases
        assert "explore.build_canonicalizer" in phases
        assert "explore.walk" in phases
        gauges = tel.gauges
        assert gauges["explore.states"] == result.states_explored
        assert gauges["explore.peak_visited"] == result.peak_visited
        assert gauges["explore.group_size"] == result.group_size
        names = [name for _, name, _ in tel.events()]
        assert names[0] == "explore.start"
        assert names[-1] == "explore.done"
        done = list(tel.events())[-1][2]
        assert done["verdict"] == "exhaustive-ok"
        assert done["states"] == result.states_explored


class TestSchedulerCounters:
    def test_step_counters_match_the_trace(self):
        tel = Telemetry()
        system = System(
            AnonymousMutex(m=3, cs_visits=2), pids(2), telemetry=tel
        )
        trace = system.run(RandomAdversary(1), max_steps=50_000)
        counters = tel.counters
        assert counters["scheduler.steps"] == len(trace)
        # Some steps are neither (critical-section markers, no-ops).
        assert counters["scheduler.reads"] > 0
        assert counters["scheduler.writes"] > 0
        assert (
            counters["scheduler.reads"] + counters["scheduler.writes"]
            <= counters["scheduler.steps"]
        )
        # Two processes interleaving over three registers must contend.
        assert counters["scheduler.contended_accesses"] > 0
        assert counters["scheduler.halts"] == 2

    def test_disabled_sink_keeps_scheduler_silent(self):
        system = System(AnonymousMutex(m=3, cs_visits=1), pids(2))
        system.run(RandomAdversary(1), max_steps=50_000)
        assert system.scheduler.telemetry is NULL_TELEMETRY


class TestVerifyPhases:
    @pytest.mark.parametrize(
        "problem, instance, kind",
        [
            ("figure-1-mutex", "figure-1-mutex(m=3)", "deadlock-freedom"),
            ("figure-2-consensus", "figure-2-consensus(n=2)", "obstruction-freedom"),
        ],
    )
    def test_compiled_verify_names_compile_and_liveness_phases(
        self, problem, instance, kind
    ):
        from repro.request import RunRequest
        from repro.verify import verify_instance

        tel = Telemetry()
        report = verify_instance(
            request=RunRequest(
                problem=problem, instance=instance, kernel="compiled",
                telemetry=tel,
            )
        )
        assert report.ok and report.exploration.kernel == "compiled"
        phases = tel.phases
        for name in (
            "explore.compile", "explore.walk", "verify.liveness",
            f"verify.liveness.{kind}",
        ):
            assert phases[name]["entries"] == 1, name
        # Compilation runs inside the walk, each checker inside the
        # liveness phase.
        assert phases["explore.compile"]["seconds"] <= phases["explore.walk"]["seconds"]
        assert (
            phases[f"verify.liveness.{kind}"]["seconds"]
            <= phases["verify.liveness"]["seconds"]
        )
