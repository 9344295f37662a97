"""repro.obs core: tracer, profiler, session scoping, Chrome export.

The tracer's span/instant records, the Chrome ``trace_event``
conversion and its structural validator, the idempotent
:class:`StepTimer`, the profiler's accumulation and ``repro top``
table, and the explicit-scope session semantics (innermost wins,
nothing active outside a ``with`` block), and :func:`observe`'s
session carrying all three components.
"""

import json

import pytest

from repro.obs import (MetricsRegistry, ObsSession, Profiler, StepTimer,
                       Tracer, active, enabled, observe,
                       validate_chrome_trace)
from repro.obs.tracer import CHROME_PHASES


class TestTracer:
    def test_span_records_nesting_and_args(self):
        tracer = Tracer()
        with tracer.span("outer", "cat", worker=1):
            with tracer.span("inner", "cat"):
                pass
        tracer.instant("tick", "cat", step=3)
        assert len(tracer) == 3
        spans = [r for r in tracer.records if r["ph"] == "X"]
        by_name = {r["name"]: r for r in spans}
        assert by_name["outer"]["args"] == {"worker": 1}
        # the inner span completes first and nests inside the outer one
        assert by_name["inner"]["ts"] >= by_name["outer"]["ts"]
        assert (by_name["inner"]["ts"] + by_name["inner"]["dur"]
                <= by_name["outer"]["ts"] + by_name["outer"]["dur"])

    def test_summary_and_categories(self):
        tracer = Tracer()
        with tracer.span("a", "one"):
            pass
        tracer.instant("b", "two")
        assert tracer.categories() == {"one": 1, "two": 1}
        summary = tracer.summary()
        assert summary["events"] == 2
        assert summary["spans"] == 1
        assert summary["instants"] == 1
        assert summary["by_category"] == {"one": 1, "two": 1}

    def test_to_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", "cat", k="v"):
            tracer.instant("b", "cat")
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(path)
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines == tracer.records

    def test_exception_inside_span_still_records(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom", "cat"):
                raise RuntimeError("x")
        assert len(tracer) == 1
        assert tracer.records[0]["name"] == "boom"


class TestChromeTrace:
    def build(self):
        tracer = Tracer(pid=7)
        with tracer.span("step", "optimizer", t=1):
            pass
        tracer.instant("fault:crash", "cluster.faults", worker=2)
        return tracer

    def test_chrome_trace_structure(self):
        payload = self.build().chrome_trace()
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        # process metadata rides first, then the recorded events
        assert events[0]["ph"] == "M"
        assert events[0]["name"] == "process_name"
        phases = [e["ph"] for e in events]
        assert "X" in phases and "i" in phases
        for event in events:
            assert event["ph"] in CHROME_PHASES
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["ts"] >= 0 and complete["dur"] >= 0
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"

    def test_validator_round_trip_file(self, tmp_path):
        path = tmp_path / "trace.json"
        self.build().to_chrome_trace(path)
        payload = validate_chrome_trace(path)
        assert isinstance(payload["traceEvents"], list)

    @pytest.mark.parametrize("broken", [
        {"traceEvents": "nope"},
        {"traceEvents": [{"ph": "Z", "name": "x", "pid": 0, "tid": 0}]},
        {"traceEvents": [{"ph": "X", "name": "", "pid": 0, "tid": 0,
                          "cat": "c", "ts": 0, "dur": 1}]},
        {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0,
                          "cat": "c", "ts": -1, "dur": 1}]},
        {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0,
                          "cat": "c", "ts": 0}]},
        {"traceEvents": [{"ph": "i", "name": "x", "pid": 0, "tid": "0",
                          "cat": "c", "ts": 0}]},
    ])
    def test_validator_rejects_malformed_payloads(self, broken):
        with pytest.raises(ValueError):
            validate_chrome_trace(broken)


class TestSessionScoping:
    def test_nothing_active_by_default(self):
        assert active() is None
        assert not enabled()

    def test_innermost_session_wins_and_restores(self):
        outer = ObsSession(tracer=Tracer())
        inner = ObsSession(tracer=Tracer())
        with outer:
            assert active() is outer
            with inner:
                assert active() is inner
            assert active() is outer
        assert active() is None

    def test_observe_sugar_scopes_a_full_session(self):
        with observe() as session:
            assert active() is session
            assert isinstance(session.tracer, Tracer)
            assert isinstance(session.metrics, MetricsRegistry)
            assert isinstance(session.profiler, Profiler)
        assert active() is None

    def test_report_only_holds_present_components(self):
        session = ObsSession(profiler=Profiler())
        report = session.report()
        assert "profiler" in report
        assert "tracer" not in report and "metrics" not in report


class TestStepTimer:
    def test_disabled_timer_still_times(self):
        assert active() is None
        with StepTimer("work", cat="test") as timer:
            pass
        assert timer.elapsed >= 0.0

    def test_records_span_and_profile_when_active(self):
        with observe() as session:
            timer = StepTimer("work", cat="test").start()
            wall = timer.stop(extra=1)
        assert wall >= 0.0
        (record,) = session.tracer.records
        assert record["name"] == "work"
        assert record["cat"] == "test"
        assert record["args"] == {"extra": 1}
        assert "test:work" in session.profiler.summary()

    def test_stop_is_idempotent(self):
        with observe() as session:
            timer = StepTimer("work", cat="test").start()
            first = timer.stop()
            assert timer.stop() == first
        assert len(session.tracer) == 1


class TestProfiler:
    def test_accumulates_and_renders_top(self):
        profiler = Profiler()
        profiler.add("hot", 0.2)
        profiler.add("hot", 0.4)
        profiler.add("cold", 0.1)
        summary = profiler.summary()
        assert summary["hot"]["count"] == 2
        assert summary["hot"]["total_s"] == pytest.approx(0.6)
        assert summary["hot"]["mean_s"] == pytest.approx(0.3)
        table = profiler.render_top(limit=1)
        assert "hot" in table and "cold" not in table

    def test_empty_render(self):
        assert "no profiler samples" in Profiler().render_top()
