"""Tracer semantics: enable/disable, spans, nesting, threads, ranks."""

import threading
import time

import pytest

from repro.obs import trace


class TestEnableDisable:
    def test_off_by_default(self):
        assert not trace.enabled()

    def test_disabled_record_is_noop(self):
        trace.record("x", "app", trace.clock())
        trace.metric("m", 1.0)
        with trace.span("y"):
            pass
        assert trace.spans() == []
        assert trace.metrics() == []

    def test_tracing_scope_restores_previous_state(self):
        assert not trace.enabled()
        with trace.tracing():
            assert trace.enabled()
        assert not trace.enabled()
        trace.enable()
        with trace.tracing():
            pass
        assert trace.enabled()  # was on before the scope: stays on

    def test_reset_clears_buffers(self):
        with trace.tracing():
            with trace.span("a"):
                pass
            trace.metric("m", 2.0)
        trace.reset()
        assert trace.spans() == []
        assert trace.metrics() == []
        assert trace.dropped() == 0


class TestRecording:
    def test_span_records_name_cat_args_duration(self):
        with trace.tracing():
            with trace.span("halo", cat="comm.compound", width=2):
                time.sleep(0.001)
        (s,) = trace.spans()
        assert s.name == "halo"
        assert s.cat == "comm.compound"
        assert s.args == {"width": 2}
        assert s.dur >= 0.001
        assert s.end == s.ts + s.dur

    def test_record_with_explicit_duration(self):
        with trace.tracing():
            trace.record("mpi.send", "comm", trace.clock(), dur=0.25, bytes=64)
        (s,) = trace.spans()
        assert s.dur == 0.25
        assert s.args == {"bytes": 64}

    def test_nested_spans_close_inner_first(self):
        with trace.tracing():
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
        names = [s.name for s in trace.spans()]
        assert names == ["inner", "outer"]
        inner, outer = trace.spans()
        assert outer.ts <= inner.ts
        assert outer.end >= inner.end

    def test_span_survives_exceptions_without_swallowing(self):
        with trace.tracing():
            with pytest.raises(ValueError):
                with trace.span("doomed"):
                    raise ValueError("boom")
        assert [s.name for s in trace.spans()] == ["doomed"]

    def test_timestamps_are_wall_clock_anchored(self):
        before = time.time()
        with trace.tracing():
            with trace.span("now"):
                pass
        after = time.time()
        (s,) = trace.spans()
        assert before - 1.0 <= s.ts <= after + 1.0

    def test_metric_records_value_and_rank(self):
        with trace.tracing(), trace.rank_scope(3):
            trace.metric("train.loss", 0.125)
        (m,) = trace.metrics()
        assert (m.name, m.rank, m.value) == ("train.loss", 3, 0.125)

    def test_buffer_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_EVENTS", 2)
        with trace.tracing():
            for i in range(4):
                trace.record(f"s{i}", "app", trace.clock(), dur=0.0)
        assert len(trace.spans()) == 2
        assert trace.dropped() == 2

    def test_extend_merges_foreign_events(self):
        foreign = [trace.Span("theirs", "comm", 1, 0, 100.0, 0.5, None)]
        trace.extend(foreign, [trace.Metric("m", 1, 100.0, 3.0)])
        assert trace.spans()[0].name == "theirs"
        assert trace.metrics()[0].value == 3.0


class TestDecorator:
    def test_decorator_records_per_call(self):
        @trace.span("work.unit", cat="compute")
        def unit(n):
            return n * 2

        with trace.tracing():
            assert unit(4) == 8
            assert unit(5) == 10
        assert [s.name for s in trace.spans()] == ["work.unit"] * 2

    def test_decorator_is_thread_safe(self):
        @trace.span("threaded")
        def unit():
            time.sleep(0.0005)

        with trace.tracing():
            threads = [
                threading.Thread(target=lambda: [unit() for _ in range(10)])
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        spans = trace.spans()
        assert len(spans) == 40
        assert all(s.dur >= 0.0 for s in spans)
        assert len({s.tid for s in spans}) == 4


class TestRankContext:
    def test_default_rank_is_none(self):
        assert trace.current_rank() is None

    def test_rank_scope_binds_and_restores(self):
        with trace.rank_scope(2):
            assert trace.current_rank() == 2
            with trace.rank_scope(5):
                assert trace.current_rank() == 5
            assert trace.current_rank() == 2
        assert trace.current_rank() is None

    def test_spans_carry_the_bound_rank(self):
        with trace.tracing():
            with trace.rank_scope(1):
                with trace.span("ranked"):
                    pass
            with trace.span("driver-side"):
                pass
        ranked, driver = trace.spans()
        assert ranked.rank == 1
        assert driver.rank is None

    def test_rank_is_thread_local(self):
        seen = {}

        def worker(rank):
            trace.set_rank(rank)
            time.sleep(0.002)
            seen[rank] = trace.current_rank()

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {0: 0, 1: 1, 2: 2}
        assert trace.current_rank() is None

    def test_unbound_thread_reads_none_as_cheaply_as_a_bound_one(self):
        """A thread that never bound a rank (the main thread, a pool helper)
        reads ``None`` by a plain attribute lookup: no slower than a
        bound read beyond noise, where a missing-attribute fallback
        costs several times as much."""

        def best_read_seconds(calls=20_000):
            best = float("inf")
            for _ in range(5):
                start = trace.clock()
                for _ in range(calls):
                    trace.current_rank()
                best = min(best, trace.clock() - start)
            return best

        seen = {}

        def unbound():
            seen["rank"] = trace.current_rank()
            seen["unbound"] = best_read_seconds()

        thread = threading.Thread(target=unbound)
        thread.start()
        thread.join()
        with trace.rank_scope(3):
            bound = best_read_seconds()
        assert seen["rank"] is None
        assert seen["unbound"] < 3 * bound
