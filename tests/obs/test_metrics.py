"""The metrics registry: instruments, rank tagging, quantiles,
snapshot/merge, heartbeats, and the gauge→trace forwarding contract."""

import sys
import threading
import time

import pytest

from repro.obs import metrics, trace


class TestRegistry:
    def test_factories_return_singletons(self):
        assert metrics.counter("c") is metrics.counter("c")
        assert metrics.gauge("g") is metrics.gauge("g")
        assert metrics.histogram("h") is metrics.histogram("h")

    def test_kind_mismatch_raises(self):
        metrics.counter("clash")
        with pytest.raises(ValueError, match="already registered as counter"):
            metrics.gauge("clash")

    def test_reset_clears_values_but_keeps_identity(self):
        c = metrics.counter("keep.me")
        with metrics.collecting():
            c.inc(3)
        assert c.total() == 3
        metrics.reset()
        assert c.total() == 0
        assert metrics.counter("keep.me") is c
        # The cached reference still records after the reset.
        with metrics.collecting():
            c.inc(1)
        assert c.total() == 1

    def test_instruments_returns_copy(self):
        metrics.counter("one")
        view = metrics.instruments()
        assert "one" in view
        view.clear()
        assert "one" in metrics.instruments()


class TestDisabledFastPath:
    def test_updates_are_noops_while_off(self):
        c = metrics.counter("off.c")
        g = metrics.gauge("off.g", forward_to_trace=False)
        h = metrics.histogram("off.h")
        c.inc(5)
        g.set(1.0)
        h.observe(0.1)
        assert c.total() == 0
        assert g.value() is None
        assert h.count() == 0
        assert metrics.snapshot() == {}

    def test_collecting_restores_previous_state(self):
        assert not metrics.enabled()
        with metrics.collecting():
            assert metrics.enabled()
            with metrics.collecting():
                assert metrics.enabled()
            # Inner exit must not turn off an outer collected region.
            assert metrics.enabled()
        assert not metrics.enabled()


class TestRankTagging:
    def test_values_tag_with_the_bound_rank(self):
        c = metrics.counter("rank.c")
        with metrics.collecting():
            c.inc(1)  # driver side: rank None
            with trace.rank_scope(2):
                c.inc(10)
        assert c.value(None) == 1
        assert c.value(2) == 10
        assert c.total() == 11

    def test_gauge_last_writer_wins_per_rank(self):
        g = metrics.gauge("rank.g", forward_to_trace=False)
        with metrics.collecting():
            with trace.rank_scope(0):
                g.set(1.0)
                g.set(2.0)
            with trace.rank_scope(1):
                g.set(7.0)
        assert g.value(0) == 2.0
        assert g.value(1) == 7.0


    def test_threads_sharing_a_rank_lose_no_update(self):
        """Pool helpers record under their caller's rank, so several
        threads update one rank's state at once; none of it is lost."""
        h = metrics.histogram("shared.h")
        c = metrics.counter("shared.c")
        threads, calls = 8, 2_000

        def helper():
            trace.set_rank(1)
            for _ in range(calls):
                h.observe(0.001)
                c.inc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with metrics.collecting():
                workers = [threading.Thread(target=helper) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        state = metrics.snapshot()["shared.h"]["ranks"][1]
        assert state["count"] == sum(state["counts"]) == threads * calls
        assert c.value(1) == threads * calls


class TestGaugeForwarding:
    def test_forwarding_gauge_emits_trace_metric(self):
        g = metrics.gauge("fwd.g")
        with trace.tracing():
            g.set(0.5)  # metrics off: trace sample still emitted
        assert [(m.name, m.value) for m in trace.metrics()] == [("fwd.g", 0.5)]
        assert g.value() is None

    def test_non_forwarding_gauge_stays_out_of_trace(self):
        g = metrics.gauge("quiet.g", forward_to_trace=False)
        with trace.tracing(), metrics.collecting():
            g.set(0.5)
        assert trace.metrics() == []
        assert g.value() == 0.5


class TestHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            metrics.histogram("bad.h", bounds=(1.0, 1.0, 2.0))

    def test_sample_on_bound_lands_in_le_bucket(self):
        h = metrics.histogram("edge.h", bounds=(1.0, 2.0, 4.0))
        with metrics.collecting():
            h.observe(2.0)
        state = metrics.snapshot()["edge.h"]["ranks"][None]
        # le semantics: x == bounds[i] counts in bucket i, not i+1.
        assert state["counts"] == [0, 1, 0, 0]

    def test_overflow_bucket_catches_large_samples(self):
        h = metrics.histogram("over.h", bounds=(1.0, 2.0))
        with metrics.collecting():
            h.observe(100.0)
        state = metrics.snapshot()["over.h"]["ranks"][None]
        assert state["counts"] == [0, 0, 1]
        assert state["max"] == 100.0

    def test_quantiles_track_known_distribution(self):
        h = metrics.histogram("q.h")
        with metrics.collecting():
            for i in range(1, 101):
                h.observe(i / 1000.0)  # 1ms .. 100ms uniform
        p50 = h.quantile(0.50)
        p99 = h.quantile(0.99)
        # Log buckets at 8/decade are ~33% wide; allow one bucket of slop.
        assert 0.035 <= p50 <= 0.070
        assert 0.080 <= p99 <= 0.100
        assert h.quantile(0.0) >= 0.001
        assert h.quantile(1.0) == pytest.approx(0.1)

    def test_quantile_empty_is_none(self):
        h = metrics.histogram("empty.h")
        assert h.quantile(0.5) is None

    def test_quantile_from_buckets_single_sample_clamps_to_observed(self):
        value = metrics.quantile_from_buckets(
            [0, 1, 0], (1.0, 2.0), 0.5, lo=1.5, hi=1.5
        )
        assert value == 1.5


class TestHistogramTime:
    def test_off_hands_out_one_shared_context_and_records_nothing(self):
        h = metrics.histogram("time.off")
        assert h.time() is metrics.histogram("time.other").time()
        with h.time():
            pass
        assert "time.off" not in metrics.snapshot()

    def test_on_observes_the_block_once(self):
        h = metrics.histogram("time.on")
        with metrics.collecting():
            start = trace.clock()
            with h.time():
                time.sleep(0.01)
            elapsed = trace.clock() - start
        state = metrics.snapshot()["time.on"]["ranks"][None]
        assert state["count"] == 1
        assert 0.01 <= state["sum"] <= elapsed

    def test_a_raising_block_is_timed_and_the_error_propagates(self):
        h = metrics.histogram("time.raise")
        with metrics.collecting(), pytest.raises(ValueError):
            with h.time():
                raise ValueError("inside")
        assert h.count() == 1


class TestSnapshotMerge:
    def test_snapshot_omits_empty_instruments(self):
        metrics.counter("never.touched")
        assert metrics.snapshot() == {}

    def test_merge_adds_counters_and_histograms(self):
        c = metrics.counter("m.c")
        h = metrics.histogram("m.h", bounds=(1.0, 2.0))
        with metrics.collecting():
            c.inc(2)
            h.observe(1.5)
        snap = metrics.snapshot()
        metrics.merge_snapshot(snap)  # fold the same data back in: doubles
        assert c.value(None) == 4
        assert h.count() == 2

    def test_merge_reattributes_rank_none_to_default_rank(self):
        c = metrics.counter("m.rank")
        g = metrics.gauge("m.rankg", forward_to_trace=False)
        with metrics.collecting():
            c.inc(5)
            g.set(9.0)
        snap = metrics.snapshot()
        metrics.reset()
        metrics.merge_snapshot(snap, default_rank=3)
        assert c.value(3) == 5
        assert c.value(None) == 0
        assert g.value(3) == 9.0

    def test_merge_preserves_gauge_forward_flag(self):
        metrics.gauge("m.fwd", forward_to_trace=False)
        with metrics.collecting():
            metrics.gauge("m.fwd", forward_to_trace=False).set(1.0)
        snap = metrics.snapshot()
        # Simulate a parent process that never created this gauge.
        metrics._instruments.pop("m.fwd")
        metrics.merge_snapshot(snap, default_rank=0)
        assert metrics.gauge("m.fwd").forward is False

    def test_merge_rejects_mismatched_histogram_bounds(self):
        metrics.histogram("m.bounds", bounds=(1.0, 2.0))
        snap = {
            "m.bounds": {
                "kind": "histogram",
                "bounds": [1.0, 3.0],
                "ranks": {
                    0: {"counts": [1, 0, 0], "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5}
                },
            }
        }
        with pytest.raises(ValueError, match="bucket bounds differ"):
            metrics.merge_snapshot(snap)

    def test_merge_works_while_disabled(self):
        snap = {"m.off": {"kind": "counter", "values": {1: 4}}}
        metrics.merge_snapshot(snap)
        assert metrics.counter("m.off").value(1) == 4


class TestHeartbeat:
    def test_noop_without_sink_or_enable(self):
        metrics.heartbeat()
        assert metrics.snapshot() == {}

    def test_beats_stamp_the_heartbeat_gauge(self):
        with metrics.collecting():
            with trace.rank_scope(1):
                metrics.heartbeat()
        snap = metrics.snapshot()
        assert metrics.HEARTBEAT_METRIC in snap
        assert 1 in snap[metrics.HEARTBEAT_METRIC]["values"]
        assert snap[metrics.HEARTBEAT_METRIC]["forward"] is False

    def test_sink_receives_rank_and_wall_time(self):
        beats = []
        metrics.set_heartbeat_sink(lambda rank, wall: beats.append((rank, wall)))
        try:
            with trace.rank_scope(2):
                metrics.heartbeat()  # metrics disabled: sink alone triggers
        finally:
            metrics.set_heartbeat_sink(None)
        assert len(beats) == 1
        assert beats[0][0] == 2
        assert beats[0][1] > 0
