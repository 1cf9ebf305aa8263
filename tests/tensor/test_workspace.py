"""Workspace arena semantics: reuse, zeroing, thread/disable scoping."""

import threading

import numpy as np
import pytest

from repro.tensor import perf
from repro.tensor.workspace import (
    Workspace,
    get_workspace,
    workspace_disabled,
)


class TestRequest:
    def test_same_key_returns_same_buffer(self):
        ws = Workspace()
        a = ws.request("scratch", (4, 5), np.float64)
        b = ws.request("scratch", (4, 5), np.float64)
        assert a is b

    def test_fresh_buffer_is_zero_filled(self):
        ws = Workspace()
        buf = ws.request("scratch", (8,), np.float64)
        assert np.array_equal(buf, np.zeros(8))

    def test_distinct_slots_do_not_alias(self):
        ws = Workspace()
        a = ws.request("a", (3, 3), np.float64)
        b = ws.request("b", (3, 3), np.float64)
        assert a is not b

    def test_distinct_shapes_do_not_alias(self):
        ws = Workspace()
        a = ws.request("scratch", (3, 3), np.float64)
        b = ws.request("scratch", (9,), np.float64)
        assert a is not b

    def test_distinct_dtypes_do_not_alias(self):
        ws = Workspace()
        a = ws.request("scratch", (4,), np.float64)
        b = ws.request("scratch", (4,), np.float32)
        assert a is not b
        assert b.dtype == np.float32

    def test_reuse_keeps_contents(self):
        ws = Workspace()
        buf = ws.request("scratch", (5,), np.float64)
        buf[:] = 7.0
        again = ws.request("scratch", (5,), np.float64)
        assert np.array_equal(again, np.full(5, 7.0))

    def test_shape_accepts_numpy_ints(self):
        ws = Workspace()
        a = ws.request("scratch", (np.int64(4), np.int64(5)), np.float64)
        b = ws.request("scratch", (4, 5), np.float64)
        assert a is b


class TestStats:
    def test_counts_and_bytes(self):
        ws = Workspace()
        ws.request("a", (10,), np.float64)
        ws.request("a", (10,), np.float64)
        ws.request("b", (5,), np.float64)
        assert ws.stats.requests == 3
        assert ws.stats.buffers_created == 2
        assert ws.stats.bytes_allocated == 10 * 8 + 5 * 8
        assert ws.stats.bytes_reused == 10 * 8
        assert ws.num_buffers == 2
        assert ws.nbytes == 10 * 8 + 5 * 8

    def test_hit_rate(self):
        ws = Workspace()
        assert ws.stats.hit_rate == 0.0
        ws.request("a", (4,), np.float64)
        assert ws.stats.hit_rate == 0.0
        for _ in range(3):
            ws.request("a", (4,), np.float64)
        assert ws.stats.hit_rate == pytest.approx(0.75)

    def test_clear_drops_buffers_keeps_stats(self):
        ws = Workspace()
        ws.request("a", (4,), np.float64)
        ws.clear()
        assert ws.num_buffers == 0
        assert ws.nbytes == 0
        assert ws.stats.buffers_created == 1
        # A re-request after clear allocates anew.
        ws.request("a", (4,), np.float64)
        assert ws.stats.buffers_created == 2

    def test_totals_include_the_helper_arenas(self):
        ws = Workspace()
        ws.request("a", (4,), np.float64)
        ws.helper(1).request("a", (4,), np.float64)
        assert ws.num_buffers == 2
        assert ws.nbytes == 2 * 4 * 8
        assert "2 buffers" in ws.describe()
        ws.clear()
        assert ws.num_buffers == 0 and ws.nbytes == 0

    def test_describe_mentions_name_and_counts(self):
        ws = Workspace(name="bench")
        ws.request("a", (4,), np.float64)
        text = ws.describe()
        assert "bench" in text
        assert "1 buffers" in text
        assert "1 requests" in text


class TestPerfIntegration:
    def test_bytes_feed_registry_when_collecting(self):
        perf.reset()
        ws = Workspace()
        with perf.collecting():
            ws.request("a", (10,), np.float64)
            ws.request("a", (10,), np.float64)
        counters = perf.snapshot()
        assert counters["workspace"].bytes_allocated == 80
        assert counters["workspace"].bytes_reused == 80
        perf.reset()

    def test_silent_while_disabled(self):
        perf.reset()
        assert not perf.perf_enabled()
        Workspace().request("a", (10,), np.float64)
        assert "workspace" not in perf.snapshot()


class TestThreadDefault:
    def test_same_thread_same_arena(self):
        assert get_workspace() is get_workspace()

    def test_other_thread_gets_other_arena(self):
        mine = get_workspace()
        seen = []
        thread = threading.Thread(target=lambda: seen.append(get_workspace()))
        thread.start()
        thread.join()
        assert seen[0] is not None
        assert seen[0] is not mine

    def test_disabled_returns_none_and_nests(self):
        assert get_workspace() is not None
        with workspace_disabled():
            assert get_workspace() is None
            with workspace_disabled():
                assert get_workspace() is None
            assert get_workspace() is None
        assert get_workspace() is not None
