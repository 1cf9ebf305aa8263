"""Cross-process telemetry: bundle capture/absorb and the process
backend's trace round-trip — including the abort (post-mortem) path."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import mpi
from repro.obs import aggregate, export, metrics, trace
from repro.obs.trace import Metric, Span


class TestBundle:
    def test_capture_returns_none_when_empty(self):
        assert aggregate.capture(rank=0) is None

    def test_capture_and_absorb_round_trip(self):
        with trace.tracing():
            with trace.rank_scope(4):
                with trace.span("work", cat="compute"):
                    pass
            trace.metric("m", 1.5)
        bundle = aggregate.capture()
        trace.reset()
        assert trace.spans() == []
        aggregate.absorb(bundle)
        assert [s.name for s in trace.spans()] == ["work"]
        assert trace.metrics()[0].value == 1.5

    def test_absorb_attributes_rankless_events_to_bundle_rank(self):
        bundle = aggregate.TraceBundle(
            rank=7,
            spans=[Span("early", "app", None, 0, 1.0, 0.1, None)],
            metrics=[Metric("m", None, 1.0, 2.0)],
        )
        aggregate.absorb(bundle)
        assert trace.spans()[0].rank == 7
        assert trace.metrics()[0].rank == 7

    def test_absorb_none_is_noop(self):
        aggregate.absorb(None)
        assert trace.spans() == []


def test_obs_imports_nothing_from_the_rest_of_the_package():
    """The layer the kernels record into sits below them: importing every
    ``repro.obs`` module loads no other ``repro`` package."""
    code = (
        "import sys\n"
        "from repro.obs import aggregate, callback, export, log, metrics, metrics_export, trace\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout  # fmt: skip
    loaded = ast.literal_eval(out)
    assert loaded and all(m.startswith("repro.obs") or m == "repro.version" for m in loaded)


class TestProcessBackendRoundTrip:
    def test_spans_from_every_rank_reach_the_parent(self):
        def program(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, dest=1, tag=3)
            else:
                comm.recv(source=0, tag=3)
            comm.barrier()
            return comm.rank

        with trace.tracing():
            results = mpi.run_parallel(program, 2, backend="processes", timeout=120)
        assert results == [0, 1]
        spans = trace.spans()
        assert {s.rank for s in spans} == {0, 1}
        names = {(s.rank, s.name) for s in spans}
        assert (0, "mpi.send") in names
        assert (1, "mpi.recv") in names
        assert {s.name for s in spans if s.cat == "comm.collective"} == {"mpi.barrier"}

    def test_merged_timeline_is_clock_aligned(self):
        def program(comm):
            with trace.span("rank.work", cat="compute"):
                comm.barrier()
            return None

        with trace.tracing():
            with trace.span("driver.region", cat="app"):
                mpi.run_parallel(program, 2, backend="processes", timeout=120)
        spans = trace.spans()
        driver = next(s for s in spans if s.name == "driver.region")
        for s in spans:
            if s.name == "rank.work":
                # Child spans land inside the driver's enclosing span on
                # the shared wall-clock timeline, with merge slack for
                # cross-process clock anchoring.
                assert s.ts >= driver.ts - 0.25
                assert s.end <= driver.end + 0.25
        per_rank = export.summary(spans)
        assert set(per_rank) == {0, 1, None}

    def test_abort_path_ships_post_mortem_spans(self):
        def program(comm):
            with trace.span("pre-crash", cat="compute", rank=comm.rank):
                pass
            if comm.rank == 1:
                raise RuntimeError("rank 1 dies after its span closed")
            return "ok"

        with trace.tracing():
            with pytest.raises(RuntimeError, match="rank 1 dies"):
                mpi.run_parallel(program, 2, backend="processes", timeout=120)
        crashed = [
            s for s in trace.spans() if s.name == "pre-crash" and s.rank == 1
        ]
        assert crashed, "the crashed rank's telemetry must survive the abort"

    def test_kernel_histogram_merges_across_processes(self):
        """A kernel timing recorded in each of two process ranks reaches
        the parent under ranks {0, 1}: count and sum as recorded."""

        def program(comm):
            metrics.histogram("conv2d").observe(0.125)
            comm.barrier()
            return None

        with metrics.collecting():
            mpi.run_parallel(program, 2, backend="processes", timeout=120)
        payload = metrics.snapshot()["conv2d"]
        assert set(payload["ranks"]) == {0, 1}
        for state in payload["ranks"].values():
            assert state["count"] == 1
            assert state["sum"] == pytest.approx(0.125)

    def test_untraced_run_ships_no_bundles(self):
        def program(comm):
            comm.barrier()
            return comm.rank

        results = mpi.run_parallel(program, 2, backend="processes", timeout=120)
        assert results == [0, 1]
        assert trace.spans() == []

    def test_thread_backend_records_the_same_span_names(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(b"x", dest=1, tag=9)
            else:
                comm.recv(source=0, tag=9)
            comm.barrier()
            return comm.rank

        with trace.tracing():
            mpi.run_parallel(program, 2, backend="threads")
        names = {(s.rank, s.name) for s in trace.spans()}
        assert (0, "mpi.send") in names
        assert (1, "mpi.recv") in names
