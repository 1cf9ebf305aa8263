"""A rank's conv kernels split a batch's images over its share of the
cores, and the split changes no bit.

The share is forced through the launcher's private setter, so every
test here runs the split on a one-core runner too.
"""

import os
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

import repro.tensor as T
from repro import mpi
from repro.core import (
    CNNConfig,
    PaddingStrategy,
    ParallelTrainer,
    SubdomainCNN,
    TrainingConfig,
)
from repro.data import SnapshotDataset, synthetic_advection_snapshots
from repro.mpi.launcher import _set_share
from repro.optim import Adam
from repro.tensor import Tensor, blocked, precision, workspace_disabled
from tests.tensor.test_conv_strips import graph_nodes, owner, set_budget, table1_case

POOL = "repro-images"


def pool_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith(POOL)]


@pytest.fixture
def share():
    """Set the calling thread's share; the previous one comes back after."""
    previous = _set_share(1)
    yield _set_share
    _set_share(previous)


def adam_steps(strategy, batch, steps=3, slope=0.01):
    """Every byte of three Adam steps of the Table-I network: losses,
    input gradients, parameter gradients and the final weights."""
    rng = np.random.default_rng(5)
    model = SubdomainCNN(CNNConfig(strategy=strategy, negative_slope=slope), rng=rng)
    halo = model.input_halo
    x = rng.standard_normal((batch, 4, 11 + 2 * halo, 9 + 2 * halo)).astype(T.default_dtype())
    optimizer = Adam(model.parameters())
    recorded = []
    for _ in range(steps):
        tx = Tensor(x, requires_grad=True)
        out = model(tx)
        loss = ((out - Tensor(np.cos(out.data))) ** 2).mean()
        optimizer.zero_grad()
        loss.backward()
        recorded += [loss.data.tobytes(), tx.grad.tobytes()]
        recorded += [p.grad.tobytes() for p in model.parameters()]
        optimizer.step()
    return recorded + [p.data.tobytes() for p in model.parameters()]


class TestBitIdenticalAtAnyShare:
    @pytest.mark.parametrize("mode", ["float64", "float32"])
    @pytest.mark.parametrize("batch", [2, 5])
    @pytest.mark.parametrize("strategy", list(PaddingStrategy), ids=lambda s: s.value)
    def test_three_adam_steps(self, monkeypatch, share, strategy, batch, mode):
        # Several strips per image, so the per-strip weight-gradient
        # partials are summed across seams as well as across images.
        set_budget(monkeypatch, 1 << 14)
        runs = []
        with precision(mode):
            for threads in (1, 2, 3):
                share(threads)
                runs.append(adam_steps(strategy, batch))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("slope", [0.0, 1.0, 2.0])
    def test_every_activation_scaling_branch(self, monkeypatch, share, slope):
        set_budget(monkeypatch, 1 << 14)
        runs = []
        for threads in (1, 3):
            share(threads)
            runs.append(adam_steps(PaddingStrategy.NEIGHBOR_FIRST, 5, slope=slope))
        assert runs[1] == runs[0]

    def test_without_an_arena(self, monkeypatch, share):
        set_budget(monkeypatch, 1 << 14)
        share(1)
        want = adam_steps(PaddingStrategy.NEIGHBOR_FIRST, 5)
        with workspace_disabled():
            for threads in (1, 3):
                share(threads)
                assert adam_steps(PaddingStrategy.NEIGHBOR_FIRST, 5) == want

    def test_warm_step_allocation_bound_holds_when_split(self):
        """``TestChainAllocation``'s tracemalloc bound, unchanged, on a
        warm step split over two threads (tracemalloc sees them all), in
        a fresh rank process: its one pool worker's arena is warm."""

        def program(comm):
            _set_share(2)
            rng = np.random.default_rng(1234)
            model, x, y = table1_case(rng, PaddingStrategy.NEIGHBOR_FIRST, n=2, size=32)
            convs = [n for n in graph_nodes(model(Tensor(x))) if n.op_name == "conv2d"]
            outputs = [owner(node.data).nbytes for node in convs]
            activated = sum(node.data.size for node in convs[1:])
            bound = sum(outputs) + activated + 2 * max(outputs) + 64 * 1024

            def step():
                model.zero_grad()
                ((model(Tensor(x)) - Tensor(y)) ** 2).sum().backward()

            step()
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, bound, len(pool_threads())

        [(peak, bound, workers)] = mpi.run_parallel(
            program, 1, backend="processes", timeout=120
        )
        assert workers == 1
        assert peak < bound, f"warm step peaked at {peak} B, bound {bound} B"


class TestHandOut:
    def test_each_image_once_on_at_most_share_threads(self, share):
        share(3)
        seen, arenas = [], {}

        def work(images, arena):
            time.sleep(0.02)  # long enough for the helpers to take some
            seen.append((images.start, images.stop))
            arenas[threading.current_thread().name] = arena

        caller = T.get_workspace()
        blocked.for_each_image(6, caller, work)
        assert sorted(seen) == [(i, i + 1) for i in range(6)]
        assert 2 <= len(arenas) <= 3
        for name, arena in arenas.items():
            assert (arena is caller) == (name == threading.current_thread().name)
        assert len({id(a) for a in arenas.values()}) == len(arenas)

    def test_no_arena_for_anyone_without_one(self, share):
        share(2)
        arenas = []
        blocked.for_each_image(4, None, lambda images, arena: arenas.append(arena))
        assert arenas == [None] * 4

    def test_share_one_is_one_call_on_the_batch(self, share):
        calls = []
        blocked.for_each_image(5, None, lambda images, arena: calls.append(images))
        assert calls == [slice(0, 5)]

    @staticmethod
    def record(seen, images, arena):
        seen.append(images.start)

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch, share):
        """Four threads on any core count, switching every microsecond:
        no image is lost or handed out twice, and the weight gradient
        still sums in the serial order."""
        set_budget(monkeypatch, 1 << 14)
        want = adam_steps(PaddingStrategy.ZERO, 7, steps=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            share(4)
            for _ in range(50):
                seen: list[int] = []
                blocked.for_each_image(9, None, partial(self.record, seen))
                assert sorted(seen) == list(range(9))
            assert adam_steps(PaddingStrategy.ZERO, 7, steps=1) == want
        finally:
            sys.setswitchinterval(interval)

    def test_a_helper_error_reaches_the_caller(self, share):
        share(2)
        caller = threading.current_thread()

        def work(images, arena):
            time.sleep(0.02)
            if threading.current_thread() is not caller:
                raise ValueError("helper failed")

        with pytest.raises(ValueError, match="helper failed"):
            blocked.for_each_image(8, None, work)


def conv_step():
    """A small training conv on a batch of two, then the rank's share
    and the names of the pool threads alive in its process."""
    x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 9, 9)), requires_grad=True)
    w = Tensor(np.random.default_rng(1).standard_normal((4, 3, 3, 3)), requires_grad=True)
    T.conv2d(x, w, padding=1, activation="leaky_relu").sum().backward()
    return blocked.image_threads(), pool_threads()


class TestRankShare:
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_two_rank_world(self, backend):
        expected = max(1, len(os.sched_getaffinity(0)) // 2)
        before = pool_threads()
        results = mpi.run_parallel(lambda comm: conv_step(), 2, backend=backend, timeout=120)
        assert [threads for threads, _ in results] == [expected, expected]
        for _, names in results:
            if backend == "processes":  # a fresh pool per rank process
                assert len(names) <= expected - 1
            elif expected == 1:
                assert names == before  # no pool thread started

    @pytest.mark.parametrize("ranks", [1, 2])
    def test_serial_training_gives_each_rank_its_share(self, ranks):
        snapshots = synthetic_advection_snapshots(grid_size=16, num_snapshots=6, seed=0)
        training = TrainingConfig(epochs=1, batch_size=4, lr=0.01, loss="mse", seed=0)
        shares = []
        trainer = ParallelTrainer(
            CNNConfig(channels=(4, 6, 4), kernel_size=3),
            training,
            num_ranks=ranks,
            callback_factory=lambda rank: shares.append(blocked.image_threads()) or [],
        )
        trainer.train(SnapshotDataset(snapshots), execution="serial")
        assert shares == [max(1, len(os.sched_getaffinity(0)) // ranks)] * ranks
        assert blocked.image_threads() == 1  # the caller's share is back

    def test_rank_processes_start_after_the_parent_used_the_pool(self, share):
        """Forked ranks drop the parent's pool and build their own; the
        launcher's timeout is the watchdog should a child hang."""
        share(2)
        conv_step()
        assert pool_threads()

        def program(comm):
            _set_share(2)
            return conv_step()

        results = mpi.run_parallel(program, 2, backend="processes", timeout=120)
        assert [threads for threads, _ in results] == [2, 2]
        for _, names in results:
            assert len(names) <= 1
