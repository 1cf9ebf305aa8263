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

    def test_warm_step_allocation_bound_holds_when_split(self, share):
        """``TestChainAllocation``'s tracemalloc bound, unchanged, on a
        warm step split over two threads (tracemalloc sees them all), in
        this process after a share-3 call left the pool more threads than
        the step uses: the helper's arena is the caller's, warm whichever
        pool thread runs it."""
        rng = np.random.default_rng(1234)
        model, x, y = table1_case(rng, PaddingStrategy.NEIGHBOR_FIRST, n=2, size=32)
        convs = [n for n in graph_nodes(model(Tensor(x))) if n.op_name == "conv2d"]
        outputs = [owner(node.data).nbytes for node in convs]
        activated = sum(node.data.size for node in convs[1:])
        bound = sum(outputs) + activated + 2 * max(outputs) + 64 * 1024

        def step():
            model.zero_grad()
            ((model(Tensor(x)) - Tensor(y)) ** 2).sum().backward()

        share(3)
        blocked.for_each_image(3, None, lambda images, arena: time.sleep(0.02))
        assert len(pool_threads()) >= 2
        share(2)
        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"warm step peaked at {peak} B, bound {bound} B"


class TestBordersZeroedPerImage:
    """A bordered forward destination and the backward's gradient source
    get their borders zeroed in the per-image work: prefilled with NaN,
    they come out with exactly-zero borders, and every result is bitwise
    the same at shares 1, 2 and 3."""

    @pytest.mark.parametrize("activation", [None, "leaky_relu"])
    def test_forward_destination(self, share, activation):
        rng = np.random.default_rng(3)
        x, w, b = rng.standard_normal((5, 3, 9, 8)), rng.standard_normal((4, 3, 3, 3)), None
        if activation:
            b = rng.standard_normal(4)
        runs = []
        for threads in (1, 2, 3):
            share(threads)
            out = np.full((5, 4, 9 + 4, 8 + 6), np.nan)  # borders 2 and 3
            blocked.conv2d_forward_blocked(
                x, w, b, (1, 1), activation=activation, workspace=T.get_workspace(), out=out
            )
            interior = out[:, :, 2:-2, 3:-3].copy()
            out[:, :, 2:-2, 3:-3] = 0.0
            assert np.isfinite(interior).all() and not out.any()
            runs.append(interior.tobytes())
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("activation", [None, "leaky_relu"])
    def test_gradient_source(self, share, activation):
        rng = np.random.default_rng(4)
        x, w = rng.standard_normal((5, 3, 9, 8)), rng.standard_normal((4, 3, 3, 3))
        g = rng.standard_normal((5, 4, 9, 8))
        workspace, slot = T.get_workspace(), "conv2d.train.gsrc"
        runs = []
        for threads in (1, 2, 3):
            share(threads)
            workspace.reserve(slot, (1 << 14,), np.float64)[:] = np.nan
            tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            T.conv2d(tx, tw, padding=1, activation=activation).backward(g)
            source = workspace.reserve(slot, (5, 4, 9 + 2, 8 + 2), np.float64)
            assert not source[:, :, [0, -1]].any() and not source[:, :, :, [0, -1]].any()
            assert np.isfinite(tx.grad).all() and np.isfinite(tw.grad).all()
            runs.append(tx.grad.tobytes() + tw.grad.tobytes())
        assert runs[1] == runs[0] and runs[2] == runs[0]


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

    def test_helper_arenas_are_the_callers(self, share):
        """Helper ``k`` draws from the caller's ``k``-th helper arena,
        whichever pool thread runs it; another caller has its own."""
        share(3)
        caller, seen = T.get_workspace(), set()

        def work(images, arena):
            time.sleep(0.01)
            seen.add(id(arena))

        for _ in range(3):
            blocked.for_each_image(6, caller, work)
        assert seen <= {id(caller), id(caller.helper(0)), id(caller.helper(1))}
        others = []
        thread = threading.Thread(target=lambda: others.append(T.get_workspace().helper(0)))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive() and others[0] is not caller.helper(0)

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
