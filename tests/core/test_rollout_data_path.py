"""The rollout's data path: every rank writes its window of one shared
trajectory and assembles its network input in one persistent buffer.

Pinned here: the result equals a stack-and-assemble reference loop bit
for bit on every backend, the trajectory outlives everything that made
it, steps allocate nothing that grows with the step count, and a rank
that fails mid-rollout leaves nothing behind.
"""

import gc
import os
import pickle
import time
import tracemalloc

import numpy as np
import pytest

from repro.core import (
    CNNConfig,
    InferencePlan,
    PaddingStrategy,
    ParallelPredictor,
    SequentialPredictor,
    SubdomainCNN,
)
from repro.domain import BlockDecomposition
from repro.tensor import precision


def make_models(config, count, seed=3):
    return [SubdomainCNN(config, rng=np.random.default_rng(seed + r)) for r in range(count)]


def reference_rollout(models, decomposition, fill, initial, num_steps):
    """The loop the shared window replaced: cut every rank's halo block
    out of the global state, predict, reassemble, stack."""
    halo = models[0].input_halo
    plans = [InferencePlan(model) for model in models]
    frames = [initial]
    for _ in range(num_steps):
        pieces = [
            plan.run(decomposition.extract(frames[-1], rank, halo=halo, fill=fill)[None])[0]
            for rank, plan in enumerate(plans)
        ]
        frames.append(decomposition.assemble(pieces))
    return np.stack(frames)


class TestParity:
    @pytest.mark.parametrize("mode", ["float64", "float32"])
    @pytest.mark.parametrize(
        "periodic, fill", [((False, False), "zero"), ((False, False), "edge"), ((True, True), "zero")]
    )
    @pytest.mark.parametrize("pgrid", [(1, 2), (2, 1), (2, 2)])
    def test_reference_threads_processes_bit_equal(self, rng, pgrid, periodic, fill, mode):
        config = CNNConfig(channels=(4, 6, 4), kernel_size=3)
        decomposition = BlockDecomposition((12, 16), pgrid, periodic=periodic)
        initial = rng.standard_normal((4, 12, 16))
        with precision(mode):
            models = make_models(config, decomposition.num_subdomains)
            expected = reference_rollout(models, decomposition, fill, initial, 3)
            predictor = ParallelPredictor(models, decomposition, fill=fill)
            results = {
                execution: predictor.rollout(initial, 3, execution=execution)
                for execution in ("threads", "processes")
            }
        # a float32 model fed a float64 field still yields float64 frames
        assert expected.dtype == np.float64
        for result in results.values():
            assert result.trajectory.dtype == np.float64
            assert np.array_equal(result.trajectory, expected)
        assert results["threads"].messages_sent == results["processes"].messages_sent
        assert results["threads"].bytes_sent == results["processes"].bytes_sent

    def test_float32_field_gives_float32_trajectory(self, rng):
        config = CNNConfig(channels=(4, 4), kernel_size=3)
        decomposition = BlockDecomposition((8, 8), (1, 2))
        initial = rng.standard_normal((4, 8, 8)).astype(np.float32)
        with precision("float32"):
            predictor = ParallelPredictor(make_models(config, 2), decomposition)
            assert predictor.rollout(initial, 2).trajectory.dtype == np.float32

    def test_bytes_sent_is_steps_times_strip_bytes(self, rng):
        config = CNNConfig(channels=(4, 4), kernel_size=3)
        decomposition = BlockDecomposition((8, 12), (1, 2))
        predictor = ParallelPredictor(make_models(config, 2), decomposition)
        result = predictor.rollout(rng.standard_normal((4, 8, 12)), 5)
        # each rank sends one column strip of the row-extended block per step
        assert result.messages_sent == 2 * 5
        assert result.bytes_sent == 2 * 5 * (4 * (8 + 2) * 1 * 8)

    def test_sequential_rollout_matches_stepwise_forward(self, rng):
        config = CNNConfig(channels=(4, 5, 4), kernel_size=3, strategy=PaddingStrategy.ZERO)
        model = SubdomainCNN(config, rng=np.random.default_rng(0))
        plan = InferencePlan(model)
        initial = rng.standard_normal((4, 10, 10))
        frames = [initial]
        for _ in range(3):
            frames.append(plan.run(frames[-1][None])[0])
        result = SequentialPredictor(model).rollout(initial, 3)
        assert np.array_equal(result.trajectory, np.stack(frames))
        assert result.trajectory.flags.writeable


class TestTrajectoryLifetime:
    @pytest.mark.parametrize("execution", ["threads", "processes"])
    def test_trajectory_outlives_its_predictor(self, rng, tmp_path, execution):
        config = CNNConfig(channels=(4, 4), kernel_size=3)
        decomposition = BlockDecomposition((8, 8), (1, 2))
        predictor = ParallelPredictor(make_models(config, 2), decomposition)
        result = predictor.rollout(rng.standard_normal((4, 8, 8)), 2, execution=execution)
        snapshot = result.trajectory.copy()
        del predictor
        gc.collect()
        assert np.array_equal(result.trajectory, snapshot)
        assert np.array_equal(pickle.loads(pickle.dumps(result)).trajectory, snapshot)
        np.save(tmp_path / "trajectory.npy", result.trajectory)
        assert np.array_equal(np.load(tmp_path / "trajectory.npy"), snapshot)
        result.trajectory[1] += 1.0  # the caller owns it
        assert np.array_equal(result.trajectory[1], snapshot[1] + 1.0)


class TestAllocation:
    def test_steps_do_not_grow_traced_memory(self, rng):
        """Twice the steps, same peak: the trajectory lives in the shared
        mapping (which tracemalloc does not see) and a step leaves only
        strip-sized transients behind."""
        config = CNNConfig(channels=(4, 6, 4), kernel_size=3)
        decomposition = BlockDecomposition((64, 64), (1, 2))
        predictor = ParallelPredictor(make_models(config, 2), decomposition)
        initial = rng.standard_normal((4, 64, 64))
        predictor.rollout(initial, 2)  # warm the plans' arenas

        def peak(num_steps):
            gc.collect()
            tracemalloc.start()
            try:
                predictor.rollout(initial, num_steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def quiet_peak(num_steps):
            # Anything else alive in the process only ever adds to a peak.
            return min(peak(num_steps) for _ in range(3))

        frame_bytes = 4 * 64 * 32 * 8  # one rank's block of one frame
        # Keeping per-rank frames to stack would add 12 of them; what does
        # vary is a few KB of small cyclic garbage awaiting collection.
        assert quiet_peak(12) - quiet_peak(6) < frame_bytes


class _FailsAtStep(SubdomainCNN):
    """A network whose ``fail_at``-th forward raises."""

    fail_at = None

    def forward(self, x):
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == self.fail_at:
            raise FloatingPointError(f"diverged at step {self.calls}")
        return super().forward(x)


def _shared_mappings():
    """Anonymous shared mappings of this process (Linux names them
    after the deleted ``/dev/zero`` file that backs them)."""
    with open("/proc/self/maps") as maps:
        return sum("/dev/zero (deleted)" in line for line in maps)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc")
class TestRankFailure:
    def test_failed_rollouts_leave_nothing_behind(self, rng):
        config = CNNConfig(channels=(4, 4), kernel_size=3)
        decomposition = BlockDecomposition((8, 8), (1, 2))
        models = [
            SubdomainCNN(config, rng=np.random.default_rng(0)),
            _FailsAtStep(config, rng=np.random.default_rng(1)),
        ]
        models[1].fail_at = 3
        predictor = ParallelPredictor(models, decomposition, use_plan=False)
        initial = rng.standard_normal((4, 8, 8))
        gc.collect()
        mappings = _shared_mappings()
        held = predictor.rollout(initial, 2, execution="processes")
        assert _shared_mappings() == mappings + 1  # the result's trajectory
        del held
        gc.collect()
        assert _shared_mappings() == mappings

        segments = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        start = time.monotonic()
        for _ in range(20):
            with pytest.raises(FloatingPointError, match="diverged at step 3"):
                predictor.rollout(initial, 5, execution="processes")
        assert time.monotonic() - start < 60.0
        gc.collect()
        assert _shared_mappings() == mappings
        if os.path.isdir("/dev/shm"):
            assert set(os.listdir("/dev/shm")) <= segments
