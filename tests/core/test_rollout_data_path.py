"""The rollout's data path: every rank writes its window of one shared
trajectory and reads its halo-extended network input out of the same
array into one persistent buffer.

Pinned here: the result equals a stack-and-assemble reference loop bit
for bit on every backend, the trajectory outlives everything that made
it, steps reuse the one input buffer and a warm arena, the telemetry
reports the volumes the closed forms do, and a rank that fails
mid-rollout leaves nothing behind.
"""

import gc
import os
import pickle
import time

import numpy as np
import pytest

from repro.core import (
    CNNConfig,
    EnsembleStepper,
    InferencePlan,
    PaddingStrategy,
    ParallelPredictor,
    SubdomainCNN,
    rollout,
)
from repro.domain import BlockDecomposition
from repro.exceptions import CommunicatorError
from repro.obs import export, metrics, trace
from repro.tensor import precision

from ..conftest import dev_shm_entries, shared_mappings


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
        "periodic, fill",
        [
            ((False, False), "zero"),
            ((False, False), "edge"),
            ((True, True), "zero"),
            ((True, False), "edge"),
        ],
    )
    # (3, 3): corner data comes from diagonal ranks, blocks are uneven,
    # and nine ranks outnumber the cores of any CI box
    @pytest.mark.parametrize("pgrid", [(1, 2), (2, 1), (2, 2), (3, 3)])
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
            # the same blocks stepped in turn, without ranks
            stepper = EnsembleStepper(models, decomposition, fill=fill)
            results["serial"] = rollout(stepper, initial, 3)
            single_step = stepper.advance(initial, 1)
        # a float32 model fed a float64 field still yields float64 frames
        assert expected.dtype == np.float64
        for result in results.values():
            assert result.trajectory.dtype == np.float64
            assert np.array_equal(result.trajectory, expected)
        assert np.array_equal(single_step, expected[1])
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

    def test_self_wrap_strips_are_not_counted(self, rng):
        """A periodic axis one rank wide wraps onto the rank itself: a
        local copy, neither a message nor bytes on the wire."""
        decomposition = BlockDecomposition((32, 32), (1, 2), periodic=(True, True))
        predictor = ParallelPredictor(make_models(CNNConfig(), 2), decomposition)
        assert predictor.halo == 2  # the Table-I network's 5 x 5 first layer
        result = predictor.rollout(rng.standard_normal((4, 32, 32)), 1)
        assert result.messages_sent == 4
        # four column strips of the row-extended 32 x 16 block
        assert result.bytes_sent == 4 * (4 * (32 + 2 * 2) * 2 * 8) == 9216

    def test_one_network_rollout_matches_stepwise_forward(self, rng):
        config = CNNConfig(channels=(4, 5, 4), kernel_size=3, strategy=PaddingStrategy.ZERO)
        model = SubdomainCNN(config, rng=np.random.default_rng(0))
        plan = InferencePlan(model)
        initial = rng.standard_normal((4, 10, 10))
        frames = [initial]
        for _ in range(3):
            frames.append(plan.run(frames[-1][None])[0])
        result = rollout(EnsembleStepper([model]), initial, 3)
        assert np.array_equal(result.trajectory, np.stack(frames))


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


class _RecordingDecomposition(BlockDecomposition):
    """Notes which buffer every halo-extended ``extract`` fills."""

    def extract(self, field, rank, halo=0, fill="zero", out=None):
        if halo:
            self.filled.append((rank, out))  # list.append: safe from rank threads
        return super().extract(field, rank, halo, fill, out)


class TestAllocation:
    def test_steps_reuse_one_input_buffer_and_a_warm_arena(self, rng):
        """What the code controls, not what the allocator reports: each
        rank refills the same padded array every step and, once the
        plans are warm, a rollout creates no workspace buffer."""
        config = CNNConfig(channels=(4, 6, 4), kernel_size=3)
        decomposition = _RecordingDecomposition((64, 64), (1, 2))
        decomposition.filled = []
        predictor = ParallelPredictor(make_models(config, 2), decomposition)
        plans = [unit.plan for unit in predictor._units]
        initial = rng.standard_normal((4, 64, 64))
        predictor.rollout(initial, 2)  # warm the plans' arenas
        created = [plan.workspace.stats.buffers_created for plan in plans]
        first_call = list(decomposition.filled)
        decomposition.filled.clear()
        predictor.rollout(initial, 12)
        assert [plan.workspace.stats.buffers_created for plan in plans] == created
        for rank in range(2):
            # the very first cut allocates the padded input ...
            (first, second) = [out for r, out in first_call if r == rank]
            assert first is None and second is not None
            # ... every later one refills it, in later rollouts too
            buffers = [out for r, out in decomposition.filled if r == rank]
            assert len(buffers) == 12
            assert all(out is second for out in buffers)

    def test_the_serial_stepper_stops_allocating(self, rng):
        """After two warm-up calls ``advance(x, 3, out=buf)`` creates no
        workspace buffer, refills the same padded inputs and alternates
        through the same spare frame."""
        config = CNNConfig(channels=(4, 6, 4), kernel_size=3)
        decomposition = _RecordingDecomposition((64, 64), (1, 2))
        decomposition.filled = []
        stepper = EnsembleStepper(make_models(config, 2), decomposition)
        initial = rng.standard_normal((4, 64, 64))
        buffer = np.empty_like(initial)
        for _ in range(2):
            stepper.advance(initial, 3, out=buffer)
        plans = [unit.plan for unit in stepper._units()]
        created = [plan.workspace.stats.buffers_created for plan in plans]
        padded = {rank: out for rank, out in decomposition.filled[-2:]}
        spare = stepper._scratch.spare
        decomposition.filled.clear()
        assert stepper.advance(initial, 3, out=buffer) is buffer
        assert [plan.workspace.stats.buffers_created for plan in plans] == created
        assert stepper._scratch.spare is spare
        assert len(decomposition.filled) == 2 * 3
        assert all(out is padded[rank] for rank, out in decomposition.filled)


class TestTelemetry:
    @pytest.mark.parametrize("execution", ["threads", "processes"])
    def test_counters_report_the_closed_form_volumes(self, rng, execution):
        config = CNNConfig(channels=(4, 6, 4), kernel_size=3)
        decomposition = BlockDecomposition((12, 16), (2, 2), periodic=(False, True))
        predictor = ParallelPredictor(make_models(config, 4), decomposition)
        metrics.reset()
        with metrics.collecting():
            result = predictor.rollout(rng.standard_normal((4, 12, 16)), 3, execution=execution)
        sent, received = metrics.counter("mpi.bytes_sent"), metrics.counter("mpi.bytes_recv")
        exchanges = metrics.counter("halo.exchanges")
        try:
            assert result.bytes_sent > 0
            assert sent.total() == received.total() == result.bytes_sent
            for rank in range(4):  # equal blocks: every rank moves a quarter
                assert sent.value(rank) == received.value(rank) == result.bytes_sent / 4
                assert exchanges.value(rank) == 3
        finally:
            metrics.reset()

    @pytest.mark.parametrize("execution", ["threads", "processes"])
    def test_trace_shows_a_get_and_a_wait_and_no_messages(self, rng, execution):
        config = CNNConfig(channels=(4, 6, 4), kernel_size=3)
        decomposition = BlockDecomposition((12, 16), (1, 2))
        predictor = ParallelPredictor(make_models(config, 2), decomposition)
        trace.reset()
        with trace.tracing():
            result = predictor.rollout(rng.standard_normal((4, 12, 16)), 3, execution=execution)
        spans = trace.spans()
        trace.reset()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        assert not {"mpi.send", "mpi.recv"} & set(by_name)
        assert len(by_name["rollout.step"]) == len(by_name["halo.exchange"]) == 2 * 3
        assert {span.cat for span in by_name["halo.exchange"]} == {"comm.compound"}
        assert {span.cat for span in by_name["halo.get"]} == {"comm"}
        # frame 0 is the caller's: nobody waits before the first step
        assert len(by_name["halo.wait"]) == 2 * 2
        assert {span.cat for span in by_name["halo.wait"]} == {"comm.wait"}
        rows = export.summary(spans)
        assert sum(rows[rank]["comm_bytes"] for rank in (0, 1)) == result.bytes_sent
        for rank in (0, 1):
            assert 0.0 < rows[rank]["comm_fraction"] < 1.0
            assert rows[rank]["wait_seconds"] <= rows[rank]["comm_seconds"]


class _FailsAtStep(SubdomainCNN):
    """A network whose ``fail_at``-th forward raises — or, with
    ``exit_code`` set, takes its rank process down without a word."""

    fail_at = None
    exit_code = None

    def forward(self, x):
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == self.fail_at:
            if self.exit_code is not None:
                os._exit(self.exit_code)
            raise FloatingPointError(f"diverged at step {self.calls}")
        return super().forward(x)


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
        predictor = ParallelPredictor(models, decomposition)
        initial = rng.standard_normal((4, 8, 8))
        gc.collect()
        mappings = shared_mappings()
        held = predictor.rollout(initial, 2, execution="processes")
        assert shared_mappings() == mappings + 1  # the result's trajectory
        del held
        gc.collect()
        assert shared_mappings() == mappings

        entries = dev_shm_entries()
        start = time.monotonic()
        for _ in range(20):
            with pytest.raises(FloatingPointError, match="diverged at step 3"):
                predictor.rollout(initial, 5, execution="processes")
        assert time.monotonic() - start < 60.0
        # a rank that dies outright while its peer waits for frame 3
        models[1].exit_code = 3
        for _ in range(5):
            with pytest.raises(CommunicatorError, match="rank 1 died with exit code 3"):
                predictor.rollout(initial, 5, execution="processes")
        assert time.monotonic() - start < 60.0
        gc.collect()
        assert shared_mappings() == mappings
        assert dev_shm_entries() <= entries  # no psm_*, no sem.*

    def test_a_raising_rank_thread_is_the_error_reported(self, rng):
        config = CNNConfig(channels=(4, 4), kernel_size=3)
        decomposition = BlockDecomposition((8, 8), (1, 2))
        models = [
            SubdomainCNN(config, rng=np.random.default_rng(0)),
            _FailsAtStep(config, rng=np.random.default_rng(1)),
        ]
        models[1].fail_at = 3
        predictor = ParallelPredictor(models, decomposition)
        gc.collect()
        mappings = shared_mappings()
        start = time.monotonic()
        with pytest.raises(FloatingPointError, match="diverged at step 3"):
            predictor.rollout(rng.standard_normal((4, 8, 8)), 5, execution="threads")
        assert time.monotonic() - start < 10.0
        gc.collect()
        assert shared_mappings() == mappings
