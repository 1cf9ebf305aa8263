"""Golden equivalence across execution backends.

The paper's scheme is communication-free, so *where* a rank runs —
in-process thread, separate OS process, or serially in the caller —
must not change a single bit of the result.  Per-rank seeding is
derived from ``seed + rank`` before any backend dispatch, which is what
makes this hold; these tests are the regression gate for that property.
"""

import numpy as np

from repro.core import CNNConfig, ParallelTrainer, TrainingConfig
from repro.data import SnapshotDataset, synthetic_advection_snapshots


def small_setup(epochs=2):
    snaps = synthetic_advection_snapshots(grid_size=16, num_snapshots=8, seed=0)
    dataset = SnapshotDataset(snaps)
    cnn = CNNConfig(channels=(4, 6, 4), kernel_size=3)
    training = TrainingConfig(epochs=epochs, batch_size=4, lr=0.01, loss="mse", seed=0)
    return dataset, cnn, training


class TestParallelTrainerEquivalence:
    def test_all_backends_bit_identical(self):
        """Serial is the reference; threads and processes must match it
        exactly — losses and every weight, bit for bit."""
        dataset, cnn, training = small_setup()
        results = {}
        for mode in ("serial", "threads", "processes"):
            trainer = ParallelTrainer(cnn, training, num_ranks=2, seed=0)
            results[mode] = trainer.train(dataset, execution=mode)

        reference = results["serial"]
        for mode in ("threads", "processes"):
            candidate = results[mode]
            assert candidate.final_losses == reference.final_losses
            for rank in range(2):
                state_ref = reference.rank_results[rank].state_dict
                state_got = candidate.rank_results[rank].state_dict
                assert set(state_got) == set(state_ref)
                for name in state_ref:
                    assert np.array_equal(state_got[name], state_ref[name]), (
                        f"{mode} diverged from serial at rank {rank}, {name}"
                    )

    def test_wall_time_recorded_for_every_backend(self):
        dataset, cnn, training = small_setup(epochs=1)
        for mode in ("serial", "threads", "processes"):
            result = ParallelTrainer(cnn, training, num_ranks=2).train(
                dataset, execution=mode
            )
            assert result.wall_time > 0.0
            # The region wall-clock includes launch/teardown, so it can
            # never undercut the slowest rank's in-rank training time
            # under concurrent execution; serial sums the ranks instead.
            if mode != "serial":
                assert result.wall_time >= result.max_train_time
