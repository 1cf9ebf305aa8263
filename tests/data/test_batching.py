"""Tests for the unified batch-index iteration."""

import numpy as np
import pytest

from repro.data import BatchIterator, iter_batch_indices
from repro.exceptions import DatasetError


class TestIterBatchIndices:
    def test_covers_all_samples_in_order(self):
        batches = list(iter_batch_indices(10, 4))
        assert [b.tolist() for b in batches] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_drop_last_discards_short_batch(self):
        batches = list(iter_batch_indices(10, 4, drop_last=True))
        assert [len(b) for b in batches] == [4, 4]

    def test_shuffle_is_a_permutation(self):
        rng = np.random.default_rng(0)
        batches = list(iter_batch_indices(10, 3, shuffle=True, rng=rng))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(10))

    def test_shuffle_stream_is_deterministic(self):
        a = np.concatenate(
            list(iter_batch_indices(10, 3, shuffle=True, rng=np.random.default_rng(5)))
        )
        b = np.concatenate(
            list(iter_batch_indices(10, 3, shuffle=True, rng=np.random.default_rng(5)))
        )
        np.testing.assert_array_equal(a, b)

    def test_shuffle_without_rng_rejected(self):
        with pytest.raises(DatasetError, match="rng"):
            list(iter_batch_indices(10, 3, shuffle=True))

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(DatasetError, match="batch_size"):
            list(iter_batch_indices(10, 0))


class TestBatchIterator:
    def test_num_batches(self):
        assert BatchIterator(10, 4).num_batches == 3
        assert BatchIterator(10, 4, drop_last=True).num_batches == 2
        assert BatchIterator(8, 4).num_batches == 2

    def test_iterates_like_the_function(self):
        plan = BatchIterator(7, 3)
        assert [b.tolist() for b in plan] == [
            b.tolist() for b in iter_batch_indices(7, 3)
        ]
        assert len(list(plan)) == plan.num_batches


class TestDatasetDelegation:
    """Both dataset flavours must draw the same shuffle stream."""

    def test_identical_shuffle_across_dataset_kinds(self):
        from repro.core import RankDataset
        from repro.data import SnapshotDataset

        snaps = np.arange(9 * 4 * 6 * 6, dtype=float).reshape(9, 4, 6, 6)
        rank_data = RankDataset(
            rank=0, inputs=snaps[:-1], targets=snaps[1:], halo=0, crop=0
        )
        snap_data = SnapshotDataset(snaps)
        # Both have 8 samples; same rng seed must give the same batches.
        a = [x for x, _ in rank_data.batches(3, True, np.random.default_rng(3))]
        b = [x for x, _ in snap_data.batches(3, True, np.random.default_rng(3))]
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)
