"""im2col / col2im kernel tests."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.tensor.im2col import col2im, conv_output_size, im2col


def reference_im2col(x, kernel, stride, padding):
    """Naive patch extraction for cross-checking."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    rows = []
    for ni in range(n):
        for yi in range(oh):
            for xi in range(ow):
                patch = xp[ni, :, yi * sh : yi * sh + kh, xi * sw : xi * sw + kw]
                rows.append(patch.reshape(-1))
    return np.stack(rows), (oh, ow)


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(10, 3, 1, 0) == 8
        assert conv_output_size(10, 3, 1, 1) == 10
        assert conv_output_size(10, 3, 2, 0) == 4

    def test_nonpositive_raises(self):
        with pytest.raises(ShapeError):
            conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    @pytest.mark.parametrize("stride", [(1, 1), (2, 1), (2, 3)])
    @pytest.mark.parametrize("padding", [(0, 0), (1, 1), (2, 0)])
    def test_matches_reference(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 7, 8))
        cols, dims = im2col(x, (3, 3), stride, padding)
        ref, ref_dims = reference_im2col(x, (3, 3), stride, padding)
        assert dims == ref_dims
        assert np.allclose(cols, ref)

    def test_rectangular_kernel(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        cols, dims = im2col(x, (1, 5))
        ref, ref_dims = reference_im2col(x, (1, 5), (1, 1), (0, 0))
        assert dims == ref_dims
        assert np.allclose(cols, ref)

    def test_wrong_rank_raises(self, rng):
        with pytest.raises(ShapeError):
            im2col(rng.standard_normal((3, 7, 8)), (3, 3))


class TestCol2Im:
    def test_adjoint_identity(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining property."""
        shape = (2, 3, 6, 7)
        x = rng.standard_normal(shape)
        cols, _ = im2col(x, (3, 3), (2, 1), (1, 0))
        y = rng.standard_normal(cols.shape)
        back = col2im(y, shape, (3, 3), (2, 1), (1, 0))
        assert np.isclose(np.sum(cols * y), np.sum(x * back))

    def test_counts_overlaps(self):
        """col2im of ones counts how many patches cover each pixel."""
        shape = (1, 1, 4, 4)
        cols, _ = im2col(np.ones(shape), (3, 3))
        counts = col2im(np.ones_like(cols), shape, (3, 3))
        # Centre pixels are covered by 4 3x3 patches on a 4x4 grid.
        assert counts[0, 0, 1, 1] == 4.0
        assert counts[0, 0, 0, 0] == 1.0

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            col2im(rng.standard_normal((5, 9)), (1, 1, 4, 4), (3, 3))

    def test_roundtrip_stride_equal_kernel(self, rng):
        """Non-overlapping patches: col2im(im2col(x)) == x."""
        x = rng.standard_normal((1, 2, 6, 6))
        cols, _ = im2col(x, (3, 3), (3, 3))
        assert np.allclose(col2im(cols, x.shape, (3, 3), (3, 3)), x)


class TestEdgeCases:
    """Configurations the conv tests never exercise: stride > 1 with
    padding, asymmetric kernels (kh != kw), and batched inputs."""

    def test_strided_and_padded(self, rng):
        x = rng.standard_normal((1, 2, 9, 9))
        cols, dims = im2col(x, (3, 3), (2, 2), (1, 1))
        ref, ref_dims = reference_im2col(x, (3, 3), (2, 2), (1, 1))
        assert dims == ref_dims == (5, 5)
        assert np.allclose(cols, ref)

    def test_strided_padded_adjoint(self, rng):
        """The adjoint identity must hold with stride AND padding active
        (the scatter loop's bounds interact with both)."""
        shape = (2, 2, 9, 8)
        x = rng.standard_normal(shape)
        cols, _ = im2col(x, (3, 3), (2, 2), (1, 1))
        y = rng.standard_normal(cols.shape)
        back = col2im(y, shape, (3, 3), (2, 2), (1, 1))
        assert np.isclose(np.sum(cols * y), np.sum(x * back))

    @pytest.mark.parametrize("kernel", [(1, 5), (5, 1), (2, 4)])
    def test_asymmetric_kernels(self, rng, kernel):
        x = rng.standard_normal((1, 3, 8, 8))
        stride, padding = (1, 1), (0, 0)
        cols, dims = im2col(x, kernel, stride, padding)
        ref, ref_dims = reference_im2col(x, kernel, stride, padding)
        assert dims == ref_dims
        assert np.allclose(cols, ref)

    def test_asymmetric_kernel_adjoint(self, rng):
        shape = (1, 2, 7, 9)
        x = rng.standard_normal(shape)
        cols, _ = im2col(x, (2, 4), (1, 2), (1, 0))
        y = rng.standard_normal(cols.shape)
        back = col2im(y, shape, (2, 4), (1, 2), (1, 0))
        assert np.isclose(np.sum(cols * y), np.sum(x * back))

    def test_batched_matches_reference(self, rng):
        x = rng.standard_normal((4, 3, 6, 6))
        cols, dims = im2col(x, (3, 3), (1, 1), (1, 1))
        ref, ref_dims = reference_im2col(x, (3, 3), (1, 1), (1, 1))
        assert dims == ref_dims
        assert np.allclose(cols, ref)

    def test_batched_rows_are_per_sample(self, rng):
        """Batch rows must be grouped per sample: the first N*OH*OW/N
        rows of a batch must equal the single-sample result."""
        x = rng.standard_normal((3, 2, 5, 5))
        cols, (oh, ow) = im2col(x, (3, 3))
        single, _ = im2col(x[1:2], (3, 3))
        rows = oh * ow
        assert np.array_equal(cols[rows : 2 * rows], single)

