"""Tests for ArrayDistribution, DistributedArray scatter/gather, LocalArray."""

import numpy as np
import pytest

from repro.arrays import DistributedArray, LocalArray
from repro.distributions import (
    ArrayDistribution,
    Block,
    Custom,
    Cyclic,
    ProcessorArray,
    Replicated,
)
from repro.errors import DistributionError


class TestArrayDistribution:
    def test_1d_block(self):
        procs = ProcessorArray(4)
        d = ArrayDistribution(16, [Block()], procs)
        assert d.owner(5) == 1
        assert d.local_shape(0) == (4,)

    def test_2d_block_star_paper_fig4(self):
        """adj : array[1..n, 1..4] dist by [block, *] on Procs."""
        procs = ProcessorArray(4)
        d = ArrayDistribution((16, 4), [Block(), Replicated()], procs)
        assert d.owner((5, 2)) == 1
        assert d.owner((15, 0)) == 3
        assert d.local_shape(0) == (4, 4)

    def test_2d_cyclic_star_paper_fig1(self):
        """B : array[1..N,1..M] dist by [cyclic, *] — paper Figure 1."""
        procs = ProcessorArray(10)
        d = ArrayDistribution((100, 7), [Cyclic(), Replicated()], procs)
        # processor 0 stores rows 0, 10, 20, ... (paper: 1, 11, 21 1-based)
        assert d.owner((0, 3)) == 0
        assert d.owner((10, 6)) == 0
        assert d.owner((11, 0)) == 1

    def test_dist_count_mismatch(self):
        with pytest.raises(DistributionError):
            ArrayDistribution((4, 4), [Block()], ProcessorArray(2))

    def test_distributed_dims_must_match_grid(self):
        """Paper §2.2: number of distributed dims == processor array rank."""
        with pytest.raises(DistributionError):
            ArrayDistribution((4, 4), [Block(), Block()], ProcessorArray(4))
        # but on a 2-d grid it works
        ArrayDistribution((4, 4), [Block(), Block()], ProcessorArray((2, 2)))

    def test_2d_grid_ownership(self):
        procs = ProcessorArray((2, 2))
        d = ArrayDistribution((4, 4), [Block(), Block()], procs)
        assert d.owner((0, 0)) == 0
        assert d.owner((0, 3)) == 1
        assert d.owner((3, 0)) == 2
        assert d.owner((3, 3)) == 3

    def test_fully_replicated(self):
        d = ArrayDistribution(8, [Replicated()], ProcessorArray(4))
        assert d.fully_replicated
        assert d.owner(3) == 0  # canonical owner
        assert d.local_shape(2) == (8,)

    def test_global_indices_of(self):
        procs = ProcessorArray(2)
        d = ArrayDistribution(10, [Cyclic()], procs)
        np.testing.assert_array_equal(d.global_indices_of(0), [0, 2, 4, 6, 8])

    def test_describe(self):
        d = ArrayDistribution((4, 4), [Block(), Replicated()], ProcessorArray(2))
        assert "block" in d.describe() and "*" in d.describe()


class TestDistributedArray:
    def test_scatter_gather_roundtrip_1d(self):
        procs = ProcessorArray(4)
        arr = DistributedArray("x", 19, [Block()], procs)
        data = np.arange(19.0)
        arr.set(data)
        pieces = arr.scatter_all()
        arr.set(np.zeros(19))
        arr.gather_from(pieces)
        np.testing.assert_array_equal(arr.data, data)

    def test_scatter_gather_roundtrip_2d(self):
        procs = ProcessorArray(3)
        arr = DistributedArray("m", (10, 4), [Cyclic(), Replicated()], procs)
        data = np.arange(40.0).reshape(10, 4)
        arr.set(data)
        pieces = arr.scatter_all()
        arr.set(np.zeros((10, 4)))
        arr.gather_from(pieces)
        np.testing.assert_array_equal(arr.data, data)

    def test_scatter_contents_match_distribution(self):
        procs = ProcessorArray(4)
        arr = DistributedArray("x", 16, [Cyclic()], procs)
        arr.set(np.arange(16.0))
        la = arr.scatter(1)
        np.testing.assert_array_equal(la.data, [1, 5, 9, 13])

    def test_scatter_is_a_copy(self):
        procs = ProcessorArray(2)
        arr = DistributedArray("x", 4, [Block()], procs)
        la = arr.scatter(0)
        la.data[:] = 99
        assert arr.data[0] == 0.0

    def test_version_bumps(self):
        arr = DistributedArray("x", 4, [Block()], ProcessorArray(2))
        v0 = arr.version
        arr.set(np.ones(4))
        assert arr.version == v0 + 1
        arr[0] = 5.0
        assert arr.version == v0 + 2

    def test_data_view_readonly(self):
        arr = DistributedArray("x", 4, [Block()], ProcessorArray(2))
        with pytest.raises(ValueError):
            arr.data[0] = 1.0

    def test_shape_mismatch_rejected(self):
        arr = DistributedArray("x", 4, [Block()], ProcessorArray(2))
        with pytest.raises(DistributionError):
            arr.set(np.zeros(5))

    def test_replicated_gather_takes_rank0(self):
        procs = ProcessorArray(2)
        arr = DistributedArray("r", 4, [Replicated()], procs)
        pieces = arr.scatter_all()
        pieces[0].data[:] = 7.0
        pieces[1].data[:] = 7.0
        arr.gather_from(pieces)
        np.testing.assert_array_equal(arr.data, np.full(4, 7.0))

    def test_dtype_respected(self):
        arr = DistributedArray("i", 4, [Block()], ProcessorArray(2), dtype=np.int64)
        assert arr.scatter(0).data.dtype == np.int64

    def test_custom_distribution_scatter(self):
        owner_map = [1, 0, 1, 0, 1]
        arr = DistributedArray("c", 5, [Custom(owner_map)], ProcessorArray(2))
        arr.set(np.arange(5.0))
        np.testing.assert_array_equal(arr.scatter(0).data, [1, 3])
        np.testing.assert_array_equal(arr.scatter(1).data, [0, 2, 4])


class TestLocalArray:
    def _make(self, n=12, p=3, spec=None):
        procs = ProcessorArray(p)
        arr = DistributedArray("x", n, [spec or Block()], procs)
        arr.set(np.arange(float(n)))
        return arr

    def test_global_rows(self):
        la = self._make().scatter(1)
        np.testing.assert_array_equal(la.global_rows, [4, 5, 6, 7])

    def test_owns(self):
        la = self._make().scatter(1)
        np.testing.assert_array_equal(
            la.owns(np.array([0, 4, 7, 8])), [False, True, True, False]
        )

    def test_get_set_rows(self):
        la = self._make().scatter(1)
        np.testing.assert_array_equal(la.get_rows(np.array([4, 6])), [4.0, 6.0])
        la.set_rows(np.array([5]), np.array([99.0]))
        assert la.get_rows(np.array([5]))[0] == 99.0

    def test_cyclic_rows(self):
        la = self._make(spec=Cyclic()).scatter(2)
        np.testing.assert_array_equal(la.global_rows, [2, 5, 8, 11])
        np.testing.assert_array_equal(la.get_rows(np.array([8])), [8.0])

    def test_nbytes_rows(self):
        procs = ProcessorArray(2)
        arr = DistributedArray("m", (8, 4), [Block(), Replicated()], procs)
        la = arr.scatter(0)
        assert la.nbytes_rows(2) == 2 * 4 * 8

    def test_copy_independent(self):
        la = self._make().scatter(0)
        cp = la.copy()
        cp.data[:] = -1
        assert la.data[0] == 0.0
