"""Tests for the distribution machinery: block, cyclic, block-cyclic,
replicated, custom — the paper's local() functions and their inverses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    ArrayDistribution,
    Block,
    BlockCyclic,
    Custom,
    Cyclic,
    ProcessorArray,
    Replicated,
)
from repro.errors import DistributionError


def bound(spec, n, p):
    return spec.bind(n, p)


ALL_SPECS = [
    ("block", lambda: Block()),
    ("cyclic", lambda: Cyclic()),
    ("bc1", lambda: BlockCyclic(1)),
    ("bc3", lambda: BlockCyclic(3)),
    ("bc8", lambda: BlockCyclic(8)),
]


class TestProcessorArray:
    def test_1d(self):
        p = ProcessorArray(8)
        assert p.size == 8 and p.ndim == 1
        assert p.rank_of((3,)) == 3
        assert p.coords_of(5) == (5,)

    def test_2d_row_major(self):
        p = ProcessorArray((2, 4))
        assert p.size == 8
        assert p.rank_of((1, 2)) == 6
        assert p.coords_of(6) == (1, 2)

    def test_roundtrip(self):
        p = ProcessorArray((3, 5))
        for r in range(p.size):
            assert p.rank_of(p.coords_of(r)) == r

    def test_bad_coord(self):
        with pytest.raises(DistributionError):
            ProcessorArray((2, 2)).rank_of((2, 0))

    def test_bad_shape(self):
        with pytest.raises(DistributionError):
            ProcessorArray((0, 4))

    def test_request_picks_largest(self):
        p = ProcessorArray.request(available=100, max_procs=64)
        assert p.size == 64

    def test_request_limited_by_available(self):
        p = ProcessorArray.request(available=12)
        assert p.size == 12

    def test_request_respects_minimum(self):
        with pytest.raises(DistributionError):
            ProcessorArray.request(available=3, min_procs=8)

    def test_request_2d_near_square(self):
        p = ProcessorArray.request(available=36, ndim=2)
        assert p.shape == (6, 6)

    def test_eq_hash(self):
        assert ProcessorArray(4) == ProcessorArray((4,))
        assert ProcessorArray((2, 2)) != ProcessorArray(4)


class TestBlock:
    def test_paper_example(self):
        """local_A(p) = contiguous blocks of ceil(N/P)."""
        d = bound(Block(), 10, 3)  # blocks of 4: [0-3], [4-7], [8-9]
        assert d.local_indices(0).tolist() == [0, 1, 2, 3]
        assert d.local_indices(1).tolist() == [4, 5, 6, 7]
        assert d.local_indices(2).tolist() == [8, 9]

    def test_owner(self):
        d = bound(Block(), 10, 3)
        assert [d.owner(i) for i in range(10)] == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]

    def test_owner_vectorised(self):
        d = bound(Block(), 100, 4)
        idx = np.arange(100)
        np.testing.assert_array_equal(d.owner(idx), idx // 25)

    def test_local_global_roundtrip(self):
        d = bound(Block(), 17, 4)
        for i in range(17):
            p = d.owner(i)
            assert d.to_global(p, d.to_local(i)) == i

    def test_more_procs_than_elements(self):
        d = bound(Block(), 3, 8)
        assert d.local_count(0) == 1
        assert d.local_count(3) == 0
        assert d.local_count(7) == 0

    def test_out_of_range(self):
        d = bound(Block(), 10, 2)
        with pytest.raises(DistributionError):
            d.owner(10)
        with pytest.raises(DistributionError):
            d.owner(-1)

    def test_local_section_matches_indices(self):
        d = bound(Block(), 23, 5)
        for p in range(5):
            (sec,) = d.analysis_sections(p)
            np.testing.assert_array_equal(sec.to_array(), d.local_indices(p))


class TestCyclic:
    def test_paper_example(self):
        """local_B(p) = {i : i ≡ p (mod P)} — the paper's 10-processor
        example, 0-based."""
        d = bound(Cyclic(), 100, 10)
        assert d.local_indices(0).tolist() == list(range(0, 100, 10))
        assert d.local_indices(9).tolist() == list(range(9, 100, 10))

    def test_owner_mod(self):
        d = bound(Cyclic(), 50, 7)
        idx = np.arange(50)
        np.testing.assert_array_equal(d.owner(idx), idx % 7)

    def test_packed_local_storage(self):
        d = bound(Cyclic(), 20, 4)
        assert d.to_local(0) == 0
        assert d.to_local(4) == 1
        assert d.to_local(17) == 4

    def test_roundtrip(self):
        d = bound(Cyclic(), 23, 4)
        for i in range(23):
            assert d.to_global(d.owner(i), d.to_local(i)) == i

    def test_uneven_counts(self):
        d = bound(Cyclic(), 10, 4)
        assert [d.local_count(p) for p in range(4)] == [3, 3, 2, 2]


class TestBlockCyclic:
    def test_degenerates_to_cyclic(self):
        bc = bound(BlockCyclic(1), 30, 4)
        cy = bound(Cyclic(), 30, 4)
        for p in range(4):
            np.testing.assert_array_equal(bc.local_indices(p), cy.local_indices(p))

    def test_blocks_dealt_round_robin(self):
        d = bound(BlockCyclic(2), 12, 3)
        assert d.local_indices(0).tolist() == [0, 1, 6, 7]
        assert d.local_indices(1).tolist() == [2, 3, 8, 9]
        assert d.local_indices(2).tolist() == [4, 5, 10, 11]

    def test_short_last_block(self):
        d = bound(BlockCyclic(4), 10, 2)
        # blocks: [0-3]->p0, [4-7]->p1, [8-9]->p0
        assert d.local_indices(0).tolist() == [0, 1, 2, 3, 8, 9]
        assert d.local_indices(1).tolist() == [4, 5, 6, 7]
        assert d.local_count(0) == 6
        assert d.local_count(1) == 4

    def test_roundtrip(self):
        d = bound(BlockCyclic(3), 25, 4)
        for i in range(25):
            assert d.to_global(d.owner(i), d.to_local(i)) == i

    def test_bad_block_size(self):
        with pytest.raises(DistributionError):
            BlockCyclic(0)

    def test_section_form_detection(self):
        # one section per owned block: 34 blocks of 3 dealt over 4 procs
        d = bound(BlockCyclic(3), 100, 4)
        assert [len(d.analysis_sections(p)) for p in range(4)] == [9, 9, 8, 8]
        assert d.supports_closed_form()
        # one block per proc -> single sections again
        d = bound(BlockCyclic(32), 100, 4)
        assert [len(d.analysis_sections(p)) for p in range(4)] == [1, 1, 1, 1]
        # 25 blocks per proc is past the bound: the inspector is cheaper
        assert not bound(BlockCyclic(1), 100, 4).supports_closed_form()


class TestReplicated:
    def test_everyone_stores_everything(self):
        d = bound(Replicated(), 10, 1)
        assert d.local_count(0) == 10
        assert d.local_indices(0).tolist() == list(range(10))

    def test_identity_translation(self):
        d = bound(Replicated(), 10, 1)
        assert d.to_local(7) == 7
        assert d.to_global(0, 7) == 7

    def test_disjoint_check_waived(self):
        bound(Replicated(), 10, 1).check_disjoint_cover()  # no raise


class TestCustom:
    def test_explicit_map(self):
        d = bound(Custom([0, 1, 1, 0, 2]), 5, 3)
        assert d.owner(0) == 0 and d.owner(2) == 1 and d.owner(4) == 2
        assert d.local_indices(0).tolist() == [0, 3]
        assert d.local_indices(1).tolist() == [1, 2]
        assert d.local_indices(2).tolist() == [4]

    def test_packed_offsets(self):
        d = bound(Custom([0, 1, 1, 0, 2]), 5, 3)
        assert d.to_local(0) == 0
        assert d.to_local(3) == 1
        assert d.to_local(2) == 1

    def test_roundtrip(self):
        owner_map = [2, 0, 1, 1, 0, 2, 2, 0]
        d = bound(Custom(owner_map), 8, 3)
        for i in range(8):
            assert d.to_global(d.owner(i), d.to_local(i)) == i

    def test_vectorised_to_local(self):
        d = bound(Custom([0, 1, 1, 0, 2]), 5, 3)
        np.testing.assert_array_equal(
            d.to_local(np.array([0, 1, 2, 3, 4])), [0, 0, 1, 1, 0]
        )

    def test_map_size_mismatch(self):
        with pytest.raises(DistributionError):
            bound(Custom([0, 1]), 5, 2)

    def test_map_bad_proc(self):
        with pytest.raises(DistributionError):
            bound(Custom([0, 5]), 2, 2)

    def test_not_regular(self):
        d = bound(Custom([0, 0]), 2, 1)
        assert d.analysis_sections(0) is None
        assert not d.supports_closed_form()


class TestBindingErrors:
    def test_unbound_usage_raises(self):
        with pytest.raises(DistributionError):
            Block().owner(0)

    def test_negative_extent(self):
        with pytest.raises(DistributionError):
            Block().bind(-1, 2)

    def test_zero_procs(self):
        with pytest.raises(DistributionError):
            Block().bind(10, 0)

    def test_bind_returns_fresh_object(self):
        spec = Block()
        b1 = spec.bind(10, 2)
        b2 = spec.bind(20, 4)
        assert not spec.bound
        assert b1.extent == 10 and b2.extent == 20


class TestSameLayout:
    def test_same(self):
        assert bound(Block(), 10, 2).same_layout(bound(Block(), 10, 2))
        assert bound(BlockCyclic(3), 10, 2).same_layout(bound(BlockCyclic(3), 10, 2))

    def test_different_kind(self):
        assert not bound(Block(), 10, 2).same_layout(bound(Cyclic(), 10, 2))

    def test_different_params(self):
        assert not bound(BlockCyclic(3), 10, 2).same_layout(bound(BlockCyclic(4), 10, 2))
        assert not bound(Block(), 10, 2).same_layout(bound(Block(), 12, 2))

    def test_custom_maps(self):
        assert bound(Custom([0, 1]), 2, 2).same_layout(bound(Custom([0, 1]), 2, 2))
        assert not bound(Custom([0, 1]), 2, 2).same_layout(bound(Custom([1, 0]), 2, 2))


# --- the paper's §2.2 convention, property-tested over all distributions ------

@pytest.mark.parametrize("name,mk", ALL_SPECS)
@given(n=st.integers(0, 120), p=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_disjoint_cover(name, mk, n, p):
    """local(p) sets partition the index space: disjoint and covering."""
    mk().bind(n, p).check_disjoint_cover()


@pytest.mark.parametrize("name,mk", ALL_SPECS)
@given(n=st.integers(1, 120), p=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_owner_consistent_with_local_indices(name, mk, n, p):
    d = mk().bind(n, p)
    for proc in range(p):
        idx = d.local_indices(proc)
        if idx.size:
            np.testing.assert_array_equal(d.owner(idx), proc)


@pytest.mark.parametrize("name,mk", ALL_SPECS)
@given(n=st.integers(1, 120), p=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_translation_roundtrip(name, mk, n, p):
    d = mk().bind(n, p)
    idx = np.arange(n)
    owners = np.asarray(d.owner(idx))
    locals_ = np.asarray(d.to_local(idx))
    for proc in range(p):
        mask = owners == proc
        if mask.any():
            back = d.to_global(proc, locals_[mask])
            np.testing.assert_array_equal(back, idx[mask])


@pytest.mark.parametrize("name,mk", ALL_SPECS)
@given(n=st.integers(1, 120), p=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_local_offsets_are_packed(name, mk, n, p):
    """to_local must produce 0..count-1 exactly, per processor."""
    d = mk().bind(n, p)
    for proc in range(p):
        idx = d.local_indices(proc)
        offs = sorted(int(d.to_local(i)) for i in idx)
        assert offs == list(range(len(idx)))


@pytest.mark.parametrize("name,mk", ALL_SPECS)
@given(n=st.integers(1, 120), p=st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_local_set_matches_indices(name, mk, n, p):
    d = mk().bind(n, p)
    for proc in range(p):
        members = [i for sec in d.analysis_sections(proc) for i in sec]
        assert sorted(members) == d.local_indices(proc).tolist()


@given(n=st.integers(1, 120), p=st.integers(1, 10), b=st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_block_cyclic_section_consistency(n, p, b):
    """analysis_sections lists one contiguous section per owned block, in
    storage order, and supports_closed_form() holds exactly while no
    processor owns more than MAX_ANALYSIS_SECTIONS blocks."""
    d = BlockCyclic(b).bind(n, p)
    per_proc = [d.analysis_sections(proc) for proc in range(p)]
    for proc, secs in enumerate(per_proc):
        assert all(sec.step == 1 and len(sec) <= b for sec in secs)
        joined = [i for sec in secs for i in sec]
        assert joined == d.local_indices(proc).tolist()
    most = max(len(secs) for secs in per_proc)
    assert d.supports_closed_form() == (most <= BlockCyclic.MAX_ANALYSIS_SECTIONS)
