"""Unit and property tests for strided-section algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.sections import Section, unique_ints


class TestConstruction:
    def test_basic(self):
        s = Section(0, 10, 2)
        assert list(s) == [0, 2, 4, 6, 8, 10]
        assert len(s) == 6

    def test_hi_canonicalised_to_member(self):
        s = Section(0, 9, 2)
        assert s.hi == 8
        assert list(s) == [0, 2, 4, 6, 8]

    def test_empty(self):
        assert not Section(5, 3)
        assert len(Section.empty()) == 0

    def test_singleton_step_canonical(self):
        s = Section(4, 4, 7)
        assert s.step == 1
        assert list(s) == [4]

    def test_point(self):
        assert list(Section.point(-3)) == [-3]

    def test_bad_step(self):
        with pytest.raises(ValueError):
            Section(0, 10, 0)

    def test_contains(self):
        s = Section(1, 13, 3)
        assert 1 in s and 7 in s and 13 in s
        assert 2 not in s and 0 not in s and 16 not in s


class TestIntersect:
    def test_same_step(self):
        a = Section(0, 20, 2)
        b = Section(4, 16, 2)
        assert a.intersect(b) == Section(4, 16, 2)

    def test_offset_same_step_disjoint(self):
        a = Section(0, 20, 2)  # evens
        b = Section(1, 19, 2)  # odds
        assert not a.intersect(b)

    def test_coprime_steps(self):
        a = Section(0, 30, 2)
        b = Section(0, 30, 3)
        assert list(a.intersect(b)) == [0, 6, 12, 18, 24, 30]

    def test_crt_with_offsets(self):
        # x ≡ 1 (mod 4) and x ≡ 2 (mod 3) -> x ≡ 5 (mod 12)
        a = Section(1, 100, 4)
        b = Section(2, 100, 3)
        got = a.intersect(b)
        assert got.step == 12
        assert got.lo == 5
        assert list(got) == list(range(5, 101, 12))

    def test_incompatible_congruence(self):
        # x ≡ 0 (mod 2) and x ≡ 1 (mod 4): impossible
        assert not Section(0, 100, 2).intersect(Section(1, 100, 4)).step == 0 or \
            not Section(0, 100, 4).intersect(Section(1, 100, 4))

    def test_range_clipping(self):
        a = Section(0, 1000, 5)
        b = Section(10, 30, 1)
        assert list(a.intersect(b)) == [10, 15, 20, 25, 30]

    def test_with_empty(self):
        assert not Section(0, 10).intersect(Section.empty())

    def test_commutative(self):
        a = Section(3, 50, 7)
        b = Section(0, 60, 4)
        assert a.intersect(b) == b.intersect(a)


class TestTransforms:
    def test_clip(self):
        assert list(Section(0, 100, 10).clip(15, 55)) == [20, 30, 40, 50]

    def test_shift(self):
        assert Section(0, 10, 5).shift(3) == Section(3, 13, 5)

    def test_preimage_identity(self):
        s = Section(0, 20, 4)
        assert s.affine_preimage(1, 0) == s

    def test_preimage_shift(self):
        # i+2 in {0,4,..,20} <=> i in {-2, 2, ..., 18}
        s = Section(0, 20, 4).affine_preimage(1, 2)
        assert list(s) == [-2, 2, 6, 10, 14, 18]

    def test_preimage_scale(self):
        # 2i in {0..20 step 4} <=> i in {0..10 step 2}
        s = Section(0, 20, 4).affine_preimage(2, 0)
        assert list(s) == [0, 2, 4, 6, 8, 10]

    def test_preimage_scale_no_solution(self):
        # 2i in odds: impossible
        assert not Section(1, 21, 2).affine_preimage(2, 0)

    def test_preimage_negative_a(self):
        # -i + 10 in {0, 5, 10} (step 5, lo 0, hi 10) <=> i in {0, 5, 10}
        s = Section(0, 10, 5).affine_preimage(-1, 10)
        assert sorted(s) == [0, 5, 10]

    def test_preimage_zero_raises(self):
        with pytest.raises(ValueError):
            Section(0, 5).affine_preimage(0, 1)


class TestConversions:
    def test_to_array(self):
        np.testing.assert_array_equal(Section(1, 9, 4).to_array(), [1, 5, 9])


# --- property-based ----------------------------------------------------------

sections = st.builds(
    Section,
    st.integers(-100, 100),
    st.integers(-100, 200),
    st.integers(1, 12),
)


@given(sections, sections)
def test_intersect_matches_enumeration(a, b):
    got = set(a.intersect(b))
    expected = set(a) & set(b)
    assert got == expected


@given(sections, st.integers(-6, 6).filter(lambda x: x != 0), st.integers(-40, 40))
def test_preimage_matches_enumeration(s, a, b):
    pre = s.affine_preimage(a, b)
    window = range(-400, 400)
    expected = {i for i in window if a * i + b in s}
    got = {i for i in pre if -400 <= i < 400}
    assert got == expected


@given(sections, st.integers(-50, 50))
def test_shift_is_bijection(s, k):
    assert len(s.shift(k)) == len(s)
    assert set(s.shift(k)) == {x + k for x in s}


int_lists = st.lists(st.integers(-(1 << 62), 1 << 62), max_size=60) | st.lists(
    st.integers(-5, 5), max_size=60)


@given(int_lists, st.booleans())
def test_unique_ints_is_np_unique(values, presort):
    """Empty, singleton, duplicate, negative and already-sorted inputs."""
    arr = np.array(sorted(values) if presort else values, dtype=np.int64)
    got = unique_ints(arr)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.unique(arr))


@pytest.mark.parametrize("values", [[], [7], [3, 3, 3], [-2, 5, -2, 0],
                                    [0, 1, 2, 3]])
def test_unique_ints_edges(values):
    got = unique_ints(np.array(values, dtype=np.int64))
    assert got.tolist() == sorted(set(values))
    assert got.dtype == np.int64
