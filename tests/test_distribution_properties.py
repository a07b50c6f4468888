"""Hypothesis property tests for every distribution in ``repro.distributions``.

Each ``DimDistribution`` realises the paper's ``local(p)`` function and
must satisfy three contracts, exercised here over Hypothesis-drawn
``(extent, nprocs, parameters)``:

* **bijection** — ``to_local``/``to_global`` round-trip through
  ``owner``: for every global index ``i``,
  ``to_global(owner(i), to_local(i)) == i``, and for every processor
  ``p`` and local offset ``k < local_count(p)``,
  ``to_local(to_global(p, k)) == k`` with ``owner(to_global(p, k)) == p``.
* **coverage** — ``local_indices(p)`` partitions ``[0, extent)``
  (disjoint + complete; replicated dims instead store everything
  everywhere), and ``analysis_sections(p)``, when offered, enumerates
  exactly the owned indices — always so when ``supports_closed_form()``.
* **consistency** — ``local_count`` and vectorised ``owner`` agree with
  ``local_indices``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    Block,
    BlockCyclic,
    Custom,
    Cyclic,
    Replicated,
)
from repro.errors import DistributionError

extents = st.integers(1, 120)
procs = st.integers(1, 9)


@st.composite
def bound_dists(draw):
    """A bound distribution of every kind, with drawn parameters."""
    n = draw(extents)
    p = draw(procs)
    kind = draw(st.sampled_from(["block", "cyclic", "bc", "custom", "repl"]))
    if kind == "block":
        d = Block()
    elif kind == "cyclic":
        d = Cyclic()
    elif kind == "bc":
        d = BlockCyclic(draw(st.integers(1, 13)))
    elif kind == "custom":
        seed = draw(st.integers(0, 999))
        owners = np.random.default_rng(seed).integers(0, p, size=n)
        d = Custom(owners)
    else:
        d = Replicated()
    return d.bind(n, p)


@settings(max_examples=150, deadline=None)
@given(dist=bound_dists())
def test_global_local_round_trip_bijection(dist):
    """to_global(owner(i), to_local(i)) == i for every global index, and
    the inverse trip from every (proc, offset) pair; ``locate`` gives
    both halves at once and bounds-checks like them."""
    n, p = dist.extent, dist.nprocs
    idx = np.arange(n, dtype=np.int64)
    owners = np.asarray(dist.owner(idx))
    offsets = np.asarray(dist.to_local(idx))
    located = dist.locate(idx[::-1].reshape(1, -1))
    assert np.array_equal(located[0], owners[::-1].reshape(1, -1))
    assert np.array_equal(located[1], offsets[::-1].reshape(1, -1))
    for bad in (-1, n):
        with pytest.raises(DistributionError):
            dist.locate(np.array([0, bad]))
    assert ((owners >= 0) & (owners < p)).all()
    assert (offsets >= 0).all()
    for i in range(n):
        # scalar and vectorised paths must agree
        assert int(dist.owner(i)) == owners[i]
        assert int(dist.to_local(i)) == offsets[i]
        assert int(dist.to_global(int(owners[i]), int(offsets[i]))) == i
    for q in range(p):
        count = dist.local_count(q)
        offs = np.arange(count, dtype=np.int64)
        back = np.asarray(dist.to_global(q, offs))
        if isinstance(dist, Replicated):
            # replicated dims answer storage queries for every proc but
            # route ownership to the canonical proc 0
            assert (np.asarray(dist.owner(back)) == 0).all()
        else:
            assert (np.asarray(dist.owner(back)) == q).all()
            np.testing.assert_array_equal(
                np.asarray(dist.to_local(back)), offs
            )


@settings(max_examples=150, deadline=None)
@given(dist=bound_dists())
def test_local_indices_partition_the_dimension(dist):
    """The local(p) sets are pairwise disjoint and cover [0, extent) —
    except replicated, where every proc stores the full extent."""
    n, p = dist.extent, dist.nprocs
    if isinstance(dist, Replicated):
        for q in range(p):
            np.testing.assert_array_equal(
                dist.local_indices(q), np.arange(n, dtype=np.int64)
            )
        return
    dist.check_disjoint_cover()
    seen = np.concatenate([dist.local_indices(q) for q in range(p)])
    np.testing.assert_array_equal(np.sort(seen), np.arange(n, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(dist=bound_dists())
def test_local_views_are_consistent(dist):
    """local_count and owner() agree with local_indices."""
    n, p = dist.extent, dist.nprocs
    idx = np.arange(n, dtype=np.int64)
    owners = np.asarray(dist.owner(idx))
    for q in range(p):
        mine = dist.local_indices(q)
        assert mine.size == dist.local_count(q)
        np.testing.assert_array_equal(mine, np.sort(mine))
        if not isinstance(dist, Replicated):
            np.testing.assert_array_equal(mine, idx[owners == q])


@settings(max_examples=150, deadline=None)
@given(dist=bound_dists())
def test_analysis_sections_enumerate_exactly_owned_indices(dist):
    """When a distribution offers strided sections to the closed-form
    analysis, they must enumerate exactly local(p) — no more, no less;
    a distribution without them must not claim a closed form."""
    p = dist.nprocs
    for q in range(p):
        secs = dist.analysis_sections(q)
        if secs is None:
            # No closed form on offer: the planner must not try.
            assert not dist.supports_closed_form()
            continue
        enumerated = np.sort(np.concatenate(
            [s.to_array() for s in secs]
        )) if secs else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(enumerated, dist.local_indices(q))
        # sections are internally disjoint
        assert enumerated.size == np.unique(enumerated).size


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 100),
    p=st.integers(1, 8),
    b=st.integers(1, 12),
)
def test_block_cyclic_degenerate_forms(n, p, b):
    """block_cyclic(1) == cyclic and block_cyclic(ceil(n/p)) == block,
    element for element."""
    bc1 = BlockCyclic(1).bind(n, p)
    cyc = Cyclic().bind(n, p)
    idx = np.arange(n, dtype=np.int64)
    np.testing.assert_array_equal(bc1.owner(idx), cyc.owner(idx))
    np.testing.assert_array_equal(bc1.to_local(idx), cyc.to_local(idx))

    big = BlockCyclic(-(-n // p)).bind(n, p)
    blk = Block().bind(n, p)
    np.testing.assert_array_equal(big.owner(idx), blk.owner(idx))
    np.testing.assert_array_equal(big.to_local(idx), blk.to_local(idx))
