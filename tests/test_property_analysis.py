"""Property-based tests of the analysis machinery as a whole.

Hypothesis generates random forall shapes (range, affine subscripts,
distributions, processor counts) and asserts the system-level invariants:

* closed-form and inspector-built schedules are structurally identical,
* executing under any strategy gives the sequential-oracle result,
* exec(p) sets partition the iteration range,
* in/out duality holds for random indirections.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.closedform import build_closed_form_schedule
from repro.analysis.planner import Strategy
from repro.core.context import KaliContext
from repro.core.forall import (
    Affine,
    AffineRead,
    AffineWrite,
    Forall,
    IndirectRead,
    OnOwner,
)
from repro.distributions import Block, BlockCyclic, Custom, Cyclic
from repro.machine.cost import IDEAL
from repro.runtime.inspector import compute_exec, run_inspector

# Generator for (n, p, dist-spec factory) triples.
dist_strategies = st.sampled_from([
    ("block", lambda n, p, rng: Block()),
    ("cyclic", lambda n, p, rng: Cyclic()),
    ("bc2", lambda n, p, rng: BlockCyclic(2)),
    ("custom", lambda n, p, rng: Custom(rng.integers(0, p, size=n))),
])

affine_maps = st.tuples(st.sampled_from([1, -1, 2, 3, 0]), st.integers(-3, 3))


def _legal_range(n, fn_list):
    """Largest iteration range keeping every a*i+b inside [0, n).

    A constant map (a = 0) is legal iff 0 <= b < n and bounds nothing;
    when no map bounds the range it is [0, n)."""
    import math

    lo, hi = -10**9, 10**9
    for a, b in fn_list:
        if a == 0:
            if not 0 <= b < n:
                return 1, 0
            continue
        bound1 = (0 - b) / a
        bound2 = (n - 1 - b) / a
        lo = max(lo, math.ceil(min(bound1, bound2)))
        hi = min(hi, math.floor(max(bound1, bound2)))
    if (lo, hi) == (-10**9, 10**9):
        return 0, n - 1
    return lo, hi


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 50),
    p=st.sampled_from([1, 2, 4, 8]),
    gmap=affine_maps,
    fmap=st.sampled_from([(1, 0), (1, 1), (1, -1)]),
    dist=dist_strategies,
    seed=st.integers(0, 99),
)
def test_random_affine_forall_matches_oracle(n, p, gmap, fmap, dist, seed):
    """B[f(i)] := A[g(i)] over random maps and distributions == oracle."""
    rng = np.random.default_rng(seed)
    _name, mk = dist
    lo, hi = _legal_range(n, [gmap, fmap])
    if lo > hi:
        return  # degenerate configuration

    init = rng.random(n)
    ctx = KaliContext(p, machine=IDEAL)
    ctx.array("A", n, dist=[mk(n, p, rng)]).set(init)
    ctx.array("B", n, dist=[mk(n, p, rng)]).set(np.zeros(n))
    loop = Forall(
        index_range=(lo, hi),
        on=OnOwner("B", Affine(*fmap)),
        reads=[AffineRead("A", Affine(*gmap), name="g")],
        writes=[AffineWrite("B", Affine(*fmap))],
        kernel=lambda iters, ops: ops["g"],
        label=f"prop-{_name}-{n}-{p}-{gmap}-{fmap}-{seed}",
    )

    def program(kr):
        yield from kr.forall(loop)

    ctx.run(program)
    expected = np.zeros(n)
    its = np.arange(lo, hi + 1)
    expected[fmap[0] * its + fmap[1]] = init[gmap[0] * its + gmap[1]]
    np.testing.assert_array_equal(ctx.arrays["B"].data, expected)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 60),
    p=st.sampled_from([2, 4, 8]),
    gmap=affine_maps,
    ondist=st.sampled_from(["block", "cyclic", "bc2", "bc5"]),
    readdist=st.sampled_from(["block", "cyclic", "bc2", "bc5"]),
)
def test_closed_form_equals_inspector(n, p, gmap, ondist, readdist):
    """Structural identity of the two analysis paths over random shapes,
    including multi-section block-cyclic local sets."""
    mk = {"block": Block, "cyclic": Cyclic,
          "bc2": lambda: BlockCyclic(2), "bc5": lambda: BlockCyclic(5)}
    lo, hi = _legal_range(n, [gmap])
    if lo > hi:
        return
    ctx = KaliContext(p, machine=IDEAL)
    ctx.array("A", n, dist=[mk[readdist]()]).set(np.arange(float(n)))
    ctx.array("B", n, dist=[mk[ondist]()]).set(np.zeros(n))
    loop = Forall(
        index_range=(lo, hi),
        on=OnOwner("B"),
        reads=[AffineRead("A", Affine(*gmap), name="g")],
        writes=[AffineWrite("B")],
        kernel=lambda iters, ops: ops["g"],
        label=f"ceq-{n}-{p}-{gmap}-{ondist}-{readdist}",
    )
    pairs = {}

    def program(kr):
        ct = build_closed_form_schedule(kr.rank, loop, kr.env)
        rt = yield from run_inspector(kr.rank, loop, kr.env)
        pairs[kr.id] = (ct, rt)

    ctx.run(program)
    for me, (ct, rt) in pairs.items():
        np.testing.assert_array_equal(ct.exec_local, rt.exec_local)
        np.testing.assert_array_equal(ct.exec_nonlocal, rt.exec_nonlocal)
        for name in rt.arrays:
            assert ct.arrays[name].in_records == rt.arrays[name].in_records, (
                f"rank {me} in-records differ"
            )
            assert ct.arrays[name].out_records == rt.arrays[name].out_records


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 80),
    p=st.sampled_from([1, 2, 3, 4, 8]),
    fmap=st.sampled_from([(1, 0), (1, 2), (-1, 0), (2, 0)]),
    dist=dist_strategies,
    lo_off=st.integers(0, 3),
    hi_off=st.integers(0, 3),
    seed=st.integers(0, 9),
)
def test_exec_sets_partition_the_range(n, p, fmap, dist, lo_off, hi_off, seed):
    """Every in-range iteration lands on exactly one processor."""
    rng = np.random.default_rng(seed)
    _name, mk = dist
    lo_f, hi_f = _legal_range(n, [fmap])
    lo, hi = lo_f + lo_off, hi_f - hi_off
    ctx = KaliContext(p, machine=IDEAL)
    ctx.array("A", n, dist=[mk(n, p, rng)]).set(np.zeros(n))
    loop = Forall(
        index_range=(lo, hi),
        on=OnOwner("A", Affine(*fmap)),
        reads=[AffineRead("A", Affine(*fmap), name="x")],
        writes=[AffineWrite("A", Affine(*fmap))],
        kernel=lambda iters, ops: ops["x"],
        label=f"part-{_name}-{n}-{p}-{fmap}-{seed}",
    )
    execs = {}
    # compute_exec is a pure function of metadata: call it directly per rank.
    from repro.machine.api import Rank

    for r in range(p):
        env = {name: arr.scatter(r) for name, arr in ctx.arrays.items()}
        rank = Rank(r, p, IDEAL, None)
        execs[r] = compute_exec(loop, rank, env)

    all_iters = np.concatenate([execs[r] for r in range(p)]) if p else []
    expected = np.arange(lo, hi + 1) if lo <= hi else np.empty(0, np.int64)
    np.testing.assert_array_equal(np.sort(all_iters), expected)
    # disjointness
    assert len(np.unique(all_iters)) == len(all_iters)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(4, 40),
    p=st.sampled_from([2, 4, 8]),
    dist=dist_strategies,
    seed=st.integers(0, 99),
)
def test_indirect_duality_and_oracle(n, p, dist, seed):
    """Random gather B[i] := A[idx[i]]: duality holds, result exact."""
    rng = np.random.default_rng(seed)
    _name, mk = dist
    idx = rng.integers(0, n, size=n).astype(np.int64)
    init = rng.random(n)
    ctx = KaliContext(p, machine=IDEAL)
    # B and idx must share a layout (table alignment); A may differ, but
    # for custom maps reuse one rng draw so the spec is identical.
    map_rng = np.random.default_rng(seed + 1)
    shared = mk(n, p, map_rng)
    ctx.array("A", n, dist=[mk(n, p, np.random.default_rng(seed + 2))]).set(init)
    ctx.array("B", n, dist=[shared._clone()]).set(np.zeros(n))
    ctx.array("idx", n, dist=[shared._clone()], dtype=np.int64).set(idx)
    loop = Forall(
        index_range=(0, n - 1),
        on=OnOwner("B"),
        reads=[IndirectRead("A", table="idx", name="g")],
        writes=[AffineWrite("B")],
        kernel=lambda iters, ops: ops["g"].values[:, 0],
        label=f"idual-{_name}-{n}-{p}-{seed}",
    )
    schedules = {}

    def program(kr):
        schedules[kr.id] = (yield from run_inspector(kr.rank, loop, kr.env))
        yield from kr.forall(loop)

    ctx.run(program)
    np.testing.assert_array_equal(ctx.arrays["B"].data, init[idx])
    for me in range(p):
        for q in range(p):
            if me == q:
                continue
            ins = [(r.low, r.high)
                   for r in schedules[me].arrays["A"].ranges_for_peer_in(q)]
            outs = [(r.low, r.high)
                    for r in schedules[q].arrays["A"].ranges_for_peer_out(me)]
            assert ins == outs


@pytest.mark.parametrize("fmap", [(1, 0), (1, 2), (2, 1), (-1, 36)])
@pytest.mark.parametrize("dist", ["block", "cyclic", "bc2", "bc3"])
@pytest.mark.parametrize("p", [3, 4, 8])
def test_aligned_arrays_skip_the_closed_form_sweep(monkeypatch, p, dist, fmap):
    """Every read on the on clause's own map and layout: the closed form
    emits empty in/out sets without the P-way intersection, and the
    schedule is the one the full sweep builds."""
    from repro.analysis import closedform
    from repro.machine.api import Rank

    n = 37
    mk = {"block": Block, "cyclic": Cyclic, "bc2": lambda: BlockCyclic(2),
          "bc3": lambda: BlockCyclic(3)}[dist]
    ctx = KaliContext(p, machine=IDEAL)
    ctx.array("A", n, dist=[mk()]).set(np.arange(float(n)))
    ctx.array("B", n, dist=[mk()]).set(np.zeros(n))
    loop = Forall(
        index_range=_legal_range(n, [fmap]),
        on=OnOwner("B", Affine(*fmap)),
        reads=[AffineRead("A", Affine(*fmap), name="a"),
               AffineRead("B", Affine(*fmap), name="b")],
        writes=[AffineWrite("B", Affine(*fmap))],
        kernel=lambda iters, ops: ops["a"] + ops["b"],
        label=f"aligned-{dist}-{p}-{fmap}",
    )
    exec_sections = closedform._exec_sections
    calls = []

    def counting(*args):
        calls.append(args)
        return exec_sections(*args)

    monkeypatch.setattr(closedform, "_exec_sections", counting)

    def build():
        del calls[:]
        return [closedform.build_closed_form_schedule(
                    Rank(r, p, IDEAL, None), loop,
                    {name: arr.scatter(r) for name, arr in ctx.arrays.items()})
                for r in range(p)]

    fast = build()
    assert len(calls) == p                  # exec(me) only
    monkeypatch.setattr(closedform, "statically_local", lambda *args: False)
    swept = build()
    # per rank: exec(me), then exec(q) for every q ≠ me, once per array
    assert len(calls) == p * (1 + 2 * (p - 1))
    for f, s in zip(fast, swept):
        assert f.describe() == s.describe()
        np.testing.assert_array_equal(f.exec_local, s.exec_local)
        np.testing.assert_array_equal(f.exec_nonlocal, s.exec_nonlocal)
        assert f.dist_versions == s.dist_versions
        for name in ("A", "B"):
            fa, sa = f.arrays[name], s.arrays[name]
            assert (fa.in_records, fa.out_records, fa.buffer_len) \
                == (sa.in_records, sa.out_records, sa.buffer_len) == ([], [], 0)
            assert fa.translation.num_ranges == sa.translation.num_ranges == 0
