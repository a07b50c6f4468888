"""Warm repeats: analysis and hashing are paid once per process.

A rank process keeps its closed-form schedules, compiled, in
``CLOSED_FORM``, the process-wide backing of its schedule caches' shared
tier (``repro.runtime.cache``), so a warm pool worker's next job
rebuilds no closed-form schedule, plan or op table.  A driver that
builds many contexts over one frozen mesh hashes its arrays once
(``DistributedArray.content_fingerprint``).  Neither may move a message,
a byte, a counter or a virtual second.
"""

import hashlib
import pickle
import sys
import threading
import types

import numpy as np
import pytest

from repro.analysis.closedform import build_closed_form_schedule
from repro.apps.jacobi import build_jacobi
from repro.arrays import darray
from repro.arrays.darray import DistributedArray
from repro.core.context import KaliContext
from repro.core.forall import Affine, AffineRead, AffineWrite, Forall, OnOwner
from repro.distributions import Block, Custom, Cyclic, Replicated
from repro.distributions.procs import ProcessorArray
from repro.machine.cost import IDEAL, NCUBE7
from repro.meshes.partition import coordinate_bisection
from repro.meshes.regular import five_point_grid, reference_sweep
from repro.runtime import cache, executor
from repro.runtime.cache import CLOSED_FORM, CLOSED_FORM_ENTRIES, ScheduleCache
from repro.serve.pool import RankPool
from repro.util.store import LRU
from tests.differential import (
    DifferentialPair,
    assert_arrays_identical,
    assert_counters_identical,
)

MESH = five_point_grid(8, 8)
INIT = np.random.default_rng(44).random(MESH.n)


def _reference(sweeps):
    ref = INIT
    for _ in range(sweeps):
        ref = reference_sweep(MESH, ref)
    return ref


def _layout(name, p):
    if name == "block":
        return Block()
    if name == "cyclic":
        return Cyclic()
    points = np.stack(np.divmod(np.arange(MESH.n), 8), axis=1).astype(float)
    return Custom(coordinate_bisection(points, p))


def _jacobi(p, layout="block", **kwargs):
    return build_jacobi(MESH, p, machine=NCUBE7, dist=_layout(layout, p),
                        initial=INIT, **kwargs)


#: labels compiled in this process, appended by the spy below; pool
#: workers inherit the spy through fork and report their own copy
_COMPILED = []


@pytest.fixture
def compiled(monkeypatch):
    """Record every ``compile_plan`` call as ``(label, rank)``."""
    del _COMPILED[:]
    original = executor.compile_plan

    def spy(forall, env, schedule):
        _COMPILED.append((forall.label, schedule.rank))
        return original(forall, env, schedule)

    monkeypatch.setattr(executor, "compile_plan", spy)
    return _COMPILED


def _reporting(prog, sweeps, before=None):
    """``prog``'s sweeps as a pool job whose ranks return the compile
    calls they made in it (after running ``before(kr)``)."""
    run_sweeps = prog.program(sweeps)

    def program(kr):
        start = len(_COMPILED)
        if before is not None:
            before(kr)
        yield from run_sweeps(kr)
        return _COMPILED[start:]

    return program


def _pair(sim_prog, sim_res, pool_prog, pool_res):
    return DifferentialPair(
        sim_res, pool_res,
        {name: d.data.copy() for name, d in sim_prog.ctx.arrays.items()},
        {name: d.data.copy() for name, d in pool_prog.ctx.arrays.items()})


# --- the rank side: one plan per closed-form loop and process ----------------


@pytest.mark.timeout(120)
def test_pool_repeat_compiles_the_closed_form_plan_once(compiled):
    """Without a disk tier the relax loop is inspected (and compiled) by
    every job; the closed-form copy loop is compiled by the first job
    only, on each rank process."""
    jobs = []
    with RankPool(2, timeout=60) as pool:
        for _ in range(3):
            prog = _jacobi(2, pool=pool)
            res = prog.ctx.run(_reporting(prog, 2))
            np.testing.assert_allclose(prog.solution, _reference(2))
            assert res.engine.counter_sum("schedule_cache_misses") == 2 * 2
            jobs.append(res.values)
    assert jobs == [
        [[("jacobi-copy", r), ("jacobi-relax", r)] for r in range(2)],
        [[("jacobi-relax", r)] for r in range(2)],
        [[("jacobi-relax", r)] for r in range(2)],
    ]


@pytest.mark.timeout(180)
def test_sim_and_pool_stay_bit_identical_warm_and_across_layouts(compiled):
    """Jobs alternate P, Block, Cyclic and a bisection (``Custom``)
    layout on warm pools; each matches its simulator twin bit for bit,
    and a repeated layout compiles no closed-form plan on either side.
    (Under ``Custom`` the copy loop has no closed form: inspected.)"""
    for p, layouts in ((2, ["block", "block", "rcb", "cyclic", "block"]),
                       (3, ["cyclic", "block", "cyclic"])):
        seen = set()
        # forked now, before the simulator warms this process's memo
        with RankPool(p, timeout=60).start() as pool:
            for layout in layouts:
                start = len(_COMPILED)
                sim = _jacobi(p, layout)
                sim_res = sim.run(2)
                sim_copies = [c for c in _COMPILED[start:]
                              if c[0] == "jacobi-copy"]
                real = _jacobi(p, layout, pool=pool)
                real_res = real.ctx.run(_reporting(real, 2))
                pair = _pair(sim, sim_res, real, real_res)
                assert_arrays_identical(pair)
                assert_counters_identical(pair)
                np.testing.assert_allclose(sim.solution, _reference(2))
                real_copies = [c for calls in real_res.values
                               for c in calls if c[0] == "jacobi-copy"]
                if layout != "rcb":
                    want = [] if layout in seen else [
                        ("jacobi-copy", r) for r in range(p)]
                    assert sorted(sim_copies) == sorted(real_copies) == want
                seen.add(layout)


def _figures(result):
    """Everything a sim run reports that could differ, clocks by hex."""
    engine = result.engine
    return {
        "clocks": [c.hex() for c in engine.clocks],
        "stats": [(s.rank, {k: v.hex() for k, v in s.phase_time.items()},
                   dict(s.counters), s.messages_sent, s.messages_received,
                   s.bytes_sent, s.bytes_received) for s in engine.stats],
        "trace": engine.trace,
        "caches": result.cache_stats(),
        "strategies": result.strategies(),
    }


def test_one_rank_missing_the_memo_runs_the_same_as_all_hitting(compiled):
    _jacobi(4, trace=True).run(3)                  # fills the memo
    del compiled[:]
    all_hit = _jacobi(4, trace=True)
    hit_res = all_hit.run(3)
    assert [c for c in compiled if c[0] == "jacobi-copy"] == []
    for key, schedule in list(CLOSED_FORM._items.items()):
        if schedule.rank == 1:
            CLOSED_FORM.pop(key)
    one_miss = _jacobi(4, trace=True)
    miss_res = one_miss.run(3)
    assert [c for c in compiled if c[0] == "jacobi-copy"] == [("jacobi-copy", 1)]
    assert _figures(miss_res) == _figures(hit_res)
    assert hit_res.engine.trace
    np.testing.assert_array_equal(one_miss.solution, all_hit.solution)


def _forget_closed_forms(kr):
    if kr.id == 1:
        CLOSED_FORM.clear()


@pytest.mark.timeout(120)
def test_one_pool_rank_missing_the_memo_runs_the_same(compiled):
    with RankPool(2, timeout=60) as pool:
        runs = []
        for before in (None, None, _forget_closed_forms):
            prog = _jacobi(2, pool=pool)
            runs.append((prog, prog.ctx.run(_reporting(prog, 2, before))))
    (_, _), (hit, hit_res), (miss, miss_res) = runs
    assert hit_res.values == [[("jacobi-relax", r)] for r in range(2)]
    assert miss_res.values == [[("jacobi-relax", 0)],
                               [("jacobi-copy", 1), ("jacobi-relax", 1)]]
    assert_arrays_identical(_pair(hit, hit_res, miss, miss_res))
    assert_counters_identical(_pair(hit, hit_res, miss, miss_res))


def test_live_contexts_sharing_an_entry_keep_their_own_stamps(compiled):
    """Context B redistributes ``old_a`` onto the layout it already had:
    its stamps move, the memo key does not.  B's copy loop must miss in
    its own cache and get a fresh copy of the shared entry; context A's
    cached schedule keeps A's stamps and still hits."""
    prog_a, prog_b = _jacobi(2), _jacobi(2)
    copy_a, copy_b = prog_a.copy_loop, prog_b.copy_loop

    def program_a(kr):
        yield from kr.forall(copy_a)

    def program_b(kr):
        yield from kr.forall(copy_b)
        yield from kr.redistribute("old_a", Block())
        yield from kr.forall(copy_b)
        yield from kr.forall(copy_b)

    res_a = prog_a.ctx.run(program_a)
    res_b = prog_b.ctx.run(program_b)
    assert res_b.engine.counter_sum("schedule_cache_invalidations") == 2
    assert [c for c in compiled if c[0] == "jacobi-copy"] == [
        ("jacobi-copy", 0), ("jacobi-copy", 1)]
    for kr_a, kr_b in zip(res_a.kranks, res_b.kranks):
        mine = kr_a.cache._store["jacobi-copy"]
        theirs = kr_b.cache._store["jacobi-copy"]
        assert mine is not theirs and mine.plan is theirs.plan
        assert mine.dist_versions == {"a": 0, "old_a": 0}
        assert theirs.dist_versions == {"a": 0, "old_a": 1}
        hits = kr_a.cache.hits
        assert kr_a.cache.lookup(copy_a, kr_a.env) is mine
        assert kr_a.cache.hits == hits + 1


def test_live_contexts_sharing_a_disk_entry_keep_their_own_stamps(tmp_path):
    """B loads the relax schedule A inspected (one object in the disk
    tier's load memo) with other version stamps for the same bytes.  A
    then edits its own adjacency: its cached schedule must go stale."""
    prog_a, prog_b = (_jacobi(2, schedule_cache_dir=str(tmp_path))
                    for _ in range(2))
    prog_b.ctx.arrays["adj"].set(MESH.adj)       # same bytes, a new version
    res_a = prog_a.run(1)
    res_b = prog_b.run(1)
    assert res_b.engine.counter_sum("schedule_cache_disk_hits") == 2
    for kr_a, kr_b in zip(res_a.kranks, res_b.kranks):
        mine = kr_a.cache._store["jacobi-relax"]
        theirs = kr_b.cache._store["jacobi-relax"]
        assert mine is not theirs and mine.plan is theirs.plan
        assert mine.versions == {"adj": 1, "count": 1}
        assert theirs.versions == {"adj": 2, "count": 1}
        adj = kr_a.env["adj"]            # edited as a forall commits
        adj.data[[0, 1]] = adj.data[[1, 0]]
        adj.version += 1
        adj.content_tag = None
        assert kr_a.cache.lookup(prog_a.relax_loop, kr_a.env) is None
        assert kr_a.cache.invalidations == 1


# --- the memo's key and bound ----------------------------------------------


def _shift_context(p=2, n=12):
    ctx = KaliContext(p, machine=IDEAL)
    ctx.array("A", n, dist=[Block()]).set(np.arange(float(n)))
    ctx.array("C", n, dist=[Block()]).set(np.zeros(n))
    ctx.array("R", n, dist=[Replicated()]).set(np.zeros(n))

    def idle(kr):
        return
        yield   # a generator that runs no forall

    res = ctx.run(idle)
    return ctx, res.kranks


def _shift(k, n=12, label=None):
    return Forall(index_range=(0, n - 2), on=OnOwner("C"),
                  reads=[AffineRead("A", Affine(1, k % 2), name="a")],
                  writes=[AffineWrite("C")], kernel=lambda i, o: o["a"],
                  label=label or f"shift-{k}")


@pytest.fixture
def small_memo(monkeypatch):
    """A 3-entry ``CLOSED_FORM`` in place of the process's."""
    memo = LRU(3)
    monkeypatch.setattr(cache, "CLOSED_FORM", memo)
    return memo


def _plan_via_cache(kr, loop):
    """``loop``'s schedule on ``kr``'s rank through a fresh memory tier,
    as ``KaliRank.forall`` gets it: the shared tier or a build."""
    sc = ScheduleCache()
    got = sc.lookup(loop, kr.env)
    if got is None:
        got = sc.store_through(
            loop, build_closed_form_schedule(kr.rank, loop, kr.env), kr.env)
    return got


def test_the_memo_is_a_bounded_lru(small_memo):
    _ctx, kranks = _shift_context()
    kr = kranks[0]
    loops = [_shift(k) for k in range(5)]

    def plan(k):
        return _plan_via_cache(kr, loops[k]).plan

    first = [plan(k) for k in range(3)]
    assert len(small_memo) == 3
    assert plan(0) is first[0]          # a hit, and now the newest
    plan(3)                             # evicts loop 1, the oldest
    assert len(small_memo) == 3
    assert plan(0) is first[0] and plan(2) is first[2]
    assert plan(1) is not first[1]      # rebuilt
    assert len(small_memo) == 3
    assert CLOSED_FORM.cap == CLOSED_FORM_ENTRIES


@pytest.mark.timeout(60)
def test_threads_sharing_a_small_memo_get_their_own_stamped_copies(small_memo):
    """Serve shards run jobs on threads that share the process's memo."""
    _ctx, kranks = _shift_context()
    loops = [_shift(k) for k in range(5)]
    problems = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            kr = kranks[int(rng.integers(2))]
            loop = loops[int(rng.integers(len(loops)))]
            got = _plan_via_cache(kr, loop)
            if (got.label, got.rank) != (loop.label, kr.id) or got.plan is None \
                    or got.dist_versions != {"A": 0, "C": 0}:
                problems.append((loop.label, kr.id, got))
            got.dist_versions["A"] = seed   # the caller's own stamps

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert problems == []
    assert len(small_memo) == 3


def test_a_run_with_more_closed_form_loops_than_entries_stays_bounded():
    p, n = 16, 64
    ctx = KaliContext(p, machine=IDEAL)
    ctx.array("A", n, dist=[Block()]).set(np.arange(float(n)))
    ctx.array("C", n, dist=[Block()]).set(np.zeros(n))
    loops = [_shift(k, n=n) for k in range(CLOSED_FORM_ENTRIES // p + 2)]

    def program(kr):
        for loop in loops:
            yield from kr.forall(loop)

    ctx.run(program)
    assert p * len(loops) > CLOSED_FORM_ENTRIES
    assert len(CLOSED_FORM) == CLOSED_FORM_ENTRIES


def test_loops_that_differ_only_in_their_write_map_do_not_share_a_plan():
    """Same label, on clause and reads; one writes ``C[i]``, the other
    ``C[i+1]`` (one rank, so both are owner-computes).  Each runs in a
    fresh context, so the second reaches the memo, not the first one's
    memory-tier entry."""
    n = 12
    for b in (0, 1):
        ctx, _ = _shift_context(p=1, n=n)
        loop = Forall(index_range=(0, n - 2), on=OnOwner("A"),
                      reads=[AffineRead("A", name="a")],
                      writes=[AffineWrite("C", Affine(1, b))],
                      kernel=lambda i, o: o["a"] + 100.0, label="write-map")

        def program(kr, loop=loop):
            yield from kr.forall(loop)

        ctx.run(program)
        want = np.zeros(n)
        want[b:b + n - 1] = np.arange(n - 1.0) + 100.0
        np.testing.assert_array_equal(ctx.arrays["C"].data, want)
    assert len(CLOSED_FORM) == 2


# --- the driver side: a frozen source lends its digest -------------------------


@pytest.fixture
def sha_calls(monkeypatch):
    """Every SHA-256 the driver-side arrays compute, by byte count."""
    calls = []

    def sha256(data=b""):
        calls.append(memoryview(data).nbytes)
        return hashlib.sha256(data)

    monkeypatch.setattr(darray, "hashlib", types.SimpleNamespace(sha256=sha256))
    monkeypatch.setattr(darray, "_ZERO_DIGESTS", {})
    return calls


def _array(values, dtype=np.float64):
    dists = [Block()] + [Replicated()] * (np.ndim(values) - 1)
    arr = DistributedArray("x", np.shape(values), dists, ProcessorArray(2),
                           dtype=dtype)
    arr.set(values)
    return arr


def _frozen(values):
    values = np.array(values)
    values.flags.writeable = False
    return values


def test_a_frozen_source_is_hashed_once_and_only_when_asked(sha_calls):
    src = _frozen(np.arange(10.0))
    first, second = _array(src), _array(src)
    assert sha_calls == [] and id(src) not in darray._SOURCE_DIGESTS
    want = hashlib.sha256(src.tobytes()).hexdigest()
    assert first.content_fingerprint() == want
    assert second.content_fingerprint() == want
    assert sha_calls == [src.nbytes]
    assert darray._SOURCE_DIGESTS[id(src)][1] == want
    first[0] = 5.0                      # a new version hashes its own bytes
    assert first.content_fingerprint() == hashlib.sha256(
        first.data.tobytes()).hexdigest()
    assert len(sha_calls) == 2
    key = id(src)
    del src, first, second              # the memo holds no array alive
    assert key not in darray._SOURCE_DIGESTS


@pytest.mark.parametrize("case", ["writable", "frozen-after-set", "view",
                                  "other-dtype", "fortran-order",
                                  "unfrozen-after-set"])
def test_only_a_frozen_self_owning_same_dtype_source_lends_its_digest(
        case, sha_calls):
    grid = np.arange(12.0).reshape(3, 4)
    dtype = np.float64
    if case in ("writable", "frozen-after-set"):
        src = grid.copy()
    elif case == "view":
        src = grid[1:]                  # C-contiguous, but not its own
        src.flags.writeable = False
    elif case == "other-dtype":
        src, dtype = _frozen(np.arange(12, dtype=np.int32).reshape(3, 4)), np.int64
    elif case == "fortran-order":
        src = np.asfortranarray(grid)
        src.flags.writeable = False
    else:
        src = _frozen(grid)
    arr = _array(src, dtype=dtype)
    if case == "unfrozen-after-set":
        src.flags.writeable = True
    elif case == "frozen-after-set":
        src[0, 0] = 99.0                # after set: the array's bytes differ
        src.flags.writeable = False
    assert arr.content_fingerprint() == hashlib.sha256(
        np.ascontiguousarray(arr.data).tobytes()).hexdigest()
    assert id(src) not in darray._SOURCE_DIGESTS
    assert sha_calls == [arr.data.nbytes]


def test_a_never_written_array_is_hashed_once_per_dtype_and_shape(sha_calls):
    def zeros(dtype=np.float64):
        return DistributedArray("z", 10, [Block()], ProcessorArray(2),
                                dtype=dtype)

    first, second = zeros(), zeros()
    want = hashlib.sha256(np.zeros(10).tobytes()).hexdigest()
    assert [first.content_fingerprint(), second.content_fingerprint()] == [
        want, want]
    assert sha_calls == [80]
    assert zeros(np.int32).content_fingerprint() == hashlib.sha256(
        np.zeros(10, np.int32).tobytes()).hexdigest()
    assert sha_calls == [80, 40]
    first[0] = 0.0                      # written, if with a zero: hashed
    assert first.content_fingerprint() == want
    assert sha_calls == [80, 40, 80]


def test_a_sim_run_without_a_disk_tier_hashes_nothing(sha_calls):
    _jacobi(2).run(2)
    assert sha_calls == []


def test_repeat_contexts_over_one_mesh_hash_only_what_changed(sha_calls, tmp_path):
    """A disk tier needs every array's digest.  ``adj``, ``count`` and
    ``coef`` come from the frozen mesh, and ``old_a`` is never written
    (all zeros): each hashed by the first context only.  ``a`` (a
    writable initial vector) is hashed by each."""
    mesh = five_point_grid(8, 8)        # not yet hashed in this process
    for _ in range(2):
        build_jacobi(mesh, 2, initial=INIT,
                     schedule_cache_dir=str(tmp_path)).run(1)
    assert sorted(sha_calls) == sorted(
        [INIT.nbytes] * 3 + [mesh.count.nbytes, mesh.adj.nbytes,
                             mesh.coef.nbytes])


def test_an_array_with_a_source_still_pickles():
    arr = _array(_frozen(np.arange(6.0)))
    fingerprint = arr.content_fingerprint()
    clone = pickle.loads(pickle.dumps(arr))
    assert clone.content_fingerprint() == fingerprint
    np.testing.assert_array_equal(clone.data, arr.data)
