"""The compiled execution plan: a warm sweep is take -> kernel -> put.

The executor compiles each :class:`CommSchedule` once into flat index
vectors (``repro.runtime.schedule.ExecPlan``) and afterwards does no
index arithmetic at all.  These tests pin that contract from outside.
"""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.apps.cg import CGSolver, dense_matrix
from repro.analysis.planner import Strategy
from repro.apps.jacobi import build_jacobi
from repro.core import context
from repro.core.context import KaliContext, KaliRank
from repro.core.forall import (
    Affine,
    AffineRead,
    AffineWrite,
    Forall,
    IndirectRead,
    OnOwner,
)
from repro.distributions import Block, Custom, Cyclic, Replicated
from repro.distributions.base import DimDistribution
from repro.errors import InspectorError
from repro.lang import compile_kali
from repro.machine.api import Count, Send
from repro.machine.cost import IDEAL, NCUBE7
from repro.meshes.partition import coordinate_bisection
from repro.meshes.regular import five_point_grid, reference_sweep
from repro.runtime import executor, inspector
from repro.runtime.schedule import ArraySchedule, RangeRecord
from repro.runtime.translation import EnumeratedTable, TranslationTable
from repro.serve import diskcache
from repro.serve.pool import RankPool
from tests import test_kali_programs


# --- (e) the plan changes no virtual second, message, byte or counter --------


def _figures(result, *arrays):
    counters = {}
    for stats in result.engine.stats:
        for name, amount in stats.counters.items():
            counters[name] = counters.get(name, 0) + int(amount)
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return {
        "virtual_s": float(result.engine.makespan).hex(),
        "messages": int(result.engine.total_messages()),
        "bytes": int(result.engine.total_bytes()),
        "counters": dict(sorted(counters.items())),
        "sha": digest.hexdigest(),
    }


def _rcb_grid(nx, ny, nprocs):
    """A five-point grid and its recursive-coordinate-bisection layout
    (pure NumPy, so pinned figures do not depend on a mesher)."""
    mesh = five_point_grid(nx, ny)
    points = np.stack(np.divmod(np.arange(mesh.n), ny), axis=1).astype(float)
    return mesh, Custom(coordinate_bisection(points, nprocs))


def _pinned_jacobi(combine, translation):
    """3 sweeps on a 16x16 grid, RCB layout, P=4."""
    mesh, dist = _rcb_grid(16, 16, 4)
    prog = build_jacobi(mesh, 4, machine=NCUBE7, translation=translation,
                        dist=dist,
                        initial=np.random.default_rng(1990).random(mesh.n))
    prog.ctx.combine_messages = combine
    return _figures(prog.run(3), prog.solution)


def _pinned_stencil(combine, translation):
    """Two arrays exchange boundaries with the same peers (so combining
    changes the message count); 3 executions, P=4."""
    n = 64
    ctx = KaliContext(4, machine=NCUBE7, combine_messages=combine,
                      translation=translation)
    rng = np.random.default_rng(1990)
    ctx.array("A", n, dist=[Block()]).set(rng.random(n))
    ctx.array("B", n, dist=[Block()]).set(rng.random(n))
    ctx.array("C", n, dist=[Block()]).set(np.zeros(n))
    loop = Forall(
        index_range=(1, n - 2),
        on=OnOwner("C"),
        reads=[AffineRead("A", Affine(1, -1), name="al"),
               AffineRead("A", Affine(1, 1), name="ar"),
               AffineRead("B", Affine(1, -1), name="bl"),
               AffineRead("B", Affine(1, 1), name="br")],
        writes=[AffineWrite("C")],
        kernel=lambda i, o: (o["al"] + o["ar"] + o["bl"] + o["br"]) / 4.0,
        label="pinned-stencil",
    )

    def program(kr):
        for _ in range(3):
            yield from kr.forall(loop)

    return _figures(ctx.run(program), ctx.arrays["C"].data)


PINNED_CASES = {"jacobi": _pinned_jacobi, "stencil": _pinned_stencil}


def pinned_figures(case, combine, translation):
    return PINNED_CASES[case](combine, translation)


#: recorded at the parent commit (the executor before plans existed) by
#: running this file as a script with that tree on PYTHONPATH: per case the
#: counters and the result hash (the same under all four settings), then
#: per (combine_messages, translation) the hex virtual seconds, messages
#: and bytes
GOLDEN = {
    "jacobi": (
        {"crystal_bytes": 2976, "crystal_rounds": 16,
         "executor_elems_recv": 192, "executor_elems_sent": 192,
         "executor_iters": 1536, "executor_local_refs": 4128,
         "executor_remote_refs": 192, "inspector_checks": 960,
         "inspector_nonlocal": 64, "inspector_runs": 8,
         "schedule_cache_hits": 16, "schedule_cache_misses": 8},
        "02bd5475f1057fdcc6c2415ab19a605b066129c9bb7a843184b61a9b72e43c55",
        {(True, "ranges"): ("0x1.b8524b30bf0b5p-1", 40, 4704),
         (True, "enumerated"): ("0x1.b0bf85bc6d033p-1", 40, 4704),
         (False, "ranges"): ("0x1.b841ef98e8c03p-1", 40, 4512),
         (False, "enumerated"): ("0x1.b0af2a2496b81p-1", 40, 4512)},
    ),
    "stencil": (
        {"executor_elems_recv": 36, "executor_elems_sent": 36,
         "executor_iters": 186, "executor_local_refs": 672,
         "executor_remote_refs": 36, "schedule_cache_hits": 8,
         "schedule_cache_misses": 4},
        "6703fc305836cd8eeca5d0b9509d6e6385338e08d96154c052d12967c971f358",
        {(True, "ranges"): ("0x1.adc8fb86f47b6p-7", 18, 576),
         (True, "enumerated"): ("0x1.3b701896cfbadp-7", 18, 576),
         (False, "ranges"): ("0x1.074c249bc0bb8p-6", 36, 288),
         (False, "enumerated"): ("0x1.9c3f66475cb63p-7", 36, 288)},
    ),
}


@pytest.mark.parametrize("translation", ["ranges", "enumerated"])
@pytest.mark.parametrize("combine", [True, False], ids=["combined", "per-array"])
@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_virtual_time_and_traffic_match_the_uncompiled_executor(
        case, combine, translation):
    counters, sha, per_setting = GOLDEN[case]
    virtual_s, messages, nbytes = per_setting[(combine, translation)]
    assert pinned_figures(case, combine, translation) == {
        "virtual_s": virtual_s, "messages": messages, "bytes": nbytes,
        "counters": counters, "sha": sha,
    }


# --- (a) a warm sweep does no index arithmetic ------------------------------


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


@pytest.fixture
def index_guard(monkeypatch):
    """Make every index-arithmetic entry point raise while a rank
    re-executes a forall it has already completed once.

    Ranks interleave on the simulator (one may still be inspecting while
    another is three sweeps ahead), so the guard is armed per resumption
    of a *warm* ``KaliRank.forall`` generator, not per wall-clock moment.
    """
    state = {"armed": False, "warm_foralls": 0}

    def guard(cls, name):
        original = cls.__dict__[name]

        def guarded(self, *args, **kwargs):
            if state["armed"]:
                raise AssertionError(
                    f"{cls.__name__}.{name} called on a warm sweep")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, guarded)

    for cls in (DimDistribution, *_all_subclasses(DimDistribution)):
        for name in ("owner", "to_local"):
            if name in cls.__dict__:
                guard(cls, name)
    guard(TranslationTable, "lookup")
    guard(EnumeratedTable, "lookup")
    guard(ArraySchedule, "ranges_for_peer_in")
    guard(ArraySchedule, "ranges_for_peer_out")

    completed = set()
    forall = KaliRank.forall

    def guarded_forall(self, loop):
        key = (id(self), loop.label)
        warm = key in completed
        gen = forall(self, loop)
        reply = None
        while True:
            state["armed"] = warm
            try:
                op = gen.send(reply)
            except StopIteration as stop:
                completed.add(key)
                state["warm_foralls"] += warm
                return stop.value
            finally:
                state["armed"] = False
            reply = yield op

    monkeypatch.setattr(KaliRank, "forall", guarded_forall)
    return state


def _reference(mesh, values, sweeps):
    for _ in range(sweeps):
        values = reference_sweep(mesh, values)
    return values


class TestZeroIndexArithmetic:
    SWEEPS, P = 5, 4

    @pytest.mark.parametrize("layout", ["block", "rcb"])
    @pytest.mark.parametrize("translation", ["ranges", "enumerated"])
    def test_jacobi(self, index_guard, layout, translation):
        mesh, rcb = _rcb_grid(12, 12, self.P)
        init = np.random.default_rng(3).random(mesh.n)
        prog = build_jacobi(mesh, self.P, initial=init, translation=translation,
                            dist=rcb if layout == "rcb" else Block())
        prog.run(self.SWEEPS)
        np.testing.assert_allclose(prog.solution,
                                   _reference(mesh, init, self.SWEEPS))
        # copy + relax, every sweep but the first, on every rank
        assert index_guard["warm_foralls"] == 2 * (self.SWEEPS - 1) * self.P

    def test_guard_trips_on_index_arithmetic(self, index_guard):
        """The guard itself works: a warm forall that does translate an
        index fails the run."""
        mesh = five_point_grid(6, 6)
        prog = build_jacobi(mesh, 2)
        loop = prog.relax_loop

        def program(kr):
            yield from kr.forall(loop)
            kr.cache.clear()  # warm by the guard's book, cold by the cache's
            yield from kr.forall(loop)

        with pytest.raises(AssertionError, match="called on a warm sweep"):
            prog.ctx.run(program)

    def test_cg_with_reductions(self, index_guard):
        mesh = five_point_grid(6, 6)
        b = np.random.default_rng(4).random(mesh.n)
        res = CGSolver(mesh, self.P, machine=IDEAL).solve(b, tol=1e-10)
        np.testing.assert_allclose(
            res.solution, np.linalg.solve(dense_matrix(mesh), b), atol=1e-8)
        assert res.iterations > 3
        assert index_guard["warm_foralls"] > 5 * 3 * self.P

    def test_figure4_kali_source(self, index_guard):
        mesh = five_point_grid(8, 8)
        init = np.random.default_rng(11).random(mesh.n)
        res = compile_kali(test_kali_programs.TestFigure4.SRC).run(
            nprocs=self.P, machine=IDEAL,
            consts={"n": mesh.n, "width": mesh.width, "nsweeps": self.SWEEPS},
            inputs={"a": init, "count": mesh.count, "adj": mesh.adj + 1,
                    "coef": mesh.coef},
        )
        np.testing.assert_allclose(res.arrays["a"],
                                   _reference(mesh, init, self.SWEEPS))
        assert index_guard["warm_foralls"] == 2 * (self.SWEEPS - 1) * self.P


# --- (b) one plan per schedule, invalidated with it --------------------------


@pytest.fixture
def compiled(monkeypatch):
    """Every ``compile_plan`` call of the test, as
    ``(label, rank, schedule, plan)``."""
    calls = []
    original = executor.compile_plan

    def spy(forall, env, schedule):
        plan = original(forall, env, schedule)
        calls.append((forall.label, schedule.rank, schedule, plan))
        return plan

    monkeypatch.setattr(executor, "compile_plan", spy)
    return calls


def test_plan_is_rebuilt_exactly_when_its_schedule_is(compiled):
    mesh, p = five_point_grid(8, 8), 4
    init = np.random.default_rng(6).random(mesh.n)
    prog = build_jacobi(mesh, p, initial=init)
    copy_loop, relax_loop = prog.copy_loop, prog.relax_loop

    def sweeps(kr, n):
        for _ in range(n):
            yield from kr.forall(copy_loop)
            yield from kr.forall(relax_loop)

    def program(kr):
        yield from sweeps(kr, 2)
        kr.local("adj").version += 1        # relax must re-inspect
        yield from sweeps(kr, 2)
        yield from kr.redistribute("old_a", Cyclic())   # both loops must
        yield from sweeps(kr, 2)

    prog.ctx.run(program)
    np.testing.assert_allclose(prog.solution, _reference(mesh, init, 6))
    by_label = {}
    for label, rank, schedule, plan in compiled:
        assert schedule.plan is plan
        by_label.setdefault(label, []).append(plan)
    # 6 sweeps, but one compile per (schedule built, rank): initial, after
    # the adj bump (relax only), after the redistribute (both)
    assert len(by_label["jacobi-copy"]) == 2 * p
    assert len(by_label["jacobi-relax"]) == 3 * p
    plans = [plan for plans in by_label.values() for plan in plans]
    assert len({id(plan) for plan in plans}) == len(plans)


# --- (c) dead indirection columns hold 0 ----------------------------------


def test_dead_columns_read_zero_not_local_or_received_data():
    """NaN sits in local offset 0 of every rank and in an element rank 0
    receives; dead table slots point at both.  ``IndirectOperand``
    promises "dead columns hold 0", so an unmasked row sum stays finite
    wherever no *live* slot names a NaN."""
    n, p, width = 16, 4, 3
    nan_at = [0, 4, 8, 12, 5]              # local offset 0 everywhere; 5 -> rank 0
    clean = [g for g in range(n) if g not in nan_at]
    x = np.arange(1.0, n + 1)
    x[nan_at] = np.nan
    count = np.ones(n, dtype=np.int64)
    table = np.empty((n, width), dtype=np.int64)
    table[:, 0] = [clean[(i + 4) % len(clean)] for i in range(n)]  # live, mostly remote
    table[::2, 1:] = 0                      # dead: local offset 0 on rank 0
    table[1::2, 1:] = 5                     # dead: the received NaN on rank 0
    count[2], table[2, 1] = 2, 5            # row 2 (rank 0) does receive element 5
    live = np.arange(width)[None, :] < count[:, None]

    ctx = KaliContext(p, machine=IDEAL)
    ctx.array("x", n, dist=[Block()]).set(x)
    ctx.array("y", n, dist=[Block()]).set(np.zeros(n))
    ctx.array("count", n, dist=[Block()], dtype=np.int64).set(count)
    ctx.array("table", (n, width), dist=[Block(), Replicated()],
              dtype=np.int64).set(table)

    def kernel(iters, ops):
        nb = ops["nb"]
        dead = np.arange(width)[None, :] >= nb.counts[:, None]
        assert (nb.values[dead] == 0).all()
        return nb.values.sum(axis=1)        # unmasked on purpose

    loop = Forall(index_range=(0, n - 1), on=OnOwner("y"),
                  reads=[IndirectRead("x", table="table", count="count",
                                      name="nb")],
                  writes=[AffineWrite("y")], kernel=kernel, label="dead-cols")

    def program(kr):
        yield from kr.forall(loop)
        yield from kr.forall(loop)          # cold and warm alike

    ctx.run(program)
    expected = np.where(live, x[table], 0.0).sum(axis=1)
    assert np.isnan(expected).sum() == 1    # only row 2's live reference
    np.testing.assert_array_equal(ctx.arrays["y"].data, expected)


# --- (d) the plan is never persisted ---------------------------------------

#: CommSchedule's pickled state at the parent commit; `repro-schedcache-v1`
#: entries hold exactly this
PERSISTED_FIELDS = ["label", "rank", "exec_local", "exec_nonlocal", "arrays",
                    "versions", "dist_versions", "built_by", "translation_kind"]


def test_pickle_is_byte_identical_before_and_after_first_execution(monkeypatch):
    before = {}
    original = executor.compile_plan

    def spy(forall, env, schedule):
        assert schedule.plan is None
        before[(forall.label, schedule.rank)] = (schedule, pickle.dumps(schedule))
        return original(forall, env, schedule)

    monkeypatch.setattr(executor, "compile_plan", spy)
    build_jacobi(five_point_grid(8, 8), 4).run(2)
    assert len(before) == 2 * 4
    for schedule, pickled in before.values():
        assert schedule.plan is not None
        assert pickle.dumps(schedule) == pickled
        clone = pickle.loads(pickled)
        assert list(clone.__dict__) == PERSISTED_FIELDS
        assert clone.plan is None           # class default: compiles on use


def test_disk_entry_in_the_parent_format_loads_and_executes(tmp_path, monkeypatch):
    mesh = five_point_grid(8, 8)
    init = np.random.default_rng(8).random(mesh.n)

    def job():
        prog = build_jacobi(mesh, 4, initial=init,
                            schedule_cache_dir=str(tmp_path))
        return prog, prog.run(3)

    job()
    entries = diskcache.DiskScheduleCache(tmp_path).entries()
    assert len(entries) == 4
    for path in entries:
        with open(path, "rb") as fh:
            doc = pickle.load(fh)
        assert doc["format"] == "repro-schedcache-v1"
        assert list(doc["schedule"].__dict__) == PERSISTED_FIELDS

    monkeypatch.setattr(diskcache, "_SHARED", {})   # a new process: no memo
    prog, res = job()
    assert res.engine.counter_sum("inspector_runs") == 0
    assert res.engine.counter_sum("schedule_cache_disk_hits") == 4
    np.testing.assert_allclose(prog.solution, _reference(mesh, init, 3))


#: labels compiled in this process, appended by the spy below; pool
#: workers inherit the spy through fork and report their own copy
_COMPILED_LABELS = []


def _counting_compile(original):
    def spy(forall, env, schedule):
        _COMPILED_LABELS.append(forall.label)
        return original(forall, env, schedule)
    return spy


@pytest.mark.timeout(120)
def test_pool_job_reuses_the_previous_jobs_plan(tmp_path, monkeypatch):
    """Two Jacobi jobs on one warm 2-rank pool and one disk cache: the
    second job's disk hit is served from the store's load memo — the very
    schedule object the first job executed — so its plan is reused."""
    monkeypatch.setattr(executor, "compile_plan",
                        _counting_compile(executor.compile_plan))
    mesh = five_point_grid(8, 8)
    init = np.random.default_rng(9).random(mesh.n)

    def job(pool):
        prog = build_jacobi(mesh, 2, initial=init, pool=pool,
                            schedule_cache_dir=str(tmp_path))
        sweeps = prog.program(3)

        def program(kr):
            yield from sweeps(kr)
            return list(_COMPILED_LABELS)

        res = prog.ctx.run(program)
        np.testing.assert_allclose(prog.solution, _reference(mesh, init, 3))
        return res

    with RankPool(2, timeout=60) as pool:
        first, second = job(pool), job(pool)
    assert first.engine.counter_sum("inspector_runs") == 2
    assert second.engine.counter_sum("inspector_runs") == 0
    for labels in first.values:
        assert labels.count("jacobi-relax") == 1
    for labels in second.values:
        # the closed-form copy schedule is rebuilt (and compiled) per job;
        # the inspected relax schedule, and its plan, came from job 1
        assert labels.count("jacobi-copy") == 2
        assert labels.count("jacobi-relax") == 1


# --- receive-side validation ----------------------------------------------


def _two_array_shift(n=16):
    ctx = KaliContext(2, machine=IDEAL)
    rng = np.random.default_rng(2)
    ctx.array("A", n, dist=[Block()]).set(rng.random(n))
    ctx.array("B", n, dist=[Block()]).set(rng.random(n))
    ctx.array("C", n, dist=[Block()]).set(np.zeros(n))
    loop = Forall(index_range=(0, n - 2), on=OnOwner("C"),
                  reads=[AffineRead("A", Affine(1, 1), name="a"),
                         AffineRead("B", Affine(1, 1), name="b")],
                  writes=[AffineWrite("C")],
                  kernel=lambda i, o: o["a"] + o["b"], label="two-array-shift")

    def program(kr):
        yield from kr.forall(loop)

    return ctx, program


def test_bundle_missing_a_scheduled_array_is_an_error(monkeypatch):
    """Rank 0 expects A and B from rank 1 in one combined message.  If
    rank 1's schedule lost its B out-records the bundle arrives without B;
    that used to pass (only present chunks were checked) and the kernel
    read zeros."""
    original = executor.compile_plan

    def tamper(forall, env, schedule):
        if schedule.rank == 1:
            schedule.arrays["B"].out_records = []
        return original(forall, env, schedule)

    monkeypatch.setattr(executor, "compile_plan", tamper)
    ctx, program = _two_array_shift()
    with pytest.raises(InspectorError, match=r"from 1 is missing arrays \['B'\]"):
        ctx.run(program)


def test_bundle_carrying_an_unscheduled_array_is_an_error(monkeypatch):
    original = executor.compile_plan

    def tamper(forall, env, schedule):
        if schedule.rank == 1:
            extra = ArraySchedule("C", out_records=[RangeRecord(1, 0, 0, 0)])
            extra.finalize()
            schedule.arrays["C"] = extra
        return original(forall, env, schedule)

    monkeypatch.setattr(executor, "compile_plan", tamper)
    ctx, program = _two_array_shift()
    with pytest.raises(InspectorError, match=r"unscheduled arrays \['C'\]"):
        ctx.run(program)


# --- send payloads are copies --------------------------------------------


def test_shift_in_place_reads_old_values_on_two_ranks():
    """``A[i] := A[i+1]`` sends and writes the same array.  Rank 1 sends
    its first element, has nothing to receive, and commits its writes
    while rank 0 is still waiting — on the simulator the payload object
    is the receiver's, so a slice view would deliver the *new* value."""
    n = 16
    ctx = KaliContext(2, machine=IDEAL)
    ctx.array("A", n, dist=[Block()]).set(np.arange(float(n)))
    loop = Forall(index_range=(0, n - 2), on=OnOwner("A"),
                  reads=[AffineRead("A", Affine(1, 1), name="next")],
                  writes=[AffineWrite("A")],
                  kernel=lambda i, o: o["next"], label="shift")

    def program(kr):
        yield from kr.forall(loop)
        yield from kr.forall(loop)

    ctx.run(program)
    expected = np.arange(float(n))
    expected[:-2], expected[-2] = expected[2:], expected[-1]
    np.testing.assert_array_equal(ctx.arrays["A"].data, expected)


def test_jacobi_pair_never_sends_a_view(monkeypatch):
    """Relax sends ``old_a`` and the next copy loop overwrites it; on a
    2-rank block layout every send is one contiguous range, the case a
    slice would serve.  Every payload must own its memory."""
    sent = []
    original = context.run_executor

    def watching(rank, forall, env, schedule, tag_base, **kwargs):
        gen = original(rank, forall, env, schedule, tag_base, **kwargs)
        reply = None
        while True:
            try:
                op = gen.send(reply)
            except StopIteration as stop:
                return stop.value
            if isinstance(op, Send):
                for name, chunk in op.payload.items():
                    assert not np.shares_memory(chunk, env[name].data)
                    sent.append(name)
            reply = yield op

    monkeypatch.setattr(context, "run_executor", watching)
    mesh = five_point_grid(8, 8)
    init = np.random.default_rng(1).random(mesh.n)
    prog = build_jacobi(mesh, 2, initial=init)
    prog.run(4)
    assert sent == ["old_a"] * (4 * 2)
    np.testing.assert_allclose(prog.solution, _reference(mesh, init, 4))


# --- warm sweeps redo no per-execution work ---------------------------------


def _recorded(gen, ops):
    """``yield from gen``, appending every op it yields to ``ops``."""
    reply = None
    while True:
        try:
            op = gen.send(reply)
        except StopIteration as stop:
            return stop.value
        ops.append(op)
        reply = yield op


def _recording_executor(monkeypatch):
    """Wrap ``run_executor``: every execution's ``(label, rank, [ops])``."""
    executions = []
    original = context.run_executor

    def recording(rank, forall, env, schedule, tag_base, **kwargs):
        ops = []
        executions.append((forall.label, rank.id, ops))
        return (yield from _recorded(
            original(rank, forall, env, schedule, tag_base, **kwargs), ops))

    monkeypatch.setattr(context, "run_executor", recording)
    return executions


def test_one_count_per_counter_per_execution(monkeypatch):
    """Message counters are summed over the phase's messages and yielded
    once, so a warm relax forall yields each counter name once — and the
    run's totals are still the pinned ones."""
    executions = _recording_executor(monkeypatch)
    counters, sha, per_setting = GOLDEN["jacobi"]
    virtual_s, messages, nbytes = per_setting[(True, "ranges")]
    assert pinned_figures("jacobi", True, "ranges") == {
        "virtual_s": virtual_s, "messages": messages, "bytes": nbytes,
        "counters": counters, "sha": sha,
    }
    for label, rank, ops in executions:
        names = [op.name for op in ops if isinstance(op, Count)]
        assert len(names) == len(set(names)), (label, rank, names)
    relax_by_rank = {}
    for label, rank, ops in executions:
        if label == "jacobi-relax":
            relax_by_rank.setdefault(rank, []).append(ops)
    warm_relax = [ops for runs in relax_by_rank.values() for ops in runs[1:]]
    assert len(warm_relax) == 2 * 4         # 4 ranks, 3 sweeps
    sends = sum(isinstance(op, Send) for ops in warm_relax for op in ops)
    assert sends > len(warm_relax)      # several messages, one Count each
    for ops in warm_relax:
        names = [op.name for op in ops if isinstance(op, Count)]
        assert set(names) <= {"executor_elems_sent", "executor_elems_recv",
                              "executor_remote_refs", "executor_iters",
                              "executor_local_refs"}


def _plan_arrays(plan):
    for batch in (plan.local, plan.nonlocal_):
        yield batch.iters
        for pos, counts, live in batch.gathers:
            yield pos
            if counts is not None:
                yield counts
                yield live
        yield from batch.targets
    for grouping in plan.sends:
        for _q, _tag, items in grouping:
            yield from items.values()


def test_plan_arrays_are_read_only(compiled):
    prog = build_jacobi(five_point_grid(8, 8), 4)
    prog.run(2)
    assert compiled
    for _label, _rank, schedule, plan in compiled:
        arrays = list(_plan_arrays(plan))
        assert arrays and not any(a.flags.writeable for a in arrays)
        assert schedule.exec_local.flags.writeable   # the schedule's own copy


def test_kernel_writing_into_a_plan_array_fails_on_first_execution():
    """A kernel that zeroes ``nb.counts`` would silently change every
    later sweep of the schedule (and of the next pool job reusing it)."""
    calls = []

    def vandal(iters, ops):
        calls.append(iters.size)
        ops["neighbours"].counts[:] = 0
        return ops["a_i"]

    prog = build_jacobi(five_point_grid(6, 6), 2)
    loop = dataclasses.replace(prog.relax_loop, kernel=vandal)

    def program(kr):
        yield from kr.forall(loop)

    with pytest.raises(ValueError, match="read-only"):
        prog.ctx.run(program)
    assert len(calls) == 1


def _workspace_calls(monkeypatch):
    """Names of the arrays ``_workspace`` is called for, matched by data
    identity against the envs ``compile_plan`` saw."""
    names, calls = {}, []
    original_compile, original_workspace = executor.compile_plan, executor._workspace

    def compile_spy(forall, env, schedule):
        names.update({id(arr.data): name for name, arr in env.items()})
        return original_compile(forall, env, schedule)

    def workspace_spy(data, pad):
        calls.append(names[id(data)])
        return original_workspace(data, pad)

    monkeypatch.setattr(executor, "compile_plan", compile_spy)
    monkeypatch.setattr(executor, "_workspace", workspace_spy)
    return calls


@pytest.mark.parametrize("layout", ["block", "rcb"])
def test_workspaces_only_where_data_lands(monkeypatch, compiled, layout):
    """Only ``old_a`` (received, and read through dead slots) gets a
    workspace; ``coef``, ``a`` and the copy loop's reads ``take`` from
    local rows."""
    calls = _workspace_calls(monkeypatch)
    sweeps, p = 3, 4
    mesh, rcb = _rcb_grid(12, 12, p)
    init = np.random.default_rng(5).random(mesh.n)
    prog = build_jacobi(mesh, p, initial=init,
                        dist=rcb if layout == "rcb" else Block())
    prog.run(sweeps)
    np.testing.assert_allclose(prog.solution, _reference(mesh, init, sweeps))
    landing = 0
    for label, _rank, schedule, plan in compiled:
        if label == "jacobi-copy":
            assert plan.workspaces == ()
            continue
        iters = np.concatenate([schedule.exec_local, schedule.exec_nonlocal])
        dead = (mesh.count[iters] < mesh.width).any()
        receives = schedule.arrays["old_a"].buffer_len > 0
        assert plan.workspaces == (("old_a",) if dead or receives else ())
        landing += bool(dead or receives)
    assert landing and calls == ["old_a"] * (sweeps * landing)


@pytest.mark.parametrize("case", ["in-block", "dead-slot", "crossing"])
def test_indirect_read_workspace_follows_the_data(monkeypatch, case):
    """Two permutations inside each block: no receive buffer and no dead
    slot, so no workspace.  A dead slot on rank 1 needs the zero row, a
    reference across blocks the receive buffer — each only on that rank."""
    calls = _workspace_calls(monkeypatch)
    n, p = 16, 4
    reversed_blocks = np.arange(n).reshape(p, -1)[:, ::-1].ravel()
    table = np.stack([reversed_blocks, np.arange(n)], axis=1)
    count = np.full(n, 2)
    if case == "dead-slot":
        count[5] = 1                        # rank 1
    elif case == "crossing":
        table[0, 1] = n - 1                 # rank 0 receives from rank 3
    x = np.arange(1.0, n + 1)
    ctx = KaliContext(p, machine=IDEAL)
    ctx.array("x", n, dist=[Block()]).set(x)
    ctx.array("y", n, dist=[Block()]).set(np.zeros(n))
    ctx.array("count", n, dist=[Block()], dtype=np.int64).set(count)
    ctx.array("table", (n, 2), dist=[Block(), Replicated()],
              dtype=np.int64).set(table)
    loop = Forall(index_range=(0, n - 1), on=OnOwner("y"),
                  reads=[IndirectRead("x", table="table", count="count",
                                      name="xt")],
                  writes=[AffineWrite("y")],
                  kernel=lambda i, o: (o["xt"].values * o["xt"].live).sum(axis=1),
                  label="permute")

    def program(kr):
        yield from kr.forall(loop)
        yield from kr.forall(loop)

    ctx.run(program)
    live = np.arange(2)[None, :] < count[:, None]
    np.testing.assert_array_equal(ctx.arrays["y"].data,
                                  np.where(live, x[table], 0.0).sum(axis=1))
    assert calls == ([] if case == "in-block" else ["x", "x"])


@pytest.mark.parametrize("count", ["count", None])
def test_live_mask_is_compiled_for_both_batches(count):
    n, p, width = 16, 4, 3
    # even rows read their own block, odd rows the next one: every rank
    # has a local and a nonlocal batch
    i = np.arange(n)
    base = i - i % 4 + 4 * (i % 2)
    table = (base[:, None] + np.arange(width)[None, :]) % n
    counts = i % (width + 1)
    seen = []

    def kernel(iters, ops):
        nb = ops["nb"]
        expected = np.arange(width)[None, :] < nb.counts[:, None]
        assert nb.live.dtype == bool and nb.live.shape == nb.values.shape
        np.testing.assert_array_equal(nb.live, expected)
        if count is None:
            assert nb.live.all()
        seen.append(iters.size)
        return (nb.values * nb.live).sum(axis=1)

    ctx = KaliContext(p, machine=IDEAL)
    ctx.array("x", n, dist=[Block()]).set(np.arange(1.0, n + 1))
    ctx.array("y", n, dist=[Block()]).set(np.zeros(n))
    ctx.array("count", n, dist=[Block()], dtype=np.int64).set(counts)
    ctx.array("table", (n, width), dist=[Block(), Replicated()],
              dtype=np.int64).set(table)
    loop = Forall(index_range=(0, n - 1), on=OnOwner("y"),
                  reads=[IndirectRead("x", table="table", count=count,
                                      name="nb")],
                  writes=[AffineWrite("y")], kernel=kernel, label="live")

    def program(kr):
        yield from kr.forall(loop)
        yield from kr.forall(loop)

    ctx.run(program)
    live = (np.arange(width)[None, :] < counts[:, None] if count
            else np.ones((n, width), dtype=bool))
    np.testing.assert_array_equal(
        ctx.arrays["y"].data, np.where(live, table + 1.0, 0.0).sum(axis=1))
    # both batches, cold and warm, on every rank
    assert len(seen) == 2 * 2 * p and sum(seen) == 2 * n


def _seeded_packets(rank):
    rng = np.random.default_rng(100 + rank.id)
    dests = rng.choice(rank.size, size=rng.integers(1, rank.size),
                       replace=False)
    return {int(q): rng.random(int(rng.integers(1, 9))) for q in dests}


def test_crystal_counts_once_per_route_with_the_same_totals():
    from repro.comm.crystal import crystal_route
    from repro.machine.engine import Engine
    from repro.machine.topology import Hypercube

    ops = {}

    def program(rank):
        got = yield from _recorded(
            crystal_route(rank, _seeded_packets(rank), tag=3),
            ops.setdefault(rank.id, []))
        return sorted(got)

    res = Engine(NCUBE7, topology=Hypercube(8)).run(program)
    # recorded at the parent commit, which counted once per stage
    assert res.counter_sum("crystal_rounds") == 24
    assert res.counter_sum("crystal_bytes") == 2240
    assert [s.counters["crystal_bytes"] for s in res.stats] == [
        416, 312, 348, 244, 268, 296, 184, 172]
    assert float(res.makespan).hex() == "0x1.263bbfc9af0b2p-1"
    for rank_ops in ops.values():
        assert [op.name for op in rank_ops if isinstance(op, Count)] == [
            "crystal_rounds", "crystal_bytes"]


def _trace_digest(events):
    def hexed(v):
        return None if v is None else float(v).hex()

    rows = [(e.rank, e.kind, hexed(e.start), hexed(e.end), e.phase, e.peer,
             e.tag, e.nbytes, e.label, e.seq, hexed(e.busy_start))
            for e in events]
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()


#: (events, sha256 of their fields) of a traced 3-sweep 4-rank Jacobi on a
#: 12x12 grid, recorded at the parent commit with ``_trace_digest``
TRACE_GOLDEN = {
    "block": (164, "e98f30aef9079582f68cca0d77252e9efb545c693d1b344953fb462864d1bb3b"),
    "rcb": (212, "d9155461f575411655d98b7fa45c1cf4663b9a2716df1cbb912324cbb1c34cdb"),
}


@pytest.mark.parametrize("layout", sorted(TRACE_GOLDEN))
def test_trace_events_are_unchanged(layout):
    mesh = five_point_grid(12, 12)
    points = np.stack(np.divmod(np.arange(mesh.n), 12), axis=1).astype(float)
    dist = (Custom(coordinate_bisection(points, 4)) if layout == "rcb"
            else Block())
    prog = build_jacobi(mesh, 4, machine=NCUBE7, trace=True, dist=dist,
                        initial=np.random.default_rng(7).random(mesh.n))
    assert _trace_digest(prog.run(3).engine.trace) == TRACE_GOLDEN[layout]


# --- aligned affine reads skip the owner search -------------------------------


def _mixed_reads(n=32, p=4, **options):
    """A loop on ``C[i]`` reading ``A[i]`` (aligned), ``A[i+1]`` (another
    map) and ``B[i]`` (same map, cyclic instead of block): only the first
    is local by construction."""
    ctx = KaliContext(p, machine=IDEAL, **options)
    rng = np.random.default_rng(12)
    a, b = rng.random(n), rng.random(n)
    ctx.array("A", n, dist=[Block()]).set(a)
    ctx.array("B", n, dist=[Cyclic()]).set(b)
    ctx.array("C", n, dist=[Block()]).set(np.zeros(n))
    loop = Forall(index_range=(0, n - 2), on=OnOwner("C"),
                  reads=[AffineRead("A", Affine(1, 0), name="here"),
                         AffineRead("A", Affine(1, 1), name="next"),
                         AffineRead("B", Affine(1, 0), name="other")],
                  writes=[AffineWrite("C")],
                  kernel=lambda i, o: o["here"] + o["next"] + o["other"],
                  label="mixed")

    def run():
        def program(kr):
            yield from kr.forall(loop)

        ctx.run(program)
        expected = np.zeros(n)
        expected[:-1] = a[:-1] + a[1:] + b[:-1]
        np.testing.assert_array_equal(ctx.arrays["C"].data, expected)

    return run


def _jacobi_run(layout, **options):
    mesh, rcb = _rcb_grid(12, 12, 4)
    dist = {"block": Block(), "cyclic": Cyclic(), "rcb": rcb}[layout]
    init = np.random.default_rng(13).random(mesh.n)
    prog = build_jacobi(mesh, 4, dist=dist, initial=init, **options)

    def run():
        prog.run(2)
        np.testing.assert_allclose(prog.solution, _reference(mesh, init, 2))

    return run


def _plan_bytes(plan):
    """Every array and count of a plan, as comparable plain data."""
    def raw(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    out = [plan.max_ranges, plan.workspaces]
    for batch in (plan.local, plan.nonlocal_):
        out += [raw(batch.iters), batch.n_local, batch.n_remote, batch.n_indirect]
        out += [tuple(raw(a) for a in gather) for gather in batch.gathers]
        out += [raw(t) for t in batch.targets]
    for grouping in (*plan.sends, *plan.recvs):
        out += [(q, tag, {k: raw(v) if isinstance(v, np.ndarray) else v
                          for k, v in items.items()})
                for q, tag, items in grouping]
    return out


@pytest.mark.parametrize("case", ["block", "cyclic", "rcb", "misaligned"])
def test_aligned_reads_compile_the_same_plan_without_the_owner_search(
        monkeypatch, case):
    """``compile_plan`` resolves a read that ``statically_local`` proves
    local from its local offsets alone; the plan is byte-identical to the
    one the owner search and translation table produce."""
    run = _mixed_reads() if case == "misaligned" else _jacobi_run(case)
    compile_plan, positions = executor.compile_plan, executor._positions
    compiled, searched = [], []

    def compile_spy(forall, env, schedule):
        plan = compile_plan(forall, env, schedule)
        compiled.append((forall, env, schedule, plan))
        return plan

    def positions_spy(arr, asched, ref):
        searched.append(arr.name)
        return positions(arr, asched, ref)

    monkeypatch.setattr(executor, "compile_plan", compile_spy)
    monkeypatch.setattr(executor, "_positions", positions_spy)
    run()
    assert compiled
    with_shortcut = len(searched)
    del searched[:]
    # Both places the proof is used: classify (reads), compile_plan (writes).
    monkeypatch.setattr(inspector, "statically_local", lambda *args: False)
    monkeypatch.setattr(executor, "statically_local", lambda *args: False)
    for forall, env, schedule, plan in compiled:
        assert _plan_bytes(compile_plan(forall, env, schedule)) == _plan_bytes(plan)
    assert 0 < with_shortcut < len(searched)
    if case == "misaligned":            # A[i+1] and B[i] still search
        assert set(searched) == {"A", "B"}
        assert with_shortcut * 3 == len(searched) * 2


# --- the inspector's classification reaches compile_plan ----------------------


@pytest.mark.parametrize("translation", ["ranges", "enumerated"])
@pytest.mark.parametrize("case", ["block", "cyclic", "rcb", "misaligned"])
def test_handed_classification_compiles_the_plan_a_pickled_schedule_does(
        monkeypatch, case, translation):
    """A schedule that arrives with the inspector's classification and the
    same schedule round-tripped through pickle (no classification: the
    disk tier's case) compile byte-identical plans."""
    run = (_mixed_reads(translation=translation, force_strategy=Strategy.RUNTIME)
           if case == "misaligned" else _jacobi_run(case, translation=translation))
    compile_plan = executor.compile_plan
    compiled = []

    def compile_spy(forall, env, schedule):
        clone = pickle.loads(pickle.dumps(schedule))
        handed = schedule.classification is not None
        plan = compile_plan(forall, env, schedule)
        compiled.append((forall, env, clone, handed, plan))
        return plan

    monkeypatch.setattr(executor, "compile_plan", compile_spy)
    run()
    handed = [c for c in compiled if c[3]]
    # Jacobi's relax loop is inspected on all 4 ranks, and so is its copy
    # loop under RCB (no closed form); the misaligned loop is by force.
    assert len(handed) == (8 if case == "rcb" else 4)
    for forall, env, clone, _handed, plan in compiled:
        assert clone.classification is None and clone.plan is None
        assert _plan_bytes(compile_plan(forall, env, clone)) == _plan_bytes(plan)


def test_classification_is_dropped_by_the_first_execution(monkeypatch):
    seen = []
    compile_plan = executor.compile_plan

    def compile_spy(forall, env, schedule):
        seen.append((schedule, schedule.classification is not None))
        return compile_plan(forall, env, schedule)

    monkeypatch.setattr(executor, "compile_plan", compile_spy)
    _jacobi_run("rcb")()
    assert sum(handed for _schedule, handed in seen) == 8
    for schedule, _handed in seen:
        assert schedule.classification is None
        assert schedule.plan is not None


if __name__ == "__main__":      # re-record GOLDEN: PYTHONPATH=<tree>/src:. python <this file>
    for _case in sorted(PINNED_CASES):
        for _combine in (True, False):
            for _translation in ("ranges", "enumerated"):
                print(_case, _combine, _translation,
                      pinned_figures(_case, _combine, _translation))
