"""Micro-benchmarks of the runtime's host-side building blocks.

These time the actual Python/NumPy implementation (not virtual time):
inspector classification throughput, executor sweep throughput,
translation-table lookups and the compiled-plan gather that replaces them
on warm sweeps, the Jacobi kernel, the kernel the Kali compiler generates
for Figure 4's relax loop and the plan compiled for it, the crystal
router, the engine's dispatch of a warm sweep's op mix, and the hash
table's ``LocalStore`` batch apply.  Useful for tracking performance
regressions of the simulator itself.
"""

import numpy as np
import pytest

from repro.apps.jacobi import build_jacobi, relax_kernel
from repro.core.forall import IndirectOperand
from repro.machine.cost import NCUBE7
from repro.machine.engine import Engine
from repro.machine.topology import Hypercube
from repro.meshes.regular import five_point_grid
from repro.runtime.schedule import ArraySchedule, coalesce_ranges
from repro.structs.dhash import LocalStore


def test_jacobi_sweep_throughput(benchmark):
    """Host wall-time of one full simulated sweep (128x128, P=16)."""
    mesh = five_point_grid(128, 128)
    prog = build_jacobi(mesh, 16, machine=NCUBE7)
    prog.run(sweeps=1)  # warm: builds and caches nothing across runs

    def sweep():
        p = build_jacobi(mesh, 16, machine=NCUBE7)
        p.run(sweeps=1)

    benchmark.pedantic(sweep, rounds=3, iterations=1)


def test_inspector_classification_rate(benchmark):
    """Vectorised owner-classification of 65k references."""
    from repro.distributions import Block

    dist = Block().bind(1 << 16, 64)
    refs = np.random.default_rng(0).integers(0, 1 << 16, size=1 << 16)

    def classify():
        owners = dist.owner(refs)
        return (owners != 7).sum()

    benchmark(classify)


def _remote_references():
    """A 1000-range translation table and 10k (proc, offset) references
    into it."""
    rng = np.random.default_rng(1)
    offsets = {}
    for q in range(16):
        offsets[q] = np.unique(rng.integers(0, 10000, size=500))
    records = coalesce_ranges(offsets, me=0, incoming=True)
    sched = ArraySchedule(array="x", in_records=records)
    sched.finalize()
    offs = np.concatenate([
        rng.choice(offsets[q], size=625) for q in range(16)
    ])
    procs = np.repeat(np.arange(16), 625)
    return sched, procs, offs


def test_translation_lookup_rate(benchmark):
    """Vectorised O(log r) lookups over a 1000-range table."""
    sched, procs, offs = _remote_references()

    benchmark(lambda: sched.translation.lookup(procs, offs))


def test_plan_gather_rate(benchmark):
    """The same references through a compiled gather index: the lookups
    above happen once, at plan-compile time, and every later sweep is one
    ``take`` from the workspace [local rows ‖ receive buffer ‖ zero row]."""
    sched, procs, offs = _remote_references()
    n_local = 10000
    gather = n_local + sched.translation.lookup(procs, offs)
    workspace = np.random.default_rng(2).random(n_local + sched.buffer_len + 1)

    benchmark(lambda: np.take(workspace, gather, axis=0))


def test_relax_kernel_rate(benchmark):
    """The Jacobi relaxation kernel on one 512x20 batch, masked with the
    plan's compiled ``live`` (nothing rebuilt per call)."""
    rng = np.random.default_rng(3)
    n, width = 512, 20
    counts = rng.integers(0, width + 1, size=n)
    live = np.arange(width)[None, :] < counts[:, None]
    ops = {
        "neighbours": IndirectOperand(np.where(live, rng.random((n, width)), 0.0),
                                      counts, live),
        "coef_i": rng.random((n, width)),
        "a_i": rng.random(n),
    }
    iters = np.arange(n)

    benchmark(lambda: relax_kernel(iters, ops))


#: the paper's Figure 4 (its relax forall is the second statement in the
#: sweep loop)
FIGURE4 = """
processors Procs : array[1..P] with P in 1..n;
const n : integer;  const width : integer;  const nsweeps : integer;
var a, old_a : array[1..n] of real dist by [ block ] on Procs;
    count    : array[1..n] of integer dist by [ block ] on Procs;
    adj      : array[1..n, 1..width] of integer dist by [ block, * ] on Procs;
    coef     : array[1..n, 1..width] of real dist by [ block, * ] on Procs;
var sweep : integer;
for sweep in 1..nsweeps do
    forall i in 1..n on old_a[i].loc do old_a[i] := a[i]; end;
    forall i in 1..n on a[i].loc do
        var x : real;
        x := 0.0;
        for j in 1..count[i] do
            x := x + coef[i,j] * old_a[ adj[i,j] ];
        end;
        if (count[i] > 0) then a[i] := x; end;
    end;
end;
"""


def test_kali_relax_kernel_rate(benchmark):
    """Figure 4's relax forall through the Kali lowering — the kernel
    generated from its body — on one 500x20 batch."""
    from repro.lang import ast, parse
    from repro.lang.lower import ArrayInfo, lower_forall
    from repro.lang.sema import analyze

    n, width, rows = 500, 20, 4000
    program = parse(FIGURE4)
    relax = next(s for s in ast.walk_stmts(program.stmts)
                 if isinstance(s, ast.ForallStmt) and s.local_decls)
    arrays = {name: ArrayInfo(name, (1,) * len(ext), ext, True, elem)
              for name, ext, elem in [("a", (rows,), "real"), ("old_a", (rows,), "real"),
                                      ("count", (rows,), "integer"),
                                      ("adj", (rows, width), "integer"),
                                      ("coef", (rows, width), "real")]}
    loop = lower_forall(relax, analyze(program), arrays,
                        {"n": rows, "width": width, "nsweeps": 1, "sweep": 1},
                        {}, "relax")
    rng = np.random.default_rng(4)
    counts = rng.integers(0, width + 1, size=n)
    live = np.arange(width)[None, :] < counts[:, None]
    ops = {}
    for read in loop.reads:
        if read.array == "old_a":
            ops[read.name] = IndirectOperand(
                np.where(live, rng.random((n, width)), 0.0), counts, live)
        elif read.array == "count":
            ops[read.name] = counts
        else:
            ops[read.name] = rng.random((n, width) if read.array == "coef" else n)
    iters = np.arange(n)

    benchmark(lambda: loop.kernel(iters, ops))


def test_compile_plan_rate(benchmark):
    """``compile_plan`` for Figure 4's relax forall on all 8 ranks of a
    4096-node mesh: the per-schedule cost a cold Kali run pays once."""
    from repro.lang import compile_kali
    from repro.runtime import executor

    mesh = five_point_grid(64, 64)
    captured = []
    original = executor.compile_plan

    def capture(forall, env, schedule):
        if forall.reads and any(r.array == "old_a" for r in forall.reads):
            captured.append((forall, env, schedule))
        return original(forall, env, schedule)

    executor.compile_plan = capture
    try:
        compile_kali(FIGURE4).run(
            nprocs=8, machine=NCUBE7,
            consts={"n": mesh.n, "width": mesh.width, "nsweeps": 1},
            inputs={"a": np.ones(mesh.n), "count": mesh.count,
                    "adj": mesh.adj + 1, "coef": mesh.coef})
    finally:
        executor.compile_plan = original
    assert len(captured) == 8

    benchmark(lambda: [original(*args) for args in captured])


def test_crystal_router_wall_time(benchmark):
    """64-rank crystal router all-to-all on the simulator."""
    from repro.comm.crystal import crystal_route

    def route():
        def prog(rank):
            out = {q: np.arange(8) for q in range(rank.size)}
            got = yield from crystal_route(rank, out)
            return len(got)

        res = Engine(NCUBE7, topology=Hypercube(64)).run(prog)
        assert all(v == 64 for v in res.values)

    benchmark.pedantic(route, rounds=3, iterations=1)


def test_engine_message_rate(benchmark):
    """Raw engine throughput: 10k point-to-point messages."""
    from repro.machine.api import Recv, Send

    def run():
        def prog(rank):
            if rank.id == 0:
                for i in range(5000):
                    yield Send(dest=1, payload=i, tag=0)
            else:
                for _ in range(5000):
                    yield Recv(source=0, tag=0)

        Engine(NCUBE7, topology=Hypercube(2)).run(prog)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_engine_warm_sweep_dispatch_rate(benchmark):
    """Host cost of the engine handing a warm Jacobi sweep's op mix
    around, with no executor work behind it: 16 ranks, each sweep one
    ``Compute`` per loop phase, a ``Compute`` + ``Send`` and a ``Recv`` +
    ``Compute`` per neighbour, and one ``Count`` per counter — about the
    33 ops per rank per sweep of ``jacobi-warm-sim``."""
    from repro.machine.api import Compute, Count, Recv, Send

    sweeps, nranks = 50, 16

    def prog(rank):
        peers = sorted({(rank.id + d) % nranks for d in (-4, -1, 1, 4)})
        for sweep in range(sweeps):
            for loop in range(2):               # copy, then relax
                yield Count("schedule_cache_hits", 1)
                if loop:
                    for q in peers:
                        yield Compute(1e-6)
                        yield Send(dest=q, payload=None, tag=sweep, nbytes=64)
                    yield Count("executor_elems_sent", 4 * len(peers))
                yield Compute(1e-5)             # local iterations
                if loop:
                    for q in peers:
                        yield Recv(source=q, tag=sweep)
                        yield Compute(1e-6)
                    yield Count("executor_elems_recv", 4 * len(peers))
                    yield Compute(1e-5)         # nonlocal iterations
                    yield Count("executor_remote_refs", 8)
                yield Compute(1e-6)             # commit
                yield Count("executor_iters", 64)
                yield Count("executor_local_refs", 200)

    def run():
        Engine(NCUBE7, nranks=nranks).run(prog)

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("nkeys", [512, 8192])
@pytest.mark.parametrize("op", ["lookup", "insert", "delete"])
def test_local_store_apply_rate(benchmark, op, nkeys):
    """One ``LocalStore.apply`` batch against a 32k-entry, load-factor-4
    store: ``nkeys`` hits for lookup / insert (upsert) / delete."""
    rng = np.random.default_rng(2)
    resident = rng.permutation(1 << 20)[:1 << 15].astype(np.int64)
    values = rng.standard_normal(len(resident))
    batch = resident[rng.permutation(len(resident))[:nkeys]]
    vals = None if op != "insert" else np.ones(nkeys)

    def fresh():
        store = LocalStore()
        store.apply("insert", resident % 8192, resident, values)
        return (store,), {}

    def apply(store):
        found, _, _ = store.apply(op, batch % 8192, batch, vals)
        assert found.all()

    benchmark.pedantic(apply, setup=fresh, rounds=5, iterations=1)
