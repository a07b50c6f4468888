"""The cold forall does its host work once and changes nothing it builds.

A cold Kali op parses its source, inspects every forall, crystal-routes
the requests, compiles the plans and scatters and gathers the arrays.
Two contracts are pinned here:

* the compile memo — ``compile_kali`` hands one :class:`CompiledKali`
  per source text to every caller in the process, bounded, never for a
  source that fails, and a memoised program runs exactly like a fresh
  one (arrays, scalars and ``.hex()`` clocks, on the simulator and on
  real processes);
* the schedules — for operands laid out block, cyclic, block_cyclic(3),
  custom and ``[block, *]`` at P = 1, 2, 3, 4 and 8 (the crystal router
  and, at P = 3, the pairwise all-to-all), every rank's in/out records,
  translation-table arrays, plan gathers, send indices, receive offsets,
  counters and hex clocks digest to values recorded before the inspector
  and the plan compiler located each reference once and built every
  peer's ranges in one pass.

Re-pin after an *intended* change with
``PYTHONPATH=src python -m tests.test_cold_path``, which prints a fresh
table.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Dict

import numpy as np
import pytest

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
from repro.distributions import Block, BlockCyclic, Custom, Cyclic, Replicated
from repro.errors import InspectorError, KaliSyntaxError
from repro.lang import interp
from repro.lang.interp import CompiledKali, compile_kali
from repro.machine.cost import NCUBE7
from repro.meshes.regular import five_point_grid
from repro.runtime import executor
from repro.runtime.schedule import ArraySchedule, RangeRecord
from tests.test_kali_programs import TestFigure4

pytestmark = pytest.mark.timeout(300)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


# --- (a) a source compiles once per process ---------------------------------


def _outcome(result, backend):
    """Arrays, scalars, output, traffic and counters, and on the
    simulator the hex rank clocks (real processes keep wall-clock)."""
    engine = result.timing.engine
    arrays = {name: (a.dtype.str, a.shape, a.tobytes())
              for name, a in sorted(result.arrays.items())}
    counters = sorted((s.rank, sorted(s.counters.items()))
                      for s in engine.stats)
    clocks = ([float(c).hex() for c in engine.clocks]
              if backend == "sim" else None)
    return (arrays, sorted(result.scalars.items()), list(result.output),
            clocks, engine.total_messages(), engine.total_bytes(), counters)


def test_one_source_compiles_once():
    src = TestFigure4.SRC
    first = compile_kali(src)
    assert compile_kali(src) is first
    assert compile_kali(src + "\n") is not first


def test_the_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(interp, "_COMPILED",
                        interp.LRU(interp.COMPILED_ENTRIES))
    first = compile_kali(TestFigure4.SRC)
    for k in range(interp.COMPILED_ENTRIES):
        compile_kali(TestFigure4.SRC + "\n" * (k + 1))
    assert len(interp._COMPILED) == interp.COMPILED_ENTRIES
    assert compile_kali(TestFigure4.SRC) is not first


def test_a_bad_source_raises_on_every_call(monkeypatch):
    calls = []
    parse = interp.parse

    def counting(source):
        calls.append(source)
        return parse(source)

    monkeypatch.setattr(interp, "parse", counting)
    bad = "program broken; begin x := ; end."
    for _ in range(3):
        with pytest.raises(KaliSyntaxError):
            compile_kali(bad)
    assert len(calls) == 3


@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_a_memoised_program_runs_like_a_fresh_one(backend):
    """One memoised program run with other consts, inputs and processor
    counts gives what a fresh ``CompiledKali`` gives (hex clocks on the
    simulator; real processes clock wall time), and its AST and symbol
    table are as they were."""
    src = TestFigure4.SRC
    shared = compile_kali(src)
    before = pickle.dumps((shared.program, shared.table))
    runs = [(4, 8, 2), (2, 6, 3), (4, 6, 1)]
    if backend == "sim":
        runs.append((8, 8, 2))
    for nprocs, side, sweeps in runs:
        mesh = five_point_grid(side, side)
        kwargs = dict(
            nprocs=nprocs, machine=NCUBE7, backend=backend,
            consts={"n": mesh.n, "width": mesh.width, "nsweeps": sweeps},
            inputs={"a": np.random.default_rng(side).random(mesh.n),
                    "count": mesh.count, "adj": mesh.adj + 1,
                    "coef": mesh.coef})
        got = shared.run(**kwargs)
        want = CompiledKali(src).run(**kwargs)
        assert _outcome(got, backend) == _outcome(want, backend)
    assert compile_kali(src) is shared
    assert pickle.dumps((shared.program, shared.table)) == before


# --- a reference is located once, and a bad one is the forall's error -------


@pytest.mark.parametrize("dist", [Block(), Custom(np.arange(12) % 2)],
                         ids=["block", "custom"])
def test_a_subscript_outside_the_array_is_an_inspector_error(dist):
    """``classify`` locates each reference with one bounds check; a live
    indirection outside the array raises the forall's own error, while
    garbage in a dead slot is never looked at."""
    n = 12
    ctx = KaliContext(2, machine=NCUBE7)
    ctx.array("y", n, dist=[Block()]).set(np.zeros(n))
    ctx.array("x", n, dist=[dist]).set(np.ones(n))
    adj = np.tile([1, 10**6], (n, 1))
    ctx.array("adj", (n, 2), dist=[Block(), Replicated()],
              dtype=np.int64).set(adj)
    cnt = ctx.array("cnt", n, dist=[Block()], dtype=np.int64)
    cnt.set(np.ones(n, dtype=np.int64))     # the 10**6 column is dead
    loop = Forall(index_range=(0, n - 1), on=OnOwner("y"),
                  reads=[IndirectRead("x", "adj", count="cnt", name="nb")],
                  writes=[AffineWrite("y")],
                  kernel=lambda iters, o: o["nb"].values[:, 0],
                  label="oob")

    def program(kr):
        yield from kr.forall(loop)

    ctx.run(program)
    assert np.array_equal(ctx.arrays["y"].data, np.ones(n))
    cnt.set(np.full(n, 2, dtype=np.int64))  # now it is live
    with pytest.raises(InspectorError, match="oob: indirection nb points "
                                             r"outside the array \(\[1, 1000000\]\)"):
        ctx.run(program)


# --- every peer's send index from one range expansion -----------------------


def _reference_send_indices(asched):
    """A ``np.arange`` per record, concatenated per peer, then ``_index``."""
    peers = sorted({r.to_proc for r in asched.out_records})
    return {q: executor._index(np.concatenate(
        [np.arange(r.low, r.high + 1) for r in asched.out_records
         if r.to_proc == q])) for q in peers}


@pytest.mark.parametrize("seed", range(20))
def test_send_indices_match_a_per_record_expansion(seed):
    """Gaps, abutting blocks (one run though two records) and single
    records, for up to five peers."""
    rng = np.random.default_rng(seed)
    records = []
    for q in sorted(rng.choice(6, rng.integers(1, 6), replace=False)):
        low = int(rng.integers(0, 4))
        for _ in range(int(rng.integers(1, 4))):
            high = low + int(rng.integers(0, 3))
            records.append(RangeRecord(from_proc=0, to_proc=int(q),
                                       low=low, high=high))
            low = high + 1 + int(rng.integers(0, 2))   # abut or leave a gap
    asched = ArraySchedule(array="x", out_records=records)
    got = executor._send_indices("loop", asched)
    want = _reference_send_indices(asched)
    assert got.keys() == want.keys()
    for q, idx in got.items():
        if isinstance(want[q], slice):
            assert idx == want[q]
        else:
            assert idx.dtype == want[q].dtype and not idx.flags.writeable
            assert np.array_equal(idx, want[q])


def test_send_indices_refuse_records_out_of_peer_order():
    asched = ArraySchedule(array="x", out_records=[
        RangeRecord(from_proc=0, to_proc=2, low=0, high=1),
        RangeRecord(from_proc=0, to_proc=1, low=4, high=4)])
    with pytest.raises(InspectorError, match="not sorted by peer"):
        executor._send_indices("loop", asched)


# --- each array's piece index is cut once per (layout, rank) ----------------


def _counting_local_indices(monkeypatch):
    calls = []
    for cls in (Block, Cyclic, Custom):
        original = cls.local_indices

        def counting(self, proc, _original=original):
            calls.append(proc)
            return _original(self, proc)

        monkeypatch.setattr(cls, "local_indices", counting)
    return calls


def test_a_piece_index_is_computed_once_per_layout_and_rank(monkeypatch):
    """``scatter``, ``piece_changed`` and ``gather_from`` share one piece
    index per (distribution, rank); it is not pickled, and a program
    that redistributes comes home under the new layout's indices."""
    n, p = 30, 3
    ctx = KaliContext(p, machine=NCUBE7)
    arr = ctx.array("A", n, dist=[Block()])
    arr.set(np.arange(n, dtype=float))

    def idle(kr):
        yield from ()

    def move(kr):
        yield from kr.redistribute("A", Cyclic())

    calls = _counting_local_indices(monkeypatch)
    ctx.run(idle)                           # scatter + piece_changed
    ctx.run(idle)
    assert sorted(calls) == list(range(p))
    assert "_pieces" not in pickle.loads(pickle.dumps(arr)).__dict__
    before = arr.dist
    ctx.run(move)                           # gather_from adopts Cyclic
    assert arr.dist is not before and arr._pieces[0] is arr.dist
    assert np.array_equal(arr.data, np.arange(n))
    del calls[:]
    ctx.run(idle)
    assert calls == []
    for rank in range(p):
        assert np.array_equal(arr.scatter(rank).data,
                              np.arange(rank, n, p, dtype=float))


# --- (b) schedules, plans and clocks are what they were ---------------------

N = 40
LAYOUTS = ["block", "cyclic", "block_cyclic3", "custom", "block_star"]
NPROCS = [1, 2, 3, 4, 8]
STRATEGIES = ["runtime", "default"]


def _dim(layout: str, nprocs: int):
    if layout == "cyclic":
        return Cyclic()
    if layout == "block_cyclic3":
        return BlockCyclic(3)
    if layout == "custom":
        return Custom(np.random.default_rng(7 + nprocs).integers(0, nprocs, N))
    return Block()


def _index(idx):
    if isinstance(idx, slice):
        return ("slice", idx.start, idx.stop)
    return ("vec", idx.dtype.str, idx.tolist())


def _opt(arr):
    return None if arr is None else (arr.dtype.str, arr.tolist())


def _schedule_record(schedule, plan):
    arrays = []
    for name, a in sorted(schedule.arrays.items()):
        t = a.translation
        arrays.append((
            name,
            [(r.from_proc, r.to_proc, r.low, r.high, r.buffer_start)
             for r in a.in_records],
            [(r.from_proc, r.to_proc, r.low, r.high, r.buffer_start)
             for r in a.out_records],
            a.buffer_len,
            (t.range_keys_low.tolist(), t.range_high.tolist(),
             t.buffer_starts.tolist()),
        ))
    messages = [[(q, tag, {k: v if isinstance(v, tuple) else _index(v)
                           for k, v in items.items()})
                 for q, tag, items in grouping]
                for grouping in (*plan.sends, *plan.recvs)]
    batch = plan.batch
    gathers = [(_index(pos), _opt(counts), _opt(live))
               for pos, counts, live in batch.gathers]
    return (schedule.label, schedule.rank, schedule.built_by,
            schedule.exec_local.tolist(), schedule.exec_nonlocal.tolist(),
            arrays, messages, gathers, [_index(t) for t in batch.targets],
            batch.iters.tolist(), batch.local_rows.tolist(),
            batch.local, batch.nonlocal_, plan.max_ranges, plan.workspaces)


def _run_case(layout: str, nprocs: int, strategy: str):
    """Two executions of one forall mixing affine and indirect reads of
    an operand laid out ``layout``; returns (compiled plans, run)."""
    rng = np.random.default_rng(1990 + nprocs)
    ctx = KaliContext(nprocs, machine=NCUBE7,
                      force_strategy=(Strategy.RUNTIME
                                      if strategy == "runtime" else None))
    width = 3
    ctx.array("y", N, dist=[Block()]).set(np.zeros(N))
    ctx.array("adj", (N, width), dist=[Block(), Replicated()],
              dtype=np.int64).set(rng.integers(0, N, (N, width)))
    ctx.array("cnt", N, dist=[Block()], dtype=np.int64).set(
        rng.integers(0, width + 1, N))
    reads = []
    if layout == "block_star":
        ctx.array("x", (N, 2), dist=[Block(), Replicated()]).set(
            rng.random((N, 2)))
        ctx.array("w", N, dist=[Cyclic()]).set(rng.random(N))
        reads = [AffineRead("x", Affine(1, -1), name="xl"),
                 AffineRead("x", Affine(1, 1), name="xr"),
                 IndirectRead("w", "adj", count="cnt", name="nb")]

        def kernel(iters, o):
            return (o["xl"].sum(axis=1) + 2.0 * o["xr"][:, 0]
                    + (o["nb"].values * o["nb"].live).sum(axis=1))
    else:
        ctx.array("x", N, dist=[_dim(layout, nprocs)]).set(rng.random(N))
        reads = [AffineRead("x", Affine(1, -1), name="xl"),
                 AffineRead("x", Affine(1, 1), name="xr"),
                 AffineRead("y", name="yi"),
                 IndirectRead("x", "adj", count="cnt", name="nb")]

        def kernel(iters, o):
            return (o["xl"] + 2.0 * o["xr"] + o["yi"]
                    + (o["nb"].values * o["nb"].live).sum(axis=1))
    if strategy == "default":
        reads = [r for r in reads if not isinstance(r, IndirectRead)]
        base = kernel

        def kernel(iters, o):
            o = dict(o)
            o["nb"] = _Zero(len(iters))
            return base(iters, o)

    loop = Forall(index_range=(1, N - 2), on=OnOwner("y"), reads=reads,
                  writes=[AffineWrite("y")], kernel=kernel,
                  label=f"cold-{layout}")
    compiled = []
    compile_plan = executor.compile_plan

    def spy(forall, env, schedule):
        plan = compile_plan(forall, env, schedule)
        compiled.append(_schedule_record(schedule, plan))
        return plan

    def program(kr):
        for _ in range(2):
            yield from kr.forall(loop)

    executor.compile_plan = spy
    try:
        run = ctx.run(program)
    finally:
        executor.compile_plan = compile_plan
    return compiled, run, ctx.arrays["y"].data


class _Zero:
    """An indirect operand contributing nothing (affine-only variant)."""

    def __init__(self, n):
        self.values = np.zeros((n, 1))
        self.live = np.zeros((n, 1), dtype=bool)


def case_figures(layout: str, nprocs: int, strategy: str) -> Dict[str, str]:
    compiled, run, y = _run_case(layout, nprocs, strategy)
    engine = run.engine
    counters: Dict[str, int] = {}
    for stats in engine.stats:
        for name, amount in stats.counters.items():
            counters[name] = counters.get(name, 0) + int(amount)
    return {
        "schedules": _digest(sorted(compiled, key=lambda r: (r[0], r[1]))),
        "clocks": _digest([float(c).hex() for c in engine.clocks],
                          [sorted((p, float(t).hex())
                                  for p, t in s.phase_time.items())
                           for s in engine.stats]),
        "traffic": _digest(int(engine.total_messages()),
                           int(engine.total_bytes()), sorted(counters.items()),
                           y.tobytes()),
    }


#: recorded at the tree before the one-pass inspector by running this
#: file as a script: per (layout, P, strategy) digests of the schedules
#: and plans, of the rank clocks and phase times, and of the traffic,
#: counters and result
GOLDEN: Dict[tuple, Dict[str, str]] = {
    ('block', 1, 'runtime'): {'schedules': '99a00d5f038cadb2', 'clocks': '83d8092681f305c6', 'traffic': '8625c6758976e79f'},
    ('block', 1, 'default'): {'schedules': '8b73635a123d5f2c', 'clocks': 'c571526739c52dc3', 'traffic': '45d0e2e1ff4c7a35'},
    ('block', 2, 'runtime'): {'schedules': 'aac6de0d1796177d', 'clocks': '3c808e8ed2096d9c', 'traffic': 'bb4e8b4c7e3b96b5'},
    ('block', 2, 'default'): {'schedules': '5e57a04ad0bae564', 'clocks': '605afe5d4b93a5b8', 'traffic': '9918ca8dfd311fb5'},
    ('block', 3, 'runtime'): {'schedules': '6113e1472850668b', 'clocks': 'e3f6659c12ae713a', 'traffic': '223d0d79d2a507e8'},
    ('block', 3, 'default'): {'schedules': '96052a60c0f9bc5b', 'clocks': '46575d90deda77d0', 'traffic': '0237c0ee53654466'},
    ('block', 4, 'runtime'): {'schedules': '3ff199cc75257287', 'clocks': 'b948f6763fa518fb', 'traffic': 'fbd1176a55612c88'},
    ('block', 4, 'default'): {'schedules': 'a371696efdbe5680', 'clocks': '558b453975375ecb', 'traffic': 'db4a66e9ae6e870e'},
    ('block', 8, 'runtime'): {'schedules': 'a9dd8c1bb6f7cff6', 'clocks': '78fe481ee5495e9e', 'traffic': '94976bd337a1fd73'},
    ('block', 8, 'default'): {'schedules': 'ba08f69671a24a9d', 'clocks': '4e61988a1442bfb1', 'traffic': 'ad7511163ee18025'},
    ('cyclic', 1, 'runtime'): {'schedules': 'ae40938047b43f57', 'clocks': '83d8092681f305c6', 'traffic': '8625c6758976e79f'},
    ('cyclic', 1, 'default'): {'schedules': 'a5174e416317eed0', 'clocks': 'c571526739c52dc3', 'traffic': '45d0e2e1ff4c7a35'},
    ('cyclic', 2, 'runtime'): {'schedules': '4f9187f912d9d638', 'clocks': '6f43f7d5ef5ab65a', 'traffic': '411db6827759e4cd'},
    ('cyclic', 2, 'default'): {'schedules': '60a278d5dc85b186', 'clocks': '256fc9694127569d', 'traffic': '02c46b23aee7283c'},
    ('cyclic', 3, 'runtime'): {'schedules': '0bd1ad7246990a3e', 'clocks': '503bf035b15ea617', 'traffic': '8e0805ed2deedd90'},
    ('cyclic', 3, 'default'): {'schedules': 'bca142cbfcdb311f', 'clocks': 'b98411832eae6d4f', 'traffic': '23dc9851385764f9'},
    ('cyclic', 4, 'runtime'): {'schedules': '081c5c8200c8e87e', 'clocks': '7ecfba7dcc976bcb', 'traffic': '8bcf7ccbf10c0fb8'},
    ('cyclic', 4, 'default'): {'schedules': 'f14ca60976889886', 'clocks': 'e766f3912e8a9661', 'traffic': '87aa686f9d37fc82'},
    ('cyclic', 8, 'runtime'): {'schedules': '427627f625bb755c', 'clocks': '22ed3d19916a6fbc', 'traffic': '0dd038fd2eee5dfd'},
    ('cyclic', 8, 'default'): {'schedules': 'd438e8ed0ebaf4b2', 'clocks': '59b201624805c29b', 'traffic': '8c8a8c7ae93821e6'},
    ('block_cyclic3', 1, 'runtime'): {'schedules': '8106e8f6f7007c1f', 'clocks': '83d8092681f305c6', 'traffic': '8625c6758976e79f'},
    ('block_cyclic3', 1, 'default'): {'schedules': '64fbd2d41b792e4b', 'clocks': 'c571526739c52dc3', 'traffic': '45d0e2e1ff4c7a35'},
    ('block_cyclic3', 2, 'runtime'): {'schedules': 'f71013b5529c4606', 'clocks': '0826c3c7a47a44e9', 'traffic': 'a05139cddef6a3a1'},
    ('block_cyclic3', 2, 'default'): {'schedules': '0e779d1976f3da4c', 'clocks': '456b6ff52ba34f41', 'traffic': '17a7240c0f31ddb6'},
    ('block_cyclic3', 3, 'runtime'): {'schedules': 'a9f3e95d63c7c01e', 'clocks': 'd9dcf5946f502d79', 'traffic': '80b5845ac3740faa'},
    ('block_cyclic3', 3, 'default'): {'schedules': 'ee38ee3840699968', 'clocks': '472e1553740dd763', 'traffic': 'a7aaa7773778447f'},
    ('block_cyclic3', 4, 'runtime'): {'schedules': '241cd798417a9911', 'clocks': '8276a555c8ee04b3', 'traffic': '0dead9b684a2623a'},
    ('block_cyclic3', 4, 'default'): {'schedules': '480091a7735463ef', 'clocks': '38cdb20eb31907d2', 'traffic': 'cd61dd57a760fd3f'},
    ('block_cyclic3', 8, 'runtime'): {'schedules': 'b3983fdccdcc5345', 'clocks': '150e46f0367dbe46', 'traffic': 'c5b7bbe64a7372ad'},
    ('block_cyclic3', 8, 'default'): {'schedules': 'e1cec194d0f73185', 'clocks': '56a580526f4cb157', 'traffic': 'e2e858acb3a60fcd'},
    ('custom', 1, 'runtime'): {'schedules': 'eac6d5d6ef13f4d7', 'clocks': '83d8092681f305c6', 'traffic': '8625c6758976e79f'},
    ('custom', 1, 'default'): {'schedules': '685cb90aa97aafce', 'clocks': 'a8f1f2382ca295be', 'traffic': '3f650d4f7195ca85'},
    ('custom', 2, 'runtime'): {'schedules': 'a3d0a4feb2c806d7', 'clocks': 'a6b61a2bd8d5d5f9', 'traffic': '26886e824b0d19f2'},
    ('custom', 2, 'default'): {'schedules': 'e8d55d0554c40e36', 'clocks': '75d7562c95b6773c', 'traffic': '2de8f141b8f3e9fb'},
    ('custom', 3, 'runtime'): {'schedules': 'a4e108a29eb1b570', 'clocks': '2766de1eb24399b0', 'traffic': 'd81a0ab99e4995d9'},
    ('custom', 3, 'default'): {'schedules': 'd891d88e3fa00be0', 'clocks': '71e5b12fa9f0d8bc', 'traffic': '410170000295b2f7'},
    ('custom', 4, 'runtime'): {'schedules': '862e898820441442', 'clocks': '1a9e482c78940d1b', 'traffic': '446a72b2bae8ea6d'},
    ('custom', 4, 'default'): {'schedules': '409311e6eb91d32d', 'clocks': '63337d0cbe4853fb', 'traffic': '9be53956bccaf940'},
    ('custom', 8, 'runtime'): {'schedules': '9fdef9af0ade7f48', 'clocks': '899c3d2855f159fe', 'traffic': '2149dffc22879fa0'},
    ('custom', 8, 'default'): {'schedules': '676f36e06596f563', 'clocks': '80f857fbdecb2e30', 'traffic': '4f174e3c47daac1d'},
    ('block_star', 1, 'runtime'): {'schedules': '488d22fae0fbf7b2', 'clocks': '517b56bf96e2ed71', 'traffic': 'c5739f87a6c08737'},
    ('block_star', 1, 'default'): {'schedules': 'e3a1cb5e2a49c912', 'clocks': '28fe4da1a544f6a2', 'traffic': '6de43c0e210cd507'},
    ('block_star', 2, 'runtime'): {'schedules': '70d4484c0d0a1a36', 'clocks': '2d85bbea06f608ad', 'traffic': '520652d0d2a5d0c5'},
    ('block_star', 2, 'default'): {'schedules': 'cbe4735fa45508cc', 'clocks': 'c2e9818562b9d2bb', 'traffic': '8b56d3441519bc86'},
    ('block_star', 3, 'runtime'): {'schedules': '2053b0a695e159d4', 'clocks': 'bdc82e9940f726e1', 'traffic': '4e00b1647be5c009'},
    ('block_star', 3, 'default'): {'schedules': '88b763d2d6ff54e3', 'clocks': 'b1bf67e397070a62', 'traffic': '3de087d1d2677917'},
    ('block_star', 4, 'runtime'): {'schedules': '2a9b56150cc5007c', 'clocks': '43aa47bbd6e57da5', 'traffic': '5a171ae197692388'},
    ('block_star', 4, 'default'): {'schedules': '65d6a4567bc42682', 'clocks': '73a7ef201ca762fb', 'traffic': 'df2c6922d2db0879'},
    ('block_star', 8, 'runtime'): {'schedules': '06ac74244f0b134b', 'clocks': '14a9797b845968fc', 'traffic': 'fad13ea7c293fde4'},
    ('block_star', 8, 'default'): {'schedules': '109629a3cb116f61', 'clocks': '85320816e8114a62', 'traffic': 'f5c4d38f3617d000'},
}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_schedules_plans_and_clocks_are_pinned(layout, nprocs, strategy):
    assert case_figures(layout, nprocs, strategy) == \
        GOLDEN[(layout, nprocs, strategy)]


if __name__ == "__main__":
    print("GOLDEN: Dict[tuple, Dict[str, str]] = {")
    for layout in LAYOUTS:
        for nprocs in NPROCS:
            for strategy in STRATEGIES:
                print(f"    {(layout, nprocs, strategy)!r}: "
                      f"{case_figures(layout, nprocs, strategy)!r},")
    print("}")
