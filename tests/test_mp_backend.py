"""The real-parallelism backend, cross-checked against the simulator.

Two layers:

* **Raw engine semantics** — the op protocol (FIFO channels, wildcard
  receives, timeouts, counters, validation) behaves like the simulator
  where the contract requires it, on actual forked processes.
* **Differential acceptance** — jacobi, CG, redistribution, and a full
  Kali-language program produce bit-identical arrays and identical
  per-rank communication counters on ``backend="sim"`` and
  ``backend="mp"`` (see ``tests/differential.py``).

Every test carries a ``timeout`` mark: real processes can genuinely hang
where the simulator would detect deadlock, and CI must not.  (The
MpEngine watchdog is the first line of defence; the mark is the backstop
when pytest-timeout is installed.)
"""

import json
import time

import numpy as np
import pytest

from tests.differential import (
    DifferentialPair,
    assert_arrays_identical,
    assert_counters_identical,
    assert_values_equal,
    run_differential,
)
from repro.apps.cg import CGSolver, dense_matrix
from repro.apps.jacobi import build_jacobi
from repro.core.context import KaliContext
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.errors import (
    CommunicationError,
    DeadlockError,
    EngineError,
    KaliError,
)
from repro.lang import compile_kali
from repro.machine.api import ANY_SOURCE, ANY_TAG, Compute, Count, Now, Recv, Send
from repro.machine.cost import IDEAL, NCUBE7
from repro.machine.engine import Engine
from repro.machine.mp import MpEngine
from repro.machine.mp.transport import SenderThread
from repro.machine.mp.worker import _Inbox
from repro.machine.topology import FullyConnected
from repro.meshes.regular import five_point_grid, reference_sweep
from repro.serve.pool import RankPool

pytestmark = pytest.mark.timeout(120)

NRANKS = 4


def mp_engine(n=NRANKS, **kw):
    kw.setdefault("timeout", 60.0)
    return MpEngine(IDEAL, topology=FullyConnected(n), **kw)


def real_run(backend, program, n, timeout=60.0):
    """One run on a fork-per-run ``MpEngine`` or on a warm ``RankPool``."""
    if backend == "mp":
        return mp_engine(n, timeout=timeout).run(program)
    with RankPool(n, timeout=timeout) as pool:
        return pool.run(program, IDEAL, topology=FullyConnected(n))


def sim_engine(n=NRANKS, **kw):
    return Engine(IDEAL, topology=FullyConnected(n), **kw)


# --- raw engine semantics -------------------------------------------------


class TestOpProtocol:
    def test_ring_exchange_values_and_counters(self):
        def prog(rank):
            data = np.arange(4.0) + rank.id
            yield Send((rank.id + 1) % rank.size, data, tag=5)
            msg = yield Recv(source=(rank.id - 1) % rank.size, tag=5)
            yield Count("hops")
            return float(msg.payload.sum())

        sim = sim_engine().run(prog)
        mp = mp_engine().run(prog)
        assert sim.values == mp.values
        for a, b in zip(sim.stats, mp.stats):
            assert (a.messages_sent, a.bytes_sent) == (b.messages_sent, b.bytes_sent)
            assert a.counters["hops"] == b.counters["hops"] == 1

    def test_fifo_per_channel(self):
        """Messages on one (source, tag) channel arrive in send order."""
        def prog(rank):
            if rank.id == 0:
                for i in range(20):
                    yield Send(1, i, tag=2)
            elif rank.id == 1:
                got = []
                for _ in range(20):
                    m = yield Recv(source=0, tag=2)
                    got.append(m.payload)
                return got
            return None

        res = mp_engine(2).run(prog)
        assert res.values[1] == list(range(20))

    def test_tag_selectivity(self):
        """A tagged receive skips earlier-sent frames with other tags."""
        def prog(rank):
            if rank.id == 0:
                yield Send(1, "low", tag=1)
                yield Send(1, "high", tag=9)
            else:
                first = yield Recv(source=0, tag=9)
                second = yield Recv(source=0, tag=1)
                return first.payload, second.payload

        res = mp_engine(2).run(prog)
        assert res.values[1] == ("high", "low")

    def test_wildcard_source_receives_all(self):
        def prog(rank):
            if rank.id == 0:
                got = []
                for _ in range(rank.size - 1):
                    m = yield Recv(source=ANY_SOURCE, tag=ANY_TAG)
                    got.append((m.source, m.payload))
                return sorted(got)
            yield Send(0, rank.id * 100, tag=rank.id)
            return None

        res = mp_engine().run(prog)
        assert res.values[0] == [(1, 100), (2, 200), (3, 300)]

    def test_recv_timeout_resumes_with_none(self):
        def prog(rank):
            m = yield Recv(source=(rank.id + 1) % rank.size, tag=3,
                           timeout=0.2)
            return m

        res = mp_engine(2).run(prog)
        assert res.values == [None, None]
        assert all(s.counters["recv_timeouts"] == 1 for s in res.stats)

    def test_now_is_monotonic(self):
        def prog(rank):
            t1 = yield Now()
            yield Compute(0.0)
            t2 = yield Now()
            return t1, t2

        res = mp_engine(1).run(prog)
        t1, t2 = res.values[0]
        assert 0.0 <= t1 <= t2

    def test_numpy_payload_roundtrip_bit_identical(self):
        def prog(rank):
            data = np.linspace(0.0, 1.0, 257) * (rank.id + 1)
            yield Send((rank.id + 1) % rank.size, data, tag=0)
            m = yield Recv(source=(rank.id - 1) % rank.size, tag=0)
            return m.payload

        res = mp_engine().run(prog)
        for r in range(NRANKS):
            expected = np.linspace(0.0, 1.0, 257) * (((r - 1) % NRANKS) + 1)
            np.testing.assert_array_equal(res.values[r], expected)

    def test_args_reach_ranks(self):
        def prog(rank):
            yield Compute(0.0)
            return rank.arg * 2

        res = mp_engine(3).run(prog, args=[10, 20, 30])
        assert res.values == [20, 40, 60]


class TestInbox:
    """Receive matching on the rank side's buffered channels, one per
    (source, tag), driven directly with hand-made frames."""

    @staticmethod
    def _inbox(frames):
        inbox = _Inbox([None, None, None])
        for src, tag, payload in frames:
            inbox._take(src, (tag, 0, 0, 0.0, payload), 0.0)
        return inbox

    def test_exact_receives_pop_fifo_and_leave_no_channel(self):
        frames = [(1, tag, (tag, k)) for tag in range(40) for k in range(3)]
        inbox = self._inbox(frames)
        for tag in reversed(range(40)):
            for k in range(3):
                _idx, src, frame = inbox.pop_match(1, tag)
                assert (src, frame[4]) == (1, (tag, k))
            assert inbox.pop_match(1, tag) is None
        assert inbox.buffered == {}

    def test_wildcard_takes_the_earliest_local_arrival(self):
        inbox = self._inbox([(2, 7, "a"), (1, 5, "b"), (2, 7, "c"),
                             (1, 9, "d"), (2, 5, "e")])
        got = [inbox.pop_match(ANY_SOURCE, 5)[2][4],
               inbox.pop_match(1, ANY_TAG)[2][4],
               inbox.pop_match(ANY_SOURCE, ANY_TAG)[2][4],
               inbox.pop_match(ANY_SOURCE, ANY_TAG)[2][4]]
        assert got == ["b", "d", "a", "c"]
        assert inbox.pop_match(1, ANY_TAG) is None
        assert inbox.pop_match(ANY_SOURCE, ANY_TAG)[2][4] == "e"
        assert inbox.buffered == {}


class _SlowConn:
    """Stands in for a pipe end: ``send_bytes`` takes a while, then
    records the frame (or raises ``error``)."""

    def __init__(self, delay=0.0, error=None):
        self.delay, self.error, self.sent = delay, error, []

    def send_bytes(self, buf):
        time.sleep(self.delay)
        if self.error is not None:
            raise self.error
        self.sent.append(buf)


#: bigger than one atomic pipe write, so the frame takes the queue
_BULK = (0, 0, 0, 0.0, bytes(8192))


class TestSenderThread:
    def test_flush_with_nothing_queued_does_not_wake_the_thread(self):
        sender = SenderThread()
        try:
            sender.flush()
            # nothing was put on the thread's queue: no flush sentinel
            assert sender._q.unfinished_tasks == 0
        finally:
            sender.flush_and_stop()

    def test_flush_returns_after_a_queued_frame_is_written(self):
        sender, conn = SenderThread(), _SlowConn(delay=0.2)
        try:
            sender.send(conn, _BULK)
            sender.flush()
            assert len(conn.sent) == 1
            assert sender._q.unfinished_tasks == 2  # frame + flush point
        finally:
            sender.flush_and_stop()

    def test_flush_raises_a_latched_send_error(self):
        sender = SenderThread()
        sender.send(_SlowConn(error=BrokenPipeError("peer gone")), _BULK)
        sender._thread.join(5.0)        # the thread latched and exited
        assert not sender._thread.is_alive()
        with pytest.raises(CommunicationError, match="peer gone"):
            sender.flush(timeout=5.0)


class TestFailureModes:
    def test_child_exception_propagates_with_traceback(self):
        def prog(rank):
            yield Compute(0.0)
            if rank.id == 1:
                raise ValueError("rank 1 exploded")
            yield Recv(source=1, tag=0, timeout=30.0)

        with pytest.raises(EngineError, match="rank 1 exploded"):
            mp_engine(2).run(prog)

    def test_watchdog_raises_deadlock_with_blocked_info(self):
        def prog(rank):
            m = yield Recv(source=(rank.id + 1) % rank.size, tag=7)
            return m

        with pytest.raises(DeadlockError) as exc:
            mp_engine(2, timeout=2.0).run(prog)
        assert sorted(exc.value.blocked) == [0, 1]
        assert all(w.tag == 7 for w in exc.value.blocked.values())

    def test_self_send_rejected_like_sim(self):
        def prog(rank):
            yield Send(rank.id, 1.0, tag=0)

        with pytest.raises(CommunicationError, match="cannot send to itself"):
            sim_engine(2).run(prog)
        with pytest.raises(EngineError, match="cannot send to itself"):
            mp_engine(2).run(prog)

    def test_bad_dest_rejected_like_sim(self):
        def prog(rank):
            yield Send(99, 1.0, tag=0)

        with pytest.raises(CommunicationError, match="outside world"):
            sim_engine(2).run(prog)
        with pytest.raises(EngineError, match="outside world"):
            mp_engine(2).run(prog)

    @pytest.mark.parametrize("backend", ["mp", "pool"])
    def test_exact_recv_from_finished_peer_fails_fast(self, backend):
        """A receive that provably can't complete raises at once, not at
        the watchdog: rank 1's end frame says it has finished the job."""
        def prog(rank):
            yield Compute(0.0)
            if rank.id == 0:
                m = yield Recv(source=1, tag=0)
                return m

        started = time.monotonic()
        with pytest.raises(EngineError, match="can never complete"):
            real_run(backend, prog, 2, timeout=30.0)
        assert time.monotonic() - started < 5.0

    def test_finished_peer_does_not_break_others(self):
        """Rank 1 returns immediately; ranks 0<->2 keep communicating."""
        def prog(rank):
            if rank.id == 1:
                yield Compute(0.0)
                return "early"
            peer = 2 if rank.id == 0 else 0
            yield Send(peer, rank.id, tag=4)
            m = yield Recv(source=peer, tag=4)
            return m.payload

        for backend in ("mp", "pool"):
            assert real_run(backend, prog, 3).values == [2, "early", 0]

    @pytest.mark.parametrize("backend", ["sim", "mp", "pool"])
    def test_send_to_a_returned_peer_is_undelivered(self, backend):
        """Rank 0 returns at once; rank 1 sends to it afterwards.  The
        send succeeds and the message is counted, exactly, as rank 0's
        undelivered message on every backend."""
        def prog(rank):
            yield Compute(0.0)
            if rank.id == 1:
                time.sleep(0.3)
                yield Send(0, 1.0, tag=9)

        if backend == "sim":
            res = sim_engine(2).run(prog)
        else:
            res = real_run(backend, prog, 2)
        assert [s.counters.get("undelivered_messages", 0)
                for s in res.stats] == [1, 0]

    def test_fork_required_validation(self):
        with pytest.raises(EngineError, match="timeout"):
            MpEngine(IDEAL, nranks=2, timeout=0.0)
        with pytest.raises(EngineError, match="topology or an explicit"):
            MpEngine(IDEAL)


class TestTraceAndObs:
    def test_trace_streams_back_and_pairs_sends(self):
        def prog(rank):
            yield Send((rank.id + 1) % rank.size, np.ones(8), tag=1,
                       phase="exchange")
            m = yield Recv(source=(rank.id - 1) % rank.size, tag=1,
                           phase="exchange")
            return m.nbytes

        res = mp_engine(trace=True).run(prog)
        kinds = {e.kind for e in res.trace}
        assert {"send", "recv", "finish"} <= kinds
        sends = {e.seq for e in res.trace if e.kind == "send"}
        recvs = {e.seq for e in res.trace if e.kind == "recv"}
        assert sends == recvs and len(sends) == NRANKS

    def test_comm_matrix_reconciles_on_real_run(self):
        from repro.obs.commgraph import CommMatrix

        mesh = five_point_grid(6, 6)
        prog = build_jacobi(mesh, NRANKS, machine=NCUBE7, trace=True,
                            backend="mp")
        res = prog.run(sweeps=2)
        matrix = CommMatrix.from_trace(res.engine.trace,
                                       nranks=res.engine.nranks)
        assert matrix.reconcile(res.engine.stats) == []

    def test_run_file_roundtrip_and_registry(self, tmp_path):
        from repro.obs.registry import (
            MetricsRegistry,
            read_run_json,
            write_run_json,
        )

        mesh = five_point_grid(6, 6)
        prog = build_jacobi(mesh, 2, machine=NCUBE7, trace=True, backend="mp")
        res = prog.run(sweeps=2)
        path = tmp_path / "mp.run.json"
        write_run_json(res.engine, str(path), meta={"backend": "mp"})
        loaded = read_run_json(str(path))
        reg = MetricsRegistry.from_run(loaded)
        assert reg.get("nranks") == 2
        assert reg.get("messages_total") == res.engine.total_messages()
        assert reg.get("makespan") == pytest.approx(res.engine.makespan)

    def test_chrome_export_validates(self, tmp_path):
        import json

        from repro.obs.chrome_trace import (
            validate_chrome_trace,
            write_chrome_trace,
        )

        mesh = five_point_grid(6, 6)
        prog = build_jacobi(mesh, 2, machine=NCUBE7, trace=True, backend="mp")
        res = prog.run(sweeps=1)
        out = tmp_path / "trace.json"
        write_chrome_trace(res.engine.trace, str(out), nranks=2)
        with open(out) as fh:
            assert validate_chrome_trace(json.load(fh)) == []


# --- differential acceptance ----------------------------------------------


class TestJacobiDifferential:
    @pytest.mark.parametrize("dist", [Block(), Cyclic()],
                             ids=["block", "cyclic"])
    def test_jacobi_identical_across_backends(self, dist):
        mesh = five_point_grid(8, 8)
        init = np.random.default_rng(42).random(mesh.n)

        pair = run_differential(
            lambda backend: build_jacobi(
                mesh, NRANKS, machine=NCUBE7, dist=dist._clone(),
                initial=init.copy(), backend=backend,
            ),
            lambda prog: prog.run(sweeps=5),
        )
        assert_arrays_identical(pair)
        assert_counters_identical(pair)

    def test_jacobi_matches_sequential_oracle_on_mp(self):
        mesh = five_point_grid(8, 8)
        init = np.random.default_rng(3).random(mesh.n)
        prog = build_jacobi(mesh, NRANKS, machine=NCUBE7,
                            initial=init.copy(), backend="mp")
        prog.run(sweeps=3)
        expected = init.copy()
        for _ in range(3):
            expected = reference_sweep(mesh, expected)
        np.testing.assert_array_equal(prog.solution, expected)

    def test_cache_and_strategy_accounting_cross_process(self):
        mesh = five_point_grid(8, 8)
        init = np.random.default_rng(5).random(mesh.n)

        pair = run_differential(
            lambda backend: build_jacobi(mesh, NRANKS, machine=NCUBE7,
                                         initial=init.copy(), backend=backend),
            lambda prog: prog.run(sweeps=4),
        )
        assert pair.sim_result.cache_stats() == pair.mp_result.cache_stats()
        assert pair.sim_result.cache_stats() == {
            kind: sum(getattr(kr.cache, kind) for kr in pair.sim_result.kranks)
            for kind in ("hits", "misses", "invalidations")}
        assert pair.sim_result.strategies() == pair.mp_result.strategies()
        assert pair.mp_result.strategies()["jacobi-relax"] == "inspector"


class TestCGDifferential:
    def test_cg_identical_and_correct(self):
        mesh = five_point_grid(8, 8)
        b = np.random.default_rng(11).random(mesh.n)

        sim = CGSolver(mesh, NRANKS, machine=NCUBE7).solve(b, max_iter=60)
        mp = CGSolver(mesh, NRANKS, machine=NCUBE7,
                      backend="mp").solve(b, max_iter=60)
        np.testing.assert_array_equal(sim.solution, mp.solution)
        assert sim.iterations == mp.iterations
        assert sim.residual == mp.residual
        ref = np.linalg.solve(dense_matrix(mesh), b)
        np.testing.assert_allclose(mp.solution, ref, atol=1e-6)

    def test_cg_counters_identical(self):
        mesh = five_point_grid(8, 8)
        b = np.random.default_rng(13).random(mesh.n)

        def build(backend):
            solver = CGSolver(mesh, NRANKS, machine=NCUBE7, backend=backend)
            return solver

        sim_solver = build("sim")
        sim = sim_solver.solve(b, max_iter=40)
        mp_solver = build("mp")
        mp = mp_solver.solve(b, max_iter=40)
        pair = DifferentialPair(
            sim.timing, mp.timing,
            {n: a.data.copy() for n, a in sim_solver.ctx.arrays.items()},
            {n: a.data.copy() for n, a in mp_solver.ctx.arrays.items()},
        )
        assert_arrays_identical(pair)
        assert_counters_identical(pair)


class TestRedistributeDifferential:
    def test_redistribute_identical_across_backends(self):
        n = 24

        def program(kr):
            local = kr.local("A")
            # Deterministic update, then move block -> cyclic mid-run.
            local.data[:] = local.global_rows * 2.0
            yield from kr.barrier()
            yield from kr.redistribute("A", Cyclic())
            local = kr.local("A")
            local.data[:] = local.data + kr.id
            return None

        def build(backend):
            ctx = KaliContext(NRANKS, machine=NCUBE7, backend=backend)
            ctx.array("A", n, dist=[Block()]).set(np.zeros(n))

            class _P:  # minimal "program object" for run_differential
                def __init__(self, ctx):
                    self.ctx = ctx

                def run(self):
                    return self.ctx.run(program)

            return _P(ctx)

        pair = run_differential(build, lambda p: p.run())
        assert_arrays_identical(pair)
        assert_counters_identical(pair)
        assert_values_equal(pair)


class TestKaliLangDifferential:
    SRC = """processors Procs : array[1..P] with P in 1..64;
const n : integer := 24;
var A : array[1..n] of real dist by [ block ] on Procs;
var B : array[1..n] of real dist by [ cyclic ] on Procs;
var total : real;

forall i in 1..n on A[i].loc do
    A[i] := float(i) * 1.5;
end;
forall i in 1..n-1 on B[i].loc do
    B[i] := A[i+1];
end;
total := B[1] + A[n];
print("total", total);
"""

    def test_full_language_program_identical(self):
        prog = compile_kali(self.SRC)
        sim = prog.run(nprocs=NRANKS)
        mp = prog.run(nprocs=NRANKS, backend="mp")
        assert sim.output == mp.output
        assert sim.scalars == mp.scalars
        for name in sim.arrays:
            np.testing.assert_array_equal(sim.arrays[name], mp.arrays[name])
        for a, b in zip(sim.timing.engine.stats, mp.timing.engine.stats):
            assert a.messages_sent == b.messages_sent
            assert a.bytes_sent == b.bytes_sent


class TestBackendValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(KaliError, match="unknown backend"):
            KaliContext(2, machine=NCUBE7, backend="threads")

    def test_faults_rejected_on_mp(self):
        from repro.faults import FaultPlan

        with pytest.raises(KaliError, match="backend='sim'"):
            KaliContext(2, machine=NCUBE7, backend="mp",
                        faults=FaultPlan.uniform(seed=1, drop=0.1))


class TestBenchCli:
    """`python -m repro.bench --backend mp` end to end."""

    def test_mp_bench_writes_valid_run_files(self, tmp_path, capsys):
        from repro.bench.__main__ import main
        from repro.obs.registry import MetricsRegistry, read_run_json

        rc = main(["--backend", "mp", "--fast",
                   "--metrics-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "identical" in out
        run_files = sorted(tmp_path.glob("M1_mp_jacobi_p*.run.json"))
        assert len(run_files) == 2  # --fast: p = 2, 4
        for path in run_files:
            result = read_run_json(path)
            meta = json.loads(path.read_text())["meta"]
            assert meta["backend"] == "mp"
            assert meta["workload"] == "jacobi"
            assert result.nranks == meta["nprocs"]
            reg = MetricsRegistry.from_run(result)
            assert reg.get("makespan") > 0
        assert (tmp_path / "M1_mp_jacobi.metrics.json").exists()
