"""One supervisor contract, two backends.

``MpEngine`` (one-shot ranks) and ``RankPool`` (persistent ranks) are
both shells over :class:`repro.machine.mp.mesh.Mesh`, so every failure
mode must surface with the same exception class and the same fields on
either.  Rank programs live at module level so the pool can ship them.
"""

import os
import threading
import time

import pytest

from repro.errors import DeadlockError, EngineError, PoolCrashError
from repro.machine.api import ANY_SOURCE, Compute, Recv
from repro.machine.cost import IDEAL
from repro.machine.mp import MpEngine, mesh as mesh_module
from repro.serve.pool import RankPool

pytestmark = pytest.mark.timeout(120)


def run_on(backend, program, timeout=30.0):
    if backend == "mp":
        return MpEngine(IDEAL, nranks=2, timeout=timeout).run(program)
    with RankPool(2, timeout=timeout) as pool:
        return pool.run(program, IDEAL)


def explode_on_rank_1(rank):
    yield Compute(0.0)
    if rank.id == 1:
        raise ValueError("rank 1 exploded")
    yield Recv(source=1, tag=0, timeout=30.0)


def mutual_recv(rank):
    yield Recv(source=(rank.id + 1) % rank.size, tag=7)


def rank_1_exits_silently(rank):
    yield Compute(0.0)
    if rank.id == 1:
        os._exit(3)
    time.sleep(30.0)  # killed by the supervisor long before this elapses


def recv_from_dying_peer(rank):
    yield Compute(0.0)
    if rank.id == 1:
        os._exit(3)
    yield Recv(source=1, tag=0)


def recv_from_finished_peer(rank):
    yield Compute(0.0)
    if rank.id == 0:
        yield Recv(source=1, tag=0)


@pytest.mark.parametrize("backend", ["mp", "pool"])
class TestSupervisorContract:
    def test_program_error_carries_the_rank_traceback(self, backend):
        with pytest.raises(EngineError) as exc:
            run_on(backend, explode_on_rank_1)
        assert type(exc.value) is EngineError  # a program error: no retry
        message = str(exc.value)
        assert message.startswith("rank 1 failed after ")
        assert "Traceback" in message
        assert "ValueError: rank 1 exploded" in message

    def test_watchdog_names_every_blocked_receive(self, backend):
        started = time.monotonic()
        with pytest.raises(DeadlockError) as exc:
            run_on(backend, mutual_recv, timeout=1.0)
        blocked = exc.value.blocked
        assert sorted(blocked) == [0, 1]
        assert [(blocked[r].source, blocked[r].tag) for r in (0, 1)] == [
            (1, 7), (0, 7)]
        assert {op.phase for op in blocked.values()} == {"(mp)"}
        # a condemned mesh is killed at once, not coaxed to stop
        assert time.monotonic() - started < 10.0

    def test_silent_rank_death_is_a_crash(self, backend):
        with pytest.raises(PoolCrashError) as exc:
            run_on(backend, rank_1_exits_silently)
        assert str(exc.value) == "rank 1 died without reporting (exit code 3)"

    def test_error_after_peer_death_blames_the_death(self, backend,
                                                      monkeypatch):
        # Rank 0 trips over rank 1's EOF and reports an ordinary error.
        # Hold the supervisor back so that report and the death are both
        # waiting when it looks: the report is read first, and must still
        # be classified as a crash, not a program failure.
        real_wait = mesh_module.conn_wait

        def slow_wait(objects, timeout=None):
            time.sleep(0.5)
            return real_wait(objects, timeout=timeout)

        monkeypatch.setattr(mesh_module, "conn_wait", slow_wait)
        with pytest.raises(PoolCrashError) as exc:
            run_on(backend, recv_from_dying_peer)
        message = str(exc.value)
        assert message.startswith(
            "rank 0 failed after rank(s) [1] died mid-job:")
        assert "can never complete" in message


@pytest.mark.parametrize("source", [1, ANY_SOURCE])
def test_timed_receive_from_a_finished_peer_times_out(source):
    """The simulator resumes a timed receive with None whether or not the
    peer has finished; only an *untimed* one can never complete.  (This
    raced: whichever rank timed out first exited, and its EOF used to
    turn the other rank's timeout into a CommunicationError.)"""
    def prog(rank):
        yield Compute(0.0)
        if rank.id == 0:
            time.sleep(0.3)  # rank 1 is long gone by now
            return (yield Recv(source=source, tag=3, timeout=0.2))

    res = MpEngine(IDEAL, nranks=2, timeout=30.0).run(prog)
    assert res.values == [None, None]
    assert res.stats[0].counters["recv_timeouts"] == 1


def test_meshes_forking_concurrently_do_not_leak_pipe_ends():
    """Every mesh forks under one process-wide lock.  Without it, a pool
    forking while ``MpEngine`` builds its pipes hands the engine's
    half-built ends to pool workers; for as long as those workers live,
    rank 1's EOF never reaches rank 0 and the fail-fast receive hangs
    until the watchdog.  So the pools stay open until the runs are over."""
    pools = []
    stop = threading.Event()

    def fork_pools():
        while not stop.is_set() and len(pools) < 16:
            pools.append(RankPool(2).start())
            time.sleep(0.02)

    forker = threading.Thread(target=fork_pools)
    forker.start()
    try:
        for _ in range(30):
            with pytest.raises(EngineError, match="can never complete"):
                MpEngine(IDEAL, nranks=2, timeout=10.0).run(
                    recv_from_finished_peer)
    finally:
        stop.set()
        forker.join(60.0)
        for pool in pools:
            pool.close()
    assert not forker.is_alive()
