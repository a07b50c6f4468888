"""One supervisor contract, two backends.

``MpEngine`` (one job on a fresh pool) and ``RankPool`` (many jobs on a
warm one) both run on :class:`repro.machine.mp.mesh.Mesh`, so every
failure mode must surface with the same exception class and the same
fields on either.
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
    peer has finished; only an *untimed* one can never complete.  A
    finished peer's end frame must not turn the timeout into an error."""
    def prog(rank):
        yield Compute(0.0)
        if rank.id == 0:
            time.sleep(0.3)  # rank 1 has long finished by now
            return (yield Recv(source=source, tag=3, timeout=0.2))

    for backend in ("mp", "pool"):
        res = run_on(backend, prog)
        assert res.values == [None, None]
        assert res.stats[0].counters["recv_timeouts"] == 1


def _socket_inodes(pid: int) -> set:
    """Inodes of the sockets process ``pid`` holds open."""
    fd_dir = f"/proc/{pid}/fd"
    inodes = set()
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, fd))
        except OSError:
            continue  # closed while we looked
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    return inodes


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc to list a process's descriptors")
def test_meshes_forking_concurrently_do_not_leak_pipe_ends(monkeypatch):
    """Every mesh forks under one process-wide lock.  Without it, a mesh
    forking while another builds its pipes hands the half-built ends to
    its own ranks, and for as long as they live a dead rank's EOF never
    arrives.  Pool A's pipe build holds the fork window open for 0.5 s;
    pool B starts inside that window; none of B's ranks may hold an end
    of A's pipes."""
    real_build = mesh_module.build_pipe_mesh
    a_ends: set = set()
    in_window = threading.Event()

    def slow_build(ctx, n):
        pipes = real_build(ctx, n)
        if not in_window.is_set():  # pool A's build
            a_ends.update(os.fstat(c.fileno()).st_ino
                          for row in pipes for c in row if c is not None)
            in_window.set()
            time.sleep(0.5)
        return pipes

    monkeypatch.setattr(mesh_module, "build_pipe_mesh", slow_build)
    pool_a = RankPool(2)
    starter = threading.Thread(target=pool_a.start)
    starter.start()
    try:
        assert in_window.wait(30.0)
        with RankPool(2) as pool_b:
            pool_b.start()
            leaked = set().union(*(_socket_inodes(p.pid) & a_ends
                                   for p in pool_b._procs))
    finally:
        starter.join(30.0)
        pool_a.close()
    assert len(a_ends) == 2
    assert not leaked, f"{len(leaked)} of {len(a_ends)} ends leaked"
