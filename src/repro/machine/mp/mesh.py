"""One forked rank mesh: the supervisor of the real-process backends.

A :class:`Mesh` is ``nranks`` forked rank processes
(:func:`repro.machine.mp.worker.rank_loop`) joined by a pairwise pipe
mesh, one duplex control pipe per rank, a shared status board, and an
optional :class:`~repro.machine.shm.ShmDataPlane`.  The parent is a
supervisor, not a router: data moves directly between rank processes.
Ranks serve shipped jobs (:meth:`Mesh.run`, then :meth:`Mesh.reset`)
until :meth:`Mesh.close`.  Over its control pipe each rank streams trace
chunks and finally its ``("finish", clock, value, stats)`` record;
:meth:`Mesh.run` assembles the same :class:`RunResult` the simulator
produces, so ``repro.obs`` works on real runs unchanged.

A rank program error raises :class:`EngineError` with the rank's
traceback, watchdog expiry raises :class:`DeadlockError` built from the
status board, and a rank that dies, goes mute or breaks a pipe raises
:class:`PoolCrashError`.  Any of them condemns the mesh — pairwise pipes
cannot be re-plumbed into a replacement process after fork.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from multiprocessing.connection import wait as conn_wait
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.errors import BlockedOp, DeadlockError, EngineError, PoolCrashError
from repro.machine.mp.transport import build_pipe_mesh, close_mesh_except
from repro.machine.mp.worker import ST_BLOCKED, ST_DONE, rank_loop
from repro.machine.shm import DEFAULT_THRESHOLD, ShmDataPlane, ShmPayload
from repro.machine.stats import RunResult
from repro.machine.trace import TraceEvent

# Forking from a multi-threaded parent (the sharded server runs one
# scheduler thread per shard) is safe for *our* state because ranks
# re-read everything from the job message — but two meshes forking
# concurrently could each inherit the other's half-built pipe fds, and a
# leaked end keeps a dead rank's EOF from ever arriving.  One
# process-wide lock serializes mesh construction; it is held only while
# forking, never while running jobs.
_FORK_LOCK = threading.Lock()


def fork_context():
    """The ``fork`` multiprocessing context every mesh is built from."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        raise EngineError(
            "real-process execution needs the 'fork' start method (POSIX); "
            "use backend='sim' on this platform"
        ) from None


def shm_options(shm: Optional[bool],
                threshold: Optional[int]) -> Optional[Dict[str, int]]:
    """A backend's shm knobs (docs/dataplane.md) as :class:`ShmDataPlane`
    keyword arguments, or None when the plane is off.  ``shm=None`` means
    on unless ``REPRO_SHM`` is ``0``/``off``/``no`` (the kill switch);
    ``threshold=None`` means :data:`DEFAULT_THRESHOLD`."""
    if shm is None:
        shm = os.environ.get("REPRO_SHM", "1").lower() not in ("0", "off", "no")
    if not shm:
        return None
    return {"threshold": (threshold if threshold is not None
                          else DEFAULT_THRESHOLD)}


class Job(NamedTuple):
    """What every rank of a mesh runs once."""

    t0: float             # monotonic epoch rank clocks count from
    program: Any          # the shipped rank program
    machine: Any
    topology: Any
    args: Optional[list]  # per-rank argument list
    trace: bool


class Mesh:
    """Fork ``nranks`` rank processes now; tear them down in :meth:`close`.

    ``decode`` (which the ranks receive through ``fork()``) rebuilds each
    shipped program on the rank side.
    """

    def __init__(self, nranks: int, name: str,
                 shm: Optional[Dict[str, int]],
                 decode: Callable[[Any, Any], Any]):
        ctx = fork_context()
        self.nranks = n = nranks
        with _FORK_LOCK:
            pipes = build_pipe_mesh(ctx, n)
            pairs = [ctx.Pipe(duplex=True) for _ in range(n)]
            self.ctrls = [a for a, _b in pairs]
            child_ends = [b for _a, b in pairs]
            # Status board: (status, blocked_src, blocked_tag) per rank,
            # written by ranks, read by the parent on watchdog expiry.
            self.board = ctx.RawArray("l", 3 * n)
            # Created *before* forking so ranks inherit the primary
            # mapping; the parent is the extra party that decodes
            # gathered results out of finish records.
            self.plane = ShmDataPlane(n, **shm) if shm is not None else None
            self.procs = []
            for r in range(n):
                p = ctx.Process(
                    target=rank_loop,
                    args=(r, n, pipes, child_ends, self.board, self.plane,
                          decode),
                    name=f"repro-{name}-rank-{r}",
                    daemon=True,
                )
                p.start()
                self.procs.append(p)
            # The parent keeps no data-plane ends and no child control ends.
            close_mesh_except(pipes, None)
            for c in child_ends:
                c.close()

    def _messages(self, job: Job) -> List[tuple]:
        """One job message per rank.  A rank's arg crosses its control
        pipe through the data plane when there is one; what that shipped
        is left in :attr:`arg_bytes` as ``(bytes, of which via shm)``."""
        args = job.args if job.args is not None else [None] * self.nranks
        self.arg_bytes = (0, 0)
        if job.args is not None and self.plane is not None:
            args = [self.plane.dumps(a, (r,)) for r, a in enumerate(args)]
            shm = sum(a.nbytes for a in args if isinstance(a, ShmPayload))
            pipe = sum(len(a) for a in args if isinstance(a, bytes))
            self.arg_bytes = (shm + pipe, shm)
        return [("job", job.t0, job.program, job.machine, job.topology,
                 args[r], job.trace) for r in range(self.nranks)]

    # --- one job ---------------------------------------------------------

    def run(self, job: Job, timeout: float) -> RunResult:
        """Ship ``job`` to every rank and collect every rank's finish
        record within ``timeout`` wall seconds.  Real execution cannot
        prove a deadlock the way the virtual-time engine can, so the
        watchdog is the bound.  A failed job leaves ranks in unknown comm
        state: they are killed at once."""
        try:
            for c, msg in zip(self.ctrls, self._messages(job)):
                c.send(msg)
            return self._supervise(job.t0, job.trace, timeout)
        except BaseException:
            self.close(grace=0.0)
            raise

    def _supervise(self, t0: float, trace: bool, timeout: float) -> RunResult:
        n, procs, ctrls = self.nranks, self.procs, self.ctrls
        deadline = time.monotonic() + timeout
        clocks = [0.0] * n
        stats: List[Any] = [None] * n
        values: List[Any] = [None] * n
        events: Optional[List[TraceEvent]] = [] if trace else None
        pending = set(range(n))

        def died(r: int) -> PoolCrashError:
            procs[r].join(1.0)
            return PoolCrashError(f"rank {r} died without reporting "
                                  f"(exit code {procs[r].exitcode})")

        while pending:
            waitables = {ctrls[r]: ("ctrl", r) for r in pending}
            waitables.update({procs[r].sentinel: ("dead", r) for r in pending})
            remaining = deadline - time.monotonic()
            ready = (conn_wait(list(waitables), timeout=remaining)
                     if remaining > 0 else [])
            if not ready:
                raise self._deadlock(pending, t0)
            for obj in ready:
                what, r = waitables[obj]
                if r not in pending:
                    continue
                if what == "dead":
                    # A finish/error may still sit in the control pipe,
                    # racing the process exit; let the next pass read it.
                    if not ctrls[r].poll(0):
                        raise died(r)
                    continue
                try:
                    msg = obj.recv()
                except (EOFError, ConnectionResetError):
                    raise died(r) from None
                kind = msg[0]
                if kind == "trace":
                    if events is not None:
                        events.extend(msg[1])
                elif kind == "finish":
                    _, clocks[r], value, stats[r] = msg
                    values[r] = (self.plane.loads(value)
                                 if self.plane is not None else value)
                    pending.discard(r)
                else:
                    _, clock, tb, _rstats = msg  # an "error" report
                    # A rank that trips over a dead peer (EOF on a mesh
                    # pipe) reports an "error" like any other exception —
                    # but if a rank process has died, the root cause is
                    # the death, not the program.
                    dead = [i for i in range(n) if i != r
                            and procs[i].exitcode is not None]
                    if dead:
                        raise PoolCrashError(
                            f"rank {r} failed after rank(s) {dead} "
                            f"died mid-job:\n{tb}"
                        )
                    raise EngineError(
                        f"rank {r} failed after {clock:.3f}s wall:\n{tb}"
                    )

        if events is not None:
            events.extend(TraceEvent(rank=r, kind="finish", start=clocks[r],
                                     end=clocks[r]) for r in range(n))
            events.sort(key=lambda e: (e.start, e.rank))
        result = RunResult(nranks=n, clocks=clocks, stats=stats,
                           values=values)
        result.trace = events
        return result

    def _deadlock(self, pending, t0: float) -> DeadlockError:
        """Build the diagnostic from each stuck rank's status board entry."""
        wall = time.monotonic() - t0
        blocked = {}
        for r in sorted(pending):
            status, source, tag = self.board[3 * r:3 * r + 3]
            if status == ST_BLOCKED:
                blocked[r] = BlockedOp(source=source, tag=tag, phase="(mp)",
                                       clock=wall)
            elif status != ST_DONE:
                blocked[r] = BlockedOp(source=-9, tag=-9, phase="(running)",
                                       clock=wall)
        return DeadlockError(
            blocked or {r: (-9, -9) for r in sorted(pending)},
        )

    # --- between jobs ----------------------------------------------------

    def reset(self, result: RunResult, timeout: float = 30.0) -> int:
        """Broadcast ``reset``; ranks discard frames the last job left in
        the pipes (all readable: every sender flushed before its finish
        report) and rewind their shm arenas.  Discards are accounted as
        that job's undelivered messages, exactly.  Returns the arena bytes
        reclaimed mesh-wide."""
        for c in self.ctrls:
            c.send(("reset",))
        deadline = time.monotonic() + timeout
        total = 0
        for r, c in enumerate(self.ctrls):
            if not c.poll(max(deadline - time.monotonic(), 0.0)):
                raise PoolCrashError(
                    f"rank {r} failed to ack the inter-job reset within "
                    f"{timeout}s"
                )
            try:
                _done, discarded, reclaimed = c.recv()
            except (EOFError, ConnectionResetError):
                raise PoolCrashError(
                    f"rank {r} closed its control pipe at the reset barrier"
                ) from None
            if discarded:
                result.stats[r].count("undelivered_messages", discarded)
            if reclaimed:
                result.stats[r].count("shm_reclaimed_bytes", reclaimed)
                total += reclaimed
        if self.plane is not None:
            # Parent-side housekeeping: every rank has read the ship
            # block by now, so rewind the parent arena as well.
            total += self.plane.reset_party()
        return total

    def ping(self, timeout: float) -> List[int]:
        """Ranks that answer a ping from their command loop (so only call
        between jobs)."""
        nonce = time.monotonic_ns()
        alive = []
        for r, c in enumerate(self.ctrls):
            try:
                c.send(("ping", nonce))
                if c.poll(timeout) and c.recv()[:2] == ("pong", nonce):
                    alive.append(r)
            except (OSError, EOFError):
                pass
        return alive

    # --- teardown --------------------------------------------------------

    def close(self, grace: float = 2.0) -> None:
        """Stop the ranks and release every OS resource — pipes, process
        sentinels, shm segments — so a mesh's lifetime leaks no file
        descriptors (idempotent).  Ranks still alive ``grace`` seconds
        after being asked to stop are terminated."""
        if self.procs is None:
            return
        if grace > 0:
            for c in self.ctrls:
                try:
                    c.send(("stop",))
                except (OSError, ValueError):
                    pass  # a dead rank's control pipe
            deadline = time.monotonic() + grace
            for p in self.procs:
                p.join(max(deadline - time.monotonic(), 0.0))
        for p in self.procs:
            if p.is_alive():
                p.terminate()
        for p in self.procs:
            p.join(5.0)
        for p in self.procs:
            try:  # releases the sentinel fd now, not at GC time
                p.close()
            except ValueError:
                pass  # still alive after terminate+join; GC reaps it
        for c in self.ctrls:
            try:
                c.close()
            except OSError:
                pass
        self.procs = None
        if self.plane is not None:
            # Every rank is joined: unlink all segments, then sweep the
            # name prefix so segments a crashed rank grew are reclaimed
            # too (nothing can still reference them).
            self.plane.close(unlink=True)
