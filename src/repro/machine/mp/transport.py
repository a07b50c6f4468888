"""Pipe-mesh transport for the real-process backend.

Every pair of ranks shares one duplex OS pipe, and every rank shares one
*control* pipe with the parent.  A message is one pickled frame

    (tag, seq, nbytes, send_wall, payload)

written to the pairwise pipe; per ``(source, tag)`` FIFO order follows
directly from pipe FIFO order, exactly the guarantee the virtual-time
engine provides.  A rank whose program has returned writes one
:data:`END_FRAME` to every peer, behind all of its data frames.  Sends
never block the rank program: a per-process sender thread drains an
unbounded queue (MPI-style eager buffering), so the head-to-head
exchange pattern the executor emits (all sends before all receives)
cannot deadlock on a full pipe buffer.

The receive side buffers drained frames per ``(source, tag)`` channel
and stamps each with a local arrival index, which is what wildcard
receives order by — see :mod:`repro.machine.mp.worker` for the exact
(relaxed) wildcard semantics.
"""

from __future__ import annotations

import queue
import struct
import threading
from multiprocessing.reduction import ForkingPickler
from typing import Any, List, Optional, Tuple

try:
    import fcntl
    import termios
    _TIOCOUTQ: Optional[int] = getattr(termios, "TIOCOUTQ", None)
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None
    _TIOCOUTQ = None

from repro.errors import CommunicationError

# Frame field indices (plain tuples keep pickling cheap).
FRAME_TAG = 0
FRAME_SEQ = 1
FRAME_NBYTES = 2
FRAME_WALL = 3
FRAME_PAYLOAD = 4

#: the end-of-job frame: the sender's program has returned
END_FRAME = None

#: sentinel enqueued to stop a sender thread
_STOP = object()

#: sentinel enqueued to mark a flush point (payload: threading.Event)
_FLUSH = object()

#: largest frame the sender may write inline: PIPE_BUF (4096 on Linux)
#: minus the 4-byte length header Connection.send_bytes prepends, so the
#: whole write is one atomic, provably non-blocking syscall
_INLINE_MAX = 4092


def _outq_empty(conn) -> bool:
    """True when ``conn``'s kernel send queue is provably empty.

    The duplex mesh pipes are AF_UNIX socket pairs; ``TIOCOUTQ`` reports
    the sender-side unconsumed byte count, so zero means the full send
    buffer (>= 4 KiB on any Linux) is free and a small blocking write
    cannot stall.  Anything unqueryable answers False — the caller falls
    back to the sender thread, which is always safe."""
    if fcntl is None or _TIOCOUTQ is None:
        return False
    try:
        data = fcntl.ioctl(conn.fileno(), _TIOCOUTQ, b"\x00\x00\x00\x00")
        return struct.unpack("@i", data)[0] == 0
    except (OSError, ValueError):
        return False


def build_pipe_mesh(ctx, nranks: int) -> List[List[Optional[Any]]]:
    """``mesh[i][j]`` is rank *i*'s connection to rank *j* (None on the
    diagonal).  Built in the parent before forking; children inherit the
    whole mesh and close every end that is not theirs."""
    mesh: List[List[Optional[Any]]] = [
        [None] * nranks for _ in range(nranks)
    ]
    for i in range(nranks):
        for j in range(i + 1, nranks):
            a, b = ctx.Pipe(duplex=True)
            mesh[i][j] = a
            mesh[j][i] = b
    return mesh


def close_mesh_except(mesh: List[List[Optional[Any]]], keep_rank: Optional[int]) -> None:
    """Close every connection in the mesh except ``keep_rank``'s row.
    ``keep_rank=None`` (the parent) closes everything."""
    for i, row in enumerate(mesh):
        if i == keep_rank:
            continue
        # Row i belongs to rank i.  Closing our forked copies of every
        # other rank's ends (including peers' ends of our own pipes) is
        # what makes a dead peer observable as EOF instead of a hang.
        for conn in row:
            if conn is not None:
                conn.close()


class SenderThread:
    """Eager-buffered outbound path: one thread, one FIFO queue.

    ``send(conn, frame)`` returns immediately; frames are pickled in the
    caller and written in order, so per-destination frame order equals
    enqueue order.  Errors (a dead peer's broken pipe) are latched and
    re-raised on the rank program's next op boundary.

    Fast path: a small frame headed for a connection with nothing queued
    *and* an empty kernel send buffer is written inline by the calling
    thread — one atomic ``<= PIPE_BUF`` write that provably cannot block.
    This skips the thread handoff entirely, which matters most on
    oversubscribed hosts where waking the sender thread costs a scheduler
    round trip per message.  Everything else takes the queue, preserving
    the never-blocks-the-rank guarantee for bulk traffic."""

    def __init__(self) -> None:
        self._q: "queue.Queue[Any]" = queue.Queue()
        self._error: Optional[BaseException] = None
        self._lock = threading.Lock()
        self._queued: dict = {}   # conn -> frames handed to the thread
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            item = self._q.get()
            if item is _STOP:
                return
            if isinstance(item, tuple) and item[0] is _FLUSH:
                item[1].set()
                continue
            conn, buf = item
            try:
                conn.send_bytes(buf)
            except BaseException as exc:  # latch; the main thread raises
                self._error = exc
                return
            with self._lock:
                self._queued[conn] -= 1

    def send(self, conn, frame: Tuple) -> int:
        """Enqueue one frame; returns the pickled frame size in bytes —
        the *pipe* traffic this message costs, which the shm data plane's
        accounting compares against the payload bytes it hoisted."""
        self.check()
        buf = bytes(ForkingPickler.dumps(frame))
        with self._lock:
            if (
                len(buf) <= _INLINE_MAX
                and not self._queued.get(conn)
                and _outq_empty(conn)
            ):
                # Nothing in flight to this peer, whole frame fits one
                # atomic pipe write: send inline, no thread wakeup.
                try:
                    conn.send_bytes(buf)
                except BaseException as exc:
                    self._error = exc
                return len(buf)
            self._queued[conn] = self._queued.get(conn, 0) + 1
        self._q.put((conn, buf))
        return len(buf)

    def flush(self, timeout: float = 30.0) -> None:
        """Block until everything queued so far is on the wire, without
        stopping the thread (pool workers flush between jobs and keep the
        sender for the next one).  With nothing queued — every frame went
        inline, or the thread has written them all (a count drops only
        after its write returned) — there is nothing to wait for and the
        thread is not woken."""
        self.check()
        with self._lock:
            if not any(self._queued.values()):
                return
        event = threading.Event()
        self._q.put((_FLUSH, event))
        if not event.wait(timeout):
            self.check()
            raise CommunicationError(
                f"sender thread failed to flush outbound messages within "
                f"{timeout}s (peer not draining?)"
            )
        self.check()

    def check(self) -> None:
        if self._error is not None:
            raise CommunicationError(
                f"send to peer failed: {self._error!r} (peer process died?)"
            )

    def flush_and_stop(self, timeout: float = 30.0) -> None:
        """Stop the thread after everything queued so far is on the wire."""
        self._q.put(_STOP)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise CommunicationError(
                "sender thread failed to flush outbound messages "
                f"within {timeout}s (peer not draining?)"
            )
        self.check()
