"""Child-process rank loop for the real-process backend.

Interprets the same op stream the virtual-time engine does — ``Send``,
``Recv``, ``Compute``, ``Now``, ``Count`` — but against OS pipes and the
wall clock:

* ``Send`` pickles a frame to the pairwise pipe (eager-buffered, never
  blocks the rank program) and counts messages/bytes exactly as the
  simulator does (``nbytes = op.wire_size()``, computed identically).
* ``Recv`` drains the source pipe into per-``(source, tag)`` FIFO
  buffers until a matching frame appears.  Wildcard receives pick the
  earliest *locally arrived* candidate — real execution cannot know
  global arrival order, the one simulator guarantee this backend relaxes
  (see docs/internals.md §10).  A peer whose end frame has arrived has
  finished the job, and one whose pipe hit EOF has died: an untimed
  receive only they could satisfy raises instead of hanging.
* ``Compute`` charges **no** time: the virtual seconds describe the 1990
  machine, not this host.  Instead the wall-clock time the rank program
  actually spent between op boundaries is attributed to each op's phase,
  so phase tables and traces describe the real run.
* ``Now`` resumes with wall-clock seconds since the job was shipped.

Per-rank counters, trace events, the final return value, and the wall
clock stream back to the parent over the control pipe; trace events are
flushed in chunks so long runs do not accumulate in child memory.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from multiprocessing.connection import wait as conn_wait
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import CommunicationError, EngineError
from repro.machine import api
from repro.machine.api import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    Count,
    Message,
    Now,
    Op,
    Rank,
    Recv,
    Send,
    validate_peer,
    validate_send,
)
from repro.machine.mp.transport import (
    END_FRAME,
    FRAME_NBYTES,
    FRAME_PAYLOAD,
    FRAME_SEQ,
    FRAME_TAG,
    SenderThread,
    close_mesh_except,
)
from repro.machine.shm import ShmPayload
from repro.machine.stats import RankStats
from repro.machine.trace import TraceEvent

# Shared-state slot layout (parent reads these on watchdog timeout).
ST_RUNNING = 0
ST_BLOCKED = 1
ST_DONE = 2

_TRACE_FLUSH = 512


class _Inbox:
    """Per-(source, tag) FIFO buffers over the pairwise pipes.  Every
    buffered channel is non-empty."""

    def __init__(self, conns: List[Optional[Any]]):
        self.conns = list(conns)
        self.buffered: Dict[Tuple[int, int], Deque[Tuple[int, tuple]]] = {}
        self._arrival_counter = 0
        #: wall time each buffered frame was drained (arrival proxy)
        self.arrival_wall: Dict[int, float] = {}
        #: peers whose end frame has arrived: finished for this job.  Every
        #: data frame they sent precedes it, so nothing from them is lost.
        self.finished: set = set()

    def _mark_dead(self, src: int) -> None:
        conn = self.conns[src]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
            self.conns[src] = None

    def _take(self, src: int, frame: Optional[tuple], wall: float) -> None:
        if frame is END_FRAME:
            self.finished.add(src)
            return
        idx = self._arrival_counter
        self._arrival_counter += 1
        self.buffered.setdefault((src, frame[FRAME_TAG]), deque()).append(
            (idx, frame)
        )
        self.arrival_wall[idx] = wall

    def drain_one(self, src: int, deadline: Optional[float], now_fn) -> bool:
        """Block until one frame from ``src`` is drained (True) or the
        deadline expires (False).  A finished or dead peer can never
        satisfy the receive: an untimed one raises instead of hanging
        forever, a timed one waits its deadline out — it completes by
        timing out, exactly as on the simulator."""
        conn = self.conns[src]
        if conn is not None and src not in self.finished:
            if deadline is not None and not conn.poll(
                    max(deadline - time.monotonic(), 0.0)):
                return False
            try:
                frame = conn.recv()
            except EOFError:
                self._mark_dead(src)
            else:
                self._take(src, frame, now_fn())
                return True
        if deadline is None:
            raise CommunicationError(
                f"receive from rank {src} can never complete: the peer "
                "has finished this job or died")
        time.sleep(max(deadline - time.monotonic(), 0.0))
        return False

    def drain_ready(self, now_fn) -> None:
        """Drain every frame currently readable on any pipe (no blocking).
        Peers at EOF (dead) are retired; the supervisor reports them."""
        live = [c for c in self.conns if c is not None]
        for conn in conn_wait(live, timeout=0):
            src = self.conns.index(conn)
            while conn.poll(0):
                try:
                    frame = conn.recv()
                except EOFError:
                    self._mark_dead(src)
                    break
                self._take(src, frame, now_fn())

    def wait_any(self, deadline: Optional[float], now_fn) -> bool:
        """Block until a frame arrives; False on deadline expiry.  Raises
        once every peer has finished or died (nothing can ever arrive)
        unless a deadline bounds the wait."""
        while True:
            live = [c for r, c in enumerate(self.conns)
                    if c is not None and r not in self.finished]
            if not live and deadline is None:
                raise CommunicationError(
                    "wildcard receive can never complete: every peer has "
                    "finished this job or died")
            timeout = (
                None if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
            ready = conn_wait(live, timeout=timeout)
            if not ready:
                return False
            before = self._arrival_counter
            self.drain_ready(now_fn)
            if self._arrival_counter > before:
                return True
            # Only end frames or EOFs were ready; loop (`live` shrinks).

    def pop_match(self, source: int, tag: int) -> Optional[Tuple[int, int, tuple]]:
        """Pop the matching frame with the earliest local arrival, or None.

        Returns ``(arrival_idx, src, frame)``.  Exact ``(source, tag)``
        receives take the head of their own channel (send-order FIFO);
        wildcard receives compare the heads of the buffered channels by
        local arrival index — the relaxed ordering real hardware
        provides.  A channel is dropped once empty, so a receive costs
        what is buffered, not every tag the job has used.
        """
        if source != ANY_SOURCE and tag != ANY_TAG:
            chan = (source, tag)
            if chan not in self.buffered:
                return None
        else:
            chan = None
            best_key = None
            for (src, t), q in self.buffered.items():
                if source != ANY_SOURCE and src != source:
                    continue
                if tag != ANY_TAG and t != tag:
                    continue
                if best_key is None or q[0][0] < best_key:
                    best_key = q[0][0]
                    chan = (src, t)
            if chan is None:
                return None
        q = self.buffered[chan]
        idx, frame = q.popleft()
        if not q:
            del self.buffered[chan]
        return idx, chan[0], frame

    def reset(self) -> int:
        """Discard every buffered frame (job boundary); returns the number
        discarded.  Connections persist; per-job message state and the
        finished set are cleared."""
        discarded = sum(len(q) for q in self.buffered.values())
        self.buffered.clear()
        self.arrival_wall.clear()
        self.finished.clear()
        return discarded


def _encode(dataplane, stats: RankStats, obj: Any, consumers) -> Any:
    """Serialize ``obj`` through the data plane for ``consumers``
    (identity without one), counting what rode shared memory."""
    if dataplane is None:
        return obj
    fallbacks = dataplane.fallbacks
    payload = dataplane.dumps(obj, consumers)
    if isinstance(payload, ShmPayload):
        stats.count("shm_bytes_sent", payload.nbytes)
        stats.count("shm_blocks_sent", len(payload.refs))
    if dataplane.fallbacks > fallbacks:
        stats.count("shm_fallbacks", dataplane.fallbacks - fallbacks)
    return payload


def rank_loop(rank_id: int, nranks: int, pipes, ctrls, board, dataplane,
              decode) -> None:
    """Entry point of one forked rank process: serve ``job`` / ``reset``
    / ``ping`` commands from the control pipe until ``stop`` or parent
    EOF.  The :class:`SenderThread`, the :class:`_Inbox` and the optional
    shm ``dataplane`` (its arena rewound at each reset barrier) live as
    long as the process; per-job state is rebuilt from each job message,
    whose program ``decode(payload, dataplane)`` rebuilds.  When the
    program returns, the rank sends every peer an end frame behind its
    last data frame, so a receive waiting on it fails at once.
    """
    close_mesh_except(pipes, rank_id)
    for r, c in enumerate(ctrls):
        if r != rank_id:
            c.close()
    conn = ctrls[rank_id]
    peers = pipes[rank_id]
    sender = SenderThread()
    inbox = _Inbox(peers)
    if dataplane is not None:
        dataplane.attach(rank_id)

    def set_state(status: int, src: int = -2, tag: int = -2) -> None:
        base = 3 * rank_id
        board[base] = status
        board[base + 1] = src
        board[base + 2] = tag

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent is gone; nothing left to serve
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "ping":
                conn.send(("pong", msg[1]))
                continue
            if kind == "reset":
                inbox.drain_ready(time.monotonic)
                reclaimed = (dataplane.reset_party()
                             if dataplane is not None else 0)
                conn.send(("reset_done", inbox.reset(), reclaimed))
                continue

            _, t0, program, machine, topology, arg, trace = msg

            def now() -> float:
                return time.monotonic() - t0

            stats = RankStats(rank_id)
            trace_buf: List[TraceEvent] = []

            def flush_trace(force: bool = False) -> None:
                if trace and trace_buf and (force or
                                            len(trace_buf) >= _TRACE_FLUSH):
                    conn.send(("trace", list(trace_buf)))
                    trace_buf.clear()

            try:
                set_state(ST_RUNNING)
                program = decode(program, dataplane)
                if dataplane is not None and arg is not None:
                    arg = dataplane.loads(arg)
                gen = program(Rank(rank_id, nranks, machine, topology, arg))
                if not hasattr(gen, "send"):
                    raise EngineError(
                        "rank program must be a generator function (did "
                        "you forget to 'yield'?)"
                    )
                value = _interpret(
                    rank_id, nranks, gen, stats,
                    trace_buf if trace else None, sender, inbox,
                    peers, now, set_state, flush_trace,
                    dataplane=dataplane,
                )
                if dataplane is not None:
                    # Gathered results ride the data plane too: the parent
                    # (the plane's extra party) loads them out of the
                    # finish record.  Counted before the stats are shipped.
                    value = _encode(dataplane, stats, value,
                                    (dataplane.parent_party,))
                    stats.counters["shm_hwm_bytes"] = dataplane.hwm_bytes
                # Nothing more comes from this rank in this job: say so
                # behind the data frames (uncounted: it is not a message).
                for peer in peers:
                    if peer is not None:
                        sender.send(peer, END_FRAME)
                # Everything this job queued must be on the wire before we
                # report: peers drain their pipes at the reset barrier, and
                # the barrier only starts after every rank reported.
                sender.flush()
                set_state(ST_DONE)
                flush_trace(force=True)
                conn.send(("finish", now(), value, stats))
            except Exception:
                set_state(ST_DONE)
                try:
                    flush_trace(force=True)
                    conn.send(("error", now(), traceback.format_exc(), stats))
                except Exception:
                    break
                # The parent fails the job and tears the mesh down; the
                # rank keeps answering the control pipe until then.
    finally:
        try:  # deterministic teardown: no sender thread outlives the rank
            sender.flush_and_stop(timeout=5.0)
        except Exception:
            pass


def _interpret(
    rank_id: int,
    nranks: int,
    gen,
    stats: RankStats,
    trace_events: Optional[List[TraceEvent]],
    sender: SenderThread,
    inbox: _Inbox,
    conns: List[Optional[Any]],
    now,
    set_state,
    flush_trace,
    dataplane=None,
) -> Any:
    """Drive the rank generator over real pipes; returns its value.

    With a ``dataplane``, each payload crosses as the plane's pickle, its
    large buffers in shared memory (loaded again after receive);
    ``nbytes``/``bytes_sent`` still come from the *original* payload via
    ``op.wire_size()``, so traffic accounting is transport-independent.
    """
    resume: Any = None
    seq_counter = 0
    ops = 0
    op_limit = api.MAX_OPS
    send = gen.send
    check = sender.check
    # Wall time spent *inside the generator* since the last op completed;
    # attributed to the phase of the op it led up to.  Ops without a
    # phase (Now/Count) roll their elapsed time into the next phased op,
    # and read no clock of their own beyond Now's value.
    pending_since = now()

    while True:
        try:
            op = send(resume)
        except StopIteration as stop:
            return stop.value
        resume = None
        ops += 1
        if ops > op_limit:
            raise EngineError(
                f"exceeded {op_limit} ops; runaway rank program?"
            )
        check()
        kind = type(op)

        if kind is Count:
            stats.count(op.name, op.amount)

        elif kind is Compute:
            # No sleep: the modelled seconds describe the 1990 machine.
            # The *host* time the generator just spent computing is what
            # gets charged to this op's phase.
            op_start = now()
            stats.charge(op.phase, op_start - pending_since)
            if trace_events is not None and op_start - pending_since > 0:
                trace_events.append(TraceEvent(
                    rank=rank_id, kind="compute", start=pending_since,
                    end=op_start, phase=op.phase, label=op.label,
                ))
                flush_trace()
            pending_since = op_start

        elif kind is Send:
            op_start = now()
            validate_send(rank_id, op, nranks)
            nbytes = op.wire_size()
            seq = rank_id + nranks * seq_counter  # globally unique
            seq_counter += 1
            framelen = sender.send(
                conns[op.dest],
                (op.tag, seq, nbytes, op_start,
                 _encode(dataplane, stats, op.payload, (op.dest,))),
            )
            stats.count("pipe_bytes_sent", framelen)
            end = now()
            stats.charge(op.phase, end - pending_since)
            stats.messages_sent += 1
            stats.bytes_sent += nbytes
            if trace_events is not None:
                trace_events.append(TraceEvent(
                    rank=rank_id, kind="send", start=op_start, end=end,
                    phase=op.phase, peer=op.dest, tag=op.tag, nbytes=nbytes,
                    label=op.label, seq=seq,
                ))
                flush_trace()
            pending_since = end

        elif kind is Recv:
            op_start = now()
            if op.source != ANY_SOURCE:
                validate_peer(op.source, nranks)
            msg = _do_recv(
                rank_id, op, inbox, now, set_state, dataplane, stats,
            )
            end = now()
            stats.charge(op.phase, end - pending_since)
            if msg is None:
                stats.count("recv_timeouts", 1)
                if trace_events is not None:
                    trace_events.append(TraceEvent(
                        rank=rank_id, kind="recv_timeout", start=op_start,
                        end=end, phase=op.phase,
                        peer=(op.source if op.source != ANY_SOURCE else None),
                        tag=(op.tag if op.tag != ANY_TAG else None),
                        label=op.label,
                    ))
                    flush_trace()
            else:
                stats.messages_received += 1
                stats.bytes_received += msg[1].nbytes
                resume = msg[1]
                if trace_events is not None:
                    trace_events.append(TraceEvent(
                        rank=rank_id, kind="recv", start=op_start, end=end,
                        phase=op.phase, peer=msg[1].source, tag=msg[1].tag,
                        nbytes=msg[1].nbytes, label=op.label, seq=msg[1].seq,
                        busy_start=max(min(msg[0], end), op_start),
                    ))
                    flush_trace()
            pending_since = end

        elif kind is Now:
            resume = now()

        elif isinstance(op, Op):
            raise EngineError(
                f"rank {rank_id} yielded unsupported op {op!r} on the mp "
                "backend"
            )
        else:
            raise EngineError(f"rank {rank_id} yielded non-op {op!r}")


def _do_recv(
    rank_id: int,
    op: Recv,
    inbox: _Inbox,
    now,
    set_state,
    dataplane=None,
    stats: Optional[RankStats] = None,
) -> Optional[Tuple[float, Message]]:
    """Blocking receive with optional timeout.  Returns ``(arrival_wall,
    Message)`` or None on timeout."""
    deadline = None if op.timeout is None else time.monotonic() + op.timeout
    set_state(ST_BLOCKED, op.source, op.tag)
    try:
        while True:
            got = inbox.pop_match(op.source, op.tag)
            if got is not None:
                idx, src, frame = got
                arrival = inbox.arrival_wall.pop(idx, now())
                payload = frame[FRAME_PAYLOAD]
                if dataplane is not None:
                    if isinstance(payload, ShmPayload) and stats is not None:
                        stats.count("shm_bytes_recv", payload.nbytes)
                        stats.count("shm_blocks_recv", len(payload.refs))
                    payload = dataplane.loads(payload)
                return arrival, Message(
                    source=src,
                    dest=rank_id,
                    tag=frame[FRAME_TAG],
                    payload=payload,
                    nbytes=frame[FRAME_NBYTES],
                    arrival=arrival,
                    seq=frame[FRAME_SEQ],
                )
            if op.source != ANY_SOURCE:
                if not inbox.drain_one(op.source, deadline, now):
                    return None
            else:
                if not inbox.wait_any(deadline, now):
                    return None
    finally:
        set_state(ST_RUNNING)
