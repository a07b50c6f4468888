"""Deterministic discrete-event SPMD engine.

The engine runs one generator per rank under *virtual time*.  Each rank has
its own clock; communication ops advance clocks according to the machine
cost model, and a blocking receive completes at
``max(receiver clock, message arrival) + alpha_recv``.

Scheduling is event-driven: a rank runs until it blocks on an unsatisfied
:class:`~repro.machine.api.Recv` or finishes.  A send to a rank blocked on
a matching receive makes that rank runnable again.  Because message
matching per ``(source, tag)`` channel is FIFO and arrival times are
functions only of sender clocks (never of host execution order), the
resulting virtual clocks are exactly reproducible.

Wildcard-*source* receives are resolved conservatively: only when every
other rank is blocked or finished does the engine match the candidate
message with the earliest arrival time (ties broken by source rank, then
sequence number).  The generated Kali runtime never needs wildcard sources
— schedules name their peers — but collectives tests and user programs may
use them.

Fault injection
---------------

An optional :class:`~repro.faults.FaultPlan` makes the simulated machine
misbehave deterministically.  The plan hooks into exactly two places:

* **Compute charging** — straggler ranks multiply every
  :class:`~repro.machine.api.Compute` charge by their slowdown factor,
  and a rank whose crash time has passed stops executing at its next op
  boundary.
* **Message injection** — each send consults the plan for the link's
  fate: *drop* (the message never reaches the mailbox; the sender is
  still charged), *duplicate* (a second copy with the same sequence
  number arrives), and *jitter* (extra arrival delay).  With
  ``plan.retry`` set, the engine instead simulates the ack/retry
  transport from :mod:`repro.comm.reliable`: the whole exchange is
  precomputed as a pure function of the plan seed and the message
  identity, the sender's clock is charged for every frame injection plus
  one ack receipt, and the surviving copy arrives after the appropriate
  number of timeout periods.  Exhausting the retry budget raises
  :class:`~repro.errors.DeliveryError`.

Every fault decision keys on ``(seed, salt, src, dst, seq)`` — never on
host execution order — so a faulted run is exactly as reproducible as a
clean one, and a plan whose links are clean leaves virtual clocks
byte-identical to running with no plan at all.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.errors import (
    BlockedOp,
    DeadlockError,
    DeliveryError,
    EngineError,
)
from repro.faults.plan import FaultPlan
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
from repro.machine.cost import MachineModel
from repro.machine.stats import RankStats, RunResult
from repro.machine.topology import FullyConnected, Topology
from repro.machine.trace import TraceEvent

RankProgram = Callable[[Rank], Generator[Op, Any, Any]]

_RUNNABLE = 0
_BLOCKED = 1
_FINISHED = 2
_CRASHED = 3


class _RankState:
    __slots__ = (
        "rank_id",
        "gen",
        "clock",
        "status",
        "waiting",  # the Recv op this rank is blocked on (if _BLOCKED)
        "resume_value",
        "value",
        "stats",
    )

    def __init__(self, rank_id: int, gen: Generator, stats: RankStats):
        self.rank_id = rank_id
        self.gen = gen
        self.clock = 0.0
        self.status = _RUNNABLE
        self.waiting: Optional[Recv] = None
        self.resume_value: Any = None
        self.value: Any = None
        self.stats = stats


class Engine:
    """Run an SPMD program (one generator per rank) to completion.

    Parameters
    ----------
    machine:
        Cost model used to charge virtual time.
    topology:
        Interconnect (defaults to :class:`FullyConnected` over ``nranks``).
    nranks:
        World size; defaults to ``topology.size``.
    faults:
        Optional :class:`~repro.faults.FaultPlan` describing link faults,
        stragglers, and crashes (see module docstring).
    """

    def __init__(
        self,
        machine: MachineModel,
        topology: Optional[Topology] = None,
        nranks: Optional[int] = None,
        trace: bool = False,
        faults: Optional[FaultPlan] = None,
    ):
        if topology is None:
            if nranks is None:
                raise EngineError("Engine needs a topology or an explicit nranks")
            topology = FullyConnected(nranks)
        self.machine = machine
        self.topology = topology
        self.nranks = nranks if nranks is not None else topology.size
        if self.nranks > topology.size:
            raise EngineError(
                f"nranks={self.nranks} exceeds topology size {topology.size}"
            )
        self.trace = trace
        self.faults = faults

    # --- public API ------------------------------------------------------

    def run(
        self,
        program: RankProgram,
        args: Optional[List[Any]] = None,
    ) -> RunResult:
        """Execute ``program`` on every rank and return the :class:`RunResult`.

        ``args`` optionally supplies a per-rank argument object exposed as
        ``rank.arg``.
        """
        if args is not None and len(args) != self.nranks:
            raise EngineError(f"args must have length {self.nranks}")

        states: List[_RankState] = []
        for r in range(self.nranks):
            ctx = Rank(r, self.nranks, self.machine, self.topology,
                       args[r] if args is not None else None)
            gen = program(ctx)
            if not hasattr(gen, "send"):
                raise EngineError(
                    "rank program must be a generator function (did you forget "
                    "to 'yield'?)"
                )
            states.append(_RankState(r, gen, RankStats(r)))

        faults = self.faults
        retry = faults.retry if faults is not None else None
        if retry is not None:
            # Imported lazily: repro.comm.reliable imports repro.faults,
            # which must stay importable without the comm package.
            from repro.comm.reliable import plan_transmissions
        crash_at: Dict[int, float] = dict(faults.crashes) if faults else {}
        dropped_total = 0

        # mailbox[(dst, src, tag)] -> FIFO of messages
        mailbox: Dict[Tuple[int, int, int], Deque[Message]] = defaultdict(deque)
        ready: Deque[int] = deque(range(self.nranks))
        seq_counter = 0
        ops_interpreted = 0
        op_limit = api.MAX_OPS
        trace_events: List[TraceEvent] = [] if self.trace else None
        # topology.hops per (src, dst), memoised for this run
        hops_memo: Dict[Tuple[int, int], int] = {}

        def fault_event(rank: int, label: str, t: float, peer=None, tag=None,
                        nbytes: int = 0, phase: str = "") -> None:
            if trace_events is not None:
                trace_events.append(TraceEvent(
                    rank=rank, kind="fault", start=t, end=t, phase=phase,
                    peer=peer, tag=tag, nbytes=nbytes, label=label,
                ))

        def crash(state: _RankState, at: float) -> None:
            state.status = _CRASHED
            state.clock = max(state.clock, at)
            state.waiting = None
            try:
                state.gen.close()
            except Exception:
                pass  # a crash must not be masked by generator cleanup
            state.stats.count("fault_crashes", 1)
            fault_event(state.rank_id, "crash", state.clock)

        def try_match(state: _RankState, recv: Recv) -> Optional[Message]:
            """Match a receive against the mailbox; wildcard-source receives
            are only matched here during the resolution phase."""
            dst = state.rank_id
            if recv.source != ANY_SOURCE and recv.tag != ANY_TAG:
                q = mailbox.get((dst, recv.source, recv.tag))
                return q[0] if q else None
            candidates: List[Message] = []
            if recv.source != ANY_SOURCE:
                for (d, s, t), q in mailbox.items():
                    if d == dst and s == recv.source and q:
                        candidates.append(q[0])
            else:
                for (d, s, t), q in mailbox.items():
                    if d == dst and q and (recv.tag == ANY_TAG or t == recv.tag):
                        candidates.append(q[0])
            if not candidates:
                return None
            # Ties break by source, then send order (seq) — never by tag,
            # which would reorder same-arrival messages from one sender.
            return min(candidates, key=lambda m: (m.arrival, m.source, m.seq))

        def can_deliver(state: _RankState, recv: Recv, msg: Message) -> bool:
            """Would delivering ``msg`` respect the receive's timeout and
            the rank's crash time?"""
            ready_at = max(state.clock, msg.arrival)
            ct = crash_at.get(state.rank_id)
            if ct is not None and ready_at >= ct:
                return False
            if recv.timeout is not None and msg.arrival > state.clock + recv.timeout:
                return False
            return True

        def consume(msg: Message) -> None:
            q = mailbox[(msg.dest, msg.source, msg.tag)]
            assert q and q[0] is msg
            q.popleft()
            if not q:
                del mailbox[(msg.dest, msg.source, msg.tag)]

        def deliver(state: _RankState, recv: Recv, msg: Message) -> None:
            consume(msg)
            wait_start = state.clock
            busy_start = max(state.clock, msg.arrival)
            completion = busy_start + self.machine.recv_busy(msg.nbytes)
            state.stats.charge(recv.phase, completion - wait_start)
            state.clock = completion
            state.stats.messages_received += 1
            state.stats.bytes_received += msg.nbytes
            state.resume_value = msg
            if trace_events is not None:
                trace_events.append(TraceEvent(
                    rank=state.rank_id, kind="recv", start=wait_start,
                    end=completion, phase=recv.phase, peer=msg.source,
                    tag=msg.tag, nbytes=msg.nbytes, label=recv.label,
                    seq=msg.seq, busy_start=busy_start,
                ))

        def wake_receiver(dest: int, source: int, tag: int) -> None:
            """Wake ``dest`` if it is blocked on a receive naming
            ``source`` (and a matching tag) that the message can complete.
            A wildcard-source receiver is *not* woken here: it stays
            blocked until the resolution phase, which only runs when
            nothing else can — that is what keeps wildcard matching
            conservative."""
            dst_state = states[dest]
            if dst_state.status != _BLOCKED:
                return
            w = dst_state.waiting
            if w is None or w.source != source:
                return
            if not (w.tag == ANY_TAG or w.tag == tag):
                return
            m = try_match(dst_state, w)
            if m is not None and can_deliver(dst_state, w, m):
                dst_state.status = _RUNNABLE
                dst_state.waiting = None
                deliver(dst_state, w, m)
                ready.append(dst_state.rank_id)

        def inject(state: _RankState, op: Send) -> None:
            """Charge a send and place its message (if any survives the
            fault plan) into the destination mailbox."""
            nonlocal seq_counter, dropped_total
            me = state.rank_id
            self._validate_send(me, op)
            m = self.machine
            nbytes = op.wire_size()
            hops = hops_memo.get((me, op.dest))
            if hops is None:
                hops = hops_memo[(me, op.dest)] = self.topology.hops(me, op.dest)
            link = faults.link(me, op.dest) if faults is not None else None
            send_start = state.clock
            seq = seq_counter
            seq_counter += 1
            arrivals: List[float] = []

            if retry is not None:
                tp = plan_transmissions(faults, retry, me, op.dest, seq)
                if tp.failed:
                    raise DeliveryError(
                        f"rank {me} -> {op.dest} tag {op.tag}: no "
                        f"acknowledgement after {retry.max_retries} "
                        f"retransmissions (seed {faults.seed}, seq {seq})"
                    )
                frame = nbytes + retry.header_nbytes
                busy = (len(tp.attempts) * m.send_busy(frame)
                        + m.recv_busy(retry.ack_nbytes))
                d = tp.attempts[tp.delivered]
                arrivals.append(
                    send_start + tp.delivered * retry.timeout
                    + m.send_busy(frame) + m.transit(frame, hops) + d.jitter
                )
                if tp.retransmissions:
                    state.stats.count("retry_retransmissions",
                                      tp.retransmissions)
                    for a in tp.attempts[1:]:
                        fault_event(me, "retry",
                                    send_start + a.index * retry.timeout,
                                    peer=op.dest, tag=op.tag, nbytes=frame,
                                    phase=op.phase)
                if tp.duplicates:
                    states[op.dest].stats.count("retry_duplicates_suppressed",
                                                tp.duplicates)
            else:
                busy = m.send_busy(nbytes)
                jitter = 0.0
                if link is not None and link.jitter > 0.0:
                    jitter = faults.unit("jitter", me, op.dest, seq) * link.jitter
                    if jitter > 0.0:
                        state.stats.count("fault_messages_delayed", 1)
                if (link is not None and link.drop > 0.0
                        and faults.unit("drop", me, op.dest, seq) < link.drop):
                    dropped_total += 1
                    state.stats.count("fault_messages_dropped", 1)
                    fault_event(me, "drop", send_start + busy, peer=op.dest,
                                tag=op.tag, nbytes=nbytes, phase=op.phase)
                else:
                    arrivals.append(
                        send_start + busy + m.transit(nbytes, hops) + jitter)
                    if (link is not None and link.duplicate > 0.0
                            and faults.unit("dup", me, op.dest, seq)
                            < link.duplicate):
                        dj = (faults.unit("dup-jit", me, op.dest, seq)
                              * link.jitter if link.jitter > 0.0 else 0.0)
                        arrivals.append(
                            send_start + busy + m.transit(nbytes, hops) + dj)
                        state.stats.count("fault_messages_duplicated", 1)
                        fault_event(me, "duplicate", send_start + busy,
                                    peer=op.dest, tag=op.tag, nbytes=nbytes,
                                    phase=op.phase)

            if trace_events is not None:
                trace_events.append(TraceEvent(
                    rank=me, kind="send", start=send_start,
                    end=send_start + busy, phase=op.phase, peer=op.dest,
                    tag=op.tag, nbytes=nbytes, label=op.label, seq=seq,
                ))
            state.clock = send_start + busy
            state.stats.charge(op.phase, busy)
            state.stats.messages_sent += 1
            state.stats.bytes_sent += nbytes
            # A dropped message is charged but never enqueued; duplicates
            # share the original's sequence number.
            for arrival in arrivals:
                mailbox[(op.dest, me, op.tag)].append(Message(
                    source=me, dest=op.dest, tag=op.tag, payload=op.payload,
                    nbytes=nbytes, arrival=arrival, seq=seq,
                ))
            if arrivals:
                wake_receiver(op.dest, me, op.tag)

        def step(state: _RankState) -> None:
            """Advance one rank until it blocks, finishes, or crashes.

            Dispatch is on the op's exact type, most frequent first; an
            object of any other type (a subclass of an op included) is
            not an op."""
            nonlocal ops_interpreted
            rid = state.rank_id
            stats = state.stats
            send = state.gen.send
            slowdown = faults.slowdown(rid) if faults is not None else 1.0
            ct = crash_at.get(rid)
            while True:
                if ct is not None and state.clock >= ct:
                    crash(state, ct)
                    return
                try:
                    op = send(state.resume_value)
                except StopIteration as stop:
                    state.status = _FINISHED
                    state.value = stop.value
                    return
                state.resume_value = None
                ops_interpreted += 1
                if ops_interpreted > op_limit:
                    raise EngineError(
                        f"exceeded {op_limit} ops; runaway rank program?"
                    )
                kind = type(op)
                if kind is Count:
                    stats.count(op.name, op.amount)
                elif kind is Compute:
                    seconds = op.seconds * slowdown
                    if trace_events is not None and seconds > 0:
                        trace_events.append(TraceEvent(
                            rank=rid, kind="compute",
                            start=state.clock, end=state.clock + seconds,
                            phase=op.phase, label=op.label,
                        ))
                    state.clock += seconds
                    stats.charge(op.phase, seconds)
                elif kind is Send:
                    inject(state, op)
                elif kind is Recv:
                    if op.source != ANY_SOURCE:
                        self._validate_peer(op.source)
                        msg = try_match(state, op)
                        if msg is not None and can_deliver(state, op, msg):
                            deliver(state, op, msg)
                            continue
                    state.status = _BLOCKED
                    state.waiting = op
                    return
                elif kind is Now:
                    state.resume_value = state.clock
                else:
                    raise EngineError(f"rank {rid} yielded non-op {op!r}")

        while True:
            while ready:
                rid = ready.popleft()
                state = states[rid]
                if state.status != _RUNNABLE:
                    continue
                step(state)
            # Resolution phase: everyone is blocked, finished, or crashed.
            blocked = [s for s in states if s.status == _BLOCKED]
            if not blocked:
                break
            progressed = False
            for state in blocked:
                recv = state.waiting
                assert recv is not None
                msg = try_match(state, recv)
                if msg is not None and can_deliver(state, recv, msg):
                    state.status = _RUNNABLE
                    state.waiting = None
                    deliver(state, recv, msg)
                    ready.append(state.rank_id)
                    progressed = True
                    break  # re-run the progress phase before matching more
            if not progressed:
                # No message can complete any blocked receive.  Fire the
                # earliest pending receive timeout (ties by rank id), one
                # at a time so the woken rank's sends get first claim.
                candidates = []
                for state in blocked:
                    recv = state.waiting
                    if recv.timeout is None:
                        continue
                    deadline = state.clock + recv.timeout
                    ct = crash_at.get(state.rank_id)
                    if ct is not None and ct <= deadline:
                        continue  # the crash preempts the timeout
                    candidates.append((deadline, state.rank_id, state))
                if candidates:
                    deadline, _, state = min(
                        candidates, key=lambda c: (c[0], c[1]))
                    recv = state.waiting
                    state.stats.charge(recv.phase, deadline - state.clock)
                    state.stats.count("recv_timeouts", 1)
                    if trace_events is not None:
                        trace_events.append(TraceEvent(
                            rank=state.rank_id, kind="recv_timeout",
                            start=state.clock, end=deadline, phase=recv.phase,
                            peer=(recv.source if recv.source != ANY_SOURCE
                                  else None),
                            tag=(recv.tag if recv.tag != ANY_TAG else None),
                            label=recv.label,
                        ))
                    state.clock = deadline
                    state.status = _RUNNABLE
                    state.waiting = None
                    state.resume_value = None
                    ready.append(state.rank_id)
                    progressed = True
            if not progressed:
                # Blocked ranks with a pending crash die now: nothing can
                # wake them before their crash time.
                for state in blocked:
                    ct = crash_at.get(state.rank_id)
                    if ct is not None:
                        crash(state, ct)
                        progressed = True
            if not progressed:
                raise DeadlockError(
                    {
                        s.rank_id: BlockedOp(
                            source=s.waiting.source, tag=s.waiting.tag,
                            phase=s.waiting.phase, label=s.waiting.label,
                            clock=s.clock, timeout=s.waiting.timeout,
                        )
                        for s in blocked
                    },
                    undelivered=[
                        (msg.source, msg.dest, msg.tag, msg.arrival, msg.nbytes)
                        for q in mailbox.values() for msg in q
                    ],
                    crashed={
                        s.rank_id: crash_at[s.rank_id]
                        for s in states
                        if s.status == _CRASHED and s.rank_id in crash_at
                    },
                    dropped=dropped_total,
                )

        # Leftover messages are not an error per se (MPI allows it), but
        # they usually indicate a bug in generated schedules; charge each
        # count to the rank the messages were addressed to.
        for (dst, _src, _tag), q in mailbox.items():
            if q:
                states[dst].stats.count("undelivered_messages", len(q))

        if trace_events is not None:
            for s_ in states:
                trace_events.append(TraceEvent(
                    rank=s_.rank_id, kind="finish", start=s_.clock, end=s_.clock
                ))
            trace_events.sort(key=lambda e: (e.start, e.rank))
        result = RunResult(
            nranks=self.nranks,
            clocks=[s.clock for s in states],
            stats=[s.stats for s in states],
            values=[s.value for s in states],
        )
        result.trace = trace_events
        return result

    # --- helpers -------------------------------------------------------------

    def _validate_peer(self, peer: int) -> None:
        validate_peer(peer, self.nranks)

    def _validate_send(self, sender: int, op: Send) -> None:
        validate_send(sender, op, self.nranks)


def run_spmd(
    program: RankProgram,
    nranks: int,
    machine: MachineModel,
    topology: Optional[Topology] = None,
    args: Optional[List[Any]] = None,
    faults: Optional[FaultPlan] = None,
) -> RunResult:
    """One-shot convenience wrapper around :class:`Engine`."""
    engine = Engine(machine, topology=topology, nranks=nranks, faults=faults)
    return engine.run(program, args=args)
