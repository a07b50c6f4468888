"""An outside-in tracer: spans and tallies around the program's public
entry points, recorded entirely from the benchmark's side.

The program under ``src/`` carries no instrumentation.  For a traced
run the harness *rebinds* public functions in the namespaces that call
them (``repro.core.context.run_executor``, a class's method, a job
runner in the registry) to wrappers built here, and restores every
binding afterwards (:meth:`Tracer.uninstall`).  Two wrapper shapes:

* :func:`wrap_fn` — a plain call.  One span; its *self time* is its
  duration minus the part its child spans cover.
* :func:`wrap_genfn` — a rank-side generator (``yield Send(...)``
  protocol).  The simulator interleaves 16 such generators on one
  thread, so a generator's wall span says little; what is accounted is
  its **busy** time — from each resume to the next yield — minus the
  busy time of wrapped generators it delegates to.  The wrapper forwards
  ``send``/``throw``/``close`` and the return value unchanged (PEP 380),
  so the engine sees the identical op stream, and it may *tally* the
  ops that pass through it (messages, bytes, ``Count`` amounts).

Everything lands in three plain containers — ``acc`` (calls and self
seconds per name), ``counts`` (tallies) and ``spans`` — kept in memory;
windowed metrics are differences of :meth:`Tracer.snapshot` s.  Rank
programs that run in pool/mp child processes bring their share home as
part of their return value (:func:`harvesting`), and the patched ``run``
strips it again, so traced results stay identical to untraced ones.

Wrappers reach the recorder through the module global :data:`TRACER`,
never through a closure: timed kernels and harvesting programs are
shipped *by value* to already-forked pool workers, where this module's
globals — the worker's fork-inherited copy — are what they must find.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

#: span tuple layout (kept as tuples: tens of thousands per pass)
SPAN_FIELDS = ("name", "start", "end", "parent", "op_id", "self_s")


class Tracer:
    """Span/tally store plus the rebinding bookkeeping."""

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (bindings are untouched)."""
        self.acc: Dict[str, List[float]] = {}     # name -> [calls, self_s]
        self.counts: Dict[str, int] = {}
        self.spans: List[Optional[tuple]] = []
        #: self seconds merged in from child processes (they ran in
        #: parallel with this one, so they are not part of its wall)
        self.remote_s = 0.0
        #: per-rank op ids for programs whose ranks interleave on one
        #: thread (the harness's own sweep program fills this in)
        self.rank_op: Dict[int, Any] = {}
        self._tls = threading.local()
        self._lock = threading.Lock()

    # --- per-thread state ------------------------------------------------

    def stack(self) -> list:
        """This thread's open frames, innermost last: ``[child_s, span]``."""
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def set_op(self, op_id: Any) -> None:
        """Tag spans opened on this thread from now on with ``op_id``."""
        self._tls.op = op_id

    def current_op(self) -> Any:
        return getattr(self._tls, "op", None)

    def current_span(self) -> Optional[int]:
        stack = self.stack()
        return stack[-1][1] if stack else None

    # --- recording -------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def open_span(self) -> int:
        """Reserve a span slot; returns its index."""
        with self._lock:
            self.spans.append(None)
            return len(self.spans) - 1

    def charge(self, name: str, own: float, calls: int = 0) -> None:
        with self._lock:
            slot = self.acc.get(name)
            if slot is None:
                self.acc[name] = [calls, own]
            else:
                slot[0] += calls
                slot[1] += own

    # --- rebinding -------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Rebind ``owner.attr`` (a module global, a class's method, or a
        dict entry) to ``make(original)``; :meth:`uninstall` restores it.
        A missing target raises: a silently unwrapped layer would read
        as zero time."""
        original = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        self._patches.append((owner, attr, original))
        _bind(owner, attr, make(original))

    def uninstall(self) -> None:
        """Restore every binding :meth:`patch` changed, newest first."""
        while self._patches:
            _bind(*self._patches.pop())

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # --- windows, child processes ----------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """A copy of the cumulative tallies (difference two of these)."""
        with self._lock:
            return {"acc": {k: tuple(v) for k, v in self.acc.items()},
                    "counts": dict(self.counts), "remote_s": self.remote_s}

    def enter_child_process(self) -> None:
        """A forked worker inherits the parent's records; drop them the
        first time this process traces anything."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.reset()

    def drain(self) -> tuple:
        """Hand over (and forget) everything recorded in this process —
        plain tuples, so it pickles through a control pipe."""
        with self._lock:
            out = (tuple((k, v[0], v[1]) for k, v in self.acc.items()),
                   tuple(self.counts.items()),
                   tuple(s for s in self.spans if s is not None))
            self.acc, self.counts, self.spans = {}, {}, []
        return out

    def merge(self, drained: tuple, parent: Optional[int]) -> None:
        """Fold a child process's :meth:`drain` into this tracer; its
        root spans become children of span ``parent``."""
        acc, counts, spans = drained
        for name, calls, own in acc:
            self.charge(name, own, calls=int(calls))
        for name, amount in counts:
            self.count(name, amount)
        with self._lock:
            self.remote_s += sum(own for _name, _calls, own in acc)
            base = len(self.spans)
            for name, t0, t1, par, op_id, own in spans:
                self.spans.append(
                    (name, t0, t1, parent if par is None else par + base,
                     op_id, own))


def _bind(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


#: the one tracer of this process (children inherit it through fork)
TRACER = Tracer()


# --- wrappers ---------------------------------------------------------------


def wrap_fn(name: str, fn: Callable) -> Callable:
    """Span around a plain call of ``fn``, charged to ``name``."""

    def traced(*args, **kwargs):
        tr = TRACER
        stack = tr.stack()
        parent = stack[-1][1] if stack else None
        frame = [0.0, tr.open_span()]
        stack.append(frame)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            dt = t1 - t0
            own = dt - frame[0]
            if stack:
                stack[-1][0] += dt
            tr.charge(name, own, calls=1)
            tr.spans[frame[1]] = (name, t0, t1, parent, tr.current_op(), own)

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__wrapped__ = fn
    return traced


def wrap_genfn(name: str, genfn: Callable,
               tally: Optional[Callable[[Any], None]] = None) -> Callable:
    """Busy-time span around each generator ``genfn`` returns."""

    def traced(*args, **kwargs):
        return drive(name, genfn(*args, **kwargs), tally)

    traced.__name__ = getattr(genfn, "__name__", name)
    traced.__wrapped__ = genfn
    return traced


def drive(name: str, gen, tally=None, rank_id: Optional[int] = None):
    """Delegate to ``gen`` exactly as ``yield from`` would, charging each
    resume-to-yield interval to ``name`` and showing every yielded op to
    ``tally``.  With ``rank_id``, each resume first adopts that rank's
    op id from ``TRACER.rank_op`` (ranks interleaved on one thread)."""
    tr = TRACER
    idx = parent = op_id = None
    start = own_total = 0.0
    value: Any = None
    exc: Optional[BaseException] = None
    try:
        while True:
            stack = tr.stack()
            if rank_id is not None and rank_id in tr.rank_op:
                tr.set_op(tr.rank_op[rank_id])
            if idx is None:
                parent = stack[-1][1] if stack else None
                idx = tr.open_span()
                op_id = tr.current_op()
                start = perf()
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf()
            try:
                op = gen.throw(exc) if exc is not None else gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                dt = perf() - t0
                stack.pop()
                own = dt - frame[0]
                own_total += own
                if stack:
                    stack[-1][0] += dt
                tr.charge(name, own)
            if tally is not None:
                tally(op)
            exc = None
            try:
                value = yield op
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # forwarded into ``gen``
                exc = thrown
    finally:
        if idx is not None:
            tr.charge(name, 0.0, calls=1)
            tr.spans[idx] = (name, start, perf(), parent, op_id, own_total)


# --- programs that run in another process -----------------------------------


def harvesting(program: Callable, op_id: Any, tally=None) -> Callable:
    """Wrap a rank program so its process-local trace comes home with
    its return value: each rank returns ``(value, TRACER.drain())``."""

    def traced_program(rank):
        TRACER.enter_child_process()
        TRACER.set_op(op_id)
        value = yield from drive("rank", program(rank), tally)
        return value, TRACER.drain()

    return traced_program


def unharvest(result, parent_span: Optional[int]):
    """Strip the harvest from a child-process ``RunResult`` in place."""
    values = []
    for value, drained in result.values:
        TRACER.merge(drained, parent_span)
        values.append(value)
    result.values = values
    return result


# --- reading the records ----------------------------------------------------


def window(before: Dict[str, Dict], after: Dict[str, Dict]) -> Dict[str, Dict]:
    """What was recorded between two :meth:`Tracer.snapshot` s."""
    acc = {}
    for name, (calls, own) in after["acc"].items():
        c0, s0 = before["acc"].get(name, (0, 0.0))
        if calls != c0 or own != s0:
            acc[name] = (calls - c0, own - s0)
    counts = {name: n - before["counts"].get(name, 0)
              for name, n in after["counts"].items()
              if n != before["counts"].get(name, 0)}
    return {"acc": acc, "counts": counts,
            "remote_s": after["remote_s"] - before["remote_s"]}


def self_times(spans: List[tuple]) -> List[float]:
    """Self time of each *plain-call* span from the tree alone: its
    duration minus the total duration of its direct children.  The
    wrappers compute the same figure online (``self_s``); this is the
    definition the tests hold them to."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - child[i] for i, span in enumerate(spans)]
