"""DQueue: a global-view distributed FIFO with batched push/pop.

The queue's global order is a **ticket tape**: every pushed element gets
the next ticket ``t = tail, tail+1, ...`` and every pop consumes from
``head`` upward — exactly the order a sequential queue would produce.
Tickets are dealt round-robin over ranks (the same Cyclic deal DHash
uses for buckets): ticket ``t`` lives in rank ``t % P``'s **segment**, a
local dict ``ticket → value``.  Because the deal is a pure function of
the ticket, any rank knows where any element lives with no
communication, and the per-rank segments stay balanced to within one
element no matter the push/pop interleaving.

Batched ops are DHash's owner round trip
(:func:`repro.structs.dhash.owner_round_trip`), one combining exchange
each way:

* ``push_many(values)`` — the driver assigns tickets
  ``tail .. tail+n-1``, slices the batch evenly over ranks, each rank
  routes ``(ticket, value)`` pairs to the owning segments in one
  combining exchange.
* ``pop_many(k)`` — tickets ``head .. head+k-1`` are sliced evenly over
  requester ranks; each rank asks the owning segments (request hop),
  owners pop and reply (reply hop), and the driver reassembles values in
  ticket order.  Popping beyond the current size raises — the global
  size is driver-side knowledge, free to check.

Head/tail live in the driver (scattered into each op, like the DHash
stores), so a crashed op mutates nothing and serve retries are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.machine.api import Compute, Count, Rank
from repro.structs.dhash import StructsError, _StructBase, owner_round_trip
from repro.structs.exchange import packet_nbytes, scatter_packets


@dataclass
class _QSpec:
    """One rank's share of one batched queue op (``rank.arg``)."""

    op: str                      # "push" | "pop"
    tickets: np.ndarray          # this rank's slice of the ticket range
    vals: Optional[np.ndarray]   # push payloads (None for pop)
    segment: Dict[int, float]    # this rank's ticket -> value store


@dataclass
class _QOutcome:
    segment: Dict[int, float]
    tickets: np.ndarray
    result: np.ndarray


def _dqueue_op_program(rank: Rank):
    spec: _QSpec = rank.arg
    segment = spec.segment
    phase = "structs"
    m = rank.machine
    yield Count("structs_batches", 1)
    yield Count("structs_items", len(spec.tickets))
    owners = (spec.tickets % rank.size).astype(np.int64)

    if spec.op == "push":
        # A push is the round trip's request hop alone.
        delivered = yield from owner_round_trip(
            rank, owners, {"tickets": spec.tickets, "vals": spec.vals},
            phase=phase)
        landed = 0
        for src in sorted(delivered):
            packet = delivered[src]
            for t, v in zip(packet["tickets"], packet["vals"]):
                segment[int(t)] = float(v)
            landed += len(packet["tickets"])
        yield Count("structs_pushed", landed)
        yield Compute(m.insert_elem / 8 * landed, phase=phase)
        return _QOutcome(segment=segment, tickets=spec.tickets,
                         result=np.zeros(0))

    def pop(delivered):
        """Owner side: pop the requested tickets off this segment."""
        replies: Dict[int, Dict[str, np.ndarray]] = {}
        sizes: Dict[int, int] = {}
        popped = 0
        for src in sorted(delivered):
            tickets = delivered[src]["tickets"]
            out = np.zeros(len(tickets), dtype=np.float64)
            for i, t in enumerate(tickets):
                try:
                    out[i] = segment.pop(int(t))
                except KeyError:
                    raise StructsError(
                        f"rank {rank.id}: pop of absent ticket {int(t)}")
            popped += len(tickets)
            replies[src] = {"tickets": tickets, "vals": out}
            sizes[src] = packet_nbytes(replies[src])
        yield Count("structs_popped", popped)
        yield Compute(m.copy_elem * popped, phase=phase)
        return replies, sizes

    returned = yield from owner_round_trip(
        rank, owners, {"tickets": spec.tickets}, pop, phase=phase)
    result = np.zeros(len(spec.tickets), dtype=np.float64)
    scatter_packets(returned, "tickets",
                    int(spec.tickets[0]) if len(spec.tickets) else 0,
                    {"vals": result})
    return _QOutcome(segment=segment, tickets=spec.tickets, result=result)


class DQueue(_StructBase):
    """The global-view distributed FIFO (module docstring has the design)."""

    def __init__(self, nranks: int, **kwargs):
        super().__init__(nranks, **kwargs)
        self._segments: List[Dict[int, float]] = [{} for _ in range(nranks)]
        self.head = 0   # next ticket to pop
        self.tail = 0   # next ticket to assign

    def __len__(self) -> int:
        return self.tail - self.head

    def push_many(self, values) -> None:
        """Append a batch; element ``i`` gets ticket ``tail + i``."""
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if vals.ndim != 1:
            raise StructsError("push_many needs a 1-d value batch")
        if vals.size == 0:
            return
        tickets = np.arange(self.tail, self.tail + len(vals), dtype=np.int64)
        self._op("push", tickets, vals)
        self.tail += len(vals)

    def pop_many(self, k: int) -> np.ndarray:
        """Pop the ``k`` oldest elements, in exact FIFO order."""
        if k < 0:
            raise StructsError(f"pop_many needs k >= 0, got {k}")
        if k > len(self):
            raise StructsError(
                f"pop_many({k}) from a queue of {len(self)} elements")
        if k == 0:
            return np.zeros(0, dtype=np.float64)
        tickets = np.arange(self.head, self.head + k, dtype=np.int64)
        result = self._op("pop", tickets, None)
        self.head += k
        return result

    def _op(self, op: str, tickets: np.ndarray,
            vals: Optional[np.ndarray]) -> np.ndarray:
        args = [
            _QSpec(op=op, tickets=tickets[lo:hi],
                   vals=None if vals is None else vals[lo:hi],
                   segment=self._segments[r])
            for r, (lo, hi) in enumerate(self._slices(len(tickets),
                                                      self.nranks))
        ]
        result = self._run(_dqueue_op_program, args)
        outcomes: List[_QOutcome] = list(result.values)
        for r, outcome in enumerate(outcomes):
            self._segments[r] = outcome.segment
        merged = np.zeros(len(tickets), dtype=np.float64)
        base = int(tickets[0])
        for outcome in outcomes:
            if len(outcome.tickets) and len(outcome.result):
                merged[outcome.tickets - base] = outcome.result
        return merged

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Canonical live contents in global FIFO order: ``tickets``,
        ``values``, ``owners`` — bit-identical across backends."""
        tickets_parts, vals_parts, owner_parts = [], [], []
        for r, segment in enumerate(self._segments):
            for t in sorted(segment):
                tickets_parts.append(t)
                vals_parts.append(segment[t])
                owner_parts.append(r)
        tickets = np.asarray(tickets_parts, dtype=np.int64)
        order = np.argsort(tickets, kind="stable")
        return {
            "tickets": tickets[order],
            "values": np.asarray(vals_parts, dtype=np.float64)[order],
            "owners": np.asarray(owner_parts, dtype=np.int64)[order],
        }
