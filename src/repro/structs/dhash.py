"""DHash: a global-view distributed hash table with batched collective ops.

The table is *global-view* in the PGAS sense: the driver sees one hash
table and calls :meth:`DHash.insert_many` / :meth:`lookup_many` /
:meth:`delete_many` on whole key batches; under the hood every op is one
SPMD run on the configured backend (virtual-time simulator, forked
processes, or a warm serve pool — the same three interpreters every
other workload in this repo runs on).

Layout (owner-computes, paper §2.2 vocabulary):

* a global **bucket space** of ``nbuckets`` buckets, dealt round-robin
  over ranks by the :class:`~repro.distributions.cyclic.Cyclic`
  distribution — bucket ``b`` is *owned* by rank ``b % P`` at local slot
  ``b // P``;
* each rank keeps an **open-chaining** :class:`LocalStore` as three flat
  arrays: the chain of a local bucket is one contiguous run of ``keys``
  / ``vals`` in insertion order (new keys append at the tail, deletes
  close the gap), which both backends reproduce exactly.  A batch is
  applied as if one element at a time — a linear scan per element,
  whose slot count ``scanned`` is what virtual time charges — but is
  computed by one flat NumPy scan of the pre-batch chains plus
  closed-form in-batch ordering, so the host cost can change while
  ``scanned``, and with it every virtual second, cannot.  A batch that
  creates or deletes entries copies the rank's arrays once
  (O(entries), memcpy speed);
* a key's bucket is ``mix64(key) % nbuckets`` — computable by any rank
  with no communication (:mod:`repro.structs.hashing`).

Batching protocol (one owner round trip per op,
:func:`owner_round_trip`, which DQueue shares):

1. the driver splits the batch into even contiguous slices, one per
   rank, and ships slice + local store as ``rank.arg``;
2. each rank groups its slice by owner and routes **one packet per
   destination** through the crystal router
   (:func:`repro.structs.exchange.combining_route`);
3. owners apply the op in deterministic order — packets sorted by
   source rank, elements in packet order, as one store batch — and
   route replies back the same way;
4. each rank returns ``(positions, reply arrays)``; the driver scatters
   replies into input order.  Results are exact regardless of how the
   batch was sliced.

State lives in the driver between ops (scattered down, gathered back,
exactly like ``KaliContext`` arrays), which buys the serving layer a
strong failure property: an op that dies mid-run on a crashed pool
mutated nothing — the driver still holds the pre-op stores — so serve
retries replay it safely.

Rebalancing: when the post-insert load factor exceeds ``max_load``, the
bucket space grows (an odd multiple of the current size — linear-hash
consistent, kept odd so growth moves ownership; see
:mod:`repro.structs.hashing`) and entries migrate through one crystal
exchange, *inside the same SPMD run*, gated by the same amortization
rule the layout tuner uses (``gain x horizon > move_cost``, cf.
``repro.tune.policy``).  The decision is computed from the allreduced
entry total and the driver-shipped global batch length — both identical
on every rank — so every rank decides identically and sim/mp runs stay
bit-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.comm.collectives import allreduce
from repro.errors import KaliError
from repro.machine.api import Compute, Count, Rank
from repro.machine.cost import MachineModel, NCUBE7
from repro.machine.launch import check_backend, default_topology, launch
from repro.machine.stats import RankStats, RunResult
from repro.machine.topology import Topology
from repro.structs.exchange import (
    FIELD_NBYTES,
    combining_route,
    element_items,
    element_route,
    group_by_dest,
    scatter_packets,
)
from repro.structs.hashing import (
    bucket_dist,
    bucket_of,
    grow_buckets,
    normalize_buckets,
)


class StructsError(KaliError):
    """An invalid operation on a distributed structure."""


# --- per-rank storage ------------------------------------------------------


#: Most (element, chain slot) pairs one slice of a flat scan materialises
#: (~40 bytes each): a degenerate table — every key in one bucket — costs
#: more slices, i.e. time, not memory.
_PAIR_BUDGET = 1 << 18


def _expand(lo: np.ndarray, lens: np.ndarray):
    """The index runs ``lo[i] .. lo[i] + lens[i]`` laid end to end, in
    slices of at most ``_PAIR_BUDGET`` indices (one run is never split).

    Yields ``(i0, i1, begin, ends, idx)``: runs ``i0:i1`` occupy
    ``idx[begin[k]:ends[k]]``.
    """
    cum = lens.cumsum()
    i0, n = 0, len(lens)
    while i0 < n:
        base = int(cum[i0 - 1]) if i0 else 0
        i1 = max(i0 + 1, int(cum.searchsorted(base + _PAIR_BUDGET,
                                              side="right")))
        part = lens[i0:i1]
        ends = cum[i0:i1] - base
        begin = ends - part
        idx = (lo[i0:i1] - begin).repeat(part)
        idx += np.arange(len(idx))
        yield i0, i1, begin, ends, idx
        i0 = i1


def _group_sort(labels: np.ndarray, nlabels: int,
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable counting sort by label: ``(order, sorted labels, offsets)``.

    ``offsets`` (one per label from ``0`` to at least ``nlabels``, plus
    one) is where each label's group begins in sorted order, so sorted
    element ``k`` has ``k - offsets[label]`` earlier elements with the
    same label.  The argsort runs on the narrowest dtype that holds the
    labels (NumPy's radix sort, up to 16 bits)."""
    counts = np.bincount(labels, minlength=nlabels)
    order = labels.astype(np.min_scalar_type(len(counts) - 1)).argsort(
        kind="stable")
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    counts.cumsum(out=offsets[1:])
    return order, labels[order], offsets


def _repeats(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The elements whose key an earlier element of the batch carries:
    ``(rep, first, occ)`` — their indices, the index of their key's first
    element, and how many earlier elements carry that key.  One sort of
    the keys; the rest is proportional to the repeats."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    again = (ordered[1:] == ordered[:-1]).nonzero()[0] + 1
    # A run of repeats at sorted positions a..b repeats position a - 1.
    run = np.ones(len(again), dtype=bool)
    run[1:] = again[1:] != again[:-1] + 1
    head = np.maximum.accumulate(np.where(run, again - 1, 0))
    return order[again], order[head], again - head


def _offsets(lbuckets: np.ndarray, nb: int) -> np.ndarray:
    """How far each of ``nb + 1`` chain offsets moves when one entry per
    element of ``lbuckets`` joins (or leaves) the table."""
    shift = np.zeros(nb + 1, dtype=np.int64)
    np.bincount(lbuckets, minlength=nb).cumsum(out=shift[1:])
    return shift


def _spliced(old: np.ndarray, keep: np.ndarray, at: np.ndarray,
             new: np.ndarray) -> np.ndarray:
    """``old`` grown by ``new`` at slots ``at`` of the result; ``keep``
    marks every other slot, which takes ``old`` in order."""
    grown = np.empty(len(keep), dtype=old.dtype)
    grown[keep] = old
    grown[at] = new
    return grown


#: The sentinel chain position of an element that deletes nothing.
_NOWHERE = np.iinfo(np.int64).max


class LocalStore:
    """One rank's share of the table: open chains over its local buckets,
    held as three flat arrays.

    The chain of local bucket ``b`` is the contiguous run
    ``keys[starts[b]:starts[b + 1]]`` (values alongside in ``vals``), in
    insertion order; ``starts`` has one offset per local bucket plus one.
    New keys append at their chain's tail and deletes close the gap, so
    order is preserved exactly as a linked chain would keep it.

    :meth:`apply` reports, per element, the chain slots a *sequential*
    linear scan would have visited — the honest cost the chain-scan
    counters and virtual time charge — but computes them without
    replaying the batch: one flat NumPy scan of the pre-batch chains,
    then the in-batch order (element ``i`` sees the effects of every
    ``j < i``) resolved in closed form.  The price of contiguous runs is
    that a batch which creates or deletes entries copies the rank's
    arrays once: one mask, shared by ``keys`` and ``vals``, places the
    new entries (their slots ascend, bucket-major) or drops the deleted
    ones.  Value updates and lookups touch nothing else.
    """

    __slots__ = ("starts", "keys", "vals")

    def __init__(self):
        self.starts = np.zeros(1, dtype=np.int64)
        self.keys = np.empty(0, dtype=np.int64)
        self.vals = np.empty(0, dtype=np.float64)

    @property
    def count(self) -> int:
        return len(self.keys)

    def apply(self, op: str, lbuckets: np.ndarray, keys: np.ndarray,
              vals: Optional[np.ndarray],
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply a batch of ``op`` elements as if one at a time, in order.

        Returns ``(found mask, result values, chain slots scanned per
        element)``.  ``found`` means: key already present (insert/add),
        key present (lookup/delete).  ``result`` is the post-op value for
        insert/add, the stored value (or 0) for lookup/delete.
        ``lbuckets[i]`` must be a function of ``keys[i]`` (it is the
        key's bucket).
        """
        if op not in ("insert", "add", "lookup", "delete"):
            raise StructsError(f"unknown dhash op {op!r}")
        n = len(keys)
        if n == 0:
            return (np.zeros(0, dtype=bool), np.zeros(0, dtype=np.float64),
                    np.zeros(0, dtype=np.int64))
        lb = np.asarray(lbuckets, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.int64)
        nb = len(self.starts) - 1
        if op in ("insert", "add") and lb.max() >= nb:
            self.starts = np.pad(self.starts, (0, int(lb.max()) + 1 - nb),
                                 mode="edge")
            nb = len(self.starts) - 1

        # Flat scan of the pre-batch chains: each element against every
        # slot of its chain; a chain holds a key once, so hits are unique.
        lbc = np.minimum(lb, nb)
        lo = self.starts[lbc]
        len0 = self.starts[np.minimum(lbc + 1, nb)] - lo
        pos = np.full(n, -1, dtype=np.int64)     # 0-based chain position
        slot = np.zeros(n, dtype=np.int64)       # index into keys / vals
        for i0, i1, begin, ends, idx in _expand(lo, len0):
            hit = (self.keys[idx]
                   == keys[i0:i1].repeat(len0[i0:i1])).nonzero()[0]
            elem = ends.searchsorted(hit, side="right")
            pos[i0 + elem] = hit - begin[elem]
            slot[i0 + elem] = idx[hit]
        present = pos >= 0

        if op == "lookup":
            result = np.zeros(n, dtype=np.float64)
            result[present] = self.vals[slot[present]]
            return present, result, np.where(present, pos + 1, len0)
        rep, first, occ = _repeats(keys)
        if op == "delete":
            gone = present.copy()                # first occurrences only
            gone[rep] = False
            return self._delete(lb, len0, pos, slot, gone)

        # insert / add.  A miss on a key's first occurrence creates the
        # entry at the chain tail, behind the creations earlier in the
        # batch; every later occurrence of that key hits it there.
        vals = np.asarray(vals, dtype=np.float64)
        creator = ~present
        creator[rep] = False
        born = creator.nonzero()[0]
        if born.size:
            order, lbb, shift = _group_sort(lb[born], nb)
            born = born[order]                   # bucket-major, batch order
            k = np.arange(born.size)
            pos[born] = len0[born] - shift[lbb] + k
            # Born k lands behind the k born before it: its slots ascend.
            at = self.starts[lbb + 1] + k
            keep = np.ones(self.count + born.size, dtype=bool)
            keep[at] = False
            self.keys = _spliced(self.keys, keep, at, keys[born])
            self.vals = _spliced(self.vals, keep, at, vals[born])
            self.starts = self.starts + shift
        pos[rep] = pos[first]
        found = ~creator
        result = vals.copy()                     # a creation assigns: -0.0
        hits = found.nonzero()[0]
        if hits.size:
            # Values land in occurrence rounds — one round unless the
            # batch repeats a key — so a key's updates keep their
            # sequential order.
            rounds = np.zeros(n, dtype=np.int64)
            rounds[rep] = occ
            sizes = np.bincount(rounds[hits])
            if len(sizes) > 1:
                hits = hits[rounds[hits].argsort(kind="stable")]
            target = self.starts[lb] + pos
            done = 0
            for size in sizes.tolist():
                sel = hits[done:done + size]
                done += size
                cell = target[sel]
                if op == "add":
                    self.vals[cell] += vals[sel]
                else:
                    self.vals[cell] = vals[sel]
                result[sel] = self.vals[cell]
        return found, result, pos + found

    def _delete(self, lb, len0, pos, slot, gone):
        """Delete tail of :meth:`apply`: ``gone`` marks each present
        key's first occurrence, the only one that succeeds.  A scan is
        shortened by the earlier deletes in the same chain — those ahead
        of the hit for a success, all of them for a miss."""
        n = len(lb)
        result = np.zeros(n, dtype=np.float64)
        scanned = np.where(gone, pos + 1, len0)
        if gone.any():
            order, lbs, offsets = _group_sort(lb, 0)
            start = offsets[lbs]
            # Sorted element j shortens sorted k > j of its chain when
            # limit[j] < limit[k]: j deletes (limit = its position) and
            # either k misses (limit = _NOWHERE) or k's hit lies behind.
            limit = np.where(gone, pos, _NOWHERE)[order]
            earlier = np.arange(n) - start
            for i0, i1, begin, ends, idx in _expand(start, earlier):
                ahead = np.zeros(len(idx) + 1, dtype=np.int64)
                (limit[idx] < limit[i0:i1].repeat(earlier[i0:i1])).cumsum(
                    out=ahead[1:])
                scanned[order[i0:i1]] -= ahead[ends] - ahead[begin]
            dead = slot[gone]
            result[gone] = self.vals[dead]
            keep = np.ones(self.count, dtype=bool)
            keep[dead] = False
            self.keys = self.keys[keep]
            self.vals = self.vals[keep]
            self.starts = self.starts - _offsets(lb[gone], len(self.starts) - 1)
        return gone, result, scanned

    def entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every entry as ``(local bucket, key, value)`` arrays, in the
        deterministic iteration order: buckets ascending, chains in
        insertion order.  ``key`` and ``value`` are the store's own
        arrays (read-only by convention)."""
        nb = len(self.starts) - 1
        lb = np.repeat(np.arange(nb, dtype=np.int64), np.diff(self.starts))
        return lb, self.keys, self.vals

    def rebuild(self, lbuckets: np.ndarray, keys: np.ndarray,
                vals: np.ndarray) -> None:
        """Replace contents with fresh chains (rebalance landing);
        ``keys`` are distinct and chain order is their given order."""
        lb = np.asarray(lbuckets, dtype=np.int64)
        order = np.argsort(lb, kind="stable")
        self.keys = np.asarray(keys, dtype=np.int64)[order]
        self.vals = np.asarray(vals, dtype=np.float64)[order]
        self.starts = _offsets(lb, int(lb.max()) + 1 if len(lb) else 0)


# --- the op program --------------------------------------------------------


@dataclass
class _OpSpec:
    """Everything one rank needs for one batched op (``rank.arg``)."""

    op: str
    nbuckets: int
    keys: np.ndarray            # this rank's slice of the batch
    vals: Optional[np.ndarray]  # values for insert/add (else None)
    pos: np.ndarray             # global input positions of the slice
    store: LocalStore
    rounds: int = 0             # naive mode: global max slice length
    combine: bool = True
    # rebalance policy (insert/add only; see _maybe_rebalance)
    max_load: float = 4.0
    horizon: int = 8
    batch_len: int = 0          # global batch length (same on every rank)
    force_nbuckets: int = 0     # explicit rebalance target (op "rebalance")


@dataclass
class _OpOutcome:
    """One rank's result: mutated store + in-slice replies, plain data."""

    store: LocalStore
    pos: np.ndarray
    found: np.ndarray
    result: np.ndarray
    nbuckets: int
    info: Dict[str, Any] = field(default_factory=dict)


def _apply_packets(rank: Rank, op: str, store: LocalStore, nbuckets: int,
                   delivered: Dict[int, Dict[str, np.ndarray]], phase: str):
    """Owner side: apply arriving packets in (source, packet) order — one
    ``store.apply`` over their concatenation, charged per source — and
    build reply packets addressed back to each source.  Returns
    ``(replies, sizes)``, each reply sized where it is built."""
    m = rank.machine
    replies: Dict[int, Dict[str, np.ndarray]] = {}
    sizes: Dict[int, int] = {}
    if not delivered:
        return replies, sizes
    sources = sorted(delivered)
    packets = [delivered[src] for src in sources]
    keys = np.concatenate([p["keys"] for p in packets])
    vals = (np.concatenate([p["vals"] for p in packets])
            if "vals" in packets[0] else None)
    dist = bucket_dist(nbuckets, rank.size)
    lbuckets = np.asarray(dist.to_local(bucket_of(keys, nbuckets)))
    found, result, scanned = store.apply(op, lbuckets, keys, vals)
    # Every delivered packet holds at least one element, so each source's
    # scans total in one reduceat over the packets' offsets.
    lens = [len(p["keys"]) for p in packets]
    bounds = [0, *itertools.accumulate(lens)]
    totals = np.add.reduceat(scanned, bounds[:-1]).tolist()
    head = FIELD_NBYTES * 3
    row = packets[0]["pos"].itemsize + found.itemsize + result.itemsize
    for src, packet, lo, hi, scans in zip(sources, packets, bounds,
                                          bounds[1:], totals):
        yield Count("structs_chain_scans", scans)
        yield Compute(m.copy_elem * (hi - lo) + m.flop * scans, phase=phase)
        replies[src] = {"pos": packet["pos"], "found": found[lo:hi],
                        "result": result[lo:hi]}
        sizes[src] = head + row * (hi - lo)
    return replies, sizes


def owner_round_trip(rank: Rank, owners: np.ndarray,
                     request: Dict[str, np.ndarray], apply=None,
                     combine: bool = True, rounds: int = 0,
                     phase: str = "structs", tag: int = 0):
    """The structures' one data motion (paper §3.3): requests are routed
    to their owners, and owners answer (collective).

    Element ``i`` of the parallel arrays in ``request`` goes to rank
    ``owners[i]``; each owner runs ``apply({source: packet})``, a
    generator returning ``({source: reply packet}, {source: its wire
    size})``, and the replies go back.  Returns ``{owner: reply
    packet}`` — or, with ``apply`` None, the one-way trip's ``{source:
    packet}`` as delivered.  A packet keeps its elements in input order.

    ``combine=True`` sends one packet per destination, each hop one
    combining exchange.  ``combine=False`` is the naive baseline the G1
    bench measures against: one lock-step exchange per element, with
    ``rounds`` (the global max slice length) bounding the request hop.
    The hops take tags from ``tag`` up; a second trip in the same run
    passes a ``tag`` clear of the first's.
    """
    yield Compute(rank.machine.copy_elem * len(owners), phase=phase)
    if combine:
        packets, sizes = group_by_dest(owners, request)
        delivered = yield from combining_route(rank, packets, sizes, tag=tag,
                                               phase=phase)
    else:
        delivered = yield from element_route(
            rank, element_items(owners, request), rounds, tag=tag + 16,
            phase=phase)
    if apply is None:
        return delivered
    replies, sizes = yield from apply(delivered)
    if combine:
        returned = yield from combining_route(rank, replies, sizes,
                                              tag=tag + 4, phase=phase)
        return returned
    items: List[Tuple[int, Dict, int]] = []
    for src, packet in sorted(replies.items()):
        items += element_items([src] * len(next(iter(packet.values()))),
                               packet)
    # A hot owner may hold more replies than its request slice was long,
    # so the lock-step bound is the global max reply count.
    reply_rounds = yield from allreduce(rank, len(items), op=max,
                                        tag=tag + 0x200, phase=phase)
    returned = yield from element_route(rank, items, reply_rounds,
                                        tag=tag + 16 + 2 * rounds, phase=phase)
    return returned


def _maybe_rebalance(rank: Rank, spec: _OpSpec, store: LocalStore,
                     tag: int, phase: str):
    """Grow bucket space and migrate when the load factor warrants it.

    SPMD-deterministic: the decision is a pure function of the allreduced
    entry total, the driver-shipped global batch length
    (``spec.batch_len``, identical on every rank by construction),
    ``spec.nbuckets``, and the policy knobs — every rank computes the
    same verdict with no coordinator.  The amortization rule mirrors
    ``repro.tune.policy``: the predicted per-batch chain-scan saving
    over the next ``horizon`` batches must exceed the one-time
    migration cost, with the batch just applied as the size hint.
    """
    m = rank.machine
    total = yield from allreduce(rank, store.count, op=lambda a, b: a + b,
                                 tag=tag & 0x3FF, phase=phase)
    old_n = spec.nbuckets
    new_n = old_n
    if spec.force_nbuckets:
        new_n = normalize_buckets(spec.force_nbuckets)
        reason = "forced"
    else:
        load = total / old_n
        if load <= spec.max_load:
            return old_n, {"rebalanced": False, "reason": "under-load",
                           "load": load, "total": int(total)}
        while total / new_n > spec.max_load / 2:
            new_n = grow_buckets(new_n)
        # Amortization (tuner idiom: gain x horizon > move_cost).  Gain:
        # expected chain slots no longer scanned per batch of this size.
        # The hint must be the *global* batch length — rank-local slice
        # lengths differ on ragged batches, and a verdict computed from
        # them would split the world at the threshold (some ranks enter
        # the collective migration, others return early: deadlock).
        batch_hint = max(spec.batch_len, 1)
        gain = (total / old_n - total / new_n) / 2.0 * batch_hint * m.flop
        moved_frac = 1.0 - old_n / new_n
        move_cost = (moved_frac * total
                     * (2 * m.copy_elem + 16 * m.beta + m.insert_elem / 8))
        if gain * spec.horizon <= move_cost:
            return old_n, {"rebalanced": False, "reason": "not-amortized",
                           "load": load, "total": int(total)}
        reason = "amortized-win"

    if new_n == old_n:
        return old_n, {"rebalanced": False, "reason": "no-op",
                       "total": int(total)}

    # Migration: every entry re-buckets; entries whose owner changes are
    # routed through one combining exchange.
    lb, keys, vals = store.entries()
    new_buckets = bucket_of(keys, new_n)
    new_dist = bucket_dist(new_n, rank.size)
    owners = np.asarray(new_dist.owner(new_buckets), dtype=np.int64)
    old_dist = bucket_dist(old_n, rank.size)
    old_global = np.asarray(old_dist.to_global(rank.id, lb))
    rehashed = int(np.count_nonzero(new_buckets != old_global))
    staying = owners == rank.id
    leaving = ~staying
    yield Count("structs_rehashed_keys", rehashed)
    yield Count("structs_migrated_keys", int(np.count_nonzero(leaving)))
    yield Count("structs_rebalances", 1)
    delivered = yield from owner_round_trip(
        rank, owners[leaving], {"keys": keys[leaving], "vals": vals[leaving]},
        phase=phase, tag=tag + 1)
    # Deterministic rebuild: retained entries first (original iteration
    # order), then arrivals sorted by source rank, in packet order.
    keep_keys = [keys[staying]]
    keep_vals = [vals[staying]]
    for src in sorted(delivered):
        packet = delivered[src]
        keep_keys.append(np.asarray(packet["keys"], dtype=np.int64))
        keep_vals.append(np.asarray(packet["vals"], dtype=np.float64))
    all_keys = np.concatenate(keep_keys) if keep_keys else np.empty(0, np.int64)
    all_vals = np.concatenate(keep_vals) if keep_vals else np.empty(0)
    lbuckets = np.asarray(new_dist.to_local(bucket_of(all_keys, new_n)))
    store.rebuild(lbuckets, all_keys, all_vals)
    yield Compute(m.insert_elem / 8 * len(all_keys), phase=phase)
    return new_n, {"rebalanced": True, "reason": reason,
                   "nbuckets": new_n, "total": int(total)}


def _dhash_op_program(rank: Rank):
    """The SPMD body of one batched op (``rank.arg`` is an :class:`_OpSpec`)."""
    spec: _OpSpec = rank.arg
    store = spec.store
    phase = "structs"
    nbuckets = spec.nbuckets
    yield Count("structs_batches", 1)
    yield Count("structs_items", len(spec.keys))

    if spec.op == "rebalance":
        nbuckets, info = yield from _maybe_rebalance(rank, spec, store,
                                                     tag=8, phase=phase)
        return _OpOutcome(store=store, pos=spec.pos,
                          found=np.zeros(0, dtype=bool),
                          result=np.zeros(0), nbuckets=nbuckets, info=info)

    buckets = bucket_of(spec.keys, nbuckets)
    owners = np.asarray(bucket_dist(nbuckets, rank.size).owner(buckets),
                        dtype=np.int64)
    request = {"keys": spec.keys, "pos": spec.pos}
    if spec.vals is not None:
        request["vals"] = spec.vals
    returned = yield from owner_round_trip(
        rank, owners, request,
        lambda delivered: _apply_packets(rank, spec.op, store, nbuckets,
                                         delivered, phase),
        spec.combine, spec.rounds, phase)
    found = np.zeros(len(spec.keys), dtype=bool)
    result = np.zeros(len(spec.keys), dtype=np.float64)
    scatter_packets(returned, "pos", int(spec.pos[0]) if len(spec.pos) else 0,
                    {"found": found, "result": result})

    info: Dict[str, Any] = {}
    if spec.op in ("insert", "add"):
        # Both modes rebalance: the naive mode is a *routing* baseline,
        # so the table geometry (nbuckets) must stay identical to the
        # combining path for the same key sequence.
        nbuckets, info = yield from _maybe_rebalance(rank, spec, store,
                                                     tag=8, phase=phase)
    return _OpOutcome(store=store, pos=spec.pos, found=found, result=result,
                      nbuckets=nbuckets, info=info)


# --- run-result folding ----------------------------------------------------


def merge_results(results: List[RunResult]) -> RunResult:
    """Fold per-op :class:`RunResult` s into one (ops ran sequentially:
    clocks and phase times add, counters and traffic sum).  The serve
    job kinds report one merged result per job."""
    if not results:
        raise StructsError("merge_results needs at least one result")
    nranks = results[0].nranks
    clocks = [0.0] * nranks
    stats = [RankStats(r) for r in range(nranks)]
    for res in results:
        if res.nranks != nranks:
            raise StructsError("cannot merge results of different worlds")
        for r in range(nranks):
            clocks[r] += res.clocks[r]
            src, dst = res.stats[r], stats[r]
            for phase, seconds in src.phase_time.items():
                dst.phase_time[phase] += seconds
            for name, amount in src.counters.items():
                dst.counters[name] += amount
            dst.messages_sent += src.messages_sent
            dst.messages_received += src.messages_received
            dst.bytes_sent += src.bytes_sent
            dst.bytes_received += src.bytes_received
    return RunResult(nranks=nranks, clocks=clocks, stats=stats,
                     values=[None] * nranks)


# --- the global-view handle ------------------------------------------------


class _StructBase:
    """Backend plumbing shared by DHash and DQueue."""

    def __init__(self, nranks: int, machine: MachineModel = NCUBE7,
                 topology: Optional[Topology] = None, backend: str = "sim",
                 pool=None):
        if nranks < 1:
            raise StructsError(f"nranks must be >= 1, got {nranks}")
        self.backend = check_backend(backend, nranks, pool=pool,
                                     error=StructsError, owner="structure")
        self.nranks = nranks
        self.machine = machine
        self.topology = topology or default_topology(nranks)
        self.pool = pool
        #: engine results of every op, in issue order (merge_results folds
        #: them into the one result the serve records and bench want)
        self.op_results: List[RunResult] = []

    def _run(self, program, args) -> RunResult:
        result = launch(program, machine=self.machine, topology=self.topology,
                        nranks=self.nranks, backend=self.backend,
                        pool=self.pool, args=args)
        self.op_results.append(result)
        return result

    def merged_result(self) -> RunResult:
        return merge_results(self.op_results)

    def reset_results(self) -> None:
        self.op_results = []

    @staticmethod
    def _slices(n: int, nranks: int) -> List[Tuple[int, int]]:
        """Even contiguous batch slices, one per rank (deterministic)."""
        base, rem = divmod(n, nranks)
        out = []
        lo = 0
        for r in range(nranks):
            hi = lo + base + (1 if r < rem else 0)
            out.append((lo, hi))
            lo = hi
        return out


@dataclass
class BatchResult:
    """Outcome of one batched table op, in input order."""

    found: np.ndarray            # bool per element (see LocalStore.apply)
    values: np.ndarray           # float64 per element
    info: Dict[str, Any]         # rebalance verdict of this op


class DHash(_StructBase):
    """The global-view distributed hash table (module docstring has the
    full design).  Keys are int64, values float64; ``insert`` upserts,
    ``add`` accumulates — both may trigger a rebalance mid-sequence."""

    def __init__(self, nranks: int, nbuckets: int = 33,
                 machine: MachineModel = NCUBE7,
                 topology: Optional[Topology] = None, backend: str = "sim",
                 pool=None, max_load: float = 4.0,
                 rebalance_horizon: int = 8):
        super().__init__(nranks, machine=machine, topology=topology,
                         backend=backend, pool=pool)
        if max_load <= 0:
            raise StructsError(f"max_load must be > 0, got {max_load}")
        self.nbuckets = normalize_buckets(nbuckets)
        self.max_load = max_load
        self.rebalance_horizon = rebalance_horizon
        self._stores = [LocalStore() for _ in range(nranks)]
        self.rebalances = 0

    # --- batched collective ops -----------------------------------------

    def insert_many(self, keys, values, combine: bool = True) -> BatchResult:
        """Upsert a batch; ``found[i]`` is True when key ``i`` existed."""
        return self._op("insert", keys, values, combine)

    def add_many(self, keys, values, combine: bool = True) -> BatchResult:
        """Accumulate ``values`` into existing entries (insert if new)."""
        return self._op("add", keys, values, combine)

    def lookup_many(self, keys, combine: bool = True) -> BatchResult:
        """Look a batch up; misses report ``found=False, value=0``."""
        return self._op("lookup", keys, None, combine)

    def delete_many(self, keys, combine: bool = True) -> BatchResult:
        """Delete a batch; returns the deleted values where found."""
        return self._op("delete", keys, None, combine)

    def _op(self, op: str, keys, values, combine: bool) -> BatchResult:
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise StructsError(f"{op}_many needs a 1-d key batch")
        # A cast would truncate 1.5 to key 1; an empty list (NumPy types
        # it float64) is the one non-integer batch that is harmless.
        if keys.size and keys.dtype.kind not in "iu":
            raise StructsError(
                f"{op}_many needs integer keys, got dtype {keys.dtype}")
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        vals = None
        if values is not None:
            vals = np.ascontiguousarray(values, dtype=np.float64)
            if vals.shape != keys.shape:
                raise StructsError(
                    f"{op}_many: {len(keys)} keys but {len(vals)} values")
        if keys.size == 0:
            return BatchResult(found=np.zeros(0, dtype=bool),
                               values=np.zeros(0), info={})
        slices = self._slices(len(keys), self.nranks)
        rounds = max(hi - lo for lo, hi in slices)
        args = [
            _OpSpec(
                op=op, nbuckets=self.nbuckets,
                keys=keys[lo:hi],
                vals=None if vals is None else vals[lo:hi],
                pos=np.arange(lo, hi, dtype=np.int64),
                store=self._stores[r],
                rounds=rounds, combine=combine,
                max_load=self.max_load, horizon=self.rebalance_horizon,
                batch_len=len(keys),
            )
            for r, (lo, hi) in enumerate(slices)
        ]
        result = self._run(_dhash_op_program, args)
        return self._land(result, n=len(keys))

    def rebalance(self, nbuckets: Optional[int] = None) -> Dict[str, Any]:
        """Explicitly grow (or re-deal) the bucket space.

        With ``nbuckets`` None the load-factor policy decides; an explicit
        target forces the migration regardless of load.
        """
        target = 0 if nbuckets is None else int(nbuckets)
        if target and normalize_buckets(target) < self.nbuckets:
            raise StructsError(
                f"bucket space only grows ({self.nbuckets} -> {target})")
        args = [
            _OpSpec(op="rebalance", nbuckets=self.nbuckets,
                    keys=np.zeros(0, dtype=np.int64), vals=None,
                    pos=np.zeros(0, dtype=np.int64), store=self._stores[r],
                    max_load=self.max_load, horizon=self.rebalance_horizon,
                    force_nbuckets=target)
            for r in range(self.nranks)
        ]
        result = self._run(_dhash_op_program, args)
        return self._land(result, n=0).info

    def _land(self, result: RunResult, n: int) -> BatchResult:
        outcomes: List[_OpOutcome] = list(result.values)
        sizes = {o.nbuckets for o in outcomes}
        if len(sizes) != 1:
            raise StructsError(
                f"ranks disagree on bucket space after op: {sorted(sizes)}")
        self.nbuckets = sizes.pop()
        for r, outcome in enumerate(outcomes):
            self._stores[r] = outcome.store
        info = outcomes[0].info or {}
        if info.get("rebalanced"):
            self.rebalances += 1
        found = np.zeros(n, dtype=bool)
        values = np.zeros(n, dtype=np.float64)
        for outcome in outcomes:
            found[outcome.pos] = outcome.found
            values[outcome.pos] = outcome.result
        return BatchResult(found=found, values=values, info=info)

    # --- driver-side views ----------------------------------------------

    def __len__(self) -> int:
        return sum(store.count for store in self._stores)

    @property
    def load_factor(self) -> float:
        return len(self) / self.nbuckets

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Canonical global contents, sorted by key: ``keys``, ``values``,
        ``buckets``, ``owners``.  Bit-identical across backends — the
        differential tests compare exactly this."""
        dist = bucket_dist(self.nbuckets, self.nranks)
        keys_parts, vals_parts, bucket_parts, owner_parts = [], [], [], []
        for r, store in enumerate(self._stores):
            lb, keys, vals = store.entries()
            keys_parts.append(keys)
            vals_parts.append(vals)
            bucket_parts.append(np.asarray(dist.to_global(r, lb),
                                           dtype=np.int64))
            owner_parts.append(np.full(len(keys), r, dtype=np.int64))
        keys = np.concatenate(keys_parts) if keys_parts else np.zeros(0, np.int64)
        order = np.argsort(keys, kind="stable")
        return {
            "keys": keys[order],
            "values": np.concatenate(vals_parts)[order],
            "buckets": np.concatenate(bucket_parts)[order],
            "owners": np.concatenate(owner_parts)[order],
        }

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        snap = self.snapshot()
        return snap["keys"], snap["values"]
