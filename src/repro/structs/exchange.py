"""One combining exchange for batched structure ops.

Every batched op in :mod:`repro.structs` moves data in the owner round
trip of :func:`repro.structs.dhash.owner_round_trip` — requests to
owners, replies to requesters — and each hop is **one** combining
exchange: a rank sends at most one (merged) message per stage
regardless of how many keys it is routing.  On
power-of-two worlds that is Fox's crystal router
(:func:`repro.comm.crystal.crystal_route`, ``log2 P`` stages); elsewhere
it falls back to the pairwise personalised all-to-all.

The crystal router's ``combine_stage`` software charge models the
paper's *inspector* list-merging, which is far heavier than appending
packet dicts; structure ops disable it and charge their own per-item
pack/unpack costs (``copy_elem``) instead, so virtual time reflects what
this layer actually does.

Packets are dicts of NumPy arrays, which matters twice over: wire size
is exact, so sim↔mp byte counters agree, and on the mp backend large
batch payloads are hoisted through the shared-memory data plane instead
of being pickled down a pipe.  A packet is sized where it is built, in
closed form — :data:`FIELD_NBYTES` per field name plus the arrays'
``nbytes``, the figure ``payload_nbytes`` gives the dict — and the size
travels with it into the router (``sizes=``), so no packet is walked.
Requests are grouped by destination with one counting sort
(:func:`group_by_dest`: a stable sort on a narrow owner dtype, bounds
from ``bincount``), and replies are merged back with one concatenate
and one scatter per field (:func:`scatter_packets`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.comm.collectives import alltoall
from repro.comm.crystal import crystal_route
from repro.machine.api import Count, Rank
from repro.util.gray import is_power_of_two

#: Wire bytes a packet pays per field name (``payload_nbytes`` of a str).
FIELD_NBYTES = 64


def row_nbytes(arr: np.ndarray) -> int:
    """Bytes one element (one row) of ``arr`` puts on the wire."""
    return arr.itemsize * math.prod(arr.shape[1:])


def packet_nbytes(packet: Dict[str, np.ndarray]) -> int:
    """Wire size of a packet — a dict of field name to ndarray — in
    closed form: :data:`FIELD_NBYTES` per field plus the arrays' bytes,
    exactly what ``payload_nbytes`` gives it."""
    return (FIELD_NBYTES * len(packet)
            + sum(arr.nbytes for arr in packet.values()))


def combining_route(rank: Rank, outgoing: Dict[int, Any],
                    sizes: Dict[int, int], tag: int, phase: str = "structs"):
    """Route ``{dest: packet}`` to every destination; returns
    ``{source: packet}`` for the packets addressed here (collective).

    ``sizes[dest]`` is the wire size of ``outgoing[dest]``, taken where
    the packet was built.  ``tag`` must be unique per exchange within one
    run (the structures hand out a fresh tag per hop).
    """
    yield Count("structs_exchanges", 1)
    if is_power_of_two(rank.size):
        delivered = yield from crystal_route(
            rank, outgoing, tag=tag, phase=phase, charge_combine=False,
            sizes=sizes,
        )
        return delivered
    payloads: list = [None] * rank.size
    nbytes = [0] * rank.size
    for dest, packet in outgoing.items():
        payloads[dest] = packet
        nbytes[dest] = sizes[dest]
    arrived = yield from alltoall(rank, payloads, tag=tag, phase=phase,
                                  sizes=nbytes)
    return {src: packet for src, packet in enumerate(arrived)
            if packet is not None}


def element_route(rank: Rank, outgoing_items, rounds: int, tag: int,
                  phase: str = "structs"):
    """The *naive* baseline: one exchange per element, no combining.

    ``outgoing_items`` is a list of ``(dest, packet, nbytes)`` — this
    rank's slice of the batch, one entry per element
    (:func:`element_items`).
    All ranks loop in lock-step for ``rounds`` iterations (the global max
    slice length, ragged slices padded with empty exchanges), each a
    :func:`combining_route` of at most one packet, so the op stays
    collective and deterministic.  Returns ``{source: packet}``, a
    source's elements concatenated in arrival order.  Exists to be
    measured against — the G1 bench gates the combining path at >= 3x
    this one.
    """
    arrived: Dict[int, list] = {}
    for i in range(rounds):
        step = outgoing_items[i:i + 1]
        got = yield from combining_route(
            rank, {dest: packet for dest, packet, _ in step},
            {dest: nbytes for dest, _, nbytes in step},
            tag=tag + i, phase=phase)
        for src, packet in got.items():
            arrived.setdefault(src, []).append(packet)
    return {src: {name: np.concatenate([p[name] for p in parts])
                  for name in parts[0]}
            for src, parts in arrived.items()}


def element_items(owners, arrays: Dict[str, np.ndarray],
                  ) -> List[Tuple[int, Dict[str, np.ndarray], int]]:
    """One ``(dest, one-element packet, its wire size)`` per element, in
    input order — the items :func:`element_route` sends."""
    nbytes = FIELD_NBYTES * len(arrays) + sum(
        row_nbytes(arr) for arr in arrays.values())
    return [(int(dest), {name: arr[i:i + 1] for name, arr in arrays.items()},
             nbytes)
            for i, dest in enumerate(owners)]


def group_by_dest(owners, arrays: Dict[str, Any],
                  ) -> Tuple[Dict[int, Dict[str, Any]], Dict[int, int]]:
    """Split parallel arrays into one packet per destination rank.

    ``owners[i]`` (a rank, so ``>= 0``) names the destination of element
    ``i``; each packet keeps its elements in input order, which the
    owner side relies on for deterministic apply order.  One counting
    sort — a stable argsort on the narrowest dtype that holds the
    owners, packet bounds from ``bincount`` — and one gather per array;
    a packet's arrays are slices of the gathered ones.  Returns
    ``(packets, sizes)``: ``sizes[dest]`` is the wire size of
    ``packets[dest]`` (:func:`packet_nbytes`, in closed form from its
    element count).
    """
    owners = np.asarray(owners)
    if owners.size == 0:
        return {}, {}
    counts = np.bincount(owners).tolist()
    order = owners.astype(np.min_scalar_type(len(counts) - 1)).argsort(
        kind="stable")
    gathered = {name: np.asarray(arr)[order] for name, arr in arrays.items()}
    head = FIELD_NBYTES * len(gathered)
    row = sum(row_nbytes(arr) for arr in gathered.values())
    packets: Dict[int, Dict[str, Any]] = {}
    sizes: Dict[int, int] = {}
    lo = 0
    for dest, count in enumerate(counts):
        if count:
            hi = lo + count
            packets[dest] = {name: arr[lo:hi] for name, arr in gathered.items()}
            sizes[dest] = head + row * count
            lo = hi
    return packets, sizes


def scatter_packets(delivered: Dict[int, Dict[str, np.ndarray]], index: str,
                    base: int, out: Dict[str, np.ndarray]) -> None:
    """Fold packets back into request order: field ``name`` of every
    packet lands in ``out[name]`` at ``packet[index] - base``.  One
    concatenate and one scatter per field; the positions must be
    distinct, so packet order does not matter."""
    if not delivered:
        return
    packets = list(delivered.values())
    at = np.concatenate([p[index] for p in packets]) - base
    for name, arr in out.items():
        arr[at] = np.concatenate([p[name] for p in packets])
