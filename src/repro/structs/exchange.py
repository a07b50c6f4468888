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
is computed exactly (``payload_nbytes`` sums ``arr.nbytes``) so sim↔mp
byte counters agree, and on the mp backend large batch payloads are
hoisted through the shared-memory data plane instead of being pickled
down a pipe.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.comm.collectives import alltoall
from repro.comm.crystal import crystal_route
from repro.machine.api import Count, Rank
from repro.util.gray import is_power_of_two


def combining_route(rank: Rank, outgoing: Dict[int, Any], tag: int,
                    phase: str = "structs"):
    """Route ``{dest: packet}`` to every destination; returns
    ``{source: packet}`` for the packets addressed here (collective).

    ``tag`` must be unique per exchange within one run (the structures
    hand out a fresh tag per hop).
    """
    yield Count("structs_exchanges", 1)
    if is_power_of_two(rank.size):
        delivered = yield from crystal_route(
            rank, outgoing, tag=tag, phase=phase, charge_combine=False,
        )
        return delivered
    payloads: list = [None] * rank.size
    for dest, packet in outgoing.items():
        payloads[dest] = packet
    arrived = yield from alltoall(rank, payloads, tag=tag, phase=phase)
    return {src: packet for src, packet in enumerate(arrived)
            if packet is not None}


def element_route(rank: Rank, outgoing_items, rounds: int, tag: int,
                  phase: str = "structs"):
    """The *naive* baseline: one exchange per element, no combining.

    ``outgoing_items`` is a list of ``(dest, packet)`` — this rank's
    slice of the batch, one entry per element.  All ranks loop in
    lock-step for ``rounds`` iterations (the global max slice length,
    ragged slices padded with empty exchanges), each a
    :func:`combining_route` of at most one packet, so the op stays
    collective and deterministic.  Returns ``{source: packet}``, a
    source's elements concatenated in arrival order.  Exists to be
    measured against — the G1 bench gates the combining path at >= 3x
    this one.
    """
    arrived: Dict[int, list] = {}
    for i in range(rounds):
        got = yield from combining_route(rank, dict(outgoing_items[i:i + 1]),
                                         tag=tag + i, phase=phase)
        for src, packet in got.items():
            arrived.setdefault(src, []).append(packet)
    return {src: {name: np.concatenate([p[name] for p in parts])
                  for name in parts[0]}
            for src, parts in arrived.items()}


def group_by_dest(owners, arrays: Dict[str, Any]) -> Dict[int, Dict[str, Any]]:
    """Split parallel arrays into one packet per destination rank.

    ``owners[i]`` names the destination of element ``i``; each packet
    keeps its elements in input order (stable sort), which the owner
    side relies on for deterministic apply order.  One sort, one gather
    per array; a packet's arrays are slices of the gathered ones.
    """
    owners = np.asarray(owners)
    if owners.size == 0:
        return {}
    order = np.argsort(owners, kind="stable")
    sorted_owners = owners[order]
    starts = np.flatnonzero(sorted_owners[1:] != sorted_owners[:-1]) + 1
    bounds = [0, *starts.tolist(), owners.size]
    gathered = {name: np.asarray(arr)[order] for name, arr in arrays.items()}
    return {int(sorted_owners[lo]): {name: arr[lo:hi]
                                     for name, arr in gathered.items()}
            for lo, hi in zip(bounds[:-1], bounds[1:])}
