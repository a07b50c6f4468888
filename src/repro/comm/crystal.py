"""Fox's crystal router: hypercube all-to-all personalised exchange.

The inspector builds each processor's ``in(p,q)`` request lists locally and
must route them so every processor learns its ``out(p,q)`` lists (paper
§3.3: "To avoid excessive communications overhead we use a variant of
Fox's Crystal router [2] which handles such communications without
creating bottlenecks").

The algorithm is dimension exchange: in stage ``d`` every node swaps, with
its neighbour across cube dimension ``d``, all pending packets whose
destination differs from the current node in bit ``d``.  After ``log2 P``
stages every packet has reached its destination; each node sends exactly
one (combined) message per stage, so there is no hot spot.

Each stage also charges the cost model's ``combine_stage``/``combine_byte``
software cost — the list-merge and buffer-management work the paper
identifies as the dominant inspector cost at large P (the rising arm of the
U-shaped inspector-time curve in its Figure 7).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CommunicationError
from repro.machine.api import Compute, Count, Rank, Recv, Send, payload_nbytes
from repro.util.gray import is_power_of_two, log2_exact

_CRYSTAL_TAG = 1 << 21


def crystal_route(
    rank: Rank,
    outgoing: Dict[int, Any],
    tag: int = 0,
    phase: str = "crystal",
    charge_combine: bool = True,
    sizes: Optional[Dict[int, int]] = None,
):
    """Route ``outgoing[dest] -> payload`` packets to their destinations.

    Returns ``{source: payload}`` for every packet addressed to this rank.
    World size must be a power of two (the machines of the paper are
    hypercubes); use :func:`repro.comm.collectives.alltoall` otherwise.

    A packet addressed to *this* rank is delivered locally without cost.
    ``charge_combine`` controls whether the per-stage software combine cost
    (``machine.combine_stage + combine_byte * bytes``) is charged — the
    paper's inspector accounting includes it; synthetic tests may disable
    it to check pure routing behaviour.  ``sizes[dest]``, when given, is
    the wire size of ``outgoing[dest]`` (a caller that knows it in closed
    form); otherwise each packet is sized by ``payload_nbytes``.
    """
    size, me = rank.size, rank.id
    if not is_power_of_two(size):
        raise CommunicationError(
            f"crystal router requires a power-of-two world, got {size}"
        )
    for dest in outgoing:
        if not (0 <= dest < size):
            raise CommunicationError(f"crystal packet for bad rank {dest}")
    dim = log2_exact(size)
    t = _CRYSTAL_TAG + tag

    # pending: (final_dest, original_source, payload, payload wire size) —
    # a packet is sized once, where it enters the router, and carries the
    # figure with it across every hop.
    delivered: Dict[int, Any] = {}
    pending: List[Tuple[int, int, Any, int]] = []
    total_bytes = 0
    for dest, payload in sorted(outgoing.items()):
        if dest == me:
            delivered[me] = payload  # local packets deliver at no cost
        else:
            nbytes = (payload_nbytes(payload) if sizes is None
                      else sizes[dest])
            pending.append((dest, me, payload, nbytes))

    for d in range(dim):
        bit = 1 << d
        partner = me ^ bit
        ship = [p for p in pending if (p[0] ^ me) & bit]
        keep = [p for p in pending if not ((p[0] ^ me) & bit)]
        nbytes = sum(p[3] for p in ship) + 12 * len(ship)
        total_bytes += nbytes
        yield Send(dest=partner, payload=ship, tag=t + d, nbytes=nbytes, phase=phase)
        msg = yield Recv(source=partner, tag=t + d, phase=phase)
        if charge_combine:
            m = rank.machine
            yield Compute(
                m.combine_stage + m.combine_byte * (nbytes + msg.nbytes),
                phase=phase,
            )
        pending = keep
        for packet in msg.payload:
            if packet[0] == me:
                delivered[packet[1]] = packet[2]
            else:
                pending.append(packet)
    if dim:
        # One Count per counter per route, once every stage is done.
        yield Count("crystal_rounds", dim)
        yield Count("crystal_bytes", total_bytes)

    if pending:
        raise CommunicationError(
            f"crystal router finished with undelivered packets on rank {me}: "
            f"{[(p[0], p[1]) for p in pending]}"
        )
    return delivered
