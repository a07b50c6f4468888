"""Collective operations as generator helpers (``yield from`` these).

All collectives are implemented with the classic hypercube algorithms —
binomial trees for rooted operations, recursive doubling for the ``all``
variants — so their virtual-time cost scales as ``log2 P`` message
startups, matching the communication structure the paper assumes for its
global combine phase (§4: "the global communications phase ... requires
time proportional to the dimension of the hypercube").

Every collective works for any world size (not only powers of two) by
folding the excess ranks into the largest enclosed power of two first,
and accepts a ``tag`` so concurrent collectives cannot interfere.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.machine.api import Compute, Count, Rank, Recv, Send

# Tags are offset into a reserved space so user point-to-point traffic
# (small non-negative tags) never collides with collective internals.
_BASE_TAG = 1 << 20


def _largest_pow2_leq(n: int) -> int:
    p = 1
    while p * 2 <= n:
        p *= 2
    return p


def barrier(rank: Rank, tag: int = 0, phase: str = "barrier"):
    """Synchronise all ranks (dissemination algorithm, works for any P)."""
    size, me = rank.size, rank.id
    if size == 1:
        return
    yield Count("collective_calls", 1)
    t = _BASE_TAG + 0x1000 + tag
    step = 1
    while step < size:
        dest = (me + step) % size
        src = (me - step) % size
        yield Send(dest=dest, payload=None, tag=t, phase=phase)
        yield Recv(source=src, tag=t, phase=phase)
        step *= 2


def bcast(rank: Rank, value: Any, root: int = 0, tag: int = 0, phase: str = "bcast"):
    """Broadcast ``value`` from ``root``; returns the value on every rank.

    Binomial tree on ranks relative to the root: rank ``r`` (relative)
    receives from ``r - 2^k`` where ``2^k`` is r's highest set bit, then
    forwards to ``r + 2^j`` for descending ``j``.
    """
    size, me = rank.size, rank.id
    t = _BASE_TAG + 0x2000 + tag
    if size == 1:
        return value
    yield Count("collective_calls", 1)
    rel = (me - root) % size
    if rel != 0:
        parent_rel = rel - (1 << (rel.bit_length() - 1))
        parent = (parent_rel + root) % size
        msg = yield Recv(source=parent, tag=t, phase=phase)
        value = msg.payload
    # Forward to children: rel + 2^j for every 2^j > rel's highest bit.
    mask = 1 << rel.bit_length() if rel else 1
    while rel + mask < size:
        child = (rel + mask + root) % size
        yield Send(dest=child, payload=value, tag=t, phase=phase)
        mask <<= 1
    return value


def reduce(
    rank: Rank,
    value: Any,
    op: Callable[[Any, Any], Any],
    root: int = 0,
    tag: int = 0,
    phase: str = "reduce",
    op_cost: float = 0.0,
):
    """Reduce ``value`` across ranks with binary operator ``op`` at ``root``.

    Returns the reduction on ``root`` and ``None`` elsewhere.  ``op_cost``
    charges virtual time per local combine (e.g. ``machine.flop``).
    """
    size, me = rank.size, rank.id
    t = _BASE_TAG + 0x3000 + tag
    if size == 1:
        return value
    yield Count("collective_calls", 1)
    rel = (me - root) % size
    mask = 1
    while mask < size:
        if rel & mask:
            parent = ((rel & ~mask) + root) % size
            yield Send(dest=parent, payload=value, tag=t, phase=phase)
            value = None
            break
        partner_rel = rel | mask
        if partner_rel < size:
            msg = yield Recv(source=(partner_rel + root) % size, tag=t, phase=phase)
            value = op(value, msg.payload)
            if op_cost:
                yield Compute(op_cost, phase=phase)
        mask <<= 1
    return value if rel == 0 else None


def allreduce(
    rank: Rank,
    value: Any,
    op: Callable[[Any, Any], Any],
    tag: int = 0,
    phase: str = "allreduce",
    op_cost: float = 0.0,
):
    """Reduce-to-all via recursive doubling (power-of-two core + fold-in)."""
    size, me = rank.size, rank.id
    t = _BASE_TAG + 0x4000 + tag
    if size == 1:
        return value
    yield Count("collective_calls", 1)
    core = _largest_pow2_leq(size)
    # Fold excess ranks (>= core) into their partner below core.
    if me >= core:
        yield Send(dest=me - core, payload=value, tag=t, phase=phase)
    elif me + core < size:
        msg = yield Recv(source=me + core, tag=t, phase=phase)
        value = op(value, msg.payload)
        if op_cost:
            yield Compute(op_cost, phase=phase)
    if me < core:
        mask = 1
        while mask < core:
            partner = me ^ mask
            yield Send(dest=partner, payload=value, tag=t, phase=phase)
            msg = yield Recv(source=partner, tag=t, phase=phase)
            value = op(value, msg.payload)
            if op_cost:
                yield Compute(op_cost, phase=phase)
            mask <<= 1
    # Unfold: send results back to the excess ranks.
    if me + core < size:
        yield Send(dest=me + core, payload=value, tag=t, phase=phase)
    elif me >= core:
        msg = yield Recv(source=me - core, tag=t, phase=phase)
        value = msg.payload
    return value


def gather(rank: Rank, value: Any, root: int = 0, tag: int = 0, phase: str = "gather"):
    """Gather one value per rank into a list at ``root`` (None elsewhere).

    Binomial tree: each node accumulates ``(rank, value)`` pairs from its
    subtree before forwarding, so only ``log2 P`` messages leave any node.
    """
    size, me = rank.size, rank.id
    t = _BASE_TAG + 0x5000 + tag
    if size == 1:
        return [value]
    yield Count("collective_calls", 1)
    rel = (me - root) % size
    acc = {me: value}
    mask = 1
    while mask < size:
        if rel & mask:
            parent = ((rel & ~mask) + root) % size
            yield Send(dest=parent, payload=acc, tag=t, phase=phase)
            acc = None
            break
        partner_rel = rel | mask
        if partner_rel < size:
            msg = yield Recv(source=(partner_rel + root) % size, tag=t, phase=phase)
            acc.update(msg.payload)
        mask <<= 1
    if rel == 0:
        return [acc[r] for r in range(size)]
    return None


def allgather(rank: Rank, value: Any, tag: int = 0, phase: str = "allgather"):
    """Gather one value per rank into a list on *every* rank.

    Recursive doubling on the power-of-two core, with pre-fold and
    post-broadcast for the excess ranks.
    """
    size, me = rank.size, rank.id
    t = _BASE_TAG + 0x6000 + tag
    if size == 1:
        return [value]
    yield Count("collective_calls", 1)
    core = _largest_pow2_leq(size)
    acc = {me: value}
    if me >= core:
        yield Send(dest=me - core, payload=acc, tag=t, phase=phase)
    elif me + core < size:
        msg = yield Recv(source=me + core, tag=t, phase=phase)
        acc.update(msg.payload)
    if me < core:
        mask = 1
        while mask < core:
            partner = me ^ mask
            yield Send(dest=partner, payload=acc, tag=t, phase=phase)
            msg = yield Recv(source=partner, tag=t, phase=phase)
            acc.update(msg.payload)
            mask <<= 1
    if me + core < size:
        yield Send(dest=me + core, payload=acc, tag=t, phase=phase)
    elif me >= core:
        msg = yield Recv(source=me - core, tag=t, phase=phase)
        acc = msg.payload
    return [acc[r] for r in range(size)]


def alltoall(
    rank: Rank,
    payloads: List[Any],
    tag: int = 0,
    phase: str = "alltoall",
    sizes: Optional[List[int]] = None,
):
    """Personalised all-to-all: ``payloads[q]`` goes to rank ``q``.

    Returns a list where slot ``q`` holds what rank ``q`` sent here.  Uses
    a pairwise-exchange schedule (P-1 rounds) that avoids hot spots; for
    hypercube-style combining semantics use
    :func:`repro.comm.crystal.crystal_route` instead.  ``sizes[q]``, when
    given, is the wire size of ``payloads[q]``.
    """
    size, me = rank.size, rank.id
    if len(payloads) != size:
        raise ValueError(f"alltoall needs {size} payloads, got {len(payloads)}")
    t = _BASE_TAG + 0x7000 + tag
    if size > 1:
        yield Count("collective_calls", 1)
    result: List[Any] = [None] * size
    result[me] = payloads[me]
    for round_ in range(1, size):
        dest = (me + round_) % size
        src = (me - round_) % size
        yield Send(dest=dest, payload=payloads[dest], tag=t, phase=phase,
                   nbytes=None if sizes is None else sizes[dest])
        msg = yield Recv(source=src, tag=t, phase=phase)
        result[src] = msg.payload
    return result


def scan(
    rank: Rank,
    value: Any,
    op: Callable[[Any, Any], Any],
    tag: int = 0,
    phase: str = "scan",
    op_cost: float = 0.0,
):
    """Inclusive prefix reduction (Hillis-Steele over ranks)."""
    size, me = rank.size, rank.id
    t = _BASE_TAG + 0x8000 + tag
    if size > 1:
        yield Count("collective_calls", 1)
    acc = value
    step = 1
    while step < size:
        if me + step < size:
            yield Send(dest=me + step, payload=acc, tag=t, phase=phase)
        if me - step >= 0:
            msg = yield Recv(source=me - step, tag=t, phase=phase)
            acc = op(msg.payload, acc)
            if op_cost:
                yield Compute(op_cost, phase=phase)
        step *= 2
    return acc
