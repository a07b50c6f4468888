"""Rank-side programming interface for the SPMD engine.

A rank program is a generator function ``def prog(rank: Rank): ...`` that
``yield``\\ s *ops*.  The engine interprets each op, advances the rank's
virtual clock, and resumes the generator with the op's result (a
:class:`Message` for receives, the current clock for :class:`Now`).

Nested helpers (collectives, the inspector/executor runtime) are themselves
generator functions invoked with ``yield from``, exactly like SimPy-style
process models::

    def prog(rank):
        data = np.arange(4.0)
        total = yield from allreduce(rank, data.sum())
        yield Compute(1e-6, phase="work")

The separation between *ops* (pure data, below) and the :class:`Rank`
facade keeps rank programs testable without an engine: tests can drive a
generator by hand and inspect the ops it yields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.errors import CommunicationError

ANY_SOURCE = -1
ANY_TAG = -1

DEFAULT_PHASE = "compute"

#: runaway-program bound: ops one rank may yield in one run, on either
#: engine (each reads it once per run, so patching it reaches both)
MAX_OPS = 500_000_000


def payload_nbytes(payload: Any) -> int:
    """Best-effort wire size of a payload (NumPy fast path, pickle-free)."""
    if payload is None:
        return 0
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, (tuple, list)):
        return sum(map(_item_nbytes, payload))
    if isinstance(payload, dict):
        return (sum(map(_item_nbytes, payload.keys()))
                + sum(map(_item_nbytes, payload.values())))
    return 64  # conservative default for opaque objects


def _item_nbytes(item: Any) -> int:
    """``payload_nbytes`` of a container item, the common leaves first:
    crystal packets are lists of ``(name, low, high)``, structure
    packets dicts of arrays keyed by name."""
    kind = type(item)
    if kind is int or kind is float:
        return 8
    if kind is str:
        return 64
    if kind is np.ndarray:
        return item.nbytes
    return payload_nbytes(item)


class Op:
    """Base class of everything a rank program may ``yield``.

    A yielded op is read-only.  The engines, the mp worker and tracers
    only read it, and a program may yield the same instance again: a
    warm forall execution replays the ops its plan fixes
    (``repro.runtime.schedule.OpTable``), and a schedule-cache hit is
    one shared ``Count``.
    """

    __slots__ = ()


@dataclass(slots=True)
class Send(Op):
    """Send ``payload`` to rank ``dest`` with a matching ``tag``.

    The sender is charged ``alpha_send + beta * nbytes``; the message
    becomes available at the destination after the additional per-hop
    transit latency.  ``nbytes`` defaults to the payload's wire size.
    """

    dest: int
    payload: Any = None
    tag: int = 0
    nbytes: Optional[int] = None
    phase: str = DEFAULT_PHASE
    label: str = ""

    def __post_init__(self):
        if self.dest < 0:
            raise CommunicationError(
                f"Send dest must be a valid rank (>= 0), got {self.dest}"
            )
        if self.tag < 0:
            raise CommunicationError(
                f"Send tag must be >= 0 (wildcards are receive-side only), "
                f"got {self.tag}"
            )
        if self.nbytes is not None and self.nbytes < 0:
            raise CommunicationError(
                f"Send nbytes must be >= 0, got {self.nbytes}"
            )

    def wire_size(self) -> int:
        return self.nbytes if self.nbytes is not None else payload_nbytes(self.payload)


@dataclass(slots=True)
class Recv(Op):
    """Blocking receive.  Resumes the generator with a :class:`Message`.

    ``source``/``tag`` may be :data:`ANY_SOURCE`/:data:`ANY_TAG`.  Wildcard
    *sources* are resolved conservatively (only once every other rank is
    blocked or finished) so results stay deterministic.

    ``timeout`` bounds the wait in virtual seconds: if no matching message
    can complete by ``block time + timeout``, the receive resumes the
    generator with ``None`` instead of a :class:`Message` — the primitive
    that timeout-based recovery protocols are built from.
    """

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    phase: str = DEFAULT_PHASE
    label: str = ""
    timeout: Optional[float] = None

    def __post_init__(self):
        if self.source < ANY_SOURCE:
            raise CommunicationError(
                f"Recv source must be a rank or ANY_SOURCE, got {self.source}"
            )
        if self.tag < ANY_TAG:
            raise CommunicationError(
                f"Recv tag must be >= 0 or ANY_TAG, got {self.tag}"
            )
        if self.timeout is not None and self.timeout <= 0.0:
            raise CommunicationError(
                f"Recv timeout must be > 0, got {self.timeout}"
            )


@dataclass(slots=True)
class Compute(Op):
    """Advance this rank's virtual clock by ``seconds`` of local work."""

    seconds: float
    phase: str = DEFAULT_PHASE
    label: str = ""

    def __post_init__(self):
        if self.seconds < 0:
            raise ValueError(f"Compute seconds must be >= 0, got {self.seconds}")


@dataclass(slots=True)
class Now(Op):
    """Resume the generator with the rank's current virtual clock."""


@dataclass(slots=True)
class Count(Op):
    """Increment a named statistics counter (no time charged)."""

    name: str
    amount: int = 1


@dataclass
class Message:
    """A delivered message, as returned by :class:`Recv`."""

    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int
    arrival: float
    seq: int


def validate_peer(peer: int, nranks: int) -> None:
    """Reject receives naming a rank outside the world (both backends)."""
    if not (0 <= peer < nranks):
        raise CommunicationError(
            f"peer rank {peer} outside world of size {nranks}"
        )


def validate_send(sender: int, op: "Send", nranks: int) -> None:
    """The send-side legality checks shared by the simulator and the
    real-process backend, so a program that is rejected on one backend is
    rejected identically on the other."""
    if not (0 <= op.dest < nranks):
        raise CommunicationError(
            f"peer rank {op.dest} outside world of size {nranks}"
        )
    if op.dest == sender:
        raise CommunicationError(
            f"rank {sender} cannot send to itself: a self-send can never "
            f"be received (the rank would have to block on its own "
            f"message) — handle local data without the engine"
        )
    if op.tag < 0:
        raise CommunicationError(
            f"message tag must be >= 0, got {op.tag} "
            f"(rank {sender} -> {op.dest})"
        )


class Rank:
    """Per-rank context handed to rank programs.

    Carries the rank id, world size, the machine cost model and topology
    (so runtime code can *compute* cost charges), plus an arbitrary
    user-supplied argument object.
    """

    __slots__ = ("id", "size", "machine", "topology", "arg")

    def __init__(self, rank_id: int, size: int, machine, topology, arg: Any = None):
        self.id = rank_id
        self.size = size
        self.machine = machine
        self.topology = topology
        self.arg = arg

    def __repr__(self) -> str:
        return f"Rank({self.id}/{self.size})"
