"""Communication schedules: the paper's Figure 5 data structure.

The ``in(p,q)`` and ``out(p,q)`` sets are represented as dynamically-sized
arrays of range records::

    record
        from_proc : integer;   -- sending processor
        to_proc   : integer;   -- receiving processor
        low, high : integer;   -- bounds of the block (offsets from the
                                  base of the array on the home processor)
        buffer    : ^real;     -- pointer into the communications buffer

exactly as in the paper: records are sorted on the peer processor id with
``low`` as secondary key, adjacent ranges are coalesced "to minimize the
number of records needed", and the ``buffer`` field (here: an offset into
a NumPy buffer) is used on the receive side to locate communicated
elements.  When several arrays share one schedule a symbol field becomes
the secondary key (§3.3); this implementation keeps one schedule per
referenced array, which is equivalent and simpler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import InspectorError
from repro.runtime.translation import (
    EnumeratedTable,
    TranslationTable,
    check_key_width,
    range_keys,
    split_keys,
)
from repro.util.sections import unique_ints


@dataclass(frozen=True)
class RangeRecord:
    """One contiguous block of array elements to communicate.

    ``low``/``high`` are inclusive *local offsets on the home (sending)
    processor*, per the paper ("these fields are actually the offsets from
    the base of the array on the home processor").  ``buffer_start`` is
    the block's position in the receiver's communication buffer.
    """

    from_proc: int
    to_proc: int
    low: int
    high: int
    buffer_start: int = -1

    def __post_init__(self):
        if self.low > self.high:
            raise InspectorError(f"empty range record {self.low}..{self.high}")

    @property
    def count(self) -> int:
        return self.high - self.low + 1


#: the coalesced runs of a set of (peer, offset) pairs: per run its
#: peer, low and high offsets (int64 arrays), ordered by (peer, low)
Runs = Tuple[np.ndarray, np.ndarray, np.ndarray]

_NONE = np.empty(0, dtype=np.int64)
_NONE.flags.writeable = False
_NO_RUNS: Runs = (_NONE, _NONE, _NONE)


def coalesce(peers: np.ndarray, offsets: np.ndarray) -> Runs:
    """Every peer's sorted, coalesced ranges in one pass.

    ``(peers[k], offsets[k])`` names one element exchanged with peer
    ``peers[k]`` by its offset on the home processor; pairs may repeat.
    The pairs are deduplicated and sorted by (peer, offset) — the
    paper's primary/secondary sort keys — as one key array, and a run
    ends wherever the next key is not one more: another peer, or a gap.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if not offsets.size:
        return _NO_RUNS
    check_key_width(offsets)
    keys = unique_ints(range_keys(np.asarray(peers, dtype=np.int64), offsets))
    ends = np.flatnonzero(np.diff(keys) != 1)
    run_peers, lows = split_keys(keys[np.concatenate(([0], ends + 1))])
    highs = split_keys(keys[np.append(ends, keys.size - 1)])[1]
    return run_peers, lows, highs


def coalesce_ranges(
    peer_offsets: Dict[int, np.ndarray],
    me: int,
    incoming: bool,
) -> List[RangeRecord]:
    """Build sorted, coalesced records from per-peer offset arrays.

    ``peer_offsets[q]`` holds the (home-processor-local) offsets of the
    elements exchanged with peer ``q``.  Offsets are deduplicated and
    sorted, adjacent offsets merge into one record (:func:`coalesce`).
    Records are ordered by (peer, low) and ``buffer_start`` is assigned
    cumulatively for incoming records.
    """
    chunks = [np.asarray(offs, dtype=np.int64).ravel()
              for offs in peer_offsets.values()]
    peers = np.repeat(np.fromiter(peer_offsets, dtype=np.int64,
                                  count=len(peer_offsets)),
                      [c.size for c in chunks])
    offsets = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
    runs = coalesce(peers, offsets)
    if incoming:
        return in_records(runs, me)[0]
    return [RangeRecord(from_proc=me, to_proc=q, low=low, high=high)
            for q, low, high in zip(*(a.tolist() for a in runs))]


def in_records(runs: Runs, me: int) -> Tuple[List[RangeRecord], List[int], int]:
    """The records of incoming ``runs``, their buffer starts and the
    buffer length: each run lands after the one before it, in (peer,
    low) order."""
    records: List[RangeRecord] = []
    starts: List[int] = []
    buf = 0
    for q, low, high in zip(*(a.tolist() for a in runs)):
        records.append(RangeRecord(from_proc=q, to_proc=me, low=low,
                                   high=high, buffer_start=buf))
        starts.append(buf)
        buf += high - low + 1
    return records, starts, buf


@dataclass
class ArraySchedule:
    """Communication plan for one referenced array on one rank.

    ``in_records``: blocks this rank receives (sorted by from_proc, low).
    ``out_records``: blocks this rank sends (sorted by to_proc, low).
    ``translation``: resolves (home_proc, home_offset) pairs to positions
    in the receive buffer.
    ``buffer_len``: total elements received.
    """

    array: str
    in_records: List[RangeRecord] = field(default_factory=list)
    out_records: List[RangeRecord] = field(default_factory=list)
    translation: Optional[TranslationTable] = None
    buffer_len: int = 0

    def finalize(self) -> None:
        """Build the translation table from the (already sorted) in records."""
        self.buffer_len = sum(r.count for r in self.in_records)
        self.translation = TranslationTable.from_records(self.in_records)

    def receive(self, runs: Runs, me: int) -> None:
        """Set the in records from :func:`coalesce`'d ``runs`` and build
        the buffer length and translation table from the same arrays."""
        self.in_records, starts, self.buffer_len = in_records(runs, me)
        peers, lows, highs = runs
        self.translation = TranslationTable(
            range_keys(peers, lows), highs, np.array(starts, dtype=np.int64))

    def to_enumerated(self) -> None:
        """Swap the sorted-range table for a full enumeration (Saltz, §5)."""
        self.translation = EnumeratedTable.from_records(self.in_records)

    def peers_in(self) -> List[int]:
        return sorted({r.from_proc for r in self.in_records})

    def peers_out(self) -> List[int]:
        return sorted({r.to_proc for r in self.out_records})

    def ranges_for_peer_out(self, q: int) -> List[RangeRecord]:
        return [r for r in self.out_records if r.to_proc == q]

    def ranges_for_peer_in(self, q: int) -> List[RangeRecord]:
        return [r for r in self.in_records if r.from_proc == q]

    def num_in_ranges(self) -> int:
        return len(self.in_records)


#: a vector of row offsets, or the ``slice`` of one ascending contiguous run
Index = Union[np.ndarray, slice]

#: one read's gather: (positions, live counts, live mask) — see ``BatchPlan``
Gather = Tuple[Index, Optional[np.ndarray], Optional[np.ndarray]]


@dataclass(frozen=True)
class Charges:
    """What one side of the paper's local/nonlocal split is charged for:
    its iterations and its live references — local, remote, and those of
    indirection reads (what ``flops_per_ref`` is charged against)."""

    iters: int = 0
    n_local: int = 0
    n_remote: int = 0
    n_indirect: int = 0


@dataclass
class BatchPlan:
    """``exec(p)``, compiled: the rows one execution gathers, hands to
    the kernel once, and commits.

    ``iters`` is ``exec(p)`` in ascending global order; ``exec_local``
    and ``exec_nonlocal`` are the subsequences ``local_rows`` selects and
    its complement.  ``gathers[k]`` serves the forall's k-th read as
    ``(pos, counts, live)``: positions in that array's workspace *[local
    rows ‖ receive buffer ‖ one zero row]* (or, for an array without one,
    in its local rows) and, for an indirect read, the live width per
    iteration and the ``arange(width) < counts`` mask (dead columns point
    at the zero row; both are None for an affine read).  ``targets[k]``
    holds the local offsets the k-th write stores to.  A position vector
    or target that is one ascending contiguous run is a ``slice``.

    The split survives only as what virtual time is charged from:
    ``local`` before the first receive, ``nonlocal_`` after the last.

    Every array here is read-only: a plan is shared by every execution
    of its schedule (and, through the schedule cache's shared tier, by
    later jobs of a pool worker), so a kernel writing into an operand it
    was handed must fail, not corrupt the next sweep.
    """

    iters: np.ndarray
    local_rows: np.ndarray
    local: Charges = Charges()
    nonlocal_: Charges = Charges()
    gathers: List[Gather] = field(default_factory=list)
    targets: List[Index] = field(default_factory=list)


#: one message: (peer, tag offset, {array: item}) — see ``ExecPlan``
Message = Tuple[int, int, Dict[str, Any]]


@dataclass
class OpTable:
    """Every op one execution of an :class:`ExecPlan` yields whose fields
    the plan fixes, built by ``repro.runtime.executor`` on the first
    execution under its key (see ``ExecPlan.tables``) and yielded again,
    the same instances, by every later one — in later contexts of the
    process too, whose schedule cache hands them the same plan from its
    shared tier.  Only ``Send`` / ``Recv``
    (they carry a payload and a tag), the payload copies and the
    allreduce are built per execution.

    ``sends`` holds per message in wire order ``(peer, tag offset,
    ((array, send index), ...), copy Compute, wire size or None)`` and
    ``recvs`` ``(peer, tag offset, {array: (start, count)}, copy
    Compute)``; ``sent`` / ``local`` / ``received`` / ``fold`` are one op
    each (None where an execution yields none), and ``after_kernel`` /
    ``after_commit`` the ops that follow the kernel call and the commit.
    ``reads`` is each read's gather recipe ``(array, operand name,
    gather index, live counts, live mask, view?, through a workspace?)``
    and ``written`` the distinct arrays whose versions a commit bumps.

    Ops, index arrays of the plan, ints and strings only: like the plan,
    a table outlives the env and the forall it was built with.
    """

    sends: List[Tuple[int, int, Tuple[Tuple[str, Index], ...], Any, Optional[int]]]
    sent: Any
    local: Any
    recvs: List[Tuple[int, int, Dict[str, Tuple[int, int]], Any]]
    received: Any
    reads: List[Tuple[str, str, Index, Optional[np.ndarray], Optional[np.ndarray],
                      bool, bool]]
    after_kernel: Tuple[Any, ...]
    written: Tuple[str, ...]
    after_commit: Tuple[Any, ...]
    fold: Any


@dataclass
class ExecPlan:
    """A :class:`CommSchedule` flattened for execution (built once by
    ``repro.runtime.executor.compile_plan``, memoised on the schedule:
    by the schedule cache when it files the schedule, else by the
    executor's first execution).

    ``sends`` / ``recvs`` are indexed by ``combine_messages`` and list the
    messages in wire order; a send item holds the local offsets (a
    ``slice`` for one contiguous range) whose copy is the payload, a
    receive item the ``(start, count)`` workspace slice the chunk lands
    in.  ``batch`` is the one :class:`BatchPlan` over ``exec(p)``.
    ``workspaces`` names the arrays that need a *[local ‖ recv ‖ zero
    row]* workspace — those that receive data or whose gathers address
    the zero row; every other read takes straight from its local rows.

    ``tables`` holds one :class:`OpTable` per key: the machine model,
    ``combine_messages``, the schedule's translation kind and the
    forall's ``replay_key``.  One plan serves several keys: the schedule
    cache's shared tier (``repro.runtime.cache``) hands one schedule to
    every context of a process — a closed-form one from ``CLOSED_FORM``,
    an inspected one from the disk tier's load memo — and a caller may
    rebuild a forall around the same label with other cost hints.

    Index arrays, counts, names and op tables only: a plan outlives the
    env and the ``Forall`` object it was compiled with (pool workers get
    a fresh env per job, callers may rebuild a forall around another
    kernel), so it must never hold array data, a ``LocalArray``, the
    forall or its kernel — nor a workspace, which belongs to the rank
    context that executes it (``KaliRank.workspaces``).
    """

    sends: Tuple[List[Message], List[Message]]
    recvs: Tuple[List[Message], List[Message]]
    batch: BatchPlan
    #: most in-ranges of any read array (the r of the O(log r) charge)
    max_ranges: int
    #: arrays gathered through a workspace, in schedule order
    workspaces: Tuple[str, ...]
    #: replayed ops per key — see :class:`OpTable`
    tables: Dict[tuple, OpTable] = field(default_factory=dict)


@dataclass
class CommSchedule:
    """The complete cached result of inspecting one forall on one rank.

    Contents (paper Figure 6's ``local_list``/``nonlocal_list``/
    ``recv_list``/``send_list``):

    * ``exec_local``: global iteration indices whose references are all
      local (``exec(p) ∩ ref(p)`` across references),
    * ``exec_nonlocal``: iterations touching at least one remote element
      (``exec(p) − ref(p)``),
    * ``arrays``: per-referenced-array :class:`ArraySchedule`,
    * ``versions``: versions of the communication-determining arrays at
      inspection time (cache invalidation key),
    * ``plan``: the compiled :class:`ExecPlan` — derived state, set by
      the schedule cache when it adopts the schedule (by the executor's
      first execution when caching is off) and never pickled, so it
      lives and dies with this object in whichever cache tier holds it,
    * ``classification``: the inspector's
      :class:`~repro.runtime.inspector.Classification` of ``exec(p)``,
      handed to ``compile_plan``, which consumes and clears it so that
      nothing derived from one job's env outlives that job.  Transient
      like ``plan``: never pickled, never compared.
    """

    label: str
    rank: int
    exec_local: np.ndarray
    exec_nonlocal: np.ndarray
    arrays: Dict[str, ArraySchedule] = field(default_factory=dict)
    versions: Dict[str, int] = field(default_factory=dict)
    #: distribution generation of every referenced array at build time —
    #: a redistribute invalidates the whole schedule (exec/ref/in/out all
    #: depend on the layout, not just the indirection values)
    dist_versions: Dict[str, int] = field(default_factory=dict)
    built_by: str = "inspector"  # or "compile-time"
    translation_kind: str = "ranges"  # or "enumerated"
    plan: Optional[ExecPlan] = field(default=None, repr=False, compare=False)
    classification: Any = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("plan", None)
        state.pop("classification", None)
        return state

    def enumerate_translations(self) -> None:
        """Convert all translation tables to enumerated form."""
        for a in self.arrays.values():
            a.to_enumerated()
        self.translation_kind = "enumerated"

    def total_in_elements(self) -> int:
        return sum(a.buffer_len for a in self.arrays.values())

    def total_out_elements(self) -> int:
        return sum(r.count for a in self.arrays.values() for r in a.out_records)

    def total_messages_out(self) -> int:
        return sum(len(a.peers_out()) for a in self.arrays.values())

    def num_exec(self) -> int:
        return int(self.exec_local.size + self.exec_nonlocal.size)

    def describe(self) -> str:
        lines = [
            f"schedule {self.label} on rank {self.rank} ({self.built_by}):",
            f"  local iters={self.exec_local.size} nonlocal iters={self.exec_nonlocal.size}",
        ]
        for name, a in sorted(self.arrays.items()):
            lines.append(
                f"  array {name}: recv {a.buffer_len} elems in "
                f"{len(a.in_records)} ranges from {a.peers_in()}; "
                f"send {sum(r.count for r in a.out_records)} elems in "
                f"{len(a.out_records)} ranges to {a.peers_out()}"
            )
        return "\n".join(lines)
