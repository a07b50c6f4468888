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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InspectorError
from repro.runtime.translation import EnumeratedTable, TranslationTable


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


def coalesce_ranges(
    peer_offsets: Dict[int, np.ndarray],
    me: int,
    incoming: bool,
) -> List[RangeRecord]:
    """Build sorted, coalesced records from per-peer offset arrays.

    ``peer_offsets[q]`` holds the (home-processor-local) offsets of the
    elements exchanged with peer ``q``.  Offsets are deduplicated and
    sorted, adjacent offsets merge into one record.  Records are ordered
    by (peer, low) — the paper's primary/secondary sort keys — and
    ``buffer_start`` is assigned cumulatively for incoming records.
    """
    records: List[RangeRecord] = []
    buf = 0
    for q in sorted(peer_offsets):
        offs = np.unique(np.asarray(peer_offsets[q], dtype=np.int64))
        if offs.size == 0:
            continue
        breaks = np.nonzero(np.diff(offs) > 1)[0]
        lows = offs[np.concatenate(([0], breaks + 1))].tolist()
        highs = offs[np.concatenate((breaks, [offs.size - 1]))].tolist()
        for low, high in zip(lows, highs):
            if incoming:
                rec = RangeRecord(from_proc=q, to_proc=me, low=low, high=high,
                                  buffer_start=buf)
                buf += high - low + 1
            else:
                rec = RangeRecord(from_proc=me, to_proc=q, low=low, high=high)
            records.append(rec)
    return records


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


#: one read's gather: (positions, live counts, live mask) — see ``BatchPlan``
Gather = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]


@dataclass
class BatchPlan:
    """One iteration batch (``exec_local`` or ``exec_nonlocal``), compiled.

    ``gathers[k]`` serves the forall's k-th read as ``(pos, counts,
    live)``: positions in that array's workspace *[local rows ‖ receive
    buffer ‖ one zero row]* (or, for an array without one, in its local
    rows) and, for an indirect read, the live width per iteration and the
    ``arange(width) < counts`` mask (dead columns point at the zero row;
    both are None for an affine read).  ``targets[k]`` holds the local
    offsets the k-th write stores to.  The reference counts are what the
    executor's virtual-time charges are computed from.

    Every array here is read-only: a plan is shared by every execution
    of its schedule (and, through the disk tier's load memo, by later
    jobs of a pool worker), so a kernel writing into an operand it was
    handed must fail, not corrupt the next sweep.
    """

    iters: np.ndarray
    gathers: List[Gather] = field(default_factory=list)
    targets: List[np.ndarray] = field(default_factory=list)
    n_local: int = 0
    n_remote: int = 0
    n_indirect: int = 0


#: one message: (peer, tag offset, {array: item}) — see ``ExecPlan``
Message = Tuple[int, int, Dict[str, Any]]


@dataclass
class ExecPlan:
    """A :class:`CommSchedule` flattened for execution (built once by
    ``repro.runtime.executor.compile_plan``, memoised on the schedule).

    ``sends`` / ``recvs`` are indexed by ``combine_messages`` and list the
    messages in wire order; a send item is the vector of local offsets
    whose fancy-index copy is the payload, a receive item the
    ``(start, count)`` workspace slice the chunk lands in.
    ``workspaces`` names the arrays that need a *[local ‖ recv ‖ zero
    row]* workspace — those that receive data or whose gathers address
    the zero row; every other read takes straight from its local rows.

    Index arrays, counts and names only: a plan outlives the env and the
    ``Forall`` object it was compiled with (pool workers get a fresh env
    per job, callers may rebuild a forall around another kernel), so it
    must never hold array data, a ``LocalArray``, the forall or its kernel.
    """

    sends: Tuple[List[Message], List[Message]]
    recvs: Tuple[List[Message], List[Message]]
    local: BatchPlan
    nonlocal_: BatchPlan
    #: most in-ranges of any read array (the r of the O(log r) charge)
    max_ranges: int
    #: arrays gathered through a workspace, in schedule order
    workspaces: Tuple[str, ...]


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
      the executor on first execution and never pickled, so it lives and
      dies with this object in whichever cache tier holds it,
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
