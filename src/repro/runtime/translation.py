"""Translation tables: locating communicated elements in receive buffers.

The paper stores ``in`` sets as sorted arrays of ranges and finds an
individual communicated element "by binary search in O(log r) time (where
r is the number of ranges), which is optimal in the general case" (§3.3).
:class:`TranslationTable` is that structure, vectorised: lookups for whole
index arrays run as one ``searchsorted`` call, while the *virtual-time*
cost charged by the executor remains the per-element O(log r) searches of
the paper's C implementation.

:class:`EnumeratedTable` is the Saltz-style alternative the paper contrasts
in Related Work (§5): explicitly enumerate every reference in a list —
O(1) lookup, no search, but storage proportional to the number of
*references* instead of the number of *ranges*.  It backs the A2 ablation
benchmark.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import InspectorError

# Keys combine (proc, offset) into one sortable integer; offsets are local
# storage offsets so they comfortably fit 40 bits.
_KEY_SHIFT = 40
_KEY_LIMIT = 1 << _KEY_SHIFT


def range_keys(procs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """One sortable int64 per (proc, offset) pair: ordering the keys
    orders the pairs by proc, then offset, and two pairs are adjacent
    offsets of one proc exactly when their keys differ by one."""
    return (procs.astype(np.int64) << _KEY_SHIFT) | offsets.astype(np.int64)


def split_keys(keys: np.ndarray):
    """``(procs, offsets)`` of :func:`range_keys` keys."""
    return keys >> _KEY_SHIFT, keys & (_KEY_LIMIT - 1)


def check_key_width(offsets: np.ndarray) -> None:
    """Raise unless every offset fits a :func:`range_keys` key."""
    if offsets.size and int(offsets.max()) >= _KEY_LIMIT:
        raise InspectorError("offset exceeds translation key width")


class TranslationTable:
    """Sorted-range lookup from (home_proc, home_offset) to buffer slot."""

    __slots__ = ("range_keys_low", "range_high", "buffer_starts", "num_ranges")

    def __init__(
        self,
        range_keys_low: np.ndarray,
        range_high: np.ndarray,
        buffer_starts: np.ndarray,
    ):
        self.range_keys_low = range_keys_low
        self.range_high = range_high
        self.buffer_starts = buffer_starts
        self.num_ranges = int(range_keys_low.size)

    @classmethod
    def from_records(cls, in_records: Sequence) -> "TranslationTable":
        """Build from in-records already sorted by (from_proc, low)."""
        lows = np.array(
            [(r.from_proc << _KEY_SHIFT) | r.low for r in in_records], dtype=np.int64
        )
        if lows.size > 1 and (np.diff(lows) <= 0).any():
            raise InspectorError("in records are not sorted by (proc, low)")
        highs = np.array([r.high for r in in_records], dtype=np.int64)
        starts = np.array([r.buffer_start for r in in_records], dtype=np.int64)
        check_key_width(highs)      # a record's low never exceeds its high
        return cls(lows, highs, starts)

    def lookup(self, procs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Buffer slots for (proc, offset) pairs; raises if any miss.

        Vectorised binary search: each element costs the cost model's
        O(log r) search charge, accounted by the executor.
        """
        procs = np.asarray(procs, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if self.num_ranges == 0:
            if procs.size:
                raise InspectorError("lookup on empty translation table")
            return np.empty(0, dtype=np.int64)
        keys = range_keys(procs, offsets)
        idx = np.searchsorted(self.range_keys_low, keys, side="right") - 1
        if (idx < 0).any():
            raise InspectorError("translation miss: element below every range")
        rec_proc = self.range_keys_low[idx] >> _KEY_SHIFT
        rec_low = self.range_keys_low[idx] & (_KEY_LIMIT - 1)
        ok = (rec_proc == procs) & (offsets >= rec_low) & (offsets <= self.range_high[idx])
        if not ok.all():
            bad = np.nonzero(~ok)[0][0]
            raise InspectorError(
                f"translation miss for proc {int(procs[bad])} offset "
                f"{int(offsets[bad])}: element was never scheduled for receive"
            )
        return self.buffer_starts[idx] + (offsets - rec_low)

    def contains(self, procs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Vectorised membership (no raise)."""
        procs = np.asarray(procs, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if self.num_ranges == 0:
            return np.zeros(procs.shape, dtype=bool)
        keys = range_keys(procs, offsets)
        idx = np.searchsorted(self.range_keys_low, keys, side="right") - 1
        idx_ok = idx >= 0
        idx = np.maximum(idx, 0)
        rec_proc = self.range_keys_low[idx] >> _KEY_SHIFT
        rec_low = self.range_keys_low[idx] & (_KEY_LIMIT - 1)
        return (
            idx_ok
            & (rec_proc == procs)
            & (offsets >= rec_low)
            & (offsets <= self.range_high[idx])
        )


class EnumeratedTable:
    """Hash-style full enumeration of communicated elements (Saltz, §5).

    Stores one entry per distinct communicated element.  Lookup is O(1)
    per element (charged as a single base search cost, no log factor);
    memory is proportional to element count rather than range count —
    exactly the trade-off the paper describes: "they explicitly enumerate
    all array references ... this eliminates the overhead of checking and
    searching for nonlocal references during the loop execution but
    requires more storage".
    """

    __slots__ = ("_map", "num_entries")

    def __init__(self, procs: np.ndarray, offsets: np.ndarray, slots: np.ndarray):
        keys = range_keys(np.asarray(procs, np.int64), np.asarray(offsets, np.int64))
        self._map = dict(zip(keys.tolist(), np.asarray(slots, np.int64).tolist()))
        self.num_entries = len(self._map)

    @classmethod
    def from_records(cls, in_records: Sequence) -> "EnumeratedTable":
        procs: List[int] = []
        offsets: List[int] = []
        slots: List[int] = []
        for r in in_records:
            for k, off in enumerate(range(r.low, r.high + 1)):
                procs.append(r.from_proc)
                offsets.append(off)
                slots.append(r.buffer_start + k)
        return cls(np.array(procs, np.int64), np.array(offsets, np.int64),
                   np.array(slots, np.int64))

    def lookup(self, procs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        keys = range_keys(np.asarray(procs, np.int64), np.asarray(offsets, np.int64))
        try:
            return np.fromiter(
                (self._map[k] for k in keys.tolist()), dtype=np.int64, count=keys.size
            )
        except KeyError as exc:
            raise InspectorError(f"enumerated-table miss: {exc}") from exc

    def storage_entries(self) -> int:
        return self.num_entries
