"""On-disk, content-addressed schedule cache (format ``repro-schedcache-v1``).

The in-memory :class:`~repro.runtime.cache.ScheduleCache` amortizes
inspector cost over repetitions of a forall *within one process* (paper
§3.2).  This module is the second tier: inspected schedules persist on
disk, keyed by **content**, so a restarted server — or a brand-new
process anywhere on the same machine — re-executes a known forall with
zero inspector cost.

Cache key
---------
A schedule is a deterministic function of everything the inspector read.
The key is the SHA-256 of a canonical encoding of exactly that:

* the format tag (``repro-schedcache-v1`` — bump to invalidate the world),
* the forall's label, index bounds, ``on`` clause, and per-read/write
  descriptors (affine coefficients of reads and writes, table/count
  names),
* ``rank`` and ``nranks`` (schedules are per-rank objects),
* the distribution spec, dtype, and global shape of every referenced
  array (``repr(ArrayDistribution)`` covers dims, parameters, and the
  processor grid),
* the **global content fingerprint of the communication-determining
  arrays** — the SHA-256 of the whole indirection table / count array,
  stamped onto every local piece at scatter time
  (``LocalArray.content_tag``).  Hashing content rather than version
  counters is what survives restarts: version stamps are process-local,
  array contents are not.  A version bump that changes the data changes
  the key (a miss — correct), and one that rewrites identical data
  re-hits (also correct: the schedule is still valid).  It must be the
  *global* content — schedules are collective, and per-rank local bytes
  would let ranks disagree about a hit and diverge,
* the translation kind (``ranges`` vs ``enumerated`` tables are different
  artifacts).

Storage
-------
A capped :class:`~repro.util.store.EntryStore` (its module docstring
states the stamp, memo, atomic-store and eviction rules).  A bad entry
is a miss and the caller re-inspects: the cache can never poison a
result, only fail to accelerate one.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import struct
import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro.arrays.localview import LocalArray
from repro.core.forall import (
    AffineRead,
    Forall,
    IndirectRead,
    OnOwner,
    OnProcessor,
)
from repro.runtime.schedule import CommSchedule
from repro.util.store import EntryStore, _hash_update_str, _length_prefixed

SCHEDCACHE_FORMAT = "repro-schedcache-v1"

#: size cap of a schedule-cache directory; LRU by mtime beyond it
DISK_CACHE_BYTES = 256 * 1024 * 1024


def _static_digest(forall: Forall) -> "hashlib._Hash":
    """The forall-only prefix of the content key, memoized on the forall.

    Everything here is a pure function of the (immutable in practice)
    forall spec — label, bounds, on clause, read/write descriptors — so
    it is hashed once per forall object and ``copy()``-ed per lookup.
    The per-rank / per-data suffix is appended by the caller."""
    h = getattr(forall, "_schedcache_static", None)
    if h is None:
        h = hashlib.sha256()
        _hash_update_str(h, SCHEDCACHE_FORMAT)
        _hash_update_str(h, forall.label)
        h.update(struct.pack("<qq", *forall.index_range))
        _hash_update_str(h, _on_token(forall))
        for read in forall.reads:
            if isinstance(read, AffineRead):
                _hash_update_str(
                    h, f"affine({read.array},{read.fn.a},{read.fn.b})"
                )
            elif isinstance(read, IndirectRead):
                _hash_update_str(
                    h, f"indirect({read.array},{read.table},{read.count})"
                )
            else:  # pragma: no cover - future read kinds
                _hash_update_str(h, repr(read))
        for w in forall.writes:
            # The write map too: a compiled plan's write targets follow
            # it, and plans are shared by every holder of the key.
            _hash_update_str(h, f"write({w.array},{w.fn.a},{w.fn.b})")
        try:
            forall._schedcache_static = h
        except AttributeError:  # pragma: no cover - slotted/frozen foralls
            pass
    return h.copy()


def _on_token(forall: Forall) -> str:
    on = forall.on
    if isinstance(on, OnOwner):
        return f"owner({on.array},{on.fn.a},{on.fn.b})"
    if isinstance(on, OnProcessor):
        # An arbitrary mapping function: identify it by its compiled body
        # so two structurally different mappings never collide.
        code = getattr(on.fn, "__code__", None)
        body = code.co_code.hex() if code is not None else repr(on.fn)
        return f"proc({body})"
    return repr(on)  # pragma: no cover - future on-clauses


#: the key bytes of each live ``ArrayDistribution`` (see ``_layout_bytes``)
_LAYOUT_BYTES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: the key bytes of each dtype (see ``_dtype_bytes``)
_DTYPE_BYTES: Dict[np.dtype, bytes] = {}


def _layout_bytes(dist) -> bytes:
    """What an array's layout contributes to the key: its ``repr`` and
    every placement parameter.  ``repr()`` names the pattern but not every
    parameter — a Custom owner map in particular.  Two custom layouts of
    the same extent must never share a key (a redistributed array would
    hit the old layout's schedule), so the params are hashed directly.
    A distribution is not changed once built, so its bytes are computed
    once per object (a new owner map is a new object)."""
    out = _LAYOUT_BYTES.get(dist)
    if out is None:
        parts = [_length_prefixed(repr(dist))]
        for dim in dist.dims:
            for param in dim._layout_params():
                parts.append(param if isinstance(param, bytes)
                             else str(param).encode())
        out = _LAYOUT_BYTES[dist] = b"".join(parts)
    return out


def _dtype_bytes(dtype: np.dtype) -> bytes:
    """What an array's dtype contributes to the key, once per dtype."""
    out = _DTYPE_BYTES.get(dtype)
    if out is None:
        out = _DTYPE_BYTES[dtype] = _length_prefixed(str(dtype))
    return out


def schedule_content_key(
    forall: Forall,
    env: Dict[str, LocalArray],
    translation: str = "ranges",
) -> Optional[str]:
    """The content-addressed key of ``forall``'s schedule on this rank.

    None when the forall references arrays not in scope (the runtime will
    fail with a better error than a cache ever could), or when any
    communication-determining array lacks a global ``content_tag`` (e.g.
    after a redistribute) — the key must be a pure function of data every
    rank agrees on, so no tag means no disk tier for this lookup.
    """
    names = sorted(set(
        forall.arrays_read() + forall.arrays_written()
        + ([forall.on.array] if isinstance(forall.on, OnOwner) else [])
    ))
    locals_ = []
    for name in names:
        local = env.get(name)
        if local is None:
            return None
        locals_.append((name, local))
    comm_deps = set(forall.comm_dependency_arrays())
    for name, local in locals_:
        if name in comm_deps and local.content_tag is None:
            return None

    h = _static_digest(forall)
    any_local = locals_[0][1]
    h.update(struct.pack("<qq", any_local.rank, any_local.dist.procs.size))
    _hash_update_str(h, translation)
    for name, local in locals_:
        _hash_update_str(h, f"array({name})")
        h.update(_layout_bytes(local.dist))
        h.update(_dtype_bytes(local.data.dtype))
        if name in comm_deps:
            # Global fingerprint, not local bytes: schedules are
            # collective, and every rank must reach the same hit/miss
            # verdict or the SPMD ranks diverge (deadlock).
            _hash_update_str(h, local.content_tag)
    return h.hexdigest()


class DiskScheduleCache(EntryStore):
    """One directory of content-addressed schedule entries: pickled
    ``{"format", "key", "schedule"}`` documents in a size-capped
    :class:`~repro.util.store.EntryStore`.

    Many rank processes (and many servers) may share a directory; keys
    embed the rank id, so entries never collide across ranks.  All
    counters are since-construction totals; the in-memory cache drains
    them into engine ``Count`` events (see ``ScheduleCache.take_counts``).
    """

    def __init__(self, path, max_bytes: int = DISK_CACHE_BYTES):
        super().__init__(
            path, SCHEDCACHE_FORMAT, ".sched",
            dumps=functools.partial(pickle.dumps,
                                    protocol=pickle.HIGHEST_PROTOCOL),
            loads=pickle.loads,
            valid=lambda doc: isinstance(doc.get("schedule"), CommSchedule),
            max_bytes=max_bytes,
        )

    def load(self, key: str) -> Optional[CommSchedule]:
        """The schedule stored under ``key``, or None."""
        doc = super().load(key)
        return None if doc is None else doc["schedule"]

    def store(self, key: str, schedule: CommSchedule) -> bool:
        """Atomically persist ``schedule`` under ``key``, then evict
        oldest entries until the directory fits ``max_bytes``."""
        return super().store(key, {"schedule": schedule})


_SHARED: Dict[Tuple[str, int], DiskScheduleCache] = {}


def shared_disk_cache(path, rank: int) -> DiskScheduleCache:
    """The process-wide :class:`DiskScheduleCache` for ``(path, rank)``.

    A warm pool worker builds a fresh ``KaliRank`` per job; reusing one
    store keeps the loaded-schedule memo warm across jobs, so a repeat
    hit costs a ``stat``, the LRU ``utime`` and a re-``stat`` instead of
    an unpickle.  Keyed per rank because the sim backend runs every rank
    in one process and each rank's ``ScheduleCache`` drains counter
    *deltas* — sharing one instance across ranks would bleed one rank's
    hits into another's counters and break sim/mp differential
    exactness.  Callers that need
    an unshared view (tests, ``stat`` reporting) construct
    :class:`DiskScheduleCache` directly."""
    cache_key = (os.path.abspath(str(path)), int(rank))
    inst = _SHARED.get(cache_key)
    if inst is None:
        inst = _SHARED[cache_key] = DiskScheduleCache(path)
    return inst
