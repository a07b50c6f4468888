"""One content-addressed entry store on disk, shared by every persistent tier.

The schedule disk cache (:class:`repro.serve.diskcache.DiskScheduleCache`)
and the learned-plan store (:class:`repro.tune.store.PlanStore`) are both
an :class:`EntryStore`: a directory of ``<key><suffix>`` files, one
*document* each.  A document is a dict carrying the store's ``format``
tag and the ``key`` it was stored under next to its payload fields,
encoded by the store's ``dumps``/``loads`` codec.  The subclasses name
only their format, codec and payload check; everything below is decided
here, once.

Stamp
-----
An entry's identity is the ``(mtime_ns, size, st_ino)`` stamp of the file
holding it.  Entries are never rewritten in place — every store writes a
temp file and renames it over the entry — so a new entry is a new inode.
The inode is what tells another writer's same-size entry, renamed in
within one mtime tick, apart from the file it replaced.

Memo
----
Loaded and stored documents are kept in a locked LRU (:data:`EntryStore.
MEMO_CAP` entries) next to the stamp of the file they came from.  A
memoised document is returned only while a fresh ``stat`` still matches
its stamp; any rewrite — another process storing, a corruption, a
deletion — falls through to a real read.  A memo hit costs one ``stat``
(plus the LRU touch below), never a decode.

Loads
-----
Corruption tolerant: a file that does not decode, is not a dict, carries
another format tag or another key (a renamed file), or whose payload
fails the store's check is deleted and counted as ``corrupt`` plus a
miss.  A store can fail to accelerate its caller, never hand it a wrong
document.  :meth:`EntryStore.load_stamped` also returns the stamp, taken
from the open file itself, for compare-and-swap.

Stores
------
Atomic: the document goes to a temp file in the same directory, which
``os.replace`` renames over the entry, so readers see the old entry or
the new one, never a torn write.  ``store(key, doc, expect=stamp)`` is a
compare-and-swap: the rename only happens while the on-disk stamp still
equals ``expect`` (``None`` = "must not exist yet"); otherwise the write
is dropped, counted in ``races``, and ``False`` returned so the caller
re-reads and re-decides.  After the rename the path is re-statted: if
the inode there is not ours, another writer overtook us in that instant,
their entry stands, and ours is not memoised.

Eviction
--------
Only a store built with ``max_bytes`` evicts.  Its hits ``utime`` their
entry, so file mtime is the recency clock, and every store deletes the
oldest-mtime entries until the directory fits.  An uncapped store never
touches an entry, so its mtimes stay the times entries were written.
"""

from __future__ import annotations

import os
import struct
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

Stamp = Tuple[int, int, int]

_UNSET = object()


def _length_prefixed(s: str) -> bytes:
    """``s`` encoded behind its length, so adjacent fields never run
    together.  Both stores' content keys are built from these bytes;
    changing them orphans every stored entry."""
    b = s.encode()
    return struct.pack("<q", len(b)) + b


def _hash_update_str(h, s: str) -> None:
    """Feed ``s`` to hash ``h`` length-prefixed (:func:`_length_prefixed`)."""
    h.update(_length_prefixed(s))


class LRU:
    """A capped, locked least-recently-used map.

    ``get`` refreshes an entry; storing past ``cap`` drops the oldest.
    Shared by the entry store's memo, the serve shards' table cache and
    the process's closed-form schedules (``repro.runtime.cache``).
    """

    def __init__(self, cap: int):
        self.cap = cap
        self._items: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            if key not in self._items:
                return default
            self._items.move_to_end(key)
            return self._items[key]

    def __setitem__(self, key, value) -> None:
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            while len(self._items) > self.cap:
                self._items.popitem(last=False)

    def pop(self, key, default=None):
        with self._lock:
            return self._items.pop(key, default)

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def __contains__(self, key) -> bool:
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)


def _stamp(path) -> Optional[Stamp]:
    """Identity of the entry currently at ``path`` (None = absent)."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_mtime_ns, st.st_size, st.st_ino)


def _unlink(path) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


class EntryStore:
    """One directory of content-addressed documents (see module doc).

    ``dumps(doc) -> bytes`` and ``loads(bytes) -> doc`` are the codec;
    ``valid(doc)`` checks the payload fields of a decoded document whose
    format and key already matched.  Counters are since-construction
    totals, safe to read from any thread.
    """

    #: memoised documents kept per instance (LRU)
    MEMO_CAP = 128

    def __init__(self, path, format: str, suffix: str,
                 dumps: Callable[[Dict], bytes], loads: Callable[[bytes], Any],
                 valid: Callable[[Dict], bool],
                 max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        self.dir = Path(path)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.format = format
        self.suffix = suffix
        self.dumps = dumps
        self.loads = loads
        self.valid = valid
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0
        self.races = 0
        self._memo = LRU(self.MEMO_CAP)
        self._count_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}{self.suffix}"

    def _count(self, *counters: str) -> None:
        with self._count_lock:
            for name in counters:
                setattr(self, name, getattr(self, name) + 1)

    def _touch(self, path: Path, stamp: Stamp) -> Stamp:
        """A capped store's LRU touch on a hit; returns the entry's stamp
        after it.  The re-stat only counts if the inode and size are still
        the ones we read, or a writer that replaced the entry in between
        would have its stamp paired with our document."""
        if self.max_bytes is None:
            return stamp
        try:
            os.utime(path)
        except OSError:
            return stamp
        fresh = _stamp(path)
        return fresh if fresh is not None and fresh[1:] == stamp[1:] else stamp

    # --- load ------------------------------------------------------------

    def load(self, key: str) -> Optional[Dict]:
        """The document stored under ``key``, or None."""
        doc, _ = self.load_stamped(key)
        return doc

    def load_stamped(self, key: str) -> Tuple[Optional[Dict], Optional[Stamp]]:
        """Like :meth:`load`, but also return the entry's stamp — what
        :meth:`store` CASes against.  ``(None, None)`` = no valid entry."""
        path = self._path(key)
        memo = self._memo.get(key)
        if memo is not None:
            stamp, doc = memo
            if _stamp(path) == stamp:
                self._count("hits")
                stamp = self._touch(path, stamp)
                self._memo[key] = (stamp, doc)
                return doc, stamp
            self._memo.pop(key)
        try:
            with open(path, "rb") as fh:
                st = os.fstat(fh.fileno())
                doc = self.loads(fh.read())
        except FileNotFoundError:
            self._count("misses")
            return None, None
        except Exception:  # unreadable or undecodable: corruption, not a crash
            doc = None
        if not (isinstance(doc, dict) and doc.get("format") == self.format
                and doc.get("key") == key and self.valid(doc)):
            self._count("corrupt", "misses")
            _unlink(path)
            return None, None
        self._count("hits")
        stamp = self._touch(path, (st.st_mtime_ns, st.st_size, st.st_ino))
        self._memo[key] = (stamp, doc)
        return doc, stamp

    # --- store -----------------------------------------------------------

    def store(self, key: str, doc: Dict, expect=_UNSET) -> bool:
        """Atomically persist ``doc`` under ``key``; True if it landed.

        Without ``expect`` the last writer wins; with it, a lost
        compare-and-swap returns False (see module doc).  A capped store
        then evicts down to ``max_bytes``.
        """
        doc = {**doc, "format": self.format, "key": key}
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=self.dir)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(self.dumps(doc))
                our_ino = os.fstat(fh.fileno()).st_ino
            if expect is not _UNSET and _stamp(path) != expect:
                _unlink(tmp)
                self._count("races")
                self._memo.pop(key)
                return False
            os.replace(tmp, path)
        except BaseException:
            _unlink(tmp)
            raise
        self._count("stores")
        landed = _stamp(path)
        if landed is not None and landed[2] == our_ino:
            self._memo[key] = (landed, doc)
        else:
            # Overtaken between rename and stat: the other writer's
            # entry is the durable one, so leave the memo honest.
            self._count("races")
            self._memo.pop(key)
        if self.max_bytes is not None:
            self._evict_to_cap()
        return True

    def discard(self, key: str) -> bool:
        """Remove the entry under ``key``; True when something was deleted."""
        self._memo.pop(key)
        return _unlink(self._path(key))

    def _aged(self) -> List[Tuple[int, int, Path]]:
        """``(mtime_ns, size, path)`` of every entry still present."""
        stamps = ((_stamp(p), p) for p in self.dir.glob(f"*{self.suffix}"))
        return [(s[0], s[1], p) for s, p in stamps if s is not None]

    def _evict_to_cap(self) -> None:
        aged = self._aged()
        total = sum(size for _, size, _ in aged)
        for _mtime, size, p in sorted(aged):
            if total <= self.max_bytes:
                break
            if _unlink(p):
                total -= size
                self._count("evictions")

    # --- reporting -------------------------------------------------------

    def entries(self) -> List[Path]:
        return sorted(self.dir.glob(f"*{self.suffix}"))

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._aged())

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "races": self.races,
            "entries": len(self.entries()),
            "bytes": self.total_bytes(),
        }

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({str(self.dir)!r}, "
                f"entries={len(self.entries())}, hits={self.hits}, "
                f"misses={self.misses})")
