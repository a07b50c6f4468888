"""Shared-memory data plane for the real-process backends.

The mp backend and the warm pool move every payload as a pickled frame
through a pipe: serialize, copy into the kernel, copy back out,
deserialize.  For the bulk traffic the runtime generates — scattered
operands inside shipped closures, gathered result environments,
redistribute all-to-alls, whole-schedule ship lists — that is three
copies too many.  :class:`ShmDataPlane` replaces the payload bytes with
*index writes*: :meth:`ShmDataPlane.dumps` pickles a payload with
protocol 5, and every out-of-band buffer of at least ``threshold`` bytes
— the contents of a contiguous numeric ``ndarray``, or a
``pickle.PickleBuffer`` the caller wraps around raw bytes — is copied
once into a ``multiprocessing.shared_memory`` segment mapped by every
process.  The pipe frame carries only the pickle stream and one
:class:`ShmRef` per hoisted buffer — segment name, offset, size, content
tag.  A payload that hoists nothing crosses as bare pickle bytes (and
keeps the ``PIPE_BUF``-atomic inline-send fast path).

Design (docs/dataplane.md has the full treatment):

* **Parties.**  ``nranks`` rank processes plus the parent supervisor
  (party id ``nranks``).  The plane is created in the parent *before*
  forking, so every party inherits the primary segment mapping for free.
* **Single-writer slots instead of locks.**  Pure Python has no
  cross-process atomic read-modify-write, so the layout never needs one:
  every shared int64 slot has exactly one writer.  The segment header is
  an aligned int64 array with a per-party group of monotonic indices
  (blocks/bytes published, blocks/bytes consumed, arena high-water mark)
  written only by that party; each block header is one content-tag slot
  (written by the block's owner) plus one ack slot per party (written
  only by that consumer).  Torn reads cannot happen — aligned 8-byte
  loads/stores are atomic on every platform ``fork`` exists on.
* **Arenas.**  The primary segment is split into one arena per party;
  a party allocates blocks only from its own arena (bump pointer + a
  size-split free list), so allocation needs no coordination at all.
  On exhaustion the owner first *reclaims* — frees every outstanding
  block whose consumers have all set their ack slots — then *grows* by
  creating a fresh named segment; consumers attach on first reference.
* **Content tags.**  Every block carries an owner-unique tag, checked on
  read and zeroed on free.  A stale :class:`ShmRef` (use after reclaim)
  or a second read by the same party (double free of the consumer side)
  raises :class:`ShmError` instead of silently reading recycled bytes.
* **Failure semantics.**  Segments are named ``repro-shm-<token>-…``.
  The creator unlinks its own on :meth:`close`; ``sweep_orphans`` then
  unlinks anything left under the prefix, which is how a pool reclaims
  the grown segments of a crashed worker (the crash condemned the mesh,
  so nothing can still reference them).  A plane its creator never
  closes is released the same way when it is collected or the creator
  exits, whichever comes first.

The plane changes *transport only*: message counts, ``nbytes``, and
virtual/wall phase accounting are computed from the original payload
exactly as before, so the sim/mp differential harness and the obs comm
matrix reconcile bit-for-bit with the plane on or off.
"""

from __future__ import annotations

import itertools
import os
import pickle
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import KaliError

__all__ = [
    "ShmError",
    "ShmRef",
    "ShmPayload",
    "ShmDataPlane",
    "DEFAULT_SEGMENT_BYTES",
    "DEFAULT_THRESHOLD",
    "shm_enabled_default",
    "shm_threshold_default",
]


class ShmError(KaliError):
    """Shared-memory data-plane misuse or exhaustion."""


#: total size of the primary segment (header + one arena per party).
#: Pages are allocated lazily by the kernel, so an oversized segment
#: costs address space, not memory.
DEFAULT_SEGMENT_BYTES = 16 * 1024 * 1024

#: buffers smaller than this stay in the pickle stream — below a few KiB
#: the pipe write is one atomic syscall and beats the block bookkeeping.
DEFAULT_THRESHOLD = 2048

_MAGIC = 0x4B414C49_53484D01  # "KALISHM" v1
_ALIGN = 64
#: per-party header slots: blocks/bytes published, blocks/bytes
#: consumed, arena high-water mark
_PARTY_SLOTS = 5
_SLOT_PUB_BLOCKS, _SLOT_PUB_BYTES, _SLOT_CON_BLOCKS, _SLOT_CON_BYTES, \
    _SLOT_HWM = range(_PARTY_SLOTS)

#: minimum leftover worth keeping as a free-list entry after a split
_MIN_SPLIT = 256

_token_counter = itertools.count(1)


def shm_enabled_default() -> bool:
    """Data-plane default: on, unless ``REPRO_SHM=0`` (kill switch)."""
    return os.environ.get("REPRO_SHM", "1").lower() not in ("0", "off", "no")


def shm_threshold_default() -> int:
    try:
        return int(os.environ.get("REPRO_SHM_THRESHOLD", DEFAULT_THRESHOLD))
    except ValueError:
        return DEFAULT_THRESHOLD


def _align(n: int, a: int = _ALIGN) -> int:
    return (n + a - 1) // a * a


def _untrack(name: str) -> None:
    """Opt this process's resource tracker out of ``name``.

    The plane manages segment lifetime itself (explicit unlinks plus a
    prefix sweep at teardown); leaving segments registered makes the
    tracker warn about — or double-unlink — segments another process
    already cleaned up."""
    try:
        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def _unlink_segment(name: str) -> None:
    """Remove a segment by name without touching the resource tracker
    (``SharedMemory.unlink`` would send an unregister for a name we
    already unregistered at create time)."""
    try:
        import _posixshmem

        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        pass
    except ImportError:  # pragma: no cover - non-POSIX fallback
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass
    except OSError:  # pragma: no cover - platform quirks
        pass


def _sweep_prefix(prefix: str) -> int:
    """Unlink every ``/dev/shm`` entry whose name starts with ``prefix``;
    returns how many went."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return 0
    swept = 0
    try:
        names = os.listdir(shm_dir)
    except OSError:  # pragma: no cover
        return 0
    for name in names:
        if name.startswith(prefix):
            try:
                os.unlink(os.path.join(shm_dir, name))
                swept += 1
            except OSError:
                pass
    return swept


def _release(segments: Dict[str, "_Seg"], prefix: str, creator: int) -> None:
    """Finalizer of a plane its creator never closed: drop the views,
    close the mappings, and sweep the prefix — in the creator only,
    since a forked rank inherits the registration but not the
    segments' lifetime."""
    if os.getpid() != creator:
        return
    for seg in segments.values():
        seg.close()
    segments.clear()
    _sweep_prefix(prefix)


@dataclass(frozen=True)
class ShmRef:
    """A pipe-sized stand-in for one buffer living in shared memory.
    ``tag`` is the owner-unique content tag checked on every read."""

    segment: str
    offset: int
    nbytes: int
    tag: int


class ShmPayload(NamedTuple):
    """What :meth:`ShmDataPlane.dumps` sends when it hoisted something: a
    protocol-5 pickle stream plus the refs of its out-of-band buffers,
    in stream order."""

    stream: bytes
    refs: Tuple[ShmRef, ...]

    @property
    def nbytes(self) -> int:
        """Bytes that ride the plane instead of the pipe."""
        return sum(r.nbytes for r in self.refs)


class _Seg:
    """One mapped segment: the SharedMemory plus an int64 view for the
    single-writer header/tag/ack slots (all offsets are 8-aligned)."""

    __slots__ = ("shm", "buf", "i64", "size", "owned")

    def __init__(self, shm: shared_memory.SharedMemory, owned: bool):
        self.shm = shm
        self.buf = shm.buf
        self.size = shm.size
        self.i64 = np.frombuffer(shm.buf, dtype=np.int64,
                                 count=shm.size // 8)
        self.owned = owned

    def close(self, unlink: bool = False) -> None:
        # Drop numpy/memoryview references before closing the mapping —
        # SharedMemory.close() raises if exported pointers remain.
        self.i64 = None
        self.buf = None
        name = self.shm.name
        try:
            self.shm.close()
        except Exception:
            pass
        if unlink:
            _unlink_segment(name)


class _Arena:
    """One allocation region owned by a single party (no sharing)."""

    __slots__ = ("segment", "base", "size", "bump", "free")

    def __init__(self, segment: str, base: int, size: int):
        self.segment = segment
        self.base = base
        self.size = size
        self.bump = 0                      # next never-used offset
        self.free: List[Tuple[int, int]] = []   # (abs offset, size)

    def alloc(self, need: int) -> Optional[int]:
        for i, (off, sz) in enumerate(self.free):
            if sz >= need:
                del self.free[i]
                if sz - need >= _MIN_SPLIT:
                    self.free.append((off + need, sz - need))
                return off
        if self.size - self.bump >= need:
            off = self.base + self.bump
            self.bump += need
            return off
        return None

    def release(self, off: int, size: int) -> None:
        if off - self.base + size == self.bump:
            self.bump -= size          # give the tail back to the bump
        else:
            self.free.append((off, size))

    def in_use(self) -> int:
        return self.bump - sum(sz for _off, sz in self.free)


class ShmDataPlane:
    """Per-mesh shared-memory transport for bulk payloads.

    Create in the parent **before** forking (children inherit the
    primary mapping); each process then calls :meth:`attach` with its
    party id — rank ids ``0..nranks-1``, or :attr:`parent_party` for the
    supervisor — before publishing or reading blocks.
    """

    def __init__(
        self,
        nranks: int,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        threshold: int = DEFAULT_THRESHOLD,
    ):
        if nranks < 1:
            raise ShmError(f"data plane needs nranks >= 1, got {nranks}")
        self.nranks = nranks
        self.nparties = nranks + 1
        self.threshold = max(int(threshold), 64)
        #: block header: one tag slot + one ack slot per party
        self._blk_hdr = _align(8 * (1 + self.nparties), 8)
        self._hdr_len = 2 + _PARTY_SLOTS * self.nparties     # int64 slots
        hdr_bytes = _align(8 * self._hdr_len)
        arena = _align(max(segment_bytes - hdr_bytes, 0) // self.nparties
                       - _ALIGN)
        if arena < 4 * self._blk_hdr:
            raise ShmError(
                f"segment_bytes={segment_bytes} leaves no room for "
                f"{self.nparties} arenas"
            )
        self._arena_bytes = arena
        self._grow_bytes = max(arena, 1 << 20)
        self.token = f"{os.getpid():x}-{next(_token_counter)}"
        self.prefix = f"repro-shm-{self.token}"
        self.primary = f"{self.prefix}-s0"
        total = hdr_bytes + self.nparties * self._arena_bytes
        shm = shared_memory.SharedMemory(
            name=self.primary, create=True, size=total)
        _untrack(self.primary)
        self._primary_seg = _Seg(shm, owned=True)
        self._primary_seg.i64[: self._hdr_len] = 0
        self._primary_seg.i64[0] = _MAGIC
        self._primary_seg.i64[1] = self.nparties
        self._hdr_bytes = hdr_bytes
        self._creator_pid = os.getpid()
        self._closed = False
        self._segments: Dict[str, _Seg] = {}
        self.attach(self.parent_party)
        # The segments are untracked, so only an unlinking close removes
        # them; an unclosed plane sweeps its prefix when it is collected
        # or its creator exits.
        self._finalizer = weakref.finalize(
            self, _release, self._segments, self.prefix, self._creator_pid)

    # --- identity ---------------------------------------------------------

    @property
    def parent_party(self) -> int:
        """Party id of the supervisor process."""
        return self.nranks

    @property
    def party(self) -> int:
        return self._party

    # --- per-process state ------------------------------------------------

    def attach(self, party: int) -> "ShmDataPlane":
        """(Re)initialise this *process's* view of the plane as ``party``.

        Called once per process after fork.  Resets all process-local
        allocator state — safe because a fork duplicates the parent's
        bookkeeping, which describes blocks this party does not own."""
        if not 0 <= party < self.nparties:
            raise ShmError(f"party {party} out of range 0..{self.nparties - 1}")
        self._party = party
        base = self._hdr_bytes + party * self._arena_bytes
        self._arenas: List[_Arena] = [
            _Arena(self.primary, base, self._arena_bytes)
        ]
        # Refilled in place: the creator's finalizer holds this dict.
        self._segments.clear()
        self._segments[self.primary] = self._primary_seg
        self._own_grown: List[str] = []
        self._grow_counter = 0
        self._tag_counter = 0
        #: blocks this party published and has not yet reclaimed:
        #: tag -> (segment, offset, size, consumers)
        self._outstanding: Dict[int, Tuple[str, int, int, Tuple[int, ...]]] = {}
        self.hwm_bytes = 0
        self.fallbacks = 0
        return self

    # --- allocation (owner side) -----------------------------------------

    def _hdr_slot(self, party: int, slot: int) -> int:
        return 2 + _PARTY_SLOTS * party + slot

    def _next_tag(self) -> int:
        # Owner-unique and never zero: party in the low bits, a local
        # monotonic counter above.  Zero marks a freed block.
        self._tag_counter += 1
        return self._tag_counter * self.nparties + self._party + 1

    def _alloc(self, need: int) -> Optional[Tuple[str, int]]:
        for arena in self._arenas:
            off = arena.alloc(need)
            if off is not None:
                return arena.segment, off
        return None

    def _grow(self, need: int) -> None:
        size = _align(max(self._grow_bytes, need + _ALIGN))
        self._grow_counter += 1
        name = f"{self.prefix}-p{self._party}-g{self._grow_counter}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        _untrack(name)
        self._segments[name] = _Seg(shm, owned=True)
        self._own_grown.append(name)
        self._arenas.append(_Arena(name, 0, size))

    def publish(self, data, consumers: Sequence[int]) -> Optional[ShmRef]:
        """Copy the contiguous buffer ``data`` into one block that each of
        ``consumers`` reads once; None when allocation fails (the caller
        keeps the bytes in its pickle stream instead)."""
        data = memoryview(data).cast("B")
        nbytes = data.nbytes
        consumers = tuple(sorted(set(consumers)))
        if not consumers:
            raise ShmError("publish needs at least one consumer")
        for c in consumers:
            if not 0 <= c < self.nparties or c == self._party:
                raise ShmError(f"bad consumer party {c}")
        need = _align(self._blk_hdr + nbytes)
        addr = self._alloc(need)
        if addr is None:
            self.reclaim()
            addr = self._alloc(need)
        if addr is None:
            try:
                self._grow(need)
            except Exception:
                return None     # host /dev/shm exhausted: fall back
            addr = self._alloc(need)
        if addr is None:  # pragma: no cover - grow sized to fit
            return None
        segname, off = addr
        seg = self._segments[segname]
        h = off // 8
        tag = self._next_tag()
        seg.i64[h + 1: h + 1 + self.nparties] = 0    # acks before tag
        seg.i64[h] = tag
        start = off + self._blk_hdr
        seg.buf[start: start + nbytes] = data
        self._outstanding[tag] = (segname, off, need, consumers)
        i64 = self._primary_seg.i64
        i64[self._hdr_slot(self._party, _SLOT_PUB_BLOCKS)] += 1
        i64[self._hdr_slot(self._party, _SLOT_PUB_BYTES)] += nbytes
        in_use = sum(a.in_use() for a in self._arenas)
        if in_use > self.hwm_bytes:
            self.hwm_bytes = in_use
            i64[self._hdr_slot(self._party, _SLOT_HWM)] = in_use
        return ShmRef(segment=segname, offset=off, nbytes=nbytes, tag=tag)

    def reclaim(self) -> Tuple[int, int]:
        """Free every outstanding block whose consumers have all acked.
        Returns ``(blocks, bytes)`` reclaimed."""
        blocks = freed = 0
        for tag, (segname, off, size, consumers) in list(
                self._outstanding.items()):
            seg = self._segments[segname]
            h = off // 8
            if all(seg.i64[h + 1 + c] for c in consumers):
                seg.i64[h] = 0      # kill the tag: stale refs now fail
                self._arena_for(segname).release(off, size)
                del self._outstanding[tag]
                blocks += 1
                freed += size
        return blocks, freed

    def _arena_for(self, segname: str) -> _Arena:
        for arena in self._arenas:
            if arena.segment == segname:
                return arena
        raise ShmError(f"no arena for segment {segname!r}")  # pragma: no cover

    # --- publish / read ---------------------------------------------------

    def _attach_seg(self, name: str) -> _Seg:
        seg = self._segments.get(name)
        if seg is None:
            try:
                shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                raise ShmError(
                    f"shm segment {name!r} is gone (reclaimed after a "
                    "crash or reset?)"
                ) from None
            _untrack(name)
            seg = _Seg(shm, owned=False)
            self._segments[name] = seg
        return seg

    def read(self, ref: ShmRef) -> bytearray:
        """Consume one block: verify the tag, copy the bytes out (into a
        writable buffer), set this party's ack slot.  Each party may read
        a ref exactly once."""
        seg = self._attach_seg(ref.segment)
        h = ref.offset // 8
        if int(seg.i64[h]) != ref.tag:
            raise ShmError(
                f"stale shm ref (tag {ref.tag} != block tag "
                f"{int(seg.i64[h])}): block was reclaimed or never published"
            )
        ack = h + 1 + self._party
        if seg.i64[ack]:
            raise ShmError(
                f"double consume: party {self._party} already read block "
                f"tag {ref.tag}"
            )
        start = ref.offset + self._blk_hdr
        out = bytearray(seg.buf[start: start + ref.nbytes])
        seg.i64[ack] = 1
        i64 = self._primary_seg.i64
        i64[self._hdr_slot(self._party, _SLOT_CON_BLOCKS)] += 1
        i64[self._hdr_slot(self._party, _SLOT_CON_BYTES)] += ref.nbytes
        return out

    # --- serializing ------------------------------------------------------

    def dumps(self, obj: Any, consumers: Sequence[int]) -> Any:
        """Pickle ``obj`` (protocol 5) for ``consumers``, publishing every
        out-of-band buffer of at least ``threshold`` bytes as a block.
        Returns a :class:`ShmPayload`, or bare pickle bytes when nothing
        was hoisted.  A buffer the plane cannot place stays in the stream
        and counts in :attr:`fallbacks`."""
        consumers = tuple(consumers)
        refs: List[ShmRef] = []

        def hoist(buf: pickle.PickleBuffer) -> bool:
            # pickle's contract: a true return keeps the buffer in-band
            raw = buf.raw()
            if raw.nbytes < self.threshold:
                return True
            ref = self.publish(raw, consumers)
            if ref is None:
                self.fallbacks += 1
                return True
            refs.append(ref)
            return False

        stream = pickle.dumps(obj, protocol=5, buffer_callback=hoist)
        return ShmPayload(stream, tuple(refs)) if refs else stream

    def loads(self, payload: Any) -> Any:
        """Inverse of :meth:`dumps`: read each hoisted block once and
        unpickle the stream against them."""
        if isinstance(payload, ShmPayload):
            return pickle.loads(payload.stream,
                                buffers=[self.read(r) for r in payload.refs])
        return pickle.loads(payload)

    # --- lifecycle --------------------------------------------------------

    def reset_party(self) -> int:
        """Job boundary (warm pool): drop every block this party still
        owns, rewind the primary arena, unlink own grown segments, and
        forget attachments to peers' grown segments (their owners are
        resetting too, so the names are about to disappear).  Returns the
        bytes reclaimed — the pool surfaces this as the per-rank
        ``shm_reclaimed_bytes`` counter."""
        reclaimed = 0
        for tag, (segname, off, size, _consumers) in self._outstanding.items():
            seg = self._segments.get(segname)
            if seg is not None and seg.i64 is not None:
                seg.i64[off // 8] = 0
            reclaimed += size
        self._outstanding.clear()
        primary_arena = self._arenas[0]
        primary_arena.bump = 0
        primary_arena.free.clear()
        for name, seg in list(self._segments.items()):
            if name == self.primary:
                continue
            seg.close(unlink=seg.owned)
            del self._segments[name]
        self._own_grown.clear()
        self._arenas = [primary_arena]
        return reclaimed

    def sweep_orphans(self) -> int:
        """Unlink every ``/dev/shm`` entry under this plane's prefix —
        grown segments of workers that crashed before cleaning up.  Call
        only after every worker process has been joined."""
        return _sweep_prefix(self.prefix)

    def close(self, unlink: bool = False) -> None:
        """Release this process's mappings; with ``unlink=True`` also
        remove every owned segment and sweep the prefix (creator only,
        after all workers are joined)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        self._outstanding.clear()
        for name, seg in list(self._segments.items()):
            own = seg.owned or (unlink
                                and os.getpid() == self._creator_pid
                                and name == self.primary)
            seg.close(unlink=unlink and own)
        self._segments.clear()
        self._arenas = []
        if unlink and os.getpid() == self._creator_pid:
            self.sweep_orphans()

    # --- introspection ----------------------------------------------------

    def header_stats(self) -> Dict[str, List[int]]:
        """Cross-process view of the lock-free header indices."""
        i64 = self._primary_seg.i64
        out: Dict[str, List[int]] = {
            "pub_blocks": [], "pub_bytes": [], "con_blocks": [],
            "con_bytes": [], "hwm_bytes": [],
        }
        for p in range(self.nparties):
            out["pub_blocks"].append(int(i64[self._hdr_slot(p, _SLOT_PUB_BLOCKS)]))
            out["pub_bytes"].append(int(i64[self._hdr_slot(p, _SLOT_PUB_BYTES)]))
            out["con_blocks"].append(int(i64[self._hdr_slot(p, _SLOT_CON_BLOCKS)]))
            out["con_bytes"].append(int(i64[self._hdr_slot(p, _SLOT_CON_BYTES)]))
            out["hwm_bytes"].append(int(i64[self._hdr_slot(p, _SLOT_HWM)]))
        return out

    def __repr__(self) -> str:
        return (f"ShmDataPlane({self.primary}, nranks={self.nranks}, "
                f"party={getattr(self, '_party', None)}, "
                f"threshold={self.threshold})")
