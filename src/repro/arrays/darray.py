"""Driver-side distributed arrays.

The simulation runs in one host process, so a :class:`DistributedArray`
keeps a *global* backing NumPy array for initialisation and verification;
``scatter`` cuts per-rank local pieces when an SPMD program launches and
``gather_from`` writes back the pieces that changed afterwards.  On a real
machine the global copy would not exist — nothing in the runtime reads it
during simulated execution (ranks only touch their
:class:`~repro.arrays.localview.LocalArray` pieces), which tests assert.

Arrays carry a *version* counter, bumped on every global write.  The
schedule cache (paper §3.2: "computing the exec(p) and ref(p) sets only
the first time they are needed and saving them for later loop executions")
keys on the versions of the arrays a loop's communication pattern depends
on, so mutating an indirection array (e.g. the mesh adjacency) correctly
invalidates saved schedules.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arrays.localview import LocalArray
from repro.distributions.base import DimDistribution
from repro.distributions.multidim import ArrayDistribution
from repro.distributions.procs import ProcessorArray
from repro.errors import DistributionError

#: SHA-256 digests of frozen source arrays, by ``id``: ``(weakref,
#: digest)``, dropped when the array dies (see ``_source_digest``)
_SOURCE_DIGESTS: Dict[int, Tuple[weakref.ref, str]] = {}

#: SHA-256 digests of all-zero contents, by ``(dtype, shape)``: what a
#: never-written array holds (see ``content_fingerprint``)
_ZERO_DIGESTS: Dict[Tuple[np.dtype, tuple], str] = {}


def _adoptable(values: np.ndarray) -> bool:
    """Whether a :meth:`DistributedArray.set` source can lend its digest:
    frozen, owning its memory (no writable base or sibling view can
    change it), and C-contiguous (its buffer is the bytes that are
    hashed).  Such an array is taken to stay as it is — ``MeshArrays``
    freezes its arrays on that promise."""
    flags = values.flags
    return not flags.writeable and flags.owndata and flags.c_contiguous


def _source_digest(src: np.ndarray) -> str:
    """The SHA-256 of a frozen source's bytes, hashed once per process."""
    key = id(src)
    entry = _SOURCE_DIGESTS.get(key)
    if entry is not None and entry[0]() is src:
        return entry[1]
    digest = hashlib.sha256(np.ascontiguousarray(src)).hexdigest()
    forget = weakref.ref(src, lambda _ref: _SOURCE_DIGESTS.pop(key, None))
    _SOURCE_DIGESTS[key] = (forget, digest)
    return digest


class DistributedArray:
    """A globally-indexed array with a distribution clause.

    Parameters
    ----------
    name:
        Identifier used in diagnostics and schedule-cache keys.
    shape:
        Global shape.
    dists:
        One :class:`DimDistribution` per dimension (``Replicated()`` for
        ``*``).
    procs:
        The processor array of the ``on`` clause.
    dtype:
        NumPy dtype (default ``float64``).
    """

    #: (version, weakref) of the frozen array :meth:`set` last copied
    #: in (see :meth:`content_fingerprint`); never pickled
    _source: Optional[tuple] = None

    #: ``(dist, {rank: piece index})``: :meth:`_piece_index` under the
    #: distribution it was computed for, dropped once ``dist`` is another
    #: (:meth:`gather_from` adopting a new layout, a learned layout
    #: applied before scatter); never pickled
    _pieces: Optional[tuple] = None

    def __init__(
        self,
        name: str,
        shape: Union[int, Sequence[int]],
        dists: Sequence[DimDistribution],
        procs: ProcessorArray,
        dtype=np.float64,
    ):
        self.name = name
        self.dist = ArrayDistribution(shape, dists, procs)
        self.shape = self.dist.shape
        self.dtype = np.dtype(dtype)
        self._data = np.zeros(self.shape, dtype=self.dtype)
        self._version = 0
        self._fingerprint: Optional[tuple] = None  # (version, sha256 hex)

    # --- global access (driver side) ---------------------------------------

    @property
    def version(self) -> int:
        return self._version

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the global backing array."""
        view = self._data.view()
        view.flags.writeable = False
        return view

    def set(self, values: np.ndarray) -> None:
        """Replace the global contents (bumps the version)."""
        values = np.asarray(values, dtype=self.dtype)
        if values.shape != self.shape:
            raise DistributionError(
                f"{self.name}: cannot assign shape {values.shape} to {self.shape}"
            )
        self._data[...] = values
        self._version += 1
        if _adoptable(values):
            self._source = (self._version, weakref.ref(values))

    def __getitem__(self, key):
        return self._data[key]

    def __setitem__(self, key, value):
        self._data[key] = value
        self._version += 1

    # --- scatter / gather -------------------------------------------------------

    def content_fingerprint(self) -> str:
        """SHA-256 of the *global* content (cached per version).

        The driver computes it before a run that needs it — to ship the
        contents to a warm pool by digest, or for a disk tier — and the
        memo travels with the array, so :meth:`scatter` stamps it onto
        every piece (``content_tag``) and no rank hashes anything.
        Content-addressed schedule keys thereby hash what schedules
        depend on — the whole array, identically on every rank — rather
        than the rank's local piece.

        Contents last :meth:`set` from a frozen, self-owning, C-contiguous
        array (``MeshArrays``' arrays, say) take that array's digest from
        a per-process memo, so a driver that builds many contexts over one
        mesh hashes it once.  So do never-written (version 0, all-zero)
        contents, whose digest depends only on the dtype and shape.
        """
        if self._fingerprint is None or self._fingerprint[0] != self._version:
            source = self._source
            src = (source[1]() if source is not None
                   and source[0] == self._version else None)
            zeros = (self.dtype, self.shape)
            if src is not None and not src.flags.writeable:
                digest = _source_digest(src)
            elif self._version == 0 and zeros in _ZERO_DIGESTS:
                digest = _ZERO_DIGESTS[zeros]
            else:
                # hashlib reads a C-contiguous buffer in place: the
                # digest of ``tobytes()`` without the copy.
                digest = hashlib.sha256(
                    np.ascontiguousarray(self._data)
                ).hexdigest()
                if self._version == 0:
                    _ZERO_DIGESTS[zeros] = digest
            self._fingerprint = (self._version, digest)
        return self._fingerprint[1]

    def __getstate__(self):
        """A weak reference does not pickle (pool shipping pickles the
        array), and the digest it leads to travels as ``_fingerprint``."""
        state = dict(self.__dict__)
        state.pop("_source", None)
        state.pop("_pieces", None)
        return state

    def __resident__(self):
        """Pool shipping protocol (:mod:`repro.serve.shipping`): the
        global contents and their digest.  Ranks that already hold the
        contents receive only the digest."""
        return self.content_fingerprint(), self._data

    def _piece_index(self, rank: int):
        """Index of ``rank``'s piece in the global array: basic slices
        when every axis is one contiguous run, an open mesh otherwise.
        A function of (``dist``, rank) alone, so computed once per pair."""
        memo = self._pieces
        if memo is None or memo[0] is not self.dist:
            memo = self._pieces = (self.dist, {})
        pieces = memo[1]
        index = pieces.get(rank)
        if index is None:
            dist = self.dist
            coords = dist.procs.coords_of(rank)
            axes = [dim.local_indices(0 if pdim is None else coords[pdim])
                    for dim, pdim in zip(dist.dims, dist.proc_dim_of)]
            if all(a.size and a[-1] - a[0] + 1 == a.size for a in axes):
                index = tuple(slice(int(a[0]), int(a[-1]) + 1) for a in axes)
            else:
                index = np.ix_(*axes)
            pieces[rank] = index
        return index

    def scatter(self, rank: int) -> LocalArray:
        """Cut the local piece for ``rank`` (a copy — ranks own their
        data), stamped with the content fingerprint if the driver has
        computed it for this version."""
        index = self._piece_index(rank)
        piece = self._data[index]
        if isinstance(index[0], slice):   # a view; fancy indexing copied
            piece = piece.copy()
        memo = self._fingerprint
        tag = memo[1] if memo is not None and memo[0] == self._version else None
        return LocalArray(self.name, rank, self.dist, piece,
                          version=self._version, content_tag=tag)

    def scatter_all(self) -> List[LocalArray]:
        return [self.scatter(r) for r in range(self.dist.procs.size)]

    def piece_changed(self, local: LocalArray) -> bool:
        """False only while ``local`` holds, under this array's
        distribution, exactly the bytes :meth:`scatter` cut for its rank —
        the one case in which it need not come home."""
        if local.dist is not self.dist:
            return True
        before = self._data[self._piece_index(local.rank)]
        after = local.data
        if before.shape != after.shape or before.dtype != after.dtype:
            return True
        size = before.dtype.itemsize
        if size not in (1, 2, 4, 8):
            return before.tobytes() != after.tobytes()
        bits = np.dtype(f"u{size}")   # -0.0 and NaN payloads count
        return not np.array_equal(before.view(bits), after.view(bits))

    def gather_from(self, locals_: Sequence[Optional[LocalArray]]) -> None:
        """Write per-rank pieces back into the global array (driver side).

        ``None`` stands for a piece that did not change; when every piece
        is None the array, and its version, stay as they were.  If the
        program redistributed the array, every piece comes home with the
        new layout and the driver adopts it so subsequent scatters match.
        """
        dist = self.dist
        if len(locals_) != dist.procs.size:
            raise DistributionError(
                f"{self.name}: need {dist.procs.size} local pieces, got {len(locals_)}"
            )
        present = [la for la in locals_ if la is not None]
        if not present:
            return
        if len(present) == len(locals_) and present[0].dist is not dist:
            self.dist = dist = present[0].dist
        if dist.fully_replicated:
            # All copies are identical by construction; take the first.
            self._data[...] = present[0].data
            self._version += 1
            return
        for rank, la in enumerate(locals_):
            if la is None:
                continue
            if la.rank != rank:
                raise DistributionError(f"{self.name}: local pieces out of order")
            self._data[self._piece_index(rank)] = la.data
        self._version += 1

    # --- conveniences ------------------------------------------------------------

    @property
    def procs(self) -> ProcessorArray:
        return self.dist.procs

    def owner(self, index) -> int:
        return self.dist.owner(index)

    def __repr__(self) -> str:
        return (
            f"DistributedArray({self.name!r}, shape={self.shape}, "
            f"{self.dist.describe()}, dtype={self.dtype})"
        )
