"""Driver-side distributed arrays.

The simulation runs in one host process, so a :class:`DistributedArray`
keeps a *global* backing NumPy array for initialisation and verification;
``scatter`` cuts per-rank local pieces when an SPMD program launches and
``gather_from`` reassembles them afterwards.  On a real machine the global
copy would not exist — nothing in the runtime reads it during simulated
execution (ranks only touch their :class:`~repro.arrays.localview.LocalArray`
pieces), which tests assert.

Arrays carry a *version* counter, bumped on every global write.  The
schedule cache (paper §3.2: "computing the exec(p) and ref(p) sets only
the first time they are needed and saving them for later loop executions")
keys on the versions of the arrays a loop's communication pattern depends
on, so mutating an indirection array (e.g. the mesh adjacency) correctly
invalidates saved schedules.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.arrays.localview import LocalArray
from repro.distributions.base import DimDistribution
from repro.distributions.multidim import ArrayDistribution
from repro.distributions.procs import ProcessorArray
from repro.errors import DistributionError


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

    def __getitem__(self, key):
        return self._data[key]

    def __setitem__(self, key, value):
        self._data[key] = value
        self._version += 1

    # --- scatter / gather -------------------------------------------------------

    def content_fingerprint(self) -> str:
        """SHA-256 of the *global* content (cached per version).

        A context with a disk tier stamps it onto every scattered
        :class:`LocalArray` (``content_tag``), so content-addressed
        schedule keys hash what schedules actually depend on — the whole
        array, identically on every rank — rather than the rank's local
        piece.
        """
        if self._fingerprint is None or self._fingerprint[0] != self._version:
            digest = hashlib.sha256(
                np.ascontiguousarray(self._data).tobytes()
            ).hexdigest()
            self._fingerprint = (self._version, digest)
        return self._fingerprint[1]

    def scatter(self, rank: int) -> LocalArray:
        """Cut the local piece for ``rank`` (a copy — ranks own their data).
        The piece carries no ``content_tag``; only the disk tier reads one."""
        dist = self.dist
        if dist.ndim == 1:
            idx = dist.global_indices_of(rank)
            local = self._data[idx].copy()
        else:
            coords = dist.procs.coords_of(rank)
            slicers = []
            for dim, pdim in zip(dist.dims, dist.proc_dim_of):
                p = 0 if pdim is None else coords[pdim]
                slicers.append(dim.local_indices(p))
            local = self._data[np.ix_(*slicers)].copy()
        return LocalArray(self.name, rank, dist, local, version=self._version)

    def scatter_all(self) -> List[LocalArray]:
        return [self.scatter(r) for r in range(self.dist.procs.size)]

    def gather_from(self, locals_: Sequence[LocalArray]) -> None:
        """Reassemble the global array from per-rank pieces (driver side).

        If the program redistributed the array, the pieces carry the new
        layout; the driver adopts it so subsequent scatters match.
        """
        if locals_ and locals_[0].dist is not self.dist:
            self.dist = locals_[0].dist
        dist = self.dist
        if len(locals_) != dist.procs.size:
            raise DistributionError(
                f"{self.name}: need {dist.procs.size} local pieces, got {len(locals_)}"
            )
        if dist.fully_replicated:
            # All copies are identical by construction; take rank 0's.
            self._data[...] = locals_[0].data
            self._version += 1
            return
        for rank, la in enumerate(locals_):
            if la.rank != rank:
                raise DistributionError(f"{self.name}: local pieces out of order")
            if dist.ndim == 1:
                idx = dist.global_indices_of(rank)
                self._data[idx] = la.data
            else:
                coords = dist.procs.coords_of(rank)
                slicers = []
                for dim, pdim in zip(dist.dims, dist.proc_dim_of):
                    p = 0 if pdim is None else coords[pdim]
                    slicers.append(dim.local_indices(p))
                self._data[np.ix_(*slicers)] = la.data
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
