"""Rank-side piece of a distributed array.

A :class:`LocalArray` owns the elements its rank stores plus the
distribution metadata needed to translate global indices.  This is the
only array object the generated SPMD code touches — the executor reads
and writes local storage by *local* offsets, and resolves nonlocal global
indices through the communication schedule's translation table, never
through the driver's global copy.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.distributions.multidim import ArrayDistribution
from repro.errors import DistributionError


class LocalArray:
    """The local piece of ``name`` on ``rank``.

    For a 1-d distributed dimension the local data is packed in ascending
    global order (offset ``k`` holds the rank's ``k``-th smallest global
    index), matching every :class:`DimDistribution.to_local`.  For 2-d
    arrays the first axis is the distributed dimension and trailing axes
    are replicated, as in the paper's Figure 4 (``adj``, ``coef``).
    """

    __slots__ = ("name", "rank", "dist", "data", "version", "dist_version",
                 "content_tag", "_global_rows")

    #: shm data-plane hoist protocol (repro.machine.shm): the local
    #: payload may cross process boundaries as a shared-memory block;
    #: everything else is small metadata that stays in the pickle.
    __shm_fields__ = ("data",)

    def __init__(
        self,
        name: str,
        rank: int,
        dist: ArrayDistribution,
        data: np.ndarray,
        version: int = 0,
        dist_version: int = 0,
        content_tag: Optional[str] = None,
    ):
        self.name = name
        self.rank = rank
        self.dist = dist
        self.data = data
        self.version = version
        #: bumped whenever the distribution changes (redistribute); cached
        #: schedules referencing this array become invalid.
        self.dist_version = dist_version
        #: fingerprint of the **global** array content at scatter time.
        #: Schedules are collective, so content-addressed cache keys must
        #: hash global content — hashing only the local piece would let
        #: ranks disagree about a hit and diverge.  Stamped only by a
        #: context with a disk tier, its one reader; None otherwise (and
        #: after a redistribute), which disables the disk tier.
        self.content_tag = content_tag
        self._global_rows: Optional[np.ndarray] = None

    # --- index translation -------------------------------------------------

    @property
    def global_rows(self) -> np.ndarray:
        """Sorted global indices (along the first/distributed axis) held here."""
        if self._global_rows is None:
            dim = self.dist.dims[0]
            pdim = self.dist.proc_dim_of[0]
            coords = self.dist.procs.coords_of(self.rank)
            p = 0 if pdim is None else coords[pdim]
            self._global_rows = dim.local_indices(p)
        return self._global_rows

    def n_local(self) -> int:
        """Number of rows of the distributed dimension stored here."""
        return int(self.data.shape[0])

    def owns(self, global_index) -> np.ndarray:
        """Vectorised membership test along the distributed dimension."""
        dim = self.dist.dims[0]
        pdim = self.dist.proc_dim_of[0]
        coords = self.dist.procs.coords_of(self.rank)
        p = 0 if pdim is None else coords[pdim]
        return np.asarray(dim.owner(np.asarray(global_index))) == p

    def to_local_rows(self, global_index) -> np.ndarray:
        """Local row offsets for global first-axis indices (must be owned)."""
        dim = self.dist.dims[0]
        return np.asarray(dim.to_local(np.asarray(global_index)))

    # --- element access (global first-axis index) ----------------------------------

    def get_rows(self, global_index) -> np.ndarray:
        """Rows at the given owned global indices."""
        return self.data[self.to_local_rows(global_index)]

    def set_rows(self, global_index, values) -> None:
        self.data[self.to_local_rows(global_index)] = values

    def copy(self) -> "LocalArray":
        return LocalArray(self.name, self.rank, self.dist, self.data.copy(),
                          self.version, self.dist_version, self.content_tag)

    def nbytes_rows(self, nrows: int) -> int:
        """Wire size of ``nrows`` rows (for message cost accounting)."""
        row_elems = int(np.prod(self.data.shape[1:])) if self.data.ndim > 1 else 1
        return int(nrows * row_elems * self.data.dtype.itemsize)

    def __repr__(self) -> str:
        return (
            f"LocalArray({self.name!r}, rank={self.rank}, "
            f"local_shape={self.data.shape})"
        )
