"""Whole-array distributions: one pattern per dimension (paper §2.2).

``ArrayDistribution`` binds a ``dist by [ ... ] on Procs`` clause: each
non-replicated dimension maps, in order, onto one dimension of the
processor array — the paper's rule that "the number of dimensions of an
array that are distributed must match the number of dimensions of the
underlying processor array".  Replicated (``*``) dimensions consume no
processor dimension.

All index translation is vectorised over NumPy arrays of indices; for
multi-dimensional arrays indices are tuples of per-dimension arrays (as
produced by ``np.unravel_index``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.distributions.base import DimDistribution, IndexLike
from repro.distributions.procs import ProcessorArray
from repro.distributions.replicated import Replicated
from repro.errors import DistributionError

MultiIndex = Union[Tuple[IndexLike, ...], IndexLike]


class ArrayDistribution:
    """A distributed layout of an array of ``shape`` on ``procs``."""

    def __init__(
        self,
        shape: Sequence[int],
        dists: Sequence[DimDistribution],
        procs: ProcessorArray,
    ):
        if isinstance(shape, int):
            shape = (shape,)
        shape = tuple(int(s) for s in shape)
        if len(dists) != len(shape):
            raise DistributionError(
                f"{len(shape)}-d array needs {len(shape)} distribution patterns, "
                f"got {len(dists)}"
            )
        distributed = [d for d in dists if not isinstance(d, Replicated)]
        if distributed and len(distributed) != procs.ndim:
            raise DistributionError(
                f"{len(distributed)} distributed dimensions must match the "
                f"{procs.ndim}-d processor array (paper §2.2)"
            )
        self.shape = shape
        self.procs = procs
        self.ndim = len(shape)
        self.size = int(np.prod(shape)) if shape else 1

        self.dims: List[DimDistribution] = []
        #: processor-array dimension index fed by each array dimension
        #: (None for replicated dimensions)
        self.proc_dim_of: List[Optional[int]] = []
        next_proc_dim = 0
        for extent, spec in zip(shape, dists):
            if isinstance(spec, Replicated):
                self.dims.append(spec.bind(extent, 1))
                self.proc_dim_of.append(None)
            else:
                self.dims.append(spec.bind(extent, procs.extent(next_proc_dim)))
                self.proc_dim_of.append(next_proc_dim)
                next_proc_dim += 1
        self.fully_replicated = not distributed

    # --- helpers ---------------------------------------------------------

    def _as_tuple(self, index: MultiIndex) -> Tuple[np.ndarray, ...]:
        if isinstance(index, tuple):
            if len(index) != self.ndim:
                raise DistributionError(
                    f"expected {self.ndim} index components, got {len(index)}"
                )
            return tuple(np.asarray(c) for c in index)
        if self.ndim != 1:
            raise DistributionError(
                f"{self.ndim}-d array indexed with a single component"
            )
        return (np.asarray(index),)

    # --- ownership ---------------------------------------------------------

    def owner(self, index: MultiIndex) -> IndexLike:
        """Rank owning the element at ``index`` (vectorised).

        Fully replicated arrays report rank 0 as canonical owner.
        """
        comps = self._as_tuple(index)
        scalar = all(c.ndim == 0 for c in comps)
        rank = np.zeros(np.broadcast(*comps).shape, dtype=np.int64)
        for comp, dim, pdim in zip(comps, self.dims, self.proc_dim_of):
            if pdim is None:
                continue
            rank = rank * self.procs.extent(pdim) + dim.owner(np.asarray(comp))
        return int(rank) if scalar else rank

    # --- local storage ----------------------------------------------------------

    def local_shape(self, rank: int) -> Tuple[int, ...]:
        """Shape of the block of elements ``rank`` stores."""
        coords = self.procs.coords_of(rank)
        out = []
        for dim, pdim in zip(self.dims, self.proc_dim_of):
            p = 0 if pdim is None else coords[pdim]
            out.append(dim.local_count(p))
        return tuple(out)

    def local_count(self, rank: int) -> int:
        n = 1
        for c in self.local_shape(rank):
            n *= c
        return n

    def to_local(self, index: MultiIndex) -> Tuple[np.ndarray, ...]:
        """Per-dimension local offsets of global ``index`` on its owner."""
        comps = self._as_tuple(index)
        return tuple(dim.to_local(np.asarray(c)) for c, dim in zip(comps, self.dims))

    def global_indices_of(self, rank: int) -> np.ndarray:
        """All flattened global indices stored on ``rank`` (sorted)."""
        coords = self.procs.coords_of(rank)
        per_dim = []
        for dim, pdim in zip(self.dims, self.proc_dim_of):
            p = 0 if pdim is None else coords[pdim]
            per_dim.append(dim.local_indices(p))
        if self.ndim == 1:
            return per_dim[0]
        grids = np.meshgrid(*per_dim, indexing="ij")
        flat = np.ravel_multi_index([g.ravel() for g in grids], self.shape)
        return np.sort(flat.astype(np.int64))

    def describe(self) -> str:
        parts = []
        for dim in self.dims:
            if dim.kind == "block_cyclic":
                parts.append(f"block_cyclic({dim.block_size})")
            else:
                parts.append(dim.kind)
        return f"dist by [{', '.join(parts)}] on {self.procs!r}"

    def __repr__(self) -> str:
        return f"ArrayDistribution(shape={self.shape}, {self.describe()})"
