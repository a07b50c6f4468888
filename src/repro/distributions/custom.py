"""User-defined distributions (paper §2.2: "provides a mechanism for
user-defined distributions").

A :class:`Custom` distribution is given the full owner map explicitly —
one processor id per global index — e.g. the output of a mesh partitioner
(see :mod:`repro.meshes.partition`).  Local storage packs a processor's
elements in ascending global order; binding builds the per-processor
index lists and the inverse ``global index → local offset`` table once,
so every later translation is a single table lookup.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distributions.base import DimDistribution, IndexLike
from repro.errors import DistributionError


class Custom(DimDistribution):
    kind = "custom"

    def __init__(self, owner_map: Sequence[int]):
        super().__init__()
        self._map = np.asarray(owner_map, dtype=np.int64)
        if self._map.ndim != 1:
            raise DistributionError("owner_map must be one-dimensional")
        self._locals = None  # per-proc sorted global indices, built on bind
        self._offsets = None  # global index -> offset on its owner, ditto

    def _clone(self) -> "Custom":
        return Custom(self._map)

    def _layout_params(self) -> tuple:
        return (self._map.tobytes(),)

    def _validate(self) -> None:
        if self.extent != self._map.size:
            raise DistributionError(
                f"owner_map has {self._map.size} entries but dimension extent "
                f"is {self.extent}"
            )
        if self._map.size and (
            (self._map < 0).any() or (self._map >= self.nprocs).any()
        ):
            raise DistributionError("owner_map names a processor outside the grid")
        # A stable sort by owner lists each processor's indices in
        # ascending global order, back to back.
        order = np.argsort(self._map, kind="stable")
        counts = np.bincount(self._map, minlength=self.nprocs)
        starts = np.cumsum(counts) - counts
        self._locals = np.split(order, starts[1:])
        self._offsets = np.empty(self.extent, dtype=np.int64)
        self._offsets[order] = np.arange(self.extent) - np.repeat(starts, counts)

    def owner(self, index: IndexLike) -> IndexLike:
        self._require_bound()
        arr = self._check_index(index)
        own = self._map[arr]
        return own if isinstance(index, np.ndarray) else int(own)

    def to_local(self, index: IndexLike) -> IndexLike:
        self._require_bound()
        out = self._offsets[self._check_index(index)]
        return out if out.ndim else int(out)

    def _locate(self, arr: np.ndarray):
        return self._map[arr], self._offsets[arr]

    def to_global(self, proc: int, offset: IndexLike) -> IndexLike:
        self._require_bound()
        mine = self._locals[proc]
        out = mine[np.asarray(offset)]
        return out if isinstance(offset, np.ndarray) else int(out)

    def local_count(self, proc: int) -> int:
        self._require_bound()
        return int(self._locals[proc].size)

    def local_indices(self, proc: int) -> np.ndarray:
        self._require_bound()
        return self._locals[proc]
