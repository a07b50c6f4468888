"""Block distribution (paper §2.2).

Assigns a contiguous block of array elements to each processor::

    local_A(p) = { i : ceil(N/P)*p <= i < ceil(N/P)*(p+1) }

matching the paper's definition with 0-based indices: block size is
``ceil(N/P)``, so the last processor may hold a short (possibly empty)
block.  This is the distribution used throughout the paper's evaluation.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.distributions.base import DimDistribution, IndexLike
from repro.util.sections import Section


class Block(DimDistribution):
    kind = "block"

    def _clone(self) -> "Block":
        return Block()

    # Block size: ceil(extent / nprocs); degenerate extent=0 gives size 0.
    @property
    def block_size(self) -> int:
        self._require_bound()
        if self.extent == 0:
            return 0
        return -(-self.extent // self.nprocs)

    def owner(self, index: IndexLike) -> IndexLike:
        self._require_bound()
        arr = self._check_index(index)
        own = arr // self.block_size
        return own if isinstance(index, np.ndarray) else int(own)

    def to_local(self, index: IndexLike) -> IndexLike:
        self._require_bound()
        arr = self._check_index(index)
        loc = arr % self.block_size
        return loc if isinstance(index, np.ndarray) else int(loc)

    def _locate(self, arr: np.ndarray):
        size = self.block_size
        owners = arr // size
        return owners, arr - owners * size

    def to_global(self, proc: int, offset: IndexLike) -> IndexLike:
        self._require_bound()
        base = proc * self.block_size
        out = np.asarray(offset) + base
        return out if isinstance(offset, np.ndarray) else int(out)

    def _bounds(self, proc: int):
        b = self.block_size
        lo = proc * b
        hi = min(lo + b, self.extent)
        return lo, hi

    def local_count(self, proc: int) -> int:
        self._require_bound()
        lo, hi = self._bounds(proc)
        return max(0, hi - lo)

    def local_indices(self, proc: int) -> np.ndarray:
        self._require_bound()
        lo, hi = self._bounds(proc)
        return np.arange(lo, max(lo, hi), dtype=np.int64)

    def analysis_sections(self, proc: int) -> List[Section]:
        self._require_bound()
        lo, hi = self._bounds(proc)
        return [Section(lo, hi - 1)]

    def supports_closed_form(self) -> bool:
        return True
