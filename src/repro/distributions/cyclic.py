"""Cyclic distribution (paper §2.2).

Deals elements round-robin::

    local_B(p) = { i : i ≡ p (mod P) }

(the paper's example: with P = 10, processor 0 stores rows 0, 10, 20, …
in 0-based terms).  Local storage is packed: global ``i`` lives at local
offset ``i // P`` on processor ``i % P``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.distributions.base import DimDistribution, IndexLike
from repro.util.sections import Section


class Cyclic(DimDistribution):
    kind = "cyclic"

    def _clone(self) -> "Cyclic":
        return Cyclic()

    def owner(self, index: IndexLike) -> IndexLike:
        self._require_bound()
        arr = self._check_index(index)
        own = arr % self.nprocs
        return own if isinstance(index, np.ndarray) else int(own)

    def to_local(self, index: IndexLike) -> IndexLike:
        self._require_bound()
        arr = self._check_index(index)
        loc = arr // self.nprocs
        return loc if isinstance(index, np.ndarray) else int(loc)

    def _locate(self, arr: np.ndarray):
        offsets = arr // self.nprocs
        return arr - offsets * self.nprocs, offsets

    def to_global(self, proc: int, offset: IndexLike) -> IndexLike:
        self._require_bound()
        out = np.asarray(offset) * self.nprocs + proc
        return out if isinstance(offset, np.ndarray) else int(out)

    def local_count(self, proc: int) -> int:
        self._require_bound()
        full, rem = divmod(self.extent, self.nprocs)
        return full + (1 if proc < rem else 0)

    def local_indices(self, proc: int) -> np.ndarray:
        self._require_bound()
        return np.arange(proc, self.extent, self.nprocs, dtype=np.int64)

    def analysis_sections(self, proc: int) -> List[Section]:
        self._require_bound()
        return [Section(proc, self.extent - 1, self.nprocs)]

    def supports_closed_form(self) -> bool:
        return True
