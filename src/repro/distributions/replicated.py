"""Replicated ("*") dimension (paper §2.2).

An asterisk in a ``dist`` clause marks a dimension that is *not*
distributed: every processor stores the full extent.  The paper's example
``B : array[1..N, 1..M] dist by [cyclic, *]`` distributes rows cyclically
and replicates each row's columns.

Replication deliberately breaks the disjointness convention (every
processor "owns" every index for storage purposes); for ownership queries
the canonical owner is processor 0 of the (non-existent) mapped dimension,
which keeps on-clause resolution well-defined if a user aligns a loop with
a replicated dimension.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.distributions.base import DimDistribution, IndexLike
from repro.util.sections import Section


class Replicated(DimDistribution):
    kind = "*"

    def _clone(self) -> "Replicated":
        return Replicated()

    def owner(self, index: IndexLike) -> IndexLike:
        self._require_bound()
        arr = self._check_index(index)
        own = np.zeros_like(np.asarray(arr))
        return own if isinstance(index, np.ndarray) else 0

    def to_local(self, index: IndexLike) -> IndexLike:
        self._require_bound()
        arr = self._check_index(index)
        return arr if isinstance(index, np.ndarray) else int(arr)

    def _locate(self, arr: np.ndarray):
        return np.zeros_like(arr), arr

    def to_global(self, proc: int, offset: IndexLike) -> IndexLike:
        self._require_bound()
        out = np.asarray(offset)
        return out if isinstance(offset, np.ndarray) else int(out)

    def local_count(self, proc: int) -> int:
        self._require_bound()
        return self.extent

    def local_indices(self, proc: int) -> np.ndarray:
        self._require_bound()
        return np.arange(self.extent, dtype=np.int64)

    def analysis_sections(self, proc: int) -> List[Section]:
        self._require_bound()
        return [Section(0, self.extent - 1)]

    def supports_closed_form(self) -> bool:
        return True

    def check_disjoint_cover(self) -> None:
        """Replicated dims store one copy per process by design; the
        disjointness convention does not apply."""
