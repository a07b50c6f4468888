"""Distribution interface for a single array dimension.

A dimension distribution realises the paper's ``local`` function restricted
to one axis: it answers *who owns global index i* (``owner``), *what does
processor p hold* (``local_indices``), and translates between global
indices and local storage offsets.  All index-mapping methods accept NumPy
arrays and apply element-wise — the inspector relies on vectorised owner
lookups (guide: avoid per-element Python loops).

Closed-form analysis (§3.2) asks a distribution exactly two more things:
``local(p)`` as strided sections (``analysis_sections``) and whether to
use them (``supports_closed_form``).  A distribution with no section form
answers ``None`` / ``False``.

Distributions are created unbound (``Block()``) as in a Kali ``dist``
clause, then bound to a concrete ``(extent, nprocs)`` pair when the data
array is created.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import DistributionError
from repro.util.sections import Section

IndexLike = Union[int, np.ndarray]


class DimDistribution:
    """Abstract distribution of one data dimension over one proc dimension."""

    #: short Kali-style name ("block", "cyclic", ...), set by subclasses
    kind: str = "?"

    def __init__(self):
        self.extent: Optional[int] = None
        self.nprocs: Optional[int] = None

    # --- binding --------------------------------------------------------

    def bind(self, extent: int, nprocs: int) -> "DimDistribution":
        """Return a copy bound to ``extent`` data elements on ``nprocs`` procs."""
        extent, nprocs = int(extent), int(nprocs)
        if extent < 0:
            raise DistributionError(f"negative extent {extent}")
        if nprocs < 1:
            raise DistributionError(f"need >= 1 processor, got {nprocs}")
        clone = self._clone()
        clone.extent = extent
        clone.nprocs = nprocs
        clone._validate()
        return clone

    def _clone(self) -> "DimDistribution":
        raise NotImplementedError

    def _validate(self) -> None:
        """Hook for subclass checks after binding."""

    @property
    def bound(self) -> bool:
        return self.extent is not None

    def _require_bound(self) -> None:
        if not self.bound:
            raise DistributionError(f"{self!r} is not bound to an array yet")

    def _check_index(self, index: IndexLike) -> np.ndarray:
        arr = np.asarray(index)
        if arr.size and ((arr < 0).any() or (arr >= self.extent).any()):
            bad = arr[(arr < 0) | (arr >= self.extent)]
            raise DistributionError(
                f"index {bad.flat[0]} outside dimension of extent {self.extent}"
            )
        return arr

    # --- the local() function and friends -------------------------------------

    def owner(self, index: IndexLike) -> IndexLike:
        """Processor (coordinate along this proc dimension) owning ``index``."""
        raise NotImplementedError

    def to_local(self, index: IndexLike) -> IndexLike:
        """Storage offset of ``index`` on its owner."""
        raise NotImplementedError

    def locate(self, index: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(owner(index), to_local(index))`` of an index array from one
        bounds check and one pass — what the inspector records for every
        reference it classifies."""
        self._require_bound()
        return self._locate(self._check_index(index))

    def _locate(self, arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Subclass hook: owners and offsets of bounds-checked indices."""
        return np.asarray(self.owner(arr)), np.asarray(self.to_local(arr))

    def to_global(self, proc: int, offset: IndexLike) -> IndexLike:
        """Global index of local ``offset`` on processor ``proc``."""
        raise NotImplementedError

    def local_count(self, proc: int) -> int:
        """Number of elements processor ``proc`` stores."""
        raise NotImplementedError

    def local_indices(self, proc: int) -> np.ndarray:
        """Sorted global indices stored on ``proc``."""
        raise NotImplementedError

    # --- infrastructure ------------------------------------------------------

    def same_layout(self, other: "DimDistribution") -> bool:
        """True when two bound distributions place every index identically.

        Used by the static-locality optimisation: a reference ``B[f(i)]``
        in a loop ``on A[f(i)].loc`` is local by construction when A and B
        share a layout — the compiler need not check it at run time.
        """
        if type(self) is not type(other):
            return False
        if self.extent != other.extent or self.nprocs != other.nprocs:
            return False
        return self._layout_params() == other._layout_params()

    def _layout_params(self) -> tuple:
        """Subclass hook: extra parameters that affect placement."""
        return ()

    def analysis_sections(self, proc: int) -> Optional[List[Section]]:
        """``local(p)`` as a list of disjoint strided sections for
        closed-form analysis, or None when no such decomposition exists."""
        return None

    def supports_closed_form(self) -> bool:
        """True when compile-time analysis should be attempted: the
        ``analysis_sections`` exist and are few enough that evaluating the
        closed forms is cheaper than running the inspector (the §3.2
        compile-time/run-time judgement call)."""
        return False

    def check_disjoint_cover(self) -> None:
        """Verify the paper's §2.2 convention: the ``local(p)`` sets are
        pairwise disjoint and cover the whole dimension.  O(extent); used
        by tests and by :class:`Custom` validation."""
        self._require_bound()
        seen = np.zeros(self.extent, dtype=bool)
        for p in range(self.nprocs):
            idx = self.local_indices(p)
            if idx.size and seen[idx].any():
                raise DistributionError(f"{self!r}: overlapping local sets at proc {p}")
            seen[idx] = True
        if not seen.all():
            missing = int(np.nonzero(~seen)[0][0])
            raise DistributionError(f"{self!r}: element {missing} owned by nobody")

    def __repr__(self) -> str:
        if self.bound:
            return f"{type(self).__name__}(extent={self.extent}, nprocs={self.nprocs})"
        return f"{type(self).__name__}()"
