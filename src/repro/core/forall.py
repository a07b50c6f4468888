"""The Forall intermediate representation (paper §2.3, §3.1).

A forall loop is described declaratively so the system can *analyse* it:

* an inclusive global iteration range,
* an ``on`` clause placing each iteration (``OnOwner`` for
  ``on A[f(i)].loc``, ``OnProcessor`` for direct processor indexing),
* a list of *read descriptors* — each is either an affine reference
  ``A[a*i + b]`` or an indirect reference ``A[T[i, j]]`` through an
  aligned indirection table (the paper's ``old_a[adj[i,j]]``),
* a list of *write descriptors* (affine; must be owned by the executing
  processor, the owner-computes discipline implied by the paper's
  examples),
* a vectorised kernel computing new values for a batch of iterations.

The kernel contract keeps copy-in/copy-out semantics (§2.3): all read
operands are gathered before any write is committed, so the right-hand
side always sees pre-loop values.

Both front ends produce this IR: the embedded Python API builds it
directly, the Kali language front end lowers parsed ``forall`` statements
to it (:mod:`repro.lang.lower`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ForallError


@dataclass(frozen=True)
class Affine:
    """The integer map ``i -> a*i + b``."""

    a: int = 1
    b: int = 0

    def __call__(self, i):
        return self.a * np.asarray(i) + self.b if isinstance(i, np.ndarray) else self.a * i + self.b

    def is_identity(self) -> bool:
        return self.a == 1 and self.b == 0


class OnClause:
    """Base class of forall ``on`` clauses."""


@dataclass(frozen=True)
class OnOwner(OnClause):
    """``on A[f(i)].loc`` — run iteration ``i`` where ``A[f(i)]`` lives."""

    array: str
    fn: Affine = field(default_factory=Affine)

    def __post_init__(self):
        if not isinstance(self.fn, Affine):
            raise ForallError("OnOwner.fn must be an Affine map")
        if self.fn.a == 0:
            raise ForallError(
                "on-clause subscript must be affine in the forall index")


@dataclass(frozen=True)
class OnProcessor(OnClause):
    """``on Procs[e(i)]`` — name the processor directly by an affine map
    of the iteration index (modulo the grid size, for generality)."""

    fn: Affine = field(default_factory=Affine)


class ReadDescriptor:
    """Base class of read references appearing in a forall body."""

    array: str
    name: str


@dataclass(frozen=True)
class AffineRead(ReadDescriptor):
    """The reference ``array[a*i + b]`` (rows, for 2-d arrays).

    ``name`` keys the gathered operand passed to the kernel.  Out-of-range
    subscripts are a checked error during analysis (the paper assumes
    loop bounds keep subscripts legal, e.g. ``1..N-1`` for ``A[i+1]``).
    """

    array: str
    fn: Affine = field(default_factory=Affine)
    name: str = ""

    def operand_name(self) -> str:
        return self.name or f"{self.array}[{self.fn.a}i+{self.fn.b}]"


@dataclass(frozen=True)
class IndirectRead(ReadDescriptor):
    """The reference ``array[table[i, j]] for j < width(i)``.

    ``table`` names an integer indirection array aligned with the
    iteration space (same first-axis distribution as the on-clause
    target), with a replicated second axis of width ``max_width`` — the
    paper's ``adj : array[1..n, 1..4] dist by [block, *]``.  ``count``
    optionally names an aligned 1-d array giving the live width per
    iteration (the paper's ``count``); all columns are live when omitted.
    ``offset`` is added to table values before indexing — the Kali front
    end uses it to map 1-based node ids onto 0-based storage.
    """

    array: str
    table: str
    count: Optional[str] = None
    name: str = ""
    offset: int = 0

    def operand_name(self) -> str:
        return self.name or f"{self.array}[{self.table}[i,j]]"


@dataclass(frozen=True)
class AffineWrite:
    """The assignment target ``array[a*i + b] := ...``."""

    array: str
    fn: Affine = field(default_factory=Affine)


#: reduction operators: name -> (binary op, identity element)
REDUCE_OPS = {
    "sum": (lambda a, b: a + b, 0.0),
    "max": (lambda a, b: a if a >= b else b, float("-inf")),
    "min": (lambda a, b: a if a <= b else b, float("inf")),
}


@dataclass(frozen=True)
class ReduceSpec:
    """A scalar reduction accumulated across all forall iterations.

    The kernel returns, under key ``name``, a per-iteration contribution
    vector; the executor folds it with ``op`` locally and combines the
    partials with a recursive-doubling allreduce — the standard way a
    forall expresses the convergence test of the paper's Figure 4
    ``while`` loop.  ``op`` is one of :data:`REDUCE_OPS`.
    """

    name: str
    op: str = "sum"

    def __post_init__(self):
        if self.op not in REDUCE_OPS:
            raise ForallError(
                f"unknown reduction op {self.op!r}; choose from "
                f"{sorted(REDUCE_OPS)}"
            )

    @property
    def identity(self) -> float:
        return REDUCE_OPS[self.op][1]

    @property
    def fn(self):
        return REDUCE_OPS[self.op][0]


@dataclass
class IndirectOperand:
    """Gathered values for an :class:`IndirectRead`, padded 2-d layout.

    ``values[k, j]`` is ``array[table[i_k, j]]`` for live columns
    (``j < counts[k]``); dead columns hold 0.  ``counts`` is the live
    width per iteration in the batch and ``live`` the boolean mask
    ``arange(width) < counts[:, None]``, the shape of ``values``.

    ``counts`` and ``live`` are compiled once per schedule and shared by
    every execution of it, so they are read-only: mask with ``live``
    rather than rebuilding it, and copy before modifying either.
    ``values`` is this execution's own array.

    A kernel that reduces a row, ``sum_j w[k, j] * values[k, j]`` over
    the live columns, calls :meth:`weighted_sum`, which returns
    ``(w * values * live).sum(axis=1)`` bit for bit without paying for
    the mask multiply or NumPy's per-row reduction.
    """

    values: np.ndarray
    counts: np.ndarray
    live: np.ndarray

    #: rows narrower than this are summed column by column; NumPy's own
    #: row reduction adds up to 7 elements left to right and switches to
    #: eight pairwise accumulators from 8 on, an order a column loop
    #: cannot reproduce
    _NARROW = 8

    def weighted_sum(self, weights) -> np.ndarray:
        """``(weights * values * live).sum(axis=1)``, bit for bit.

        Two exact rewrites make it cheap:

        * **no mask multiply.**  Dead columns of ``values`` hold zeros
          (the executor's zero-row contract, pinned by the ``dead-cols``
          test in ``tests/test_exec_plan.py``), so a dead product is
          already a signed zero or a NaN and multiplying it by
          ``False`` leaves every bit as it is; a live one is multiplied
          by 1.0.
        * **narrow rows sum by column.**  For a float64 row of width
          1-7, NumPy adds the elements left to right onto a +0.0
          accumulator; ``prod[:, 0] + 0.0`` followed by one in-place add
          per column is that same order, vectorised over rows, so an
          all-(-0.0) row still sums to +0.0.  Wider rows, empty rows
          and other dtypes keep ``prod.sum(axis=1)``.
        """
        prod = weights * self.values
        width = prod.shape[1]
        if prod.dtype != np.float64 or not 0 < width < self._NARROW:
            return prod.sum(axis=1)
        acc = prod[:, 0] + 0.0
        for j in range(1, width):
            acc += prod[:, j]
        return acc


KernelFn = Callable[[np.ndarray, Dict[str, object]], np.ndarray]


@dataclass
class Forall:
    """A complete forall loop specification.

    Parameters
    ----------
    index_range:
        Inclusive ``(lo, hi)`` global iteration bounds.
    on:
        The ``on`` clause.
    reads:
        Read descriptors; their gathered operands are passed to ``kernel``
        keyed by ``operand_name()``.
    writes:
        Write descriptors.  The kernel's return value is written to the
        first write target; multi-target kernels return a dict keyed by
        array name.
    reductions:
        Scalar reductions; the kernel supplies per-iteration contribution
        vectors under each reduction's name (in the same dict as write
        values).  ``kr.forall`` returns ``{name: reduced value}``.
    kernel:
        ``kernel(iters, operands) -> values`` — vectorised over a batch of
        global iteration indices.
    flops_per_ref / flops_per_iter:
        Cost-model hints: floating-point work charged per live reference
        and per iteration (e.g. Jacobi charges a multiply-add per
        ``coef[i,j] * old_a[adj[i,j]]`` pair).
    label:
        Stable identifier for schedule caching and diagnostics.
    """

    index_range: Tuple[int, int]
    on: OnClause
    reads: Sequence[ReadDescriptor]
    writes: Sequence[AffineWrite]
    kernel: KernelFn
    reductions: Sequence[ReduceSpec] = ()
    flops_per_ref: float = 0.0
    flops_per_iter: float = 0.0
    label: str = ""

    _label_counter = [0]

    def __post_init__(self):
        lo, hi = self.index_range
        if not isinstance(self.on, OnClause):
            raise ForallError(f"bad on clause {self.on!r}")
        if not self.writes and not self.reductions:
            raise ForallError(
                "forall needs at least one write target or reduction"
            )
        if not callable(self.kernel):
            raise ForallError("forall kernel must be callable")
        self.index_range = (int(lo), int(hi))
        if not self.label:
            Forall._label_counter[0] += 1
            self.label = f"forall#{Forall._label_counter[0]}"

    # --- helpers used by analysis/runtime ---------------------------------

    def arrays_read(self) -> List[str]:
        names: List[str] = []
        for r in self.reads:
            names.append(r.array)
            if isinstance(r, IndirectRead):
                names.append(r.table)
                if r.count:
                    names.append(r.count)
        return names

    def arrays_written(self) -> List[str]:
        return [w.array for w in self.writes]

    def comm_dependency_arrays(self) -> List[str]:
        """Arrays whose *values* determine the communication pattern —
        the indirection tables and counts.  Schedule caching keys on
        their versions (paper §3.2: "the adj array is not changed in the
        while loop, and thus the communications dependent on that array
        do not change")."""
        deps: List[str] = []
        for r in self.reads:
            if isinstance(r, IndirectRead):
                deps.append(r.table)
                if r.count:
                    deps.append(r.count)
        return deps

    def is_fully_affine(self) -> bool:
        """True when every read is affine — the precondition for
        closed-form compile-time analysis (paper §3.2)."""
        return all(isinstance(r, AffineRead) for r in self.reads)

    def range_size(self) -> int:
        lo, hi = self.index_range
        return max(0, hi - lo + 1)
