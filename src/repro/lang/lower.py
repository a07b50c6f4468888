"""Lowering Kali ``forall`` statements to the Forall IR.

This is the compiler's centre: it performs the subscript analysis of
paper §3.1, classifying every array reference in the loop body as

* **affine** — ``A[a*i + b]`` (and aligned 2-d rows ``A[i, e]``), handled
  by :class:`~repro.core.forall.AffineRead` and eligible for closed-form
  analysis,
* **indirect** — ``A[T[i, j]]`` through an aligned indirection table,
  handled by :class:`~repro.core.forall.IndirectRead` and requiring the
  run-time inspector,
* **replicated** — references to non-distributed arrays, read directly
  from the rank's full copy,

and generates the loop's *kernel*: the body translated once into
straight-line NumPy source that evaluates it over a whole batch of
iterations — inner ``for`` loops become masked column sweeps, ``if``
statements masked merges, reductions masked folds.

Index origins
-------------
Kali subscripts are relative to declared lower bounds (``array[1..n]``);
the runtime is 0-based.  The lowered IR iterates over a shifted domain
``u = i - delta``: ``delta`` is chosen so that ``u`` coincides with the
0-based row index of every indirection table and count array (the runtime
feeds the iteration value directly to ``table.get_rows``), and all affine
subscript maps absorb both ``delta`` and the array lower bounds.  The
kernel converts back (``i = u + delta``) so body expressions see Kali's
own index values.

Generated kernels
-----------------
The kernel source defines ``make(a0, a1, ...)``, which returns
``kernel(iters, ops)``.  The text holds only names the lowerer makes up
(``v`` variables, ``a`` arguments, ``p`` operands, ``w``/``u`` write
values and masks, ``r`` reductions, ``m`` masks, ``t`` temporaries) and
``repr()`` of numeric literals.  Kali identifiers, operand keys, scalar
values, replicated arrays, bounds and result names are all arguments of
``make``, so source text from a socket client never reaches ``compile()``
as code.  The text therefore depends only on the body's shape, and it is
compiled through a bounded process-wide cache keyed by that text.

The kernel performs exactly the NumPy operations the body prescribes, in
order: locals start as float64 ``np.zeros(n)``, every assignment is
``np.where(mask, value, old)``, an inner loop accumulates one column per
``j``, a conditional write merges the target's old value, and an inner
lower bound that differs between iterations is a ``KaliSemanticError``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.core.forall import (
    Affine,
    AffineRead,
    AffineWrite,
    Forall,
    IndirectRead,
    OnOwner,
    OnProcessor,
    ReduceSpec,
)
from repro.errors import KaliSemanticError
from repro.lang import ast
from repro.lang.sema import SymbolTable

ARITH_OPS = {"+", "-", "*", "/", "div", "mod"}


@dataclass
class ArrayInfo:
    """Instantiated metadata the lowerer needs about one array."""

    name: str
    lower_bounds: Tuple[int, ...]
    extents: Tuple[int, ...]
    distributed: bool
    elem: str


# --- affine extraction -------------------------------------------------------


def affine_of(expr: ast.Expr, var: str, scalars: Dict[str, object]) -> Optional[Tuple[int, int]]:
    """``expr`` as ``a*var + b`` with integer a, b — or None.

    Scalar names fold to their current (replicated) values; this is sound
    because they are loop-invariant for one forall execution (paper §3.1:
    the g_k "may depend on other program variables, so long as those
    variables are invariant during the execution of the forall loop").
    """
    if isinstance(expr, ast.NumLit):
        v = expr.value
        if isinstance(v, float):
            if not v.is_integer():
                return None
            v = int(v)
        return (0, int(v))
    if isinstance(expr, ast.Name):
        if expr.ident == var:
            return (1, 0)
        if expr.ident in scalars:
            v = scalars[expr.ident]
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                return None
            if isinstance(v, float):
                if not v.is_integer():
                    return None
                v = int(v)
            return (0, int(v))
        return None
    if isinstance(expr, ast.UnOp) and expr.op == "-":
        inner = affine_of(expr.operand, var, scalars)
        if inner is None:
            return None
        return (-inner[0], -inner[1])
    if isinstance(expr, ast.BinOp):
        left = affine_of(expr.left, var, scalars)
        right = affine_of(expr.right, var, scalars)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return (left[0] + right[0], left[1] + right[1])
        if expr.op == "-":
            return (left[0] - right[0], left[1] - right[1])
        if expr.op == "*":
            if left[0] == 0:
                return (left[1] * right[0], left[1] * right[1])
            if right[0] == 0:
                return (left[0] * right[1], left[1] * right[1])
            return None
        if expr.op in ("div", "mod") and left[0] == 0 and right[0] == 0 and right[1] != 0:
            if expr.op == "div":
                return (0, left[1] // right[1])
            return (0, left[1] % right[1])
        return None
    return None


def free_scalars(expr: ast.Expr, table: SymbolTable) -> Set[str]:
    """Global scalar names an expression depends on."""
    out: Set[str] = set()
    if expr is None:
        return out
    for node in ast.walk_exprs(expr):
        if isinstance(node, ast.Name) and node.ident in table.scalars:
            out.add(node.ident)
    return out


def forall_fingerprint(stmt: ast.ForallStmt, table: SymbolTable,
                       scalars: Dict[str, object]) -> Tuple:
    """Values of every scalar the forall's lowering depends on.

    Keys the lowered-IR cache: if a referenced scalar changed between
    executions, bounds or affine coefficients may differ and the loop is
    re-lowered (getting a fresh schedule-cache identity as well).
    """
    return tuple((n, scalars.get(n)) for n in fingerprint_names(stmt, table))


def fingerprint_names(stmt: ast.ForallStmt, table: SymbolTable) -> Tuple[str, ...]:
    """The scalars :func:`forall_fingerprint` reads, sorted: a function
    of the AST and the symbol table alone, so computed once per
    statement."""
    names: Set[str] = set()
    names |= free_scalars(stmt.lo, table)
    names |= free_scalars(stmt.hi, table)
    names |= free_scalars(stmt.on_sub, table)
    for s in ast.walk_stmts(stmt.body):
        if isinstance(s, ast.Assign):
            red = ast.match_reduction(s)
            if red is not None and red[0] in table.scalars:
                # The accumulator's *value* never affects lowering (it is
                # folded in after the loop); fingerprint only the
                # contribution, or every sweep would re-lower the loop.
                names |= free_scalars(red[2], table)
            else:
                names |= free_scalars(s.value, table)
            if isinstance(s.target, ast.Index):
                for sub in s.target.subs:
                    names |= free_scalars(sub, table)
        elif isinstance(s, ast.IfStmt):
            names |= free_scalars(s.cond, table)
        elif isinstance(s, ast.ForStmt):
            names |= free_scalars(s.lo, table)
            names |= free_scalars(s.hi, table)
    return tuple(sorted(names))


# --- the lowerer ----------------------------------------------------------------


class _ReadPlan(NamedTuple):
    """How one Index AST node fetches its value inside the kernel."""

    kind: str  # "affine" | "row" | "indirect" | "replicated"
    key: str
    col_expr: Optional[ast.Expr] = None
    col_lb: int = 0


#: static value kinds the emitter tracks: an (n,) ndarray for certain, a
#: Python int for certain, or anything (checked at run time, as before)
_VEC, _INT, _ANY = "vec", "int", "any"

_IDENTITY = {"sum": 0.0, "max": float("-inf"), "min": float("inf")}


class ForallLowerer:
    """Two-pass lowering: (1) walk the body collecting read/write
    descriptors in *Kali coordinates* and the required domain shift
    ``delta``; (2) emit the IR with all maps rebased to ``u = i - delta``
    and generate the vectorised kernel."""

    def __init__(
        self,
        stmt: ast.ForallStmt,
        table: SymbolTable,
        arrays: Dict[str, ArrayInfo],
        scalars: Dict[str, object],
        local_data: Dict[str, np.ndarray],
        label: str,
    ):
        self.stmt = stmt
        self.table = table
        self.arrays = arrays
        self.scalars = scalars
        self.local_data = local_data
        self.label = label

        # Collected in Kali coordinates: (kind-specific payloads)
        self.affine_reads: Dict[Tuple[str, int, int], str] = {}
        self.row_reads: Dict[Tuple[str, int, int], str] = {}
        self.indirect_reads: Dict[Tuple[str, str, Optional[str]], str] = {}
        self.read_plans: Dict[int, _ReadPlan] = {}
        self.writes: Dict[str, Tuple[int, int]] = {}  # Kali-coord affine
        self.write_conditional: Dict[str, bool] = {}
        #: var -> reduction op; contributions are folded per statement
        self.reductions: Dict[str, str] = {}
        #: id(Assign) -> (var, contribution expr) for reduction statements
        self.reduction_stmts: Dict[int, Tuple[str, ast.Expr]] = {}
        self.delta: Optional[int] = None
        self._loop_stack: List[str] = []
        self._loop_count: Dict[str, Optional[str]] = {}
        self.flops_inner = 0
        self.flops_outer = 0
        self._key_counter = 0

    # --- helpers ------------------------------------------------------------

    def _err(self, msg: str, line: int) -> KaliSemanticError:
        return KaliSemanticError(f"forall: {msg}", line)

    def _affine(self, expr: ast.Expr) -> Optional[Tuple[int, int]]:
        return affine_of(expr, self.stmt.var, self.scalars)

    def _new_key(self, base: str) -> str:
        self._key_counter += 1
        return f"{base}#{self._key_counter}"

    def _require_delta(self, delta: int, what: str, line: int) -> None:
        if self.delta is None:
            self.delta = delta
        elif self.delta != delta:
            raise self._err(
                f"{what} is not aligned with the other indirect references "
                f"(needs iteration shift {delta}, loop uses {self.delta})",
                line,
            )

    # --- classification -----------------------------------------------------------

    def classify_read(self, node: ast.Index) -> None:
        if id(node) in self.read_plans:
            return
        info = self.arrays.get(node.base)
        if info is None:
            raise self._err(f"{node.base!r} is not an array", node.line)

        if not info.distributed:
            self.read_plans[id(node)] = _ReadPlan("replicated", key="")
            for sub in node.subs:
                self._classify_nested(sub)
            return

        sub0 = node.subs[0]
        aff0 = self._affine(sub0)

        if aff0 is not None and len(node.subs) == 1:
            key_t = (node.base, aff0[0], aff0[1])
            if key_t not in self.affine_reads:
                self.affine_reads[key_t] = self._new_key(node.base)
            self.read_plans[id(node)] = _ReadPlan("affine", self.affine_reads[key_t])
            return

        if aff0 is not None and len(node.subs) == 2:
            key_t = (node.base, aff0[0], aff0[1])
            if key_t not in self.row_reads:
                self.row_reads[key_t] = self._new_key(node.base)
            self.read_plans[id(node)] = _ReadPlan(
                "row", self.row_reads[key_t], col_expr=node.subs[1],
                col_lb=info.lower_bounds[1],
            )
            self._classify_nested(node.subs[1])
            return

        # Indirect reference A[T[i]] / A[T[i, j]].
        if (
            len(node.subs) == 1
            and isinstance(sub0, ast.Index)
            and sub0.base in self.arrays
            and self.arrays[sub0.base].distributed
        ):
            tinfo = self.arrays[sub0.base]
            taff = self._affine(sub0.subs[0])
            if taff is None or taff[0] != 1:
                raise self._err(
                    f"indirection table {sub0.base!r} must be indexed by the "
                    "forall index (as T[i] or T[i, j])",
                    node.line,
                )
            # Row space: global0 = i + b - lb_T; require u == global0.
            self._require_delta(tinfo.lower_bounds[0] - taff[1],
                                f"indirection table {sub0.base!r}", node.line)
            count_name = None
            if self._loop_stack:
                count_name = self._loop_count.get(self._loop_stack[-1])
            col_expr = sub0.subs[1] if len(sub0.subs) == 2 else None
            if col_expr is None and count_name is not None:
                count_name = None  # 1-d table: no live-width masking needed
            key_t = (node.base, sub0.base, count_name)
            if key_t not in self.indirect_reads:
                self.indirect_reads[key_t] = self._new_key(node.base)
            self.read_plans[id(node)] = _ReadPlan(
                "indirect",
                self.indirect_reads[key_t],
                col_expr=col_expr,
                col_lb=tinfo.lower_bounds[1] if len(tinfo.lower_bounds) > 1 else 0,
            )
            if col_expr is not None:
                self._classify_nested(col_expr)
            return

        raise self._err(
            f"unsupported subscript for {node.base!r}: references must be "
            "affine in the forall index or indirect through an aligned "
            "table (paper §3.1 reference model)",
            node.line,
        )

    def _classify_nested(self, expr: ast.Expr) -> None:
        for node in ast.walk_exprs(expr):
            if isinstance(node, ast.Index):
                self.classify_read(node)

    # --- body walk --------------------------------------------------------------

    def analyze_body(self) -> None:
        self._walk_stmts(self.stmt.body, in_inner=False)

    def _walk_stmts(self, stmts: List[ast.Stmt], in_inner: bool) -> None:
        for s in stmts:
            if isinstance(s, ast.Assign):
                if self._record_reduction(s, in_inner):
                    continue
                self._walk_expr(s.value, in_inner)
                if isinstance(s.target, ast.Index):
                    self._record_write(s)
                # local-scalar targets need no analysis
            elif isinstance(s, ast.IfStmt):
                self._walk_expr(s.cond, in_inner)
                self._walk_stmts(s.then_body, in_inner)
                self._walk_stmts(s.else_body, in_inner)
            elif isinstance(s, ast.ForStmt):
                self._enter_inner_loop(s)
                self._walk_expr(s.lo, in_inner)
                self._walk_expr(s.hi, in_inner)
                self._walk_stmts(s.body, in_inner=True)
                self._loop_stack.pop()
            else:
                raise self._err(
                    f"statement {type(s).__name__} not allowed in forall bodies",
                    s.line,
                )

    def _record_write(self, s: ast.Assign) -> None:
        target = s.target
        info = self.arrays.get(target.base)
        if info is None or not info.distributed:
            raise self._err(
                f"assignment target {target.base!r} must be a distributed "
                "array or forall-local variable",
                s.line,
            )
        if len(target.subs) != 1:
            raise self._err(
                "only one-dimensional distributed writes are supported in "
                "forall bodies",
                s.line,
            )
        aff = self._affine(target.subs[0])
        if aff is None or aff[0] == 0:
            raise self._err(
                f"write subscript of {target.base!r} must be affine in the "
                "forall index",
                s.line,
            )
        prev = self.writes.get(target.base)
        if prev is not None and prev != aff:
            raise self._err(
                f"conflicting write subscripts for {target.base!r}", s.line
            )
        self.writes[target.base] = aff

    def _record_reduction(self, s: ast.Assign, in_inner: bool) -> bool:
        """Handle global-scalar reduction assignments (sema validated the
        shape); returns True when the statement is a reduction.

        Reductions may appear anywhere in the body — under ``if`` and
        inside inner ``for`` loops — because the kernel folds each
        contribution under the statement's active mask.
        """
        if not isinstance(s.target, ast.Name):
            return False
        name = s.target.ident
        if name not in self.table.scalars:
            return False  # forall-local variable: plain kernel assignment
        red = ast.match_reduction(s)
        if red is None:  # pragma: no cover - sema rejects other shapes
            raise self._err(f"unsupported global-scalar write {name!r}", s.line)
        var, op, contrib = red
        prev_op = self.reductions.get(var)
        if prev_op is not None and prev_op != op:
            raise self._err(
                f"conflicting reduction operators for {var!r} "
                f"({prev_op} vs {op})",
                s.line,
            )
        self.reductions[var] = op
        self.reduction_stmts[id(s)] = (var, contrib)
        self._walk_expr(contrib, in_inner)
        return True

    def _walk_expr(self, expr: ast.Expr, in_inner: bool) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Index):
            self.classify_read(expr)
            return
        if isinstance(expr, ast.BinOp):
            if expr.op in ARITH_OPS:
                if in_inner:
                    self.flops_inner += 1
                else:
                    self.flops_outer += 1
            self._walk_expr(expr.left, in_inner)
            self._walk_expr(expr.right, in_inner)
        elif isinstance(expr, ast.UnOp):
            self._walk_expr(expr.operand, in_inner)
        elif isinstance(expr, ast.Call):
            for a in expr.args:
                self._walk_expr(a, in_inner)

    def _enter_inner_loop(self, s: ast.ForStmt) -> None:
        """Detect the canonical live-width bound ``for j in 1..C[i]``."""
        bound = {self.stmt.var, *self._loop_stack,
                 *(n for d in self.stmt.local_decls for n in d.names)}
        if s.var in bound:
            # A kernel's names are lexically scoped; the loop would hide
            # (and, leaving, drop) an enclosing variable of the same name.
            raise self._err(f"inner for variable {s.var!r} shadows an "
                            "enclosing forall, local or loop variable", s.line)
        count_name: Optional[str] = None
        hi = s.hi
        if isinstance(hi, ast.Index) and len(hi.subs) == 1:
            aff = self._affine(hi.subs[0])
            info = self.arrays.get(hi.base)
            if aff is not None and aff[0] == 1 and info is not None and info.distributed:
                count_name = hi.base
                # The count array must share the iteration row space.
                self._require_delta(info.lower_bounds[0] - aff[1],
                                    f"count array {hi.base!r}", s.line)
        self._loop_stack.append(s.var)
        self._loop_count[s.var] = count_name

    # --- building -------------------------------------------------------------------

    def build(self) -> Forall:
        stmt = self.stmt
        lo = _eval_const(stmt.lo, self.scalars, stmt.line)
        hi = _eval_const(stmt.hi, self.scalars, stmt.line)

        self._walk_with_cond(stmt.body, False)
        self.analyze_body()
        if not self.writes and not self.reductions:
            raise self._err(
                "forall body assigns to no distributed array and performs "
                "no reduction",
                stmt.line,
            )

        delta = self.delta if self.delta is not None else 0

        # Conditional writes need the target's old value merged in.
        for name, aff in list(self.writes.items()):
            if self.write_conditional[name]:
                key_t = (name, aff[0], aff[1])
                if key_t not in self.affine_reads:
                    self.affine_reads[key_t] = self._new_key(name)

        def rebase(aff: Tuple[int, int], lb: int) -> Affine:
            """Kali-coordinate a*i + b against lower bound lb, over u."""
            a, b = aff
            return Affine(a, a * delta + b - lb)

        reads: List = [
            AffineRead(arr, rebase((a, b), self.arrays[arr].lower_bounds[0]), name=key)
            for (arr, a, b), key in [*self.affine_reads.items(), *self.row_reads.items()]
        ]
        for (arr, tbl, cnt), key in self.indirect_reads.items():
            reads.append(
                IndirectRead(
                    arr,
                    table=tbl,
                    count=cnt,
                    name=key,
                    # Table values are Kali indices; rebase to 0-based.
                    offset=-self.arrays[arr].lower_bounds[0],
                )
            )

        writes = [
            AffineWrite(name, rebase(aff, self.arrays[name].lower_bounds[0]))
            for name, aff in sorted(self.writes.items())
        ]

        if stmt.direct:
            aff = self._affine(stmt.on_sub)
            if aff is None:
                raise self._err(
                    "processor subscript must be affine in the forall index",
                    stmt.line,
                )
            on = OnProcessor(rebase(aff, 1))  # processor arrays declared [1..P]
        else:
            info = self.arrays[stmt.on_array]
            aff = self._affine(stmt.on_sub)
            if aff is None or aff[0] == 0:
                raise self._err(
                    "on-clause subscript must be affine in the forall index",
                    stmt.line,
                )
            on = OnOwner(stmt.on_array, rebase(aff, info.lower_bounds[0]))

        return Forall(
            index_range=(lo - delta, hi - delta),
            on=on,
            reads=reads,
            writes=writes,
            kernel=_KernelEmitter(self, delta).kernel(),
            reductions=[
                ReduceSpec(name, op)
                for name, op in sorted(self.reductions.items())
            ],
            flops_per_ref=float(self.flops_inner),
            flops_per_iter=float(self.flops_outer),
            label=self.label,
        )

    def _walk_with_cond(self, stmts: List[ast.Stmt], conditional: bool) -> None:
        """Pre-pass recording which array writes sit under conditionals."""
        for s in stmts:
            if isinstance(s, ast.Assign) and isinstance(s.target, ast.Index):
                name = s.target.base
                self.write_conditional[name] = (
                    self.write_conditional.get(name, False) or conditional
                )
            elif isinstance(s, ast.IfStmt):
                self._walk_with_cond(s.then_body, True)
                self._walk_with_cond(s.else_body, True)
            elif isinstance(s, ast.ForStmt):
                self._walk_with_cond(s.body, conditional)


# --- what generated kernels call ---------------------------------------------


def _vec(v, n: int):
    """A value as an (n,) array: a scalar broadcast, an array as it is."""
    v = np.asarray(v)
    return np.broadcast_to(v, (n,)) if v.ndim == 0 else v


def _fvec(v, n: int):
    return _vec(np.asarray(v, dtype=np.float64), n)


def _bvec(v, n: int):
    return np.broadcast_to(np.asarray(v, dtype=bool), (n,))


def _ix(v):
    """A subscript value as an index: int64 array or Python int."""
    return v.astype(np.int64) if isinstance(v, np.ndarray) else int(v)


def _col(rows: np.ndarray, col, n: int) -> np.ndarray:
    """Column ``col`` of each row: one shared column or one per row."""
    if np.ndim(col) == 0:
        return rows[:, int(col)]
    return rows[np.arange(n), np.asarray(col)]


def _bounds(lo, hi, n: int, line: int):
    """An inner ``for``'s uniform lower bound, per-lane upper bounds and
    the largest of those."""
    lo_v, hi_v = np.asarray(lo), np.asarray(hi)
    if lo_v.ndim and (lo_v != lo_v.flat[0]).any():
        raise KaliSemanticError("inner for lower bound must be uniform", line)
    hi_vec = np.broadcast_to(hi_v, (n,))
    return int(lo_v.flat[0]) if lo_v.ndim else int(lo_v), hi_vec, int(hi_vec.max())


def _and(left, right):
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.logical_and(left, right)
    return left and right


def _or(left, right):
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.logical_or(left, right)
    return left or right


def _float(v):
    return np.asarray(v, dtype=np.float64) if isinstance(v, np.ndarray) else float(v)


def _trunc(v):
    return np.trunc(v).astype(np.int64) if isinstance(v, np.ndarray) else int(v)


#: the globals of generated code: NumPy and the helpers above
_RUNTIME = {"np": np, "_vec": _vec, "_fvec": _fvec, "_bvec": _bvec, "_ix": _ix,
            "_col": _col, "_bounds": _bounds, "_and": _and, "_or": _or,
            "_float": _float, "_trunc": _trunc}


class Kernel:
    """A generated kernel: ``make`` of its text applied to the bound
    arguments, called as ``kernel(iters, ops)``.

    ``replicated`` names the argument slots holding the lowering rank's
    copy of a replicated array; :meth:`rebound` makes the same kernel
    over another rank's copies, analysing and compiling nothing again.
    """

    __slots__ = ("make", "args", "replicated", "_fn")

    def __init__(self, make: Callable, args, replicated: Tuple[Tuple[int, str], ...]):
        self.make, self.args, self.replicated = make, tuple(args), replicated
        self._fn = make(*self.args)

    def __call__(self, iters, ops):
        return self._fn(iters, ops)

    def rebound(self, local_data: Dict[str, np.ndarray]) -> "Kernel":
        args = list(self.args)
        for slot, name in self.replicated:
            args[slot] = local_data[name]
        return Kernel(self.make, args, self.replicated)


def rank_forall(forall: Forall, local_data: Dict[str, np.ndarray]) -> Forall:
    """``forall``, lowered on another rank, for this one: the same IR,
    with its kernel made over this rank's replicated arrays
    (``local_data``); a forall that reads none is shared as it is.

    Ranks must not share replicated data: sequential code writes each
    rank's copy when that rank gets there, and ranks run ahead of each
    other between collectives."""
    kernel = inspect.unwrap(forall.kernel)      # under any call wrapper
    if not kernel.replicated:
        return forall
    return dataclasses.replace(forall, kernel=kernel.rebound(local_data))


@functools.lru_cache(maxsize=256)
def _kernel_factory(text: str) -> Callable:
    """The ``make`` function of one kernel text, compiled once per process."""
    namespace = dict(_RUNTIME)
    exec(compile(text, "<kali-kernel>", "exec"), namespace)
    return namespace["make"]


# --- Kali's operators, in kernel text and in sequential code --------------------


#: Kali operator -> (Python operator in kernel text, the same operator
#: as a function for sequential code); ``and`` / ``or`` are helpers in
#: kernel text too, since they pick NumPy or Python semantics by type
_OPS = {"+": ("+", operator.add), "-": ("-", operator.sub),
        "*": ("*", operator.mul), "/": ("/", operator.truediv),
        "div": ("//", operator.floordiv), "mod": ("%", operator.mod),
        "=": ("==", operator.eq), "<>": ("!=", operator.ne),
        "<": ("<", operator.lt), "<=": ("<=", operator.le),
        ">": (">", operator.gt), ">=": (">=", operator.ge),
        "and": (None, _and), "or": (None, _or)}
#: built-in -> (its name in kernel text, the function); ``abs`` of an
#: array is ``np.abs``
_BUILTINS = {"abs": ("abs", abs), "min": ("np.minimum", np.minimum),
             "max": ("np.maximum", np.maximum), "float": ("_float", _float),
             "trunc": ("_trunc", _trunc), "sqrt": ("np.sqrt", np.sqrt)}


def _binop(op: str, left, right):
    """A Kali binary operator in sequential code."""
    return _OPS[op][1](left, right)


def _call(func: str, args):
    """A Kali built-in in sequential code."""
    if func not in _BUILTINS:
        raise KaliSemanticError(f"unknown built-in function {func!r}")
    return _BUILTINS[func][1](*args)


# --- kernel generation ------------------------------------------------------------


class _KernelEmitter:
    """Emits the kernel text for one analysed forall (see module docstring)
    and instantiates it through :func:`_kernel_factory`."""

    def __init__(self, lowerer: ForallLowerer, delta: int):
        self.low = lowerer
        self.args: List[object] = []
        #: (argument slot, array name) of each replicated array bound
        self.replicated: List[Tuple[int, str]] = []
        self.pre: List[str] = []      # before ``if n:``, at depth 2
        self.body: List[str] = []
        self.count = 0
        self.operands: Dict[str, str] = {}
        #: Kali name -> (Python variable, kind), lexically scoped
        self.scope: Dict[str, Tuple[str, str]] = {}
        stmt = lowerer.stmt
        self._declare(stmt.var, _VEC, f"iters + {self._bind(delta)}")
        for decl in stmt.local_decls:
            for name in decl.names:
                self._declare(name, _VEC, "np.zeros(n)")
        self.wvals: Dict[str, str] = {}
        self.wmask: Dict[str, str] = {}
        for name in lowerer.writes:
            dtype = "np.int64" if lowerer.arrays[name].elem == "integer" else "np.float64"
            self.wvals[name] = self._fresh("w", f"np.zeros(n, dtype={dtype})")
            if lowerer.write_conditional[name]:
                self.wmask[name] = self._fresh("u", "np.zeros(n, dtype=np.bool_)")
        self.rvals = {name: self._fresh("r", f"np.full(n, {self._bind(_IDENTITY[op])})")
                      for name, op in lowerer.reductions.items()}

    def kernel(self) -> Kernel:
        low = self.low
        self._block(low.stmt.body, "m0", True, 3)
        tail: List[str] = []
        for name, (a, b) in low.writes.items():
            if name in self.wmask:
                w, u = self.wvals[name], self.wmask[name]
                old = self._operand(low.affine_reads[(name, a, b)])
                tail += [f"if not {u}.all():", f"    {w} = np.where({u}, {w}, {old})"]
        results = [*self.wvals.items(), *self.rvals.items()]
        if len(results) == 1 and not self.rvals:
            tail.append(f"return {results[0][1]}")
        else:
            items = ", ".join(f"{self._bind(name)}: {var}" for name, var in results)
            tail.append(f"return {{{items}}}")
        params = ", ".join(f"a{k}" for k in range(len(self.args)))
        text = "\n".join([
            f"def make({params}):",
            "    def kernel(iters, ops):",
            "        n = iters.size",
            *("        " + line for line in self.pre),
            "        if n:",
            "            m0 = np.ones(n, dtype=np.bool_)",
            *self.body,
            *("        " + line for line in tail),
            "    return kernel",
            "",
        ])
        return Kernel(_kernel_factory(text), self.args, tuple(self.replicated))

    # --- names ------------------------------------------------------------

    def _bind(self, value: object) -> str:
        self.args.append(value)
        return f"a{len(self.args) - 1}"

    def _fresh(self, prefix: str, init: Optional[str] = None) -> str:
        self.count += 1
        name = f"{prefix}{self.count}"
        if init is not None:
            self.pre.append(f"{name} = {init}")
        return name

    def _declare(self, kali_name: str, kind: str, init: str) -> None:
        self.scope[kali_name] = (self._fresh("v", init), kind)

    def _operand(self, key: str, indirect: bool = False) -> str:
        var = self.operands.get(key)
        if var is None:
            var = self.operands[key] = self._fresh(
                "p", f"ops[{self._bind(key)}]" + (".values" if indirect else ""))
        return var

    # --- statements -------------------------------------------------------

    def _line(self, depth: int, text: str) -> None:
        self.body.append("    " * depth + text)

    @staticmethod
    def _under(mask: str, full: bool, cond: str) -> str:
        """``mask & cond``; just ``cond`` when ``mask`` is all true."""
        return cond if full else f"({mask} & {cond})"

    def _block(self, stmts: List[ast.Stmt], mask: str, full: bool, depth: int) -> None:
        if not stmts:
            self._line(depth, "pass")
        for s in stmts:
            if isinstance(s, ast.IfStmt):
                self._if(s, mask, full, depth)
            elif isinstance(s, ast.ForStmt):
                self._for(s, mask, full, depth)
            elif id(s) in self.low.reduction_stmts:
                self._fold(s, mask, full, depth)
            else:
                self._assign(s, mask, depth)

    def _assign(self, s: ast.Assign, mask: str, depth: int) -> None:
        value, kind = self._expr(s.value)
        if kind != _VEC:
            value = f"_vec({value}, n)"
        if isinstance(s.target, ast.Name):
            var, kind = self.scope[s.target.ident]
            old = var if kind == _VEC else f"_vec({var}, n)"
            self._line(depth, f"{var} = np.where({mask}, {value}, {old})")
            return
        w = self.wvals[s.target.base]
        self._line(depth, f"{w} = np.where({mask}, {value}, {w})")
        u = self.wmask.get(s.target.base)
        if u is not None:
            self._line(depth, f"{u} = {u} | {mask}")

    def _fold(self, s: ast.Assign, mask: str, full: bool, depth: int) -> None:
        name, contrib = self.low.reduction_stmts[id(s)]
        c, kind = self._expr(contrib)
        t = self._fresh("t")
        self._line(depth, f"{t} = np.asarray({c}, dtype=np.float64)" if kind == _VEC
                   else f"{t} = _fvec({c}, n)")
        r, op = self.rvals[name], self.low.reductions[name]
        if op == "sum":
            self._line(depth, f"{r} = np.where({mask}, {r} + {t}, {r})")
        else:
            better = self._under(mask, full, f"({t} {'>' if op == 'max' else '<'} {r})")
            self._line(depth, f"{r} = np.where({better}, {t}, {r})")

    def _if(self, s: ast.IfStmt, mask: str, full: bool, depth: int) -> None:
        c, kind = self._expr(s.cond)
        t = self._fresh("t")
        self._line(depth, f"{t} = np.asarray({c}, dtype=np.bool_)" if kind == _VEC
                   else f"{t} = _bvec({c}, n)")
        branches = [(s.then_body, t)] + ([(s.else_body, f"~{t}")] if s.else_body else [])
        for body, cond in branches:
            m = self._fresh("m")
            self._line(depth, f"{m} = {self._under(mask, full, cond)}")
            self._line(depth, f"if {m}.any():")
            self._block(body, m, False, depth + 1)

    def _for(self, s: ast.ForStmt, mask: str, full: bool, depth: int) -> None:
        lo, _ = self._expr(s.lo)
        hi, _ = self._expr(s.hi)
        t_lo, t_hi, t_max, var, m = (self._fresh(p) for p in "tttvm")
        self._line(depth, f"{t_lo}, {t_hi}, {t_max} = _bounds({lo}, {hi}, n, "
                          f"{self._bind(s.line)})")
        assigned = any(isinstance(x, ast.Assign) and isinstance(x.target, ast.Name)
                       and x.target.ident == s.var for x in ast.walk_stmts(s.body))
        self.scope[s.var] = (var, _ANY if assigned else _INT)
        self._line(depth, f"for {var} in range({t_lo}, {t_max} + 1):")
        self._line(depth + 1, f"{m} = {self._under(mask, full, f'({var} <= {t_hi})')}")
        if full:  # some lane has the largest bound, so every j is live
            self._block(s.body, m, False, depth + 1)
        else:
            self._line(depth + 1, f"if {m}.any():")
            self._block(s.body, m, False, depth + 2)
        del self.scope[s.var]

    # --- expressions ------------------------------------------------------

    def _expr(self, e: ast.Expr) -> Tuple[str, str]:
        """``(text, kind)`` of one expression."""
        if isinstance(e, (ast.NumLit, ast.BoolLit)):
            v = e.value
            if type(v) in (int, bool) or (type(v) is float and math.isfinite(v)):
                return f"({v!r})", _INT if type(v) is int else _ANY
            return self._bind(v), _ANY
        if isinstance(e, ast.Name):
            if e.ident in self.scope:
                return self.scope[e.ident]
            if e.ident not in self.low.scalars:
                raise self.low._err(f"{e.ident!r} has no value in a forall body", e.line)
            v = self.low.scalars[e.ident]
            return self._bind(v), _INT if type(v) is int else _ANY
        if isinstance(e, ast.Index):
            return self._fetch(e)
        if isinstance(e, ast.UnOp):
            x, kind = self._expr(e.operand)
            if e.op == "not":
                return f"np.logical_not({x})", _VEC if kind == _VEC else _ANY
            return f"(-{x})", kind
        if isinstance(e, ast.BinOp):
            (left, lk), (right, rk) = self._expr(e.left), self._expr(e.right)
            if _VEC in (lk, rk):
                kind = _VEC
            elif lk == rk == _INT and e.op in ("+", "-", "*", "div", "mod"):
                kind = _INT
            else:
                kind = _ANY
            if e.op in ("and", "or"):
                return f"_{e.op}({left}, {right})", kind
            return f"({left} {_OPS[e.op][0]} {right})", kind
        if isinstance(e, ast.Call):
            args = [self._expr(a) for a in e.args]
            if any(k == _VEC for _, k in args):
                kind = _VEC
            else:
                kind = args[0][1] if e.func == "abs" else _ANY
            return f"{_BUILTINS[e.func][0]}({', '.join(t for t, _ in args)})", kind
        raise self.low._err("string literals are not allowed in forall bodies", e.line)

    def _fetch(self, node: ast.Index) -> Tuple[str, str]:
        plan = self.low.read_plans[id(node)]
        if plan.kind == "replicated":
            data = self._bind(self.low.local_data[node.base])
            self.replicated.append((len(self.args) - 1, node.base))
            subs, vec = [], False
            for sub, lb in zip(node.subs, self.low.arrays[node.base].lower_bounds):
                x, kind = self._expr(sub)
                subs.append(f"_ix({x}) - {self._bind(lb)}")
                vec = vec or kind == _VEC
            return f"{data}[({', '.join(subs)},)]", _VEC if vec else _ANY
        if plan.kind == "affine":
            return self._operand(plan.key), _VEC
        rows = self._operand(plan.key, indirect=plan.kind == "indirect")
        if plan.col_expr is None:  # 1-d indirection table
            return f"{rows}[:, 0]", _VEC
        col, kind = self._expr(plan.col_expr)
        lb = self._bind(plan.col_lb)
        if kind == _INT:
            return f"{rows}[:, {col} - {lb}]", _VEC
        return f"_col({rows}, _ix({col}) - {lb}, n)", _VEC


def _eval_const(expr: ast.Expr, scalars: Dict[str, object], line: int) -> int:
    aff = affine_of(expr, "\x00no-var\x00", scalars)
    if aff is None or aff[0] != 0:
        raise KaliSemanticError(
            "forall bounds must be integer expressions over scalars", line
        )
    return aff[1]


def lower_forall(
    stmt: ast.ForallStmt,
    table: SymbolTable,
    arrays: Dict[str, ArrayInfo],
    scalars: Dict[str, object],
    local_data: Dict[str, np.ndarray],
    label: str,
) -> Forall:
    """Lower one forall statement to the Forall IR (see module docstring)."""
    return ForallLowerer(stmt, table, arrays, scalars, local_data, label).build()
