"""The AST-walking forall kernel, kept as the reference model.

Before kernels were generated as source, ``repro/lang/lower.py`` ran a
forall body through this closure: ``evaluate`` recursed over the AST
with an ``isinstance`` ladder per node on every call, and ``run_stmts``
walked the statements with masks.  It defines what a lowered body
means, so the differential tests hold the generated kernel to it byte
for byte.

:func:`reference_kernel` builds it from a :class:`ForallLowerer` that
has run ``build()``, i.e. from the very analysis (read plans, keys,
conditional writes, reductions) the generated kernel was emitted from.
Its operators ``_binop`` / ``_call`` are kept here as they were too.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.core.forall import IndirectOperand
from repro.errors import KaliSemanticError
from repro.lang import ast
from repro.lang.lower import ForallLowerer


def _column(rows: np.ndarray, col, n: int) -> np.ndarray:
    if np.ndim(col) == 0:
        return rows[:, int(col)]
    return rows[np.arange(n), np.asarray(col)]


def _as_index(value):
    if isinstance(value, np.ndarray):
        return value.astype(np.int64)
    return int(value)


def _binop(op: str, left, right):
    vector = isinstance(left, np.ndarray) or isinstance(right, np.ndarray)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return np.true_divide(left, right) if vector else left / right
    if op == "div":
        return left // right
    if op == "mod":
        return left % right
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "and":
        return np.logical_and(left, right) if vector else (left and right)
    if op == "or":
        return np.logical_or(left, right) if vector else (left or right)
    raise AssertionError(f"unknown operator {op}")


def _call(func: str, args):
    if func == "abs":
        return np.abs(args[0]) if isinstance(args[0], np.ndarray) else abs(args[0])
    if func == "min":
        return np.minimum(args[0], args[1])
    if func == "max":
        return np.maximum(args[0], args[1])
    if func == "float":
        return (
            np.asarray(args[0], dtype=np.float64)
            if isinstance(args[0], np.ndarray)
            else float(args[0])
        )
    if func == "trunc":
        return (
            np.trunc(args[0]).astype(np.int64)
            if isinstance(args[0], np.ndarray)
            else int(args[0])
        )
    if func == "sqrt":
        return np.sqrt(args[0])
    raise KaliSemanticError(f"unknown built-in function {func!r}")


def reference_kernel(lowerer: ForallLowerer) -> Callable:
    stmt = lowerer.stmt
    plans = lowerer.read_plans
    scalars = dict(lowerer.scalars)
    local_data = lowerer.local_data
    arrays = lowerer.arrays
    var = stmt.var
    delta = lowerer.delta if lowerer.delta is not None else 0
    writes_aff = dict(lowerer.writes)
    write_conditional = dict(lowerer.write_conditional)
    affine_keys = dict(lowerer.affine_reads)
    local_names = [n for d in stmt.local_decls for n in d.names]
    reductions = dict(lowerer.reductions)
    reduction_stmts = dict(lowerer.reduction_stmts)
    table_scalars = set(lowerer.table.scalars)
    _identity = {"sum": 0.0, "max": float("-inf"), "min": float("inf")}

    def kernel(iters: np.ndarray, ops: Dict[str, object]):
        n = int(iters.size)
        venv: Dict[str, object] = {var: iters + delta}  # Kali coordinates
        for name in local_names:
            venv[name] = np.zeros(n)
        wvals: Dict[str, np.ndarray] = {}
        wmask: Dict[str, np.ndarray] = {}
        rvals: Dict[str, np.ndarray] = {
            rname: np.full(n, _identity[op]) for rname, op in reductions.items()
        }

        def fetch(node: ast.Index, mask):
            plan = plans[id(node)]
            if plan.kind == "replicated":
                data = local_data[node.base]
                info = arrays[node.base]
                idx = tuple(
                    _as_index(evaluate(sub, mask)) - lb
                    for sub, lb in zip(node.subs, info.lower_bounds)
                )
                return data[idx]
            if plan.kind == "affine":
                return ops[plan.key]
            if plan.kind == "row":
                rows = ops[plan.key]
                col = _as_index(evaluate(plan.col_expr, mask)) - plan.col_lb
                return _column(rows, col, n)
            operand: IndirectOperand = ops[plan.key]
            if plan.col_expr is None:
                return operand.values[:, 0]
            col = _as_index(evaluate(plan.col_expr, mask)) - plan.col_lb
            return _column(operand.values, col, n)

        def evaluate(expr: ast.Expr, mask):
            if isinstance(expr, ast.NumLit):
                return expr.value
            if isinstance(expr, ast.BoolLit):
                return expr.value
            if isinstance(expr, ast.Name):
                if expr.ident in venv:
                    return venv[expr.ident]
                return scalars[expr.ident]
            if isinstance(expr, ast.Index):
                return fetch(expr, mask)
            if isinstance(expr, ast.UnOp):
                v = evaluate(expr.operand, mask)
                if expr.op == "not":
                    return np.logical_not(v)
                return -np.asarray(v) if isinstance(v, np.ndarray) else -v
            if isinstance(expr, ast.BinOp):
                return _binop(
                    expr.op, evaluate(expr.left, mask), evaluate(expr.right, mask)
                )
            if isinstance(expr, ast.Call):
                return _call(expr.func, [evaluate(a, mask) for a in expr.args])
            raise AssertionError(f"bad kernel expression {expr!r}")

        def assign(target, value, mask):
            value = np.asarray(value)
            if value.ndim == 0:
                value = np.broadcast_to(value, (n,))
            if isinstance(target, ast.Name):
                old = np.asarray(venv[target.ident])
                if old.ndim == 0:
                    old = np.broadcast_to(old, (n,))
                venv[target.ident] = np.where(mask, value, old)
                return
            name = target.base
            if name not in wvals:
                dtype = np.int64 if arrays[name].elem == "integer" else np.float64
                wvals[name] = np.zeros(n, dtype=dtype)
                wmask[name] = np.zeros(n, dtype=bool)
            wvals[name] = np.where(mask, value, wvals[name])
            wmask[name] = wmask[name] | mask

        def fold_reduction(stmt_id, mask):
            rname, contrib = reduction_stmts[stmt_id]
            op = reductions[rname]
            c = np.asarray(evaluate(contrib, mask), dtype=np.float64)
            if c.ndim == 0:
                c = np.broadcast_to(c, (n,))
            cur = rvals[rname]
            if op == "sum":
                rvals[rname] = np.where(mask, cur + c, cur)
            elif op == "max":
                rvals[rname] = np.where(mask & (c > cur), c, cur)
            else:
                rvals[rname] = np.where(mask & (c < cur), c, cur)

        def run_stmts(stmts, mask):
            for s in stmts:
                if isinstance(s, ast.Assign):
                    if (
                        isinstance(s.target, ast.Name)
                        and s.target.ident in table_scalars
                    ):
                        fold_reduction(id(s), mask)
                        continue
                    assign(s.target, evaluate(s.value, mask), mask)
                elif isinstance(s, ast.IfStmt):
                    cond = np.broadcast_to(
                        np.asarray(evaluate(s.cond, mask), dtype=bool), (n,)
                    )
                    if (mask & cond).any():
                        run_stmts(s.then_body, mask & cond)
                    if s.else_body and (mask & ~cond).any():
                        run_stmts(s.else_body, mask & ~cond)
                elif isinstance(s, ast.ForStmt):
                    lo_v = np.asarray(evaluate(s.lo, mask))
                    hi_v = np.asarray(evaluate(s.hi, mask))
                    if lo_v.ndim and (lo_v != lo_v.flat[0]).any():
                        raise KaliSemanticError(
                            "inner for lower bound must be uniform", s.line
                        )
                    lo_i = int(lo_v.flat[0]) if lo_v.ndim else int(lo_v)
                    hi_vec = np.broadcast_to(hi_v, (n,))
                    hi_max = int(hi_vec.max()) if n else lo_i - 1
                    for j in range(lo_i, hi_max + 1):
                        venv[s.var] = j
                        live = mask & (j <= hi_vec)
                        if live.any():
                            run_stmts(s.body, live)
                    venv.pop(s.var, None)
                else:  # pragma: no cover - rejected during analysis
                    raise AssertionError(s)

        if n:
            run_stmts(stmt.body, np.ones(n, dtype=bool))

        out: Dict[str, np.ndarray] = {}
        for name, aff in writes_aff.items():
            vals = wvals.get(name)
            m = wmask.get(name)
            if vals is None:
                dtype = np.int64 if arrays[name].elem == "integer" else np.float64
                vals = np.zeros(n, dtype=dtype)
                m = np.zeros(n, dtype=bool)
            if write_conditional.get(name) and not m.all():
                key = affine_keys[(name, aff[0], aff[1])]
                vals = np.where(m, vals, ops[key])
            out[name] = vals
        for rname in reductions:
            out[rname] = rvals[rname]
        if len(out) == 1 and not reductions:
            return next(iter(out.values()))
        return out

    return kernel
