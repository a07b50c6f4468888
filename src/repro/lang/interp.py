"""The Kali program interpreter.

A compiled program runs as one SPMD launch on the simulated machine:
every rank interprets the *same* sequential statements over replicated
scalar state (the classic SPMD discipline for non-parallel code), and
``forall`` statements are lowered to the Forall IR (once per parameter
fingerprint, shared by the ranks) and dispatched through the same
inspector/executor runtime as the embedded Python API — one runtime, two
front ends.

Global-name-space element access works in sequential code too (the
paper's titular promise of "direct access to remote parts of data
values"): reading ``A[k]`` outside a forall broadcasts the element from
its owner; writing it updates the owner's storage (all ranks evaluate the
replicated right-hand side, so no message is needed).

Usage::

    prog = compile_kali(source)
    result = prog.run(nprocs=8, machine=NCUBE7,
                      inputs={"adj": adj, "coef": coef},
                      consts={"n": 4096})
    result.arrays["a"]        # final global contents
    result.timing             # KaliRunResult (inspector/executor times)
    result.output             # print() lines from rank 0
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.comm.collectives import bcast
from repro.core.context import KaliContext, KaliRank, KaliRunResult
from repro.core.forall import Forall
from repro.distributions.base import DimDistribution
from repro.distributions.block import Block
from repro.distributions.block_cyclic import BlockCyclic
from repro.distributions.cyclic import Cyclic
from repro.distributions.replicated import Replicated
from repro.errors import KaliRuntimeError, KaliSemanticError
from repro.lang import ast
from repro.lang.lower import ArrayInfo, fingerprint_names, lower_forall, rank_forall
from repro.lang.parser import parse
from repro.lang.sema import SymbolTable, analyze
from repro.machine.cost import MachineModel, NCUBE7
from repro.util.store import LRU


@dataclass
class KaliLangResult:
    """Outcome of one Kali program run."""

    arrays: Dict[str, np.ndarray]
    scalars: Dict[str, object]
    timing: KaliRunResult
    output: List[str]


class CompiledKali:
    """A parsed, semantically checked Kali program, ready to run.

    Read-only once built: ``run`` keeps its per-run state elsewhere, so
    one instance serves every run (``compile_kali`` shares it)."""

    def __init__(self, source: str):
        self.source = source
        self.program = parse(source)
        self.table: SymbolTable = analyze(self.program)

    # --- instantiation helpers --------------------------------------------

    def _eval_static(self, expr: ast.Expr, consts: Dict[str, object], line: int):
        """Evaluate a declaration-time expression over consts."""
        if isinstance(expr, ast.NumLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.Name):
            if expr.ident not in consts:
                raise KaliSemanticError(
                    f"{expr.ident!r} has no value at declaration time "
                    "(supply it via run(consts=...))",
                    line,
                )
            return consts[expr.ident]
        if isinstance(expr, ast.UnOp):
            v = self._eval_static(expr.operand, consts, line)
            return (not v) if expr.op == "not" else -v
        if isinstance(expr, ast.BinOp):
            from repro.lang.lower import _binop

            return _binop(
                expr.op,
                self._eval_static(expr.left, consts, line),
                self._eval_static(expr.right, consts, line),
            )
        if isinstance(expr, ast.Call):
            from repro.lang.lower import _call

            return _call(
                expr.func,
                [self._eval_static(a, consts, line) for a in expr.args],
            )
        raise KaliSemanticError("unsupported declaration-time expression", line)

    def _dist_spec(self, pattern: ast.DistPattern, consts) -> DimDistribution:
        if pattern.kind == "block":
            return Block()
        if pattern.kind == "cyclic":
            return Cyclic()
        if pattern.kind == "block_cyclic":
            size = int(self._eval_static(pattern.param, consts, pattern.line))
            return BlockCyclic(size)
        return Replicated()

    # --- the run entry ----------------------------------------------------------

    def run(
        self,
        nprocs: int,
        machine: MachineModel = NCUBE7,
        inputs: Optional[Dict[str, np.ndarray]] = None,
        consts: Optional[Dict[str, object]] = None,
        cache_enabled: bool = True,
        translation: str = "ranges",
        backend: str = "sim",
        pool=None,
        schedule_cache_dir: Optional[str] = None,
        tune=None,
    ) -> KaliLangResult:
        consts = dict(consts or {})
        inputs = dict(inputs or {})

        # 1. Resolve const declarations (in order, overridable by caller).
        for decl in self.program.decls:
            if isinstance(decl, ast.ConstDecl):
                if decl.name in consts:
                    continue
                if decl.value is None:
                    raise KaliSemanticError(
                        f"const {decl.name!r} has no value; supply one via "
                        "run(consts=...)",
                        decl.line,
                    )
                consts[decl.name] = self._eval_static(decl.value, consts, decl.line)

        # 2. The "real estate agent": bind processor-array sizes.
        for decl in self.program.decls:
            if isinstance(decl, ast.ProcessorsDecl):
                if decl.size_var:
                    pmin = int(self._eval_static(decl.min_expr, consts, decl.line))
                    pmax = int(self._eval_static(decl.max_expr, consts, decl.line))
                    if not (pmin <= nprocs <= pmax):
                        raise KaliRuntimeError(
                            f"processors {decl.name}: nprocs={nprocs} outside "
                            f"declared range {pmin}..{pmax}"
                        )
                    consts[decl.size_var] = nprocs
                else:
                    lo = int(self._eval_static(decl.lo, consts, decl.line))
                    hi = int(self._eval_static(decl.hi, consts, decl.line))
                    if hi - lo + 1 != nprocs:
                        raise KaliRuntimeError(
                            f"processors {decl.name} declared with fixed size "
                            f"{hi - lo + 1}, but nprocs={nprocs}"
                        )

        # 3. Declare arrays on a fresh context.
        ctx = KaliContext(
            nprocs,
            machine=machine,
            cache_enabled=cache_enabled,
            translation=translation,
            backend=backend,
            pool=pool,
            schedule_cache_dir=schedule_cache_dir,
            tune=tune,
        )
        array_infos: Dict[str, ArrayInfo] = {}
        for decl in self.program.decls:
            if not isinstance(decl, ast.VarDecl):
                continue
            if not isinstance(decl.type, ast.ArrayType):
                continue
            t = decl.type
            lbs, extents = [], []
            for lo_e, hi_e in t.ranges:
                lo = int(self._eval_static(lo_e, consts, t.line))
                hi = int(self._eval_static(hi_e, consts, t.line))
                lbs.append(lo)
                extents.append(hi - lo + 1)
            dtype = np.int64 if t.elem.kind == "integer" else (
                bool if t.elem.kind == "boolean" else np.float64
            )
            if t.dist is not None:
                dists = [self._dist_spec(p, consts) for p in t.dist]
            else:
                dists = [Replicated() for _ in t.ranges]
            for name in decl.names:
                ctx.array(name, tuple(extents), dist=[d._clone() for d in dists],
                          dtype=dtype)
                array_infos[name] = ArrayInfo(
                    name=name,
                    lower_bounds=tuple(lbs),
                    extents=tuple(extents),
                    distributed=t.dist is not None,
                    elem=t.elem.kind,
                )

        # 4. Initial contents.
        for name, values in inputs.items():
            if name not in ctx.arrays:
                raise KaliRuntimeError(f"input {name!r} is not a declared array")
            ctx.arrays[name].set(np.asarray(values))

        # 5. Run the interpreter SPMD.  Rank 0's program value carries the
        # final scalars and print output home — returned, not mutated, so
        # it crosses the process boundary on backend="mp" too.
        interp = _Interpreter(self, ctx, array_infos, consts)
        timing = ctx.run(interp.rank_program)

        scalars, output = timing.values[0] or ({}, [])
        return KaliLangResult(
            arrays={name: arr.data.copy() for name, arr in ctx.arrays.items()},
            scalars=scalars,
            timing=timing,
            output=output,
        )


class _Interpreter:
    """Per-run interpreter state (shared across ranks on the driver side;
    each rank interprets independently but identically)."""

    def __init__(self, compiled: CompiledKali, ctx: KaliContext,
                 arrays: Dict[str, ArrayInfo], consts: Dict[str, object]):
        self.compiled = compiled
        self.ctx = ctx
        self.arrays = arrays
        self.consts = consts
        #: print() lines from rank 0, returned as part of its rank value
        self.output: List[str] = []
        #: lowered IR per (statement, scalar fingerprint), for every rank
        #: this process runs: the analysis depends only on the AST, the
        #: symbol table and the (replicated) scalars
        self.lowered: Dict[Tuple, Forall] = {}
        #: per statement, the scalars its fingerprint reads
        self._fingerprint_names: Dict[int, Tuple[str, ...]] = {}

    # --- rank program --------------------------------------------------------

    def rank_program(self, kr: KaliRank) -> Generator:
        table = self.compiled.table
        scalars: Dict[str, object] = dict(self.consts)
        for name, sym in table.scalars.items():
            if name not in scalars:
                scalars[name] = (
                    False if sym.kind == "boolean"
                    else (0 if sym.kind == "integer" else 0.0)
                )
        #: this rank's view of ``self.lowered`` (its own replicated data)
        lowered_cache: Dict[Tuple, Forall] = {}

        yield from self._exec_block(
            self.compiled.program.stmts, kr, scalars, lowered_cache
        )
        if kr.id == 0:
            final_scalars = {
                k: v for k, v in scalars.items() if k in table.scalars
            }
            return final_scalars, self.output
        return None

    # --- statement execution -------------------------------------------------

    def _exec_block(self, stmts, kr, scalars, lowered_cache) -> Generator:
        for s in stmts:
            yield from self._exec_stmt(s, kr, scalars, lowered_cache)

    def _exec_stmt(self, s, kr, scalars, lowered_cache) -> Generator:
        if isinstance(s, ast.Assign):
            value = yield from self._eval(s.value, kr, scalars)
            yield from self._assign(s.target, value, kr, scalars)
        elif isinstance(s, ast.IfStmt):
            cond = yield from self._eval(s.cond, kr, scalars)
            body = s.then_body if cond else s.else_body
            yield from self._exec_block(body, kr, scalars, lowered_cache)
        elif isinstance(s, ast.WhileStmt):
            while True:
                cond = yield from self._eval(s.cond, kr, scalars)
                if not cond:
                    break
                yield from self._exec_block(s.body, kr, scalars, lowered_cache)
        elif isinstance(s, ast.ForStmt):
            lo = yield from self._eval(s.lo, kr, scalars)
            hi = yield from self._eval(s.hi, kr, scalars)
            saved = scalars.get(s.var, None)
            had = s.var in scalars
            for v in range(int(lo), int(hi) + 1):
                scalars[s.var] = v
                yield from self._exec_block(s.body, kr, scalars, lowered_cache)
            if had:
                scalars[s.var] = saved
            else:
                scalars.pop(s.var, None)
        elif isinstance(s, ast.ForallStmt):
            yield from self._exec_forall(s, kr, scalars, lowered_cache)
        elif isinstance(s, ast.RedistributeStmt):
            pattern = s.patterns[0]
            if pattern.kind == "block":
                from repro.distributions.block import Block as _B
                spec = _B()
            elif pattern.kind == "cyclic":
                from repro.distributions.cyclic import Cyclic as _C
                spec = _C()
            else:
                from repro.distributions.block_cyclic import BlockCyclic as _BC
                size = yield from self._eval(pattern.param, kr, scalars)
                spec = _BC(int(size))
            yield from kr.redistribute(s.array, spec)
        elif isinstance(s, ast.PrintStmt):
            parts = []
            for a in s.args:
                v = yield from self._eval(a, kr, scalars)
                parts.append(v if isinstance(v, str) else _format_value(v))
            if kr.id == 0:
                self.output.append(" ".join(str(p) for p in parts))
        else:  # pragma: no cover
            raise KaliRuntimeError(f"unknown statement {s!r}")

    def _exec_forall(self, s: ast.ForallStmt, kr, scalars, lowered_cache) -> Generator:
        names = self._fingerprint_names.get(id(s))
        if names is None:
            names = self._fingerprint_names[id(s)] = fingerprint_names(
                s, self.compiled.table)
        fp = tuple((n, scalars.get(n)) for n in names)
        key = (id(s), fp)
        ir = lowered_cache.get(key)
        if ir is None:
            replicated_data = {
                name: kr.env[name].data
                for name, info in self.arrays.items()
                if not info.distributed
            }
            shared = self.lowered.get(key)
            if shared is not None:
                ir = rank_forall(shared, replicated_data)
            else:
                # The label is hashed into disk-cache keys, so it must not
                # depend on the process (``hash`` of strings is salted).
                digest = hashlib.blake2b(repr(fp).encode(), digest_size=8).hexdigest()
                label = f"forall@L{s.line}" + (f"/{digest}" if fp else "")
                ir = self.lowered[key] = lower_forall(
                    s, self.compiled.table, self.arrays, scalars,
                    replicated_data, label,
                )
            lowered_cache[key] = ir
        reduced = yield from kr.forall(ir)
        # Fold reduction results into the replicated scalars:
        # x := x + e  ->  x = x + sum(e over all iterations), etc.
        if reduced:
            from repro.core.forall import REDUCE_OPS

            for spec in ir.reductions:
                op_fn, _ident = REDUCE_OPS[spec.op]
                scalars[spec.name] = op_fn(scalars[spec.name], reduced[spec.name])

    # --- sequential assignment ----------------------------------------------------

    def _assign(self, target, value, kr, scalars) -> Generator:
        if isinstance(target, ast.Name):
            scalars[target.ident] = value
            return
        info = self.arrays[target.base]
        subs = []
        for sub in target.subs:
            v = yield from self._eval(sub, kr, scalars)
            subs.append(int(v))
        idx0 = tuple(v - lb for v, lb in zip(subs, info.lower_bounds))
        for v, extent in zip(idx0, info.extents):
            if not (0 <= v < extent):
                raise KaliRuntimeError(
                    f"{target.base}[{subs}] out of declared bounds"
                )
        local = kr.env[target.base]
        if not info.distributed:
            local.data[idx0] = value
            local.version += 1
            return
        # Distributed: only the owner stores; everyone evaluated the value.
        dim0 = local.dist.dims[0]
        if int(dim0.owner(idx0[0])) == kr.id:
            row = int(dim0.to_local(idx0[0]))
            if len(idx0) == 1:
                local.data[row] = value
            else:
                local.data[(row,) + idx0[1:]] = value
        local.version += 1

    # --- expression evaluation -------------------------------------------------------

    def _eval(self, expr: ast.Expr, kr, scalars) -> Generator:
        if isinstance(expr, ast.NumLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.StrLit):
            return expr.value
        if isinstance(expr, ast.Name):
            if expr.ident in scalars:
                return scalars[expr.ident]
            raise KaliRuntimeError(f"no value for {expr.ident!r}")
        if isinstance(expr, ast.UnOp):
            v = yield from self._eval(expr.operand, kr, scalars)
            return (not v) if expr.op == "not" else -v
        if isinstance(expr, ast.BinOp):
            from repro.lang.lower import _binop

            left = yield from self._eval(expr.left, kr, scalars)
            right = yield from self._eval(expr.right, kr, scalars)
            return _binop(expr.op, left, right)
        if isinstance(expr, ast.Call):
            from repro.lang.lower import _call

            args = []
            for a in expr.args:
                v = yield from self._eval(a, kr, scalars)
                args.append(v)
            return _call(expr.func, args)
        if isinstance(expr, ast.Index):
            return (yield from self._read_element(expr, kr, scalars))
        raise KaliRuntimeError(f"unknown expression {expr!r}")

    def _read_element(self, expr: ast.Index, kr, scalars) -> Generator:
        """Global-name-space element read in sequential code.

        Replicated arrays read locally; distributed elements are
        broadcast from their owner (one log-P message pattern) — the
        direct "access to remote parts of data values" of the abstract.
        """
        info = self.arrays[expr.base]
        subs = []
        for sub in expr.subs:
            v = yield from self._eval(sub, kr, scalars)
            subs.append(int(v))
        idx0 = tuple(v - lb for v, lb in zip(subs, info.lower_bounds))
        for v, extent in zip(idx0, info.extents):
            if not (0 <= v < extent):
                raise KaliRuntimeError(f"{expr.base}[{subs}] out of bounds")
        local = kr.env[expr.base]
        if not info.distributed:
            return _as_python(local.data[idx0])
        dim0 = local.dist.dims[0]
        owner = int(dim0.owner(idx0[0]))
        value = None
        if owner == kr.id:
            row = int(dim0.to_local(idx0[0]))
            cell = local.data[row] if len(idx0) == 1 else local.data[(row,) + idx0[1:]]
            value = _as_python(cell)
        value = yield from bcast(
            kr.rank, value, root=owner, tag=kr._next_coll_tag(), phase="seq-read"
        )
        return value


def _as_python(v):
    if isinstance(v, np.generic):
        return v.item()
    return v


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


#: most compiled programs one process keeps (see ``compile_kali``)
COMPILED_ENTRIES = 32

#: this process's compiled programs by source text, shared by every
#: caller (serve shards compile in threads: the LRU is locked)
_COMPILED = LRU(COMPILED_ENTRIES)


def compile_kali(source: str) -> CompiledKali:
    """Parse and semantically check Kali source; returns a runnable program.

    A source compiles once per process: the program is kept, by source
    text, in a bounded LRU and handed to every later caller — a
    ``CompiledKali`` is not changed by running it (``run`` only reads
    the AST and the symbol table).  A source that fails to compile is
    not kept, so it raises on every call."""
    compiled = _COMPILED.get(source)
    if compiled is None:
        compiled = _COMPILED[source] = CompiledKali(source)
    return compiled
