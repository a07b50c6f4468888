"""Semantic analysis: symbol table construction and static checking.

Checks performed before any execution:

* every name is declared exactly once and used consistently,
* subscript arity matches the declared array rank,
* ``dist`` clauses name a declared processor array and have as many
  non-``*`` patterns as the processor array has dimensions (paper §2.2),
* forall ``on`` clauses name a distributed array (or the processor array),
* writes inside a forall target distributed arrays or forall-local
  variables, never global scalars (which are replicated — a global scalar
  write from concurrent iterations would race),
* inner ``for`` loops inside foralls and statement nesting are well formed.

Array bounds and distribution parameters may be expressions over consts;
they are evaluated at program instantiation, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import KaliSemanticError
from repro.lang import ast


@dataclass
class ProcSymbol:
    name: str
    decl: ast.ProcessorsDecl


@dataclass
class ArraySymbol:
    name: str
    rank: int
    elem: str  # real | integer | boolean
    dist: Optional[List[ast.DistPattern]]
    on_procs: Optional[str]
    decl_type: ast.ArrayType

    @property
    def distributed(self) -> bool:
        return self.dist is not None


@dataclass
class ScalarSymbol:
    name: str
    kind: str
    is_const: bool
    value: Optional[ast.Expr] = None


@dataclass
class SymbolTable:
    procs: Dict[str, ProcSymbol] = field(default_factory=dict)
    arrays: Dict[str, ArraySymbol] = field(default_factory=dict)
    scalars: Dict[str, ScalarSymbol] = field(default_factory=dict)

    def declare(self, name: str, line: int) -> None:
        if name in self.procs or name in self.arrays or name in self.scalars:
            raise KaliSemanticError(f"{name!r} is already declared", line)

    def kind_of(self, name: str) -> str:
        if name in self.procs:
            return "procs"
        if name in self.arrays:
            return "array"
        if name in self.scalars:
            return "scalar"
        return "undeclared"


class Analyzer:
    def __init__(self, program: ast.Program):
        self.program = program
        self.table = SymbolTable()

    # --- entry ------------------------------------------------------------

    def analyze(self) -> SymbolTable:
        for decl in self.program.decls:
            self._declare(decl)
        for stmt in self.program.stmts:
            self._check_stmt(stmt, local_vars=set(), in_forall=False)
        return self.table

    # --- declarations -------------------------------------------------------

    def _declare(self, decl: ast.Decl) -> None:
        if isinstance(decl, ast.ProcessorsDecl):
            self.table.declare(decl.name, decl.line)
            self.table.procs[decl.name] = ProcSymbol(decl.name, decl)
            if decl.size_var:
                self.table.declare(decl.size_var, decl.line)
                self.table.scalars[decl.size_var] = ScalarSymbol(
                    decl.size_var, "integer", is_const=True
                )
        elif isinstance(decl, ast.VarDecl):
            for name in decl.names:
                self.table.declare(name, decl.line)
                if isinstance(decl.type, ast.ArrayType):
                    self._check_array_type(decl.type, name)
                    self.table.arrays[name] = ArraySymbol(
                        name=name,
                        rank=len(decl.type.ranges),
                        elem=decl.type.elem.kind,
                        dist=decl.type.dist,
                        on_procs=decl.type.on_procs,
                        decl_type=decl.type,
                    )
                else:
                    self.table.scalars[name] = ScalarSymbol(
                        name, decl.type.kind, is_const=False
                    )
        elif isinstance(decl, ast.ConstDecl):
            self.table.declare(decl.name, decl.line)
            kind = decl.type.kind if decl.type else "integer"
            self.table.scalars[decl.name] = ScalarSymbol(
                decl.name, kind, is_const=True, value=decl.value
            )
        else:  # pragma: no cover - parser produces only the above
            raise KaliSemanticError(f"unknown declaration {decl!r}", decl.line)

    def _check_array_type(self, t: ast.ArrayType, name: str) -> None:
        if t.dist is not None:
            if t.on_procs is None:
                raise KaliSemanticError(
                    f"array {name!r}: dist clause needs an 'on' processor array",
                    t.line,
                )
            if t.on_procs not in self.table.procs:
                raise KaliSemanticError(
                    f"array {name!r}: unknown processor array {t.on_procs!r}",
                    t.line,
                )
            if len(t.dist) != len(t.ranges):
                raise KaliSemanticError(
                    f"array {name!r}: {len(t.ranges)}-d array needs "
                    f"{len(t.ranges)} distribution patterns, got {len(t.dist)}",
                    t.line,
                )
            non_star = [p for p in t.dist if p.kind != "*"]
            if len(non_star) != 1:
                # 1-d processor arrays (the paper's evaluation setting):
                # exactly one distributed dimension.
                raise KaliSemanticError(
                    f"array {name!r}: exactly one non-'*' pattern is "
                    "supported (1-d processor arrays)",
                    t.line,
                )
            if t.dist[0].kind == "*":
                raise KaliSemanticError(
                    f"array {name!r}: the first dimension must be the "
                    "distributed one",
                    t.line,
                )

    # --- statements ----------------------------------------------------------

    def _check_stmt(self, stmt: ast.Stmt, local_vars: Set[str], in_forall: bool) -> None:
        if isinstance(stmt, ast.Assign):
            self._check_assign(stmt, local_vars, in_forall)
        elif isinstance(stmt, ast.IfStmt):
            self._check_expr(stmt.cond, local_vars)
            for s in stmt.then_body:
                self._check_stmt(s, local_vars, in_forall)
            for s in stmt.else_body:
                self._check_stmt(s, local_vars, in_forall)
        elif isinstance(stmt, ast.WhileStmt):
            if in_forall:
                raise KaliSemanticError(
                    "while loops are not allowed inside forall bodies "
                    "(bodies must be bounded for vectorisation)",
                    stmt.line,
                )
            self._check_expr(stmt.cond, local_vars)
            for s in stmt.body:
                self._check_stmt(s, local_vars, in_forall)
        elif isinstance(stmt, ast.ForStmt):
            self._check_expr(stmt.lo, local_vars)
            self._check_expr(stmt.hi, local_vars)
            inner = set(local_vars) | {stmt.var}
            for s in stmt.body:
                self._check_stmt(s, inner, in_forall)
        elif isinstance(stmt, ast.ForallStmt):
            if in_forall:
                raise KaliSemanticError(
                    "nested foralls are not supported", stmt.line
                )
            self._check_forall(stmt)
        elif isinstance(stmt, ast.PrintStmt):
            for a in stmt.args:
                self._check_expr(a, local_vars)
        elif isinstance(stmt, ast.RedistributeStmt):
            if in_forall:
                raise KaliSemanticError(
                    "redistribute is not allowed inside forall bodies",
                    stmt.line,
                )
            arr = self.table.arrays.get(stmt.array)
            if arr is None or not arr.distributed:
                raise KaliSemanticError(
                    f"redistribute target {stmt.array!r} must be a "
                    "distributed array",
                    stmt.line,
                )
            if len(stmt.patterns) != arr.rank:
                raise KaliSemanticError(
                    f"redistribute {stmt.array!r}: need {arr.rank} patterns",
                    stmt.line,
                )
            if stmt.patterns[0].kind == "*" or any(
                p.kind != "*" for p in stmt.patterns[1:]
            ):
                raise KaliSemanticError(
                    f"redistribute {stmt.array!r}: the first pattern must be "
                    "the distributed one and trailing patterns must be '*'",
                    stmt.line,
                )
        else:  # pragma: no cover
            raise KaliSemanticError(f"unknown statement {stmt!r}", stmt.line)

    def _check_assign(self, stmt: ast.Assign, local_vars: Set[str], in_forall: bool) -> None:
        self._check_expr(stmt.value, local_vars)
        target = stmt.target
        if isinstance(target, ast.Name):
            name = target.ident
            if name in local_vars:
                return
            sym = self.table.scalars.get(name)
            if sym is None:
                raise KaliSemanticError(
                    f"assignment to undeclared variable {name!r}", stmt.line
                )
            if sym.is_const:
                raise KaliSemanticError(
                    f"cannot assign to constant {name!r}", stmt.line
                )
            if in_forall:
                red = ast.match_reduction(stmt)
                if red is None:
                    raise KaliSemanticError(
                        f"assignment to global scalar {name!r} inside a "
                        "forall races across iterations; declare it in the "
                        "forall header, or use a reduction shape "
                        "(x := x + e / x := max(x, e))",
                        stmt.line,
                    )
                _var, _op, contrib = red
                for node in ast.walk_exprs(contrib):
                    if isinstance(node, ast.Name) and node.ident == name:
                        raise KaliSemanticError(
                            f"reduction contribution may not read {name!r}",
                            stmt.line,
                        )
        elif isinstance(target, ast.Index):
            arr = self.table.arrays.get(target.base)
            if arr is None:
                raise KaliSemanticError(
                    f"assignment to undeclared array {target.base!r}", stmt.line
                )
            if len(target.subs) != arr.rank:
                raise KaliSemanticError(
                    f"array {target.base!r} has rank {arr.rank}, "
                    f"got {len(target.subs)} subscripts",
                    stmt.line,
                )
            for s in target.subs:
                self._check_expr(s, local_vars)
        else:  # pragma: no cover
            raise KaliSemanticError("bad assignment target", stmt.line)

    def _check_forall(self, stmt: ast.ForallStmt) -> None:
        self._check_expr(stmt.lo, set())
        self._check_expr(stmt.hi, set())
        if stmt.direct:
            if stmt.on_array not in self.table.procs:
                raise KaliSemanticError(
                    f"forall on-clause {stmt.on_array!r} is neither "
                    "'array[expr].loc' nor a processor array",
                    stmt.line,
                )
        else:
            arr = self.table.arrays.get(stmt.on_array)
            if arr is None:
                raise KaliSemanticError(
                    f"forall on-clause names unknown array {stmt.on_array!r}",
                    stmt.line,
                )
            if not arr.distributed:
                raise KaliSemanticError(
                    f"forall on-clause array {stmt.on_array!r} is not "
                    "distributed",
                    stmt.line,
                )
        locals_ = {stmt.var}
        for decl in stmt.local_decls:
            if isinstance(decl.type, ast.ArrayType):
                raise KaliSemanticError(
                    "forall-local variables must be scalars", decl.line
                )
            for name in decl.names:
                if name in locals_:
                    raise KaliSemanticError(
                        f"duplicate forall-local variable {name!r}", decl.line
                    )
                locals_.add(name)
        self._check_expr(stmt.on_sub, locals_)
        for s in stmt.body:
            self._check_stmt(s, locals_, in_forall=True)

    # --- expressions -------------------------------------------------------------

    def _check_expr(self, expr: ast.Expr, local_vars: Set[str]) -> None:
        if expr is None:
            return
        for node in ast.walk_exprs(expr):
            if isinstance(node, ast.Name):
                name = node.ident
                if name in local_vars:
                    continue
                kind = self.table.kind_of(name)
                if kind == "undeclared":
                    raise KaliSemanticError(f"undeclared name {name!r}", node.line)
                if kind == "array":
                    raise KaliSemanticError(
                        f"array {name!r} used without subscripts", node.line
                    )
            elif isinstance(node, ast.Index):
                arr = self.table.arrays.get(node.base)
                if arr is None:
                    raise KaliSemanticError(
                        f"subscripted name {node.base!r} is not an array",
                        node.line,
                    )
                if len(node.subs) != arr.rank:
                    raise KaliSemanticError(
                        f"array {node.base!r} has rank {arr.rank}, got "
                        f"{len(node.subs)} subscripts",
                        node.line,
                    )
            elif isinstance(node, ast.Call):
                want = 2 if node.func in ("min", "max") else 1
                if len(node.args) != want:
                    raise KaliSemanticError(
                        f"{node.func}() takes {want} argument(s), got "
                        f"{len(node.args)}",
                        node.line,
                    )


def analyze(program: ast.Program) -> SymbolTable:
    """Run semantic checking; returns the symbol table."""
    return Analyzer(program).analyze()
