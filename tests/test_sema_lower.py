"""Tests for semantic analysis and forall lowering."""

import numpy as np
import pytest

from repro.errors import KaliSemanticError
from repro.lang.lower import affine_of, forall_fingerprint
from repro.lang.parser import parse
from repro.lang.sema import analyze
from repro.lang import ast

HEADER = (
    "processors Procs : array[1..P] with P in 1..8;\n"
    "var A, B : array[1..16] of real dist by [block] on Procs;\n"
    "var T : array[1..16, 1..3] of integer dist by [block, *] on Procs;\n"
    "var R : array[1..4] of real;\n"
    "var x : real; k : integer;\n"
    "const c : integer := 3;\n"
)


def check(body: str, header: str = HEADER):
    return analyze(parse(header + body))


class TestSemaDeclarations:
    def test_symbols_collected(self):
        table = check("")
        assert set(table.procs) == {"Procs"}
        assert {"A", "B", "T", "R"} <= set(table.arrays)
        assert {"x", "k", "c", "P"} <= set(table.scalars)
        assert table.scalars["c"].is_const
        assert not table.arrays["R"].distributed

    def test_duplicate_declaration(self):
        with pytest.raises(KaliSemanticError):
            check("", header=HEADER + "var A : real;\n")

    def test_dist_without_on(self):
        with pytest.raises(KaliSemanticError):
            analyze(parse(
                "processors Procs : array[1..2];\n"
                "var Z : array[1..4] of real dist by [block] on Nope;"
            ))

    def test_dist_count_mismatch(self):
        with pytest.raises(KaliSemanticError):
            analyze(parse(
                "processors Procs : array[1..2];\n"
                "var Z : array[1..4, 1..4] of real dist by [block] on Procs;"
            ))

    def test_two_distributed_dims_rejected(self):
        with pytest.raises(KaliSemanticError):
            analyze(parse(
                "processors Procs : array[1..2];\n"
                "var Z : array[1..4, 1..4] of real dist by [block, cyclic] on Procs;"
            ))

    def test_star_first_dim_rejected(self):
        with pytest.raises(KaliSemanticError):
            analyze(parse(
                "processors Procs : array[1..2];\n"
                "var Z : array[1..4, 1..4] of real dist by [*, block] on Procs;"
            ))


class TestSemaStatements:
    def test_undeclared_name(self):
        with pytest.raises(KaliSemanticError):
            check("x := nosuch;")

    def test_assign_to_const(self):
        with pytest.raises(KaliSemanticError):
            check("c := 4;")

    def test_array_without_subscript(self):
        with pytest.raises(KaliSemanticError):
            check("x := A;")

    def test_wrong_arity(self):
        with pytest.raises(KaliSemanticError):
            check("x := A[1, 2];")
        with pytest.raises(KaliSemanticError):
            check("x := T[1];")

    def test_global_scalar_write_in_forall(self):
        with pytest.raises(KaliSemanticError) as exc:
            check("forall i in 1..16 on A[i].loc do x := 1.0; end;")
        assert "races" in str(exc.value)

    def test_local_var_write_in_forall_ok(self):
        check(
            "forall i in 1..16 on A[i].loc do\n"
            "  var t : real;\n"
            "  t := 1.0; A[i] := t;\n"
            "end;"
        )

    def test_nested_forall_rejected(self):
        with pytest.raises(KaliSemanticError):
            check(
                "forall i in 1..16 on A[i].loc do\n"
                "  forall j in 1..16 on B[j].loc do B[j] := 0.0; end;\n"
                "end;"
            )

    def test_while_inside_forall_rejected(self):
        with pytest.raises(KaliSemanticError):
            check(
                "forall i in 1..16 on A[i].loc do\n"
                "  while x > 0.0 do A[i] := 0.0; end;\n"
                "end;"
            )

    def test_forall_on_undistributed_rejected(self):
        with pytest.raises(KaliSemanticError):
            check("forall i in 1..4 on R[i].loc do R[i] := 0.0; end;")

    def test_forall_local_array_rejected(self):
        with pytest.raises(KaliSemanticError):
            check(
                "forall i in 1..16 on A[i].loc do\n"
                "  var t : array[1..2] of real;\n"
                "  A[i] := 0.0;\n"
                "end;"
            )

    def test_for_var_scoped(self):
        check("for j in 1..3 do x := x + 1.0; end;")

    @pytest.mark.parametrize("call", ["max(x)", "min(x, x, x)", "abs(x, x)", "sqrt(x, 2.0)"])
    def test_builtin_arity(self, call):
        with pytest.raises(KaliSemanticError, match="argument"):
            check(f"x := {call};")


class TestAffineExtraction:
    def _expr(self, text):
        prog = parse(HEADER + f"k := {text};")
        return prog.stmts[0].value

    def test_constant(self):
        assert affine_of(self._expr("7"), "i", {}) == (0, 7)

    def test_var(self):
        assert affine_of(ast.Name("i"), "i", {}) == (1, 0)

    def test_shift(self):
        assert affine_of(self._expr("i + 1"), "i", {"i": None}) == (1, 1)

    def test_general(self):
        # 2*i - 3 + c with c = 3
        e = self._expr("2 * i - 3 + c")
        assert affine_of(e, "i", {"c": 3}) == (2, 0)

    def test_negated(self):
        e = self._expr("-(i - 4)")
        assert affine_of(e, "i", {}) == (-1, 4)

    def test_scalar_fold(self):
        e = self._expr("k * i")
        assert affine_of(e, "i", {"k": 5}) == (5, 0)

    def test_nonlinear_rejected(self):
        e = self._expr("i * i")
        assert affine_of(e, "i", {}) is None

    def test_unknown_name_rejected(self):
        e = self._expr("i + q")
        assert affine_of(e, "i", {}) is None

    def test_div_constant_fold(self):
        e = self._expr("7 div 2")
        assert affine_of(e, "i", {}) == (0, 3)

    def test_div_of_var_rejected(self):
        e = self._expr("i div 2")
        assert affine_of(e, "i", {}) is None


class TestFingerprint:
    def _forall(self, src):
        prog = parse(HEADER + src)
        table = analyze(prog)
        stmt = prog.stmts[-1]
        return stmt, table

    def test_depends_on_referenced_scalars(self):
        stmt, table = self._forall(
            "forall i in 1..k on A[i].loc do A[i] := x; end;"
        )
        f1 = forall_fingerprint(stmt, table, {"k": 8, "x": 1.0})
        f2 = forall_fingerprint(stmt, table, {"k": 9, "x": 1.0})
        f3 = forall_fingerprint(stmt, table, {"k": 8, "x": 1.0, "unrelated": 7})
        assert f1 != f2
        assert f1 == f3

    def test_inner_loop_bounds_included(self):
        stmt, table = self._forall(
            "forall i in 1..16 on A[i].loc do\n"
            "  var t : real;\n"
            "  for j in 1..k do t := t + 1.0; end;\n"
            "  A[i] := t;\n"
            "end;"
        )
        assert forall_fingerprint(stmt, table, {"k": 2}) != forall_fingerprint(
            stmt, table, {"k": 3}
        )
