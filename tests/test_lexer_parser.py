"""Tests for the Kali lexer and parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KaliSyntaxError
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.lang.tokens import TokenType as T
from tests.lexer_reference import reference_tokenize
from tests.test_unparse import kali_programs


def types(source):
    return [t.type for t in tokenize(source)][:-1]  # drop EOF


class TestLexer:
    def test_keywords_and_idents(self):
        assert types("forall foo end") == [T.KW_FORALL, T.IDENT, T.KW_END]

    def test_keywords_case_insensitive(self):
        assert types("FORALL Forall") == [T.KW_FORALL, T.KW_FORALL]

    def test_range_vs_real(self):
        toks = tokenize("1..N")
        assert [t.type for t in toks][:-1] == [T.INT, T.DOTDOT, T.IDENT]
        assert toks[0].value == 1

    def test_real_literals(self):
        toks = tokenize("3.14 0.5 2.0e3 1e-2")
        vals = [t.value for t in toks[:-1]]
        assert vals == [3.14, 0.5, 2000.0, 0.01]
        assert all(t.type is T.REAL for t in toks[:-1])

    def test_int_literal(self):
        assert tokenize("42")[0].value == 42

    def test_assign_vs_colon(self):
        assert types("x := 1; y : integer") == [
            T.IDENT, T.ASSIGN, T.INT, T.SEMI, T.IDENT, T.COLON, T.KW_INTEGER,
        ]

    def test_comparisons(self):
        assert types("< <= > >= = <>") == [T.LT, T.LE, T.GT, T.GE, T.EQ, T.NE]

    def test_comments_stripped(self):
        assert types("a -- this is a comment\n b") == [T.IDENT, T.IDENT]

    def test_comment_does_not_eat_minus(self):
        assert types("a - b") == [T.IDENT, T.MINUS, T.IDENT]

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_string_literal(self):
        tok = tokenize('"hello world"')[0]
        assert tok.type is T.STRING and tok.value == "hello world"

    def test_unterminated_string(self):
        with pytest.raises(KaliSyntaxError):
            tokenize('"oops')

    def test_bad_character(self):
        with pytest.raises(KaliSyntaxError):
            tokenize("a ? b")

    def test_figure1_lexes(self):
        src = """
        processors Procs: array [ 1..P ] with P in 1..max_procs;
        var A : array[1..N] of real dist by [ block ] on Procs;
        forall i in 1..N-1 on A[i].loc do
            A[i] := A[i+1];
        end;
        """
        assert tokenize(src)[-1].type is T.EOF

    def test_real_literal_at_end_of_input(self):
        toks = tokenize("x := 1.5")
        assert [t.type for t in toks] == [T.IDENT, T.ASSIGN, T.REAL, T.EOF]
        assert toks[2].value == 1.5
        assert (toks[3].line, toks[3].column) == (1, 9)

    @pytest.mark.parametrize("source, column", [("x := 1.5e", 10),
                                                ("x := 1.5e+", 11)])
    def test_exponent_cut_off_by_end_of_input(self, source, column):
        with pytest.raises(KaliSyntaxError) as info:
            tokenize(source)
        assert str(info.value) == (
            f"malformed real exponent (line 1, column {column})")


# --- the regex lexer against the character-walking one it replaced ----------


def _lexed(lex, source):
    """Every token field, or the error text with its position."""
    try:
        return [(t.type, t.text, t.line, t.column, t.value) for t in lex(source)]
    except KaliSyntaxError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(kali_programs())
def test_generated_programs_lex_as_before(src):
    assert _lexed(tokenize, src) == _lexed(reference_tokenize, src)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet='aZ_9 0.eE+-:=<>"\n\t\r;,()[]*/?é½', max_size=30))
def test_character_soup_lexes_or_fails_as_before(src):
    """Errors included: the text and the line/column of every message."""
    assert _lexed(tokenize, src) == _lexed(reference_tokenize, src)


class TestParserDeclarations:
    def test_processors_with_clause(self):
        prog = parse("processors Procs : array[1..P] with P in 1..64;")
        decl = prog.decls[0]
        assert isinstance(decl, ast.ProcessorsDecl)
        assert decl.name == "Procs" and decl.size_var == "P"

    def test_processors_fixed(self):
        prog = parse("processors Q : array[1..8];")
        assert prog.decls[0].size_var is None

    def test_var_single(self):
        prog = parse("var x : real;")
        d = prog.decls[0]
        assert d.names == ["x"] and d.type.kind == "real"

    def test_var_multiple_names(self):
        prog = parse("var a, b, c : integer;")
        assert prog.decls[0].names == ["a", "b", "c"]

    def test_var_block_continuation(self):
        """Figure 4 style: one 'var' introduces several groups."""
        prog = parse(
            "processors Procs : array[1..P] with P in 1..4;\n"
            "var a : array[1..8] of real dist by [block] on Procs;\n"
            "    count : array[1..8] of integer dist by [block] on Procs;\n"
        )
        names = [d.names[0] for d in prog.decls if isinstance(d, ast.VarDecl)]
        assert names == ["a", "count"]

    def test_array_with_dist(self):
        prog = parse(
            "processors Procs : array[1..P] with P in 1..4;\n"
            "var B : array[1..10, 1..5] of real dist by [cyclic, *] on Procs;"
        )
        t = prog.decls[-1].type
        assert isinstance(t, ast.ArrayType)
        assert [p.kind for p in t.dist] == ["cyclic", "*"]
        assert t.on_procs == "Procs"
        assert len(t.ranges) == 2

    def test_block_cyclic_param(self):
        prog = parse(
            "processors Procs : array[1..P] with P in 1..4;\n"
            "var B : array[1..10] of real dist by [block_cyclic(4)] on Procs;"
        )
        pat = prog.decls[-1].type.dist[0]
        assert pat.kind == "block_cyclic"
        assert isinstance(pat.param, ast.NumLit) and pat.param.value == 4

    def test_const(self):
        prog = parse("const n : integer := 64;")
        d = prog.decls[0]
        assert d.name == "n" and d.value.value == 64

    def test_const_no_value(self):
        prog = parse("const n : integer;")
        assert prog.decls[0].value is None


class TestParserStatements:
    def _stmts(self, body, header=""):
        default_header = (
            "processors Procs : array[1..P] with P in 1..8;\n"
            "var A : array[1..16] of real dist by [block] on Procs;\n"
            "var x : real; k : integer;\n"
        )
        return parse((header or default_header) + body).stmts

    def test_assign(self):
        (s,) = self._stmts("x := 1.5;")
        assert isinstance(s, ast.Assign)
        assert isinstance(s.target, ast.Name)

    def test_array_assign(self):
        (s,) = self._stmts("A[3] := 2.0;")
        assert isinstance(s.target, ast.Index)

    def test_if_else(self):
        (s,) = self._stmts("if x > 0.0 then x := 1.0; else x := 2.0; end;")
        assert isinstance(s, ast.IfStmt)
        assert len(s.then_body) == 1 and len(s.else_body) == 1

    def test_while(self):
        (s,) = self._stmts("while k < 3 do k := k + 1; end;")
        assert isinstance(s, ast.WhileStmt)

    def test_for(self):
        (s,) = self._stmts("for k in 1..10 do x := x + 1.0; end;")
        assert isinstance(s, ast.ForStmt) and s.var == "k"

    def test_forall_loc(self):
        (s,) = self._stmts(
            "forall i in 1..15 on A[i].loc do A[i] := A[i+1]; end;"
        )
        assert isinstance(s, ast.ForallStmt)
        assert not s.direct and s.on_array == "A"

    def test_forall_direct_processor(self):
        (s,) = self._stmts("forall i in 1..16 on Procs[i] do A[i] := 0.0; end;")
        assert s.direct

    def test_forall_local_vars(self):
        (s,) = self._stmts(
            "forall i in 1..16 on A[i].loc do\n"
            "  var t : real;\n"
            "  t := A[i]; A[i] := t * 2.0;\n"
            "end;"
        )
        assert s.local_decls[0].names == ["t"]
        assert len(s.body) == 2

    def test_print(self):
        (s,) = self._stmts('print("value", x);')
        assert isinstance(s, ast.PrintStmt) and len(s.args) == 2

    def test_precedence(self):
        (s,) = self._stmts("x := 1.0 + 2.0 * 3.0;")
        assert s.value.op == "+"
        assert s.value.right.op == "*"

    def test_parentheses(self):
        (s,) = self._stmts("x := (1.0 + 2.0) * 3.0;")
        assert s.value.op == "*"

    def test_boolean_precedence(self):
        (s,) = self._stmts("k := 1; ")
        src = "if x > 0.0 and not (k = 2) or false then x := 1.0; end;"
        (s2,) = self._stmts(src)
        assert s2.cond.op == "or"

    def test_unary_minus(self):
        (s,) = self._stmts("x := -x + 1.0;")
        assert s.value.op == "+"
        assert isinstance(s.value.left, ast.UnOp)

    def test_div_mod(self):
        (s,) = self._stmts("k := 7 div 2 + 7 mod 2;")
        assert s.value.left.op == "div" and s.value.right.op == "mod"

    def test_builtin_call(self):
        (s,) = self._stmts("x := abs(x);")
        assert isinstance(s.value, ast.Call) and s.value.func == "abs"


class TestParserErrors:
    def test_missing_semi(self):
        with pytest.raises(KaliSyntaxError):
            parse("var x : real")

    def test_bad_statement(self):
        with pytest.raises(KaliSyntaxError):
            parse("var x : real; 42;")

    def test_unclosed_forall(self):
        with pytest.raises(KaliSyntaxError):
            parse(
                "processors P1 : array[1..2];\n"
                "var A : array[1..4] of real dist by [block] on P1;\n"
                "forall i in 1..4 on A[i].loc do A[i] := 0.0;"
            )

    def test_bad_dist_pattern(self):
        with pytest.raises(KaliSyntaxError):
            parse(
                "processors P1 : array[1..2];\n"
                "var A : array[1..4] of real dist by [diagonal] on P1;"
            )

    def test_error_carries_position(self):
        with pytest.raises(KaliSyntaxError) as exc:
            parse("var x : real;\n@")
        assert exc.value.line == 2

    def test_figure4_parses_fully(self):
        src = """
        processors Procs: array[1..P] with P in 1..n;
        const n : integer := 64;
        var a, old_a: array[1..n ] of real dist by [ block ] on Procs;
            count : array[ 1..n ] of integer dist by [ block ] on Procs;
            adj : array[ 1..n, 1..4 ] of integer dist by [ block, * ] on Procs;
            coef : array[ 1..n, 1..4 ] of real dist by [ block, * ] on Procs;
        var converged : boolean;

        while ( not converged ) do
            forall i in 1..n on old_a[i].loc do
                old_a[i] := a[i];
            end;
            forall i in 1..n on a[i].loc do
                var x : real;
                x := 0.0;
                for j in 1..count[i] do
                    x := x + coef[i,j] * old_a[ adj[i,j] ];
                end;
                if (count[i] > 0) then a[i] := x; end;
            end;
            converged := true;
        end;
        """
        prog = parse(src)
        assert len(prog.stmts) == 1
        assert isinstance(prog.stmts[0], ast.WhileStmt)
