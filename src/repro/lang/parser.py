"""Recursive-descent parser for the Kali subset.

Grammar (EBNF; ``{}`` = repetition, ``[]`` = option)::

    program     := { declaration } { statement }
    declaration := processors | var-block | const-decl
    processors  := "processors" IDENT ":" "array" "[" expr ".." expr "]"
                   [ "with" IDENT "in" expr ".." expr ] ";"
    var-block   := "var" var-group ";" { var-group ";" }
    var-group   := IDENT { "," IDENT } ":" type
    const-decl  := "const" IDENT ":" scalar-type [ ":=" expr ] ";"
    type        := scalar-type
                 | "array" "[" range { "," range } "]" "of" scalar-type
                   [ "dist" "by" "[" pattern { "," pattern } "]" "on" IDENT ]
    pattern     := "block" | "cyclic" | "block_cyclic" "(" expr ")" | "*"
    statement   := assign | if | while | for | forall | print
                 | "redistribute" IDENT "by" "[" pattern { "," pattern } "]" ";"
    assign      := lvalue ":=" expr ";"
    if          := "if" expr "then" { statement }
                   [ "else" { statement } ] "end" ";"
    while       := "while" expr "do" { statement } "end" ";"
    for         := "for" IDENT "in" expr ".." expr "do" { statement } "end" ";"
    forall      := "forall" IDENT "in" expr ".." expr
                   "on" IDENT "[" expr "]" [ "." "loc" ]
                   "do" { var-block } { statement } "end" ";"
    print       := "print" "(" [ expr { "," expr } ] ")" ";"

Expressions use Pascal precedence: ``or`` < ``and`` < ``not`` <
comparison < additive < multiplicative (``* / div mod``) < unary minus <
primary.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import KaliSyntaxError
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenType as T

_STMT_STARTERS = {
    T.IDENT,
    T.KW_IF,
    T.KW_WHILE,
    T.KW_FOR,
    T.KW_FORALL,
    T.KW_PRINT,
    T.KW_REDISTRIBUTE,
}

_BUILTIN_FUNCS = {"abs", "min", "max", "float", "trunc", "sqrt"}


class Parser:
    def __init__(self, tokens: List[Token]):
        self.toks = tokens
        self.i = 0

    # --- token plumbing -----------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def _at(self, *types: T) -> bool:
        return self._peek().type in types

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.type is not T.EOF:
            self.i += 1
        return tok

    def _expect(self, ttype: T, what: str = "") -> Token:
        tok = self._peek()
        if tok.type is not ttype:
            expected = what or ttype.value
            raise KaliSyntaxError(
                f"expected {expected}, found {tok.text or tok.type.value!r}",
                tok.line,
                tok.column,
            )
        return self._advance()

    def _error(self, msg: str) -> KaliSyntaxError:
        tok = self._peek()
        return KaliSyntaxError(msg, tok.line, tok.column)

    # --- program ----------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        decls: List[ast.Decl] = []
        while self._at(T.KW_PROCESSORS, T.KW_VAR, T.KW_CONST):
            if self._at(T.KW_PROCESSORS):
                decls.append(self._processors())
            elif self._at(T.KW_VAR):
                decls.extend(self._var_block())
            else:
                decls.append(self._const_decl())
        stmts = self._statements_until(T.EOF)
        self._expect(T.EOF)
        return ast.Program(decls=decls, stmts=stmts, line=1)

    # --- declarations -------------------------------------------------------------

    def _processors(self) -> ast.ProcessorsDecl:
        kw = self._expect(T.KW_PROCESSORS)
        name = self._expect(T.IDENT).text
        self._expect(T.COLON)
        self._expect(T.KW_ARRAY)
        self._expect(T.LBRACKET)
        lo = self._expr()
        self._expect(T.DOTDOT)
        hi = self._expr()
        self._expect(T.RBRACKET)
        size_var = min_expr = max_expr = None
        if self._at(T.KW_WITH):
            self._advance()
            size_var = self._expect(T.IDENT).text
            self._expect(T.KW_IN)
            min_expr = self._expr()
            self._expect(T.DOTDOT)
            max_expr = self._expr()
        self._expect(T.SEMI)
        return ast.ProcessorsDecl(
            name=name, lo=lo, hi=hi, size_var=size_var,
            min_expr=min_expr, max_expr=max_expr, line=kw.line,
        )

    def _var_block(self) -> List[ast.VarDecl]:
        self._expect(T.KW_VAR)
        decls = [self._var_group()]
        self._expect(T.SEMI)
        # Figure 4 style: subsequent groups without repeating 'var'.
        while self._at(T.IDENT) and self._peek(1).type in (T.COMMA, T.COLON):
            decls.append(self._var_group())
            self._expect(T.SEMI)
        return decls

    def _var_group(self) -> ast.VarDecl:
        first = self._expect(T.IDENT)
        names = [first.text]
        while self._at(T.COMMA):
            self._advance()
            names.append(self._expect(T.IDENT).text)
        self._expect(T.COLON)
        type_node = self._type()
        return ast.VarDecl(names=names, type=type_node, line=first.line)

    def _const_decl(self) -> ast.ConstDecl:
        kw = self._expect(T.KW_CONST)
        name = self._expect(T.IDENT).text
        ctype = None
        if self._at(T.COLON):
            self._advance()
            ctype = self._scalar_type()
        value = None
        if self._at(T.ASSIGN):
            self._advance()
            value = self._expr()
        self._expect(T.SEMI)
        return ast.ConstDecl(name=name, type=ctype, value=value, line=kw.line)

    def _scalar_type(self) -> ast.ScalarType:
        tok = self._peek()
        if tok.type is T.KW_REAL:
            self._advance()
            return ast.ScalarType("real", line=tok.line)
        if tok.type is T.KW_INTEGER:
            self._advance()
            return ast.ScalarType("integer", line=tok.line)
        if tok.type is T.KW_BOOLEAN:
            self._advance()
            return ast.ScalarType("boolean", line=tok.line)
        raise self._error("expected a scalar type (real/integer/boolean)")

    def _type(self) -> ast.TypeNode:
        if not self._at(T.KW_ARRAY):
            return self._scalar_type()
        kw = self._advance()
        self._expect(T.LBRACKET)
        ranges: List[Tuple[ast.Expr, ast.Expr]] = [self._range()]
        while self._at(T.COMMA):
            self._advance()
            ranges.append(self._range())
        self._expect(T.RBRACKET)
        self._expect(T.KW_OF)
        elem = self._scalar_type()
        dist = None
        on_procs = None
        if self._at(T.KW_DIST):
            self._advance()
            self._expect(T.KW_BY)
            self._expect(T.LBRACKET)
            dist = [self._dist_pattern()]
            while self._at(T.COMMA):
                self._advance()
                dist.append(self._dist_pattern())
            self._expect(T.RBRACKET)
            self._expect(T.KW_ON)
            on_procs = self._expect(T.IDENT).text
        return ast.ArrayType(
            ranges=ranges, elem=elem, dist=dist, on_procs=on_procs, line=kw.line
        )

    def _range(self) -> Tuple[ast.Expr, ast.Expr]:
        lo = self._expr()
        self._expect(T.DOTDOT)
        hi = self._expr()
        return (lo, hi)

    def _dist_pattern(self) -> ast.DistPattern:
        tok = self._peek()
        if tok.type is T.KW_BLOCK:
            self._advance()
            return ast.DistPattern("block", line=tok.line)
        if tok.type is T.KW_CYCLIC:
            self._advance()
            return ast.DistPattern("cyclic", line=tok.line)
        if tok.type is T.KW_BLOCK_CYCLIC:
            self._advance()
            self._expect(T.LPAREN)
            param = self._expr()
            self._expect(T.RPAREN)
            return ast.DistPattern("block_cyclic", param=param, line=tok.line)
        if tok.type is T.STAR:
            self._advance()
            return ast.DistPattern("*", line=tok.line)
        raise self._error("expected a distribution pattern (block/cyclic/block_cyclic/*)")

    # --- statements --------------------------------------------------------------

    def _statements_until(self, *terminators: T) -> List[ast.Stmt]:
        out: List[ast.Stmt] = []
        while not self._at(*terminators):
            if not self._at(*_STMT_STARTERS):
                raise self._error(
                    f"expected a statement, found {self._peek().text!r}"
                )
            out.append(self._statement())
        return out

    def _statement(self) -> ast.Stmt:
        tok = self._peek()
        if tok.type is T.KW_IF:
            return self._if()
        if tok.type is T.KW_WHILE:
            return self._while()
        if tok.type is T.KW_FOR:
            return self._for()
        if tok.type is T.KW_FORALL:
            return self._forall()
        if tok.type is T.KW_PRINT:
            return self._print()
        if tok.type is T.KW_REDISTRIBUTE:
            return self._redistribute()
        return self._assign()

    def _assign(self) -> ast.Assign:
        tok = self._peek()
        target = self._lvalue()
        self._expect(T.ASSIGN)
        value = self._expr()
        self._expect(T.SEMI)
        return ast.Assign(target=target, value=value, line=tok.line)

    def _lvalue(self):
        name = self._expect(T.IDENT)
        if self._at(T.LBRACKET):
            self._advance()
            subs = [self._expr()]
            while self._at(T.COMMA):
                self._advance()
                subs.append(self._expr())
            self._expect(T.RBRACKET)
            return ast.Index(base=name.text, subs=subs, line=name.line)
        return ast.Name(ident=name.text, line=name.line)

    def _if(self) -> ast.IfStmt:
        kw = self._expect(T.KW_IF)
        cond = self._expr()
        self._expect(T.KW_THEN)
        then_body = self._statements_until(T.KW_ELSE, T.KW_END)
        else_body: List[ast.Stmt] = []
        if self._at(T.KW_ELSE):
            self._advance()
            else_body = self._statements_until(T.KW_END)
        self._expect(T.KW_END)
        self._expect(T.SEMI)
        return ast.IfStmt(cond=cond, then_body=then_body, else_body=else_body,
                          line=kw.line)

    def _while(self) -> ast.WhileStmt:
        kw = self._expect(T.KW_WHILE)
        cond = self._expr()
        self._expect(T.KW_DO)
        body = self._statements_until(T.KW_END)
        self._expect(T.KW_END)
        self._expect(T.SEMI)
        return ast.WhileStmt(cond=cond, body=body, line=kw.line)

    def _for(self) -> ast.ForStmt:
        kw = self._expect(T.KW_FOR)
        var = self._expect(T.IDENT).text
        self._expect(T.KW_IN)
        lo = self._expr()
        self._expect(T.DOTDOT)
        hi = self._expr()
        self._expect(T.KW_DO)
        body = self._statements_until(T.KW_END)
        self._expect(T.KW_END)
        self._expect(T.SEMI)
        return ast.ForStmt(var=var, lo=lo, hi=hi, body=body, line=kw.line)

    def _forall(self) -> ast.ForallStmt:
        kw = self._expect(T.KW_FORALL)
        var = self._expect(T.IDENT).text
        self._expect(T.KW_IN)
        lo = self._expr()
        self._expect(T.DOTDOT)
        hi = self._expr()
        self._expect(T.KW_ON)
        on_array = self._expect(T.IDENT).text
        self._expect(T.LBRACKET)
        on_sub = self._expr()
        self._expect(T.RBRACKET)
        direct = True
        if self._at(T.DOT):
            self._advance()
            self._expect(T.KW_LOC)
            direct = False
        self._expect(T.KW_DO)
        local_decls: List[ast.VarDecl] = []
        while self._at(T.KW_VAR):
            local_decls.extend(self._var_block())
        body = self._statements_until(T.KW_END)
        self._expect(T.KW_END)
        self._expect(T.SEMI)
        return ast.ForallStmt(
            var=var, lo=lo, hi=hi, on_array=on_array, on_sub=on_sub,
            direct=direct, local_decls=local_decls, body=body, line=kw.line,
        )

    def _print(self) -> ast.PrintStmt:
        kw = self._expect(T.KW_PRINT)
        self._expect(T.LPAREN)
        args: List[ast.Expr] = []
        if not self._at(T.RPAREN):
            args.append(self._expr())
            while self._at(T.COMMA):
                self._advance()
                args.append(self._expr())
        self._expect(T.RPAREN)
        self._expect(T.SEMI)
        return ast.PrintStmt(args=args, line=kw.line)

    def _redistribute(self) -> ast.RedistributeStmt:
        kw = self._expect(T.KW_REDISTRIBUTE)
        name = self._expect(T.IDENT).text
        self._expect(T.KW_BY)
        self._expect(T.LBRACKET)
        patterns = [self._dist_pattern()]
        while self._at(T.COMMA):
            self._advance()
            patterns.append(self._dist_pattern())
        self._expect(T.RBRACKET)
        self._expect(T.SEMI)
        return ast.RedistributeStmt(array=name, patterns=patterns, line=kw.line)

    # --- expressions --------------------------------------------------------------

    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._at(T.KW_OR):
            tok = self._advance()
            left = ast.BinOp("or", left, self._and_expr(), line=tok.line)
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._at(T.KW_AND):
            tok = self._advance()
            left = ast.BinOp("and", left, self._not_expr(), line=tok.line)
        return left

    def _not_expr(self) -> ast.Expr:
        if self._at(T.KW_NOT):
            tok = self._advance()
            return ast.UnOp("not", self._not_expr(), line=tok.line)
        return self._comparison()

    _CMP = {
        T.EQ: "=",
        T.NE: "<>",
        T.LT: "<",
        T.LE: "<=",
        T.GT: ">",
        T.GE: ">=",
    }

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        if self._peek().type in self._CMP:
            tok = self._advance()
            op = self._CMP[tok.type]
            return ast.BinOp(op, left, self._additive(), line=tok.line)
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while self._at(T.PLUS, T.MINUS):
            tok = self._advance()
            op = "+" if tok.type is T.PLUS else "-"
            left = ast.BinOp(op, left, self._multiplicative(), line=tok.line)
        return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while self._at(T.STAR, T.SLASH, T.KW_DIV, T.KW_MOD):
            tok = self._advance()
            op = {
                T.STAR: "*",
                T.SLASH: "/",
                T.KW_DIV: "div",
                T.KW_MOD: "mod",
            }[tok.type]
            left = ast.BinOp(op, left, self._unary(), line=tok.line)
        return left

    def _unary(self) -> ast.Expr:
        if self._at(T.MINUS):
            tok = self._advance()
            return ast.UnOp("-", self._unary(), line=tok.line)
        return self._primary()

    def _primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.type is T.INT or tok.type is T.REAL:
            self._advance()
            return ast.NumLit(tok.value, line=tok.line)
        if tok.type is T.KW_TRUE:
            self._advance()
            return ast.BoolLit(True, line=tok.line)
        if tok.type is T.KW_FALSE:
            self._advance()
            return ast.BoolLit(False, line=tok.line)
        if tok.type is T.STRING:
            self._advance()
            return ast.StrLit(tok.value, line=tok.line)
        if tok.type is T.LPAREN:
            self._advance()
            inner = self._expr()
            self._expect(T.RPAREN)
            return inner
        if tok.type is T.IDENT:
            self._advance()
            if self._at(T.LPAREN) and tok.text.lower() in _BUILTIN_FUNCS:
                self._advance()
                args = [self._expr()]
                while self._at(T.COMMA):
                    self._advance()
                    args.append(self._expr())
                self._expect(T.RPAREN)
                return ast.Call(func=tok.text.lower(), args=args, line=tok.line)
            if self._at(T.LBRACKET):
                self._advance()
                subs = [self._expr()]
                while self._at(T.COMMA):
                    self._advance()
                    subs.append(self._expr())
                self._expect(T.RBRACKET)
                return ast.Index(base=tok.text, subs=subs, line=tok.line)
            return ast.Name(ident=tok.text, line=tok.line)
        raise self._error(f"expected an expression, found {tok.text!r}")


def parse(source: str) -> ast.Program:
    """Parse Kali source text into an AST."""
    return Parser(tokenize(source)).parse_program()
