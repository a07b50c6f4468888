"""Hand-written lexer for Kali source text.

Handles the Pascal-flavoured details the paper's listings rely on:
``--`` comments to end of line, the ``1..N`` range operator adjacent to
integer literals (``1..`` must lex as INT DOTDOT, not a malformed real),
``:=`` vs ``:``, and the two-character comparison operators.
"""

from __future__ import annotations

from typing import List

from repro.errors import KaliSyntaxError
from repro.lang.tokens import KEYWORDS, Token, TokenType

_SINGLE = {
    ";": TokenType.SEMI,
    ",": TokenType.COMMA,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    "*": TokenType.STAR,
    "+": TokenType.PLUS,
    "/": TokenType.SLASH,
    "=": TokenType.EQ,
}


class Lexer:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    # --- helpers ---------------------------------------------------------

    def _peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.src[i] if i < len(self.src) else ""

    def _advance(self) -> str:
        ch = self.src[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _error(self, msg: str) -> KaliSyntaxError:
        return KaliSyntaxError(msg, self.line, self.col)

    def _make(self, ttype: TokenType, text: str, line: int, col: int, value=None) -> Token:
        return Token(ttype, text, line, col, value)

    # --- scanning --------------------------------------------------------------

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.type is TokenType.EOF:
                return out

    def _skip_trivia(self) -> None:
        while self.pos < len(self.src):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        line, col = self.line, self.col
        if self.pos >= len(self.src):
            return self._make(TokenType.EOF, "", line, col)
        ch = self._peek()

        if ch.isalpha() or ch == "_":
            return self._identifier(line, col)
        if ch.isdigit():
            return self._number(line, col)
        if ch == '"':
            return self._string(line, col)

        # multi-character operators first
        two = ch + self._peek(1)
        if two == ":=":
            self._advance(), self._advance()
            return self._make(TokenType.ASSIGN, ":=", line, col)
        if two == "..":
            self._advance(), self._advance()
            return self._make(TokenType.DOTDOT, "..", line, col)
        if two == "<=":
            self._advance(), self._advance()
            return self._make(TokenType.LE, "<=", line, col)
        if two == ">=":
            self._advance(), self._advance()
            return self._make(TokenType.GE, ">=", line, col)
        if two == "<>":
            self._advance(), self._advance()
            return self._make(TokenType.NE, "<>", line, col)

        if ch == ":":
            self._advance()
            return self._make(TokenType.COLON, ":", line, col)
        if ch == ".":
            self._advance()
            return self._make(TokenType.DOT, ".", line, col)
        if ch == "<":
            self._advance()
            return self._make(TokenType.LT, "<", line, col)
        if ch == ">":
            self._advance()
            return self._make(TokenType.GT, ">", line, col)
        if ch == "-":
            self._advance()
            return self._make(TokenType.MINUS, "-", line, col)
        if ch in _SINGLE:
            self._advance()
            return self._make(_SINGLE[ch], ch, line, col)

        raise self._error(f"unexpected character {ch!r}")

    def _identifier(self, line: int, col: int) -> Token:
        start = self.pos
        while self.pos < len(self.src) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self.src[start : self.pos]
        kw = KEYWORDS.get(text.lower())
        if kw is not None:
            return self._make(kw, text, line, col)
        return self._make(TokenType.IDENT, text, line, col)

    def _number(self, line: int, col: int) -> Token:
        start = self.pos
        while self.pos < len(self.src) and self._peek().isdigit():
            self._advance()
        # '1..N' must not consume the first dot as a decimal point.
        if (
            self._peek() == "."
            and self._peek(1) != "."
            and self._peek(1).isdigit()
        ):
            self._advance()  # the decimal point
            while self.pos < len(self.src) and self._peek().isdigit():
                self._advance()
            if self._peek() in "eE":
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                if not self._peek().isdigit():
                    raise self._error("malformed real exponent")
                while self.pos < len(self.src) and self._peek().isdigit():
                    self._advance()
            text = self.src[start : self.pos]
            return self._make(TokenType.REAL, text, line, col, value=float(text))
        signed = self._peek(1) in "+-" and self._peek(2).isdigit()
        if self._peek() in "eE" and (self._peek(1).isdigit() or signed):
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self.pos < len(self.src) and self._peek().isdigit():
                self._advance()
            text = self.src[start : self.pos]
            return self._make(TokenType.REAL, text, line, col, value=float(text))
        text = self.src[start : self.pos]
        return self._make(TokenType.INT, text, line, col, value=int(text))

    def _string(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            if self.pos >= len(self.src):
                raise self._error("unterminated string literal")
            ch = self._advance()
            if ch == '"':
                break
            if ch == "\n":
                raise self._error("newline in string literal")
            chars.append(ch)
        text = "".join(chars)
        return self._make(TokenType.STRING, text, line, col, value=text)


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list ending with EOF."""
    return Lexer(source).tokens()
