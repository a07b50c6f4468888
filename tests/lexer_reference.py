"""A character-walking Kali lexer: the oracle for ``repro.lang.lexer``.

This is the hand-written scanner the library used before it switched to
one master regular expression, kept as it was apart from the fix for a
real literal at end of input (``"" in "eE"`` is true, so ``1.5`` at EOF
used to index past the end).  ``tests/test_lexer_parser.py`` checks that
both lexers produce the same tokens, or the same error text at the same
position, on generated programs and on random character soup.
"""

from __future__ import annotations

from typing import List

from repro.errors import KaliSyntaxError
from repro.lang.tokens import KEYWORDS, Token, TokenType

_SINGLE = {";": TokenType.SEMI, ",": TokenType.COMMA, "(": TokenType.LPAREN,
           ")": TokenType.RPAREN, "[": TokenType.LBRACKET,
           "]": TokenType.RBRACKET, "*": TokenType.STAR, "+": TokenType.PLUS,
           "/": TokenType.SLASH, "=": TokenType.EQ, ":": TokenType.COLON,
           ".": TokenType.DOT, "<": TokenType.LT, ">": TokenType.GT,
           "-": TokenType.MINUS}
_DOUBLE = {":=": TokenType.ASSIGN, "..": TokenType.DOTDOT, "<=": TokenType.LE,
           ">=": TokenType.GE, "<>": TokenType.NE}


class ReferenceLexer:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

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
            return Token(TokenType.EOF, "", line, col)
        ch = self._peek()
        if ch.isalpha() or ch == "_":
            return self._identifier(line, col)
        if ch.isdigit():
            return self._number(line, col)
        if ch == '"':
            return self._string(line, col)
        two = ch + self._peek(1)
        if two in _DOUBLE:
            self._advance(), self._advance()
            return Token(_DOUBLE[two], two, line, col)
        if ch in _SINGLE:
            self._advance()
            return Token(_SINGLE[ch], ch, line, col)
        raise self._error(f"unexpected character {ch!r}")

    def _identifier(self, line: int, col: int) -> Token:
        start = self.pos
        while self.pos < len(self.src) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self.src[start : self.pos]
        return Token(KEYWORDS.get(text.lower(), TokenType.IDENT), text, line, col)

    def _number(self, line: int, col: int) -> Token:
        start = self.pos
        while self.pos < len(self.src) and self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1) != "." and self._peek(1).isdigit():
            self._advance()
            while self.pos < len(self.src) and self._peek().isdigit():
                self._advance()
            if self._peek() and self._peek() in "eE":   # the EOF fix
                self._advance()
                if self._peek() and self._peek() in "+-":
                    self._advance()
                if not self._peek().isdigit():
                    raise self._error("malformed real exponent")
                while self.pos < len(self.src) and self._peek().isdigit():
                    self._advance()
            text = self.src[start : self.pos]
            return Token(TokenType.REAL, text, line, col, value=float(text))
        signed = self._peek(1) in "+-" and self._peek(2).isdigit()
        if self._peek() in "eE" and (self._peek(1).isdigit() or signed):
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self.pos < len(self.src) and self._peek().isdigit():
                self._advance()
            text = self.src[start : self.pos]
            return Token(TokenType.REAL, text, line, col, value=float(text))
        text = self.src[start : self.pos]
        return Token(TokenType.INT, text, line, col, value=int(text))

    def _string(self, line: int, col: int) -> Token:
        self._advance()
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
        return Token(TokenType.STRING, text, line, col, value=text)


def reference_tokenize(source: str) -> List[Token]:
    return ReferenceLexer(source).tokens()
