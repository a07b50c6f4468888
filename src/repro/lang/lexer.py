"""Lexer for Kali source text: one compiled master regular expression.

Handles the Pascal-flavoured details the paper's listings rely on:
``--`` comments to end of line, the ``1..N`` range operator adjacent to
integer literals (``1..`` must lex as INT DOTDOT, not a malformed real),
``:=`` vs ``:``, and the two-character comparison operators.  Each match
of ``_MASTER`` is one token or one run of trivia, tried in the order
written; positions are 1-based lines and columns counted in characters.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import KaliSyntaxError
from repro.lang.tokens import KEYWORDS, Token, TokenType

_MASTER = re.compile(r"""
    (?P<space>[ \t\r\n]+)
  | (?P<comment>--[^\n]*)
  | (?P<ident>[^\W\d]\w*)
  | (?P<number>\d+(?:\.\d+(?:[eE][+-]?\d*)?|[eE][+-]?\d+)?)
  | (?P<string>"[^"\n]*["\n]?)
  | (?P<punct>:=|\.\.|<=|>=|<>|[-:.<>;,()\[\]*+/=])
""", re.VERBOSE)

#: punctuation spelling -> token type (a punctuation token's enum value
#: is its spelling; every other value starts with a letter)
_PUNCT = {t.value: t for t in TokenType if not t.value[0].isalpha()}


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list ending with EOF."""
    out: List[Token] = []
    match = _MASTER.match
    pos, line, line_start = 0, 1, 0
    while pos < len(source):
        col = pos - line_start + 1
        m = match(source, pos)
        if m is None:
            raise KaliSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        kind, text = m.lastgroup, m.group()
        pos = m.end()
        if kind == "space":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rindex("\n") + 1
        elif kind == "ident":
            # \w also admits numeric characters that are not letters
            if not (text[0].isalpha() or text[0] == "_"):
                raise KaliSyntaxError(f"unexpected character {text[0]!r}", line, col)
            out.append(Token(KEYWORDS.get(text.lower(), TokenType.IDENT), text, line, col))
        elif kind == "number":
            if text.isdecimal():
                out.append(Token(TokenType.INT, text, line, col, int(text)))
            elif text[-1].isdecimal():
                out.append(Token(TokenType.REAL, text, line, col, float(text)))
            else:  # ``1.5e``, ``1.5e+``: no exponent digits
                raise KaliSyntaxError("malformed real exponent", line, col + len(text))
        elif kind == "string":
            if len(text) > 1 and text[-1] == '"':
                out.append(Token(TokenType.STRING, text[1:-1], line, col, text[1:-1]))
            elif text[-1] == "\n":
                raise KaliSyntaxError("newline in string literal", line + 1, 1)
            else:
                raise KaliSyntaxError("unterminated string literal", line,
                                      col + len(text))
        elif kind == "punct":
            out.append(Token(_PUNCT[text], text, line, col))
    out.append(Token(TokenType.EOF, "", line, pos - line_start + 1))
    return out
