"""The Kali language front end.

Pipeline: :func:`repro.lang.parser.parse` (lexer + recursive descent) →
:func:`repro.lang.sema.analyze` (symbol table, static checks) →
:func:`repro.lang.lower.lower_forall` (subscript analysis, kernel
generation) → :class:`repro.lang.interp.CompiledKali` (SPMD
interpretation on the simulated machine).

Entry point::

    from repro.lang import compile_kali
    result = compile_kali(source).run(nprocs=8, machine=NCUBE7, inputs=...)
"""

from repro.lang.interp import CompiledKali, KaliLangResult, compile_kali
from repro.lang.parser import parse
from repro.lang.lexer import tokenize
from repro.lang.sema import analyze
from repro.lang.unparse import unparse

__all__ = ["compile_kali", "CompiledKali", "KaliLangResult", "parse",
           "tokenize", "analyze", "unparse"]
