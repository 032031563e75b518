"""C frontend: sources, preprocessing, lexing, parsing, types, symbols.

The re-exported names load on first use (see :mod:`repro._lazy`):
importing one frontend module, say :mod:`.source`, does not load the
lexer, preprocessor, or parser.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .source import SourceManager

__all__ = [
    "cast",
    "LexError",
    "Lexer",
    "ReferenceLexer",
    "lexer_engine",
    "reference_tokenize",
    "tokenize",
    "ParseError",
    "Parser",
    "parse_tokens",
    "PreprocessError",
    "Preprocessor",
    "BUILTIN_LOCATION",
    "Location",
    "SourceFile",
    "SourceManager",
    "FunctionSignature",
    "GlobalVariable",
    "SymbolTable",
    "Token",
    "TokenKind",
    "parse_source",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "cast": ".cast",
    "LexError": ".lexer",
    "Lexer": ".lexer",
    "ReferenceLexer": ".lexer",
    "lexer_engine": ".lexer",
    "reference_tokenize": ".lexer",
    "tokenize": ".lexer",
    "ParseError": ".parser",
    "Parser": ".parser",
    "parse_tokens": ".parser",
    "PreprocessError": ".preprocessor",
    "Preprocessor": ".preprocessor",
    "BUILTIN_LOCATION": ".source",
    "Location": ".source",
    "SourceFile": ".source",
    "SourceManager": ".source",
    "FunctionSignature": ".symtab",
    "GlobalVariable": ".symtab",
    "SymbolTable": ".symtab",
    "Token": ".tokens",
    "TokenKind": ".tokens",
})


def parse_source(
    text: str,
    name: str = "<string>",
    sources: SourceManager | None = None,
    defines: dict[str, str] | None = None,
    system_headers: dict[str, str] | None = None,
):
    """Preprocess and parse C source text into a translation unit.

    Returns ``(unit, control_tokens, annotation_problems)``.
    """
    from .parser import Parser
    from .preprocessor import Preprocessor
    from .source import SourceManager

    manager = sources or SourceManager()
    pp = Preprocessor(manager, defines=defines, system_headers=system_headers)
    toks = pp.preprocess_text(text, name)
    parser = Parser(toks, name)
    unit = parser.parse_translation_unit()
    return unit, parser.controls, parser.problems
