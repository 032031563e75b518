"""The merged interface as one unit's analysis sees it.

A unit is checked only against the interfaces of what it uses (paper
sections 2 and 7), so its result depends on the merged symbol table
only through the names it looks up. :func:`core.api.check_parsed_unit`
hands the analysis these recording views and reports the names read
(``UnitCheckOutput.reads``); the incremental engine reuses a stored
result while those entries keep their values (``incremental.entries``).
"""

from __future__ import annotations

from ..frontend.symtab import SymbolTable


class RecordingSymtab:
    """The program symbol table as the analysis sees it: only the two
    lookups, each recording the name it was asked for.

    Any other attribute raises ``AttributeError``, so an analysis change
    that reads the table some other way fails loudly instead of making
    the recorded reads — and the cache hits they validate — incomplete.
    """

    __slots__ = ("function", "global_var")

    def __init__(self, symtab: SymbolTable, reads: set[str]) -> None:
        functions = symtab.functions.get
        globals_ = symtab.globals.get
        record = reads.add

        def function(name: str):
            record("f:" + name)
            return functions(name)

        def global_var(name: str):
            record("g:" + name)
            return globals_(name)

        self.function = function
        self.global_var = global_var


class RecordingEnums:
    """The merged enum constants as the analysis sees them: membership
    and item lookup only, each recording the name."""

    __slots__ = ("_values", "_record")
    # No fallback iteration through __getitem__: every read is a lookup.
    __iter__ = None

    def __init__(self, values: dict[str, int], reads: set[str]) -> None:
        self._values = values
        self._record = reads.add

    def __contains__(self, name: str) -> bool:
        self._record("e:" + name)
        return name in self._values

    def __getitem__(self, name: str) -> int:
        self._record("e:" + name)
        return self._values[name]
