"""Digests of merged symbol-table entries, for dependency-validated
result slots (see :mod:`.fingerprint`).

A unit's check reads the merged program symbol table only by name
(``core.reads``). :class:`EntryDigests` turns the names one check read
into one digest of their current values, so the engine can tell whether
a result stored under a unit's slot still holds for this run's table.
This module loads only when some unit's exact result key missed: a run
answered entirely by exact keys never imports it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

from ..annotations.kinds import AnnotationSet
from ..frontend.ctypes import (
    Array,
    EnumType,
    FunctionType,
    Pointer,
    Primitive,
    StructType,
    TypedefType,
)
from ..frontend.symtab import FunctionSignature, GlobalVariable
from .fingerprint import _sha


# -- symbol-table entry digests -----------------------------------------------
#
# A merged FunctionSignature / GlobalVariable holds dataclasses, enums,
# frozensets, locations and *cyclic* struct types (``struct _elem {
# struct _elem *next; }``). The entry digest writes that graph out in a
# fixed order with a type-specific walker: every field in declaration
# order, qualifier sets sorted, enumerators sorted, and each struct type
# spelled once per type graph — a revisit, cyclic or shared, is a back
# reference to its first visit. Nothing depends on object identity or on
# string-hash order, so digests agree across processes and hash seeds.
# tests/unit/test_entry_digest.py perturbs every reachable field.

_SEP = "\x1f"


def _join_digest(parts: list[str]) -> str:
    return hashlib.sha256(
        _SEP.join(parts).encode("utf-8", "surrogatepass")
    ).hexdigest()


def _names(values) -> str:
    return f"{len(values)}{_SEP}" + _SEP.join(values)


def _location_part(loc) -> str:
    if loc is None:
        return "L-"
    return f"L{loc.filename}{_SEP}{loc.line}{_SEP}{loc.column}"


class _EntryWalker:
    """Writes entries out as digest parts.

    Type graphs and annotation sets are shared between entries, so each
    is written once per walker and memoized by identity — sound while
    the walker's caller keeps the objects alive, as a symbol table does
    for the run that owns the walker.
    """

    def __init__(self) -> None:
        self._annotations: dict[int, str] = {}
        self._types: dict[int, str] = {}

    def annotation(self, ann: AnnotationSet) -> str:
        part = self._annotations.get(id(ann))
        if part is None:
            null, definition, alloc, exposure = (
                ann.null, ann.definition, ann.alloc, ann.exposure
            )
            part = self._annotations[id(ann)] = (
                f"A{null.name if null is not None else '-'}"
                f",{definition.name if definition is not None else '-'}"
                f",{alloc.name if alloc is not None else '-'}"
                f",{exposure.name if exposure is not None else '-'}"
                f",{ann.unique:d}{ann.returned:d}{ann.truenull:d}"
                f"{ann.falsenull:d},{ann.size_bound},{_names(ann.names)}"
            )
        return part

    def type(self, ctype) -> str:
        """The digest of one type graph; struct back references are local
        to it, so a type digests the same wherever it appears."""
        digest = self._types.get(id(ctype))
        if digest is None:
            out: list[str] = []
            self._type_parts(ctype, out, {})
            digest = self._types[id(ctype)] = _join_digest(out)
        return digest

    def _type_parts(self, ctype, out: list[str], seen: dict) -> None:
        cls = type(ctype)
        if cls is Primitive:
            qualifiers = _names(sorted(ctype.qualifiers))
            out.append(f"P{ctype.name}{_SEP}{qualifiers}")
        elif cls is Pointer:
            out.append(f"*{_names(sorted(ctype.qualifiers))}")
            self._type_parts(ctype.to, out, seen)
        elif cls is TypedefType:
            out.append(f"T{ctype.name}")
            out.append(self.annotation(ctype.annotations))
            self._type_parts(ctype.actual, out, seen)
        elif cls is StructType:
            ref = seen.get(id(ctype))
            if ref is not None:
                out.append(f"@{ref}")
                return
            seen[id(ctype)] = len(seen)
            out.append(f"S{ctype.is_union:d}{ctype.tag!r}")
            if ctype.fields is None:
                out.append("incomplete")
                return
            out.append(f"{{{len(ctype.fields)}")
            for fld in ctype.fields:
                out.append(f"F{fld.name}")
                out.append(self.annotation(fld.annotations))
                self._type_parts(fld.ctype, out, seen)
        elif cls is Array:
            out.append(f"[{ctype.size}")
            self._type_parts(ctype.of, out, seen)
        elif cls is EnumType:
            out.append(f"E{ctype.tag!r}{sorted(ctype.enumerators.items())!r}")
        elif cls is FunctionType:
            out.append(
                f"Fn{ctype.variadic:d}{ctype.old_style:d}({len(ctype.params)}"
            )
            self._type_parts(ctype.ret, out, seen)
            for param in ctype.params:
                out.append(f"p{param.name!r}")
                out.append(_location_part(param.location))
                out.append(self.annotation(param.annotations))
                self._type_parts(param.ctype, out, seen)
        else:
            # A new type class must be spelled out above, field by field
            # (tests/unit/test_entry_digest.py checks every CType class).
            raise TypeError(f"no entry digest for {cls.__name__}")

    def signature(self, sig: FunctionSignature) -> str:
        annotation = self.annotation
        out = [
            f"sig{_SEP}{sig.name}{_SEP}{sig.variadic:d}{sig.old_style:d}"
            f"{sig.has_definition:d}",
            _location_part(sig.location),
            annotation(sig.ret_annotations),
            self.type(sig.ret_type),
            f"({len(sig.params)}",
        ]
        for param in sig.params:
            out.append(f"p{param.name!r}")
            out.append(_location_part(param.location))
            out.append(annotation(param.annotations))
            out.append(self.type(param.ctype))
        out.append(f"G{len(sig.globals_list)}")
        for use in sig.globals_list:
            out.append(f"{use.name}{_SEP}{use.undef:d}{use.killed:d}")
            out.append(_location_part(use.location))
        modifies = sig.modifies_list
        out.append("M-" if modifies is None else "M" + _names(modifies))
        return _join_digest(out)

    def global_var(self, gvar: GlobalVariable) -> str:
        return _join_digest([
            f"var{_SEP}{gvar.name}{_SEP}{gvar.storage!r}{_SEP}"
            f"{gvar.has_initializer:d}",
            _location_part(gvar.location),
            self.annotation(gvar.annotations),
            self.type(gvar.ctype),
        ])


def signature_digest(sig: FunctionSignature) -> str:
    """Canonical digest of one merged :class:`FunctionSignature`."""
    return _EntryWalker().signature(sig)


def global_digest(gvar: GlobalVariable) -> str:
    """Canonical digest of one merged :class:`GlobalVariable`."""
    return _EntryWalker().global_var(gvar)


class EntryDigests:
    """Digests of one run's merged symbol-table entries, by read name.

    A read name is ``"f:<name>"``, ``"g:<name>"`` or ``"e:<name>"`` — a
    lookup through ``symtab.function``, ``symtab.global_var`` or the
    enum constants. A name with no entry digests as ``missing``: a
    lookup that found nothing is a dependency too, since a later
    definition of that name changes what the check sees. Each entry is
    digested at most once per run, however many units read it.
    """

    def __init__(self, symtab, enum_consts: dict[str, int]) -> None:
        self._functions = symtab.functions
        self._globals = symtab.globals
        self._enum_consts = enum_consts
        self._walker = _EntryWalker()
        self._memo: dict[str, str] = {}

    def entry(self, read: str) -> str:
        memo = self._memo
        digest = memo.get(read)
        if digest is None:
            kind, _, name = read.partition(":")
            if kind == "f":
                sig = self._functions.get(name)
                digest = (
                    "missing" if sig is None else self._walker.signature(sig)
                )
            elif kind == "g":
                gvar = self._globals.get(name)
                digest = (
                    "missing" if gvar is None
                    else self._walker.global_var(gvar)
                )
            elif kind == "e":
                value = self._enum_consts.get(name)
                digest = "missing" if value is None else f"{value:d}"
            else:
                raise ValueError(f"unknown read kind in {read!r}")
            memo[read] = digest
        return digest

    def digest(self, reads) -> str:
        """One digest over the current values of every entry in *reads*
        (sorted read names, as a check records them)."""
        entry = self.entry
        return _join_digest([f"{read}={entry(read)}" for read in reads])


def interface_entries_digest(symtab, enum_consts: dict[str, int]) -> str:
    """Digest of one interface slice: every entry's digest, by name."""
    walker = _EntryWalker()
    functions = symtab.functions
    globals_ = symtab.globals
    return _join_digest(
        [f"f:{n}={walker.signature(functions[n])}" for n in sorted(functions)]
        + [f"g:{n}={walker.global_var(globals_[n])}" for n in sorted(globals_)]
        + [f"e:{n}={v:d}" for n, v in sorted(enum_consts.items())]
    )


# -- the v1 reflective walk ---------------------------------------------------
#
# The seed's interface digest: a generic walk of the object graph into a
# canonical form (fields in declaration order, sets sorted, cycles cut at
# their first revisit), about ten times slower than the walker above. It
# is kept only for the seed replay in benchmarks/bench_frontend.py. Pickle
# bytes are NOT a usable digest — frozenset iteration order varies with
# string-hash randomization across processes, which would make every run
# look cold.


def _stable(obj, on_stack: set[int]) -> object:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return ("enum", type(obj).__name__, obj.name)
    oid = id(obj)
    if oid in on_stack:
        return ("cycle", type(obj).__name__, getattr(obj, "tag", None))
    on_stack.add(oid)
    try:
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return (
                type(obj).__name__,
                tuple(
                    (f.name, _stable(getattr(obj, f.name), on_stack))
                    for f in dataclasses.fields(obj)
                ),
            )
        if isinstance(obj, dict):
            items = [
                (_stable(k, on_stack), _stable(v, on_stack))
                for k, v in obj.items()
            ]
            return ("dict", tuple(sorted(items, key=repr)))
        if isinstance(obj, (set, frozenset)):
            return ("set", tuple(sorted(repr(_stable(v, on_stack)) for v in obj)))
        if isinstance(obj, (list, tuple)):
            return ("seq", tuple(_stable(v, on_stack) for v in obj))
        # Non-dataclass helper objects (e.g. plain classes with __dict__).
        state = getattr(obj, "__dict__", None)
        if state is not None:
            return (type(obj).__name__, _stable(state, on_stack))
        return ("repr", repr(obj))
    finally:
        on_stack.discard(oid)


def stable_digest(obj) -> str:
    """Content digest of an arbitrary (possibly cyclic) object graph."""
    return _sha(repr(_stable(obj, set())))


def interface_digest_v1(symtab, enum_consts: dict[str, int]) -> str:
    """The seed's reflective digest of one unit's interface slice; only
    ``benchmarks/bench_frontend.py``'s seed replay calls it."""
    return stable_digest(
        {
            "functions": symtab.functions,
            "globals": symtab.globals,
            "enum_consts": enum_consts,
        }
    )
