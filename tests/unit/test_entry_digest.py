"""Guards for dependency-validated cache hits.

A result slot is reused when the merged symbol-table entries its check
read digest the same as before. That is sound only while (1) the
analysis reads the table through the recorded lookups alone and (2) the
entry digest sees every field of an entry. These tests fail when either
stops being true, and pin that the digest does not depend on the
interpreter's hash seed.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.annotations.kinds import (
    AllocAnn,
    AnnotationSet,
    DefAnn,
    ExposureAnn,
    NullAnn,
)
from repro.core.api import (
    Checker,
    build_program_symtab,
    check_parsed_unit,
    unit_interface,
)
from repro.core.reads import RecordingEnums, RecordingSymtab
from repro.flags.registry import Flags
from repro.frontend.cast import GlobalUse
from repro.frontend.ctypes import (
    Array,
    CType,
    EnumType,
    FieldDecl,
    FunctionType,
    ParamType,
    Pointer,
    Primitive,
    StructType,
    TypedefType,
)
from repro.frontend.source import Location
from repro.frontend.symtab import FunctionSignature, GlobalVariable, SymbolTable
from repro.incremental.entries import (
    EntryDigests,
    global_digest,
    signature_digest,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestRecordingView:
    def _table(self):
        symtab = SymbolTable()
        result = Checker().check_sources({
            "t.c": "extern int g;\nint f(int x) { return x + g; }\n"
        })
        symtab.functions.update(result.symtab.functions)
        symtab.globals.update(result.symtab.globals)
        return symtab

    def test_lookups_record_every_name_misses_included(self):
        symtab = self._table()
        reads: set[str] = set()
        view = RecordingSymtab(symtab, reads)
        assert view.function("f") is symtab.functions["f"]
        assert view.function("nope") is None
        assert view.global_var("g") is symtab.globals["g"]
        assert view.global_var("missing") is None
        assert reads == {"f:f", "f:nope", "g:g", "g:missing"}

    def test_view_exposes_only_the_recorded_lookups(self):
        view = RecordingSymtab(self._table(), set())
        public = {n for n in dir(view) if not n.startswith("_")}
        assert public == {"function", "global_var"}
        for name in ("functions", "globals", "merge_interface", "add_unit",
                     "add_declaration", "add_function_def"):
            with pytest.raises(AttributeError):
                getattr(view, name)

    def test_enum_view_records_and_exposes_only_lookups(self):
        reads: set[str] = set()
        enums = RecordingEnums({"RED": 0}, reads)
        assert "RED" in enums
        assert "BLUE" not in enums
        assert enums["RED"] == 0
        assert reads == {"e:RED", "e:BLUE"}
        public = {n for n in dir(enums) if not n.startswith("_")}
        assert public == set()
        for name in ("get", "items", "keys", "values", "update"):
            with pytest.raises(AttributeError):
                getattr(enums, name)
        with pytest.raises(TypeError):
            iter(enums)
        with pytest.raises(TypeError):
            len(enums)

    def test_check_reports_what_it_read(self):
        checker = Checker()
        pu = checker.parse_unit(
            "enum color { RED, BLUE };\n"
            "extern int g;\n"
            "extern int h(int);\n"
            "int f(void) { return h(g) + RED + undeclared(1); }\n",
            "t.c",
        )
        symtab = build_program_symtab([unit_interface(pu)])
        output = check_parsed_unit(pu, symtab, Flags(), pu.enum_consts)
        assert list(output.reads) == sorted(output.reads)
        for read in ("f:f", "f:h", "g:g", "e:RED", "f:undeclared"):
            assert read in output.reads


# -- field coverage -------------------------------------------------------------
#
# One sample signature and one sample global reach every class an entry
# can hold. Each (class, field) pair has a perturbed value; building the
# sample with that field replaced must change a digest. The pair set
# must equal the classes' dataclass fields, so a field added later fails
# here until the digest covers it.

CLASSES = (
    FunctionSignature, GlobalVariable, ParamType, AnnotationSet, Location,
    GlobalUse, Primitive, Pointer, Array, StructType, FieldDecl, EnumType,
    FunctionType, TypedefType,
)

_OTHER_ANN = AnnotationSet(alloc=AllocAnn.TEMP, names=("temp",))
_OTHER_TYPE = Primitive("double")

PERTURB = {
    (FunctionSignature, "name"): "other",
    (FunctionSignature, "ret_type"): _OTHER_TYPE,
    (FunctionSignature, "ret_annotations"): _OTHER_ANN,
    (FunctionSignature, "params"): [],
    (FunctionSignature, "variadic"): True,
    (FunctionSignature, "old_style"): True,
    (FunctionSignature, "globals_list"): [],
    (FunctionSignature, "modifies_list"): None,
    (FunctionSignature, "location"): Location("s.c", 40, 1),
    (FunctionSignature, "has_definition"): False,
    (GlobalVariable, "name"): "other",
    (GlobalVariable, "ctype"): _OTHER_TYPE,
    (GlobalVariable, "annotations"): _OTHER_ANN,
    (GlobalVariable, "location"): Location("s.c", 41, 1),
    (GlobalVariable, "storage"): None,
    (GlobalVariable, "has_initializer"): True,
    (ParamType, "name"): "q",
    (ParamType, "ctype"): _OTHER_TYPE,
    (ParamType, "annotations"): _OTHER_ANN,
    (ParamType, "location"): Location("s.h", 9, 9),
    (AnnotationSet, "null"): NullAnn.RELNULL,
    (AnnotationSet, "definition"): DefAnn.PARTIAL,
    (AnnotationSet, "alloc"): AllocAnn.KEEP,
    (AnnotationSet, "exposure"): ExposureAnn.EXPOSED,
    (AnnotationSet, "unique"): True,
    (AnnotationSet, "returned"): True,
    (AnnotationSet, "truenull"): True,
    (AnnotationSet, "falsenull"): True,
    (AnnotationSet, "size_bound"): 9,
    (AnnotationSet, "names"): ("null", "observer"),
    (Location, "filename"): "t.h",
    (Location, "line"): 77,
    (Location, "column"): 8,
    (GlobalUse, "location"): Location("s.h", 12, 2),
    (GlobalUse, "name"): "other",
    (GlobalUse, "undef"): False,
    (GlobalUse, "killed"): True,
    (Primitive, "name"): "long",
    (Primitive, "qualifiers"): frozenset({"const"}),
    (Pointer, "to"): _OTHER_TYPE,
    (Pointer, "qualifiers"): frozenset({"const", "volatile"}),
    (Array, "of"): _OTHER_TYPE,
    (Array, "size"): 5,
    (StructType, "tag"): "other",
    (StructType, "is_union"): True,
    (StructType, "fields"): None,
    (FieldDecl, "name"): "other",
    (FieldDecl, "ctype"): _OTHER_TYPE,
    (FieldDecl, "annotations"): _OTHER_ANN,
    (EnumType, "tag"): "colour",
    (EnumType, "enumerators"): {"RED": 0, "BLUE": 2},
    (FunctionType, "ret"): _OTHER_TYPE,
    (FunctionType, "params"): [],
    (FunctionType, "variadic"): True,
    (FunctionType, "old_style"): True,
    (TypedefType, "name"): "item",
    (TypedefType, "actual"): _OTHER_TYPE,
    (TypedefType, "annotations"): _OTHER_ANN,
}


def _sample(over: dict) -> tuple[FunctionSignature, GlobalVariable]:
    """The sample entries, with every ``(class, field)`` in *over* set to
    its value wherever that class is built."""

    def mk(cls, **fields):
        for (owner, name), value in over.items():
            if owner is cls and name in fields:
                fields[name] = value
        return cls(**fields)

    def loc(line):
        return mk(Location, filename="s.h", line=line, column=3)

    def ann(*names, **flags):
        values = dict(
            null=None, definition=None, alloc=None, exposure=None,
            unique=False, returned=False, truenull=False, falsenull=False,
            size_bound=None, names=names,
        )
        values.update(flags)
        return mk(AnnotationSet, **values)

    char = mk(Primitive, name="char", qualifiers=frozenset())
    node = mk(StructType, tag="node", is_union=False, fields=None)
    color = mk(EnumType, tag="color", enumerators={"RED": 0, "BLUE": 1})
    callback = mk(
        FunctionType,
        ret=char,
        params=[mk(ParamType, name="c", ctype=color, annotations=ann(),
                   location=loc(2))],
        variadic=False, old_style=False,
    )
    fields = [
        mk(FieldDecl, name="next",
           ctype=mk(Pointer, to=node, qualifiers=frozenset()),
           annotations=ann("null", null=NullAnn.NULL)),
        mk(FieldDecl, name="buf",
           ctype=mk(Array, of=char, size=4), annotations=ann()),
        mk(FieldDecl, name="cb",
           ctype=mk(Pointer, to=callback, qualifiers=frozenset()),
           annotations=ann()),
    ]
    node.fields = over.get((StructType, "fields"), fields)
    elem = mk(
        TypedefType, name="elem",
        actual=mk(Pointer, to=node, qualifiers=frozenset()),
        annotations=ann("only", alloc=AllocAnn.ONLY),
    )
    sig = mk(
        FunctionSignature,
        name="make",
        ret_type=elem,
        ret_annotations=ann("null", "out", null=NullAnn.NULL,
                            definition=DefAnn.OUT),
        params=[mk(ParamType, name="p", ctype=elem,
                   annotations=ann("temp", alloc=AllocAnn.TEMP),
                   location=loc(5))],
        variadic=False,
        old_style=False,
        globals_list=[mk(GlobalUse, location=loc(6), name="head",
                         undef=True, killed=False)],
        modifies_list=["head"],
        location=loc(7),
        has_definition=True,
    )
    gvar = mk(
        GlobalVariable, name="head", ctype=elem,
        annotations=ann("only", alloc=AllocAnn.ONLY), location=loc(8),
        storage="extern", has_initializer=False,
    )
    return sig, gvar


def _digests(over: dict) -> tuple[str, str]:
    sig, gvar = _sample(over)
    return signature_digest(sig), global_digest(gvar)


def _reachable_classes(obj, seen=None) -> set[type]:
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return set()
    seen.add(id(obj))
    found: set[type] = set()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        found.add(type(obj))
        for f in dataclasses.fields(obj):
            found |= _reachable_classes(getattr(obj, f.name), seen)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            found |= _reachable_classes(item, seen)
    return found


class TestFieldCoverage:
    def test_every_type_class_is_covered(self):
        assert set(CType.__subclasses__()) <= set(CLASSES)

    def test_perturbations_cover_every_field_of_every_entry_class(self):
        declared = {
            (cls, f.name) for cls in CLASSES for f in dataclasses.fields(cls)
        }
        assert set(PERTURB) == declared
        sig, gvar = _sample({})
        assert _reachable_classes(sig) | _reachable_classes(gvar) == set(
            CLASSES
        )

    @pytest.mark.parametrize(
        "key", sorted(PERTURB, key=lambda k: (k[0].__name__, k[1])),
        ids=lambda k: f"{k[0].__name__}.{k[1]}",
    )
    def test_every_field_changes_a_digest(self, key):
        assert _digests({key: PERTURB[key]}) != _digests({})

    def test_digest_is_stable_and_cuts_struct_cycles(self):
        assert _digests({}) == _digests({})

    def test_entry_digests_cover_misses_and_enum_values(self):
        sig, gvar = _sample({})
        symtab = SymbolTable()
        symtab.functions["make"] = sig
        symtab.globals["head"] = gvar
        reads = ("e:RED", "f:absent", "f:make", "g:head")
        base = EntryDigests(symtab, {"RED": 0}).digest(reads)
        assert EntryDigests(symtab, {"RED": 1}).digest(reads) != base
        symtab.functions["absent"] = sig
        assert EntryDigests(symtab, {"RED": 0}).digest(reads) != base


_DIGEST_SCRIPT = r"""
import json
from repro.core.api import Checker
from repro.incremental.entries import global_digest, signature_digest
result = Checker().check_sources({"t.c": '''
typedef struct _node { const volatile char *name; struct _node *next; } *node;
extern /*@null@*/ /*@only@*/ node mk(const volatile char *s, node n);
extern /*@only@*/ node head;
'''})
table = result.symtab
print(json.dumps(sorted(
    [signature_digest(table.functions[n]) for n in ("mk", "malloc")]
    + [global_digest(table.globals["head"])]
)))
"""


def test_digests_do_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    assert len(set(outputs[0])) == 3
