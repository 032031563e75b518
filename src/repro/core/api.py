"""Public checking API (facade over the frontend and the analysis).

Typical use::

    from repro import check_source
    result = check_source(open("sample.c").read(), name="sample.c")
    for message in result.messages:
        print(message.render())

Multi-file programs are checked with :class:`Checker`, which parses every
unit, merges the interface information into one symbol table (the paper's
"libraries to store interface information"), and then checks each
function independently against that merged interface.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pickle
import tempfile
import threading

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..flags.registry import DEFAULT_FLAGS, Flags
from ..frontend.source import SourceManager
from .faults import (
    FatalError,
    cancel_checkpoint,
    frontend_fatal,
    internal_fatal,
    write_crash_bundle,
)
from ..frontend.symtab import SymbolTable
from ..frontend.tokens import Token
from ..messages.message import Message, MessageCode
from ..obs.trace import NULL_TRACER
from ..stdlib.specs import (
    PRELUDE_COVERED_HEADERS,
    PRELUDE_DEFINES,
    PRELUDE_NAME,
    PRELUDE_TEXT,
    SYSTEM_HEADERS,
)

if TYPE_CHECKING:
    from ..annotations.parse import AnnotationProblem
    from ..frontend import cast as A

#: Modules only a unit that must be parsed and checked uses. They are
#: imported inside the functions that need them, so a check answered
#: entirely from the result cache never loads them; long-lived servers
#: load them up front (``service.protocol.warm_process``).
FRONTEND_MODULES = (
    "repro.frontend.lexer",
    "repro.frontend.preprocessor",
    "repro.frontend.parser",
)
ANALYSIS_MODULES = ("repro.analysis.checker", "repro.core.reads")


def frontend_errors() -> tuple[type, ...]:
    """The exception types marking malformed input (loads the frontend)."""
    from ..frontend.lexer import LexError
    from ..frontend.parser import ParseError
    from ..frontend.preprocessor import PreprocessError

    return (LexError, PreprocessError, ParseError)


#: The prelude, set up once per process as ``(symtab, parsed)``.
#: *symtab* is its interface, merged into every program symbol table;
#: *parsed* is ``(unit, file_scope)`` — its translation unit and the
#: parser scope holding its typedefs/tags, which pre-seeds user-unit
#: parsers — or, after a snapshot load, that pair still pickled. The
#: bytes are unpickled by :func:`_prelude_parsed` only when a unit is
#: actually parsed, so a run whose units all hit the cache loads neither
#: the parser nor the AST classes.
_PRELUDE: tuple | None = None
_PRELUDE_LOCK = threading.Lock()

#: On-disk layout version of the prelude snapshot payload. Bump when the
#: snapshot tuple shape changes; stale files become silent misses.
#: v2: ``(version, symtab, pickled (unit, scope))`` — the parse result is
#: nested bytes, so loading the snapshot imports neither the parser nor
#: the AST.
_PRELUDE_SNAPSHOT_VERSION = 2

_FRONTEND_CODE_DIGEST: str | None = None


def _frontend_code_digest() -> str:
    """Digest of the source code that determines a prelude parse result.

    Keys the prelude snapshot alongside the prelude text: any edit to the
    lexer, preprocessor, parser, AST, type, or annotation modules makes
    existing snapshots unreachable, so a pickled parse can never outlive
    the code that produced it. Computed once per process.
    """
    global _FRONTEND_CODE_DIGEST
    if _FRONTEND_CODE_DIGEST is None:
        digest = hashlib.sha256()
        # The files are located, not imported: keying a snapshot must not
        # load the parser the snapshot exists to avoid.
        modules = (
            "..frontend.lexer", "..frontend.tokens", "..frontend.source",
            "..frontend.preprocessor", "..frontend.parser",
            "..frontend.cast", "..frontend.ctypes", "..annotations.kinds",
            "..annotations.parse", "..stdlib.specs",
        )
        for module in modules:
            spec = importlib.util.find_spec(module, __package__)
            path = spec.origin if spec is not None else None
            try:
                with open(path, "rb") as handle:
                    digest.update(handle.read())
            except (OSError, TypeError):
                digest.update(repr(path).encode("utf-8"))
            digest.update(b"\x00")
        _FRONTEND_CODE_DIGEST = digest.hexdigest()
    return _FRONTEND_CODE_DIGEST


def prelude_snapshot_key() -> str:
    """Cache key of the parsed-prelude snapshot (text + code + version).

    Hashes the prelude inputs directly rather than via
    ``incremental.fingerprint.prelude_digest`` — importing that package
    here would drag the whole engine in (and cost more than the load it
    keys), and the snapshot's validity depends only on the prelude text
    and the frontend code, not on checker-semantics versioning.
    """
    digest = hashlib.sha256()
    update = digest.update
    update(f"prelude-snapshot-v{_PRELUDE_SNAPSHOT_VERSION}\x00".encode())
    update(PRELUDE_TEXT.encode("utf-8"))
    update(b"\x00")
    for name, value in sorted(PRELUDE_DEFINES.items()):
        update(f"{name}={value}\x00".encode("utf-8"))
    for name, text in sorted(SYSTEM_HEADERS.items()):
        update(f"{name}:{text}\x00".encode("utf-8"))
    update(_frontend_code_digest().encode("ascii"))
    return digest.hexdigest()


def _load_prelude_snapshot(snapshot_dir: str, notes: list[str]) -> tuple | None:
    """Corruption-tolerant snapshot load (mirrors the result cache).

    A missing file is a plain miss. A truncated, garbled, or shape-
    mismatched file is discarded so the slot is rewritten — and noted,
    so a recurring drop is diagnosable — never an error.
    """
    path = os.path.join(snapshot_dir, prelude_snapshot_key() + ".pkl")
    try:
        handle = open(path, "rb")
    except OSError:
        return None
    try:
        with handle:
            payload = pickle.load(handle)
        if (
            not isinstance(payload, tuple)
            or len(payload) != 3
            or payload[0] != _PRELUDE_SNAPSHOT_VERSION
            or not isinstance(payload[1], SymbolTable)
            or not isinstance(payload[2], bytes)
        ):
            raise ValueError("unexpected prelude snapshot shape")
        return (payload[1], payload[2])
    except Exception:
        notes.append(
            f"dropped a corrupt or stale prelude snapshot under "
            f"{snapshot_dir}; reparsing the prelude"
        )
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def _write_prelude_snapshot(snapshot_dir: str, prelude: tuple) -> None:
    """Atomic snapshot write; failures are silent (the snapshot is only
    an accelerator — next process simply reparses)."""
    path = os.path.join(snapshot_dir, prelude_snapshot_key() + ".pkl")
    try:
        os.makedirs(snapshot_dir, exist_ok=True)
        # Drop snapshots for older prelude/code versions: only the
        # current key can ever be read again.
        for entry in os.listdir(snapshot_dir):
            if entry.endswith(".pkl") and entry != os.path.basename(path):
                try:
                    os.unlink(os.path.join(snapshot_dir, entry))
                except OSError:
                    pass
        symtab, parsed = prelude
        if not isinstance(parsed, bytes):
            # One blob for unit and scope keeps the types they share
            # shared after loading.
            parsed = pickle.dumps(parsed)
        payload = (_PRELUDE_SNAPSHOT_VERSION, symtab, parsed)
        fd, tmp = tempfile.mkstemp(
            dir=snapshot_dir, prefix=".tmp-", suffix="~"
        )
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle)
        os.replace(tmp, path)
    except OSError:
        pass


def _parse_prelude() -> tuple:
    from ..frontend.parser import Parser
    from ..frontend.preprocessor import Preprocessor

    manager = SourceManager()
    prelude_pp = Preprocessor(
        manager, defines=dict(PRELUDE_DEFINES), system_headers=SYSTEM_HEADERS
    )
    toks = prelude_pp.preprocess_text(PRELUDE_TEXT, PRELUDE_NAME)
    parser = Parser(toks, PRELUDE_NAME)
    unit = parser.parse_translation_unit()
    symtab = SymbolTable()
    symtab.add_unit(unit)
    return (symtab, (unit, parser.scope))


def _prelude() -> tuple:
    """The published ``(symtab, parsed)`` prelude, parsing it once.

    Initialization is guarded by a lock so concurrent daemon requests and
    pool-worker initializers racing on a fresh process each see exactly
    one parse; the fast path reads the published value without locking.
    """
    global _PRELUDE
    cached = _PRELUDE
    if cached is None:
        with _PRELUDE_LOCK:
            if _PRELUDE is None:
                _PRELUDE = _parse_prelude()
            cached = _PRELUDE
    return cached


def _prelude_parsed() -> tuple:
    """The prelude's ``(unit, file_scope)``, for parsing user units.

    A pair loaded from a snapshot is unpickled here, on first use.
    """
    global _PRELUDE
    cached = _prelude()
    if isinstance(cached[1], bytes):
        with _PRELUDE_LOCK:
            symtab, parsed = _PRELUDE
            if isinstance(parsed, bytes):
                _PRELUDE = (symtab, pickle.loads(parsed))
            cached = _PRELUDE
    return cached[1]


def prelude_parse_pending() -> bool:
    """True while the prelude's parse is still pickled: loaded from a
    snapshot and not yet needed by any unit parse."""
    cached = _PRELUDE
    return cached is not None and isinstance(cached[1], bytes)


def ensure_process_initialized(
    snapshot_dir: str | None = None, before_parse=None
) -> list[str]:
    """Warm per-process caches; safe to call from pool-worker initializers.

    With *snapshot_dir* (the engine passes ``<cache>/prelude``), the
    prelude is loaded from a pickled snapshot keyed by the prelude text +
    frontend code digest — a one-time parse per machine instead of per
    process — and written back after a cold parse. *before_parse*, when
    given, is called just before the prelude is actually parsed (never on
    a snapshot hit); the engine loads the frontend there under its own
    profile row. Returns run notes (e.g. a dropped corrupt snapshot); an
    empty list on the happy paths.
    """
    global _PRELUDE
    notes: list[str] = []
    if _PRELUDE is not None:
        return notes
    if snapshot_dir is None:
        if before_parse is not None:
            before_parse()
        _prelude()
        return notes
    with _PRELUDE_LOCK:
        if _PRELUDE is None:
            loaded = _load_prelude_snapshot(snapshot_dir, notes)
            if loaded is None:
                if before_parse is not None:
                    before_parse()
                loaded = _parse_prelude()
                _write_prelude_snapshot(snapshot_dir, loaded)
            _PRELUDE = loaded
    return notes


@dataclass
class ParsedUnit:
    unit: A.TranslationUnit
    controls: list[Token]
    problems: list[AnnotationProblem]
    enum_consts: dict[str, int]
    parse_errors: list = field(default_factory=list)
    #: Set when the frontend gave up on the whole file (unlexable input,
    #: a contained internal error, ...); ``unit`` is then empty.
    fatal_error: FatalError | None = None

    @property
    def degraded(self) -> bool:
        """True when any part of the unit could not be analyzed normally."""
        return bool(self.parse_errors) or self.fatal_error is not None


def failed_parsed_unit(name: str, fatal: FatalError) -> ParsedUnit:
    """The stand-in for a unit the frontend could not process at all."""
    from ..frontend import cast as A

    unit = A.TranslationUnit(fatal.location, name=name, items=[])
    return ParsedUnit(
        unit=unit, controls=[], problems=[], enum_consts={},
        fatal_error=fatal,
    )


@dataclass
class UnitCheckOutput:
    """The outcome of checking one translation unit in isolation.

    Messages are already flag-filtered, suppression-filtered (against the
    unit's own control comments), and sorted. Outputs from several units
    merge into a program-level result with :func:`merge_unit_outputs`.

    ``degraded`` marks a result produced under fault containment (parse
    recovery, a skipped file, or a contained crash). Degraded results
    must never be cached as clean: the unit is re-checked on every run.
    ``internal_errors`` counts contained checker crashes, which drive the
    CLI's exit status 3.
    """

    messages: list[Message]
    suppressed: int = 0
    degraded: bool = False
    internal_errors: int = 0
    #: Every name the check looked up in the merged interface, misses
    #: included, sorted: ``"f:<name>"`` through ``symtab.function``,
    #: ``"g:<name>"`` through ``symtab.global_var``, ``"e:<name>"`` in
    #: the enum constants. The result depends on nothing else outside
    #: the unit, which is what lets the engine reuse it when only
    #: entries it never read changed.
    reads: tuple[str, ...] | None = None


def unit_interface(pu: "ParsedUnit") -> SymbolTable:
    """Extract the interface slice (signatures + globals) of one unit."""
    symtab = SymbolTable()
    symtab.add_unit(pu.unit)
    return symtab


def build_program_symtab(
    interfaces: list[SymbolTable],
    base_symtab: SymbolTable | None = None,
) -> SymbolTable:
    """Assemble the merged program symbol table the paper's modular
    checking assumes: prelude first, then loaded libraries, then each
    unit's interface slice in program order.

    The prelude's table is built once per process and copied per run:
    signatures are replaced, never mutated, on merge, so sharing them is
    safe; global variables are merged in place, so they are copied.
    """
    symtab = SymbolTable()
    template = _prelude()[0]
    symtab.functions.update(template.functions)
    symtab.globals.update(
        (name, replace(gvar)) for name, gvar in template.globals.items()
    )
    if base_symtab is not None:
        from ..driver.library import merge_symtabs

        merge_symtabs(symtab, base_symtab)
    for interface in interfaces:
        symtab.merge_interface(interface)
    return symtab


def check_parsed_unit(
    pu: "ParsedUnit",
    symtab: SymbolTable,
    flags: Flags,
    enum_consts: dict[str, int] | None = None,
    crash_dir: str | None = None,
    tracer=NULL_TRACER,
) -> UnitCheckOutput:
    """Check one parsed unit against a merged interface.

    This is a pure function of its inputs (no module-global state beyond
    the immutable prelude parse), which is what makes per-unit results
    cacheable and lets pool workers check units independently. The
    *tracer* is measurement only — it never changes the output — and
    per-function spans are emitted only when a trace sink is attached
    (``tracer.emitting``), so the default path stays free. The analysis
    sees *symtab* and *enum_consts* only through recording views, and
    the output's ``reads`` lists every name it looked up.

    Analysis faults are contained per function: an unexpected exception
    while checking one function becomes an ``internal-error`` message
    plus a crash bundle under *crash_dir*, and the remaining functions
    of the unit are still checked.
    """
    from ..analysis.checker import CheckContext, FunctionChecker
    from ..messages.reporter import Reporter
    from ..messages.suppress import SuppressionTable
    from .reads import RecordingEnums, RecordingSymtab

    reporter = Reporter(flags=flags)
    degraded = pu.degraded
    internal_errors = 0
    if pu.fatal_error is not None:
        fatal = pu.fatal_error
        if fatal.kind == "internal":
            internal_errors += 1
            reporter.report(
                MessageCode.INTERNAL_ERROR, fatal.location, fatal.description
            )
        else:
            reporter.report(
                MessageCode.PARSE_ERROR, fatal.location,
                f"Cannot parse this file: {fatal.description} "
                f"(file skipped)",
            )
    for problem in pu.problems:
        reporter.report(
            MessageCode.ANNOTATION_PROBLEM, problem.location,
            problem.description,
        )
    for error in pu.parse_errors:
        reporter.report(
            MessageCode.PARSE_ERROR, error.location,
            f"Parse error: {error.args[0].split(': ', 1)[-1]} "
            f"(skipped to the next declaration)",
        )
    reads: set[str] = set()
    ctx = CheckContext(
        symtab=RecordingSymtab(symtab, reads), reporter=reporter,
        flags=flags, enum_consts=RecordingEnums(enum_consts or {}, reads),
    )
    for fdef in pu.unit.functions():
        try:
            if tracer.emitting:
                with tracer.span(
                    "function", cat="function",
                    function=fdef.name, unit=pu.unit.name,
                ):
                    FunctionChecker(ctx, fdef).check()
            else:
                FunctionChecker(ctx, fdef).check()
        except Exception as exc:
            degraded = True
            internal_errors += 1
            write_crash_bundle(
                crash_dir, phase="check", unit=pu.unit.name,
                function=fdef.name, exc=exc,
            )
            # Only the exception *type* goes into the message: reprs can
            # embed object addresses, and message text must be identical
            # between serial and parallel runs. The full detail lives in
            # the crash bundle.
            reporter.report(
                MessageCode.INTERNAL_ERROR, fdef.location,
                f"Internal error ({type(exc).__name__}) while checking "
                f"function '{fdef.name}' (function skipped; rest of the "
                f"unit still checked)",
            )
    table = SuppressionTable.from_controls(pu.controls)
    reporter.apply_suppressions(table)
    return UnitCheckOutput(
        messages=reporter.sorted_messages(),
        suppressed=reporter.suppressed_count,
        degraded=degraded,
        internal_errors=internal_errors,
        reads=tuple(sorted(reads)),
    )


def merge_unit_outputs(
    outputs: list[UnitCheckOutput],
) -> tuple[list[Message], int]:
    """Combine per-unit outputs into one sorted, deduplicated message list.

    Units sharing a header may each report the same header-located message
    (an annotation problem, say); the reporter deduplicates those within a
    run, so the merge deduplicates across units by the same key.
    """
    seen: set[tuple] = set()
    merged: list[Message] = []
    suppressed = 0
    for out in outputs:
        suppressed += out.suppressed
        for msg in out.messages:
            key = (msg.code, msg.location, msg.text)
            if key in seen:
                continue
            seen.add(key)
            merged.append(msg)
    return sorted(merged, key=Message.sort_key), suppressed


@dataclass
class CheckResult:
    """The outcome of a checking run.

    ``degraded_units`` names the translation units whose results were
    produced under fault containment (parse recovery, skipped files,
    contained crashes); ``internal_errors`` counts contained checker
    crashes across the run (nonzero drives CLI exit status 3).

    ``units`` holds the ASTs parsed in this process: every unit for
    ``Checker``; for the incremental engine, the units it did not answer
    from its unit memos, except with ``jobs > 1``, whose pool workers
    keep the ASTs they parse. ``keep_units=True`` (the CLI's ``--dot``
    and ``--trace-function``) keeps the frontend in this process at any
    job count, so ``units`` then holds every unit.
    """

    messages: list[Message]
    suppressed: int = 0
    units: list[A.TranslationUnit] = field(default_factory=list)
    symtab: SymbolTable | None = None
    degraded_units: list[str] = field(default_factory=list)
    internal_errors: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_units)

    def render(self) -> str:
        parts = [m.render() for m in self.messages]
        parts.append(f"\n{len(self.messages)} code warning(s)")
        return "\n".join(parts)

    def codes(self) -> list[MessageCode]:
        return [m.code for m in self.messages]

    def by_code(self) -> dict[MessageCode, list[Message]]:
        out: dict[MessageCode, list[Message]] = {}
        for msg in self.messages:
            out.setdefault(msg.code, []).append(msg)
        return out

    def error_classes(self) -> dict[str, list[Message]]:
        """Messages grouped by the dynamic memory-error class they evidence.

        Codes with no dynamic counterpart (parse errors, style checks) are
        omitted; this is the static side of the difftest verdict contract
        (see :data:`repro.messages.message.MEMORY_ERROR_CLASSES`).
        """
        out: dict[str, list[Message]] = {}
        for msg in self.messages:
            cls = msg.code.error_class
            if cls is not None:
                out.setdefault(cls, []).append(msg)
        return out

    def __len__(self) -> int:
        return len(self.messages)


class Checker:
    """Checks one or more C source files LCLint-style."""

    def __init__(
        self,
        flags: Flags | None = None,
        sources: SourceManager | None = None,
        defines: dict[str, str] | None = None,
        crash_dir: str | None = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.flags = flags or DEFAULT_FLAGS
        self.sources = sources or SourceManager()
        self.defines = dict(PRELUDE_DEFINES)
        self.defines.update(defines or {})
        self.crash_dir = crash_dir
        self.tracer = tracer
        self.base_symtab: SymbolTable | None = None

    # -- interface libraries (paper section 7: modular checking) -----------

    def load_library(self, path: str) -> None:
        """Merge interface information from a saved library file."""
        from ..driver.library import load_library, merge_symtabs

        loaded = load_library(path)
        if self.base_symtab is None:
            self.base_symtab = SymbolTable()
        merge_symtabs(self.base_symtab, loaded)

    def save_library(self, result: "CheckResult", path: str) -> None:
        from ..driver.library import save_library

        assert result.symtab is not None
        save_library(result.symtab, path)

    # -- parsing ----------------------------------------------------------

    def parse_unit(self, text: str, name: str) -> ParsedUnit:
        """Parse one unit, containing every frontend failure.

        Malformed input (a :class:`LexError`, :class:`PreprocessError`,
        or a :class:`ParseError` that escaped panic-mode recovery) and
        unexpected internal exceptions both yield a *failed* unit — an
        empty translation unit carrying a :class:`FatalError` — instead
        of aborting the batch. ``check_parsed_unit`` turns the record
        into a single parse-error / internal-error message.
        """
        errors = frontend_errors()
        try:
            return self._parse_unit_raw(text, name)
        except errors as exc:
            return failed_parsed_unit(name, frontend_fatal(exc, name))
        except Exception as exc:
            write_crash_bundle(
                self.crash_dir, phase="parse", unit=name, exc=exc,
                source_text=text,
            )
            return failed_parsed_unit(
                name, internal_fatal(exc, name, "parsing")
            )

    def _parse_unit_raw(self, text: str, name: str) -> ParsedUnit:
        from ..frontend.parser import Parser
        from ..frontend.preprocessor import Preprocessor

        pp = Preprocessor(
            self.sources, defines=dict(self.defines),
            system_headers=SYSTEM_HEADERS,
            prelude_covered=PRELUDE_COVERED_HEADERS,
        )
        _, prelude_scope = _prelude_parsed()
        toks = pp.preprocess_text(text, name)
        # .lcl files are LCL interface specifications: annotations appear
        # as bare words before types (paper section 4).
        parser = Parser(toks, name, lcl_mode=name.endswith(".lcl"),
                        preseed=prelude_scope)
        unit = parser.parse_translation_unit()
        return ParsedUnit(
            unit=unit,
            controls=parser.controls,
            problems=parser.problems,
            enum_consts=dict(parser.scope.enum_consts),
            parse_errors=list(parser.parse_errors),
        )

    # -- checking -------------------------------------------------------------

    def check_units(self, parsed: list[ParsedUnit]) -> CheckResult:
        with self.tracer.span("batch", cat="batch", units=len(parsed)):
            symtab = build_program_symtab(
                [unit_interface(pu) for pu in parsed], self.base_symtab
            )
            enum_consts: dict[str, int] = {}
            for pu in parsed:
                enum_consts.update(pu.enum_consts)

            outputs = []
            for pu in parsed:
                cancel_checkpoint()  # requests stop at unit boundaries
                with self.tracer.span("unit", cat="unit", unit=pu.unit.name):
                    outputs.append(check_parsed_unit(
                        pu, symtab, self.flags, enum_consts,
                        crash_dir=self.crash_dir, tracer=self.tracer,
                    ))
        messages, suppressed = merge_unit_outputs(outputs)

        return CheckResult(
            messages=messages,
            suppressed=suppressed,
            units=[pu.unit for pu in parsed],
            symtab=symtab,
            degraded_units=[
                pu.unit.name
                for pu, out in zip(parsed, outputs)
                if out.degraded
            ],
            internal_errors=sum(out.internal_errors for out in outputs),
        )

    def check_sources(self, files: dict[str, str]) -> CheckResult:
        """Check a set of named C sources as one program.

        Header files (``.h``) are registered for ``#include`` resolution;
        every other entry is parsed and checked as a translation unit.
        """
        units: list[ParsedUnit] = []
        for name, text in files.items():
            if name.endswith(".h"):
                self.sources.add(name, text)
        for name, text in files.items():
            if not name.endswith(".h"):
                cancel_checkpoint()
                units.append(self.parse_unit(text, name))
        return self.check_units(units)

    def check_files(self, paths: list[str]) -> CheckResult:
        files: dict[str, str] = {}
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                files[path] = handle.read()
        return self.check_sources(files)


def check_source(
    text: str,
    name: str = "<string>",
    flags: Flags | None = None,
    extra_sources: dict[str, str] | None = None,
    crash_dir: str | None = None,
) -> CheckResult:
    """Check a single C source string; the common entry point."""
    checker = Checker(flags=flags, crash_dir=crash_dir)
    for header, contents in (extra_sources or {}).items():
        checker.sources.add(header, contents)
    return checker.check_units([checker.parse_unit(text, name)])


def check_files(paths: list[str], flags: Flags | None = None) -> CheckResult:
    return Checker(flags=flags).check_files(paths)
