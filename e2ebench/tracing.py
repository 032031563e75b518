"""Spans around the public entry points the engine calls.

:class:`Recorder` patches each entry point with a wrapper that records a
span — layer, start, end, parent — in memory, and restores the originals
on :meth:`Recorder.uninstall`. Nothing in the checker changes: the spans
come from calls into each layer, as a caller sees them.

A layer's self time is its spans' durations minus the part their child
spans cover. Per-op figures come from the spans under each ``op`` root.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

# Record fields.
LAYER, START, END, PARENT, ROOT, WORK = range(6)


def _token_bytes(tokens) -> int:
    return sum(len(tok.value) for tok in tokens)


#: The fingerprint functions as bound in ``incremental.engine``, each
#: with the source bytes it digests (none for the digest combiners).
FINGERPRINT_WORK = {
    "source_key": lambda a, r: len(a[1]),
    "text_digest": lambda a, r: len(a[0]),
    "unit_digests": lambda a, r: _token_bytes(a[0]),
    "check_fingerprint": None,
    "program_digest": None,
    "flags_digest": None,
    "interface_digest": None,
}


class Recorder:
    """In-memory span recorder over patched entry points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._units: list = []           # parsed units analysed in this op
        self.cfg_s: list[float] = []     # build_cfg seconds per op
        self.bytes_written: list[int] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = self.spans[parent][ROOT] if parent is not None else index
        record = [layer, time.perf_counter(), 0.0, parent, root, 0]
        self.spans.append(record)
        self._stack.append(index)
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, layer: str):
        record = self._open(layer)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, owner, attr: str, layer: str, work=None) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            record = self._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if work is not None:
                record[WORK] = work(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- the entry points ------------------------------------------------------

    def install(self) -> None:
        from repro.analysis.checker import FunctionChecker
        from repro.core.api import CheckResult
        from repro.frontend.lexer import Lexer
        from repro.frontend.parser import Parser
        from repro.frontend.preprocessor import Preprocessor
        from repro.incremental import engine, parallel
        from repro.incremental.cache import ResultCache

        def analysed(args, result):
            self._units.append(args[0])
            return sum(1 for _ in args[0].unit.functions())

        self.wrap(Lexer, "tokens", "lexer", lambda a, r: len(a[0].text))
        self.wrap(Preprocessor, "preprocess_text", "preprocessor",
                  lambda a, r: len(r))
        self.wrap(Parser, "parse_translation_unit", "parser",
                  lambda a, r: len(a[0].toks))
        self.wrap(engine, "build_program_symtab", "symtab")
        self.wrap(engine, "check_parsed_unit", "analysis", analysed)
        self.wrap(FunctionChecker, "check", "analysis.function")
        for name, work in FINGERPRINT_WORK.items():
            self.wrap(engine, name, "fingerprint", work)
        self.wrap(ResultCache, "__init__", "cache.open")
        for name in ("get_result", "get_unit_memo"):
            self.wrap(ResultCache, name, "cache.get", lambda a, r: 1)
        for name in ("put_result", "put_unit_memo"):
            self.wrap(ResultCache, name, "cache.put", lambda a, r: 1)
        self.wrap(ResultCache, "flush_batch", "cache.put")
        self.wrap(parallel, "partition_units", "parallel",
                  lambda a, r: len(r))
        self.wrap(CheckResult, "render", "messages")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def after_op(self, bytes_written: int) -> None:
        """Between ops, outside any timed span: time the CFG build of
        every function the op analysed, and note the cache growth."""
        from repro.analysis.cfg import build_cfg

        started = time.perf_counter()
        for unit in self._units:
            for fdef in unit.unit.functions():
                build_cfg(fdef)
        self.cfg_s.append(time.perf_counter() - started)
        self._units.clear()
        self.bytes_written.append(bytes_written)

    def dump(self, path: str) -> str:
        """Write every span as one JSON line; returns the path."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": record[LAYER],
                    "start": record[START], "end": record[END],
                    "parent": record[PARENT], "root": record[ROOT],
                    "work": record[WORK],
                }) + "\n")
        return os.path.relpath(path)

    # -- aggregation -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self time, work and rates over the ``op`` roots."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] is not None:
                covered[record[PARENT]] += record[END] - record[START]
        ops = {i for i, r in enumerate(spans) if r[PARENT] is None
               and r[LAYER] == "op"}
        n_ops = max(1, len(ops))
        self_s: dict[str, float] = {}
        work: dict[str, float] = {}
        calls: dict[str, int] = {}
        slowest: dict[int, float] = {}
        for i, record in enumerate(spans):
            layer = record[LAYER]
            if record[ROOT] not in ops and layer != "cache.open":
                continue
            duration = record[END] - record[START]
            if layer == "analysis.function":
                root = record[ROOT]
                slowest[root] = max(slowest.get(root, 0.0), duration)
                layer = "analysis"
            self_s[layer] = self_s.get(layer, 0.0) + duration - covered[i]
            work[layer] = work.get(layer, 0) + record[WORK]
            calls[layer] = calls.get(layer, 0) + 1

        def per_op_ms(layer: str) -> float:
            return self_s.get(layer, 0.0) * 1000 / n_ops

        def rate(layer: str, scale: float) -> float:
            seconds = self_s.get(layer, 0.0)
            return work.get(layer, 0) / scale / seconds if seconds else 0.0

        def per_call_ms(layer: str, count: float) -> float:
            return self_s.get(layer, 0.0) * 1000 / count if count else 0.0

        return {
            "lexer.ms": per_op_ms("lexer"),
            "lexer.mb_per_s": rate("lexer", 1e6),
            "preprocessor.ms": per_op_ms("preprocessor"),
            "preprocessor.ktokens_per_s": rate("preprocessor", 1e3),
            "parser.ms": per_op_ms("parser"),
            "parser.ktokens_per_s": rate("parser", 1e3),
            "symtab.ms": per_op_ms("symtab"),
            "analysis.ms": per_op_ms("analysis"),
            "analysis.functions": work.get("analysis", 0) / n_ops,
            "analysis.slowest_function_ms": (
                statistics.median(slowest.values()) * 1000 if slowest else 0.0
            ),
            "analysis.cfg_ms": sum(self.cfg_s) * 1000 / n_ops,
            "fingerprint.ms": per_op_ms("fingerprint"),
            "fingerprint.mb_per_s": rate("fingerprint", 1e6),
            "cache.open_ms": per_call_ms("cache.open", calls.get("cache.open", 0)),
            "cache.get_ms": per_call_ms("cache.get", work.get("cache.get", 0)),
            "cache.put_ms": per_call_ms("cache.put", work.get("cache.put", 0)),
            "cache.bytes_written": sum(self.bytes_written) / n_ops,
            "messages.render_ms": per_op_ms("messages"),
        }
