"""Unit tests for the fault-containment layer: crash bundles, degraded
unit outputs, and the parallel scheduler's fallback bookkeeping."""

import io
import json
import multiprocessing
import os
import pickle
import types

import pytest

from repro.core.api import (
    Checker,
    build_program_symtab,
    check_parsed_unit,
    failed_parsed_unit,
    unit_interface,
)
from repro.core.faults import (
    FatalError,
    MAX_CRASH_BUNDLES,
    frontend_fatal,
    write_crash_bundle,
)
from repro.frontend.lexer import LexError
from repro.frontend.source import Location
from repro.messages.message import MessageCode


def _bundles(directory):
    if not os.path.isdir(directory):
        return []
    return sorted(n for n in os.listdir(directory) if n.endswith(".json"))


class TestCrashBundles:
    def test_bundle_contents(self, tmp_path):
        crash_dir = str(tmp_path / "crashes")
        try:
            raise ValueError("kaboom")
        except ValueError as exc:
            path = write_crash_bundle(
                crash_dir, phase="check", unit="u.c", function="f",
                exc=exc, source_text="int x;",
            )
        assert path is not None and os.path.isfile(path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["phase"] == "check"
        assert payload["unit"] == "u.c"
        assert payload["function"] == "f"
        assert payload["exception"] == "ValueError: kaboom"
        assert "Traceback" in payload["traceback"]
        assert len(payload["source_digest"]) == 64

    def test_unwritable_directory_returns_none(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        path = write_crash_bundle(
            str(blocker / "nested"), phase="check", unit="u.c",
            exc=RuntimeError("x"),
        )
        assert path is None

    def test_pruning_caps_bundle_count(self, tmp_path):
        crash_dir = str(tmp_path / "crashes")
        os.makedirs(crash_dir)
        for i in range(MAX_CRASH_BUNDLES + 5):
            with open(os.path.join(crash_dir, f"crash-0-{i:04d}.json"),
                      "w") as handle:
                handle.write("{}")
        write_crash_bundle(crash_dir, phase="check", unit="u.c",
                           exc=RuntimeError("x"))
        assert len(_bundles(crash_dir)) <= MAX_CRASH_BUNDLES


class TestFrontendFatals:
    def test_lex_error_becomes_failed_unit(self):
        checker = Checker()
        pu = checker.parse_unit('char *s = "unterminated\n', "bad.c")
        assert pu.fatal_error is not None
        assert pu.fatal_error.kind == "frontend"
        assert pu.degraded
        assert pu.unit.functions() == []

    def test_failed_unit_reports_one_parse_error(self):
        fatal = frontend_fatal(
            LexError("unterminated string", Location("bad.c", 3, 1)), "bad.c"
        )
        pu = failed_parsed_unit("bad.c", fatal)
        symtab = build_program_symtab([unit_interface(pu)])
        out = check_parsed_unit(pu, symtab, Checker().flags)
        assert out.degraded
        assert out.internal_errors == 0
        parse_errors = [
            m for m in out.messages if m.code is MessageCode.PARSE_ERROR
        ]
        assert len(parse_errors) == 1
        assert parse_errors[0].location.line == 3
        assert "unterminated string" in parse_errors[0].text

    def test_internal_fatal_reports_internal_error(self):
        fatal = FatalError(
            kind="internal", location=Location("u.c", 1, 0),
            description="Internal error while parsing this file: "
                        "RuntimeError: x (file skipped)",
        )
        pu = failed_parsed_unit("u.c", fatal)
        symtab = build_program_symtab([unit_interface(pu)])
        out = check_parsed_unit(pu, symtab, Checker().flags)
        assert out.degraded
        assert out.internal_errors == 1
        assert [m.code for m in out.messages] == [MessageCode.INTERNAL_ERROR]


class TestPerFunctionContainment:
    def test_one_bad_function_does_not_hide_the_rest(self, tmp_path,
                                                     monkeypatch):
        from repro.analysis.checker import FunctionChecker

        original = FunctionChecker.check

        def selective(self):
            if self.fdef.name == "boom":
                raise RuntimeError("injected")
            return original(self)

        monkeypatch.setattr(FunctionChecker, "check", selective)
        crash_dir = str(tmp_path / "crashes")
        checker = Checker(crash_dir=crash_dir)
        pu = checker.parse_unit(
            "#include <stdlib.h>\n"
            "void boom(void) { }\n"
            "void leaky(char *p) { free(p); }\n",
            "u.c",
        )
        symtab = build_program_symtab([unit_interface(pu)])
        out = check_parsed_unit(pu, symtab, checker.flags,
                                crash_dir=crash_dir)
        codes = [m.code for m in out.messages]
        assert MessageCode.INTERNAL_ERROR in codes
        assert out.degraded and out.internal_errors == 1
        # the other function's real warning survived
        assert any(c is not MessageCode.INTERNAL_ERROR for c in codes)
        assert _bundles(crash_dir)

    def test_clean_unit_is_not_degraded(self):
        checker = Checker()
        pu = checker.parse_unit("int f(int x) { return x; }\n", "u.c")
        symtab = build_program_symtab([unit_interface(pu)])
        out = check_parsed_unit(pu, symtab, checker.flags)
        assert not out.degraded
        assert out.internal_errors == 0


class TestParallelFallback:
    """The two-round worker pool: what a dead worker, a collapsed pool or
    an interrupt costs, and what crosses its pipes."""

    @pytest.fixture(autouse=True)
    def _needs_fork(self):
        from repro.incremental import parallel

        if not parallel.fork_available():
            pytest.skip("needs fork")

    @staticmethod
    def _files():
        from repro.bench.dbexample import db_sources

        return db_sources(0)  # six units with 34 messages

    @staticmethod
    def _renders(result):
        return [m.render() for m in result.messages]

    def _pooled(self, **kwargs):
        from repro.incremental import IncrementalChecker
        from repro.obs.metrics import MetricsRegistry

        engine = IncrementalChecker(jobs=2, metrics=MetricsRegistry(),
                                    **kwargs)
        return engine, engine.check_sources(self._files())

    @staticmethod
    def _die_on(monkeypatch, name, units):
        """Make every worker exit at once when it reaches one of *units*
        in the round whose per-unit function is *name*. Workers fork
        after the patch, so they inherit it; the parent's serial path
        never calls these functions."""
        from repro.incremental import parallel

        original = getattr(parallel, name)

        def dying(engine, plan, *args):
            if units is None or plan.name in units:
                os._exit(7)
            return original(engine, plan, *args)

        monkeypatch.setattr(parallel, name, dying)

    def test_worker_killed_in_the_frontend_round(self, monkeypatch):
        serial = Checker().check_sources(self._files())
        self._die_on(monkeypatch, "_frontend_unit", {"erc.c"})
        engine, result = self._pooled()
        assert self._renders(result) == self._renders(serial)
        died = [n for n in engine.stats.notes if "died" in n]
        assert len(died) == 1 and "exit status 7" in died[0], died
        assert engine.metrics.count("engine.parallel.fallbacks") == 1

    def test_worker_killed_in_the_check_round(self, monkeypatch):
        serial = Checker().check_sources(self._files())
        self._die_on(monkeypatch, "_check_unit", {"erc.c"})
        engine, result = self._pooled()
        assert self._renders(result) == self._renders(serial)
        died = [n for n in engine.stats.notes if "died" in n]
        assert len(died) == 1, engine.stats.notes
        assert engine.metrics.count("engine.parallel.fallbacks") == 1
        assert engine.stats.parallel_used

    def test_collapsed_pool_is_one_fallback(self, monkeypatch):
        serial = Checker().check_sources(self._files())
        self._die_on(monkeypatch, "_frontend_unit", None)
        engine, result = self._pooled()
        assert self._renders(result) == self._renders(serial)
        assert len(engine.stats.notes) == 1, engine.stats.notes
        assert engine.stats.notes[0].startswith("2 pool worker(s) died")
        assert "6 unfinished unit(s)" in engine.stats.notes[0]
        assert engine.metrics.count("engine.parallel.fallbacks") == 1

    def test_pool_that_cannot_start_checks_serially_with_one_note(
        self, monkeypatch
    ):
        from repro.incremental import parallel

        def refuse(*args, **kwargs):
            raise OSError("no processes left")

        monkeypatch.setattr(
            parallel.multiprocessing, "get_context",
            lambda method: types.SimpleNamespace(Pipe=refuse),
        )
        serial = Checker().check_sources(self._files())
        engine, result = self._pooled()
        assert self._renders(result) == self._renders(serial)
        assert engine.stats.notes == [
            "parallel checking unavailable (cannot start worker pool: "
            "OSError); checked 6 unit(s) serially"
        ]
        assert engine.metrics.count("engine.parallel.fallbacks") == 1
        assert not engine.stats.parallel_used

    def test_single_unit_stays_serial_silently(self):
        from repro.incremental import IncrementalChecker

        engine = IncrementalChecker(jobs=4)
        engine.check_sources({"u.c": "int f(void) { return 1; }\n"})
        assert engine.stats.notes == []
        assert not engine.stats.parallel_used

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        from repro.incremental import parallel

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel.WorkerPool, "frontend", interrupt)
        with pytest.raises(KeyboardInterrupt):
            self._pooled()
        assert multiprocessing.active_children() == []

    def test_no_ast_crosses_a_pipe(self, monkeypatch):
        # Records carry memos and outputs; the only program-sized message
        # to a worker is the one pickled symbol table per worker.
        from multiprocessing.connection import Connection

        from repro.core.api import ParsedUnit
        from repro.frontend.cast import Node

        sent, received = [], []
        real_send, real_recv = Connection.send, Connection.recv

        def send(conn, obj):
            sent.append(obj)
            return real_send(conn, obj)

        def recv(conn):
            obj = real_recv(conn)
            received.append(obj)
            return obj

        monkeypatch.setattr(Connection, "send", send)
        monkeypatch.setattr(Connection, "recv", recv)
        big_body = "".join(f"    int a{i} = {i};\n" for i in range(800))
        files = dict(self._files())
        files["big.c"] = f"int big(void) {{\n{big_body}    return 0; }}\n"
        from repro.incremental import IncrementalChecker

        IncrementalChecker(jobs=2).check_sources(files)
        assert len(received) == 14  # one record per unit and round
        for message in sent + received:
            assert not _carries(message, (Node, ParsedUnit)), message[0]
        blobs = [m[2] for m in sent if m[0] == "check" and m[2] is not None]
        assert len(blobs) == 2 and len(set(blobs)) == 1  # one per worker
        assert len(blobs[0]) > 4096
        others = [m for m in sent if not (m[0] == "check" and m[2])]
        assert others and all(
            len(pickle.dumps(message)) < 4096 for message in others
        )

    def test_pooled_memos_serve_a_serial_rerun(self, tmp_path):
        from repro.incremental import IncrementalChecker, ResultCache

        root = str(tmp_path / "c")
        _, cold = self._pooled(cache=ResultCache(root))
        engine = IncrementalChecker(cache=ResultCache(root))
        warm = engine.check_sources(self._files())
        assert self._renders(warm) == self._renders(cold)
        assert engine.stats.memo_hits == engine.stats.units == 6
        assert engine.stats.cache_hits == 6
        assert engine.stats.dep_hits == 0


def _carries(obj, types) -> bool:
    """Whether pickling *obj* would pickle an instance of *types*."""
    found = []

    class Probe(pickle.Pickler):
        def persistent_id(self, value):
            if isinstance(value, types):
                found.append(value)
            return None

    Probe(io.BytesIO()).dump(obj)
    return bool(found)


class TestCancelScopes:
    def test_checkpoint_is_a_no_op_without_a_scope(self):
        from repro.core.faults import active_cancel_scope, cancel_checkpoint

        assert active_cancel_scope() is None
        cancel_checkpoint()  # must not raise

    def test_cancelled_scope_raises_at_the_checkpoint(self):
        from repro.core.faults import (
            CancelScope,
            RequestCancelled,
            cancel_checkpoint,
            cancel_scope,
        )

        scope = CancelScope()
        with cancel_scope(scope):
            cancel_checkpoint()  # not yet cancelled: passes
            scope.cancel("deadline exceeded")
            with pytest.raises(RequestCancelled, match="deadline exceeded"):
                cancel_checkpoint()

    def test_scope_restored_on_exit_and_nestable(self):
        from repro.core.faults import (
            CancelScope,
            active_cancel_scope,
            cancel_scope,
        )

        outer, inner = CancelScope(), CancelScope()
        with cancel_scope(outer):
            with cancel_scope(inner):
                assert active_cancel_scope() is inner
            assert active_cancel_scope() is outer
        assert active_cancel_scope() is None

    def test_cancellation_escapes_exception_containment(self):
        # RequestCancelled is a BaseException precisely so that the
        # per-unit `except Exception` containment cannot swallow it.
        from repro.core.faults import RequestCancelled

        assert not issubclass(RequestCancelled, Exception)
        assert issubclass(RequestCancelled, BaseException)

    def test_scopes_are_thread_local(self):
        import threading

        from repro.core.faults import (
            CancelScope,
            active_cancel_scope,
            cancel_scope,
        )

        seen = {}

        def probe():
            seen["other-thread"] = active_cancel_scope()

        with cancel_scope(CancelScope()):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(10)
        assert seen["other-thread"] is None

    def test_engine_stops_at_a_unit_boundary(self, tmp_path):
        # Cancel between units of a batch: the engine raises out of its
        # unit loop instead of finishing the remaining units.
        from repro.core.faults import (
            CancelScope,
            RequestCancelled,
            cancel_scope,
        )
        from repro.driver import cli

        sources = []
        for index in range(4):
            src = tmp_path / f"u{index}.c"
            src.write_text(f"int f{index}(void) {{ return {index}; }}\n")
            sources.append(str(src))
        scope = CancelScope()
        scope.cancel("test cancel")
        with cancel_scope(scope):
            with pytest.raises(RequestCancelled):
                cli.run(["-quiet", *sources])
