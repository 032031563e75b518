"""End-to-end tests for the incremental parallel checking engine.

Pins the acceptance properties: warm-cache re-checks are >= 5x faster
than cold checks, parallel runs emit byte-identical output to serial
runs, and a corrupted or version-mismatched cache silently rebuilds.
"""

import gc
import io
import json
import os
import sqlite3
import time

import pytest

from repro.bench.dbexample import db_sources
from repro.core.api import Checker
from repro.driver.cli import run
from repro.incremental import DaemonServer, IncrementalChecker, ResultCache
from repro.incremental.cache import CACHE_FORMAT_VERSION


@pytest.fixture(scope="module")
def db_files():
    # Stage 1 keeps a healthy population of real messages in play.
    return db_sources(1)


def _renders(result):
    return [m.render() for m in result.messages]


def _units_with_tokens_from(files, header):
    """Sorted names of the units whose token stream includes *header*."""
    from repro.frontend.preprocessor import Preprocessor
    from repro.frontend.source import SourceManager
    from repro.stdlib.specs import PRELUDE_DEFINES, SYSTEM_HEADERS

    sources = SourceManager()
    for name, text in files.items():
        if name.endswith(".h"):
            sources.add(name, text)
    including = []
    for name, text in files.items():
        if name.endswith(".h"):
            continue
        pp = Preprocessor(
            sources, defines=dict(PRELUDE_DEFINES),
            system_headers=SYSTEM_HEADERS,
        )
        tokens = pp.preprocess_text(text, name)
        if any(tok.coords()[0] == header for tok in tokens):
            including.append(name)
    return sorted(including)


def _with_erc_cap(files):
    """*files* with a new prototype in erc.h that no unit calls."""
    edited = dict(files)
    edited["erc.h"] = edited["erc.h"].replace(
        "extern int erc_size(erc c);",
        "extern int erc_size(erc c);\nextern int erc_cap(erc c);",
    )
    return edited


def _record_checked_units(monkeypatch):
    """Names of the units the engine analyses from now on, in order."""
    from repro.incremental import engine as engine_module

    checked = []
    real = engine_module.check_parsed_unit

    def spy(pu, *args, **kwargs):
        checked.append(pu.unit.name)
        return real(pu, *args, **kwargs)

    monkeypatch.setattr(engine_module, "check_parsed_unit", spy)
    return checked


class TestEquivalence:
    """The engine must be invisible in the output, whatever the path."""

    def test_cold_engine_matches_classic(self, db_files, tmp_path):
        classic = Checker().check_sources(dict(db_files))
        engine = IncrementalChecker(cache=ResultCache(str(tmp_path / "c")))
        incremental = engine.check_sources(dict(db_files))
        assert _renders(incremental) == _renders(classic)
        assert incremental.suppressed == classic.suppressed

    def test_warm_engine_matches_classic(self, db_files, tmp_path):
        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        warm = IncrementalChecker(cache=ResultCache(root))
        result = warm.check_sources(dict(db_files))
        assert warm.stats.cache_misses == 0
        assert warm.stats.cache_hits == warm.stats.units
        assert _renders(result) == _renders(Checker().check_sources(dict(db_files)))

    def test_parallel_matches_serial(self, db_files):
        serial = IncrementalChecker(jobs=1).check_sources(dict(db_files))
        parallel_engine = IncrementalChecker(jobs=4)
        parallel = parallel_engine.check_sources(dict(db_files))
        # Same messages, same order, same text.
        assert _renders(parallel) == _renders(serial)
        assert parallel.suppressed == serial.suppressed

    def test_parallel_with_cache_matches(self, db_files, tmp_path):
        classic = Checker().check_sources(dict(db_files))
        engine = IncrementalChecker(
            cache=ResultCache(str(tmp_path / "c")), jobs=3
        )
        result = engine.check_sources(dict(db_files))
        assert _renders(result) == _renders(classic)

    def test_every_db_stage_matches(self, tmp_path):
        for stage in range(5):
            files = db_sources(stage)
            classic = Checker().check_sources(dict(files))
            root = str(tmp_path / f"stage{stage}")
            IncrementalChecker(cache=ResultCache(root)).check_sources(dict(files))
            warm = IncrementalChecker(cache=ResultCache(root)).check_sources(
                dict(files)
            )
            assert _renders(warm) == _renders(classic), f"stage {stage}"


class TestInvalidation:
    def test_body_edit_rechecks_only_that_unit(self, db_files, tmp_path):
        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        edited = dict(db_files)
        edited["drive.c"] = edited["drive.c"].replace(
            "int hired = 0;", "int hired = 0; int touched = 0; (void) touched;"
        )
        engine = IncrementalChecker(cache=ResultCache(root))
        result = engine.check_sources(edited)
        assert engine.stats.cache_misses == 1
        assert engine.stats.cache_hits == engine.stats.units - 1
        assert _renders(result) == _renders(Checker().check_sources(dict(edited)))

    def test_comment_only_edit_stays_fully_cached(self, db_files, tmp_path):
        # Comments are stripped before tokenization, so an edit that adds
        # one on an existing line changes neither the token stream nor
        # any location: the result cache stays fully warm.
        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        edited = dict(db_files)
        edited["drive.c"] = edited["drive.c"].replace(
            "int hired = 0;", "int hired = 0; /* touched */"
        )
        engine = IncrementalChecker(cache=ResultCache(root))
        engine.check_sources(edited)
        assert engine.stats.cache_misses == 0
        assert engine.stats.memo_misses == 1  # raw text did change

    def test_interface_edit_rechecks_only_units_including_the_header(
        self, db_files, tmp_path, monkeypatch
    ):
        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        edited = _with_erc_cap(db_files)
        including = _units_with_tokens_from(edited, "erc.h")
        assert 0 < len(including) < 6
        checked = _record_checked_units(monkeypatch)
        engine = IncrementalChecker(cache=ResultCache(root))
        result = engine.check_sources(edited)
        # The new prototype changes the token stream of every unit that
        # includes erc.h; no other unit reads erc_cap, so each of them is
        # answered from its slot.
        assert sorted(checked) == including
        assert engine.stats.cache_misses == len(including)
        assert engine.stats.dep_hits == engine.stats.units - len(including)
        assert _renders(result) == _renders(Checker().check_sources(edited))

    def test_unchanged_run_after_interface_edit_is_all_exact_hits(
        self, db_files, tmp_path
    ):
        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        edited = dict(db_files)
        edited["eref.c"] += "static int eref_unused(int x) { return x; }\n"
        first = IncrementalChecker(cache=ResultCache(root))
        first.check_sources(edited)
        assert first.stats.cache_misses == 1
        assert first.stats.dep_hits == first.stats.units - 1
        again = IncrementalChecker(cache=ResultCache(root))
        again.check_sources(edited)
        # Slot hits were re-stamped under the new exact keys.
        assert again.stats.cache_hits == again.stats.units
        assert again.stats.dep_hits == 0

    def test_reordered_units_are_answered_from_their_slots(
        self, tmp_path, monkeypatch
    ):
        import random

        files = db_sources(1)
        headers = [n for n in files if n.endswith(".h")]
        units = [n for n in files if not n.endswith(".h")]
        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(files))
        checked = _record_checked_units(monkeypatch)
        shuffled = list(units)
        random.Random(7).shuffle(shuffled)
        assert shuffled != units
        for order in (list(reversed(units)), shuffled):
            program = {n: files[n] for n in headers + order}
            engine = IncrementalChecker(cache=ResultCache(root))
            result = engine.check_sources(program)
            # No merged entry db's units read depends on merge order.
            assert engine.stats.dep_hits == len(units) == 6
            assert result.render() == Checker().check_sources(program).render()
        assert checked == []

    def test_flag_change_rechecks_without_reparsing(self, db_files, tmp_path):
        from repro.flags.registry import Flags

        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        engine = IncrementalChecker(
            flags=Flags.from_args(["-allimponly"]), cache=ResultCache(root)
        )
        result = engine.check_sources(dict(db_files))
        assert engine.stats.cache_misses == engine.stats.units
        assert engine.stats.memo_hits == engine.stats.units
        classic = Checker(flags=Flags.from_args(["-allimponly"])).check_sources(
            dict(db_files)
        )
        assert _renders(result) == _renders(classic)


class TestDependencyValidatedHits:
    def test_dependency_hits_are_counted_and_reported(self, db_files, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        registry = MetricsRegistry()
        engine = IncrementalChecker(cache=ResultCache(root), metrics=registry)
        engine.check_sources(_with_erc_cap(db_files))
        stats = engine.stats
        assert 0 < stats.dep_hits < stats.units
        assert registry.count("cache.result.dep_hit") == stats.dep_hits
        assert registry.count("cache.result.dep_miss") == stats.cache_misses
        assert registry.count("cache.result.hit") == stats.cache_hits
        warm = f"{stats.cache_hits} warm from result cache, "
        assert f"{warm}{stats.dep_hits} by dependency check)" in (
            stats.render_profile()
        )
        assert f"{stats.dep_hits} by dependency check" in stats.render()

    def test_runs_without_dependency_hits_print_the_historical_lines(
        self, db_files, tmp_path
    ):
        engine = IncrementalChecker(cache=ResultCache(str(tmp_path / "c")))
        engine.check_sources(dict(db_files))
        assert "dependency" not in engine.stats.render()
        assert "(6 cold, 0 warm from result cache)" in (
            engine.stats.render_profile()
        )

    def test_another_units_global_and_enum_constant_are_dependencies(
        self, tmp_path, monkeypatch
    ):
        # a.c's messages depend on b.c's annotation of g and value of
        # LIMIT, while a.c's own tokens never change.
        a = (
            "extern char *g;\n"
            "void f(void) { *g = 'a'; }\n"
            "void h(void) { char buf[4]; buf[LIMIT] = 'x'; }\n"
        )

        def program(null, limit, helper=""):
            b = f"{'/*@null@*/ ' if null else ''}char *g;\n"
            if limit is not None:
                b += f"enum {{ LIMIT = {limit} }};\n"
            return {"a.c": a, "b.c": b + helper}

        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(
            program(True, 4)
        )
        checked = _record_checked_units(monkeypatch)
        for files in (
            program(False, 4), program(False, 2), program(True, 2),
            program(True, None), program(True, 5),
            program(True, 5, "static int unused(void) { return 0; }\n"),
        ):
            del checked[:]
            engine = IncrementalChecker(cache=ResultCache(root))
            result = engine.check_sources(files)
            assert result.render() == Checker().check_sources(files).render()
            if "unused" in files["b.c"]:
                assert checked == ["b.c"]  # a.c reads nothing that changed
            else:
                assert checked == ["a.c", "b.c"]

    def test_degraded_units_are_cached_under_neither_key(
        self, db_files, tmp_path
    ):
        root = str(tmp_path / "c")
        files = dict(db_files)
        files["bad.c"] = "int oops( { ;;;\n"
        engine = IncrementalChecker(cache=ResultCache(root))
        engine.check_sources(files)
        assert engine.stats.degraded_units == 1
        report = ResultCache(root).verify_integrity()
        # An exact key and a slot per healthy unit, nothing for bad.c.
        assert report["results"] == 2 * (engine.stats.units - 1)
        assert report["corrupt"] == 0
        # The next run checks bad.c again, whatever else hits.
        edited = _with_erc_cap(files)
        including = _units_with_tokens_from(edited, "erc.h")
        again = IncrementalChecker(cache=ResultCache(root))
        again.check_sources(edited)
        assert again.stats.degraded_units == 1
        assert again.stats.cache_misses == len(including) + 1
        assert again.stats.dep_hits == again.stats.units - len(including) - 1


class TestWarmSpeedup:
    def test_warm_recheck_at_least_5x_faster(self, tmp_path):
        files = db_sources()  # final stage: the full annotated program
        root = str(tmp_path / "c")

        cold_engine = IncrementalChecker(cache=ResultCache(root))
        t0 = time.perf_counter()
        cold_result = cold_engine.check_sources(dict(files))
        cold = time.perf_counter() - t0
        assert cold_engine.stats.cache_misses == cold_engine.stats.units

        warm_engine = IncrementalChecker(cache=ResultCache(root))
        t0 = time.perf_counter()
        warm_result = warm_engine.check_sources(dict(files))
        warm = time.perf_counter() - t0
        assert warm_engine.stats.cache_hits == warm_engine.stats.units

        assert _renders(warm_result) == _renders(cold_result)
        assert cold >= 5 * warm, (
            f"warm re-check not fast enough: cold={cold * 1000:.1f}ms "
            f"warm={warm * 1000:.1f}ms ({cold / warm:.1f}x)"
        )


def _sql(root, statement, args=()):
    """Run one statement against the cache's database, behind its back."""
    db = sqlite3.connect(os.path.join(root, "cache.db"))
    try:
        with db:
            db.execute(statement, args)
    finally:
        db.close()


class TestCorruptionTolerance:
    def test_garbled_rows_are_dropped_noted_and_rewritten(
        self, db_files, tmp_path
    ):
        root = str(tmp_path / "c")
        first = IncrementalChecker(cache=ResultCache(root)).check_sources(
            dict(db_files)
        )
        _sql(root, "UPDATE entries SET data = ?", ("\x00garbage\xff",))
        engine = IncrementalChecker(cache=ResultCache(root))
        result = engine.check_sources(dict(db_files))
        assert engine.stats.cache_misses == engine.stats.units  # all rebuilt
        assert engine.stats.memo_misses == engine.stats.units
        assert _renders(result) == _renders(first)
        assert any("corrupt" in note for note in engine.stats.notes)
        # ... and the rewritten entries serve the next run.
        again = IncrementalChecker(cache=ResultCache(root))
        again.check_sources(dict(db_files))
        assert again.stats.cache_misses == 0
        assert ResultCache(root).verify_integrity()["corrupt"] == 0

    def test_version_mismatch_is_a_warning_not_a_crash(self, db_files, tmp_path):
        root = str(tmp_path / "c")
        IncrementalChecker(cache=ResultCache(root)).check_sources(dict(db_files))
        _sql(root, "UPDATE meta SET format = ?", (CACHE_FORMAT_VERSION + 9,))
        cache = ResultCache(root)
        assert any("rebuilding" in n for n in cache.notes)
        engine = IncrementalChecker(cache=cache)
        result = engine.check_sources(dict(db_files))
        assert engine.stats.cache_misses == engine.stats.units
        assert any("rebuilding" in n for n in engine.stats.notes)
        assert _renders(result) == _renders(Checker().check_sources(dict(db_files)))

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_unreadable_cache_db_via_cli(self, tmp_path, damage):
        # Through the CLI: a trashed cache must only change timings.
        src = tmp_path / "one.c"
        src.write_text("#include <stdlib.h>\nvoid f(char *p) { free(p); }\n")
        cache_dir = str(tmp_path / "cache")
        status1, out1 = run(["--cache-dir", cache_dir, str(src)])
        # Close the first run's cache, as its process exit would: that
        # folds the write-ahead log into cache.db, the file damaged below.
        gc.collect()
        path = os.path.join(cache_dir, "cache.db")
        assert not os.path.exists(path + "-wal")
        if damage == "garbage":
            with open(path, "wb") as handle:
                handle.write(b"\x00garbage\xff" * 700)
        else:
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) // 2)
        status2, out2 = run(["--cache-dir", cache_dir, str(src)])
        assert status1 == status2
        assert "is unreadable; rebuilding" in out2
        assert [l for l in out1.splitlines() if "warning:" not in l] == [
            l for l in out2.splitlines() if "warning:" not in l
        ]
        status3, out3 = run(["--cache-dir", cache_dir, str(src)])
        assert (status3, out3) == (status1, out1)


class TestDaemon:
    def _files_on_disk(self, tmp_path):
        paths = []
        for name, text in db_sources(1).items():
            path = tmp_path / name
            path.write_text(text)
            paths.append(str(path))
        return sorted(paths)

    def test_daemon_round_trip_and_cache_warmup(self, tmp_path):
        paths = self._files_on_disk(tmp_path)
        request = json.dumps(["-quiet", "-stats"] + paths)
        stdin = io.StringIO(request + "\n" + request + "\nshutdown\n")
        stdout = io.StringIO()
        server = DaemonServer(
            cache_dir=str(tmp_path / "daemon-cache"), stdin=stdin, stdout=stdout
        )
        assert server.serve() == 0
        lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert lines[0]["ready"] is True
        first, second = lines[1], lines[2]
        assert first["status"] == second["status"]
        assert first["stats"]["cache_misses"] > 0
        assert second["stats"]["cache_misses"] == 0
        assert second["stats"]["cache_hits"] == first["stats"]["cache_misses"]
        # identical rendered messages from cold and warm requests
        strip = lambda text: [
            l for l in text.splitlines() if "statistics" not in l
            and not l.startswith("  ")
        ]
        assert strip(first["output"]) == strip(second["output"])
        assert lines[-1]["bye"] is True
        assert lines[-1]["requests"] == 2

    def test_daemon_plain_text_requests(self, tmp_path):
        src = tmp_path / "ok.c"
        src.write_text("int f(int x) { return x + 1; }\n")
        stdin = io.StringIO(f"-quiet {src}\nshutdown\n")
        stdout = io.StringIO()
        DaemonServer(cache_dir=None, stdin=stdin, stdout=stdout).serve()
        lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert lines[1]["status"] == 0

    def test_daemon_survives_bad_requests(self, tmp_path):
        stdin = io.StringIO(
            '["-quiet", "/nonexistent/nope.c"]\n'
            "[malformed json\n"
            "shutdown\n"
        )
        stdout = io.StringIO()
        server = DaemonServer(
            cache_dir=str(tmp_path / "c"), stdin=stdin, stdout=stdout
        )
        assert server.serve() == 0
        lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert "error" in lines[1]
        assert "error" in lines[2]
        assert lines[-1]["errors"] == 2


class TestGeneratedProgramParallel:
    def test_many_unit_program_parallel_equals_serial(self):
        from repro.bench.generator import generate_program

        program = generate_program(modules=5, filler_functions=3, seed=11)
        serial = IncrementalChecker(jobs=1).check_sources(dict(program.files))
        parallel = IncrementalChecker(jobs=4).check_sources(dict(program.files))
        assert _renders(parallel) == _renders(serial)
        classic = Checker().check_sources(dict(program.files))
        assert _renders(parallel) == _renders(classic)
