"""Tests for the fingerprint layer and the on-disk result cache."""

import gc
import json
import os
import sqlite3

import pytest

from repro.core.api import Checker
from repro.flags.registry import Flags
from repro.frontend.source import Location
from repro.incremental.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    UnitMemo,
)
from repro.incremental.fingerprint import (
    check_fingerprint,
    flags_digest,
    interface_digest,
    prelude_digest,
    program_digest,
    source_key,
    token_stream_digest,
)
from repro.incremental.entries import stable_digest
from repro.messages.message import Message, MessageCode


def _tokens(source: str, name: str = "t.c"):
    checker = Checker()
    from repro.frontend.preprocessor import Preprocessor
    from repro.stdlib.specs import SYSTEM_HEADERS

    pp = Preprocessor(
        checker.sources, defines=dict(checker.defines),
        system_headers=SYSTEM_HEADERS,
    )
    return pp.preprocess_text(source, name)


class TestFingerprints:
    def test_token_digest_stable_and_content_sensitive(self):
        a = token_stream_digest(_tokens("int f(void) { return 1; }\n"))
        b = token_stream_digest(_tokens("int f(void) { return 1; }\n"))
        c = token_stream_digest(_tokens("int f(void) { return 2; }\n"))
        assert a == b
        assert a != c

    def test_token_digest_sees_line_shifts(self):
        # A leading blank line changes every location, hence the digest:
        # cached messages would render with stale line numbers otherwise.
        a = token_stream_digest(_tokens("int f(void) { return 1; }\n"))
        b = token_stream_digest(_tokens("\nint f(void) { return 1; }\n"))
        assert a != b

    def test_flags_digest_uses_effective_values(self):
        assert flags_digest(Flags()) == flags_digest(Flags({"null": True}))
        assert flags_digest(Flags()) != flags_digest(Flags({"null": False}))

    def test_prelude_digest_is_stable(self):
        assert prelude_digest() == prelude_digest()

    def test_source_key_depends_on_name_text_defines(self):
        base = source_key("a.c", "int x;", {})
        assert base == source_key("a.c", "int x;", {})
        assert base != source_key("b.c", "int x;", {})
        assert base != source_key("a.c", "int y;", {})
        assert base != source_key("a.c", "int x;", {"D": "1"})

    def test_interface_digest_survives_cyclic_struct_types(self):
        # struct _elem contains a pointer to itself: the canonical walk
        # must cut the cycle instead of recursing forever.
        result = Checker().check_sources(
            {
                "cyc.c": (
                    "typedef struct _elem { int v; struct _elem *next; } "
                    "*elem;\n"
                    "extern elem mk(void);\n"
                )
            }
        )
        digest = interface_digest(result.symtab, {})
        assert digest == interface_digest(result.symtab, {})

    def test_interface_digest_sees_annotation_changes(self):
        plain = Checker().check_sources({"m.c": "extern char *gp;\n"})
        annotated = Checker().check_sources(
            {"m.c": "extern /*@null@*/ char *gp;\n"}
        )
        assert interface_digest(plain.symtab, {}) != interface_digest(
            annotated.symtab, {}
        )

    def test_stable_digest_sorts_sets(self):
        assert stable_digest({"a", "b", "c"}) == stable_digest({"c", "b", "a"})

    def test_check_fingerprint_composition(self):
        prog = program_digest(["i1", "i2"], [])
        assert check_fingerprint("t", Flags(), prog) == check_fingerprint(
            "t", Flags(), prog
        )
        assert check_fingerprint("t", Flags(), prog) != check_fingerprint(
            "t", Flags({"null": False}), prog
        )
        assert prog != program_digest(["i1", "iX"], [])


def _message(line: int = 3) -> Message:
    from repro.messages.message import SubLocation

    return Message(
        MessageCode.NULL_DEREF,
        Location("x.c", line, 7),
        "Possible dereference of null pointer p",
        (SubLocation(Location("x.c", line - 1, 2), "Storage p may become null"),),
    )


def _sql(root, statement, args=()):
    """Run one statement against a cache's database, behind its back;
    returns the fetched rows."""
    db = sqlite3.connect(os.path.join(root, "cache.db"))
    try:
        with db:
            return db.execute(statement, args).fetchall()
    finally:
        db.close()


def _rows(root, kind, key):
    return _sql(
        root, "SELECT count(*) FROM entries WHERE kind = ? AND key = ?",
        (kind, key),
    )[0][0]


def _wal_commits(root) -> int:
    """Commit records in the cache's write-ahead log: frames of the log's
    current generation (matching salts) that carry a database size."""
    with open(os.path.join(root, "cache.db-wal"), "rb") as handle:
        wal = handle.read()
    page_size = int.from_bytes(wal[8:12], "big")
    salts = wal[16:24]
    return sum(
        1 for at in range(32, len(wal), 24 + page_size)
        if wal[at + 8:at + 16] == salts and any(wal[at + 4:at + 8])
    )


def _memo() -> UnitMemo:
    return UnitMemo(
        token_digest="t" * 8,
        iface_digest="i" * 8,
        iface_pickle=b"\x80\x04N.",  # pickled None
        includes=[("h.h", "s" * 8)],
        enum_consts={"LIMIT": 4},
    )


def _registry_cache(tmp_path):
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    return ResultCache(str(tmp_path / "c"), metrics=registry), registry


class TestResultCache:
    FP = "ab" * 32

    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put_result(self.FP, [_message()], suppressed=2)
        loaded = cache.get_result(self.FP)
        assert loaded is not None
        messages, suppressed = loaded
        assert suppressed == 2
        assert [m.render() for m in messages] == [_message().render()]

    def test_miss_on_unknown_fingerprint(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        assert cache.get_result("cd" * 32) is None

    def test_corrupted_result_is_a_miss_and_discarded(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put_result(self.FP, [_message()], suppressed=0)
        _sql(cache.root, "UPDATE entries SET data = ?",
             ('{"messages": [[[[ GARBAGE',))
        assert cache.get_result(self.FP) is None
        assert _rows(cache.root, "result", self.FP) == 0

    def test_wrong_shape_json_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        _sql(cache.root, "INSERT INTO entries VALUES ('result', ?, ?, NULL)",
             (self.FP, json.dumps({"messages": [{"nope": 1}],
                                   "suppressed": 0})))
        assert cache.get_result(self.FP) is None

    def test_slot_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        reads = ("e:RED", "f:malloc", "g:head")
        cache.put_slot(self.FP, [_message()], 1, reads, "de" * 32)
        messages, suppressed, loaded_reads, deps = cache.get_slot(self.FP)
        assert [m.render() for m in messages] == [_message().render()]
        assert (suppressed, loaded_reads, deps) == (1, reads, "de" * 32)
        # A plain result is no slot.
        cache.put_result("cd" * 32, [], suppressed=0)
        assert cache.get_slot("cd" * 32) is None

    def test_slots_and_results_share_one_batch(self, tmp_path):
        cache, registry = _registry_cache(tmp_path)
        with cache.batch():
            cache.put_result(self.FP, [_message()], suppressed=0)
            cache.put_slot("cd" * 32, [_message()], 0, ("f:f",), "de" * 32)
        assert registry.count("cache.commits") == 1
        reopened = ResultCache(cache.root)
        assert reopened.get_slot("cd" * 32)[2] == ("f:f",)
        assert reopened.verify_integrity() == {
            "results": 2, "unit_memos": 0, "corrupt": 0,
        }

    def test_corrupt_slot_is_dropped_and_counted(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        _sql(cache.root, "INSERT INTO entries VALUES ('result', ?, ?, NULL)",
             (self.FP, json.dumps({"messages": [], "suppressed": 0,
                                   "reads": "f:f", "deps": "de" * 32})))
        assert cache.verify_integrity()["corrupt"] == 1
        assert cache.get_slot(self.FP) is None
        assert _rows(cache.root, "result", self.FP) == 0
        assert cache.drain_dropped() == 1
        assert cache.verify_integrity()["corrupt"] == 0

    def test_version_mismatch_rebuilds(self, tmp_path):
        root = str(tmp_path / "c")
        cache = ResultCache(root)
        cache.put_result(self.FP, [_message()], suppressed=0)
        _sql(root, "UPDATE meta SET format = ?", (CACHE_FORMAT_VERSION + 1,))
        reopened = ResultCache(root)
        assert reopened.get_result(self.FP) is None  # cleared
        assert any("different version; rebuilding" in note
                   for note in reopened.notes)
        assert ResultCache(root).notes == []  # restamped

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "empty"])
    def test_unreadable_database_is_rebuilt(self, tmp_path, damage):
        root = str(tmp_path / "c")
        cache = ResultCache(root)
        with cache.batch():
            for i in range(40):
                cache.put_result(f"{i:064x}", [_message()], suppressed=i)
        del cache
        gc.collect()  # close it, folding the write-ahead log into cache.db
        path = os.path.join(root, "cache.db")
        if damage == "garbage":
            with open(path, "wb") as handle:
                handle.write(b"not a database at all {{{" * 200)
        elif damage == "truncated":
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) // 2)
        else:
            open(path, "wb").close()
        cache, registry = _registry_cache(tmp_path)
        if damage == "empty":
            # An empty file is a new database, not a damaged one.
            assert cache.notes == []
            assert registry.count("cache.wipes") == 0
        else:
            assert any("is unreadable; rebuilding" in note
                       for note in cache.notes)
            assert registry.count("cache.wipes") == 1
        assert cache.get_result(f"{1:064x}") is None
        cache.put_result(self.FP, [_message()], suppressed=3)
        assert ResultCache(root).get_result(self.FP)[1] == 3
        assert cache.verify_integrity()["corrupt"] == 0

    def test_damaged_page_is_flagged(self, tmp_path):
        root = str(tmp_path / "c")
        cache = ResultCache(root)
        with cache.batch():
            for i in range(60):
                cache.put_result(f"{i:064x}", [_message()], suppressed=i)
        del cache
        gc.collect()
        path = os.path.join(root, "cache.db")
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:  # scribble over the last page
            handle.seek(size - 4000)
            handle.write(b"\xff" * 2000)
        cache = ResultCache(root)
        assert cache.notes == []  # the header and schema are intact
        assert cache.verify_integrity()["corrupt"] >= 1
        # A read that meets the damage rebuilds the file and misses.
        for i in range(60):
            cache.get_result(f"{i:064x}")
        assert any("is unreadable; rebuilding" in n for n in cache.notes)
        assert cache.verify_integrity() == {
            "results": 0, "unit_memos": 0, "corrupt": 0,
        }

    def test_unit_memo_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put_unit_memo(self.FP, _memo())
        assert ResultCache(cache.root).get_unit_memo(self.FP) == _memo()
        # Stored as fields: only the interface slice is a pickle.
        data, blob = _sql(cache.root, "SELECT data, blob FROM entries")[0]
        assert json.loads(data)["includes"] == [["h.h", "s" * 8]]
        assert blob == _memo().iface_pickle

    def test_corrupted_unit_memo_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put_unit_memo(self.FP, _memo())
        _sql(cache.root, "UPDATE entries SET blob = NULL")
        assert cache.get_unit_memo(self.FP) is None
        assert _rows(cache.root, "memo", self.FP) == 0

    def test_non_hex_key_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        for key in ("../../../etc/passwd", "", "AB", "ab cd"):
            with pytest.raises(ValueError):
                cache.get_result(key)
            with pytest.raises(ValueError):
                cache.put_unit_memo(key, _memo())


class TestDroppedEntryAccounting:
    """Discarded corrupt entries are counted; plain misses are not."""

    FP = "ab" * 32

    def test_fresh_cache_has_no_drops(self, tmp_path):
        cache, registry = _registry_cache(tmp_path)
        assert cache.dropped == 0
        assert registry.count("cache.entries.dropped") == 0

    def test_plain_miss_is_not_a_drop(self, tmp_path):
        cache, registry = _registry_cache(tmp_path)
        assert cache.get_result("cd" * 32) is None
        assert cache.get_unit_memo("cd" * 32) is None
        assert cache.drain_dropped() == 0
        assert registry.count("cache.entries.dropped") == 0

    def test_corrupt_result_counts_one_drop(self, tmp_path):
        cache, registry = _registry_cache(tmp_path)
        cache.put_result(self.FP, [], suppressed=0)
        _sql(cache.root, "UPDATE entries SET data = 'not json at all'")
        assert cache.get_result(self.FP) is None
        assert cache.get_result(self.FP) is None  # deleted: a plain miss
        assert cache.dropped == 1
        assert registry.count("cache.entries.dropped") == 1

    def test_corrupt_memo_counts_one_drop(self, tmp_path):
        cache, registry = _registry_cache(tmp_path)
        cache.put_unit_memo(self.FP, _memo())
        _sql(cache.root, "UPDATE entries SET data = '{\"token_digest\": 1}'")
        assert cache.get_unit_memo(self.FP) is None
        assert cache.dropped == 1
        assert registry.count("cache.entries.dropped") == 1

    def test_drain_returns_and_resets(self, tmp_path):
        cache, registry = _registry_cache(tmp_path)
        cache.put_result(self.FP, [], suppressed=0)
        _sql(cache.root, "UPDATE entries SET data = 'garbage'")
        cache.get_result(self.FP)
        assert cache.drain_dropped() == 1
        assert cache.drain_dropped() == 0
        # The metrics counter is cumulative, not drained.
        assert registry.count("cache.entries.dropped") == 1

    def test_fresh_cache_layout_is_not_a_wipe(self, tmp_path):
        _, registry = _registry_cache(tmp_path)
        assert registry.count("cache.wipes") == 0

    def test_version_mismatch_counts_a_wipe(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        root = str(tmp_path / "c")
        ResultCache(root)
        _sql(root, "UPDATE meta SET format = -1, engine = 'other'")
        registry = MetricsRegistry()
        ResultCache(root, metrics=registry)
        assert registry.count("cache.wipes") == 1


class TestFormat1Layout:
    """A directory written by the per-file layout (format 1) is a
    version mismatch: its files go, the prelude and crash bundles stay."""

    FP = "ab" * 32

    def _format_1_dir(self, root):
        os.makedirs(os.path.join(root, "units"))
        os.makedirs(os.path.join(root, "results"))
        os.makedirs(os.path.join(root, "crashes"))
        os.makedirs(os.path.join(root, "prelude"))
        files = {
            "meta.json": json.dumps({"format": 1, "engine": 3}),
            "lock": "",
            os.path.join("units", self.FP + ".pkl"): "\x80\x04N.",
            os.path.join("results", self.FP + ".json"): json.dumps(
                {"messages": [], "suppressed": 0}
            ),
            os.path.join("results", "journal.jsonl"): json.dumps(
                {"fp": "cd" * 32, "messages": [], "suppressed": 0}
            ) + "\n",
            os.path.join("crashes", "crash-1.json"): "{}",
            os.path.join("prelude", "snapshot.pkl"): "x",
        }
        for name, text in files.items():
            with open(os.path.join(root, name), "w") as handle:
                handle.write(text)

    def test_first_open_removes_the_old_layout(self, tmp_path):
        root = str(tmp_path / "c")
        self._format_1_dir(root)
        cache, registry = _registry_cache(tmp_path)
        assert sorted(os.listdir(root)) == [
            "cache.db", "cache.db-shm", "cache.db-wal", "crashes", "prelude",
        ]
        assert os.listdir(os.path.join(root, "crashes")) == ["crash-1.json"]
        assert os.listdir(os.path.join(root, "prelude")) == ["snapshot.pkl"]
        assert [n for n in cache.notes if "rebuilding" in n] == [
            f"cache at {root} has a different version; rebuilding"
        ]
        assert registry.count("cache.wipes") == 1
        assert cache.get_result(self.FP) is None
        assert cache.get_result("cd" * 32) is None
        cache.put_result(self.FP, [_message()], suppressed=1)
        again, registry = _registry_cache(tmp_path)
        assert again.notes == []
        assert registry.count("cache.wipes") == 0
        assert again.get_result(self.FP)[1] == 1

    def test_engine_run_over_an_old_directory(self, tmp_path):
        from repro.incremental import IncrementalChecker

        root = str(tmp_path / "c")
        self._format_1_dir(root)
        files = {"one.c": "#include <stdlib.h>\n"
                          "void f(char *p) { free(p); }\n"}
        engine = IncrementalChecker(cache=ResultCache(root))
        result = engine.check_sources(dict(files))
        assert any("different version" in n for n in engine.stats.notes)
        assert result.render() == Checker().check_sources(files).render()
        warm = IncrementalChecker(cache=ResultCache(root))
        warm.check_sources(dict(files))
        assert warm.stats.cache_hits == warm.stats.units == 1


class TestStoreBatches:
    FP1 = "ab" * 32
    FP2 = "cd" * 32

    def test_batch_is_one_commit(self, tmp_path):
        cache, registry = _registry_cache(tmp_path)
        commits = _wal_commits(cache.root)
        with cache.batch():
            cache.put_result(self.FP1, [_message()], suppressed=0)
            cache.put_result(self.FP2, [_message()], suppressed=1)
            cache.put_unit_memo(self.FP1, _memo())
            assert registry.count("cache.commits") == 0
            # Not committed yet: another instance cannot see the puts.
            assert ResultCache(cache.root).get_result(self.FP1) is None
        assert registry.count("cache.commits") == 1
        assert registry.count("cache.entries.written") == 3
        assert _wal_commits(cache.root) == commits + 1
        fresh = ResultCache(cache.root)
        assert fresh.get_result(self.FP2)[1] == 1
        assert fresh.get_unit_memo(self.FP1) == _memo()

    def test_batched_results_visible_before_and_after_flush(self, tmp_path):
        cache, _ = _registry_cache(tmp_path)
        with cache.batch():
            cache.put_result(self.FP1, [_message()], suppressed=3)
            # Visible mid-batch (the engine re-reads what it wrote).
            assert cache.get_result(self.FP1)[1] == 3
        assert cache.get_result(self.FP1)[1] == 3

    def test_results_survive_reopen(self, tmp_path):
        cache, _ = _registry_cache(tmp_path)
        with cache.batch():
            cache.put_result(self.FP1, [_message()], suppressed=2)
        del cache
        gc.collect()
        reopened = ResultCache(str(tmp_path / "c"))
        loaded = reopened.get_result(self.FP1)
        assert loaded is not None
        assert loaded[1] == 2

    def test_nested_batches_commit_once_at_outermost_exit(self, tmp_path):
        cache, registry = _registry_cache(tmp_path)
        with cache.batch():
            cache.put_result(self.FP1, [_message()], suppressed=0)
            with cache.batch():
                cache.put_result(self.FP2, [_message()], suppressed=0)
            assert registry.count("cache.commits") == 0
        assert registry.count("cache.commits") == 1
        assert _wal_commits(cache.root) == 2  # the schema's, then the batch's
        assert ResultCache(cache.root).get_result(self.FP2) is not None

    def test_unbatched_put_is_visible_to_a_fresh_instance(self, tmp_path):
        cache, registry = _registry_cache(tmp_path)
        cache.put_result(self.FP1, [_message()], suppressed=0)
        assert registry.count("cache.commits") == 1
        assert ResultCache(cache.root).get_result(self.FP1) is not None

    def test_bad_fingerprint_fails_at_put_even_in_a_batch(self, tmp_path):
        cache, _ = _registry_cache(tmp_path)
        with pytest.raises(ValueError):
            with cache.batch():
                cache.put_result("not-hex", [_message()], suppressed=0)

    def test_verify_integrity_counts_and_flags(self, tmp_path):
        cache, _ = _registry_cache(tmp_path)
        cache.put_result(self.FP1, [_message()], suppressed=0)
        with cache.batch():
            cache.put_result(self.FP2, [_message()], suppressed=0)
            cache.put_unit_memo(self.FP1, _memo())
        assert cache.verify_integrity() == {
            "results": 2, "unit_memos": 1, "corrupt": 0,
        }
        _sql(cache.root, "UPDATE entries SET data = '{broken' "
             "WHERE kind = 'result' AND key = ?", (self.FP1,))
        _sql(cache.root, "INSERT INTO entries VALUES ('other', ?, '', NULL)",
             (self.FP1,))
        assert ResultCache(cache.root).verify_integrity() == {
            "results": 1, "unit_memos": 1, "corrupt": 2,
        }


def _put_batches(root, writer_id, batches, per_batch=3):
    """Commit *batches* batches of results keyed by writer, batch and
    row; the suppressed count is the batch number."""
    cache = ResultCache(root)
    for b in range(batches):
        with cache.batch():
            for row in range(per_batch):
                cache.put_result(
                    f"{writer_id:02x}{b:058x}{row:04x}", [_message()],
                    suppressed=b,
                )
            assert cache.get_result(f"{writer_id:02x}{b:058x}{0:04x}")


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs fork for a multi-process test"
)


@needs_fork
class TestConcurrentWriters:
    """Two processes interleaving batches on one cache lose nothing."""

    BATCHES = 60

    def _child(self, root, writer_id, start_evt):
        start_evt.wait(10)
        _put_batches(root, writer_id, self.BATCHES)

    def test_no_result_lost_and_integrity_holds(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        root = str(tmp_path / "c")
        ResultCache(root)  # create and stamp the database once
        start_evt = ctx.Event()
        children = [
            ctx.Process(target=self._child, args=(root, wid, start_evt))
            for wid in (1, 2)
        ]
        for proc in children:
            proc.start()
        start_evt.set()
        for proc in children:
            proc.join(60)
            assert proc.exitcode == 0
        fresh = ResultCache(root)
        for wid in (1, 2):
            for b in range(self.BATCHES):
                for row in range(3):
                    found = fresh.get_result(f"{wid:02x}{b:058x}{row:04x}")
                    assert found is not None, f"lost {wid}/{b}/{row}"
                    assert found[1] == b
        assert fresh.verify_integrity() == {
            "results": 2 * self.BATCHES * 3, "unit_memos": 0, "corrupt": 0,
        }


@needs_fork
class TestCrashConsistency:
    def test_sigkilled_writer_leaves_a_clean_store(self, tmp_path):
        import signal
        import time

        root = str(tmp_path / "c")
        ResultCache(root)
        pid = os.fork()
        if pid == 0:  # child: write until killed
            try:
                _put_batches(root, 1, 10 ** 6)
            finally:
                os._exit(1)
        time.sleep(0.3)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        fresh = ResultCache(root)
        report = fresh.verify_integrity()
        assert report["corrupt"] == 0
        assert report["results"] > 0
        # Whole batches only: every committed batch has all its rows.
        assert report["results"] % 3 == 0
        for b in range(report["results"] // 3):
            for row in range(3):
                found = fresh.get_result(f"{1:02x}{b:058x}{row:04x}")
                assert found is not None and found[1] == b

    def test_exit_inside_a_batch_leaves_none_of_it(self, tmp_path):
        root = str(tmp_path / "c")
        ResultCache(root)
        pid = os.fork()
        if pid == 0:
            try:
                _put_batches(root, 1, 2)  # committed
                cache = ResultCache(root)
                with cache.batch():
                    cache.put_result("ee" * 32, [_message()], suppressed=9)
                    cache.put_unit_memo("ee" * 32, _memo())
                    os._exit(0)
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0
        fresh = ResultCache(root)
        assert fresh.get_result("ee" * 32) is None
        assert fresh.get_unit_memo("ee" * 32) is None
        assert fresh.verify_integrity() == {
            "results": 6, "unit_memos": 0, "corrupt": 0,
        }


class TestThreadSharing:
    """The checking service's worker threads share one ResultCache."""

    THREADS = 4
    BATCHES = 100

    def test_threads_share_one_instance(self, tmp_path):
        import sys
        import threading

        cache = ResultCache(str(tmp_path / "c"))
        errors = []
        start = threading.Barrier(self.THREADS)

        def worker(wid):
            try:
                start.wait(10)
                for b in range(self.BATCHES):
                    with cache.batch():
                        for row in range(3):
                            key = f"{wid:02x}{b:058x}{row:04x}"
                            cache.put_result(key, [_message()], suppressed=b)
                            cache.put_unit_memo(key, _memo())
                        # Its own batch is visible; earlier ones are
                        # committed, whichever thread reads them.
                        assert cache.get_result(key)[1] == b
                        if b:
                            older = f"{wid:02x}{b - 1:058x}{0:04x}"
                            assert cache.get_unit_memo(older) == _memo()
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        torn = []
        done = threading.Event()

        def watcher():
            # Another connection sees each batch whole or not at all.
            db = sqlite3.connect(os.path.join(cache.root, "cache.db"))
            try:
                while not done.is_set():
                    rows = db.execute(
                        "SELECT substr(key, 1, 60), count(*) FROM entries "
                        "GROUP BY 1 HAVING count(*) != 6"
                    ).fetchall()
                    torn.extend(rows)
            finally:
                db.close()

        threads = [threading.Thread(target=worker, args=(wid,))
                   for wid in range(self.THREADS)]
        watching = threading.Thread(target=watcher)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads as often as possible
        try:
            watching.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            done.set()
            watching.join(60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [watching])
        assert errors == []
        assert torn == []
        total = self.THREADS * self.BATCHES * 3
        fresh = ResultCache(cache.root)
        for wid in range(self.THREADS):
            for b in range(self.BATCHES):
                for row in range(3):
                    key = f"{wid:02x}{b:058x}{row:04x}"
                    assert fresh.get_result(key)[1] == b
        assert cache.verify_integrity() == {
            "results": total, "unit_memos": total, "corrupt": 0,
        }
