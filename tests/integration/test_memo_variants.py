"""Unit memos survive header edits that are later reverted.

A unit memo is keyed by the unit's raw text and remembers the include
closure of its last parse. Next to it the engine writes a *variant*
keyed by the text plus the content digest of every header in that
closure, so when a header goes back to an earlier version the unit's
earlier memo is found again instead of the unit being reparsed. A
variant still has to match the headers' current contents, so a stale
memo can never hit.
"""

import os
import sqlite3

from repro.core.api import Checker
from repro.incremental import IncrementalChecker, ResultCache
from repro.incremental.fingerprint import source_key

# Each header version yields a different message set for the units.
HEADER_A = (
    "#include <stdlib.h>\n"
    "extern /*@only@*/ char *make(void);\n"
)
HEADER_B = (
    "#include <stdlib.h>\n"
    "extern /*@observer@*/ char *make(void);\n"
    "extern int extra(void);\n"
)
HEADER_C = (
    "#include <stdlib.h>\n"
    "extern /*@only@*/ /*@null@*/ char *make(void);\n"
)

UNITS = {
    "leaky.c": (
        '#include "api.h"\n'
        "void f(void) { char *p = make(); if (p != NULL) { *p = 'a'; } }\n"
    ),
    "user.c": (
        '#include "api.h"\n'
        "int g(void) { char *p = make(); int r = (*p == 'a'); free(p); "
        "return r; }\n"
    ),
    "plain.c": "int h(int x) { return x + 1; }\n",
}


def _files(header: str) -> dict[str, str]:
    return {"api.h": header, **UNITS}


def _renders(result) -> list[str]:
    return [m.render() for m in result.messages]


def _check(root: str, header: str) -> IncrementalChecker:
    engine = IncrementalChecker(cache=ResultCache(root))
    result = engine.check_sources(_files(header))
    assert _renders(result) == _renders(
        Checker().check_sources(_files(header))
    ), "cached run diverged from a run without the cache"
    return engine


def _base_memos(engine: IncrementalChecker) -> set[str]:
    return {
        source_key(name, text, engine.defines) for name, text in UNITS.items()
    }


def _memo_sql(root: str, statement: str, args=()) -> list:
    """Run one statement over the cache's memo rows, behind its back."""
    db = sqlite3.connect(os.path.join(root, "cache.db"))
    try:
        with db:
            return db.execute(statement, args).fetchall()
    finally:
        db.close()


def _memo_keys(root: str) -> set[str]:
    return {
        key for (key,) in
        _memo_sql(root, "SELECT key FROM entries WHERE kind = 'memo'")
    }


class TestMemoVariants:
    def test_reverted_header_hits_every_memo(self, tmp_path):
        root = str(tmp_path / "cache")
        first = _check(root, HEADER_A)
        assert first.stats.memo_misses == first.stats.units == 3
        second = _check(root, HEADER_B)
        # plain.c includes nothing, so its memo survives every edit.
        assert second.stats.memo_hits == 1
        third = _check(root, HEADER_A)
        assert third.stats.memo_hits == third.stats.units
        assert third.stats.cache_hits == third.stats.units

    def test_new_header_content_never_hits_a_stale_variant(self, tmp_path):
        root = str(tmp_path / "cache")
        for header in (HEADER_A, HEADER_B, HEADER_A):
            _check(root, header)
        unseen = _check(root, HEADER_C)
        assert unseen.stats.memo_hits == 1  # plain.c only
        assert unseen.stats.memo_misses == 2
        # And every earlier version is still reachable afterwards.
        for header in (HEADER_B, HEADER_A, HEADER_C):
            engine = _check(root, header)
            assert engine.stats.memo_hits == engine.stats.units

    def test_corrupt_variant_is_dropped_and_noted(self, tmp_path):
        root = str(tmp_path / "cache")
        first = _check(root, HEADER_A)
        variants_a = _memo_keys(root) - _base_memos(first)
        # One variant per unit, keyed by its closure under header A.
        assert len(variants_a) == 3
        _check(root, HEADER_B)
        for key in variants_a:
            _memo_sql(
                root, "UPDATE entries SET data = ? "
                "WHERE kind = 'memo' AND key = ?", ("\x00 not json", key),
            )
        reverted = _check(root, HEADER_A)
        # plain.c's base memo still matches; the two header users fall
        # back to its (corrupt) variant, which is dropped and noted.
        assert reverted.stats.memo_hits == 1
        assert any(
            "dropped 2 corrupt" in note for note in reverted.stats.notes
        ), reverted.stats.notes
        healed = _check(root, HEADER_A)
        assert healed.stats.memo_hits == healed.stats.units

    def test_cache_with_variants_verifies_clean(self, tmp_path):
        root = str(tmp_path / "cache")
        for header in (HEADER_A, HEADER_B, HEADER_C, HEADER_A):
            _check(root, header)
        report = ResultCache(root).verify_integrity()
        assert report["corrupt"] == 0
        assert report["unit_memos"] == len(_memo_keys(root))
