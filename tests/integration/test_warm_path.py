"""The warm one-shot path loads only what an all-hit check uses.

Structural, not timed: a fresh interpreter runs the CLI against a warm
cache and reports which modules it loaded. A check answered entirely
from the result cache must not import the AST, lexer, preprocessor,
parser, analysis, recording views, entry digests, pool scheduler, cache
service, daemon, checking service or asyncio; a bare ``import repro`` must load no frontend or analysis
module at all.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(REPO_ROOT, "src")

#: Modules (and packages, with everything under them) a warm all-hit
#: check must never load. The AST classes are among them: memos and the
#: prelude snapshot unpickle interfaces, never syntax trees.
WARM_PATH_FORBIDDEN = (
    "repro.frontend.cast",
    "repro.frontend.lexer",
    "repro.frontend.preprocessor",
    "repro.frontend.parser",
    "repro.analysis",
    "repro.core.reads",
    "repro.incremental.entries",
    "repro.incremental.parallel",
    "repro.incremental.cacheserver",
    "repro.incremental.server",
    "repro.service.server",
    "asyncio",
)

#: Runs ``python -m repro`` with the given argv, then prints the loaded
#: module names and the engine statistics as one JSON object.
_RUN_AND_DUMP = """
import json, runpy, sys
argv = json.loads(sys.argv[1])
sys.argv = ["repro"] + argv
status = None
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
from repro.driver import cli
stats = cli.LAST_RUN_STATS
print("\\n@@DUMP@@" + json.dumps({
    "status": status,
    "modules": sorted(sys.modules),
    "units": stats.units,
    "cache_hits": stats.cache_hits,
    "memo_hits": stats.memo_hits,
}))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _forbidden(modules) -> list[str]:
    return sorted(
        m for m in modules
        if any(m == f or m.startswith(f + ".") for f in WARM_PATH_FORBIDDEN)
    )


def _cli(cwd, *argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], cwd=cwd, env=_env(),
        capture_output=True, text=True, timeout=120,
    )


def _cli_dump(cwd, *argv) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_DUMP, json.dumps(list(argv))],
        cwd=cwd, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    output, _, dump = proc.stdout.rpartition("\n@@DUMP@@")
    return output, json.loads(dump)


@pytest.fixture
def db_tree(tmp_path):
    tree = tmp_path / "db"
    tree.mkdir()
    for path in glob.glob(os.path.join(REPO_ROOT, "examples", "db", "*.[ch]")):
        shutil.copy(path, tree)
    return tree


def _units(tree) -> list[str]:
    return sorted(p.name for p in tree.iterdir() if p.suffix == ".c")


class TestWarmPathImports:
    def test_warm_all_hit_check_loads_no_frontend_or_analysis(self, db_tree):
        units = _units(db_tree)
        cold = _cli(db_tree, "--cache-dir", "cache", *units)
        assert cold.returncode == 0, cold.stderr
        output, dump = _cli_dump(db_tree, "--cache-dir", "cache", *units)
        assert dump["status"] == 0
        assert dump["cache_hits"] == dump["memo_hits"] == dump["units"] == 6
        assert output.strip() == cold.stdout.strip()
        assert _forbidden(dump["modules"]) == []

    def test_edited_unit_after_snapshot_load_matches_no_cache(self, db_tree):
        # The prelude scope comes out of the snapshot as pickled bytes; a
        # unit that must be parsed unpickles it on first use.
        units = _units(db_tree)
        assert _cli(db_tree, "--cache-dir", "cache", *units).returncode == 0
        drive = db_tree / "drive.c"
        drive.write_text(drive.read_text().replace(
            "int hired = 0;", "int hired = 0; int touched = 0; (void) touched;"
        ))
        output, dump = _cli_dump(db_tree, "--cache-dir", "cache", *units)
        assert dump["cache_hits"] == dump["units"] - 1
        assert "repro.frontend.parser" in dump["modules"]
        fresh = _cli(db_tree, "--no-cache", *units)
        assert output.strip() == fresh.stdout.strip()

    def test_bare_import_loads_no_frontend_or_analysis(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, repro; print(json.dumps(sorted(sys.modules)))"],
            env=_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert [
            m for m in loaded
            if m.startswith(("repro.frontend", "repro.analysis"))
        ] == []

    def test_cold_profile_shows_module_loading_as_its_own_row(self, db_tree):
        # A fresh process loads the frontend and the analysis on first
        # use; that load must be its own span and --profile row, never
        # time inside a preprocess, parse or analyze span.
        proc = _cli(db_tree, "--cache-dir", "cache", "--profile",
                    "--trace-out", "t.jsonl", *_units(db_tree))
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert any(row[:1] == ["load"] for row in rows), proc.stdout
        with open(db_tree / "t.jsonl") as handle:
            spans = [json.loads(line) for line in handle]
        loads = [s for s in spans if s["name"] == "load"]
        assert loads
        timed = [s for s in spans
                 if s["name"] in ("lex", "preprocess", "parse", "analyze")]
        for load in loads:
            start, end = load["ts_us"], load["ts_us"] + load["dur_us"]
            for span in timed:
                assert (span["ts_us"] + span["dur_us"] <= start
                        or span["ts_us"] >= end), (load, span)
