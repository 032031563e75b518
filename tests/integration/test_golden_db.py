"""Golden snapshot: the checker's complete output over the paper's program.

The snapshot pins the *entire* user-visible message stream — text,
ordering, locations, follow-up lines — for every annotation stage of the
``examples/db`` program, plus the CLI run (with ``-stats``) over the
on-disk final stage. Any change to message wording, ordering or
rendering shows up as a byte-level diff against the committed file.

When a change is intentional, regenerate with::

    PYTHONPATH=src python -m pytest tests/integration/test_golden_db.py \
        --update-golden
"""

import os

import pytest

from repro.bench.dbexample import FINAL_STAGE, db_sources
from repro.core.api import Checker
from repro.driver.cli import run

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden")
GOLDEN_FILE = os.path.abspath(os.path.join(GOLDEN, "examples_db.golden"))
REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)


def _render_stage(stage: int) -> str:
    result = Checker().check_sources(db_sources(stage))
    lines = [f"== stage {stage} =="]
    lines.extend(m.render() for m in result.messages)
    lines.append(f"{len(result.messages)} code warning(s)")
    return "\n".join(lines)


def _render_cli() -> str:
    paths = sorted(
        os.path.join("examples", "db", name)
        for name in os.listdir(os.path.join(REPO_ROOT, "examples", "db"))
        if name.endswith((".c", ".h"))
    )
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)          # golden must not embed absolute paths
    try:
        status, output = run(["-stats"] + paths)
    finally:
        os.chdir(cwd)
    return "\n".join([f"== cli -stats (exit {status}) ==", output])


def _current_output() -> str:
    sections = [_render_stage(s) for s in range(FINAL_STAGE + 1)]
    sections.append(_render_cli())
    return "\n\n".join(sections) + "\n"


def test_examples_db_output_matches_golden(request):
    actual = _current_output()
    if request.config.getoption("--update-golden"):
        os.makedirs(os.path.dirname(GOLDEN_FILE), exist_ok=True)
        with open(GOLDEN_FILE, "w", encoding="utf-8") as handle:
            handle.write(actual)
        pytest.skip("golden file updated")
    assert os.path.exists(GOLDEN_FILE), (
        "no golden file committed; run with --update-golden once"
    )
    with open(GOLDEN_FILE, "r", encoding="utf-8") as handle:
        expected = handle.read()
    assert actual == expected, (
        "examples/db output diverged from the golden snapshot; if the "
        "change is intentional, regenerate with --update-golden"
    )


def _stats_block(output: str) -> str:
    """The ``statistics:`` block of a ``-stats`` run (not the engine's
    timing block that follows it)."""
    lines = output.splitlines()
    start = lines.index("statistics:")
    end = start + 1
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    return "\n".join(lines[start:end])


@pytest.mark.parametrize("stage", range(FINAL_STAGE + 1))
def test_stats_block_does_not_depend_on_cache_or_jobs(stage, tmp_path):
    # Units answered from the cache, or parsed in a pool worker, have no
    # AST in the parent; -stats must count them all the same.
    paths = []
    for name, text in sorted(db_sources(stage).items()):
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    cache = str(tmp_path / "cache")
    blocks = {}
    for label, options, order in (
        ("classic", [], paths),
        ("no cache", ["--no-cache"], paths),
        ("cold", ["--cache-dir", cache], paths),
        ("warm", ["--cache-dir", cache], paths),
        ("jobs 2", ["--jobs", "2"], paths),
        ("jobs 2 cold", ["--jobs", "2", "--cache-dir", str(tmp_path / "c2")],
         paths),
        ("reversed", ["--cache-dir", cache], paths[::-1]),
    ):
        _, output = run(["-stats"] + options + order)
        blocks[label] = _stats_block(output)
    assert "translation units: 6" in blocks["classic"]
    assert len(set(blocks.values())) == 1, blocks
