"""BENCH-INC: cold vs warm incremental checking, edits, and parallel parity.

Measures the acceptance properties of the incremental engine on the
section 6 employee-database program: a warm re-check of an unchanged
program must be at least 5x faster than a cold check, ``--jobs N``
must produce byte-identical messages to a serial run, and after an
edit only the units it affects are re-checked. A body edit re-checks
its own unit; an interface edit that adds a ``static`` helper to one
unit must re-check exactly that unit, every other unit being answered
by its dependency-validated result slot.

Runs two ways:

* under pytest (collected with the rest of the benchmark suite), and
* as a script -- ``PYTHONPATH=src python benchmarks/bench_incremental.py``
  writes the cold/warm timing summary to ``BENCH_incremental.json``.
"""

import json
import os
import statistics
import sys
import tempfile
import time

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
    )

from repro.bench.dbexample import db_sources
from repro.core.api import Checker
from repro.incremental import IncrementalChecker, ResultCache

REQUIRED_SPEEDUP = 5.0


def _renders(result):
    return [m.render() for m in result.messages]


def measure_cold_vs_warm(files, rounds: int = 3) -> dict:
    """Time cold and warm checks of the same sources, each against a
    fresh cache directory, and return the median-based summary."""
    colds, warms = [], []
    renders_cold = renders_warm = None
    for _ in range(rounds):
        with tempfile.TemporaryDirectory(prefix="pylclint-bench-") as root:
            cold_engine = IncrementalChecker(cache=ResultCache(root))
            t0 = time.perf_counter()
            cold_result = cold_engine.check_sources(dict(files))
            colds.append(time.perf_counter() - t0)

            warm_engine = IncrementalChecker(cache=ResultCache(root))
            t0 = time.perf_counter()
            warm_result = warm_engine.check_sources(dict(files))
            warms.append(time.perf_counter() - t0)

            assert warm_engine.stats.cache_hits == warm_engine.stats.units
            renders_cold = _renders(cold_result)
            renders_warm = _renders(warm_result)
    cold = statistics.median(colds)
    warm = statistics.median(warms)
    return {
        "units": len([n for n in files if n.endswith(".c")]),
        "files": len(files),
        "cold_ms": round(cold * 1000, 2),
        "warm_ms": round(warm * 1000, 2),
        "speedup": round(cold / warm, 1) if warm else float("inf"),
        "required_speedup": REQUIRED_SPEEDUP,
        "identical_output": renders_cold == renders_warm,
        "rounds": rounds,
    }


EDITED_UNIT = "eref.c"


def body_edit(files):
    """A statement added to the first function body of EDITED_UNIT, on
    the line of its opening brace, so no declaration moves."""
    lines = files[EDITED_UNIT].split("\n")
    brace = lines.index("{")
    lines[brace] = "{ int bench_edit = 1; (void) bench_edit;"
    return {**files, EDITED_UNIT: "\n".join(lines)}


def interface_edit(files):
    """A ``static`` helper appended to EDITED_UNIT: its interface
    changes, so the program digest and every unit's exact key do too."""
    helper = "static int bench_helper(int x) { return x + 1; }\n"
    return {**files, EDITED_UNIT: files[EDITED_UNIT] + helper}


def measure_edits(files, rounds: int = 3) -> dict:
    """Time a re-check after a body edit and after an interface edit,
    each on a cache warmed by the unedited program. Each edit must
    re-check exactly EDITED_UNIT and render like a cold check."""
    times = {"body": [], "interface": []}
    exact = True
    for _ in range(rounds):
        for kind, edit in (("body", body_edit), ("interface", interface_edit)):
            edited = edit(files)
            with tempfile.TemporaryDirectory(prefix="pylclint-bench-") as root:
                IncrementalChecker(cache=ResultCache(root)).check_sources(
                    dict(files)
                )
                engine = IncrementalChecker(cache=ResultCache(root))
                t0 = time.perf_counter()
                result = engine.check_sources(dict(edited))
                times[kind].append(time.perf_counter() - t0)
            stats = engine.stats
            cold = Checker().check_sources(dict(edited))
            exact = exact and (
                stats.cache_misses == 1
                and stats.cache_hits == stats.units - 1
                and _renders(result) == _renders(cold)
            )
            if kind == "interface":
                exact = exact and stats.dep_hits == stats.units - 1
    return {
        "edited_unit": EDITED_UNIT,
        "body_edit_ms": round(statistics.median(times["body"]) * 1000, 2),
        "interface_edit_ms": round(
            statistics.median(times["interface"]) * 1000, 2
        ),
        "only_edited_unit_rechecked": exact,
        "rounds": rounds,
    }


def measure_parallel_parity(files, jobs: int = 4) -> dict:
    """Check the same sources serially and with a worker pool; the
    rendered messages must match exactly (same order, same text)."""
    serial = IncrementalChecker(jobs=1)
    serial_result = serial.check_sources(dict(files))
    parallel = IncrementalChecker(jobs=jobs)
    parallel_result = parallel.check_sources(dict(files))
    classic = Checker().check_sources(dict(files))
    return {
        "jobs": jobs,
        "parallel_used": parallel.stats.parallel_used,
        "messages": len(serial_result.messages),
        "identical_to_serial": _renders(parallel_result)
        == _renders(serial_result),
        "identical_to_classic": _renders(parallel_result)
        == _renders(classic),
    }


def test_warm_recheck_speedup(benchmark, table_printer):
    files = db_sources()  # final annotated stage, like the paper's re-check
    summary = benchmark.pedantic(
        measure_cold_vs_warm, args=(files,), rounds=1, iterations=1
    )
    table_printer("BENCH-INC: cold vs warm on examples/db", [summary])
    assert summary["identical_output"]
    assert summary["speedup"] >= REQUIRED_SPEEDUP, summary


def test_edits_recheck_only_the_edited_unit(benchmark, table_printer):
    files = db_sources()
    summary = benchmark.pedantic(
        measure_edits, args=(files,), rounds=1, iterations=1
    )
    table_printer("BENCH-INC: body vs interface edit on examples/db",
                  [summary])
    assert summary["only_edited_unit_rechecked"], summary


def test_parallel_jobs_parity(benchmark, table_printer):
    files = db_sources(1)  # stage with a healthy message population
    summary = benchmark.pedantic(
        measure_parallel_parity, args=(files,), rounds=1, iterations=1
    )
    table_printer("BENCH-INC: --jobs 4 parity on examples/db", [summary])
    assert summary["identical_to_serial"]
    assert summary["identical_to_classic"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_path = argv[0] if argv else "BENCH_incremental.json"
    files = db_sources()
    report = {
        "benchmark": "incremental cold vs warm (examples/db, final stage)",
        "cold_vs_warm": measure_cold_vs_warm(files),
        "edits": measure_edits(files),
        "parallel": measure_parallel_parity(db_sources(1)),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    summary = report["cold_vs_warm"]
    edits = report["edits"]
    print(
        f"cold {summary['cold_ms']}ms -> warm {summary['warm_ms']}ms "
        f"({summary['speedup']}x, required {REQUIRED_SPEEDUP}x); "
        f"body edit {edits['body_edit_ms']}ms, interface edit "
        f"{edits['interface_edit_ms']}ms (only {edits['edited_unit']} "
        f"re-checked: {edits['only_edited_unit_rechecked']}); "
        f"wrote {out_path}"
    )
    ok = (
        summary["speedup"] >= REQUIRED_SPEEDUP
        and summary["identical_output"]
        and edits["only_edited_unit_rechecked"]
        and report["parallel"]["identical_to_serial"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
