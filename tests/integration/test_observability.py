"""End-to-end observability: traces, metrics, and the untouched default.

The acceptance bar: a traced run of the db example produces properly
nested batch > unit > phase > function spans plus a metrics dump with
non-zero cache and phase counters, while a run *without* ``--trace-out``
is byte-identical to the classic path.
"""

import io
import json
import os
import sqlite3

import pytest

from repro.bench.dbexample import db_sources
from repro.driver.cli import CliError, run
from repro.incremental import DaemonServer, IncrementalChecker, ResultCache


@pytest.fixture()
def db_paths(tmp_path):
    paths = []
    for name, text in db_sources(1).items():
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return sorted(paths)


def _read_events(path):
    return [json.loads(line) for line in
            path.read_text().strip().splitlines()]


class TestTraceOutput:
    def test_spans_nest_batch_unit_phase_function(self, db_paths, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        status, _ = run(
            ["--cache-dir", str(tmp_path / "cache"),
             "--trace-out", str(trace),
             "--metrics-out", str(metrics)] + db_paths
        )
        assert status in (0, 1)
        events = _read_events(trace)
        by_id = {e["id"]: e for e in events}
        by_cat: dict = {}
        for event in events:
            by_cat.setdefault(event["cat"], []).append(event)

        batches = by_cat.get("batch", [])
        assert len(batches) == 1
        batch_id = batches[0]["id"]
        assert batches[0]["parent"] is None

        units = by_cat.get("unit", [])
        assert len(units) >= len(db_paths)
        analyze_ids = {
            e["id"] for e in by_cat.get("phase", []) if e["name"] == "analyze"
        }
        for unit in units:
            assert unit["parent"] == batch_id or unit["parent"] in analyze_ids

        unit_ids = {u["id"] for u in units}
        phases = by_cat.get("phase", [])
        # lex events stream out before their preprocess parent closes, so
        # collect parent ids before checking containment.
        preprocess_ids = {
            e["id"] for e in phases if e["name"] == "preprocess"
        }
        for event in phases:
            if event["name"] in ("preprocess", "parse"):
                assert event["parent"] in unit_ids, event
            elif event["name"] == "lex":
                assert event["parent"] in preprocess_ids, event
            elif event["name"] == "analyze":
                assert event["parent"] == batch_id

        functions = by_cat.get("function", [])
        assert functions, "expected per-function spans in an emitting trace"
        for event in functions:
            assert event["parent"] in unit_ids
            assert by_id[event["parent"]]["args"].get("stage") == "analyze"

    def test_metrics_dump_has_cache_and_phase_counters(
        self, db_paths, tmp_path
    ):
        metrics = tmp_path / "metrics.json"
        status, _ = run(
            ["--cache-dir", str(tmp_path / "cache"),
             "--metrics-out", str(metrics)] + db_paths
        )
        assert status in (0, 1)
        payload = json.loads(metrics.read_text())
        counters = payload["counters"]
        assert counters.get("engine.runs", 0) >= 1
        assert counters.get("engine.units", 0) >= len(db_paths)
        assert counters.get("cache.result.miss", 0) >= len(db_paths)
        assert payload["histograms"].get("engine.run_s", {}).get("count", 0) \
            >= 1

    def test_chrome_export_is_loadable_shape(self, db_paths, tmp_path):
        trace = tmp_path / "trace.json"
        status, _ = run(
            ["--trace-out", str(trace), "--trace-format", "chrome"]
            + db_paths
        )
        assert status in (0, 1)
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert events
        assert all(e["ph"] == "X" for e in events)
        assert all("span_id" in e["args"] for e in events)

    def test_unknown_trace_format_is_a_usage_error(self, db_paths, tmp_path):
        with pytest.raises(CliError):
            run(["--trace-out", str(tmp_path / "t"),
                 "--trace-format", "xml"] + db_paths)


class TestDefaultPathUntouched:
    def test_output_identical_with_and_without_tracing(
        self, db_paths, tmp_path
    ):
        plain_status, plain_out = run(list(db_paths))
        traced_status, traced_out = run(
            ["--trace-out", str(tmp_path / "trace.jsonl"),
             "--metrics-out", str(tmp_path / "metrics.json")] + db_paths
        )
        assert traced_status == plain_status
        assert traced_out == plain_out


class TestPooledRun:
    """A --jobs 2 cold run: worker spans and times reach the trace and
    the --profile table."""

    @pytest.fixture(autouse=True)
    def _needs_fork(self):
        from repro.incremental import parallel

        if not parallel.fork_available():
            pytest.skip("needs fork")

    def test_chrome_trace_has_each_units_phases_on_worker_tracks(
        self, db_paths, tmp_path
    ):
        trace = tmp_path / "trace.json"
        status, output = run(
            ["--jobs", "2", "--trace-out", str(trace),
             "--trace-format", "chrome"] + db_paths
        )
        assert (status, output) == run(list(db_paths))
        events = json.loads(trace.read_text())["traceEvents"]
        units = sorted(os.path.basename(p) for p in db_paths
                       if p.endswith(".c"))
        rounds = [e for e in events if e["name"] == "round"]
        assert [e["args"]["round"] for e in rounds] == ["frontend", "check"]
        assert all(e["tid"] == 1 for e in rounds)
        check_start = rounds[1]["ts"]
        tracks = set()
        for phase in ("lex", "preprocess", "parse", "analyze"):
            # A worker that steals a unit in the check round parses it
            # again; the frontend round parses each unit once.
            spans = [
                e for e in events if e["name"] == phase
                and (phase == "analyze" or e["ts"] < check_start)
            ]
            assert sorted(
                os.path.basename(e["args"]["unit"]) for e in spans
            ) == units, phase
            for event in spans:
                assert event["tid"] == event["args"]["worker"] != 1
                tracks.add(event["tid"])
        assert len(tracks) == 2

    def test_profile_sums_worker_time_and_shows_the_rounds(self, db_paths):
        _, serial = run(["--profile"] + db_paths)
        _, pooled = run(["--profile", "--jobs", "2"] + db_paths)
        table = pooled[pooled.index("per-phase timing:"):].splitlines()
        rows = {
            line.split()[0]: line.split() for line in table
            if line.endswith("%")
        }
        for phase in ("lex", "preprocess", "parse", "analyze"):
            assert float(rows[phase][1]) > 0, phase
        assert all(float(row[3].rstrip("%")) <= 100.0 for row in rows.values())
        pool = [line for line in table if line.startswith("  pool:")]
        assert len(pool) == 1
        assert "frontend" in pool[0] and "check" in pool[0]
        assert "schedule:    parallel (jobs=2)" in pooled
        # The serial table keeps its historical lines.
        labels = [
            line.split(":")[0].split()[0]
            for line in serial[serial.index("per-phase timing:"):]
            .splitlines()[2:-1]  # up to the warning count
        ]
        assert labels == [
            "lex", "preprocess", "parse", "analyze", "prelude", "symtab",
            "fingerprint", "cache", "load", "other", "total", "driver",
            "units", "unit", "schedule",
        ]


class TestDaemonMetricsVerb:
    def test_metrics_request_reports_registry_snapshot(self, tmp_path):
        paths = []
        for name, text in db_sources(1).items():
            path = tmp_path / name
            path.write_text(text)
            paths.append(str(path))
        request = json.dumps(["-quiet"] + sorted(paths))
        stdin = io.StringIO(request + "\nmetrics\nshutdown\n")
        stdout = io.StringIO()
        server = DaemonServer(
            cache_dir=str(tmp_path / "cache"), stdin=stdin, stdout=stdout
        )
        assert server.serve() == 0
        lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
        reply = lines[2]
        assert reply["status"] == 0
        counters = reply["metrics"]["counters"]
        assert counters.get("daemon.requests.metrics", 0) >= 1
        assert counters.get(f"daemon.requests.status.{lines[1]['status']}",
                            0) >= 1
        assert counters.get("engine.runs", 0) >= 1


class TestDroppedEntrySurfacing:
    def test_corrupt_memo_becomes_a_run_note(self, tmp_path):
        from repro.incremental.fingerprint import source_key

        files = db_sources(1)
        root = str(tmp_path / "cache")
        first = IncrementalChecker(cache=ResultCache(root))
        first.check_sources(dict(files))
        # The base memo of one unit: the cache also holds memo variants,
        # which a run whose headers are unchanged never reads.
        name = sorted(n for n in files if n.endswith(".c"))[0]
        db = sqlite3.connect(os.path.join(root, "cache.db"))
        with db:
            garbled = db.execute(
                "UPDATE entries SET data = '{corrupt' "
                "WHERE kind = 'memo' AND key = ?",
                (source_key(name, files[name], first.defines),),
            ).rowcount
        db.close()
        assert garbled == 1
        engine = IncrementalChecker(cache=ResultCache(root))
        engine.check_sources(dict(files))
        assert any("dropped 1 corrupt" in note for note in
                   engine.stats.notes)


class TestDifftestMetrics:
    def test_campaign_metrics_out(self, tmp_path):
        from repro.difftest.cli import run_difftest

        metrics = tmp_path / "difftest-metrics.json"
        status, _ = run_difftest(
            ["--seeds", "3", "--no-corpus", "--quiet",
             "--metrics-out", str(metrics)]
        )
        assert status in (0, 1)
        counters = json.loads(metrics.read_text())["counters"]
        assert counters.get("difftest.variants", 0) >= 3
