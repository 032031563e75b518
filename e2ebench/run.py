"""Run one workload of the pylclint end-to-end benchmark.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload cli-db-edit --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload runs untraced for ``--seconds`` seconds
and the last line of stdout is a JSON object with the end-to-end
metrics. With ``--trace 1`` its ops are replayed in-process, once plain
and once through wrapped entry points, and the JSON carries the
per-layer metrics instead. The line before it is a JSON summary: tail
percentile and sample count, failed share, op-kind shares and (traced)
hit ratios, input size, and for traced runs the top ``-X importtime``
modules and the shape-sweep times.

Exit status 0 means the run completed; whether every output matched its
known answer is the result's ``correct`` field. Without the checker's
sources under ``src/`` it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".e2ebench-work")
OUT_ROOT = os.path.join(ROOT, ".e2ebench-out")
WORKLOADS = ("cli-db-edit", "cli-cold-large", "engine-edit-loop")
#: Share of ``--seconds`` the traced run spends replaying ops (plain and
#: traced together); the probes take most of the rest.
REPLAY_SHARE = 0.6



def declared_units(key: str) -> dict[str, str]:
    """Metric name -> unit, for the ``end_to_end`` or ``per_layer``
    list of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def tail(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with at least
    ten samples beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def kind_summary(ops, with_hits: bool) -> dict:
    kinds: dict[str, dict] = {}
    for op in ops:
        entry = kinds.setdefault(op.kind, {"ops": 0, "hits": 0, "misses": 0})
        entry["ops"] += 1
        entry["hits"] += op.hits
        entry["misses"] += op.misses
    summary = {}
    for kind, entry in sorted(kinds.items()):
        row = {"share": entry["ops"] / len(ops)}
        probes = entry["hits"] + entry["misses"]
        if with_hits:
            row["hit_ratio"] = entry["hits"] / probes if probes else 0.0
        summary[kind] = row
    return summary


def untraced(name: str, seed: int, seconds: float, work: str):
    from e2ebench import workloads

    if name == "engine-edit-loop":
        run = workloads.engine_run(seed, seconds, work)
    else:
        scn = workloads.SCENARIOS[name](seed)
        run = workloads.cli_run(scn, seconds, work)
    times = [op.seconds for op in run.ops]
    percentile, tail_s = tail(times)
    failed = sum(not op.ok for op in run.ops)
    metrics = {
        "latency_ms_p50": statistics.median(times) * 1000,
        "latency_ms_tail": tail_s * 1000,
        "kloc_per_s": sum(op.lines for op in run.ops) / 1000 / sum(times),
        "setup_s": run.setup_s,
        "peak_rss_mb": run.peak_rss_mb,
        "ok_frac": 1 - failed / len(run.ops),
    }
    summary = {
        "samples": len(times),
        "failed_frac": failed / len(run.ops),
        "latency_tail_percentile": percentile,
        "op_kinds": kind_summary(run.ops, with_hits=name == "engine-edit-loop"),
        "input": run.input_size,
    }
    return metrics, summary, len(run.ops), failed


def traced(name: str, seed: int, seconds: float, work: str):
    from e2ebench import probes, workloads
    from e2ebench.tracing import Recorder

    scenario = workloads.SCENARIOS[name]
    # The same ops run twice, each pair back to back: plain, then through
    # the wrapped entry points; each side has its own cache.
    plain = workloads.InProcessLoop(scenario(seed), os.path.join(work, "plain"))
    recorder = Recorder()
    spanned = workloads.InProcessLoop(
        scenario(seed), os.path.join(work, "traced"), recorder
    )
    plain.setup(1)
    with recorder.installed():
        spanned.setup(1)
    started = time.perf_counter()
    while workloads.keep_going(plain.ops, started, seconds * REPLAY_SHARE,
                               plain.scn.round_ops):
        plain.step()
        with recorder.installed():
            spanned.step()
    ops = plain.ops + spanned.ops
    attempted, failed = len(ops), sum(not op.ok for op in ops)

    metrics = recorder.layer_metrics()
    hits = sum(op.hits for op in spanned.ops)
    probes_total = hits + sum(op.misses for op in spanned.ops)
    metrics["cache.hit_ratio"] = hits / probes_total if probes_total else 0.0
    metrics["messages.count"] = (
        sum(op.messages for op in spanned.ops) / len(spanned.ops)
    )
    metrics["trace.overhead_ratio"] = (
        sum(op.seconds for op in spanned.ops)
        / sum(op.seconds for op in plain.ops)
    )
    metrics.update(probes.startup_probe())
    ratios, shape_times, wrong = probes.shape_sweep()
    metrics.update(ratios)
    attempted += 2 * len(probes.SHAPES) * probes.SWEEP_REPEATS
    failed += wrong
    if name == "cli-cold-large":
        scn = scenario(seed)
        counters, ok = probes.parallel_counters(
            scn.files, scn.answer, os.path.join(work, "parallel")
        )
        attempted += 1
        failed += not ok
    else:
        counters = dict.fromkeys(
            ("parallel.shards", "parallel.imbalance", "parallel.steals",
             "parallel.fallbacks"), 0.0,
        )
    metrics.update(counters)
    summary = {
        "samples": len(spanned.ops),
        "failed_frac": failed / attempted,
        "op_kinds": kind_summary(spanned.ops, with_hits=True),
        "input": spanned.size,
        "importtime_top10": probes.importtime_top(10),
        "shape_sweep_s": shape_times,
        "spans": recorder.dump(
            os.path.join(OUT_ROOT, f"{name}-seed{seed}-spans.jsonl")
        ),
    }
    return metrics, summary, attempted, failed


def warm_bytecode() -> None:
    """Compile the checker's modules once, so the first timed run in a
    fresh checkout does not pay for writing ``__pycache__``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, "-c", "import repro.driver.cli, repro.incremental"],
        env=env, check=True, capture_output=True, timeout=120,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("e2ebench: no checker sources under src/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    warm_bytecode()
    units = declared_units("per_layer" if args.trace else "end_to_end")
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        measure = traced if args.trace else untraced
        metrics, summary, attempted, failed = measure(
            args.workload, args.seed, args.seconds, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, **summary}
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
