"""Measurements a replayed op cannot see: interpreter start and imports,
growth of analysis time with function shape, and the parallel
scheduler's counters."""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time

from .workloads import child_env, fresh_dir

STARTUP_REPEATS = 5
SWEEP_REPEATS = 3


def _child(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-c", code], env=child_env(),
        capture_output=True, text=True, check=True, timeout=60,
    )


def _import_seconds(module: str) -> float:
    """Import time of *module* measured inside a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            f"print(time.perf_counter() - t)")
    return float(_child(code).stdout.strip())


def startup_probe() -> dict[str, float]:
    """Medians over fresh interpreters: ``python -c pass`` from spawn to
    exit, and the import of the CLI and of the engine."""
    interp, cli, engine = [], [], []
    for _ in range(STARTUP_REPEATS):
        started = time.perf_counter()
        _child("pass")
        interp.append(time.perf_counter() - started)
        cli.append(_import_seconds("repro.driver.cli"))
        engine.append(_import_seconds("repro.incremental"))
    return {
        "startup.interp_ms": statistics.median(interp) * 1000,
        "startup.import_cli_ms": statistics.median(cli) * 1000,
        "startup.import_incremental_ms": statistics.median(engine) * 1000,
    }


def importtime_top(count: int = 10) -> list[dict]:
    """The modules with the largest self time under ``-X importtime``
    when a fresh interpreter imports the CLI and the engine."""
    stderr = _child("import repro.driver.cli, repro.incremental",
                    "-X", "importtime").stderr
    rows = []
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(.*)$", line)
        if match:
            rows.append({"module": match[3].strip(),
                         "self_us": int(match[1]),
                         "cumulative_us": int(match[2])})
    rows.sort(key=lambda row: row["self_us"], reverse=True)
    return rows[:count]


# -- analysis shape sweep --------------------------------------------------------


def _locals(n: int) -> str:
    body = ["  int v0 = seed;"]
    body += [f"  int v{i} = v{i - 1} + {i % 7 + 1};" for i in range(1, n)]
    return ("int f(int seed)\n{\n" + "\n".join(body)
            + f"\n  return v{n - 1};\n}}\n")


def _alloc_pairs(n: int) -> str:
    body = []
    for i in range(n):
        body.append(f"  char *p{i} = (char *) malloc({i % 13 + 8});")
        body.append(f"  if (p{i} != NULL) {{ *p{i} = 'a'; free(p{i}); }}")
    return "#include <stdlib.h>\nvoid f(void)\n{\n" + "\n".join(body) + "\n}\n"


def _branches(n: int) -> str:
    body = ["  int y = 0;"]
    body += [f"  if (x > {i}) {{ y = y + {i % 5 + 1}; }}" for i in range(n)]
    return "int f(int x)\n{\n" + "\n".join(body) + "\n  return y;\n}\n"


def _field_depth(n: int) -> str:
    out = ["struct s0 { int v; int w; };"]
    out += [f"struct s{d} {{ struct s{d - 1} f; int w; }};"
            for d in range(1, n + 1)]
    out += ["int f(void)", "{", f"  struct s{n} x;"]
    out += ["  x" + ".f" * (n - d) + f".w = {d};" for d in range(n, 0, -1)]
    leaf = "  x" + ".f" * n
    out += [f"{leaf}.v = 0;", f"{leaf}.w = 0;",
            "  return x" + ".f" * n + ".v;", "}"]
    return "\n".join(out) + "\n"


def _alias_chain(n: int) -> str:
    body = ["  char *a0 = (char *) malloc(8);", "  if (a0 == NULL) { return; }"]
    body += [f"  char *a{i} = a{i - 1};" for i in range(1, n)]
    body += [f"  *a{n - 1} = 'x';", f"  free(a{n - 1});"]
    return "#include <stdlib.h>\nvoid f(void)\n{\n" + "\n".join(body) + "\n}\n"


#: Shape -> (generator of one clean function, n). Each is checked at n
#: and 2n; the sizes keep one shape under a second on a 2-core machine.
SHAPES = {
    "locals": (_locals, 400),
    "alloc_pairs": (_alloc_pairs, 100),
    "branches": (_branches, 200),
    "field_depth": (_field_depth, 30),
    "alias_chain": (_alias_chain, 40),
}


def shape_sweep() -> tuple[dict[str, float], dict, int]:
    """t(2n)/t(n) per shape through ``core.api.check_source`` (median of
    ``SWEEP_REPEATS``). Returns the ratios, the raw times, and how many
    checks reported a message: every shape is clean, so any is wrong."""
    from repro.core.api import check_source

    ratios, raw, wrong = {}, {}, 0
    for shape, (make, n) in SHAPES.items():
        times = []
        for size in (n, 2 * n):
            text = make(size)
            samples = []
            for _ in range(SWEEP_REPEATS):
                started = time.perf_counter()
                result = check_source(text, "shape.c")
                samples.append(time.perf_counter() - started)
                wrong += bool(result.messages)
            times.append(statistics.median(samples))
        ratios[f"analysis.growth_{shape}"] = times[1] / times[0]
        raw[shape] = {"n": n, "t_n_s": times[0], "t_2n_s": times[1]}
    return ratios, raw, wrong


# -- parallel scheduler ----------------------------------------------------------


def parallel_counters(files: dict[str, str], answer,
                      work: str) -> tuple[dict[str, float], bool]:
    """One cold two-worker check, as a ``cli-cold-large`` op, with a
    private metrics registry; returns the shard counters and whether the
    output was right."""
    from repro.incremental import IncrementalChecker, ResultCache
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    cache = ResultCache(fresh_dir(os.path.join(work, "parallel-cache")),
                        metrics=metrics)
    checker = IncrementalChecker(cache=cache, jobs=2, metrics=metrics)
    result = checker.check_sources(files)
    ok = tuple(m.render() for m in result.messages) == answer.messages
    return {
        "parallel.shards": float(metrics.count("engine.shard.count")),
        "parallel.imbalance": metrics.gauge("engine.shard.balance"),
        "parallel.steals": float(metrics.count("engine.shard.steals")),
        "parallel.fallbacks": float(metrics.count("engine.parallel.fallbacks")),
    }, ok
