"""The three workloads and the loops that run them.

Each workload is a closed loop with one client: the next op starts only
after the previous one returned. A *scenario* supplies the inputs: the
files checked during set-up, then an endless sequence of
``(kind, files, answer)`` steps. Two loops run scenarios:

* :func:`cli_run` spawns ``python -m repro`` per op in a temp tree, as a
  developer or CI job would;
* :class:`InProcessLoop` calls ``IncrementalChecker.check_sources`` in
  this process, as an embedding of the engine does. The traced run also
  uses it to replay the CLI workloads' ops through wrapped entry points.

Every op's output is compared with its known answer (see ``inputs``).
"""

from __future__ import annotations

import importlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

from . import inputs

SRC = os.path.join(inputs.ROOT, "src")
#: A single op taking this long counts as failed.
OP_TIMEOUT_S = 120


@dataclass
class Op:
    kind: str
    seconds: float
    lines: int
    ok: bool
    hits: int = 0
    misses: int = 0
    messages: int = 0


@dataclass
class Run:
    ops: list[Op]
    setup_s: float
    peak_rss_mb: float
    input_size: dict


def input_size(files: dict[str, str]) -> dict:
    return {"loc": inputs.source_lines(files),
            "units": sum(name.endswith(".c") for name in files)}


# -- scenarios -----------------------------------------------------------------


class DbEdit:
    """``cli-db-edit``: rewrite the tree to another annotation stage of
    ``examples/db`` and check it against the run's warm cache."""

    name = "cli-db-edit"
    cli_args: tuple[str, ...] = ()
    cache_policy = "reopen"   # one cache dir, opened by every process
    round_ops = 1
    setup_repeats = 5         # priming checks: fill the cache + prelude snapshot

    def __init__(self, seed: int) -> None:
        self.answers = inputs.golden_db_answers()
        self.walk = inputs.db_stage_walk(seed)
        self.stage = next(self.walk)

    def initial(self) -> dict[str, str]:
        return inputs.db_stage_files(self.stage)

    def steps(self):
        while True:
            prev, self.stage = self.stage, next(self.walk)
            yield (f"{prev}->{self.stage}", inputs.db_stage_files(self.stage),
                   self.answers[self.stage])


class ColdLarge:
    """``cli-cold-large``: a cold ``--jobs 2`` check of a ~10k-line
    program into a fresh empty cache dir."""

    name = "cli-cold-large"
    cli_args = ("--jobs", "2")
    cache_policy = "fresh"
    round_ops = 1
    setup_repeats = 3         # untimed cold checks

    def __init__(self, seed: int) -> None:
        self.files, self.answer = inputs.cold_large_program(seed)

    def initial(self) -> dict[str, str]:
        return self.files

    def steps(self):
        while True:
            yield "cold", self.files, self.answer


class EngineEditLoop:
    """``engine-edit-loop``: one long-lived ``ResultCache``; seeded
    unchanged / body / interface edits of a ~5k-line program."""

    name = "engine-edit-loop"
    cache_policy = "shared"   # one ResultCache object for the whole run
    round_ops = len(inputs.ENGINE_BLOCK)  # run whole blocks: exact shares
    setup_repeats = 3         # cache open + cold check filling it

    def __init__(self, seed: int) -> None:
        self.program = inputs.EngineProgram(seed)

    def initial(self) -> dict[str, str]:
        return self.program.files()

    def steps(self):
        for kind in self.program.ops():
            self.program.edit(kind)
            yield kind, self.program.files(), self.program.answer()


SCENARIOS = {cls.name: cls for cls in (DbEdit, ColdLarge, EngineEditLoop)}


# -- helpers ---------------------------------------------------------------------


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def tree_size(path: str) -> int:
    total = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def write_tree(tree: str, files: dict[str, str]) -> None:
    for name, text in files.items():
        with open(os.path.join(tree, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_cli(tree: str, cache_dir: str, args: tuple[str, ...],
            files: dict[str, str]) -> subprocess.CompletedProcess:
    units = sorted(name for name in files if name.endswith(".c"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *args, "--cache-dir", cache_dir,
         *units],
        cwd=tree, env=child_env(), capture_output=True, text=True,
        timeout=OP_TIMEOUT_S,
    )


def keep_going(ops: list, started: float, seconds: float,
               round_ops: int) -> bool:
    """Run at least one round, and only whole rounds, for *seconds*."""
    if len(ops) % round_ops:
        return True
    return not ops or time.perf_counter() - started < seconds


# -- the loops -------------------------------------------------------------------


def cli_run(scn, seconds: float, work: str) -> Run:
    """Time ``python -m repro`` from spawn to exit, one op at a time."""
    size = input_size(scn.initial())
    tree = fresh_dir(os.path.join(work, "tree"))
    write_tree(tree, scn.initial())
    setups = []
    run_cache = ""
    for i in range(scn.setup_repeats):
        if run_cache:
            shutil.rmtree(run_cache, ignore_errors=True)
        run_cache = fresh_dir(os.path.join(work, f"setup{i}"))
        started = time.perf_counter()
        run_cli(tree, run_cache, scn.cli_args, scn.initial())
        setups.append(time.perf_counter() - started)

    ops: list[Op] = []
    steps = scn.steps()
    started = time.perf_counter()
    while keep_going(ops, started, seconds, scn.round_ops):
        kind, files, answer = next(steps)
        write_tree(tree, files)
        cache_dir = run_cache
        if scn.cache_policy == "fresh":
            cache_dir = fresh_dir(os.path.join(work, "op-cache"))
        t0 = time.perf_counter()
        try:
            proc = run_cli(tree, cache_dir, scn.cli_args, files)
            ok = (proc.returncode == answer.status
                  and proc.stdout == answer.cli_stdout())
        except subprocess.TimeoutExpired:
            ok = False
        ops.append(Op(kind, time.perf_counter() - t0,
                      inputs.source_lines(files), ok))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return Run(ops, statistics.median(setups), peak_kb / 1024, size)


def import_engine() -> float:
    """Import the engine's public modules; returns the seconds it took
    (zero when an earlier call in this process already imported them)."""
    started = time.perf_counter()
    importlib.import_module("repro.incremental")
    return time.perf_counter() - started


class InProcessLoop:
    """Runs a scenario through ``IncrementalChecker`` in this process.

    CLI scenarios replay what their process would do: open the cache per
    op and render the result. With a recorder, set-up and each op run
    under root spans, and the recorder sees the cache growth per op.
    """

    def __init__(self, scn, work: str, recorder=None) -> None:
        self.scn = scn
        self.work = work
        self.recorder = recorder
        self.spans = recorder if recorder is not None else NO_SPANS
        self.size = input_size(scn.initial())
        self.steps = scn.steps()
        self.cache = None
        self.run_cache = ""
        self.ops: list[Op] = []

    def setup(self, repeats: int) -> float:
        """Median seconds of *repeats* cache opens plus the cold check
        that fills the cache; the last cache serves the ops."""
        from repro.incremental import IncrementalChecker, ResultCache

        setups = []
        for i in range(repeats):
            if self.run_cache:
                shutil.rmtree(self.run_cache, ignore_errors=True)
            self.run_cache = fresh_dir(os.path.join(self.work, f"setup{i}"))
            with self.spans.root("setup"):
                started = time.perf_counter()
                self.cache = ResultCache(self.run_cache)
                IncrementalChecker(cache=self.cache).check_sources(
                    self.scn.initial()
                )
                setups.append(time.perf_counter() - started)
        return statistics.median(setups)

    def step(self) -> Op:
        from repro.incremental import IncrementalChecker, ResultCache

        kind, files, answer = next(self.steps)
        is_cli = self.scn.cache_policy != "shared"
        cache_dir = self.run_cache
        if self.scn.cache_policy == "fresh":
            cache_dir = fresh_dir(os.path.join(self.work, "op-cache"))
        size_before = tree_size(cache_dir) if self.recorder is not None else 0
        checker = result = None
        with self.spans.root("op"):
            t0 = time.perf_counter()
            try:
                if is_cli:
                    self.cache = ResultCache(cache_dir)
                checker = IncrementalChecker(cache=self.cache)
                result = checker.check_sources(files)
                if is_cli:
                    result.render()
            except Exception:
                result = None
            seconds = time.perf_counter() - t0
        ok = (result is not None
              and tuple(m.render() for m in result.messages) == answer.messages
              and not result.degraded and not result.internal_errors)
        stats = checker.stats if checker is not None else None
        op = Op(
            kind, seconds, inputs.source_lines(files), ok,
            hits=stats.cache_hits if stats else 0,
            misses=stats.cache_misses if stats else 0,
            messages=len(result.messages) if result is not None else 0,
        )
        self.ops.append(op)
        if self.recorder is not None:
            self.recorder.after_op(tree_size(cache_dir) - size_before)
        return op


def engine_run(seed: int, seconds: float, work: str) -> Run:
    """``engine-edit-loop`` untraced: set-up is the imports, the one-time
    process initialisation (prelude), and the median cache open + cold
    check. The scenario is built after the imports are timed, since
    building its inputs imports the checker too."""
    import_s = import_engine()
    from repro.core.api import ensure_process_initialized

    started = time.perf_counter()
    ensure_process_initialized(
        snapshot_dir=fresh_dir(os.path.join(work, "prelude"))
    )
    init_s = time.perf_counter() - started
    scn = EngineEditLoop(seed)
    loop = InProcessLoop(scn, work)
    setup_s = loop.setup(scn.setup_repeats)
    started = time.perf_counter()
    while keep_going(loop.ops, started, seconds, scn.round_ops):
        loop.step()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return Run(loop.ops, import_s + init_s + setup_s, peak_kb / 1024,
               loop.size)


class _NoSpans:
    """Stands in for a recorder when the run is untraced."""

    def root(self, name: str):
        return nullcontext()


NO_SPANS = _NoSpans()
