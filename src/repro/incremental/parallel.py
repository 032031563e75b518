"""Run a cold multi-unit check on forked workers: frontend, then checks.

In the paper's modular checking (section 7) each unit is checked only
against the interfaces of what it uses, so all one unit needs from
another is its interface slice, never its AST. The pool exploits that
in two rounds over one set of workers, forked once per run:

1. **Frontend.** Each worker preprocesses, fingerprints and parses its
   share of the units that missed their memo, and keeps the ASTs. Per
   unit it returns only the unit's memo (token and interface digests,
   enum constants, the pickled interface slice, the digests of the
   headers it included, its function count), its phase times and, when
   the run is traced, its spans. ``--shard-strategy`` partitions this
   round, one shard per worker (no interface digest exists yet, so
   ``interface`` packs single units by size, like ``size``).
2. **Check.** Between the rounds the parent writes the memos, merges
   the symbol table and probes the result cache. Each worker then gets
   one pickled ``(symtab, enum_consts)`` and checks its misses: the
   units it parsed itself, plus a size-balanced share of the misses no
   worker parsed (a memo hit whose result missed, parsed from the
   fork-inherited text; or a unit the parent parsed before the fork,
   whose AST the workers inherited).

A pipe carries a round's unit indices, the per-unit records (memos,
check outputs, times, spans) and one symtab blob per worker — never an
AST. Workers fork after the parent has loaded the frontend and the
analysis and unpickled the prelude parse; they inherit the run's texts,
headers, flags and settings through the fork.

Failure handling:

* if no worker can start (no ``fork``, a failed start), there is no
  pool: one note and one ``engine.parallel.fallbacks``, and the run is
  serial;
* a worker that dies or raises in either round costs the parent a
  serial frontend and check of that worker's unfinished units — its
  round-1 units whose records arrived too, since their ASTs died with
  it. A run counts one note and one fallback however many workers die,
  so a collapsed pool is one fallback, not one per worker;
* ``KeyboardInterrupt`` and ``SystemExit`` are never caught: a user
  interrupt aborts the run (the workers are stopped on the way out).
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
from collections import deque
from multiprocessing.connection import wait

from ..core.api import check_parsed_unit
from ..obs.export import MemorySink
from ..obs.trace import Tracer
from .engine import CheckStats
from .shard import partition_units, shard_balance, shard_count_for


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def start_pool(engine, plans, sources, workers: int, metrics, units: int):
    """Fork *workers* workers for *engine*'s run over *plans*; returns
    ``(pool, notes)``, with ``pool`` ``None`` when none could start.
    *units* is how many units the run meant to send them."""
    if not fork_available():
        metrics.inc("engine.parallel.fallbacks")
        return None, [
            f"parallel checking unavailable (no fork start method on this "
            f"platform); checked {units} unit(s) serially"
        ]
    context = multiprocessing.get_context("fork")
    started: list[_Worker] = []
    try:
        for _ in range(workers):
            parent_end, child_end = context.Pipe()
            # Forked, not spawned: the worker gets these arguments as
            # inherited memory, and nothing of them is pickled.
            process = context.Process(
                target=_worker_main,
                args=(child_end, engine, plans, sources),
                daemon=True,
            )
            try:
                process.start()
            except BaseException:
                parent_end.close()
                raise
            finally:
                child_end.close()
            started.append(_Worker(process, parent_end))
    except BaseException as exc:
        for worker in started:
            worker.stop()
        if not isinstance(exc, Exception):
            raise
        metrics.inc("engine.parallel.fallbacks")
        return None, [
            f"parallel checking unavailable (cannot start worker pool: "
            f"{type(exc).__name__}); checked {units} unit(s) serially"
        ]
    return WorkerPool(started, metrics), []


class _Worker:
    __slots__ = ("process", "conn", "pending", "alive")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.pending: dict[int, object] = {}  # unit index -> plan
        self.alive = True

    def stop(self) -> None:
        """End the process and release the pipe; idempotent."""
        self.alive = False
        if self.process.is_alive():
            try:
                self.conn.send(("stop",))
            except (OSError, ValueError):
                pass
            self.process.join(1.0)
            if self.process.is_alive():
                self.process.kill()
        self.process.join()
        self.conn.close()


class WorkerPool:
    """The parent's handle on one run's workers; see the module doc."""

    def __init__(self, workers: list[_Worker], metrics) -> None:
        self._workers = workers
        self._metrics = metrics
        self._owner: dict[int, _Worker] = {}  # unit index -> its parser
        self._lost: list = []
        self._redone: set[int] = set()
        self._deaths: list[str] = []
        self._closed = False

    def frontend(self, plans: list, strategy: str):
        """Round 1 over *plans*; yields ``(plan, (memo, failed), timings,
        spans, pid)`` as the records arrive.

        The strategy cuts more shards than workers; a worker that
        finishes one takes the next, and owns the units it parsed."""
        live = [w for w in self._workers if w.alive]
        weights = [_weight(plan) for plan in plans]
        shards = partition_units(
            len(plans), shard_count_for(len(live), len(plans)),
            strategy=strategy, weights=weights,
        )
        self._metrics.inc("engine.shard.count", len(shards))
        self._metrics.set_gauge(
            "engine.shard.balance", shard_balance(shards, weights)
        )
        queue = deque([plans[i] for i in shard.indices] for shard in shards)
        return self._run("frontend", {}, queue, None)

    def check(self, plans: list, blob: bytes):
        """Round 2 over *plans* against the pickled ``(symtab,
        enum_consts)`` *blob*; yields ``(plan, output, timings, spans,
        pid)`` as the outputs arrive.

        Each worker checks the misses it parsed, largest first, then
        takes the misses no worker parsed, largest first. A worker with
        nothing left steals the last queued miss of the most loaded
        worker, if that one still has at least as much queued behind
        it, and parses it again. A miss whose parser died is lost."""
        own: dict[_Worker, deque] = {}
        spread = []
        for plan in sorted(plans, key=lambda p: (-_weight(p), p.index)):
            owner = self._owner.get(plan.index)
            if owner is None:
                spread.append([plan])
            elif owner.alive:
                own.setdefault(owner, deque()).append([plan])
            else:
                self._lose_unit(plan)
        return self._run("check", own, deque(spread), blob)

    def take_lost(self) -> list:
        """The plans whose work died with a worker since the last call;
        the caller redoes them in its own process."""
        lost, self._lost = self._lost, []
        return lost

    def close(self) -> list[str]:
        """Stop every worker; returns the run's note about dead workers
        (empty when none died, and on a second call)."""
        if self._closed:
            return []
        self._closed = True
        for worker in self._workers:
            worker.stop()
        if not self._deaths:
            return []
        self._metrics.inc("engine.parallel.fallbacks")
        return [
            f"{len(self._deaths)} pool worker(s) died "
            f"({', '.join(sorted(set(self._deaths)))}); checked their "
            f"{len(self._redone)} unfinished unit(s) serially"
        ]

    # -- internal ------------------------------------------------------------

    def _run(self, kind: str, own: dict, shared: deque, blob):
        """Give each live worker the batches in its *own* queue, then
        batches from *shared*, one batch at a time, and yield the replies
        as they come. A dead worker's batches are lost, and so are
        shared batches no worker is left to take."""
        live = [w for w in self._workers if w.alive]
        fresh = set(live)  # not yet sent this round's blob
        taken = dict.fromkeys(live, 0)  # shared batches per worker
        waiting: dict = {}

        def feed(worker: _Worker) -> None:
            if own.get(worker):
                batch = own[worker].popleft()
            elif shared:
                batch = shared.popleft()
                taken[worker] += 1
            else:
                batch = _steal(own)
                if batch is None:
                    return
                self._metrics.inc("engine.shard.steals")
            if kind == "frontend":
                for plan in batch:
                    self._owner[plan.index] = worker
            worker.pending = {plan.index: plan for plan in batch}
            try:
                worker.conn.send((
                    kind, list(worker.pending),
                    blob if worker in fresh else None,
                ))
            except (OSError, ValueError):
                self._lose(worker, "broken pipe", own)
                return
            fresh.discard(worker)
            waiting[worker.conn] = worker

        for worker in live:
            feed(worker)
        while waiting:
            for conn in wait(list(waiting)):
                worker = waiting[conn]
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    worker.process.join(1.0)
                    reply = ("died", f"exit status {worker.process.exitcode}")
                if reply[0] != "unit":
                    del waiting[conn]
                    self._lose(worker, reply[1], own)
                    continue
                _, index, payload, timings, spans = reply
                plan = worker.pending.pop(index)
                if not worker.pending:
                    del waiting[conn]
                    feed(worker)
                yield plan, payload, timings, spans, worker.process.pid
        while shared:
            for plan in shared.popleft():
                self._lose_unit(plan)
        # A worker that took more shared batches than its even share
        # took them from the queue while another was still busy.
        fair = math.ceil(sum(taken.values()) / max(1, len(live)))
        self._metrics.inc(
            "engine.shard.steals",
            sum(max(0, count - fair) for count in taken.values()),
        )

    def _lose(self, worker: _Worker, reason: str, own: dict) -> None:
        self._deaths.append(reason)
        for plan in worker.pending.values():
            self._lose_unit(plan)
        for batch in own.pop(worker, ()):
            for plan in batch:
                self._lose_unit(plan)
        worker.pending = {}
        worker.stop()

    def _lose_unit(self, plan) -> None:
        self._lost.append(plan)
        self._redone.add(plan.index)


def _weight(plan) -> int:
    return max(1, len(plan.text))


def _steal(own: dict):
    """The last queued batch of the most loaded queue in *own*, when the
    batches queued before it weigh at least as much (a stolen unit is
    parsed again, which costs about what checking it does); else
    ``None``."""
    def load(queue) -> int:
        return sum(_weight(plan) for batch in queue for plan in batch)

    queue = max(own.values(), key=load, default=None)
    if not queue or load(queue) < 2 * load([queue[-1]]):
        return None
    return queue.pop()


# -- the worker side -----------------------------------------------------------


def _worker_main(conn, engine, plans, sources) -> None:
    """A worker's request loop: one reply per unit, in request order."""
    sink = MemorySink() if engine.tracer.emitting else None
    # The worker's copy of the engine measures into its own tracer; the
    # parent re-emits the spans it returns.
    engine.tracer = tracer = Tracer(sink)
    try:
        while True:
            request = conn.recv()
            if request[0] == "stop":
                return
            kind, indices, blob = request
            if blob is not None:  # the first batch of the check round
                symtab, enum_consts = pickle.loads(blob)
            for index in indices:
                plan = plans[index]
                stats = CheckStats()
                if kind == "frontend":
                    payload = _frontend_unit(engine, plan, sources, stats)
                else:
                    payload = _check_unit(
                        engine, plan, sources, stats, symtab, enum_consts
                    )
                conn.send((
                    "unit", index, payload, stats.worker_timings(),
                    _drain(tracer, sink),
                ))
    except (EOFError, KeyboardInterrupt):
        return  # the parent is gone, or the user interrupted the run
    except Exception as exc:
        try:
            conn.send(("failed", type(exc).__name__))
        except (OSError, ValueError):
            pass


def _frontend_unit(engine, plan, sources, stats: CheckStats):
    tracer = engine.tracer
    with tracer.span("unit", cat="unit", unit=plan.name, stage="frontend"):
        included = engine._parse_plan(plan, sources, stats)
        with tracer.span("cache", cat="phase", unit=plan.name) as memo_span:
            memo = engine._memo_for(plan, included or set(), sources)
        stats.cache_s += memo_span.duration
    return memo, included is None


def _check_unit(engine, plan, sources, stats: CheckStats, symtab, enum_consts):
    tracer = engine.tracer
    with tracer.span("unit", cat="unit", unit=plan.name, stage="analyze"):
        engine._ensure_parsed(plan, sources, stats)
        with tracer.span("analyze", cat="phase", unit=plan.name) as span:
            output = check_parsed_unit(
                plan.parsed, symtab, engine.flags, enum_consts,
                crash_dir=engine.crash_dir, tracer=tracer,
            )
        stats.check_s += span.duration
    plan.parsed = None  # checked: the AST is garbage now
    return output


def _drain(tracer: Tracer, sink: MemorySink | None) -> list:
    """The spans finished since the last call, as ``(name, cat, start,
    duration, meta)`` with *start* on the shared monotonic clock."""
    if sink is None:
        return []
    spans = [
        (
            event["name"], event["cat"],
            tracer.epoch + event["ts_us"] / 1e6, event["dur_us"] / 1e6,
            event.get("args", {}),
        )
        for event in sink.events
    ]
    sink.events.clear()
    return spans
