"""The incremental, parallel checking engine.

One-shot checking (:class:`repro.core.api.Checker`) re-preprocesses,
re-parses, and re-checks every translation unit on every invocation.
This engine makes re-checking cheap, the property the paper leans on
("fast enough to run as part of every build"):

* **warm units skip everything** — a unit whose raw text, includes,
  flags, and program interface are unchanged is answered straight from
  the result cache (one read under its exact key) without
  preprocessing, parsing, or checking;
* **dependency-validated reuse** — a unit is checked only against the
  interfaces of what it uses (paper sections 2 and 7), so its result
  depends only on the merged symbol-table entries its analysis reads.
  When an interface edit changes the program digest, each unit's result
  *slot* records those names and a digest of their values; a unit whose
  read entries are unchanged is a hit and is re-stamped under the new
  exact key. An edit re-checks the units whose tokens changed and the
  units that read a changed entry — reordering the units on the command
  line re-checks none of them unless the order changes a merged entry;
* **a two-round pool** — with ``jobs > 1`` a cold run forks workers
  once: they run the frontend of the units whose memo missed and keep
  the ASTs, returning only each unit's memo (its interface slice among
  it); the parent merges the symbol table and probes the result cache,
  then each worker checks the misses it parsed (see
  :mod:`repro.incremental.parallel`). Output is identical to a serial
  run. With ``jobs == 1``, or ``keep_units`` (which needs the ASTs in
  :attr:`CheckResult.units`), the frontend runs in this process.

The engine produces the same :class:`CheckResult` as ``Checker`` — the
integration suite asserts message-for-message equality.
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys
from dataclasses import dataclass, field

from ..core.api import (
    ANALYSIS_MODULES,
    FRONTEND_MODULES,
    CheckResult,
    ParsedUnit,
    UnitCheckOutput,
    _prelude_parsed,
    build_program_symtab,
    check_parsed_unit,
    ensure_process_initialized,
    failed_parsed_unit,
    frontend_errors,
    merge_unit_outputs,
    prelude_parse_pending,
    unit_interface,
)
from ..core.faults import (
    cancel_checkpoint,
    frontend_fatal,
    internal_fatal,
    write_crash_bundle,
)
from ..flags.registry import DEFAULT_FLAGS, Flags
from ..frontend.source import SourceManager
from ..frontend.symtab import SymbolTable
from ..frontend.tokens import Token
from ..obs.metrics import GLOBAL_METRICS
from ..obs.trace import Tracer
from ..stdlib.specs import (
    PRELUDE_COVERED_HEADERS,
    PRELUDE_DEFINES,
    SYSTEM_HEADERS,
)
from .cache import ResultCache, UnitMemo
from .fingerprint import (
    check_fingerprint,
    flags_digest,
    interface_digest,
    memo_variant_key,
    program_digest,
    slot_key,
    source_key,
    text_digest,
    unit_digests,
)
from .shard import STRATEGIES

#: The worker pool; loaded only when a run has units to fan out.
_PARALLEL_MODULES = ("repro.incremental.parallel",)


@dataclass
class CheckStats:
    """Per-phase timing and cache-traffic counters for one run.

    ``preprocess_s`` is the whole preprocessing phase *including* lexing;
    ``lex_s`` is the lexer's share of it, measured separately so the
    ``--profile`` table can show lex / preprocess / parse / analyze as
    disjoint phases.
    """

    units: int = 0
    lex_s: float = 0.0
    preprocess_s: float = 0.0
    parse_s: float = 0.0
    check_s: float = 0.0
    # Named orchestration spans (the decomposed former "other" bucket):
    prelude_s: float = 0.0      # stdlib prelude parse / snapshot load
    symtab_s: float = 0.0       # program symbol-table build + preseed
    fingerprint_s: float = 0.0  # token/interface digests + fingerprints
    cache_s: float = 0.0        # cache + memo probe/serialize IO
    load_s: float = 0.0         # first-use import of frontend/analysis
    # Driver-side spans, set by the CLI (outside the engine's total_s):
    prologue_s: float = 0.0     # argument parsing, flag setup, file reads
    render_s: float = 0.0       # message rendering and printing
    total_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    # The share of cache_hits answered by a result slot whose read
    # entries were unchanged (the exact key had missed).
    dep_hits: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    jobs: int = 1
    parallel_used: bool = False
    degraded_units: int = 0
    internal_errors: int = 0
    # Cache-service traffic (memo + result probes combined). remote_used
    # gates the render lines so runs without --cache-server keep their
    # exact historical output.
    remote_used: bool = False
    remote_hits: int = 0
    remote_misses: int = 0
    # Function definitions across all units, for the CLI's -stats block.
    functions: int = 0
    # Wall time of each worker-pool round ("frontend", "check"); the
    # phase rows above sum the workers' own times.
    pool_s: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    #: The phase counters a pool worker measures per unit and returns;
    #: the parent adds them to its own.
    WORKER_PHASES = (
        "lex_s", "preprocess_s", "parse_s", "check_s", "symtab_s",
        "fingerprint_s", "cache_s",
    )

    def worker_timings(self) -> dict[str, float]:
        return {
            name: getattr(self, name)
            for name in self.WORKER_PHASES
            if getattr(self, name)
        }

    def add_worker_timings(self, timings: dict[str, float]) -> None:
        for name, seconds in timings.items():
            setattr(self, name, getattr(self, name) + seconds)

    def render(self) -> str:
        lines = ["incremental statistics:"]
        lines.append(f"  preprocess:        {self.preprocess_s * 1000:.1f} ms")
        lines.append(f"  parse:             {self.parse_s * 1000:.1f} ms")
        lines.append(f"  check:             {self.check_s * 1000:.1f} ms")
        lines.append(f"  total:             {self.total_s * 1000:.1f} ms")
        lines.append(
            f"  result cache:      {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es)" + self._dep_note()
        )
        lines.append(
            f"  unit memo:         {self.memo_hits} hit(s), "
            f"{self.memo_misses} miss(es)"
        )
        if self.remote_used:
            lines.append(
                f"  cache server:      {self.remote_hits} hit(s), "
                f"{self.remote_misses} miss(es)"
            )
        mode = "parallel" if self.parallel_used else "serial"
        lines.append(f"  schedule:          {mode} (jobs={self.jobs})")
        if self.degraded_units:
            lines.append(
                f"  degraded:          {self.degraded_units} unit(s) "
                f"(re-checked every run; {self.internal_errors} contained "
                f"internal error(s))"
            )
        return "\n".join(lines)

    def _dep_note(self) -> str:
        """How many warm units came by dependency check; empty when none
        did, so runs without such hits print their historical lines."""
        if not self.dep_hits:
            return ""
        return f", {self.dep_hits} by dependency check"

    #: Ordered phase names of the --profile table and BENCH_frontend.json.
    #: The first four are the classic pipeline phases; the next four are
    #: the named orchestration spans the old "other" bucket decomposed
    #: into; ``load`` is the first-use import of the frontend and the
    #: analysis, which a run answered from the cache never pays (see
    #: docs/internals.md, metric catalogue).
    PHASES = (
        "lex", "preprocess", "parse", "analyze",
        "prelude", "symtab", "fingerprint", "cache", "load",
    )

    def phase_timings(self) -> dict[str, float]:
        """Disjoint per-phase seconds (cold work only; warm units skip all).

        ``other`` is whatever of ``total`` the named phases do not cover —
        loop overhead, message merging, bookkeeping; with the span
        decomposition it should stay in the low single-digit milliseconds.
        """
        preprocess = max(0.0, self.preprocess_s - self.lex_s)
        named = {
            "lex": self.lex_s,
            "preprocess": preprocess,
            "parse": self.parse_s,
            "analyze": self.check_s,
            "prelude": self.prelude_s,
            "symtab": self.symtab_s,
            "fingerprint": self.fingerprint_s,
            "cache": self.cache_s,
            "load": self.load_s,
        }
        accounted = sum(named.values())
        named["other"] = max(0.0, self.total_s - accounted)
        named["total"] = self.total_s
        return named

    def render_profile(self) -> str:
        """The ``--profile`` table: per-phase timings, cold vs warm.

        After a pooled run the rows sum the workers' times, which can
        exceed the run's wall time; shares are then taken of the rows'
        sum, so none exceeds 100%.
        """
        timings = self.phase_timings()
        # The rows sum to the total, unless a pooled run's exceed it.
        total = sum(
            timings[phase] for phase in self.PHASES + ("other",)
        ) or 1e-12
        warm = self.cache_hits
        cold = self.units - warm
        lines = ["per-phase timing:"]
        lines.append(f"  {'phase':<12} {'time':>10}   share")
        for phase in self.PHASES + ("other",):
            seconds = timings[phase]
            lines.append(
                f"  {phase:<12} {seconds * 1000:>8.1f} ms  {seconds / total:>5.1%}"
            )
        lines.append(f"  {'total':<12} {timings['total'] * 1000:>8.1f} ms")
        if self.pool_s:
            rounds = ", ".join(
                f"{name} {seconds * 1000:.1f} ms"
                for name, seconds in self.pool_s.items()
            )
            lines.append(
                f"  pool:        {rounds} (wall per round; the rows sum "
                f"worker time)"
            )
        if self.prologue_s or self.render_s:
            lines.append(
                f"  driver:      prologue {self.prologue_s * 1000:.1f} ms, "
                f"render {self.render_s * 1000:.1f} ms (outside total)"
            )
        lines.append(
            f"  units:       {self.units} "
            f"({cold} cold, {warm} warm from result cache{self._dep_note()})"
        )
        lines.append(
            f"  unit memo:   {self.memo_hits} hit(s), "
            f"{self.memo_misses} miss(es)"
        )
        mode = "parallel" if self.parallel_used else "serial"
        lines.append(f"  schedule:    {mode} (jobs={self.jobs})")
        return "\n".join(lines)


@dataclass
class _UnitPlan:
    """Work-in-progress bookkeeping for one translation unit."""

    index: int  # position in the run's unit list
    name: str
    text: str
    key: str = ""               # the source key, which keys the memo
    parsed: ParsedUnit | None = None
    interface: SymbolTable | None = None
    iface_pickle: bytes = b""   # the memo's interface, until unpickled
    functions: int = 0
    token_digest: str = ""
    iface_digest: str = ""
    enum_consts: dict[str, int] = field(default_factory=dict)
    fingerprint: str = ""       # the exact result key
    slot: str = ""              # the result slot key, set on an exact miss
    cached: tuple | None = None  # (messages, suppressed) on a result hit
    output: UnitCheckOutput | None = None


class IncrementalChecker:
    """Checks programs with a persistent cache and an optional pool.

    Drop-in counterpart of :class:`repro.core.api.Checker` for whole
    programs: ``check_sources`` / ``check_files`` return the same
    :class:`CheckResult`, plus a :attr:`stats` record for the last run.
    """

    def __init__(
        self,
        flags: Flags | None = None,
        cache: ResultCache | None = None,
        jobs: int = 1,
        defines: dict[str, str] | None = None,
        keep_units: bool = False,
        crash_dir: str | None = None,
        tracer: Tracer | None = None,
        metrics=None,
        remote=None,
        shard_strategy: str = "interface",
    ) -> None:
        self.flags = flags or DEFAULT_FLAGS
        self.cache = cache
        self.jobs = max(1, int(jobs))
        # A CacheClient (or anything with its get/put surface) consulted
        # on local cache misses; see incremental/cacheserver.py.
        self.remote = remote
        if shard_strategy not in STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {shard_strategy!r} "
                f"(expected one of {', '.join(STRATEGIES)})"
            )
        self.shard_strategy = shard_strategy
        # The engine always runs under a tracer: phase timings for the
        # --profile table are span durations. Without a sink the tracer
        # only measures (the same perf_counter pairs the ad-hoc timing
        # used); per-function spans stay off unless a sink is attached.
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        self.defines = dict(PRELUDE_DEFINES)
        self.defines.update(defines or {})
        self.keep_units = keep_units
        # Crash bundles live next to the result cache when there is one,
        # so one directory holds all of a project's checker state.
        if crash_dir is None and cache is not None:
            crash_dir = os.path.join(cache.root, "crashes")
        self.crash_dir = crash_dir
        self.base_symtab: SymbolTable | None = None
        self._library_digests: list[str] = []
        # Include name -> digest of its current text, for the run in flight.
        self._include_digests: dict[str, str | None] = {}
        self.stats = CheckStats()

    # -- interface libraries -------------------------------------------------

    def load_library(self, path: str) -> None:
        from ..driver.library import load_library, merge_symtabs

        loaded = load_library(path)
        if self.base_symtab is None:
            self.base_symtab = SymbolTable()
        merge_symtabs(self.base_symtab, loaded)
        with open(path, "rb") as handle:
            self._library_digests.append(text_digest(repr(handle.read())))

    # -- entry points --------------------------------------------------------

    def check_files(self, paths: list[str]) -> CheckResult:
        files: dict[str, str] = {}
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                files[path] = handle.read()
        return self.check_sources(files)

    def check_sources(self, files: dict[str, str]) -> CheckResult:
        # One batch around the whole run: its memo and result writes
        # land in one commit.
        if self.cache is None:
            return self._check_sources(files)
        with self.cache.batch():
            return self._check_sources(files)

    def _check_sources(self, files: dict[str, str]) -> CheckResult:
        stats = CheckStats(jobs=self.jobs, remote_used=self.remote is not None)
        metrics = self.metrics
        metrics.inc("engine.runs")
        if self.cache is not None:
            stats.notes.extend(self.cache.notes)
            del self.cache.notes[:]
        self.stats = stats
        self._include_digests = {}

        batch_span = self.tracer.span("batch", cat="batch")
        pool = None
        try:
            # Warm the prelude before any per-unit work so its cost shows
            # up as one named span instead of hiding inside the first
            # unit's parse. With a cache directory, the parsed prelude is
            # loaded from (or saved to) a pickled snapshot keyed by the
            # prelude + frontend-code digest. A cold prelude parse loads
            # the frontend first, under its own "load" span, which the
            # prelude row does not count.
            loaded_before = stats.load_s
            with self.tracer.span("prelude", cat="phase") as prelude_span:
                snapshot_dir = (
                    os.path.join(self.cache.root, "prelude")
                    if self.cache is not None
                    else None
                )
                stats.notes.extend(ensure_process_initialized(
                    snapshot_dir=snapshot_dir,
                    before_parse=lambda: self._load(FRONTEND_MODULES, stats),
                ))
            stats.prelude_s += prelude_span.duration - (
                stats.load_s - loaded_before
            )

            sources = SourceManager()
            for name, text in files.items():
                if name.endswith(".h"):
                    sources.add(name, text)
            unit_names = [n for n in files if not n.endswith(".h")]
            plans = [
                _UnitPlan(index=i, name=n, text=files[n])
                for i, n in enumerate(unit_names)
            ]
            stats.units = len(plans)
            metrics.inc("engine.units", len(plans))
            batch_span.annotate(units=len(plans))

            # Phase 1: identify every unit (memo fast path or
            # preprocess+parse). The cancel checkpoints make a service
            # request stop at unit boundaries once its deadline fires.
            # With jobs > 1 the memo misses wait for the worker pool,
            # which runs their frontend as its first round.
            pooled = self.jobs > 1 and not self.keep_units
            todo: list[_UnitPlan] = []
            for plan in plans:
                cancel_checkpoint()
                with self.tracer.span(
                    "unit", cat="unit", unit=plan.name, stage="frontend"
                ):
                    if self._identify_unit(plan, files, stats):
                        continue
                    if pooled:
                        todo.append(plan)
                    else:
                        self._frontend(plan, sources, stats, remember=True)
            # The pool starts at most once a run: for round 1 here, or
            # for round 2 below when round 1 had no work for it.
            pool_tried = len(todo) > 1
            if pool_tried:
                pool = self._start_pool(plans, sources, stats, len(todo))
            if pool is not None:
                self._frontend_round(pool, todo, sources, stats)
            else:
                for plan in todo:
                    cancel_checkpoint()
                    with self.tracer.span(
                        "unit", cat="unit", unit=plan.name, stage="frontend"
                    ):
                        self._frontend(plan, sources, stats, remember=True)

            # Phase 2: the program-interface digest over all units +
            # libraries.
            cancel_checkpoint()
            prog_digest = program_digest(
                [p.iface_digest for p in plans], self._library_digests
            )
            enum_consts: dict[str, int] = {}
            for plan in plans:
                enum_consts.update(plan.enum_consts)

            # Phase 3: build the merged symbol table from interface
            # slices; result slots are validated against it.
            with self.tracer.span("symtab", cat="phase") as symtab_span:
                symtab = build_program_symtab(
                    [self._interface_of(p) for p in plans], self.base_symtab
                )
            stats.symtab_s += symtab_span.duration

            # Phase 4: result-cache lookups. The exact key comes first:
            # an unchanged program is one read per unit. On a miss, the
            # unit's slot answers if every entry its last check read
            # still has the same merged value. The flags digest is
            # shared by every unit's keys, so it is computed once here.
            flags_fp = flags_digest(self.flags)
            entries = None  # entry digests; made at the first exact miss
            misses: list[_UnitPlan] = []
            restamps: list[_UnitPlan] = []
            with self.tracer.span("cache", cat="phase") as probe_span:
                for plan in plans:
                    if self.cache is not None or self.remote is not None:
                        plan.fingerprint = check_fingerprint(
                            plan.token_digest, self.flags, prog_digest,
                            flags_fp=flags_fp,
                        )
                    if self.cache is not None:
                        plan.cached = self.cache.get_result(plan.fingerprint)
                    if plan.cached is None and self._remote_alive():
                        # A local miss may be a fleet-wide hit: another
                        # worker, machine, or CI run published this
                        # fingerprint to the cache service. A remote hit
                        # is copied into the local cache so repeat runs
                        # stop paying the round trip.
                        remote_hit = self.remote.get_result(plan.fingerprint)
                        if remote_hit is not None:
                            stats.remote_hits += 1
                            plan.cached = remote_hit
                            if self.cache is not None:
                                self.cache.put_result(
                                    plan.fingerprint, remote_hit[0],
                                    remote_hit[1],
                                )
                        else:
                            stats.remote_misses += 1
                    if plan.cached is None and self.cache is not None:
                        if entries is None:
                            from .entries import EntryDigests

                            entries = EntryDigests(symtab, enum_consts)
                        plan.slot = slot_key(
                            plan.token_digest, flags_fp, self._library_digests
                        )
                        slot = self.cache.get_slot(plan.slot)
                        if slot is not None and (
                            entries.digest(slot[2]) == slot[3]
                        ):
                            plan.cached = slot[:2]
                            restamps.append(plan)
                        if plan.cached is None:
                            metrics.inc("cache.result.dep_miss")
                        else:
                            stats.dep_hits += 1
                            metrics.inc("cache.result.dep_hit")
                    if plan.cached is not None:
                        stats.cache_hits += 1
                        metrics.inc("cache.result.hit")
                        plan.output = UnitCheckOutput(
                            messages=plan.cached[0], suppressed=plan.cached[1]
                        )
                    else:
                        stats.cache_misses += 1
                        metrics.inc("cache.result.miss")
                        misses.append(plan)
            stats.cache_s += probe_span.duration

            # Phase 5: check the misses (on the pool when asked and
            # possible).
            if misses:
                if not pool_tried and self.jobs > 1 and len(misses) > 1:
                    pool = self._start_pool(
                        plans, sources, stats, len(misses)
                    )
                if pool is not None:
                    self._check_round(
                        pool, misses, symtab, enum_consts, sources, stats
                    )
                else:
                    self._check_serial(
                        misses, symtab, enum_consts, sources, stats
                    )
            if restamps or misses:
                with self.tracer.span("cache", cat="phase") as write_span:
                    self._store_results(restamps, misses, entries)
                    if self.cache is not None:
                        # The run's commit, timed as cache work; the
                        # batch's exit then has nothing left to write.
                        self.cache.flush_batch()
                stats.cache_s += write_span.duration

            messages, suppressed = merge_unit_outputs(
                [p.output for p in plans]
            )
            stats.degraded_units = sum(1 for p in plans if p.output.degraded)
            stats.internal_errors = sum(
                p.output.internal_errors for p in plans
            )
            stats.functions = sum(p.functions for p in plans)
        finally:
            if pool is not None:
                stats.notes.extend(pool.close())
            batch_span.end()
        stats.total_s = batch_span.duration
        metrics.inc("engine.units.degraded", stats.degraded_units)
        metrics.inc("engine.internal_errors", stats.internal_errors)
        metrics.observe("engine.run_s", stats.total_s)
        # Cache entries silently discarded as corrupt/unreadable during
        # this run become a visible note: corruption must be diagnosable.
        if self.cache is not None:
            # A cache.db found unreadable mid-run was rebuilt, with a note.
            stats.notes.extend(self.cache.notes)
            del self.cache.notes[:]
            dropped = self.cache.drain_dropped()
            if dropped:
                stats.notes.append(
                    f"result cache dropped {dropped} corrupt or unreadable "
                    f"entr{'y' if dropped == 1 else 'ies'} under "
                    f"{self.cache.root}"
                )
        # A cache-server failure mid-run became silent misses; the note
        # explains why the run was slower than expected.
        if self.remote is not None:
            stats.notes.extend(self.remote.drain_notes())
        return CheckResult(
            messages=messages,
            suppressed=suppressed,
            units=[p.parsed.unit for p in plans if p.parsed is not None],
            symtab=symtab,
            degraded_units=[p.name for p in plans if p.output.degraded],
            internal_errors=stats.internal_errors,
        )

    def _remote_alive(self) -> bool:
        """The cache service is configured and has not failed this run
        (the client disables itself on the first transport error)."""
        return self.remote is not None and not getattr(
            self.remote, "dead", False
        )

    def _store_results(
        self,
        restamps: list[_UnitPlan],
        misses: list[_UnitPlan],
        entries,
    ) -> None:
        """Write this run's results: a slot hit under its exact key, so
        the next run of the same program is one read; a checked unit
        under its exact key and its slot, with the digest *entries* gives
        the names it read (``None`` only without a local cache, when
        there are no slots). Degraded results (parse recovery, skipped files,
        contained crashes) are never cached under either key: the unit
        must be re-checked from scratch on every run until it is fixed."""
        cache = self.cache
        for plan in restamps:
            cache.put_result(plan.fingerprint, *plan.cached)
        for plan in misses:
            output = plan.output
            if output.degraded:
                continue
            if cache is not None:
                cache.put_result(
                    plan.fingerprint, output.messages, output.suppressed
                )
                if output.reads is not None:
                    cache.put_slot(
                        plan.slot, output.messages, output.suppressed,
                        output.reads, entries.digest(output.reads),
                    )
            if self._remote_alive():
                self.remote.put_result(
                    plan.fingerprint, output.messages, output.suppressed
                )

    # -- unit identification -------------------------------------------------

    def _identify_unit(
        self,
        plan: _UnitPlan,
        files: dict[str, str],
        stats: CheckStats,
    ) -> bool:
        """Fill the plan's source key, and its digests from the memo when
        one matches; returns whether one did (otherwise the unit needs
        its frontend)."""
        with self.tracer.span(
            "fingerprint", cat="phase", unit=plan.name
        ) as key_span:
            plan.key = source_key(plan.name, plan.text, self.defines)
        stats.fingerprint_s += key_span.duration
        if not self.keep_units:
            memo = None
            if self.cache is not None:
                with self.tracer.span(
                    "cache", cat="phase", unit=plan.name
                ) as memo_span:
                    memo = self._local_memo(plan.key, files)
                stats.cache_s += memo_span.duration
            if memo is None and self._remote_alive():
                # The memo probe is what makes a remote hit cheap: the
                # result probe needs the token digest, which a memo miss
                # would force us to preprocess and parse for. A remote
                # memo skips the frontend entirely, and is copied into
                # the local cache for the next run.
                with self.tracer.span(
                    "cache", cat="phase", unit=plan.name
                ) as memo_span:
                    remote_memo = self.remote.get_memo(plan.key)
                stats.cache_s += memo_span.duration
                if remote_memo is not None and self._includes_unchanged(
                    remote_memo.includes, files
                ):
                    stats.remote_hits += 1
                    memo = remote_memo
                    if self.cache is not None:
                        self.cache.put_unit_memo(plan.key, memo)
                else:
                    stats.remote_misses += 1
            if memo is not None:
                stats.memo_hits += 1
                self.metrics.inc("cache.memo.hit")
                self._use_memo(plan, memo)
                return True
        stats.memo_misses += 1
        self.metrics.inc("cache.memo.miss")
        return False

    def _use_memo(self, plan: _UnitPlan, memo: UnitMemo) -> None:
        """Fill the plan from a memo: one read from the cache, or the
        record a pool worker returned for the unit it parsed."""
        plan.token_digest = memo.token_digest
        plan.iface_digest = memo.iface_digest
        plan.enum_consts = dict(memo.enum_consts)
        plan.functions = memo.functions
        plan.interface = None  # unpickled lazily in _interface_of
        plan.iface_pickle = memo.iface_pickle

    def _wants_memo(self) -> bool:
        return self.cache is not None or self._remote_alive()

    def _memo_for(
        self, plan: _UnitPlan, included: set[str], sources: SourceManager
    ) -> UnitMemo:
        """The memo of a unit whose frontend just ran: its digests, its
        pickled interface slice and the digests of the headers it
        included."""
        closure = []
        for name in sorted(included):
            source = sources.get(name)
            if source is not None:
                closure.append((name, text_digest(source.text)))
        return UnitMemo(
            token_digest=plan.token_digest,
            iface_digest=plan.iface_digest,
            iface_pickle=pickle.dumps((plan.interface, plan.enum_consts)),
            includes=closure,
            enum_consts=plan.enum_consts,
            functions=plan.functions,
        )

    def _put_memo(self, key: str, memo: UnitMemo) -> None:
        if self.cache is not None:
            self.cache.put_unit_memo(key, memo)
            self.cache.put_unit_memo(memo_variant_key(key, memo.includes), memo)
        if self._remote_alive():
            self.remote.put_memo(key, memo)

    def _load(self, modules: tuple[str, ...], stats: CheckStats) -> None:
        """Import *modules* on first use under a ``load`` span.

        The frontend and the analysis load only when a unit needs them;
        loading them here, before the phase span opens, keeps module
        loading out of the preprocess/parse/analyze rows of --profile
        and shows it as its own ``load`` row.
        """
        missing = [name for name in modules if name not in sys.modules]
        if not missing:
            return
        with self.tracer.span("load", cat="phase") as span:
            for name in missing:
                importlib.import_module(name)
        stats.load_s += span.duration

    def _frontend(
        self,
        plan: _UnitPlan,
        sources: SourceManager,
        stats: CheckStats,
        remember: bool = False,
    ) -> None:
        """Run the unit's frontend in this process; with *remember*, also
        write its memo."""
        included = self._parse_plan(plan, sources, stats)
        if remember and included is not None and self._wants_memo():
            with self.tracer.span(
                "cache", cat="phase", unit=plan.name
            ) as memo_span:
                self._put_memo(plan.key, self._memo_for(plan, included, sources))
            stats.cache_s += memo_span.duration

    def _parse_plan(
        self,
        plan: _UnitPlan,
        sources: SourceManager,
        stats: CheckStats,
    ) -> set[str] | None:
        """Preprocess, fingerprint and parse the unit, filling the plan.
        Returns the names the unit included, or ``None`` when its
        frontend gave up (the plan then holds the failed unit)."""
        self._load(FRONTEND_MODULES, stats)
        if prelude_parse_pending():
            # The snapshot's pickled prelude parse is first needed here;
            # unpickling it is prelude work, not this unit's parse.
            with self.tracer.span("prelude", cat="phase") as prelude_span:
                _prelude_parsed()
            stats.prelude_s += prelude_span.duration
        try:
            tokens, included = self._preprocess(
                plan.name, plan.text, sources, stats
            )
        except frontend_errors() as exc:
            self._fail_plan(plan, frontend_fatal(exc, plan.name))
            return None
        except Exception as exc:
            write_crash_bundle(
                self.crash_dir, phase="preprocess", unit=plan.name, exc=exc,
                source_text=plan.text,
            )
            self._fail_plan(plan, internal_fatal(exc, plan.name, "preprocessing"))
            return None
        with self.tracer.span(
            "fingerprint", cat="phase", unit=plan.name
        ) as digest_span:
            # Both digests in one pass over the token stream. The
            # interface digest is read straight off the tokens (function
            # bodies skipped) — the reflective symbol-table walk it
            # replaced dominated the cold run; see fingerprint.py.
            plan.token_digest, plan.iface_digest = unit_digests(tokens)
        stats.fingerprint_s += digest_span.duration
        parse_span = self.tracer.span("parse", cat="phase", unit=plan.name)
        try:
            # ParseError cannot normally escape (panic-mode recovery eats
            # it inside parse_translation_unit); anything arriving here is
            # a checker bug and is contained as an internal error.
            plan.parsed = self._parse_tokens(tokens, plan.name)
        except Exception as exc:
            stats.parse_s += parse_span.end()
            write_crash_bundle(
                self.crash_dir, phase="parse", unit=plan.name, exc=exc,
                source_text=plan.text,
            )
            self._fail_plan(plan, internal_fatal(exc, plan.name, "parsing"))
            return None
        stats.parse_s += parse_span.end()
        plan.enum_consts = dict(plan.parsed.enum_consts)
        plan.functions = len(plan.parsed.unit.functions())
        with self.tracer.span(
            "symtab", cat="phase", unit=plan.name
        ) as iface_span:
            plan.interface = unit_interface(plan.parsed)
        stats.symtab_s += iface_span.duration
        return included

    def _fail_plan(self, plan: _UnitPlan, fatal) -> None:
        """Fill a plan whose frontend gave up: an empty unit carrying the
        fatal record, digests derived from the raw text, and no memo
        entry (the unit must be re-examined from scratch every run)."""
        plan.parsed = failed_parsed_unit(plan.name, fatal)
        plan.token_digest = text_digest("unparseable\0" + plan.text)
        plan.enum_consts = {}
        plan.functions = 0
        plan.interface = unit_interface(plan.parsed)
        plan.iface_digest = interface_digest(plan.interface, {})

    def _preprocess(
        self,
        name: str,
        text: str,
        sources: SourceManager,
        stats: CheckStats,
    ) -> tuple[list[Token], set[str]]:
        from ..frontend.preprocessor import Preprocessor

        with self.tracer.span("preprocess", cat="phase", unit=name) as sp:
            pp = Preprocessor(
                sources, defines=dict(self.defines),
                system_headers=SYSTEM_HEADERS,
                prelude_covered=PRELUDE_COVERED_HEADERS,
            )
            tokens = pp.preprocess_text(text, name)
            # The lexer's share is interleaved inside preprocessing and
            # only known after the fact; record it as a child interval.
            self.tracer.add_complete(
                "lex", start=sp.start, duration=pp.lex_s, cat="phase",
                unit=name,
            )
        stats.preprocess_s += sp.duration
        stats.lex_s += pp.lex_s
        return tokens, set(pp._included)

    def _parse_tokens(self, tokens: list[Token], name: str) -> ParsedUnit:
        from ..frontend.parser import Parser

        _, prelude_scope = _prelude_parsed()
        parser = Parser(
            tokens, name, lcl_mode=name.endswith(".lcl"), preseed=prelude_scope
        )
        unit = parser.parse_translation_unit()
        return ParsedUnit(
            unit=unit,
            controls=parser.controls,
            problems=parser.problems,
            enum_consts=dict(parser.scope.enum_consts),
            parse_errors=list(parser.parse_errors),
        )

    def _ensure_parsed(
        self, plan: _UnitPlan, sources: SourceManager, stats: CheckStats
    ) -> None:
        """Parse a memo-hit unit whose check result turned out to be stale
        (e.g. the flags changed): the memo saved preprocessing knowledge,
        but checking needs the AST."""
        if plan.parsed is None:
            self._parse_plan(plan, sources, stats)

    def _interface_of(self, plan: _UnitPlan) -> SymbolTable:
        if plan.interface is not None:
            return plan.interface
        interface, enum_consts = pickle.loads(plan.iface_pickle)
        plan.interface = interface
        plan.enum_consts = dict(enum_consts)
        return interface

    # -- checking ------------------------------------------------------------

    def _check_serial(
        self,
        misses: list[_UnitPlan],
        symtab: SymbolTable,
        enum_consts: dict[str, int],
        sources: SourceManager,
        stats: CheckStats,
    ) -> None:
        """Parse (where no AST is at hand) and check *misses* in this
        process."""
        for plan in misses:
            cancel_checkpoint()
            if plan.parsed is None:
                with self.tracer.span(
                    "unit", cat="unit", unit=plan.name, stage="frontend",
                ):
                    self._ensure_parsed(plan, sources, stats)
        self._load(ANALYSIS_MODULES, stats)
        check_span = self.tracer.span(
            "analyze", cat="phase", units=len(misses)
        )
        try:
            for plan in misses:
                cancel_checkpoint()
                with self.tracer.span(
                    "unit", cat="unit", unit=plan.name, stage="analyze",
                ) as unit_span:
                    plan.output = check_parsed_unit(
                        plan.parsed, symtab, self.flags, enum_consts,
                        crash_dir=self.crash_dir, tracer=self.tracer,
                    )
                self.metrics.observe("engine.unit_check_s", unit_span.duration)
        finally:
            check_span.end()
        stats.check_s += check_span.duration

    # -- the worker pool (see parallel.py) -------------------------------------

    def _start_pool(
        self,
        plans: list[_UnitPlan],
        sources: SourceManager,
        stats: CheckStats,
        units: int,
    ):
        """Fork the worker pool for a run whose first pooled round has
        *units* units; ``None`` (with a note) when it cannot start. The
        frontend, the analysis and the prelude parse are loaded first,
        so every worker inherits them."""
        self._load(
            FRONTEND_MODULES + ANALYSIS_MODULES + _PARALLEL_MODULES, stats
        )
        if prelude_parse_pending():
            with self.tracer.span("prelude", cat="phase") as prelude_span:
                _prelude_parsed()
            stats.prelude_s += prelude_span.duration
        from .parallel import start_pool

        pool, notes = start_pool(
            self, plans, sources, min(self.jobs, units), self.metrics, units
        )
        stats.notes.extend(notes)
        if pool is not None:
            stats.parallel_used = True
            self.metrics.inc("engine.parallel.runs")
        return pool

    def _frontend_round(
        self, pool, todo: list[_UnitPlan], sources: SourceManager,
        stats: CheckStats,
    ) -> None:
        """Round 1: the workers run the frontend of *todo* and keep the
        ASTs; each unit comes back as its memo, which is written here."""
        cancel_checkpoint()
        with self.tracer.span(
            "round", cat="phase", round="frontend", units=len(todo)
        ) as round_span:
            for plan, (memo, failed), timings, spans, pid in pool.frontend(
                todo, self.shard_strategy
            ):
                self._absorb(stats, timings, spans, pid)
                self._use_memo(plan, memo)
                if not failed and self._wants_memo():
                    with self.tracer.span(
                        "cache", cat="phase", unit=plan.name
                    ) as memo_span:
                        self._put_memo(plan.key, memo)
                    stats.cache_s += memo_span.duration
        stats.pool_s["frontend"] = round_span.duration
        for plan in pool.take_lost():
            cancel_checkpoint()
            with self.tracer.span(
                "unit", cat="unit", unit=plan.name, stage="frontend"
            ):
                self._frontend(plan, sources, stats, remember=True)

    def _check_round(
        self,
        pool,
        misses: list[_UnitPlan],
        symtab: SymbolTable,
        enum_consts: dict[str, int],
        sources: SourceManager,
        stats: CheckStats,
    ) -> None:
        """Round 2: the workers check the misses, each its own first,
        against one pickled copy of the merged symbol table."""
        cancel_checkpoint()
        blob = pickle.dumps(
            (symtab, enum_consts), protocol=pickle.HIGHEST_PROTOCOL
        )
        with self.tracer.span(
            "round", cat="phase", round="check", units=len(misses)
        ) as round_span:
            for plan, output, timings, spans, pid in pool.check(misses, blob):
                self._absorb(stats, timings, spans, pid)
                self.metrics.observe(
                    "engine.unit_check_s", timings.get("check_s", 0.0)
                )
                plan.output = output
        stats.pool_s["check"] = round_span.duration
        lost = pool.take_lost()
        stats.notes.extend(pool.close())
        if lost:
            self._check_serial(lost, symtab, enum_consts, sources, stats)

    def _absorb(self, stats: CheckStats, timings, spans, pid: int) -> None:
        """Add one worker unit's phase times to the run's, and re-emit its
        spans on the worker's own track."""
        stats.add_worker_timings(timings)
        for name, cat, start, duration, meta in spans:
            self.tracer.add_complete(
                name, start=start, duration=duration, cat=cat, worker=pid,
                **meta,
            )

    def _local_memo(self, key: str, files: dict[str, str]) -> UnitMemo | None:
        """The local memo for source key *key* whose include closure still
        matches *files*, or ``None``.

        The base entry holds the closure of the unit's last parse. When a
        header has changed since, the variant entry keyed by the current
        contents of that same closure may hold the memo of an earlier
        parse (a header edited and then reverted); it is used only if its
        own recorded closure matches too, so a stale memo never hits.
        """
        memo = self.cache.get_unit_memo(key)
        if memo is None or self._includes_unchanged(memo.includes, files):
            return memo
        current = []
        for name, _ in memo.includes:
            digest = self._include_digest(name, files)
            if digest is None:
                return None
            current.append((name, digest))
        variant = self.cache.get_unit_memo(memo_variant_key(key, current))
        if variant is not None and self._includes_unchanged(
            variant.includes, files
        ):
            return variant
        return None

    def _includes_unchanged(
        self, closure: list[tuple[str, str]], files: dict[str, str]
    ) -> bool:
        return all(
            self._include_digest(name, files) == recorded_sha
            for name, recorded_sha in closure
        )

    def _include_digest(self, name: str, files: dict[str, str]) -> str | None:
        """Digest of an include's current text (``None`` if unreadable),
        computed once per run however many units include it."""
        digests = self._include_digests
        if name not in digests:
            current = self._current_include_text(name, files)
            digests[name] = None if current is None else text_digest(current)
        return digests[name]

    def _current_include_text(
        self, name: str, files: dict[str, str]
    ) -> str | None:
        if name in files:
            return files[name]
        if name.startswith("<") and name.endswith(">"):
            return SYSTEM_HEADERS.get(name[1:-1])
        if os.path.isfile(name):
            try:
                with open(name, "r", encoding="utf-8", errors="replace") as f:
                    return f.read()
            except OSError:
                return None
        return None
