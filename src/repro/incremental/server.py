"""Legacy batch/daemon driver: ``pylclint --daemon`` — now a thin,
synchronous compatibility shim over :mod:`repro.service.protocol`.

The real server is the asyncio multi-client checking service
(``pylclint --serve``, :mod:`repro.service.server`); this shim keeps
the original single-client stdin/stdout transport alive for build
systems that pipe into it. Both speak the same protocol and share the
same request parser and check executor, so for any request line the
shim and the service produce the same reply (the property suite in
``tests/property/test_service_framing.py`` holds them to it):

* request — one line: a JSON array of CLI arguments
  (``["-quiet", "src/a.c"]``), a plain shell-style command line
  (``-quiet src/a.c``), or the object form
  (``{"id": 7, "argv": [...], ...}``) documented in
  :mod:`repro.service.protocol`;
* ``metrics`` — replies with a snapshot of the process-lifetime
  metrics registry instead of running a check;
* response — one JSON object per line; see the reply schema in
  :mod:`repro.service.protocol` (and docs/internals.md §9);
* ``shutdown`` (or EOF) ends the session with a summary line.

The daemon never dies on a request: malformed JSON, oversized lines
(over :data:`MAX_REQUEST_BYTES`), and internal checker errors all get
an error reply — echoing the client's request ``id`` whenever one can
be recovered from the broken line — and the next request is served
normally.

Every request runs with the persistent result cache enabled, so a
rebuild that re-checks an unchanged file is answered from cache without
preprocessing, parsing, or checking.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from ..obs.metrics import GLOBAL_METRICS
from ..service.protocol import (
    MAX_REQUEST_BYTES,
    ProtocolError,
    error_reply,
    execute_check,
    metrics_reply,
    oversized_reply,
    parse_request_line,
    recover_request_id,
    warm_process,
)
from .cache import DEFAULT_CACHE_DIR, ResultCache

__all__ = [
    "MAX_REQUEST_BYTES",
    "DaemonStats",
    "DaemonServer",
    "run_daemon",
    "main",
]


@dataclass
class DaemonStats:
    requests: int = 0
    errors: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    check_s: float = 0.0
    total_s: float = 0.0
    notes: list[str] = field(default_factory=list)


class DaemonServer:
    """One single-client daemon session over a pair of line streams."""

    def __init__(
        self,
        cache_dir: str | None = DEFAULT_CACHE_DIR,
        jobs: int = 1,
        stdin=None,
        stdout=None,
    ) -> None:
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.jobs = jobs
        self.stdin = stdin if stdin is not None else sys.stdin
        self.stdout = stdout if stdout is not None else sys.stdout
        self.stats = DaemonStats()

    # -- protocol ------------------------------------------------------------

    def serve(self) -> int:
        """Answer requests until ``shutdown`` or EOF; returns 0."""
        warm_process(self.jobs)  # pay the prelude parse and imports up front
        self._send({"ready": True, "jobs": self.jobs,
                    "cache": self.cache.root if self.cache else None})
        for line in self.stdin:
            line = line.strip()
            if not line:
                continue
            if line in ("shutdown", "quit", "exit"):
                break
            reply = self.handle_line(line)
            self._send(reply)
            if reply.get("shutdown"):
                break
        self._send({
            "bye": True,
            "requests": self.stats.requests,
            "errors": self.stats.errors,
            "cache_hits": self.stats.cache_hits,
            "cache_misses": self.stats.cache_misses,
        })
        return 0

    def handle_line(self, line: str) -> dict:
        self.stats.requests += 1
        fallback_id = self.stats.requests
        if len(line) > MAX_REQUEST_BYTES:
            self.stats.errors += 1
            GLOBAL_METRICS.inc("daemon.requests.oversized")
            request_id = recover_request_id(line[:4096])
            return oversized_reply(
                fallback_id if request_id is None else request_id, len(line)
            )
        try:
            request = parse_request_line(line)
        except ProtocolError as exc:
            self.stats.errors += 1
            GLOBAL_METRICS.inc("daemon.requests.malformed")
            request_id = exc.request_id
            return error_reply(
                fallback_id if request_id is None else request_id,
                "protocol", str(exc),
            )
        request_id = request.id if request.id is not None else fallback_id
        if request.verb == "shutdown":
            # JSON-form shutdown (the bare verb never reaches here): an
            # acknowledged, correlatable session end.
            return {"id": request_id, "status": 0, "shutdown": True}
        if request.verb == "metrics":
            GLOBAL_METRICS.inc("daemon.requests.metrics")
            return metrics_reply(request_id, GLOBAL_METRICS)
        reply = execute_check(request, request_id, self.cache, self.jobs)
        if "error" in reply:
            self.stats.errors += 1
            GLOBAL_METRICS.inc(f"daemon.requests.status.{reply['status']}")
            return reply
        GLOBAL_METRICS.inc(f"daemon.requests.status.{reply['status']}")
        stats = reply.get("stats")
        if stats is not None:
            self.stats.cache_hits += stats["cache_hits"]
            self.stats.cache_misses += stats["cache_misses"]
            self.stats.check_s += stats["check_ms"] / 1000.0
            self.stats.total_s += stats["total_ms"] / 1000.0
        return reply

    def _send(self, payload: dict) -> None:
        self.stdout.write(json.dumps(payload) + "\n")
        self.stdout.flush()


def run_daemon(argv: list[str]) -> int:
    """Entry for ``pylclint --daemon [--cache-dir D] [--jobs N] [--no-cache]``."""
    cache_dir: str | None = DEFAULT_CACHE_DIR
    jobs = 1
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--cache-dir", "-cache-dir"):
            i += 1
            if i >= len(argv):
                print("pylclint: --cache-dir requires a directory",
                      file=sys.stderr)
                return 2
            cache_dir = argv[i]
        elif arg.startswith("--cache-dir="):
            cache_dir = arg.split("=", 1)[1]
        elif arg in ("--no-cache", "-no-cache"):
            cache_dir = None
        elif arg in ("--jobs", "-jobs", "-j"):
            i += 1
            if i >= len(argv):
                print("pylclint: --jobs requires a count", file=sys.stderr)
                return 2
            jobs = _parse_jobs(argv[i])
        elif arg.startswith("--jobs="):
            jobs = _parse_jobs(arg.split("=", 1)[1])
        else:
            print(f"pylclint: unknown daemon option {arg!r}", file=sys.stderr)
            return 2
        i += 1
    return DaemonServer(cache_dir=cache_dir, jobs=jobs).serve()


def _parse_jobs(value: str) -> int:
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def main(argv: list[str] | None = None) -> int:
    return run_daemon(list(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
