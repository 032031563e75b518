"""Fault containment: crash bundles and fatal-error records.

The checker is meant to run over large, imperfect batches of real-world
code, so a failure in one translation unit must never take down the
run (the paper's tool keeps going past bad declarations; a production
service has to keep going past anything). Two kinds of per-unit failure
are contained:

* **frontend fatals** — a :class:`LexError`/:class:`PreprocessError`
  (or a ``ParseError`` that escaped panic-mode recovery) makes the whole
  unit unparseable. The unit is replaced by an empty translation unit
  carrying a :class:`FatalError`, which surfaces as one ``parse-error``
  message; every other unit in the batch is still checked.
* **internal errors** — an unexpected exception inside preprocessing,
  parsing, or per-function analysis. The fault is reported as an
  ``internal-error`` message and the full context (phase, traceback,
  input digest) is written as a *crash bundle* under
  ``<cache-dir>/crashes/`` (default ``.pylclint-cache/crashes/``) so the
  failure can be reproduced and fixed offline.

Either way the affected unit is *degraded*: its result is never stored
in the incremental result cache, so it is re-checked from scratch on
every run until the input (or the checker) is fixed.

Bundle writing is best-effort and must never raise — a crash report
that cannot be written is dropped, not a second crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..frontend.source import Location
from ..obs.metrics import GLOBAL_METRICS

#: Where crash bundles go when no cache directory is configured.
DEFAULT_CRASH_DIR = os.path.join(".pylclint-cache", "crashes")

#: Bundles beyond this count are pruned oldest-first so a crashing
#: checker looping over a big tree cannot fill the disk.
MAX_CRASH_BUNDLES = 200

#: Schema stamp inside each bundle, for tooling that reads them.
CRASH_BUNDLE_FORMAT = 1


class RequestCancelled(BaseException):
    """The active :class:`CancelScope` asked this request to stop.

    Deliberately a ``BaseException``: the containment layers catch
    ``Exception`` to keep a batch alive past a buggy unit, but a
    cancelled request must *not* be contained — it has to unwind all the
    way out to whoever owns the deadline (the checking service), like
    ``KeyboardInterrupt`` does.
    """


class CancelScope:
    """A cooperative cancellation token for one checking request.

    The service arms a scope per request (deadline expiry, client
    disconnect, drain); the engine calls :func:`cancel_checkpoint`
    between translation units. Cancellation is therefore cooperative
    and unit-granular: a request stops at the next unit boundary, never
    mid-unit, so partial results are never written.

    Thread-safe by construction (a ``threading.Event``), because the
    service runs the synchronous engine on worker threads while the
    event loop owns the deadline timers.
    """

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: str = "cancelled"

    def cancel(self, reason: str = "cancelled") -> None:
        self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def checkpoint(self) -> None:
        if self._event.is_set():
            GLOBAL_METRICS.inc("faults.cancelled_requests")
            raise RequestCancelled(self.reason)


_SCOPES = threading.local()


@contextmanager
def cancel_scope(scope: CancelScope):
    """Install *scope* as this thread's active cancellation token."""
    previous = getattr(_SCOPES, "active", None)
    _SCOPES.active = scope
    try:
        yield scope
    finally:
        _SCOPES.active = previous


def active_cancel_scope() -> CancelScope | None:
    return getattr(_SCOPES, "active", None)


def cancel_checkpoint() -> None:
    """Raise :class:`RequestCancelled` if this thread's request was
    cancelled; a no-op (one thread-local read) otherwise. The engine
    calls this at unit boundaries."""
    scope = getattr(_SCOPES, "active", None)
    if scope is not None:
        scope.checkpoint()


@dataclass(frozen=True)
class FatalError:
    """Why a whole translation unit could not be checked normally.

    ``kind`` is ``"frontend"`` for malformed input (lex/preprocess/parse
    gave up on the file) and ``"internal"`` for a contained checker bug.
    """

    kind: str  # "frontend" | "internal"
    location: Location
    description: str


def describe_exception(exc: BaseException) -> str:
    """One-line ``TypeName: message`` rendering of an exception."""
    text = str(exc).strip()
    name = type(exc).__name__
    return f"{name}: {text}" if text else name


def strip_location_prefix(exc: BaseException) -> str:
    """Frontend errors stringify as ``file:line: message``; return the
    bare message (the location travels separately)."""
    text = str(exc)
    location = getattr(exc, "location", None)
    prefix = f"{location}: " if location is not None else None
    if prefix and text.startswith(prefix):
        return text[len(prefix):]
    return text


def frontend_fatal(exc: BaseException, unit_name: str) -> FatalError:
    """Build the :class:`FatalError` for a lex/preprocess/parse giveup."""
    location = getattr(exc, "location", None)
    if not isinstance(location, Location):
        location = Location(unit_name, 1, 0)
    return FatalError(
        kind="frontend",
        location=location,
        description=strip_location_prefix(exc),
    )


def internal_fatal(
    exc: BaseException, unit_name: str, phase: str
) -> FatalError:
    return FatalError(
        kind="internal",
        location=Location(unit_name, 1, 0),
        description=(
            f"Internal error while {phase} this file: "
            f"{describe_exception(exc)} (file skipped)"
        ),
    )


def write_crash_bundle(
    crash_dir: str | None,
    *,
    phase: str,
    unit: str,
    exc: BaseException,
    function: str | None = None,
    source_text: str | None = None,
) -> str | None:
    """Persist a reproducible crash report; returns its path.

    Returns ``None`` when the bundle could not be written (read-only
    filesystem, bad directory, ...): crash reporting is best-effort and
    must never turn one contained fault into a fatal one.
    """
    import traceback

    directory = crash_dir or DEFAULT_CRASH_DIR
    digest = (
        hashlib.sha256(source_text.encode("utf-8", "replace")).hexdigest()
        if source_text is not None
        else None
    )
    payload = {
        "format": CRASH_BUNDLE_FORMAT,
        "timestamp": time.time(),
        "phase": phase,
        "unit": unit,
        "function": function,
        "exception": describe_exception(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        "source_digest": digest,
        "python": sys.version,
        "pid": os.getpid(),
    }
    try:
        os.makedirs(directory, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        tag = hashlib.sha256(
            f"{unit}\0{function}\0{payload['traceback']}".encode(
                "utf-8", "replace"
            )
        ).hexdigest()[:12]
        path = os.path.join(directory, f"crash-{stamp}-{tag}.json")
        tmp = path + f".tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        _prune_bundles(directory)
        GLOBAL_METRICS.inc("crashes.bundles.written")
        return path
    except OSError:
        GLOBAL_METRICS.inc("crashes.bundles.failed")
        return None


def _prune_bundles(directory: str) -> None:
    """Drop the oldest bundles once the cap is exceeded (best-effort)."""
    try:
        names = sorted(
            n for n in os.listdir(directory)
            if n.startswith("crash-") and n.endswith(".json")
        )
    except OSError:
        return
    for name in names[: max(0, len(names) - MAX_CRASH_BUNDLES)]:
        try:
            os.unlink(os.path.join(directory, name))
        except OSError:
            pass
