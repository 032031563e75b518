"""Trace sinks: where finished spans go.

* :class:`JsonLinesSink` — one JSON object per line, streamed as spans
  finish (crash-safe: whatever was traced before a crash is on disk);
* :class:`ChromeTraceSink` — buffers events and writes one Chrome
  trace-event JSON file on close, loadable in ``about:tracing`` or
  Perfetto;
* :class:`MemorySink` — keeps events in a list, for tests.

A sink only needs ``emit(event: dict)`` and ``close()``.
"""

from __future__ import annotations

import json
import os


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


class MemorySink:
    def __init__(self) -> None:
        self.events: list[dict] = []
        self.closed = False

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        self.closed = True


class JsonLinesSink:
    def __init__(self, path: str) -> None:
        _ensure_parent(path)
        self._handle = open(path, "w", encoding="utf-8")

    def emit(self, event: dict) -> None:
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class ChromeTraceSink:
    """Chrome trace-event format: complete ("X") events, microseconds."""

    def __init__(self, path: str) -> None:
        _ensure_parent(path)
        self.path = path
        self._events: list[dict] = []

    def emit(self, event: dict) -> None:
        out = {
            "name": event["name"],
            "cat": event.get("cat", "phase"),
            "ph": "X",
            "ts": event["ts_us"],
            "dur": event["dur_us"],
            "pid": 1,
        }
        args = dict(event.get("args") or {})
        # Spans a pool worker measured go on that worker's own track.
        out["tid"] = args.get("worker", 1)
        args["span_id"] = event["id"]
        if event.get("parent") is not None:
            args["parent_span_id"] = event["parent"]
        out["args"] = args
        self._events.append(out)

    def close(self) -> None:
        # ts-sorted so viewers reconstruct nesting from containment.
        self._events.sort(key=lambda e: (e["ts"], -e["dur"]))
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self._events}, handle)
            handle.write("\n")
        self._events = []
