"""The multi-client checking service (``pylclint --serve``).

Layers:

* :mod:`repro.service.protocol` — the line protocol shared by the async
  server and the legacy stdin/stdout daemon shim: request parsing
  (shell line, JSON array, JSON object), request-id recovery from
  malformed input, the reply schema.
* :mod:`repro.service.server` — the stdlib-``asyncio`` server: TCP
  localhost and/or UNIX-socket listeners, per-connection sessions, a
  bounded priority queue with backpressure, per-request deadlines with
  cooperative cancellation, graceful drain on SIGTERM.
* :mod:`repro.service.client` — a small blocking client used by tests,
  the chaos-load harness, and scripts.

The worker threads share one :class:`repro.incremental.cache.ResultCache`;
the cache's SQLite store is safe across threads and processes on its
own, so the service adds no locking of its own.

This ``__init__`` stays import-light on purpose: importing the server
here would load asyncio and the cache for every user of the package.
"""

__all__ = ["protocol", "server", "client"]
