"""The shared cache service: fingerprint-keyed results over a socket.

Independent checker processes — parallel CI shards, developers on the
same tree, repeat runs with fresh local caches — all compute the same
content fingerprints (:mod:`.fingerprint`), so one process's cold check
can warm everyone else's. This module turns a :class:`.cache.ResultCache`
directory into a network service:

* the **server** (``python -m repro.incremental.cacheserver``) is a
  small asyncio JSON-line server, reusing the checking service's
  bounded line framing and address grammar
  (:class:`repro.service.server.LineReader`,
  :func:`repro.service.server.parse_addr`) over TCP-on-localhost or a
  UNIX socket;
* the **client** (:class:`CacheClient`, wired in with
  ``pylclint --cache-server ADDR``) is consulted by the engine on every
  *local* cache miss, for both check results and unit memos. Serving
  memos is what makes a remote hit cheap: a result alone still requires
  preprocessing and parsing to compute the fingerprint, while a memo
  hit skips the frontend entirely — a fresh local cache backed by a
  warm server checks at near-warm speed.

Failure philosophy matches the rest of the cache layer: the service is
an accelerator, never a dependency. A dead server, a garbled reply, or
a timeout turns every remaining probe into a miss — the client disables
itself after the first error, records one note, and the run completes
locally with identical output.

Wire schema (one JSON object per line, one reply per request)::

    → {"op": "ping"}
    ← {"ok": true, "pong": true}
    → {"op": "get", "kind": "result" | "memo", "key": "<hex>"}
    ← {"ok": true, "hit": true, "payload": {...}} | {"ok": true, "hit": false}
    → {"op": "put", "kind": "result" | "memo", "key": "<hex>", "payload": {...}}
    ← {"ok": true, "stored": true}
    → {"op": "stats"}
    ← {"ok": true, "counters": {...}, "cache": "<root>"}

Result payloads are the cache's own serialized form (``messages`` +
``suppressed``); memo payloads carry the pickled interface slice
base64-encoded (JSON transport). Malformed requests get
``{"ok": false, "error": ...}`` and the connection stays up.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
import os
import signal
import socket
import sys
import threading

from ..messages.message import Message
from ..obs.metrics import GLOBAL_METRICS
from ..service.server import LineReader, parse_addr
from .cache import DEFAULT_CACHE_DIR, ResultCache, UnitMemo

#: Line cap for cache traffic. Memo payloads carry a base64 pickled
#: interface slice, so the bound is far above the checking protocol's
#: request cap; it exists to keep a runaway client's cost bounded, not
#: to police well-behaved payload sizes.
CACHE_LINE_MAX_BYTES = 32 << 20

#: Client-side socket timeout: a probe must never stall a check longer
#: than this before the client declares the server unavailable.
CLIENT_TIMEOUT_S = 10.0


def _encode_memo(memo: UnitMemo) -> dict:
    return {
        "token_digest": memo.token_digest,
        "iface_digest": memo.iface_digest,
        "iface_pickle": base64.b64encode(memo.iface_pickle).decode("ascii"),
        "includes": [[name, sha] for name, sha in memo.includes],
        "enum_consts": dict(memo.enum_consts),
        "functions": memo.functions,
    }


def _decode_memo(payload) -> UnitMemo | None:
    """Payload dict → :class:`UnitMemo`; ``None`` when malformed (the
    same tolerance every cache load path has)."""
    if not isinstance(payload, dict):
        return None
    try:
        return UnitMemo(
            token_digest=str(payload["token_digest"]),
            iface_digest=str(payload["iface_digest"]),
            iface_pickle=base64.b64decode(
                payload["iface_pickle"], validate=True
            ),
            includes=[(str(n), str(s)) for n, s in payload["includes"]],
            enum_consts={
                str(k): int(v) for k, v in payload["enum_consts"].items()
            },
            functions=int(payload["functions"]),
        )
    except (KeyError, TypeError, ValueError, binascii.Error):
        return None


class CacheServer:
    """Serve one cache directory's results and memos to many checkers.

    All cache access happens on the event loop thread: entry reads and
    writes are small indexed SQLite statements, each ``put`` its own
    commit. The cache's SQLite store keeps writers in *other*
    processes safe as well.
    """

    def __init__(
        self,
        cache_dir: str = DEFAULT_CACHE_DIR,
        host: str = "127.0.0.1",
        port: int | None = 0,
        unix_path: str | None = None,
        metrics=None,
    ) -> None:
        self.cache = ResultCache(cache_dir)
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        self.bound_addr: str | None = None
        self._servers: list = []
        self._stopped: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            self._servers.append(server)
            sock = server.sockets[0].getsockname()
            self.bound_addr = f"{sock[0]}:{sock[1]}"
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path
            )
            self._servers.append(server)

    async def run(self, announce=None) -> int:
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.shutdown())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        if announce is not None:
            announce(self.describe())
        assert self._stopped is not None
        await self._stopped.wait()
        return 0

    def describe(self) -> dict:
        payload = {
            "ready": True,
            "cacheserver": True,
            "pid": os.getpid(),
            "cache": self.cache.root,
        }
        if self.bound_addr is not None:
            payload["addr"] = self.bound_addr
        if self.unix_path is not None:
            payload["unix"] = self.unix_path
        return payload

    async def shutdown(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        if self._stopped is not None:
            self._stopped.set()

    # -- connections ---------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            writer.write(
                (json.dumps(self.describe()) + "\n").encode("utf-8")
            )
            await writer.drain()
            lines = LineReader(reader, max_bytes=CACHE_LINE_MAX_BYTES)
            while True:
                kind, payload = await lines.next_line()
                if kind == "eof":
                    break
                if kind == "oversized":
                    _, size = payload
                    self.metrics.inc("cacheserver.errors")
                    reply = {
                        "ok": False,
                        "error": f"request of {size} bytes exceeds the "
                        f"{CACHE_LINE_MAX_BYTES}-byte line cap",
                    }
                elif not payload.strip():
                    continue
                else:
                    reply = self._handle_request(payload)
                writer.write((json.dumps(reply) + "\n").encode("utf-8"))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # a client reset is an ordinary disconnect
        finally:
            try:
                writer.close()
            except Exception:
                pass

    def _handle_request(self, line: str) -> dict:
        self.metrics.inc("cacheserver.requests")
        try:
            request = json.loads(line)
        except ValueError:
            self.metrics.inc("cacheserver.errors")
            return {"ok": False, "error": "request is not valid JSON"}
        if not isinstance(request, dict):
            self.metrics.inc("cacheserver.errors")
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "stats":
                return {
                    "ok": True,
                    "cache": self.cache.root,
                    "counters": {
                        name: self.metrics.count(name)
                        for name in (
                            "cacheserver.requests",
                            "cacheserver.hits",
                            "cacheserver.misses",
                            "cacheserver.puts",
                            "cacheserver.errors",
                        )
                    },
                }
            if op == "get":
                return self._handle_get(request)
            if op == "put":
                return self._handle_put(request)
        except ValueError as exc:
            # A non-hex key raises from the cache's key validation.
            self.metrics.inc("cacheserver.errors")
            return {"ok": False, "error": str(exc)}
        self.metrics.inc("cacheserver.errors")
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _handle_get(self, request: dict) -> dict:
        kind = request.get("kind")
        key = request.get("key")
        if kind not in ("result", "memo") or not isinstance(key, str):
            self.metrics.inc("cacheserver.errors")
            return {"ok": False, "error": "get needs kind result|memo + key"}
        if kind == "result":
            found = self.cache.get_result(key)
            if found is not None:
                messages, suppressed = found
                self.metrics.inc("cacheserver.hits")
                return {
                    "ok": True,
                    "hit": True,
                    "payload": {
                        "messages": [m.to_dict() for m in messages],
                        "suppressed": suppressed,
                    },
                }
        else:
            memo = self.cache.get_unit_memo(key)
            if memo is not None:
                self.metrics.inc("cacheserver.hits")
                return {"ok": True, "hit": True, "payload": _encode_memo(memo)}
        self.metrics.inc("cacheserver.misses")
        return {"ok": True, "hit": False}

    def _handle_put(self, request: dict) -> dict:
        kind = request.get("kind")
        key = request.get("key")
        payload = request.get("payload")
        if kind not in ("result", "memo") or not isinstance(key, str):
            self.metrics.inc("cacheserver.errors")
            return {"ok": False, "error": "put needs kind result|memo + key"}
        if kind == "result":
            decoded = ResultCache._decode_result(payload)
            if decoded is None:
                self.metrics.inc("cacheserver.errors")
                return {"ok": False, "error": "malformed result payload"}
            self.cache.put_result(key, decoded[0], decoded[1])
        else:
            memo = _decode_memo(payload)
            if memo is None:
                self.metrics.inc("cacheserver.errors")
                return {"ok": False, "error": "malformed memo payload"}
            self.cache.put_unit_memo(key, memo)
        self.metrics.inc("cacheserver.puts")
        return {"ok": True, "stored": True}


class CacheServerThread:
    """Run a :class:`CacheServer` on a background thread (tests, the
    scaling benchmark, and any process that wants to both serve and
    check). ``addr`` is ready — in ``--cache-server`` syntax — as soon
    as the constructor returns."""

    def __init__(self, cache_dir: str, unix_path: str | None = None,
                 metrics=None) -> None:
        self.server = CacheServer(
            cache_dir=cache_dir,
            port=None if unix_path is not None else 0,
            unix_path=unix_path,
            metrics=metrics,
        )
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="pylclint-cacheserver", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):  # pragma: no cover
            raise RuntimeError("cache server thread did not start")
        self.addr = (
            f"unix:{unix_path}" if unix_path is not None
            else self.server.bound_addr
        )

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def serve():
            await self.server.start()
            self._ready.set()
            assert self.server._stopped is not None
            await self.server._stopped.wait()

        try:
            self._loop.run_until_complete(serve())
        finally:
            self._loop.close()

    def close(self) -> None:
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self._loop
        )
        self._thread.join(timeout=10.0)


class CacheClient:
    """Synchronous client used by the engine on local cache misses.

    Every method degrades to a miss / no-op on failure; the first
    transport or protocol error marks the client dead so one unreachable
    server costs one connect attempt, not one per unit. ``drain_notes``
    hands the engine the human-readable reason for the run's notes.
    """

    def __init__(self, addr: str, metrics=None,
                 timeout: float = CLIENT_TIMEOUT_S) -> None:
        self.addr = addr
        self.host, self.port, self.unix_path = parse_addr(addr)
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        self.timeout = timeout
        self.dead = False
        self.notes: list[str] = []
        self._sock: socket.socket | None = None
        self._file = None

    # -- transport -----------------------------------------------------------

    def _connect(self) -> None:
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.unix_path)
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        self._sock = sock
        self._file = sock.makefile("rwb")
        ready = json.loads(self._file.readline().decode("utf-8"))
        if not ready.get("ready"):
            raise ConnectionError("cache server did not announce ready")

    def _request(self, payload: dict) -> dict | None:
        if self.dead:
            return None
        try:
            if self._file is None:
                self._connect()
            assert self._file is not None
            self._file.write((json.dumps(payload) + "\n").encode("utf-8"))
            self._file.flush()
            line = self._file.readline()
            if not line:
                raise ConnectionError("cache server closed the connection")
            reply = json.loads(line.decode("utf-8"))
            if not isinstance(reply, dict) or not reply.get("ok"):
                raise ValueError(
                    str((reply or {}).get("error", "malformed reply"))
                    if isinstance(reply, dict)
                    else "malformed reply"
                )
            return reply
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._fail(exc)
            return None

    def _fail(self, exc: Exception) -> None:
        self.dead = True
        self.metrics.inc("cacheserver.client.errors")
        self.notes.append(
            f"cache server {self.addr} unavailable "
            f"({type(exc).__name__}: {exc}); continuing without it"
        )
        self.close()

    def close(self) -> None:
        for closer in (self._file, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._file = None
        self._sock = None

    def drain_notes(self) -> list[str]:
        out = self.notes
        self.notes = []
        return out

    # -- operations ----------------------------------------------------------

    def ping(self) -> bool:
        reply = self._request({"op": "ping"})
        return bool(reply and reply.get("pong"))

    def stats(self) -> dict | None:
        return self._request({"op": "stats"})

    def get_result(self, fingerprint: str):
        """``(messages, suppressed)`` on a remote hit, else ``None``."""
        reply = self._request(
            {"op": "get", "kind": "result", "key": fingerprint}
        )
        if reply is None or not reply.get("hit"):
            self.metrics.inc("cacheserver.client.misses")
            return None
        decoded = ResultCache._decode_result(reply.get("payload"))
        if decoded is None:
            self.metrics.inc("cacheserver.client.misses")
            return None
        self.metrics.inc("cacheserver.client.hits")
        return decoded

    def put_result(
        self, fingerprint: str, messages: list[Message], suppressed: int
    ) -> None:
        reply = self._request({
            "op": "put",
            "kind": "result",
            "key": fingerprint,
            "payload": {
                "messages": [m.to_dict() for m in messages],
                "suppressed": suppressed,
            },
        })
        if reply is not None:
            self.metrics.inc("cacheserver.client.puts")

    def get_memo(self, key: str) -> UnitMemo | None:
        reply = self._request({"op": "get", "kind": "memo", "key": key})
        if reply is None or not reply.get("hit"):
            self.metrics.inc("cacheserver.client.misses")
            return None
        memo = _decode_memo(reply.get("payload"))
        if memo is None:
            self.metrics.inc("cacheserver.client.misses")
            return None
        self.metrics.inc("cacheserver.client.hits")
        return memo

    def put_memo(self, key: str, memo: UnitMemo) -> None:
        reply = self._request({
            "op": "put",
            "kind": "memo",
            "key": key,
            "payload": _encode_memo(memo),
        })
        if reply is not None:
            self.metrics.inc("cacheserver.client.puts")


# -- CLI entry ---------------------------------------------------------------


def run_cache_server(argv: list[str]) -> int:
    """Entry for ``python -m repro.incremental.cacheserver [options]``."""
    cache_dir = DEFAULT_CACHE_DIR
    host: str = "127.0.0.1"
    port: int | None = None
    unix_path: str | None = None

    def take_value(i: int, name: str) -> str:
        if i >= len(argv):
            raise ValueError(f"{name} requires a value")
        return argv[i]

    try:
        i = 0
        while i < len(argv):
            arg = argv[i]
            if arg.startswith("--") and "=" in arg:
                name, _, value = arg.partition("=")
                argv[i:i + 1] = [name, value]
                continue
            if arg in ("--cache-dir", "-cache-dir"):
                i += 1
                cache_dir = take_value(i, "--cache-dir")
            elif arg in ("--addr", "-addr"):
                i += 1
                parsed_host, parsed_port, parsed_unix = parse_addr(
                    take_value(i, "--addr")
                )
                if parsed_unix is not None:
                    unix_path = parsed_unix
                else:
                    host, port = parsed_host, parsed_port
            else:
                print(
                    f"pylclint-cacheserver: unknown option {arg!r}",
                    file=sys.stderr,
                )
                return 2
            i += 1
    except ValueError as exc:
        print(f"pylclint-cacheserver: {exc}", file=sys.stderr)
        return 2

    if port is None and unix_path is None:
        port = 0  # default: TCP on localhost, kernel-assigned port

    server = CacheServer(
        cache_dir=cache_dir, host=host, port=port, unix_path=unix_path
    )

    def announce(payload: dict) -> None:
        print(json.dumps(payload), flush=True)

    try:
        return asyncio.run(server.run(announce=announce))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        return 0


def main(argv: list[str] | None = None) -> int:
    return run_cache_server(list(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
