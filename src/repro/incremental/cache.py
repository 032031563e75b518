"""The persistent analysis cache (default directory: ``.pylclint-cache/``).

Layout::

    <root>/cache.db     SQLite database in WAL mode (+ -wal, -shm files)
    <root>/prelude/     parsed-prelude snapshot (see repro.core.api)
    <root>/crashes/     crash bundles (see repro.core.faults)

``cache.db`` has a one-row ``meta`` table with the cache-format and
engine versions (a mismatch clears the entries in the transaction that
restamps it) and an ``entries`` table keyed by ``(kind, hex key)``. A
``result`` row's ``data`` is a check result as JSON: serialized messages
and the suppressed count, plus, for a result *slot* (keyed without the
program digest), the names its check read and a digest of their values.
A ``memo`` row's ``data`` holds the unit memo's fields as JSON and its
``blob`` the pickled interface slice.

Every load path is corruption-tolerant: a bad cache can cost time, but
never change results or crash the checker. A row that does not decode
is deleted and counted (``dropped`` / ``cache.entries.dropped``), which
the engine surfaces as a run note; a ``cache.db`` SQLite cannot read is
removed and rebuilt, with a note. The puts of a :meth:`ResultCache.batch`
land in one transaction, so an engine run is one commit: one fsync under
WAL with ``synchronous=FULL``. Readers never wait for a writer; writers
in other processes wait on SQLite's busy timeout.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..messages.message import Message
from ..obs.metrics import GLOBAL_METRICS
from .fingerprint import ENGINE_VERSION

DEFAULT_CACHE_DIR = ".pylclint-cache"

#: Format version of the on-disk layout itself (distinct from the engine
#: version, which participates in fingerprints).
CACHE_FORMAT_VERSION = 2

_DB_NAME = "cache.db"

#: What a format-1 (file-per-entry) cache directory held.
_FORMAT_1_LAYOUT = ("meta.json", "units", "results", "lock")

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS meta (format, engine)",
    "CREATE TABLE IF NOT EXISTS entries (kind TEXT, key TEXT, "
    "data TEXT NOT NULL, blob BLOB, PRIMARY KEY (kind, key)) WITHOUT ROWID",
)

_INSERT = "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)"

_HEX = "0123456789abcdef"


@dataclass
class UnitMemo:
    """What we remember about a translation unit between runs."""

    token_digest: str
    iface_digest: str
    iface_pickle: bytes  # pickled (SymbolTable slice, enum_consts)
    includes: list[tuple[str, str]]  # (resolved name, text sha) closure
    enum_consts: dict[str, int] = field(default_factory=dict)
    functions: int = 0  # function definitions the unit's check covers


def _check_key(key: str) -> None:
    # Keys arrive from the network through the cache server. strip()
    # removes hex digits from both ends, so anything left is not hex.
    if not key or key.strip(_HEX):
        raise ValueError(f"cache key is not a hex digest: {key!r}")


def _damaged(exc: sqlite3.DatabaseError) -> bool:
    # sqlite3 raises the bare base class for a corrupt file or one that
    # is not a database; busy, I/O and misuse errors are subclasses.
    return type(exc) is sqlite3.DatabaseError


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path, ignore_errors=True)
    elif os.path.lexists(path):
        try:
            os.unlink(path)
        except OSError:
            pass


def _memo_row(data, blob) -> UnitMemo | None:
    try:
        fields = json.loads(data)
        return UnitMemo(
            str(fields["token_digest"]), str(fields["iface_digest"]),
            bytes(blob), [(str(n), str(s)) for n, s in fields["includes"]],
            {str(k): int(v) for k, v in fields["enum_consts"].items()},
            int(fields["functions"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


def _result_json(messages: list[Message], suppressed: int, **slot) -> str:
    return json.dumps({
        "messages": [m.to_dict() for m in messages],
        "suppressed": suppressed, **slot,
    })


def _result_row(data, blob):
    """``(payload, (messages, suppressed))``, or ``None`` if malformed."""
    try:
        payload = json.loads(data)
    except (TypeError, ValueError):
        return None
    decoded = ResultCache._decode_result(payload)
    return None if decoded is None else (payload, decoded)


class ResultCache:
    """On-disk cache of per-unit memos and check results.

    One instance may be shared by threads (the checking service's
    workers): the connection is used under a lock, and each thread's
    batch is its own. A process forked from the owner must not use it.
    The connection closes when the instance is collected.
    """

    def __init__(self, root: str, metrics=None) -> None:
        self.root = os.path.abspath(root)
        self.notes: list[str] = []
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        # Corrupt/unreadable entries discarded since the last drain; the
        # engine turns a non-zero total into a CheckStats note, so cache
        # corruption is diagnosable instead of silently costing time.
        self.dropped = 0
        self._lock = threading.RLock()
        # Per thread: the rows buffered by an open batch(), or None.
        self._local = threading.local()
        os.makedirs(self.root, exist_ok=True)
        old = [os.path.join(self.root, name) for name in _FORMAT_1_LAYOUT]
        if any(os.path.lexists(path) for path in old):
            self._note_rebuild("has a different version")
            for path in old:
                _remove(path)
        try:
            self._db = self._connect()
        except sqlite3.DatabaseError as exc:
            if not _damaged(exc):
                raise
            self._db = self._rebuild()

    # -- opening / versioning ------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        db = sqlite3.connect(
            os.path.join(self.root, _DB_NAME), timeout=30.0,
            check_same_thread=False,
        )
        try:
            db.execute("PRAGMA journal_mode=WAL")
            db.execute("PRAGMA synchronous=FULL")
            stamp = [(CACHE_FORMAT_VERSION, ENGINE_VERSION)]
            try:
                current = db.execute("SELECT * FROM meta").fetchall()
            except sqlite3.OperationalError:
                current = None  # a new database: no tables yet
            if current != stamp:
                # Re-read inside the write transaction: another process
                # may have stamped the database since.
                db.execute("BEGIN IMMEDIATE")
                for statement in _SCHEMA:
                    db.execute(statement)
                current = db.execute("SELECT * FROM meta").fetchall()
                if current != stamp:
                    if current:
                        self._note_rebuild("has a different version")
                    db.execute("DELETE FROM entries")
                    db.execute("DELETE FROM meta")
                    db.execute("INSERT INTO meta VALUES (?, ?)", stamp[0])
                db.commit()
        except BaseException:
            db.close()
            raise
        return db

    def _rebuild(self) -> sqlite3.Connection:
        self._note_rebuild("is unreadable")
        for suffix in ("", "-wal", "-shm"):
            _remove(os.path.join(self.root, _DB_NAME + suffix))
        return self._connect()

    def _failed(self, exc: sqlite3.DatabaseError) -> None:
        """A busy or failing disk (``OperationalError``) costs only the
        statement that hit it; a damaged file is rebuilt; any other
        error is a bug and raised."""
        if _damaged(exc):
            self._db.close()
            self._db = self._rebuild()
        elif not isinstance(exc, sqlite3.OperationalError):
            raise exc

    def _note_rebuild(self, why: str) -> None:
        self.notes.append(f"cache at {self.root} {why}; rebuilding")
        self.metrics.inc("cache.wipes")

    def drain_dropped(self) -> int:
        """Return and reset the dropped-entry count for this period."""
        with self._lock:
            out, self.dropped = self.dropped, 0
        return out

    # -- rows and batches ----------------------------------------------------

    def _load(self, kind: str, key: str, decode):
        """Decoded entry *kind*/*key*, or ``None`` on a miss. A row that
        does not decode is deleted and counted."""
        _check_key(key)
        pending = getattr(self._local, "pending", None)
        row = pending.get((kind, key)) if pending else None
        if row is None:
            with self._lock:
                try:
                    row = self._db.execute(
                        "SELECT data, blob FROM entries "
                        "WHERE kind = ? AND key = ?", (kind, key),
                    ).fetchone()
                except sqlite3.DatabaseError as exc:
                    self._failed(exc)
                    return None
            if row is None:
                return None
        value = decode(*row)
        if value is None:
            with self._lock:
                self.dropped += 1
            self.metrics.inc("cache.entries.dropped")
            self._write(
                "DELETE FROM entries WHERE kind = ? AND key = ?", [(kind, key)]
            )
        return value

    def _put(self, kind: str, key: str, data: str, blob=None) -> None:
        _check_key(key)
        pending = getattr(self._local, "pending", None)
        if pending is not None:
            pending[(kind, key)] = (data, blob)
        else:
            self._write(_INSERT, [(kind, key, data, blob)])

    def _write(self, sql: str, rows: list[tuple]) -> None:
        """Run *sql* over *rows* in one transaction."""
        with self._lock:
            try:
                with self._db:
                    self._db.executemany(sql, rows)
            except sqlite3.DatabaseError as exc:
                self.metrics.inc("cache.write.failures")
                self._failed(exc)
                return
        self.metrics.inc("cache.commits")
        self.metrics.inc("cache.entries.written", len(rows))

    @contextmanager
    def batch(self):
        """Buffer this thread's puts and write them in one transaction
        when the outermost batch exits (re-entrant)."""
        local = self._local
        if getattr(local, "pending", None) is not None:
            yield self
            return
        local.pending = {}
        try:
            yield self
        finally:
            try:
                self.flush_batch()
            finally:
                local.pending = None

    def flush_batch(self) -> None:
        """Write this thread's buffered puts in one transaction."""
        pending = getattr(self._local, "pending", None)
        if pending:
            self._write(
                _INSERT,
                [(kind, key, *row) for (kind, key), row in pending.items()],
            )
            pending.clear()

    # -- unit memos ----------------------------------------------------------

    def get_unit_memo(self, key: str) -> UnitMemo | None:
        return self._load("memo", key, _memo_row)

    def put_unit_memo(self, key: str, memo: UnitMemo) -> None:
        self._put("memo", key, json.dumps({
            "token_digest": memo.token_digest,
            "iface_digest": memo.iface_digest,
            "includes": list(memo.includes),
            "enum_consts": dict(memo.enum_consts),
            "functions": memo.functions,
        }), memo.iface_pickle)

    # -- check results -------------------------------------------------------

    @staticmethod
    def _decode_result(payload) -> tuple[list[Message], int] | None:
        """Parse a result payload dict; ``None`` when malformed.

        A slot payload (see :meth:`put_slot`) is a result payload plus
        its ``reads`` and ``deps``; those must be well-formed too.
        """
        if not isinstance(payload, dict):
            return None
        try:
            messages = [Message.from_dict(m) for m in payload["messages"]]
            suppressed = int(payload["suppressed"])
        except (KeyError, TypeError, ValueError):
            return None
        if "reads" in payload or "deps" in payload:
            reads = payload.get("reads")
            if (
                not isinstance(reads, list)
                or not all(isinstance(read, str) for read in reads)
                or not isinstance(payload.get("deps"), str)
            ):
                return None
        return messages, suppressed

    def get_result(self, fingerprint: str):
        """Return ``(messages, suppressed)`` or ``None`` on a miss."""
        entry = self._load("result", fingerprint, _result_row)
        return None if entry is None else entry[1]

    def get_slot(self, key: str):
        """Return ``(messages, suppressed, reads, deps)`` stored by
        :meth:`put_slot`, or ``None`` on a miss."""
        entry = self._load("result", key, _result_row)
        if entry is None or "deps" not in entry[0]:
            return None
        payload, (messages, suppressed) = entry
        return messages, suppressed, tuple(payload["reads"]), payload["deps"]

    def put_result(
        self, fingerprint: str, messages: list[Message], suppressed: int
    ) -> None:
        """Store a check result: buffered inside a :meth:`batch`, else
        one immediate commit."""
        self._put("result", fingerprint, _result_json(messages, suppressed))

    def put_slot(
        self, key: str, messages: list[Message], suppressed: int,
        reads: tuple[str, ...], deps: str,
    ) -> None:
        """Store a unit's result slot: a check result together with the
        names the check read from the merged symbol table and one digest
        of their values (see ``entries.EntryDigests``). Slots are result
        rows; only the engine reads them."""
        self._put("result", key, _result_json(
            messages, suppressed, reads=list(reads), deps=deps
        ))

    # -- integrity ------------------------------------------------------------

    def verify_integrity(self) -> dict:
        """Counts for an intactness check: ``corrupt`` adds the problems
        ``PRAGMA quick_check`` reports to the rows the hot path would
        drop, so 0 means every entry would be a hit. The chaos harness
        gates on it after a fault-injected run."""
        report = {"results": 0, "unit_memos": 0, "corrupt": 0}
        with self._lock:
            try:
                problems = self._db.execute("PRAGMA quick_check").fetchall()
                rows = self._db.execute(
                    "SELECT kind, data, blob FROM entries"
                ).fetchall()
            except sqlite3.DatabaseError:
                report["corrupt"] += 1
                return report
        if problems != [("ok",)]:
            report["corrupt"] += len(problems)
        for kind, data, blob in rows:
            if kind == "result" and _result_row(data, blob):
                report["results"] += 1
            elif kind == "memo" and _memo_row(data, blob):
                report["unit_memos"] += 1
            else:
                report["corrupt"] += 1
        return report
