"""Incremental, parallel checking with a persistent analysis cache.

The paper's performance story — checking "fast enough to run as part of
every build" — rests on modular, per-unit analysis. This package turns
that modularity into an engine:

* :mod:`repro.incremental.fingerprint` — content fingerprints over the
  preprocessed token stream, flags, prelude version, and program
  interface;
* :mod:`repro.incremental.cache` — the corruption-tolerant on-disk
  result cache: one SQLite database, ``.pylclint-cache/cache.db``;
* :mod:`repro.incremental.engine` — the :class:`IncrementalChecker`
  orchestrating memo lookups, cache hits, and (re)checking;
* :mod:`repro.incremental.shard` — partitioning units into worker
  shards by interface-dependency cluster, size, or round-robin;
* :mod:`repro.incremental.parallel` — the sharded scheduler fanning
  per-unit checks over a fork pool with work-stealing;
* :mod:`repro.incremental.cacheserver` — the shared cache service
  (``--cache-server``) letting independent workers, machines, and CI
  runs trade fingerprint-keyed results and unit memos;
* :mod:`repro.incremental.server` — the ``pylclint --daemon`` batch
  driver answering repeated requests from one warm process.

The re-exported names load on first use (see :mod:`repro._lazy`): a warm
one-shot check imports the cache and the engine, never the pool, the
cache service, or asyncio.
"""

from .._lazy import lazy_exports

__all__ = [
    "CacheClient",
    "CacheServer",
    "CacheServerThread",
    "CheckStats",
    "DaemonServer",
    "DEFAULT_CACHE_DIR",
    "ENGINE_VERSION",
    "IncrementalChecker",
    "ResultCache",
    "Shard",
    "partition_units",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "CacheClient": ".cacheserver",
    "CacheServer": ".cacheserver",
    "CacheServerThread": ".cacheserver",
    "CheckStats": ".engine",
    "DaemonServer": ".server",
    "DEFAULT_CACHE_DIR": ".cache",
    "ENGINE_VERSION": ".fingerprint",
    "IncrementalChecker": ".engine",
    "ResultCache": ".cache",
    "Shard": ".shard",
    "partition_units": ".shard",
})
