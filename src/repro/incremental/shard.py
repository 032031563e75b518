"""Shard partitioning for the distributed checking scheduler.

A *shard* is a batch of translation units dispatched to one worker as a
single task: the worker pool's frontend round (see :mod:`.parallel`)
hands out one shard at a time. Batching amortizes the per-task IPC
cost.

Three strategies, selectable with ``--shard-strategy``:

* ``interface`` (default) — group units by their cluster key, then
  place whole clusters onto shards with the LPT greedy rule (heaviest
  cluster first, onto the currently lightest shard). Clusters are never
  split, so two units with the same key always land together. The pool
  partitions units before their frontend ran, when no interface digest
  exists, and passes no keys: every unit is its own cluster, as with
  ``size``.
* ``size`` — ignore clusters; LPT over individual units by weight
  (source length). Best balance, no locality.
* ``round-robin`` — unit *i* goes to shard ``i % n``. The degenerate
  baseline; useful for comparisons and for pathological cluster shapes.

Every strategy returns a **true partition**: each unit index appears in
exactly one shard, shards are non-empty, and the result is a pure
function of its arguments (no hash-order or RNG dependence), so a
sharded run schedules identically across processes and machines.

The scheduler oversplits — more shards than workers, see
:data:`SHARD_OVERSPLIT` — which is what makes work-stealing happen: a
worker that finishes its shard pulls the next queued shard, so one
straggler shard cannot serialize the tail of the run.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Shards per worker. Oversplitting trades a little per-task IPC for
#: work-stealing granularity: with k shards queued per worker, a single
#: straggler costs at most ~1/k of the run tail instead of half of it.
SHARD_OVERSPLIT = 4

#: The selectable strategies, in documentation order.
STRATEGIES = ("interface", "size", "round-robin")


@dataclass(frozen=True)
class Shard:
    """One scheduled batch: positions into the scheduler's unit list."""

    index: int
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def shard_count_for(jobs: int, units: int) -> int:
    """How many shards to cut for *units* units on *jobs* workers."""
    return max(1, min(units, jobs * SHARD_OVERSPLIT))


def partition_units(
    count: int,
    shard_count: int,
    strategy: str = "interface",
    cluster_keys: list[str] | None = None,
    weights: list[int] | None = None,
) -> list[Shard]:
    """Partition unit indices ``0..count-1`` into at most *shard_count*
    shards.

    *cluster_keys* (one per unit) drive the ``interface`` strategy;
    omitted, every unit is its own cluster and ``interface`` degrades
    to ``size``. *weights* (one per unit, e.g. source length) drive
    balance; omitted, every unit weighs 1.

    Raises :class:`ValueError` for an unknown strategy; returns only
    non-empty shards, each index in exactly one of them.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown shard strategy {strategy!r} "
            f"(expected one of {', '.join(STRATEGIES)})"
        )
    if count <= 0:
        return []
    shard_count = max(1, min(shard_count, count))
    if weights is None:
        weights = [1] * count
    if strategy == "round-robin":
        buckets: list[list[int]] = [[] for _ in range(shard_count)]
        for i in range(count):
            buckets[i % shard_count].append(i)
    else:
        if strategy == "interface" and cluster_keys is not None:
            groups: dict[str, list[int]] = {}
            for i, key in enumerate(cluster_keys):
                groups.setdefault(key, []).append(i)
            clusters = list(groups.values())
        else:
            clusters = [[i] for i in range(count)]
        buckets = _lpt_pack(clusters, weights, shard_count)
    shards = [
        Shard(index=n, indices=tuple(bucket))
        for n, bucket in enumerate(b for b in buckets if b)
    ]
    return shards


def _lpt_pack(
    clusters: list[list[int]], weights: list[int], shard_count: int
) -> list[list[int]]:
    """Longest-processing-time greedy: heaviest cluster first, onto the
    lightest shard. Deterministic: ties break by first unit index, and
    units inside a shard keep ascending order (the merge step relies on
    index order only, so any order is output-identical; ascending keeps
    schedules reproducible and logs readable)."""
    def cluster_weight(cluster: list[int]) -> int:
        return sum(weights[i] for i in cluster)

    ordered = sorted(
        clusters, key=lambda c: (-cluster_weight(c), c[0])
    )
    bins: list[list[int]] = [[] for _ in range(shard_count)]
    loads = [0] * shard_count
    for cluster in ordered:
        lightest = min(range(shard_count), key=lambda b: (loads[b], b))
        bins[lightest].extend(cluster)
        loads[lightest] += cluster_weight(cluster)
    for b in bins:
        b.sort()
    return bins


def shard_balance(shards: list[Shard], weights: list[int] | None) -> float:
    """Max-shard weight over mean-shard weight (1.0 = perfectly even).

    The scheduler publishes this as the ``engine.shard.balance`` gauge;
    a value far above ~1.5 means one shard dominates the run tail and
    the strategy (or the oversplit factor) is mismatched to the corpus.
    """
    if not shards:
        return 1.0
    if weights is None:
        loads = [float(len(s)) for s in shards]
    else:
        loads = [float(sum(weights[i] for i in s.indices)) for s in shards]
    mean = sum(loads) / len(loads)
    if mean <= 0:
        return 1.0
    return max(loads) / mean
