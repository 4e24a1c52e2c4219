"""The sharded, content-addressed verdict store behind the verify daemon.

One :class:`repro.provers.cache.SequentCache` protects its whole LRU with a
single lock and writes every disk entry into one directory — fine inside one
``prove_all`` call, a bottleneck (and a directory with hundreds of thousands
of files) for a long-lived service answering many concurrent clients.

:class:`ShardedVerdictStore` splits the key space into ``shards`` independent
:class:`SequentCache` tiers.  A verdict's shard is chosen by its sequent's
structural digest (:meth:`repro.vcgen.sequent.Sequent.digest`), so the store
is *content-addressed*: logically identical obligations — from different
methods, classes, clients, or server processes — land in the same shard and
hit the same entry.  Each shard has

* its own lock (lookups/stores on different shards never contend),
* its own LRU memory tier (a hot class cannot evict the whole store), and
* its own disk directory (``<root>/shard-00 .. shard-NN``).

Concurrent multi-process safety comes from the disk tier's write protocol:
entries are staged under a unique per-writer temp name and published with an
atomic ``os.replace`` (see :meth:`SequentCache._disk_write`), and a reader
that ever does catch a torn entry treats it as a miss.  Several daemon
processes may therefore share one store root.

Long-lived deployments bound the disk tier with ``max_disk_entries`` /
``max_disk_age``: :meth:`ShardedVerdictStore.compact` evicts oldest-first
per shard (the entry cap is split evenly across shards) and sweeps stale
staging files, and the daemon runs it at startup and periodically (see
``python -m repro.server --store-max-entries/--store-max-age``).  Eviction
is unlink-of-published-entries, so it is safe while other daemons are
reading/writing the same root — an evicted verdict re-proves, it never
tears.

The store quacks like a :class:`SequentCache` (``lookup`` / ``store`` /
``stats`` / ``ordering`` / ``clear`` / ``len``), so it can be passed anywhere
a cache is accepted — in particular as the ``cache=`` of the dispatchers the
daemon's batch service runs.  Like a cache it owns one learned
:class:`repro.provers.ordering.ProverOrdering` for all its shards, persisted
as ``<root>/ordering.json`` when the store is disk-backed, so a daemon's
ranking table survives restarts next to the verdicts it ranks.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional, Union

from ..provers.base import ProverAnswer
from ..provers.cache import CachedAnswer, CacheStats, SequentCache
from ..provers.ordering import DEFAULT_FILENAME as ORDERING_FILENAME
from ..provers.ordering import ProverOrdering
from ..vcgen.sequent import Sequent

#: Default shard count: enough to spread lock contention and directory sizes
#: without scattering a small store across hundreds of directories.
DEFAULT_SHARDS = 16


class ShardedVerdictStore:
    """N independent :class:`SequentCache` shards keyed by sequent digest."""

    def __init__(
        self,
        root_dir: Optional[Union[str, Path]] = None,
        shards: int = DEFAULT_SHARDS,
        max_entries: int = 65536,
        cache_timeouts: bool = True,
        max_disk_entries: Optional[int] = None,
        max_disk_age: Optional[float] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.root_dir = Path(root_dir) if root_dir is not None else None
        #: Disk-tier lifecycle caps enforced by :meth:`compact` (None = never
        #: evict): total published entries across shards, and max entry age
        #: in seconds.
        self.max_disk_entries = max_disk_entries
        self.max_disk_age = max_disk_age
        #: Cumulative compaction counters (surfaced by the daemon's stats op).
        self.compactions = 0
        self.evicted_entries = 0
        per_shard = max(1, max_entries // shards)
        self._shards = tuple(
            SequentCache(
                max_entries=per_shard,
                cache_dir=(
                    self.root_dir / f"shard-{index:02x}"
                    if self.root_dir is not None
                    else None
                ),
                cache_timeouts=cache_timeouts,
            )
            for index in range(shards)
        )
        #: One learned prover ordering for the whole store (not per shard).
        self.ordering = ProverOrdering(
            path=str(self.root_dir / ORDERING_FILENAME)
            if self.root_dir is not None
            else None
        )

    # -- sharding -------------------------------------------------------------

    @property
    def shards(self) -> int:
        return len(self._shards)

    def shard_of(self, sequent: Sequent) -> int:
        """The shard index of a sequent: a digest-prefix hash, so the mapping
        is stable across processes and server restarts."""
        return int(sequent.digest()[:8], 16) % len(self._shards)

    def _shard(self, sequent: Sequent) -> SequentCache:
        return self._shards[self.shard_of(sequent)]

    def shard_caches(self) -> Iterator[SequentCache]:
        """The underlying per-shard caches (instrumentation/tests)."""
        return iter(self._shards)

    # -- the SequentCache interface -------------------------------------------

    def lookup(
        self, sequent: Sequent, prover_name: str, options_signature: str = ""
    ) -> Optional[CachedAnswer]:
        return self._shard(sequent).lookup(sequent, prover_name, options_signature)

    def store(
        self,
        sequent: Sequent,
        prover_name: str,
        answer: ProverAnswer,
        options_signature: str = "",
    ) -> bool:
        return self._shard(sequent).store(sequent, prover_name, answer, options_signature)

    @property
    def stats(self) -> CacheStats:
        """Aggregate hit/miss/store counters across all shards."""
        merged = CacheStats()
        for shard in self._shards:
            merged.merge(shard.stats)
        return merged

    def clear(self, disk: bool = False) -> None:
        for shard in self._shards:
            shard.clear(disk=disk)

    # -- lifecycle ------------------------------------------------------------

    def compact(
        self,
        max_entries: Optional[int] = None,
        max_age: Optional[float] = None,
    ) -> int:
        """Evict disk entries beyond the caps; returns how many were evicted.

        The entry cap (the call's, falling back to ``max_disk_entries``) is
        split evenly across shards — digests hash uniformly, so a per-shard
        cap keeps the global bound within one shard's worth of slack while
        every shard compacts independently (no cross-shard lock).  A no-op
        (returning 0 without counting a compaction) when the store is
        memory-only or no cap applies.
        """
        max_entries = max_entries if max_entries is not None else self.max_disk_entries
        max_age = max_age if max_age is not None else self.max_disk_age
        if self.root_dir is None or (max_entries is None and max_age is None):
            return 0
        per_shard = (
            max(1, max_entries // len(self._shards)) if max_entries is not None else None
        )
        evicted = sum(shard.compact(per_shard, max_age) for shard in self._shards)
        self.compactions += 1
        self.evicted_entries += evicted
        return evicted

    def disk_entries(self) -> int:
        """Published disk entries across all shards (0 when memory-only)."""
        return sum(shard.disk_entries() for shard in self._shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.root_dir) if self.root_dir is not None else "memory"
        return f"<ShardedVerdictStore shards={self.shards} entries={len(self)} at {where}>"
