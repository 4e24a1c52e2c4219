"""Normalized-sequent result cache for the prover portfolio.

Verification conditions of different methods of one class — and of the same
method across repeated runs — share a large fraction of their sequents
(class invariants re-established verbatim, recurring null checks, frame
conjuncts).  The cache memoises each prover's verdict per *normalized*
sequent: the key is the structural digest of
:meth:`repro.vcgen.sequent.Sequent.digest`, which alpha-renames the
splitter's fresh variables and the VC generator's havoc incarnations and
sorts the assumption set, so logically identical obligations hit the same
entry regardless of generated-name numbering or assumption order.

Two tiers:

* an in-memory LRU tier (always on) bounded by ``max_entries``;
* an optional on-disk tier (``cache_dir``) holding one JSON file per
  (sequent digest, prover name, prover options) key, so whole-suite
  verification runs can be resumed across processes.

Every cache also owns the :class:`repro.provers.ordering.ProverOrdering`
that the dispatchers using it rank provers with and learn into: the table
lives exactly as long as the verdicts it was learned from, and a disk-backed
cache persists it as ``ordering.json`` in ``cache_dir``.

All verdicts are cacheable, ``TIMEOUT`` included: the cache key includes
the prover's timeout option, so a replayed timeout always refers to the same
time budget — and since timeouts are *enforced* inside the engines, a cached
``TIMEOUT`` really means "this budget was insufficient", not "the machine
happened to be slow past an unenforced limit".  To keep that reading true,
the dispatchers never store a ``TIMEOUT`` computed under a per-sequent
budget: such an answer may reflect the budget's truncated remainder rather
than the prover's configured timeout that keys the entry.  Soundness note:
caching a ``PROVED`` verdict is sound because the digest is injective up to
alpha-renaming of generated variables and assumption order, both of which
preserve validity (and invalidity, so a cached ``REFUTED`` replays just as
soundly).

Cache-invalidation note (options signatures): the options part of the key
is ``Prover.options_signature()``, derived from the prover's typed
``Options``; the syntactic prover, which cannot time out, keys its entries
with an empty signature.  Changing what a signature covers (as the
deadline-enforcement change did for the syntactic prover) silently orphans
old disk entries — they are keyed under the old signature and simply miss,
which is safe but means a one-off re-proving pass; delete the cache
directory to reclaim the space.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from ..vcgen.sequent import Sequent
from .base import ProverAnswer, Verdict
from .ordering import DEFAULT_FILENAME as ORDERING_FILENAME
from .ordering import ProverOrdering

#: Monotonic per-process counter making disk-tier temp names unique per
#: writer (``next()`` on an ``itertools.count`` is atomic under the GIL).
_TMP_COUNTER = itertools.count()


@dataclass
class CacheStats:
    """Hit/miss/store counters of one dispatch run (Figure 7 instrumentation)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.disk_hits += other.disk_hits


@dataclass(frozen=True)
class CachedAnswer:
    """A prover verdict stored in the cache (no wall-clock time: replay is free)."""

    verdict: Verdict
    detail: str = ""
    proof_time: float = 0.0  # time of the original, uncached run

    def to_answer(self, prover_name: str) -> ProverAnswer:
        answer = ProverAnswer(
            self.verdict, prover_name, time=0.0,
            detail=f"cached: {self.detail}" if self.detail else "cached",
        )
        answer.cached = True
        return answer


class SequentCache:
    """Thread-safe two-tier (LRU memory + optional disk) prover-result cache."""

    def __init__(
        self,
        max_entries: int = 65536,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._entries: "OrderedDict[str, CachedAnswer]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()
        #: The learned prover ordering of every dispatch that uses this cache.
        self.ordering = ProverOrdering(
            path=str(self.cache_dir / ORDERING_FILENAME)
            if self.cache_dir is not None
            else None
        )

    # -- keys -----------------------------------------------------------------

    @staticmethod
    def key(sequent: Sequent, prover_name: str, options_signature: str = "") -> str:
        """The cache key of one (sequent, prover, options) triple."""
        raw = f"{sequent.digest()}|{prover_name}|{options_signature}"
        return hashlib.sha256(raw.encode()).hexdigest()

    # -- lookup / store -------------------------------------------------------

    def lookup(
        self, sequent: Sequent, prover_name: str, options_signature: str = ""
    ) -> Optional[CachedAnswer]:
        """Return the cached verdict, consulting memory then disk."""
        cache_key = self.key(sequent, prover_name, options_signature)
        with self._lock:
            entry = self._entries.get(cache_key)
            if entry is not None:
                self._entries.move_to_end(cache_key)
                self.stats.hits += 1
                return entry
        entry = self._disk_read(cache_key)
        with self._lock:
            if entry is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._remember(cache_key, entry)
            else:
                self.stats.misses += 1
        return entry

    def store(
        self,
        sequent: Sequent,
        prover_name: str,
        answer: ProverAnswer,
        options_signature: str = "",
    ) -> bool:
        """Cache a freshly computed answer; every verdict is cacheable."""
        cache_key = self.key(sequent, prover_name, options_signature)
        entry = CachedAnswer(answer.verdict, answer.detail, proof_time=answer.time)
        with self._lock:
            self._remember(cache_key, entry)
            self.stats.stores += 1
        self._disk_write(cache_key, entry)
        return True

    def _remember(self, cache_key: str, entry: CachedAnswer) -> None:
        self._entries[cache_key] = entry
        self._entries.move_to_end(cache_key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    # -- disk tier ------------------------------------------------------------

    def _disk_path(self, cache_key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{cache_key}.json"

    def _disk_entry_paths(self) -> Iterator[Path]:
        """Published verdict files (the ordering table beside them is not one)."""
        assert self.cache_dir is not None
        for path in self.cache_dir.glob("*.json"):
            if path.name != ORDERING_FILENAME:
                yield path

    def _disk_read(self, cache_key: str) -> Optional[CachedAnswer]:
        path = self._disk_path(cache_key)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                return None  # well-formed JSON, but not an entry
            return CachedAnswer(
                Verdict(payload["verdict"]),
                payload.get("detail", ""),
                float(payload.get("proof_time", 0.0)),
            )
        except (ValueError, KeyError, TypeError, OSError):
            return None  # a corrupt entry is just a miss

    def _disk_write(self, cache_key: str, entry: CachedAnswer) -> None:
        path = self._disk_path(cache_key)
        if path is None:
            return
        payload = {
            "verdict": entry.verdict.value,
            "detail": entry.detail,
            "proof_time": entry.proof_time,
        }
        # The temp name must be unique *per writer*, not just per key: with a
        # shared name (the old ``path.with_suffix(".tmp")``) two processes
        # storing the same key could interleave write_text and replace,
        # renaming a half-written file over a good entry.  pid + counter makes
        # every concurrent writer's staging file distinct, so the final
        # os.replace is always of a fully written payload (atomic on POSIX).
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")
        try:
            tmp.write_text(json.dumps(payload))
            tmp.replace(path)
        except OSError:
            # A full or read-only disk degrades to memory-only caching; don't
            # leave a stray staging file behind when the replace failed.
            try:
                tmp.unlink()
            except OSError:
                pass

    # -- maintenance ----------------------------------------------------------

    #: Staging files older than this are leftovers of a crashed writer (the
    #: write-then-replace gap is milliseconds) and are swept by compact().
    STALE_TMP_SECONDS = 60.0

    def compact(
        self,
        max_entries: Optional[int] = None,
        max_age: Optional[float] = None,
    ) -> int:
        """Evict disk-tier entries beyond the given caps; returns the count.

        ``max_age`` drops entries older than that many seconds; ``max_entries``
        then drops the oldest survivors down to the cap (eviction is by file
        mtime — the disk tier is content-addressed, so age-of-write is the
        only order it has).  Stale ``*.tmp`` staging files left by crashed
        writers are swept too.  The memory LRU is bounded separately by
        ``max_entries`` at construction and is not touched: a memory entry
        whose disk file was evicted simply stops being disk-backed.

        Concurrent-writer safety: eviction is a plain ``unlink`` of published
        entries, which readers already treat as a miss, and a concurrent
        ``store`` of the same key lands under a fresh staging name — the
        worst case is re-proving an evicted verdict, never a torn entry.
        """
        if self.cache_dir is None:
            return 0
        now = time.time()
        entries = []
        for path in self._disk_entry_paths():
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue  # evicted or replaced under us
        entries.sort()
        doomed = []
        if max_age is not None:
            cutoff = now - max_age
            while entries and entries[0][0] < cutoff:
                doomed.append(entries.pop(0)[1])
        if max_entries is not None and len(entries) > max_entries:
            excess = len(entries) - max_entries
            doomed.extend(path for _, path in entries[:excess])
        evicted = 0
        for path in doomed:
            try:
                path.unlink()
                evicted += 1
            except OSError:
                pass
        for tmp in self.cache_dir.glob("*.tmp"):
            try:
                if now - tmp.stat().st_mtime > self.STALE_TMP_SECONDS:
                    tmp.unlink()
            except OSError:
                pass
        return evicted

    def disk_entries(self) -> int:
        """Number of published entries in the disk tier (0 when memory-only)."""
        if self.cache_dir is None:
            return 0
        return sum(1 for _ in self._disk_entry_paths())

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()
        if disk and self.cache_dir is not None:
            for pattern in ("*.json", "*.tmp"):
                for path in self.cache_dir.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
