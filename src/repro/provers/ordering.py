"""Learned prover ordering: the order every dispatcher offers a sequent to
the portfolio.

The paper's Figure 7 command line fixes one prover order for a whole run
(``-usedp spass mona bapa``), so a sequent that only MONA can discharge
still pays the full SPASS budget first.  This module learns a better
per-sequent order from the outcomes the dispatcher has already observed
(the order *and the slices* decide the cost, never which sequents prove:
every prover still gets its full turn until one proves):

* :func:`sequent_features` maps a sequent to a small, stable *feature
  bucket* — the goal's head connective/operator, the logic-fragment flags
  the approximation layer also keys on (cardinality, arithmetic,
  reachability, higher-order), the bucketed assumption count, and the
  bucketed quantifier-nesting depth.  Buckets are coarse on purpose: a
  handful of outcomes per bucket is enough to rank four engines, and the
  bucket string doubles as a readable JSON key.
* :class:`ProverOrdering` keeps, per bucket and prover, the outcome stats
  (attempted / proved / total time; a checked refutation counts as
  "proved" here, since it settles the sequent just as a proof does) and
  ranks a dispatcher's portfolio for one sequent.  Ranking is fully
  deterministic: provers with a proof record in the bucket come first
  (higher success rate, then lower mean time, then *portfolio position*
  as the tie-break), provers the table knows nothing
  about keep their portfolio order next, and provers that were attempted
  ``min_attempts``+ times without a single proof sink to the back.  With an
  empty table the ranking *is* the portfolio order, so a cold table
  reproduces the fixed-order prover choice exactly.
* :meth:`ProverOrdering.slice_of` is the budget schedule's first-pass slice
  of one prover in one bucket: ``SLICE_FACTOR`` times the longest proof
  (or refutation) the prover has given there, never below ``SLICE_FLOOR``.
  The dispatch chain runs each ranked prover under its slice first, and
  re-runs the provers a slice cut off, in ranked order and with their
  full timeout, only once every other prover has had its slice.  A
  sequent some later prover proves quickly then no longer waits out the
  first prover's whole timeout.

The table lives as long as the verdict cache it learns beside: every
:class:`repro.provers.cache.SequentCache` owns one (the verify daemon's
store is such a cache), and a disk-backed cache persists it as one small
JSON document (``ordering.json``) in its directory, beside the verdicts.  :meth:`ProverOrdering.save` writes atomically (a per-writer
staging file + ``os.replace``), and concurrent daemons may overwrite each
other wholesale — the stats are advisory scheduling hints, never part of a
verdict, so losing an update is harmless.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..form import ast as F
from ..vcgen.sequent import Sequent
from .base import ProverAnswer

#: Stats-table schema version; bump on incompatible layout changes (old
#: files are discarded, not migrated — the table is a cache of hints).
FORMAT_VERSION = 2

#: The budget schedule's constants (see :meth:`ProverOrdering.slice_of`).  A
#: prover with no proof record in a bucket gets the floor.  A 0.25 s floor
#: cut twice as many attempts in a cold suite pass (16 against 8), many of
#: them SMT proofs finishing just past it, and the pass took longer.
SLICE_FLOOR = 0.5
SLICE_FACTOR = 2.0

#: Default file name, placed beside the cache/store directory it learns from.
DEFAULT_FILENAME = "ordering.json"

#: Per-process counter making staging names unique per save (``next()`` on
#: an ``itertools.count`` is atomic under the GIL).
_TMP_COUNTER = itertools.count()


def _goal_head(term: F.Term) -> str:
    """The head connective/operator of a goal formula, as a short tag."""
    if isinstance(term, F.Not):
        return "not"
    if isinstance(term, F.And):
        return "and"
    if isinstance(term, F.Or):
        return "or"
    if isinstance(term, F.Implies):
        return "implies"
    if isinstance(term, F.Iff):
        return "iff"
    if isinstance(term, F.Eq):
        return "eq"
    if isinstance(term, F.Ite):
        return "ite"
    if isinstance(term, F.Quant):
        return "all" if term.kind == "ALL" else "ex"
    if isinstance(term, F.App):
        func = term.func
        while isinstance(func, F.App):
            func = func.func
        if isinstance(func, F.Var) and F.is_builtin(func.name):
            return func.name
        return "app"
    if isinstance(term, F.Var):
        return "atom"
    if isinstance(term, F.BoolLit):
        return "bool"
    return type(term).__name__.lower()


def _quant_depth(term: F.Term) -> int:
    """Maximum quantifier-nesting depth anywhere in ``term``."""
    if isinstance(term, F.Quant):
        return 1 + _quant_depth(term.body)
    if isinstance(term, (F.Lambda, F.SetCompr)):
        return _quant_depth(term.body)
    if isinstance(term, F.App):
        depth = _quant_depth(term.func)
        for arg in term.args:
            depth = max(depth, _quant_depth(arg))
        return depth
    if isinstance(term, (F.And, F.Or)):
        return max((_quant_depth(arg) for arg in term.args), default=0)
    if isinstance(term, (F.Implies, F.Iff, F.Eq)):
        return max(_quant_depth(term.lhs), _quant_depth(term.rhs))
    if isinstance(term, F.Not):
        return _quant_depth(term.arg)
    if isinstance(term, F.Old):
        return _quant_depth(term.term)
    if isinstance(term, F.Ite):
        return max(
            _quant_depth(term.cond), _quant_depth(term.then), _quant_depth(term.els)
        )
    if isinstance(term, F.TupleTerm):
        return max((_quant_depth(item) for item in term.items), default=0)
    return 0


def _bucketed(count: int, edges: Sequence[int]) -> str:
    """Bucket a count by ``edges``, e.g. (1, 4, 9) -> 0 / 1-3 / 4-8 / 9+."""
    previous = 0
    for edge in edges:
        if count < edge:
            return str(previous) if edge == previous + 1 else f"{previous}-{edge - 1}"
        previous = edge
    return f"{previous}+"


def sequent_features(sequent: Sequent) -> str:
    """The feature-bucket key of one sequent (stable, human-readable).

    Shaped ``head=elem;frag=card,arith;asm=4-8;qd=1``: the goal head, the
    sorted fragment flags present anywhere in the sequent, the bucketed
    assumption count, and the bucketed quantifier depth.  Every component
    is derived from the same alpha-insensitive structure the digest hashes,
    so structurally identical sequents always share a bucket.
    """
    goal = sequent.goal.formula
    flags = set()
    quant_depth = _quant_depth(goal)
    terms = [goal] + [labeled.formula for labeled in sequent.assumptions]
    for term in terms:
        for sub in F.subterms(term):
            if isinstance(sub, F.Var):
                if sub.name in F.ARITH_OPS:
                    flags.add("arith")
                elif sub.name == "card":
                    flags.add("card")
                elif sub.name in F.REACH_OPS:
                    flags.add("reach")
                elif sub.name in F.SET_OPS:
                    flags.add("set")
            elif isinstance(sub, F.IntLit):
                flags.add("arith")
            elif isinstance(sub, (F.Lambda, F.SetCompr)):
                flags.add("ho")
    frag = ",".join(sorted(flags)) if flags else "none"
    asm = _bucketed(len(sequent.assumptions), (1, 4, 9, 17))
    depth = _bucketed(quant_depth, (1, 2, 3))
    return f"head={_goal_head(goal)};frag={frag};asm={asm};qd={depth}"


@dataclass
class _BucketStats:
    """Outcome stats of one prover inside one feature bucket."""

    attempted: int = 0
    proved: int = 0
    time: float = 0.0
    #: The longest settling answer (proof or refutation), in seconds.
    longest: float = 0.0

    @property
    def rate(self) -> float:
        return self.proved / self.attempted if self.attempted else 0.0

    @property
    def mean_time(self) -> float:
        return self.time / self.attempted if self.attempted else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "attempted": self.attempted,
            "proved": self.proved,
            "time": round(self.time, 6),
            "longest": round(self.longest, 6),
        }


@dataclass
class ProverOrdering:
    """A persistent per-feature-bucket prover ranking (see module docs).

    ``path`` is the JSON file the table loads from / saves to (``None`` for
    a purely in-memory table, e.g. under test).  ``min_attempts`` is how
    many failed attempts a bucket needs before it demotes a prover below
    the unknowns — fewer and one unlucky timeout would exile an engine.

    Thread-safe: concurrent daemon lanes rank and observe on one shared
    table.
    """

    path: Optional[str] = None
    min_attempts: int = 3
    _buckets: Dict[str, Dict[str, _BucketStats]] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: Observations recorded since the last :meth:`save` (or load).
    dirty: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.path and os.path.exists(self.path):
            self.load(self.path)

    # -- persistence -------------------------------------------------------

    def load(self, path: str) -> None:
        """Replace the table with the stats stored at ``path`` (best effort:
        unreadable or wrong-version files leave the table empty)."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict) or payload.get("version") != FORMAT_VERSION:
            return
        buckets: Dict[str, Dict[str, _BucketStats]] = {}
        for key, per_prover in payload.get("buckets", {}).items():
            if not isinstance(per_prover, dict):
                continue
            entry: Dict[str, _BucketStats] = {}
            for prover, stats in per_prover.items():
                try:
                    entry[prover] = _BucketStats(
                        attempted=int(stats["attempted"]),
                        proved=int(stats["proved"]),
                        time=float(stats["time"]),
                        longest=float(stats["longest"]),
                    )
                except (KeyError, TypeError, ValueError):
                    continue
            if entry:
                buckets[key] = entry
        with self._lock:
            self._buckets = buckets
            self.dirty = 0

    def save(self, path: Optional[str] = None) -> bool:
        """Persist the table atomically (tmp file + ``os.replace``).

        Returns False when there is nowhere to save (no ``path`` given here
        or at construction).
        """
        target = path or self.path
        if not target:
            return False
        with self._lock:
            payload = {
                "version": FORMAT_VERSION,
                "buckets": {
                    key: {
                        prover: stats.as_dict()
                        for prover, stats in sorted(per_prover.items())
                    }
                    for key, per_prover in sorted(self._buckets.items())
                },
            }
            self.dirty = 0
        directory = os.path.dirname(os.path.abspath(target))
        os.makedirs(directory, exist_ok=True)
        # Unique per save, not just per process: daemon lanes are threads of
        # one process and may save at once, and a staging name they shared
        # would let one lane's os.replace move it out from under another's.
        tmp = f"{target}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, target)
        return True

    # -- learning ----------------------------------------------------------

    def observe(
        self, sequent: Sequent, answer: ProverAnswer, bucket: Optional[str] = None
    ) -> None:
        """Record one live outcome (called by the dispatchers per answer).

        ``bucket`` is the sequent's feature key when the caller already
        computed it for :meth:`rank_bucket`.  Cached replays teach nothing
        new (their stats were recorded when first proved), and an answer the
        chain budget truncated reflects the budget's remainder, not the
        prover.  Both are ignored.  A slice cut is truncated too, but the
        prover failed to prove within its slice while budget remained, so it
        counts as an unproved attempt: a prover that keeps getting cut sinks
        in the bucket's ranking.
        """
        if answer.cached or (answer.truncated and not answer.slice_cut):
            return
        # A refutation settles the sequent as surely as a proof: counting it
        # as a failure would demote the refuting prover to the hopeless tier
        # of exactly the buckets where it ends the chain soonest.
        self.observe_outcome(
            bucket or sequent_features(sequent), answer.prover, answer.settles, answer.time
        )

    def observe_outcome(
        self, bucket: str, prover: str, proved: bool, time: float
    ) -> None:
        """Record one (bucket, prover) outcome directly (wire/replay path)."""
        with self._lock:
            stats = self._buckets.setdefault(bucket, {}).setdefault(
                prover, _BucketStats()
            )
            stats.attempted += 1
            if proved:
                stats.proved += 1
                stats.longest = max(stats.longest, time)
            stats.time += max(0.0, time)
            self.dirty += 1

    # -- ranking -----------------------------------------------------------

    def rank(self, sequent: Sequent, provers: Sequence[str]) -> List[int]:
        """Portfolio indices of ``provers`` in learned-best-first order.

        Deterministic three-tier order (see module docs): proven winners by
        (success rate desc, mean time asc, portfolio index asc), then
        unknowns in portfolio order, then known-hopeless provers
        (``min_attempts``+ attempts, zero proofs) in portfolio order.  An
        empty table therefore yields ``[0, 1, ..., n-1]`` — the fixed
        portfolio order — which keeps cold dispatch reproducible.
        """
        return self.rank_bucket(sequent_features(sequent), provers)

    def rank_bucket(self, bucket: str, provers: Sequence[str]) -> List[int]:
        with self._lock:
            per_prover = self._buckets.get(bucket, {})
            winners: List[tuple] = []
            unknown: List[int] = []
            hopeless: List[int] = []
            for index, name in enumerate(provers):
                stats = per_prover.get(name)
                if stats is None or stats.attempted == 0:
                    unknown.append(index)
                elif stats.proved:
                    winners.append((-stats.rate, stats.mean_time, index))
                elif stats.attempted >= self.min_attempts:
                    hopeless.append(index)
                else:
                    unknown.append(index)
        winners.sort()
        return [index for _, _, index in winners] + unknown + hopeless

    def slice_of(self, bucket: str, prover: str) -> float:
        """The first-pass slice of ``prover`` in ``bucket``: ``SLICE_FACTOR``
        times its longest settling answer there, at least ``SLICE_FLOOR``.
        The chain leaves a prover unsliced when this reaches its timeout."""
        with self._lock:
            stats = self._buckets.get(bucket, {}).get(prover)
            longest = stats.longest if stats is not None else 0.0
        return max(SLICE_FLOOR, SLICE_FACTOR * longest)

    # -- introspection -----------------------------------------------------

    def bucket_count(self) -> int:
        with self._lock:
            return len(self._buckets)

    def snapshot(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """A JSON-shaped copy of the stats (for daemon stats endpoints)."""
        with self._lock:
            return {
                key: {p: s.as_dict() for p, s in per_prover.items()}
                for key, per_prover in self._buckets.items()
            }
