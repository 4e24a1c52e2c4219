"""The prover dispatchers: sequential and parallel, with result caching.

This is the integrated-reasoning heart of the system (Sections 5.1-5.2): a
verification condition is split into sequents, and every sequent is offered
to the provers until one proves it (or refutes it with a checked
countermodel, which ends the chain just as well).  Jahob walks the order
the user listed on the command line (``-usedp spass mona bapa`` in
Figure 7); here that order is only the starting point — each sequent's
live provers run in the order a learned
:class:`repro.provers.ordering.ProverOrdering` ranks them
for the sequent's feature bucket, and every answer is recorded in the
table as soon as it lands.  The order sets the cost, never which sequents
prove: a prover that fails falls through to the next.  Per-prover
statistics — how many sequents each prover attempted and proved and how
much time it spent, including failed attempts — are collected for the
Figure 7 / Figure 15 reports.

Splitting makes the workload embarrassingly parallel: sequents are
independent proof obligations, so :class:`ParallelDispatcher` fans them out
to a pool of workers (``workers=N``, thread- or process-backed) while
keeping the merged :class:`DispatchResult` deterministic — outcomes are
merged in the original sequent order and per-prover :class:`ProverStats`
are recorded in exactly the sequence the sequential :class:`Dispatcher`
would have used, so a thread-backed ``ParallelDispatcher(workers=1)`` is
indistinguishable from ``Dispatcher`` (timings aside).

Both dispatchers accept a :class:`repro.provers.cache.SequentCache`: before
any prover runs on a sequent, the cache is consulted for each prover of the
chain under the sequent's structural digest
(:meth:`repro.vcgen.sequent.Sequent.digest`) plus the prover name and
options; hits replay the stored verdict for free and are *not* recorded in
:class:`ProverStats` (the prover did not run).  The cache also owns the
learned ordering, so the table lives exactly as long as the verdicts.

Per-sequent budgets are *enforced*: ``sequent_budget=T`` turns into a
:class:`repro.provers.base.Deadline` shared by the whole prover chain of one
sequent, and every prover runs under the earlier of that deadline and its
own ``timeout`` (see the Deadline contract in :mod:`repro.provers.base`).
A prover that exceeds its slice answers ``TIMEOUT`` and the chain falls
through to the next prover; once the whole budget is gone the outcome is
marked ``budget_exhausted``.

Both dispatchers also accept ``dedup=True``: a pre-pass groups the batch by
structural digest, proves one representative per group and fans its verdict
back out to the duplicates as replayed (``cached``) answers — the same
accounting a :class:`SequentCache` hit would produce, so outcomes, per-prover
statistics and reports are identical to a no-dedup run against a warm cache,
while the duplicate obligations cost nothing.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..vcgen.sequent import Sequent
from .base import Deadline, Prover, ProverAnswer, ProverStats, Verdict, registry
from .cache import CacheStats, SequentCache
from .ordering import ProverOrdering, sequent_features
from .syntactic import SyntacticProver

if TYPE_CHECKING:  # import-cycle guard: repro.analysis imports the prover layer
    from ..analysis.discharge import StaticDischarger

#: Aliases mapping the paper's prover names to this reproduction's engines.
PROVER_ALIASES = {
    "spass": "fol",
    "e": "fol",
    "z3": "smt",
    "cvc3": "smt",
    "isabelle": "interactive",
    "coq": "interactive",
}

DEFAULT_ORDER = ("syntactic", "smt", "fol", "mona", "bapa", "interactive")


def _register_default_provers() -> None:
    if registry.known():
        return
    from ..bapa.prover import BapaProver
    from ..fol.prover import FirstOrderProver
    from ..interactive.prover import InteractiveProver
    from ..mona.prover import MonaProver
    from ..smt.prover import SmtProver

    registry.register("syntactic", SyntacticProver)
    registry.register("fol", FirstOrderProver)
    registry.register("smt", SmtProver)
    registry.register("mona", MonaProver)
    registry.register("bapa", BapaProver)
    registry.register("interactive", InteractiveProver)


def resolve_prover_names(names: Sequence[str]) -> List[str]:
    """Resolve aliases (spass, e, z3, cvc3, isabelle, coq) to engine names."""
    return [PROVER_ALIASES.get(name.lower(), name.lower()) for name in names]


def make_provers(names: Sequence[str], **options) -> List[Prover]:
    """Instantiate the provers named on the command line, in order."""
    _register_default_provers()
    provers = []
    for name in resolve_prover_names(names):
        provers.append(registry.create(name, **options.get(name, {})))
    return provers


@dataclass
class SequentOutcome:
    """What happened to a single sequent."""

    sequent: Sequent
    proved: bool
    #: The prover whose answer settled the sequent (its proof, or its
    #: refutation when ``proved`` is False); None while nothing settled it.
    prover: Optional[str] = None
    answers: List[ProverAnswer] = field(default_factory=list)
    #: True when the per-sequent time budget ran out before the chain ended.
    budget_exhausted: bool = False

    @property
    def settled(self) -> bool:
        """True when an answer decided the sequent: a proof, or a checked
        countermodel (``proved`` stays False then)."""
        return self.prover is not None

    @property
    def countermodel(self) -> str:
        """The checked countermodel of a refuted sequent ('' otherwise),
        without the replay prefixes cache and dedup put on the detail."""
        if not self.answers or self.answers[-1].verdict is not Verdict.REFUTED:
            return ""
        detail = self.answers[-1].detail
        for prefix in ("dedup replay: ", "cached: "):
            if detail.startswith(prefix):
                detail = detail[len(prefix):]
        return detail

    @property
    def from_cache(self) -> bool:
        """True when the *deciding* answer — the one that settled this
        outcome, whatever its verdict — was replayed (cache hit or dedup
        fan-out) rather than computed by a live prover run.

        A cached ``UNKNOWN``/``TIMEOUT`` replay is warm-cache traffic just
        like a cached ``PROVED``: the chain's final answer being a replay
        means no prover ran to settle the sequent.  (Gating on ``proved``
        here used to make cached non-PROVED replays invisible to the
        dispatch/report hit accounting.)
        """
        return bool(self.answers) and self.answers[-1].cached


@dataclass
class DispatchResult:
    """Results of dispatching a batch of sequents to the prover portfolio."""

    outcomes: List[SequentOutcome] = field(default_factory=list)
    stats: Dict[str, ProverStats] = field(default_factory=dict)
    total_time: float = 0.0
    #: Per-run cache counters (all zero when dispatched without a cache).
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: Wall-clock time of the dispatch and the CPU time spent inside provers;
    #: for the sequential dispatcher the two coincide (modulo bookkeeping).
    wall_time: float = 0.0
    cpu_time: float = 0.0
    workers: int = 1
    #: Fraction of the dispatch wall-time each worker spent proving.
    worker_utilization: Dict[str, float] = field(default_factory=dict)
    #: Sequents answered by the dedup pre-pass (a duplicate of an earlier
    #: sequent in the batch, by structural digest): their verdicts were fanned
    #: out from the representative's, not computed.
    dedup_replayed: int = 0
    #: Wall time of the merged daemon batch this result was sliced from
    #: (zero for local dispatch): co-batched requests share one batch, so
    #: a slice's own ``total_time``/``wall_time`` carry only its answer-time
    #: sum while the shared batch wall lives here.
    batch_wall_time: float = 0.0

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def statically_discharged(self) -> int:
        """Sequents resolved by the static-discharge pre-pass (directly or
        fanned out from a statically discharged dedup representative)."""
        return sum(1 for o in self.outcomes if o.proved and o.prover == "static")

    @property
    def proved(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.proved)

    @property
    def proved_from_cache(self) -> int:
        """Sequents whose proof was replayed from the cache (not re-proved)."""
        return sum(1 for outcome in self.outcomes if outcome.proved and outcome.from_cache)

    @property
    def replayed(self) -> int:
        """Sequents *decided* by replayed answers, whatever the verdict.

        This is the warm-traffic number: it also counts cached
        ``UNKNOWN``/``TIMEOUT`` replays, which :attr:`proved_from_cache`
        (proofs only) leaves out.
        """
        return sum(1 for outcome in self.outcomes if outcome.from_cache)

    @property
    def proved_live(self) -> int:
        """Sequents actually proved by running a prover this dispatch."""
        return self.proved - self.proved_from_cache

    @property
    def all_proved(self) -> bool:
        return self.proved == self.total

    def unproved(self) -> List[SequentOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.proved]

    def proved_by(self, prover_name: str) -> int:
        return sum(1 for o in self.outcomes if o.proved and o.prover == prover_name)


# ---------------------------------------------------------------------------
# Cross-method dedup pre-pass (shared by both dispatchers)
# ---------------------------------------------------------------------------


def _dedup_representatives(sequents: Sequence[Sequent]) -> List[int]:
    """``rep[i]`` is the index of the first sequent sharing ``sequents[i]``'s
    structural digest (``rep[i] == i`` for group representatives).

    Identical invariant-exit obligations recur across the methods of one
    class (and across paths of one method); grouping by
    :meth:`repro.vcgen.sequent.Sequent.digest` lets the dispatcher prove one
    representative per group and replay the verdict for the rest.
    """
    first_by_digest: Dict[str, int] = {}
    return [
        first_by_digest.setdefault(sequent.digest(), index)
        for index, sequent in enumerate(sequents)
    ]


def _replayed_outcome(sequent: Sequent, representative: SequentOutcome) -> SequentOutcome:
    """Fan a representative's outcome out to a duplicate sequent.

    The replayed answers are marked ``cached`` — exactly the accounting a
    warm :class:`SequentCache` would produce for the duplicate — so they are
    counted as replays (never as live :class:`ProverStats` attempts) and the
    outcome is attributed to the same prover as the representative's.
    """
    answers = []
    for answer in representative.answers:
        detail = answer.detail if answer.cached else (
            f"dedup replay: {answer.detail}" if answer.detail else "dedup replay"
        )
        replay = ProverAnswer(answer.verdict, answer.prover, time=0.0, detail=detail)
        replay.cached = True
        answers.append(replay)
    return SequentOutcome(
        sequent=sequent,
        proved=representative.proved,
        prover=representative.prover,
        answers=answers,
        budget_exhausted=representative.budget_exhausted,
    )


# ---------------------------------------------------------------------------
# The static-discharge pre-pass (shared by both dispatchers)
# ---------------------------------------------------------------------------


def _make_static_tier(enabled: bool) -> Optional["StaticDischarger"]:
    """Build the per-dispatcher :class:`StaticDischarger` (lazy import: the
    analysis package sits above the prover layer in the module hierarchy)."""
    if not enabled:
        return None
    from ..analysis.discharge import StaticDischarger

    return StaticDischarger()


def _static_outcome(sequent: Sequent, reason: str) -> SequentOutcome:
    """A sequent resolved by the static-discharge pre-pass: a ``STATIC``
    verdict attributed to the pseudo-prover ``"static"``, zero prover time.

    Static answers are never cached — deciding one costs less than the cache
    lookup would, and a stored ``STATIC`` would misattribute the verdict to a
    prover signature on later runs.
    """
    answer = ProverAnswer(
        Verdict.STATIC, "static", time=0.0, detail=f"static discharge: {reason}"
    )
    return SequentOutcome(sequent=sequent, proved=True, prover="static", answers=[answer])


# ---------------------------------------------------------------------------
# The prover chain on one sequent (shared by every dispatcher and backend)
# ---------------------------------------------------------------------------


def _chain_deadline(
    sequent_budget: Optional[float], deadline: Optional[Deadline]
) -> Deadline:
    """The deadline one sequent's chain runs under: the per-sequent budget
    bounded by an outer (request-level) deadline when the caller has one, so
    a request deadline expiring mid-batch still cuts provers off
    cooperatively."""
    if deadline is not None:
        return deadline.bounded_by(sequent_budget)
    if sequent_budget is None:
        return Deadline.never()
    return Deadline.after(sequent_budget)


def _cache_scan(
    cache: Optional[SequentCache],
    sequent: Sequent,
    signatures: Sequence[Tuple[str, str]],
) -> Tuple[List[ProverAnswer], List[int], bool]:
    """Replay the chain's cached verdicts, in portfolio order.

    ``signatures`` are the portfolio's (name, options signature) pairs.
    Returns the replayed answers, the portfolio indices of the provers with
    no cached verdict (the ones still to run live), and whether the scan
    settled the sequent: a cached answer that settles it (a proof or a
    checked countermodel, see :attr:`ProverAnswer.settles`) wins outright,
    and a chain cached end to end needs no live run either.  Replays cost
    nothing, so the scan never depends on the learned order — warm runs
    replay the same answers whatever the table holds.
    """
    answers: List[ProverAnswer] = []
    live: List[int] = []
    for index, (name, signature) in enumerate(signatures):
        entry = cache.lookup(sequent, name, signature) if cache is not None else None
        if entry is None:
            live.append(index)
            continue
        answers.append(entry.to_answer(name))
        if answers[-1].settles:
            return answers, live, True
    return answers, live, not live


def _ranked(
    ordering: ProverOrdering,
    sequent: Sequent,
    names: Sequence[str],
    live: Sequence[int],
) -> Tuple[str, List[int]]:
    """The sequent's feature bucket and its live provers in learned order.

    Called only once the cache scan has left provers to run, so a sequent
    settled by dedup, the static tier or the cache never pays for
    :func:`sequent_features`.
    """
    bucket = sequent_features(sequent)
    order = ordering.rank_bucket(bucket, [names[index] for index in live])
    return bucket, [live[position] for position in order]


def _settled_outcome(sequent: Sequent, answers: List[ProverAnswer]) -> SequentOutcome:
    """The outcome of a sequent the cache scan settled (no live run)."""
    outcome = SequentOutcome(sequent=sequent, proved=False, answers=answers)
    if answers:
        _settle(outcome, answers[-1])
    return outcome


def _settle(outcome: SequentOutcome, answer: ProverAnswer) -> bool:
    """The stop rule of every chain: whether ``answer`` decides the sequent.

    A proof settles it proved; a checked countermodel (``REFUTED``) settles
    it unproved, since no later prover could prove it.  Either way the
    deciding prover is credited on the outcome.
    """
    if not answer.settles:
        return False
    outcome.proved = answer.proved
    outcome.prover = answer.prover
    return True


def _run_prover_chain(
    provers: Sequence[Prover],
    sequent: Sequent,
    cache: Optional[SequentCache] = None,
    sequent_budget: Optional[float] = None,
    static: Optional["StaticDischarger"] = None,
    deadline: Optional[Deadline] = None,
    ordering: Optional[ProverOrdering] = None,
) -> SequentOutcome:
    """Offer one sequent to the portfolio: cache first, then the live
    provers in learned order until one settles it.

    ``static`` (the dispatcher's :class:`StaticDischarger`, when the static
    tier is enabled) is consulted before the cache and before any prover: a
    sequent provable from dataflow facts alone resolves with the ``STATIC``
    verdict for free.  Then every cached verdict replays (see
    :func:`_cache_scan`; a cached proof or refutation settles the sequent).

    The provers left run in the order ``ordering`` ranks them for this
    sequent's feature bucket (portfolio order when no table is given or it
    knows nothing of the bucket), and every live answer is recorded in the
    table as soon as it lands, so the next sequent of the bucket — even in
    the same batch — already benefits.  The order decides the cost, never
    which sequents prove: a prover that fails falls through to the next.

    ``sequent_budget`` becomes one :class:`Deadline` shared by the whole
    chain: each prover runs under the earlier of the chain deadline and its
    own timeout, so a stuck decision procedure is cut off mid-flight (a
    cooperative ``TIMEOUT``) and the next prover still gets its turn while
    budget remains.  An outer ``deadline`` (a request-level budget threaded
    through the daemon's batch dispatch) bounds the chain further: once it
    passes, remaining provers are skipped and the outcome is marked
    ``budget_exhausted``.
    """
    if static is not None:
        reason = static.check(sequent)
        if reason is not None:
            return _static_outcome(sequent, reason)
    deadline = _chain_deadline(sequent_budget, deadline)
    signatures = [(prover.name, prover.options_signature()) for prover in provers]
    replayed, live, settled = _cache_scan(cache, sequent, signatures)
    if settled:
        return _settled_outcome(sequent, replayed)
    outcome = SequentOutcome(sequent=sequent, proved=False, answers=replayed)
    bucket: Optional[str] = None
    if ordering is not None:
        bucket, live = _ranked(ordering, sequent, [name for name, _ in signatures], live)

    for index in live:
        if deadline.expired():
            outcome.budget_exhausted = True
            break
        prover = provers[index]
        answer = prover.prove(sequent, deadline=deadline)
        if cache is not None and not answer.truncated:
            # A *truncated* TIMEOUT — the chain deadline left the prover less
            # than its configured timeout (the option that keys the cache
            # entry) — reflects the budget's remainder, not the prover, and
            # storing it would poison later runs that grant the full budget.
            # ``Prover.prove`` sets the flag from the slack it actually had,
            # so a TIMEOUT that did get its whole configured budget is a
            # genuine verdict and stays cacheable.
            cache.store(sequent, prover.name, answer, prover.options_signature())
        if ordering is not None:
            ordering.observe(sequent, answer, bucket)
        outcome.answers.append(answer)
        if _settle(outcome, answer):
            break
    return outcome


def _dispatch_ordering(
    cache: Optional[SequentCache], ordering: Optional[ProverOrdering]
) -> ProverOrdering:
    """The table a dispatcher ranks with: an explicit override, else the
    cache's own, else a fresh in-memory one."""
    if ordering is not None:
        return ordering
    return cache.ordering if cache is not None else ProverOrdering()


def _save_ordering(ordering: ProverOrdering) -> None:
    """Persist the learned ordering once per batch, when it has a path and
    learned anything new (the chains record every answer as it lands)."""
    if ordering.dirty and ordering.path:
        ordering.save()


def _record_answer(result: DispatchResult, answer: ProverAnswer, cache_enabled: bool) -> None:
    """Account one prover answer: cached answers count as cache hits and are
    never recorded in :class:`ProverStats` (the prover did not run); live
    answers count as misses (when a cache was consulted) and accumulate
    per-prover statistics and CPU time.  ``STATIC`` answers are neither: the
    pre-pass resolved the sequent before the cache was consulted, so they
    accrue (zero-time) stats under the ``"static"`` pseudo-prover without
    touching the cache counters."""
    if answer.cached:
        result.cache_stats.hits += 1
        return
    if answer.verdict is Verdict.STATIC:
        result.stats.setdefault(answer.prover, ProverStats()).record(answer)
        return
    if cache_enabled:
        result.cache_stats.misses += 1
    result.stats.setdefault(answer.prover, ProverStats()).record(answer)
    result.cpu_time += answer.time


def _merge_outcomes(
    result: DispatchResult,
    outcomes: Sequence[SequentOutcome],
    stop_on_failure: bool,
    cache_enabled: bool,
) -> None:
    """Fold worker outcomes into ``result`` in the original sequent order.

    Statistics are recorded answer by answer in exactly the order the
    sequential dispatcher would have produced, which keeps per-prover
    attempted/proved/time identical between backends.
    """
    for outcome in outcomes:
        result.outcomes.append(outcome)
        for answer in outcome.answers:
            _record_answer(result, answer, cache_enabled)
        if stop_on_failure and not outcome.proved:
            break


class Dispatcher:
    """Runs the prover portfolio over sequents sequentially, in order.

    Every sequent's live provers run in the order the learned
    :class:`ProverOrdering` ranks them (see :func:`_run_prover_chain`).  The
    table is the cache's (``cache.ordering``), so it lives as long as the
    verdicts it was learned from; a dispatcher without a cache learns in a
    fresh in-memory table.  ``ordering=`` overrides either (tests).

    ``dedup=True`` enables the digest-grouping pre-pass: one representative
    per group of structurally identical sequents is proved and its verdict
    replayed for the duplicates.

    ``static_tier=True`` enables the static-discharge pre-pass
    (:class:`repro.analysis.discharge.StaticDischarger`): sequents provable
    from dataflow facts alone — trivially true goals, goals structurally
    equal to an assumption, infeasible paths — resolve with the ``STATIC``
    verdict before the cache or any prover is consulted.
    """

    def __init__(
        self,
        provers: Sequence[Prover],
        stop_on_failure: bool = False,
        cache: Optional[SequentCache] = None,
        sequent_budget: Optional[float] = None,
        dedup: bool = False,
        static_tier: bool = False,
        ordering: Optional[ProverOrdering] = None,
    ) -> None:
        self.provers = list(provers)
        self.stop_on_failure = stop_on_failure
        self.cache = cache
        self.sequent_budget = sequent_budget
        self.dedup = dedup
        self.static = _make_static_tier(static_tier)
        self.ordering = _dispatch_ordering(cache, ordering)

    def _chain(
        self, sequent: Sequent, deadline: Optional[Deadline] = None
    ) -> SequentOutcome:
        return _run_prover_chain(
            self.provers,
            sequent,
            self.cache,
            self.sequent_budget,
            self.static,
            deadline=deadline,
            ordering=self.ordering,
        )

    def prove_all(
        self, sequents: Sequence[Sequent], deadline: Optional[Deadline] = None
    ) -> DispatchResult:
        """Prove a batch in order.  ``deadline`` is an optional *batch-level*
        bound (e.g. a request budget): every sequent's chain runs under the
        earlier of it and the per-sequent budget, and sequents reached after
        it passes come back unproved with ``budget_exhausted``."""
        result = DispatchResult()
        start = time.perf_counter()
        rep = _dedup_representatives(sequents) if self.dedup else None
        outcomes: List[SequentOutcome] = []
        for index, sequent in enumerate(sequents):
            if rep is not None and rep[index] != index:
                outcome = _replayed_outcome(sequent, outcomes[rep[index]])
                result.dedup_replayed += 1
            else:
                outcome = self._chain(sequent, deadline)
            outcomes.append(outcome)
            if self.stop_on_failure and not outcome.proved:
                break
        _merge_outcomes(result, outcomes, self.stop_on_failure, self.cache is not None)
        _save_ordering(self.ordering)
        result.total_time = time.perf_counter() - start
        result.wall_time = result.total_time
        return result


# ---------------------------------------------------------------------------
# Parallel dispatch
# ---------------------------------------------------------------------------


#: Per-worker-process portfolio cache: building provers once per process
#: instead of once per sequent task keeps per-task overhead negligible for
#: fine-grained sequents.
_PROCESS_PORTFOLIOS: Dict[Tuple, List[Prover]] = {}


def _process_worker_chain(
    payload: Tuple[Sequence[str], dict, Optional[float], Sequent, Sequence[int]]
) -> SequentOutcome:
    """Top-level function (picklable) executed inside process-pool workers.

    ``order`` lists the portfolio indices of the provers still open for this
    sequent, already in learned-rank order: the cache and the ordering table
    both live in the parent, which cache-scans and ranks before submitting
    and learns from the answers when they come back.  The worker runs the
    chain over exactly those provers.
    """
    names, options, sequent_budget, sequent, order = payload
    key = (tuple(names), repr(sorted(options.items())))
    provers = _PROCESS_PORTFOLIOS.get(key)
    if provers is None:
        provers = make_provers(names, **options)
        _PROCESS_PORTFOLIOS[key] = provers
    return _run_prover_chain(
        [provers[index] for index in order], sequent, sequent_budget=sequent_budget
    )


class ParallelDispatcher:
    """Fans sequents out to a worker pool; the merge is deterministic.

    ``backend="thread"`` (the default) shares one process: each worker thread
    instantiates its own prover portfolio (provers may carry mutable state,
    e.g. the interactive lemma store) and consults the shared, lock-protected
    :class:`SequentCache` directly.  Note that the bundled provers are pure
    Python, so under the GIL the thread backend overlaps little CPU-bound
    prover work — it buys cache sharing, deterministic structure and cheap
    workers, not wall-clock speedup.  For true multi-core scaling use
    ``backend="process"``.

    ``backend="process"`` runs each sequent's prover chain in a separate
    process (requires construction via :meth:`from_names` so the portfolio
    can be rebuilt inside workers).  The cache then lives in the parent:
    sequents whose whole chain is answered by the cache are never submitted,
    and worker results are stored back on merge.

    Whatever the backend, outcomes are merged in the original sequent order
    and per-prover statistics are recorded in the sequence the sequential
    :class:`Dispatcher` would use.  The learned ordering (the cache's, as
    for :class:`Dispatcher`) learns in completion order: thread workers
    record each answer as it lands, while the process backend ranks every
    sequent at submit time and learns when the answers come back.  With
    ``workers > 1`` which prover gets credit for a sequent may therefore
    differ from a serial run — which sequents prove never does.

    ``executor=`` lends the dispatcher a long-lived pool (matching the
    backend: a ``ThreadPoolExecutor`` for threads, a ``ProcessPoolExecutor``
    for processes) instead of building one per ``prove_all`` call.  A
    borrowed pool is never shut down here — the owner (e.g. the verify
    daemon's prover farm, shared by every batch lane) manages its lifetime —
    and its workers persist across batches, so per-thread prover portfolios
    and per-process portfolio caches are built once and reused.
    """

    def __init__(
        self,
        prover_factory: Callable[[], List[Prover]],
        workers: Optional[int] = None,
        backend: str = "thread",
        stop_on_failure: bool = False,
        cache: Optional[SequentCache] = None,
        sequent_budget: Optional[float] = None,
        dedup: bool = False,
        static_tier: bool = False,
        ordering: Optional[ProverOrdering] = None,
        executor: Optional[Executor] = None,
        _names: Optional[List[str]] = None,
        _options: Optional[dict] = None,
    ) -> None:
        import os

        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {backend!r}; use 'thread' or 'process'")
        if backend == "process" and _names is None:
            raise ValueError("backend='process' requires ParallelDispatcher.from_names(...)")
        self._factory = prover_factory
        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self.backend = backend
        self.stop_on_failure = stop_on_failure
        self.cache = cache
        self.sequent_budget = sequent_budget
        self.dedup = dedup
        # The static pre-pass runs in the *parent*, before pool submission:
        # statically discharged sequents never reach a worker, and the
        # discharger's counters stay single-threaded.
        self.static = _make_static_tier(static_tier)
        self.ordering = _dispatch_ordering(cache, ordering)
        self.executor = executor
        self._names = list(_names) if _names is not None else None
        self._options = dict(_options) if _options is not None else {}
        # Instance-level (not call-local) per-thread portfolios: with a
        # persistent executor the same worker threads serve many prove_all
        # calls, so their portfolios survive across batches.  A worker thread
        # runs one task at a time, so a portfolio is never shared.
        self._worker_local = threading.local()
        self._probe: Optional[List[Prover]] = None

    @classmethod
    def from_names(
        cls,
        names: Sequence[str] = DEFAULT_ORDER,
        workers: Optional[int] = None,
        backend: str = "thread",
        stop_on_failure: bool = False,
        cache: Optional[SequentCache] = None,
        sequent_budget: Optional[float] = None,
        dedup: bool = False,
        static_tier: bool = False,
        ordering: Optional[ProverOrdering] = None,
        executor: Optional[Executor] = None,
        **options,
    ) -> "ParallelDispatcher":
        resolved = resolve_prover_names(names)
        return cls(
            lambda: make_provers(resolved, **options),
            workers=workers,
            backend=backend,
            stop_on_failure=stop_on_failure,
            cache=cache,
            sequent_budget=sequent_budget,
            dedup=dedup,
            static_tier=static_tier,
            ordering=ordering,
            executor=executor,
            _names=resolved,
            _options=options,
        )

    # -- main entry point ------------------------------------------------------

    def prove_all(
        self, sequents: Sequence[Sequent], deadline: Optional[Deadline] = None
    ) -> DispatchResult:
        """Prove a batch on the worker pool.  ``deadline`` is an optional
        batch-level bound (e.g. a request budget): thread workers enforce it
        cooperatively inside the chains; process workers receive their
        sequent budget clipped to the deadline's remaining slack at submit
        time (a conservative approximation — a Deadline's monotonic expiry
        instant cannot cross a process boundary)."""
        result = DispatchResult()
        result.workers = self.workers
        start = time.perf_counter()
        rep = _dedup_representatives(sequents) if self.dedup else None
        if self.backend == "thread":
            outcomes, busy = self._prove_all_threads(sequents, rep, deadline)
        else:
            outcomes, busy = self._prove_all_processes(sequents, rep, deadline)
        if rep is not None:
            result.dedup_replayed = sum(
                1 for index in range(len(outcomes)) if rep[index] != index
            )
        _merge_outcomes(result, outcomes, self.stop_on_failure, self.cache is not None)
        _save_ordering(self.ordering)
        result.total_time = time.perf_counter() - start
        result.wall_time = result.total_time
        if result.wall_time > 0:
            result.worker_utilization = {
                worker: elapsed / result.wall_time for worker, elapsed in sorted(busy.items())
            }
        return result

    def _static_check(self, sequent: Sequent) -> Optional[SequentOutcome]:
        """The static pre-pass on one sequent (None when disabled or missed)."""
        if self.static is None:
            return None
        reason = self.static.check(sequent)
        return _static_outcome(sequent, reason) if reason is not None else None

    # -- thread backend --------------------------------------------------------

    def _prove_all_threads(
        self,
        sequents: Sequence[Sequent],
        rep: Optional[List[int]] = None,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[List[SequentOutcome], Dict[str, float]]:
        local = self._worker_local
        busy: Dict[str, float] = {}
        busy_lock = threading.Lock()

        def task(sequent: Sequent) -> SequentOutcome:
            provers = getattr(local, "provers", None)
            if provers is None:
                provers = self._factory()
                local.provers = provers
            started = time.perf_counter()
            outcome = _run_prover_chain(
                provers, sequent, self.cache, self.sequent_budget,
                deadline=deadline, ordering=self.ordering,
            )
            elapsed = time.perf_counter() - started
            name = threading.current_thread().name
            with busy_lock:
                busy[name] = busy.get(name, 0.0) + elapsed
            return outcome

        outcomes: List[SequentOutcome] = []
        pool = self.executor
        owned: Optional[ThreadPoolExecutor] = None
        if pool is None:
            owned = pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="prover-worker"
            )
        try:
            # Only group representatives that the static pre-pass did not
            # already resolve are submitted; duplicates are fanned out from
            # the representative's outcome at merge time.
            entries: List[Union[None, SequentOutcome, object]] = []
            for index, sequent in enumerate(sequents):
                if rep is not None and rep[index] != index:
                    entries.append(None)
                    continue
                static = self._static_check(sequent)
                if static is not None:
                    entries.append(static)
                    continue
                entries.append(pool.submit(task, sequent))
            for index, entry in enumerate(entries):
                if entry is None:
                    outcome = _replayed_outcome(sequents[index], outcomes[rep[index]])
                elif isinstance(entry, SequentOutcome):
                    outcome = entry
                else:
                    outcome = entry.result()
                outcomes.append(outcome)
                if self.stop_on_failure and not outcome.proved:
                    for pending in entries[index + 1:]:
                        if pending is not None and not isinstance(pending, SequentOutcome):
                            pending.cancel()
                    break
        finally:
            if owned is not None:
                owned.shutdown(wait=True)
        return outcomes, busy

    # -- process backend -------------------------------------------------------

    def _prove_all_processes(
        self,
        sequents: Sequence[Sequent],
        rep: Optional[List[int]] = None,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[List[SequentOutcome], Dict[str, float]]:
        # The probe portfolio only supplies names/signatures for the
        # parent-side cache scans — build it once per dispatcher, not once
        # per batch.
        probe = self._probe
        if probe is None:
            probe = self._probe = self._factory()
        signatures = [(p.name, p.options_signature()) for p in probe]
        by_prover = {p.name: p for p in probe}
        names = [name for name, _ in signatures]

        def finish(
            sequent: Sequent, prefix: List[ProverAnswer], bucket: str, tail: SequentOutcome
        ) -> SequentOutcome:
            """Splice the cached prefix and the worker's live tail, storing
            the freshly computed verdicts back into the parent's cache
            (except budget-truncated TIMEOUTs — see _run_prover_chain) and
            recording them in the learned ordering."""
            for answer in tail.answers:
                prover = by_prover.get(answer.prover)
                if (
                    self.cache is not None
                    and prover is not None
                    and not answer.truncated
                ):
                    # ``truncated`` travels on the pickled answer, so the
                    # parent applies the same suppression rule as the
                    # in-process chain (budget-clipped TIMEOUTs only;
                    # genuine verdicts are stored).
                    self.cache.store(
                        sequent, answer.prover, answer, prover.options_signature()
                    )
                self.ordering.observe(sequent, answer, bucket)
            return SequentOutcome(
                sequent=sequent,
                proved=tail.proved,
                prover=tail.prover,
                answers=prefix + tail.answers,
                budget_exhausted=tail.budget_exhausted,
            )

        # The static pre-pass outranks the cache: a statically discharged
        # sequent is never scanned or submitted.  Duplicates are never
        # scanned or submitted either — their outcome is fanned out from the
        # representative's at merge time.  Everything else is cache-scanned
        # here (the cache lives parent-side), and only a sequent the scan
        # leaves open is ranked: ``scans[i]`` is (cached answers, settled,
        # feature bucket, live provers in learned order).
        statics: List[Optional[SequentOutcome]] = []
        scans: List[Tuple[List[ProverAnswer], bool, str, List[int]]] = []
        for index, sequent in enumerate(sequents):
            if rep is not None and rep[index] != index:
                statics.append(None)
                scans.append(([], True, "", []))
                continue
            statics.append(self._static_check(sequent))
            if statics[index] is not None:
                scans.append(([], True, "", []))
                continue
            answers, live, settled = _cache_scan(self.cache, sequent, signatures)
            bucket = ""
            if not settled:
                bucket, live = _ranked(self.ordering, sequent, names, live)
            scans.append((answers, settled, bucket, live))

        busy: Dict[str, float] = {}
        outcomes: List[SequentOutcome] = []
        expired = [False] * len(sequents)
        pool = self.executor
        owned: Optional[ProcessPoolExecutor] = None
        if pool is None:
            owned = pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            futures = []
            for index, (sequent, (_, settled, _, live)) in enumerate(zip(sequents, scans)):
                if settled:
                    futures.append(None)
                    continue
                # A Deadline cannot cross the process boundary (its expiry
                # instant is this process's monotonic clock), so the batch
                # deadline clips each worker's sequent budget at submit time.
                budget = self.sequent_budget
                if deadline is not None:
                    slack = deadline.remaining()
                    if slack <= 0:
                        expired[index] = True
                        futures.append(None)
                        continue
                    budget = slack if budget is None else min(budget, slack)
                payload = (self._names, self._options, budget, sequent, live)
                futures.append(pool.submit(_process_worker_chain, payload))
            for index, (sequent, (prefix, settled, bucket, _)) in enumerate(
                zip(sequents, scans)
            ):
                if rep is not None and rep[index] != index:
                    outcome = _replayed_outcome(sequent, outcomes[rep[index]])
                elif statics[index] is not None:
                    outcome = statics[index]
                elif expired[index]:
                    outcome = SequentOutcome(
                        sequent=sequent, proved=False, answers=list(prefix),
                        budget_exhausted=True,
                    )
                elif settled:
                    outcome = _settled_outcome(sequent, prefix)
                else:
                    tail = futures[index].result()
                    outcome = finish(sequent, prefix, bucket, tail)
                    # The pool does not reveal which process ran the task, so
                    # report the *average* per-worker busy fraction: total
                    # prover CPU spread across the pool (keeps the documented
                    # "fraction of wall-time" semantics, never exceeding ~1).
                    busy["process-pool-avg"] = busy.get("process-pool-avg", 0.0) + (
                        sum(a.time for a in tail.answers) / self.workers
                    )
                outcomes.append(outcome)
                if self.stop_on_failure and not outcome.proved:
                    for pending in futures[index + 1:]:
                        if pending is not None:
                            pending.cancel()
                    break
        finally:
            if owned is not None:
                owned.shutdown(wait=True)
        return outcomes, busy
