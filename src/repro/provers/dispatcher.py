"""The prover dispatcher: one dispatch loop, one configuration, two executors.

This is the integrated-reasoning heart of the system (Sections 5.1-5.2): a
verification condition is split into sequents, and every sequent is offered
to the provers until one proves it (or refutes it with a checked
countermodel, which ends the chain just as well).  Jahob walks the order
the user listed on the command line (``-usedp spass mona bapa`` in
Figure 7); here that order is only the starting point, re-ranked per
sequent by a learned :class:`repro.provers.ordering.ProverOrdering`.
Per-prover statistics — attempts, proofs and time, failed attempts
included — feed the Figure 7 / Figure 15 reports.

Every setting of a dispatch lives in one frozen :class:`DispatchConfig`:
the prover chain (aliases resolved), the prover options, the per-sequent
budget, the dedup pre-pass, and the executor width (``workers``).
:class:`Dispatcher` runs one batch in three steps:

1. the pre-pass, in the calling thread: ``dedup=True`` groups the batch by
   structural digest so only one representative per group is proved;
2. each representative goes to an executor, largest first (most
   assumptions, ties in sequent order): inline for ``workers=1``,
   otherwise a process pool — the paper's provers are separate processes
   too, and the bundled pure-Python ones only scale across processes;
3. one merge folds the outcomes back in sequent order, fanning each
   representative's verdict out to its duplicates as replayed (``cached``)
   answers — the accounting a warm cache would produce.

Whatever the executor, one sequent's chain is :func:`_run_prover_chain`:
cached verdicts (a :class:`repro.provers.cache.SequentCache`, keyed by the
sequent's structural digest plus prover name and options) replay first for
free, then the live provers run under the enforced per-sequent budget on a
two-pass schedule: each ranked prover first gets a short slice learned from
its own proof times, and only the provers a slice cut off run again, with
their full timeout.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..vcgen.sequent import Sequent
from .base import Deadline, Prover, ProverAnswer, ProverStats, Verdict, registry
from .cache import CacheStats, SequentCache
from .ordering import ProverOrdering, sequent_features
from .syntactic import SyntacticProver

#: Aliases mapping the paper's prover names to this reproduction's engines.
PROVER_ALIASES = {
    "spass": "fol",
    "e": "fol",
    "z3": "smt",
    "cvc3": "smt",
}

DEFAULT_ORDER = ("syntactic", "smt", "fol", "mona", "bapa")


def _register_default_provers() -> None:
    """Register every built-in engine the registry does not know yet, so a
    prover registered before the first :func:`make_provers` call never hides
    them (and one registered under a built-in name is kept)."""
    known = set(registry.known())
    if known.issuperset(DEFAULT_ORDER):
        return
    from ..bapa.prover import BapaProver
    from ..fol.prover import FirstOrderProver
    from ..mona.prover import MonaProver
    from ..smt.prover import SmtProver

    builtins = {
        "syntactic": SyntacticProver,
        "fol": FirstOrderProver,
        "smt": SmtProver,
        "mona": MonaProver,
        "bapa": BapaProver,
    }
    for name, factory in builtins.items():
        if name not in known:
            registry.register(name, factory)


def resolve_prover_names(names: Sequence[str]) -> List[str]:
    """Resolve aliases (spass, e, z3, cvc3) to engine names."""
    return [PROVER_ALIASES.get(name.lower(), name.lower()) for name in names]


def resolve_prover_options(options: Dict[str, dict]) -> Dict[str, dict]:
    """Key each prover's options by engine name, aliases resolved as in the
    chain; two keys naming one engine are refused."""
    resolved = dict(zip(resolve_prover_names(options), map(dict, options.values())))
    if len(resolved) < len(options):
        raise ValueError(f"two option sets for one prover in {sorted(options)}")
    return resolved


def available_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask, which a
    container or ``taskset`` can narrow below ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def make_provers(names: Sequence[str], **options) -> List[Prover]:
    """Instantiate the provers named on the command line, in order."""
    _register_default_provers()
    options = resolve_prover_options(options)
    return [registry.create(name, **options.get(name, {})) for name in resolve_prover_names(names)]


@dataclass(frozen=True)
class DispatchConfig:
    """Every setting of a dispatch, each declared here with its default.

    ``provers`` is the chain in portfolio order; aliases are resolved on
    construction, so ``("z3",)`` and ``("smt",)`` are the same
    configuration.  ``prover_options`` maps an engine name (or an alias,
    resolved too) to the keyword arguments its prover is built with;
    options for engines outside the chain are ignored.  ``sequent_budget``
    bounds (and enforces) the time the whole chain may spend on one sequent.  ``dedup``
    enables the pre-pass (see the module docstring).  ``workers`` chooses
    the executor: inline for one worker (the default here), else a pool of
    ``workers`` processes (the default of :meth:`for_verify`).

    A config is immutable and picklable — the process executor ships it to
    its workers, which rebuild the portfolio with :meth:`make_provers`.
    """

    provers: Tuple[str, ...] = DEFAULT_ORDER
    prover_options: Dict[str, dict] = field(default_factory=dict)
    sequent_budget: Optional[float] = None
    dedup: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers!r}")
        object.__setattr__(self, "provers", tuple(resolve_prover_names(self.provers)))
        object.__setattr__(self, "prover_options", resolve_prover_options(self.prover_options or {}))

    @classmethod
    def for_verify(
        cls, provers: Sequence[str] = DEFAULT_ORDER, **settings
    ) -> "DispatchConfig":
        """The configuration :func:`repro.core.verifier.verify` dispatches:
        the syntactic prover first (it is free and discharges the many
        trivial conjuncts every VC contains), then ``provers``, on one
        worker per CPU this process may run on unless ``workers`` says
        otherwise."""
        names = resolve_prover_names(provers)
        if "syntactic" not in names:
            names = ["syntactic"] + names
        settings.setdefault("workers", available_cpus())
        return cls(tuple(names), **settings)

    def make_provers(self) -> List[Prover]:
        """A fresh portfolio for this chain (provers may carry mutable state,
        so every dispatcher and every pool process builds its own)."""
        return make_provers(self.provers, **self.prover_options)

    def key(self) -> str:
        """A canonical string naming the configuration: equal configs give
        equal keys (a pool process keeps one portfolio per key)."""
        settings = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return json.dumps(settings, sort_keys=True, default=repr)

    def __hash__(self) -> int:
        return hash(self.key())


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
    #: True when the dedup pre-pass answered this sequent with a replay of
    #: an earlier sequent's outcome in the same batch.
    dedup_replay: bool = False

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
        """True when the *deciding* answer, whatever its verdict, was
        replayed (cache hit or dedup fan-out) rather than computed live.
        Not gated on ``proved``: a cached ``UNKNOWN``/``TIMEOUT`` replay is
        warm-cache traffic too, and the hit accounting must count it."""
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
    #: for inline dispatch the two coincide (modulo bookkeeping).
    wall_time: float = 0.0
    cpu_time: float = 0.0
    #: The pool's width when some chain ran on it, else 1 (inline, or a
    #: batch the cache and dedup settled, reported as an inline replay).
    workers: int = 1
    #: Fraction of the dispatch wall-time each worker spent proving.
    worker_utilization: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def dedup_replayed(self) -> int:
        """Sequents answered by the dedup pre-pass (a duplicate of an earlier
        sequent in the batch, by structural digest): their verdicts were
        fanned out from the representative's, not computed."""
        return sum(1 for outcome in self.outcomes if outcome.dedup_replay)

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

    def split(self, sizes: Sequence[int]) -> List["DispatchResult"]:
        """The outcomes cut into consecutive slices of ``sizes``, each
        accounted as a batch of its own (prover stats, cache hits and misses,
        CPU time, dedup replays), e.g. one slice per method of a class
        proved in one dispatch.  Every part keeps the whole dispatch's wall
        time, width and utilization: its slice shared them."""
        # Misses are counted only when a cache was consulted, and a dispatch
        # without live answers has none in any slice either way.
        cache_enabled = self.cache_stats.misses > 0
        parts: List[DispatchResult] = []
        start = 0
        for size in sizes:
            part = DispatchResult(
                total_time=self.total_time, wall_time=self.wall_time, workers=self.workers,
                worker_utilization=dict(self.worker_utilization),
            )
            _merge_outcomes(part, self.outcomes[start:start + size], cache_enabled)
            parts.append(part)
            start += size
        return parts


# ---------------------------------------------------------------------------
# The pre-pass: dedup
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
        sequent, representative.proved, representative.prover, answers,
        budget_exhausted=representative.budget_exhausted, dedup_replay=True,
    )


def _fan_out_duplicates(
    sequents: Sequence[Sequent], rep: Sequence[int], outcomes: List[Optional[SequentOutcome]]
) -> None:
    """Fill each duplicate's empty slot in ``outcomes`` with a replay of its
    representative's outcome (see :func:`_replayed_outcome`)."""
    for index, sequent in enumerate(sequents):
        if outcomes[index] is None:
            outcomes[index] = _replayed_outcome(sequent, outcomes[rep[index]])


# ---------------------------------------------------------------------------
# The prover chain on one sequent (shared by every executor)
# ---------------------------------------------------------------------------


def _cache_scan(
    cache: Optional[SequentCache], sequent: Sequent, signatures: Sequence[Tuple[str, str]]
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
    ordering: ProverOrdering, sequent: Sequent, names: Sequence[str], live: Sequence[int]
) -> Tuple[str, List[int], List[float]]:
    """The sequent's feature bucket, its live provers in learned order, and
    each ranked prover's first-pass slice (:meth:`ProverOrdering.slice_of`).

    Called only once the cache scan has left provers to run, so a sequent
    settled by dedup or the cache never pays for
    :func:`sequent_features`.
    """
    bucket = sequent_features(sequent)
    order = ordering.rank_bucket(bucket, [names[index] for index in live])
    ranked = [live[position] for position in order]
    return bucket, ranked, [ordering.slice_of(bucket, names[index]) for index in ranked]


def _settled_outcome(sequent: Sequent, answers: List[ProverAnswer]) -> SequentOutcome:
    """The outcome ``answers`` decide: a chain stops at the answer that
    settles it, so only the last can (a cache scan's replays, or the cached
    prefix and live answers of a chain run on the pool)."""
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


def _attempt(
    prover: Prover, sequent: Sequent, deadline: Deadline, slice_: Optional[float]
) -> ProverAnswer:
    """One turn of ``prover`` in the chain, under its first-pass slice when
    one is given and it is shorter than the prover's timeout (otherwise the
    prover runs unsliced).

    An answer that does not settle the sequent and comes back after the
    slice ran out, while the chain deadline still has budget, is a *slice
    cut*: marked ``truncated`` (so no cache stores it) and ``slice_cut``
    (so the table learns it as an unproved attempt, and the chain runs the
    prover again with its full timeout).  A slice that would end after the
    chain deadline is clipped to it, so it never cuts.  Not only a
    ``TIMEOUT`` is cut: an engine may give up early on an expired deadline,
    as SMT's countermodel search does.
    """
    if slice_ is None or slice_ >= prover.timeout:
        return prover.prove(sequent, deadline=deadline)
    sliced = deadline.bounded_by(slice_)
    answer = prover.prove(sequent, deadline=sliced)
    if not answer.settles and sliced.expired() and not deadline.expired():
        answer.truncated = answer.slice_cut = True
    return answer


def _run_prover_chain(
    provers: Sequence[Prover],
    sequent: Sequent,
    cache: Optional[SequentCache] = None,
    sequent_budget: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    ordering: Optional[ProverOrdering] = None,
    slices: Optional[Sequence[Optional[float]]] = None,
) -> SequentOutcome:
    """Offer one sequent to the portfolio: cached verdicts first (see
    :func:`_cache_scan`), then the live provers in the order ``ordering``
    ranks them for the sequent's feature bucket until one settles it.  Every
    live answer teaches the table as it lands, so the next sequent of the
    bucket — even in the same batch — already benefits.

    The live provers run on a two-pass budget schedule.  Pass 1 gives each
    its first-pass slice (from ``ordering``, or ``slices`` when a process
    worker runs a chain the parent ranked); pass 2 re-runs, in ranked
    order, only the provers a slice cut off (see :func:`_attempt`), with
    their full timeout.  So a sequent a later prover proves quickly no
    longer waits out an earlier prover's whole timeout, and since every
    prover still gets its full timeout, the order and the slices decide the
    cost, never which sequents prove.

    ``sequent_budget`` becomes one :class:`Deadline` shared by the whole
    chain, bounded further by the outer (request-level) ``deadline``: each
    prover runs under the earlier of it and its own timeout, so a stuck
    decision procedure is cut off mid-flight (a cooperative ``TIMEOUT``) and
    the next prover still gets its turn while budget remains.  Once it
    passes, the outcome is marked ``budget_exhausted``.
    """
    deadline = (deadline or Deadline.never()).bounded_by(sequent_budget)
    signatures = [(prover.name, prover.options_signature()) for prover in provers]
    replayed, live, settled = _cache_scan(cache, sequent, signatures)
    if settled:
        return _settled_outcome(sequent, replayed)
    outcome = SequentOutcome(sequent=sequent, proved=False, answers=replayed)
    bucket: Optional[str] = None
    if ordering is not None:
        bucket, live, slices = _ranked(ordering, sequent, [name for name, _ in signatures], live)

    # Pass 2 is filled while pass 1 runs: the provers a slice cut off.
    passes = [list(zip(live, slices or [None] * len(live))), []]
    for scheduled in passes:
        for index, slice_ in scheduled:
            if deadline.expired():
                outcome.budget_exhausted = True
                return outcome
            prover = provers[index]
            answer = _attempt(prover, sequent, deadline, slice_)
            if cache is not None and answer.storable:
                # Not ``storable``: an internal error, or a *truncated*
                # answer — a slice cut, or a TIMEOUT the chain deadline
                # clipped below the prover's configured timeout (the option
                # that keys the entry).  It reflects the budget, not the
                # prover, and would poison later runs that grant the full
                # timeout.  A TIMEOUT that had its whole configured budget
                # is a genuine verdict and stays cacheable.
                cache.store(sequent, prover.name, answer, prover.options_signature())
            if ordering is not None:
                ordering.observe(sequent, answer, bucket)
            outcome.answers.append(answer)
            if _settle(outcome, answer):
                return outcome
            if answer.slice_cut:
                passes[1].append((index, None))
    return outcome


def _merge_outcomes(
    result: DispatchResult, outcomes: Sequence[SequentOutcome], cache_enabled: bool
) -> None:
    """Fold outcomes into ``result`` in the original sequent order.

    Statistics are recorded answer by answer in sequent order, whatever
    order the executor finished them in, which keeps per-prover
    attempted/proved/time identical between executors.  Cached answers
    count as cache hits and are never recorded in :class:`ProverStats` (the
    prover did not run); live answers count as misses (when a cache was
    consulted) and accumulate per-prover statistics and CPU time.
    """
    for outcome in outcomes:
        result.outcomes.append(outcome)
        for answer in outcome.answers:
            if answer.cached:
                result.cache_stats.hits += 1
                continue
            result.stats.setdefault(answer.prover, ProverStats()).record(answer)
            if cache_enabled:
                result.cache_stats.misses += 1
            result.cpu_time += answer.time


# ---------------------------------------------------------------------------
# The dispatcher
# ---------------------------------------------------------------------------


#: Cap on the portfolios a pool process keeps, one per distinct
#: ``DispatchConfig``: the LRU below keeps a long-lived farm serving many
#: prover configurations at bounded memory.
_MAX_CACHED_PORTFOLIOS = 32

#: Per-worker-process portfolio cache (LRU by config key): building provers
#: once per process instead of once per sequent task keeps per-task overhead
#: negligible for fine-grained sequents.
_PROCESS_PORTFOLIOS: "OrderedDict[str, List[Prover]]" = OrderedDict()


def _process_worker_chain(
    payload: Tuple[
        DispatchConfig, Optional[float], Sequent, Sequence[int], Sequence[Optional[float]]
    ]
) -> Tuple[List[ProverAnswer], bool]:
    """The chain inside a process-pool worker (a picklable top-level
    function), over exactly the provers ``order`` lists, under the
    first-pass ``slices`` beside them: the parent has already cache-scanned
    the sequent, ranked its open provers and looked up their slices.

    Returns the chain's live answers and whether its budget ran out, not the
    outcome: the parent holds the sequent, and shipping it back would make
    the parent unpickle a copy of every formula in it."""
    config, sequent_budget, sequent, order, slices = payload
    key = config.key()
    provers = _PROCESS_PORTFOLIOS.get(key)
    if provers is None:
        provers = _PROCESS_PORTFOLIOS[key] = config.make_provers()
        while len(_PROCESS_PORTFOLIOS) > _MAX_CACHED_PORTFOLIOS:
            _PROCESS_PORTFOLIOS.popitem(last=False)
    else:
        _PROCESS_PORTFOLIOS.move_to_end(key)
    outcome = _run_prover_chain(
        [provers[index] for index in order], sequent, sequent_budget=sequent_budget,
        slices=slices,
    )
    return outcome.answers, outcome.budget_exhausted


class Dispatcher:
    """Runs the prover portfolio over a batch of sequents.

    ``provers`` is a :class:`DispatchConfig`, or a list of prover instances
    for inline dispatch of a custom portfolio; ``settings`` override fields
    of the config (``Dispatcher(provers, dedup=True)``).  A prover list
    cannot be rebuilt inside pool workers, so it dispatches inline only.

    The learned :class:`ProverOrdering` is the cache's, so it lives as long
    as the verdicts it was learned from; without a cache the dispatcher
    learns in a fresh in-memory table.  ``ordering=`` overrides either.

    Executors: with ``workers=1`` and no lent pool the chains run inline on
    one portfolio built with the dispatcher; each chain scans and ranks when
    it starts, so each answer already reorders the next sequent of its
    bucket.  Otherwise the chains run on a process pool, which scales
    across cores, with at most ``workers`` chains in flight: the cache and
    the ordering table stay in this process, which cache-scans and ranks
    each open sequent when a worker frees up for it and stores and learns
    from each chain's answers as it completes.  A sequent then misses the
    answers of at most ``workers - 1`` chains still running, so which
    prover gets credit for it may differ from an inline run — which
    sequents prove never does.

    ``executor=`` lends the dispatcher a long-lived ``ProcessPoolExecutor``
    instead of building one per :meth:`prove_all`; a lent pool is used even
    with one worker.  It is never shut down here — the owner (e.g. the
    verify daemon's prover farm, shared by every batch lane) manages its
    lifetime — and its processes persist across batches, so their
    portfolio caches are built once and reused.
    """

    def __init__(
        self,
        provers: Union[DispatchConfig, Sequence[Prover]],
        cache: Optional[SequentCache] = None,
        *,
        ordering: Optional[ProverOrdering] = None,
        executor: Optional[Executor] = None,
        **settings,
    ) -> None:
        if isinstance(provers, DispatchConfig):
            self.config = dataclasses.replace(provers, **settings)
            self._portfolio = self.config.make_provers()
        else:
            self._portfolio = list(provers)
            self.config = DispatchConfig(tuple(p.name for p in self._portfolio), **settings)
            if self.config.workers > 1 or executor is not None:
                raise ValueError(
                    "a prover list dispatches inline; pass a DispatchConfig to use a pool"
                )
        self.cache = cache
        self.executor = executor
        self.ordering = ordering if ordering is not None else (
            cache.ordering if cache is not None else ProverOrdering()
        )

    def prove_all(
        self, sequents: Sequence[Sequent], deadline: Optional[Deadline] = None
    ) -> DispatchResult:
        """Prove a batch; outcomes come back in sequent order.  ``deadline``
        is an optional *batch-level* bound (e.g. a request budget): every
        chain runs under the earlier of it and the per-sequent budget, and
        sequents reached after it passes come back ``budget_exhausted``."""
        return self._prove_all(sequents, deadline)

    def _prove_all(
        self, sequents: Sequence[Sequent], deadline: Optional[Deadline]
    ) -> DispatchResult:
        """The one dispatch body: pre-pass, executor, merge."""
        start = time.perf_counter()
        result = DispatchResult()
        rep = _dedup_representatives(sequents) if self.config.dedup else None
        outcomes: List[Optional[SequentOutcome]] = [None] * len(sequents)
        # Duplicates are fanned out from their representative below.  The
        # open sequents start largest first (most assumptions; a stable sort
        # keeps ties in sequent order), so the batch's long chains do not
        # start last and leave one worker to finish them alone.
        open_indices = sorted(
            (index for index in range(len(sequents)) if rep is None or rep[index] == index),
            key=lambda index: -len(sequents[index].assumptions),
        )

        busy: Dict[str, float] = {}
        if self.executor is None and self.config.workers == 1:
            for index in open_indices:
                outcomes[index] = _run_prover_chain(
                    self._portfolio, sequents[index], self.cache,
                    self.config.sequent_budget, deadline=deadline, ordering=self.ordering,
                )
        else:
            busy = self._run_processes(sequents, open_indices, outcomes, deadline)
            # A dispatch the cache and dedup settled ran no chain on the pool,
            # and reports what an inline one would: one worker.
            if busy:
                result.workers = self.config.workers

        _fan_out_duplicates(sequents, rep, outcomes)
        _merge_outcomes(result, outcomes, self.cache is not None)
        # Persist the learned ordering once per batch, when it has a path and
        # learned anything new (the chains record every answer as it lands).
        if self.ordering.dirty and self.ordering.path:
            self.ordering.save()
        result.total_time = result.wall_time = time.perf_counter() - start
        if result.wall_time > 0:
            result.worker_utilization = {
                worker: elapsed / result.wall_time for worker, elapsed in sorted(busy.items())
            }
        return result

    def _run_processes(self, sequents, indices, outcomes, deadline) -> Dict[str, float]:
        """Run the open sequents' chains on the process pool, at most
        ``workers`` at a time, and return the pool's busy time (empty when
        no chain ran on it; a pool of our own is only built for a chain).

        The cache and the ordering table stay in this process.  A sequent is
        cache-scanned and ranked only when a worker is free for it, and each
        chain's answers are stored and learned as soon as it completes, so
        every sequent is ranked after all earlier answers but those of at
        most ``workers - 1`` chains still running.  A sequent reached after
        the batch ``deadline`` passed comes back ``budget_exhausted`` and
        never takes a worker.
        """
        signatures = [(p.name, p.options_signature()) for p in self._portfolio]
        names = [name for name, _ in signatures]
        queue = deque(indices)
        # future -> (sequent index, cached answers, feature bucket)
        running: Dict[Future, Tuple[int, List[ProverAnswer], str]] = {}
        submitted = False
        busy = 0.0
        # A lent pool outlives the batch; a pool of our own is shut down with it.
        with ExitStack() as scope:
            pool = self.executor
            while True:
                while queue and len(running) < self.config.workers:
                    index = queue.popleft()
                    sequent = sequents[index]
                    answers, live, settled = _cache_scan(self.cache, sequent, signatures)
                    if settled:
                        outcomes[index] = _settled_outcome(sequent, answers)
                        continue
                    if deadline is not None and deadline.expired():
                        outcomes[index] = SequentOutcome(
                            sequent, proved=False, answers=answers, budget_exhausted=True
                        )
                        continue
                    bucket, live, slices = _ranked(self.ordering, sequent, names, live)
                    # A Deadline cannot cross the process boundary (its expiry
                    # instant is this process's monotonic clock), so the batch
                    # deadline clips the worker's sequent budget here.
                    budget = self.config.sequent_budget
                    if deadline is not None:
                        budget = deadline.bounded_by(budget).remaining()
                    if pool is None:
                        pool = scope.enter_context(
                            ProcessPoolExecutor(max_workers=self.config.workers)
                        )
                    payload = (self.config, budget, sequent, live, slices)
                    running[pool.submit(_process_worker_chain, payload)] = (index, answers, bucket)
                    submitted = True
                if not running:
                    return {"process-pool-avg": busy} if submitted else {}
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in sorted(done, key=lambda done_future: running[done_future][0]):
                    index, prefix, bucket = running.pop(future)
                    fresh, budget_exhausted = future.result()
                    # The pool does not reveal which process ran the task, so
                    # report the *average* per-worker busy fraction: total
                    # prover time spread across the pool (keeps the "fraction
                    # of wall-time" semantics, never exceeding ~1).
                    busy += sum(a.time for a in fresh) / self.config.workers
                    # Store the fresh verdicts here and teach the ordering.
                    # The pickled answer carries what ``storable`` and
                    # ``observe`` read, so the rules of the in-process chain
                    # apply: slice cuts, budget-clipped TIMEOUTs and internal
                    # errors are never stored, and slice cuts are learned as
                    # unproved attempts.
                    for answer in fresh:
                        if self.cache is not None and answer.storable:
                            signature = signatures[names.index(answer.prover)][1]
                            self.cache.store(sequents[index], answer.prover, answer, signature)
                        self.ordering.observe(sequents[index], answer, bucket)
                    outcomes[index] = _settled_outcome(sequents[index], prefix + fresh)
                    outcomes[index].budget_exhausted = budget_exhausted


class ParallelDispatcher(Dispatcher):
    """The verify daemon's farm dispatcher: a :class:`Dispatcher` under its
    own name whose ``prove_all`` never passes through
    :meth:`Dispatcher.prove_all`, so a farm batch is told apart from a local
    dispatch (and counted once) by whatever instruments either entry."""

    def prove_all(
        self, sequents: Sequence[Sequent], deadline: Optional[Deadline] = None
    ) -> DispatchResult:
        return self._prove_all(sequents, deadline)
