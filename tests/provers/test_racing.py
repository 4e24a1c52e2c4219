"""Racing dispatch (race=K): deterministic winners, prompt cancellation via
the shared-token Deadline contract, CANCELLED accounting (never cached,
never a cache miss), wave fall-through completeness, and cross-backend
stats parity on a seeded corpus.

The scripted provers here exercise the racing machinery with controlled
timing; the cross-backend property tests use the real portfolio so the
process backend (which rebuilds provers from the registry) is covered too.
"""

import random
import threading
import time

import pytest

from repro.form.parser import parse_formula as parse
from repro.provers.base import Deadline, Prover, ProverAnswer, Verdict
from repro.provers.cache import SequentCache
from repro.provers.dispatcher import (
    Dispatcher,
    ParallelDispatcher,
    _run_prover_chain,
    make_provers,
)
from repro.provers.ordering import ProverOrdering
from repro.vcgen.sequent import sequent

#: Scheduling slack tolerated by the timing assertions below.
EPSILON = 0.25


# -- scripted provers ---------------------------------------------------------


class InstantProver(Prover):
    """Proves every sequent immediately, without ever polling the deadline."""

    name = "instant"

    def __init__(self, timeout: float = 10.0, verdict: Verdict = Verdict.PROVED):
        super().__init__(timeout=timeout)
        self.verdict = verdict

    def attempt(self, sequent, deadline=None):
        return ProverAnswer(self.verdict, self.name)


class InstantProver2(InstantProver):
    name = "instant2"


class SlowProver(Prover):
    """Grinds in small checkpointed steps until it proves (or is stopped).

    ``grind`` is how long the prover needs before it would answer PROVED;
    the checkpoint poll every ``step`` seconds is its cancellation
    granularity.
    """

    name = "slow"
    grind = 5.0
    step = 0.005
    final = Verdict.PROVED

    def attempt(self, sequent, deadline=None):
        elapsed = 0.0
        while elapsed < self.grind:
            deadline.checkpoint(detail=f"{elapsed:.3f}s ground")
            time.sleep(self.step)
            elapsed += self.step
        return ProverAnswer(self.final, self.name)


class FastProver(Prover):
    """Proves after a short checkpointed delay (long enough to overlap)."""

    name = "fast"
    delay = 0.15

    def attempt(self, sequent, deadline=None):
        elapsed = 0.0
        while elapsed < self.delay:
            deadline.checkpoint()
            time.sleep(0.005)
            elapsed += 0.005
        return ProverAnswer(Verdict.PROVED, self.name)


class UnknownProver(Prover):
    name = "unknown1"

    def attempt(self, sequent, deadline=None):
        return ProverAnswer(Verdict.UNKNOWN, self.name)


class UnknownProver2(UnknownProver):
    name = "unknown2"


def _seq(tag="p"):
    return sequent([parse(tag)], parse(tag))


# -- deterministic winners ----------------------------------------------------


def test_race_winner_is_wave_order_not_completion_order():
    """Both racers prove; the rank-0 prover must win every time, however the
    threads are actually scheduled."""
    for _ in range(5):
        outcome = _run_prover_chain(
            [InstantProver(), InstantProver2()], _seq(), race=2, stagger=0.0
        )
        assert outcome.proved and outcome.prover == "instant"


def test_single_prover_wave_is_not_a_race():
    result = Dispatcher([InstantProver()], race=2).prove_all([_seq()])
    assert result.proved == 1
    assert result.races_run == 0
    assert result.race_wins == {}
    assert result.cancelled_answers == 0


def test_race_falls_through_waves_to_later_provers():
    """A wave with no proof must not settle the sequent: the chain falls
    through until some prover proves, keeping proved counts identical to
    fixed-order dispatch."""
    provers = [UnknownProver(), UnknownProver2(), InstantProver()]
    result = Dispatcher(provers, race=2, race_stagger=0.0).prove_all([_seq()])
    (outcome,) = result.outcomes
    assert outcome.proved and outcome.prover == "instant"
    verdicts = {a.prover: a.verdict for a in outcome.answers}
    assert verdicts["unknown1"] is Verdict.UNKNOWN
    assert verdicts["unknown2"] is Verdict.UNKNOWN


# -- cancellation -------------------------------------------------------------


def test_losing_racer_is_cancelled_and_reclaims_budget():
    slow, fast = SlowProver(timeout=10.0), FastProver(timeout=10.0)
    result = Dispatcher([slow, fast], race=2, race_stagger=0.01).prove_all([_seq()])
    (outcome,) = result.outcomes
    assert outcome.proved and outcome.prover == "fast"
    assert outcome.race_won_by == "fast"
    slow_answer = next(a for a in outcome.answers if a.prover == "slow")
    assert slow_answer.verdict is Verdict.CANCELLED
    # The slow prover had a 10s slice and burned well under a second of it.
    assert outcome.reclaimed > 8.0
    assert result.races_run == 1
    assert result.race_wins == {"fast": 1}
    assert result.cancelled_answers == 1
    # Cancelled attempts are not Figure 7 attempts: only the dedicated
    # counter moves, and the winner's stats are untouched by the loss.
    assert result.stats["slow"].cancelled == 1
    assert result.stats["slow"].attempted == 0
    assert result.stats["fast"].attempted == 1
    assert result.stats["fast"].proved == 1


def test_no_prover_overruns_cancellation_beyond_checkpoint_granularity():
    """Once the winner proves, every loser must unwind within its checkpoint
    polling interval (plus scheduling slack) — not run out its own budget."""
    slow, fast = SlowProver(timeout=30.0), FastProver(timeout=10.0)
    start = time.perf_counter()
    outcome = _run_prover_chain([slow, fast], _seq(), race=2, stagger=0.01)
    elapsed = time.perf_counter() - start
    assert outcome.proved and outcome.prover == "fast"
    slow_answer = next(a for a in outcome.answers if a.prover == "slow")
    assert slow_answer.verdict is Verdict.CANCELLED
    # The whole wave (winner's delay + loser unwinding) settles promptly:
    # nowhere near the slow prover's 5s grind, let alone its 30s budget.
    assert elapsed <= FastProver.delay + EPSILON
    assert slow_answer.time <= FastProver.delay + EPSILON


def test_cancelled_unwind_carries_cancelled_verdict_not_timeout():
    """Cancellation must surface as CANCELLED (never cached), not TIMEOUT
    (cacheable): the deadline had time left when the token fired."""
    cancel = threading.Event()
    deadline = Deadline.after(60.0).with_cancel(cancel)
    cancel.set()
    answer = SlowProver(timeout=60.0).prove(_seq(), deadline=deadline)
    assert answer.verdict is Verdict.CANCELLED
    assert not answer.truncated


# -- CANCELLED and the cache --------------------------------------------------


def test_cancelled_answers_never_cached_and_never_a_miss():
    cache = SequentCache()
    slow, fast = SlowProver(timeout=10.0), FastProver(timeout=10.0)
    seq = _seq()
    result = Dispatcher([slow, fast], race=2, race_stagger=0.01, cache=cache).prove_all([seq])
    (outcome,) = result.outcomes
    assert any(a.verdict is Verdict.CANCELLED for a in outcome.answers)
    # The loser's cancellation left no cache entry behind...
    assert cache.lookup(seq, "slow", slow.options_signature()) is None
    # ...and was not billed as a miss either: only the winner's live proof
    # missed (and was then stored).
    assert result.cache_stats.misses == 1
    assert result.cache_stats.hits == 0
    entry = cache.lookup(seq, "fast", fast.options_signature())
    assert entry is not None and entry.verdict is Verdict.PROVED


def test_cache_store_refuses_cancelled_verdicts():
    cache = SequentCache()
    assert not cache.store(
        _seq(), "slow", ProverAnswer(Verdict.CANCELLED, "slow")
    )


def test_warm_cache_settles_without_racing():
    """A cached PROVED anywhere in the ranked order wins outright: the warm
    rerun races nothing, cancels nothing and runs no prover."""
    cache = SequentCache()
    provers = [SlowProver(timeout=10.0), FastProver(timeout=10.0)]
    seq = _seq()
    Dispatcher(provers, race=2, race_stagger=0.01, cache=cache).prove_all([seq])
    warm = Dispatcher(provers, race=2, race_stagger=0.01, cache=cache).prove_all([seq])
    assert warm.proved == 1
    assert warm.proved_from_cache == 1
    assert warm.races_run == 0
    assert warm.cancelled_answers == 0
    assert not warm.stats


def test_contended_wave_timeouts_are_truncated_and_not_cached():
    """A TIMEOUT under wave contention reflects the race (the racers share
    the interpreter), not the prover's configured budget: it must carry the
    truncated flag and stay out of the cache."""

    class TimingOut(SlowProver):
        name = "timingout"
        final = Verdict.PROVED  # never reached: timeout fires first

    cache = SequentCache()
    timingout = TimingOut(timeout=0.08)
    fast = FastProver(timeout=10.0)
    seq = _seq()
    result = Dispatcher(
        [timingout, fast], race=2, race_stagger=0.0, cache=cache
    ).prove_all([seq])
    (outcome,) = result.outcomes
    answer = next(a for a in outcome.answers if a.prover == "timingout")
    assert answer.verdict is Verdict.TIMEOUT
    assert answer.truncated
    assert cache.lookup(seq, "timingout", timingout.options_signature()) is None


# -- dedup fan-out ------------------------------------------------------------


def test_dedup_replay_drops_cancelled_answers():
    """Duplicates of a raced representative replay its real verdicts only:
    no phantom cancellations are fabricated on the fan-out."""
    slow, fast = SlowProver(timeout=10.0), FastProver(timeout=10.0)
    batch = [_seq(), _seq()]  # identical digests
    result = Dispatcher(
        [slow, fast], race=2, race_stagger=0.01, dedup=True
    ).prove_all(batch)
    assert result.dedup_replayed == 1
    assert result.cancelled_answers == 1  # the representative's only
    duplicate = result.outcomes[1]
    assert duplicate.proved
    assert all(a.verdict is not Verdict.CANCELLED for a in duplicate.answers)
    assert all(a.cached for a in duplicate.answers)


# -- learned ordering in the racing chain -------------------------------------


def test_learned_ordering_reorders_the_race():
    """A table that knows the portfolio-last prover always wins must rank it
    into the first wave, where it settles the sequent immediately."""
    ordering = ProverOrdering()
    seq = _seq()
    provers = [UnknownProver(), UnknownProver2(), InstantProver()]
    from repro.provers.ordering import sequent_features

    bucket = sequent_features(seq)
    ordering.observe_outcome(bucket, "instant", proved=True, time=0.001)
    outcome = _run_prover_chain(provers, seq, ordering=ordering)
    assert outcome.proved and outcome.prover == "instant"
    # Rank-first instant proved in the first (single-prover) wave: the
    # unknowns were never consulted at all.
    assert [a.prover for a in outcome.answers] == ["instant"]


def test_dispatcher_observes_outcomes_into_ordering():
    ordering = ProverOrdering()
    Dispatcher(
        [UnknownProver(), InstantProver()], race=2, race_stagger=0.0,
        ordering=ordering,
    ).prove_all([_seq()])
    assert ordering.bucket_count() == 1
    names = ["unknown1", "instant"]
    from repro.provers.ordering import sequent_features

    ranked = ordering.rank_bucket(sequent_features(_seq()), names)
    assert ranked[0] == 1  # instant has the only proof record


# -- cross-backend determinism (seeded corpus) --------------------------------

PROVERS = ["syntactic", "smt"]
OPTIONS = {"smt": {"timeout": 2.0}}

#: Formula templates mixing syntactic-provable, smt-provable and unprovable
#: shapes; the seeded corpus below draws from these.
_TEMPLATES = [
    lambda k: sequent([parse(f"p{k}")], parse(f"p{k}")),
    lambda k: sequent([parse(f"a{k} < b{k}"), parse(f"b{k} < c{k}")], parse(f"a{k} < c{k}")),
    lambda k: sequent([parse(f"x{k} = y{k}")], parse(f"y{k} = x{k}")),
    lambda k: sequent([], parse(f"q{k}")),  # unprovable
    lambda k: sequent([parse(f"u{k} : A Un {{}}")], parse(f"u{k} : A")),
]


def _seeded_corpus(seed, count=10):
    rng = random.Random(seed)
    return [rng.choice(_TEMPLATES)(rng.randrange(4)) for _ in range(count)]


def _shape(result):
    return [(o.proved, o.prover) for o in result.outcomes]


def _stat_counts(result):
    return {name: (s.attempted, s.proved) for name, s in result.stats.items()}


def _race_counters(result):
    return (
        result.races_run,
        dict(result.race_wins),
        result.cancelled_answers,
        result.proved,
    )


def _proved(result):
    return [o.proved for o in result.outcomes]


@pytest.mark.parametrize("seed", [7, 1009])
def test_racing_stats_identical_across_backends(seed):
    """The seeded-corpus determinism property.  At ``workers=1`` sequential
    and thread-parallel racing dispatch agree on outcomes, per-prover stats
    and the racing counters (merge order is the sequent order, the learned
    ordering sees the answers in the same order, and winners are
    wave-deterministic).  With ``workers > 1`` the ordering learns in
    completion order — the process backend ranks a whole batch at submit
    time — so credit may move between provers, but both parallel backends
    still prove exactly the sequents the serial run proves."""
    corpus = _seeded_corpus(seed)
    sequential = Dispatcher(
        make_provers(PROVERS, **OPTIONS), race=2
    ).prove_all(corpus)
    single = ParallelDispatcher.from_names(
        PROVERS, workers=1, backend="thread", race=2, **OPTIONS
    ).prove_all(corpus)
    assert _shape(single) == _shape(sequential)
    assert _stat_counts(single) == _stat_counts(sequential)
    assert _race_counters(single) == _race_counters(sequential)
    for backend in ("thread", "process"):
        parallel = ParallelDispatcher.from_names(
            PROVERS, workers=2, backend=backend, race=2, **OPTIONS
        ).prove_all(corpus)
        assert _proved(parallel) == _proved(sequential)


class _PortfolioOrder(ProverOrdering):
    """A table that never reorders: Jahob's fixed, user-given order."""

    def rank_bucket(self, bucket, provers):
        return list(range(len(provers)))


@pytest.mark.parametrize("seed", [23])
def test_racing_proves_exactly_what_fixed_order_proves(seed):
    """Neither the learned order nor racing changes *what* is proved — only
    how fast: every prover still gets its turn until one proves."""
    corpus = _seeded_corpus(seed, count=12)
    fixed = Dispatcher(
        make_provers(PROVERS, **OPTIONS), ordering=_PortfolioOrder()
    ).prove_all(corpus)
    ordered = Dispatcher(make_provers(PROVERS, **OPTIONS)).prove_all(corpus)
    racing = Dispatcher(make_provers(PROVERS, **OPTIONS), race=2).prove_all(corpus)
    assert ordered.proved == racing.proved == fixed.proved
    assert _proved(ordered) == _proved(racing) == _proved(fixed)


#: Cheap suite methods (a few seconds in all) for the suite-level check.
CHEAP_METHODS = [
    ("SizedList", "size"),
    ("SizedList", "clear"),
    ("ArrayList", "size"),
    ("SinglyLinkedList", "clear"),
    ("CursorList", "done"),
]


def test_learned_order_proves_the_fixed_order_set_on_cheap_methods():
    """Suite obligations: the learned order proves sequent for sequent what
    the portfolio order proves."""
    from repro import suite
    from repro.java.resolver import parse_program
    from repro.vcgen.vcgen import generate_method_vc

    names = ["syntactic", "smt", "fol", "mona", "bapa"]
    options = {"smt": {"timeout": 3.0}, "fol": {"timeout": 1.5}}
    fixed = Dispatcher(make_provers(names, **options), ordering=_PortfolioOrder())
    ordered = Dispatcher(make_provers(names, **options))
    for structure, method in CHEAP_METHODS:
        program = parse_program(suite.source(structure))
        sequents = generate_method_vc(program, structure, method).sequents
        assert _proved(ordered.prove_all(sequents)) == _proved(
            fixed.prove_all(sequents)
        ), f"{structure}.{method}"


def test_race_through_verify_keeps_report_counts():
    from repro import suite, verify

    source = suite.source("SizedList")
    kwargs = dict(
        class_name="SizedList", method="size", provers=["smt"],
        prover_options=OPTIONS,
    )
    fixed = verify(source, **kwargs)
    raced = verify(source, race=2, **kwargs)
    assert raced.proved_sequents == fixed.proved_sequents
    assert raced.total_sequents == fixed.total_sequents
