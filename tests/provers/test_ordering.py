"""The learned prover ordering: feature buckets, the three-tier deterministic
ranking, JSON persistence (including concurrent saves), which answers teach
it anything, how the dispatch chain learns from each answer, the sequential
chain itself (first proof wins, fall-through, budget cut-off, cache replay),
the two-pass budget schedule (slice cuts, pass 2, executor parity), and that
the learned order and the slices change the cost of a run, never which
sequents prove."""

import json
import random
import time
from concurrent.futures import Executor, Future
from dataclasses import dataclass

import pytest

from repro.form.parser import parse_formula as parse
from repro.provers.base import Deadline, Prover, ProverAnswer, Seconds, Verdict, registry
from repro.provers.cache import SequentCache
from repro.provers.dispatcher import (
    DispatchConfig,
    Dispatcher,
    _run_prover_chain,
    make_provers,
)
from repro.provers.ordering import (
    DEFAULT_FILENAME,
    FORMAT_VERSION,
    SLICE_FACTOR,
    SLICE_FLOOR,
    ProverOrdering,
    sequent_features,
)
from repro.vcgen.sequent import sequent

NAMES = ["syntactic", "smt", "fol", "mona"]


# -- feature extraction -------------------------------------------------------


def test_features_are_stable_and_readable():
    seq = sequent([parse("x : A")], parse("x : B"))
    key = sequent_features(seq)
    assert key == sequent_features(seq)
    assert key.startswith("head=elem;")
    assert ";frag=set;" in key
    assert key.endswith(";asm=1-3;qd=0")


def test_features_track_goal_head_and_fragments():
    arith = sequent([parse("a < b")], parse("a + 1 <= b"))
    card = sequent([], parse("card(S) >= 0"))
    quant = sequent([], parse("ALL x. x : A --> x : A"))
    assert "head=lte" in sequent_features(arith)
    assert "frag=arith" in sequent_features(arith)
    assert "card" in sequent_features(card)
    assert "head=all" in sequent_features(quant)
    assert "qd=1" in sequent_features(quant)


def test_alpha_variants_share_a_bucket():
    one = sequent([parse("x$1 : A")], parse("x$1 : B"))
    two = sequent([parse("x$9 : A")], parse("x$9 : B"))
    assert sequent_features(one) == sequent_features(two)


def test_assumption_counts_are_bucketed():
    goal = parse("p")
    few = sequent([parse(f"a{i} < b{i}") for i in range(2)], goal)
    many = sequent([parse(f"a{i} < b{i}") for i in range(20)], goal)
    assert ";asm=1-3;" in sequent_features(few)
    assert ";asm=17+;" in sequent_features(many)


# -- ranking ------------------------------------------------------------------


def test_empty_table_ranks_in_portfolio_order():
    ordering = ProverOrdering()
    seq = sequent([parse("p")], parse("p"))
    assert ordering.rank(seq, NAMES) == [0, 1, 2, 3]


def test_proven_winners_rank_first_by_rate_then_time():
    ordering = ProverOrdering()
    bucket = "head=eq;frag=none;asm=0;qd=0"
    # mona: 2/2 proofs but slow; fol: 2/2 and fast; smt: 1/2.
    for _ in range(2):
        ordering.observe_outcome(bucket, "mona", proved=True, time=1.0)
        ordering.observe_outcome(bucket, "fol", proved=True, time=0.1)
    ordering.observe_outcome(bucket, "smt", proved=True, time=0.1)
    ordering.observe_outcome(bucket, "smt", proved=False, time=0.1)
    ranked = ordering.rank_bucket(bucket, NAMES)
    # fol (rate 1.0, fast) > mona (rate 1.0, slow) > smt (rate 0.5), then
    # syntactic (unknown) keeps its portfolio slot among the rest.
    assert ranked == [2, 3, 1, 0]


def test_hopeless_provers_sink_below_unknowns():
    ordering = ProverOrdering(min_attempts=3)
    bucket = "head=atom;frag=none;asm=0;qd=0"
    for _ in range(3):
        ordering.observe_outcome(bucket, "syntactic", proved=False, time=0.01)
    ranked = ordering.rank_bucket(bucket, NAMES)
    assert ranked == [1, 2, 3, 0]
    # Below min_attempts the same record is still "unknown", not hopeless.
    fresh = ProverOrdering(min_attempts=3)
    fresh.observe_outcome(bucket, "syntactic", proved=False, time=0.01)
    assert fresh.rank_bucket(bucket, NAMES) == [0, 1, 2, 3]


def test_tie_break_is_portfolio_position():
    ordering = ProverOrdering()
    bucket = "head=eq;frag=none;asm=0;qd=0"
    ordering.observe_outcome(bucket, "fol", proved=True, time=0.5)
    ordering.observe_outcome(bucket, "smt", proved=True, time=0.5)
    # Identical rate and mean time: the earlier portfolio slot wins.
    assert ordering.rank_bucket(bucket, NAMES)[:2] == [1, 2]


# -- what teaches the table ---------------------------------------------------


def test_observe_skips_uninformative_answers():
    ordering = ProverOrdering()
    seq = sequent([parse("p")], parse("p"))

    cached = ProverAnswer(Verdict.PROVED, "smt", time=0.0)
    cached.cached = True
    ordering.observe(seq, cached)

    truncated = ProverAnswer(Verdict.TIMEOUT, "smt", time=0.1)
    truncated.truncated = True
    ordering.observe(seq, truncated)
    assert ordering.bucket_count() == 0
    assert ordering.dirty == 0

    ordering.observe(seq, ProverAnswer(Verdict.PROVED, "smt", time=0.1))
    assert ordering.bucket_count() == 1
    assert ordering.dirty == 1


# -- persistence --------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    path = str(tmp_path / DEFAULT_FILENAME)
    ordering = ProverOrdering(path=path)
    bucket = "head=eq;frag=arith;asm=1-3;qd=0"
    ordering.observe_outcome(bucket, "smt", proved=True, time=0.25)
    ordering.observe_outcome(bucket, "fol", proved=False, time=1.0)
    assert ordering.save()
    assert ordering.dirty == 0

    reloaded = ProverOrdering(path=path)  # __post_init__ loads
    assert reloaded.bucket_count() == 1
    assert reloaded.rank_bucket(bucket, NAMES)[0] == 1
    snap = reloaded.snapshot()[bucket]
    assert snap["smt"]["proved"] == 1
    assert snap["fol"]["attempted"] == 1


def test_wrong_version_and_garbage_files_are_discarded(tmp_path):
    versioned = tmp_path / "old.json"
    versioned.write_text(json.dumps({"version": FORMAT_VERSION + 1, "buckets": {
        "head=eq;frag=none;asm=0;qd=0": {"smt": {"attempted": 1, "proved": 1, "time": 0.1}}
    }}))
    assert ProverOrdering(path=str(versioned)).bucket_count() == 0
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert ProverOrdering(path=str(garbage)).bucket_count() == 0


def test_save_without_path_returns_false():
    ordering = ProverOrdering()
    ordering.observe_outcome("b", "smt", proved=True, time=0.1)
    assert not ordering.save()


def test_dispatch_persists_the_table(tmp_path):
    """End to end: a dispatch with a pathed ordering leaves a valid table on
    disk that a fresh dispatcher loads and ranks from."""
    path = str(tmp_path / DEFAULT_FILENAME)
    corpus = [sequent([parse("a < b"), parse("b < c")], parse("a < c"))]
    Dispatcher(
        make_provers(["syntactic", "smt"], smt={"timeout": 2.0}),
        ordering=ProverOrdering(path=path),
    ).prove_all(corpus)
    reloaded = ProverOrdering(path=path)
    assert reloaded.bucket_count() >= 1
    bucket = sequent_features(corpus[0])
    # smt proved it live; syntactic answered UNKNOWN: smt must rank first.
    assert reloaded.rank_bucket(bucket, ["syntactic", "smt"])[0] == 1


def test_concurrent_saves_never_collide(tmp_path):
    """Daemon lanes are threads of one process and may save the shared table
    at once: every save stages under its own name, so none of them loses its
    staging file to another's ``os.replace``."""
    import threading

    path = str(tmp_path / DEFAULT_FILENAME)
    ordering = ProverOrdering(path=path)
    errors = []
    barrier = threading.Barrier(8)

    def saver(index):
        try:
            barrier.wait()
            for _ in range(20):
                ordering.observe_outcome(f"b{index}", "smt", proved=True, time=0.1)
                ordering.save()
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=saver, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert not list(tmp_path.glob("*.tmp"))
    reloaded = ProverOrdering(path=path)
    assert reloaded.bucket_count() >= 1
    ordering.save()
    assert ProverOrdering(path=path).bucket_count() == 8


# -- learning inside the dispatch chain ---------------------------------------


class _Refuses(Prover):
    name = "refuses"

    def attempt(self, sequent, deadline=None):
        return ProverAnswer(Verdict.UNKNOWN, self.name)


class _Proves(Prover):
    name = "proves"

    def attempt(self, sequent, deadline=None):
        return ProverAnswer(Verdict.PROVED, self.name)


def test_dispatch_learns_within_one_batch():
    """After ``refuses`` fails and ``proves`` proves in a feature bucket, the
    next sequent of that bucket in the *same* batch goes straight to
    ``proves``: each answer is learned as it lands, not at batch end."""
    batch = [sequent([parse(f"p{i}")], parse(f"q{i}")) for i in range(3)]
    assert len({sequent_features(s) for s in batch}) == 1
    result = Dispatcher([_Refuses(), _Proves()]).prove_all(batch)
    assert result.proved == 3
    assert [[a.prover for a in o.answers] for o in result.outcomes] == [
        ["refuses", "proves"], ["proves"], ["proves"],
    ]
    assert (result.stats["refuses"].attempted, result.stats["refuses"].proved) == (1, 0)
    assert (result.stats["proves"].attempted, result.stats["proves"].proved) == (3, 3)


def test_disk_cache_owns_and_persists_the_table(tmp_path):
    """``SequentCache(cache_dir=d)`` learns into ``d/ordering.json``, which a
    new cache over the same directory reloads; the table is not a verdict
    entry of the disk tier, so compaction never evicts it."""
    cache = SequentCache(cache_dir=tmp_path)
    seq = sequent([parse("p")], parse("q"))
    Dispatcher([_Refuses(), _Proves()], cache=cache).prove_all([seq])
    assert (tmp_path / DEFAULT_FILENAME).is_file()
    assert cache.disk_entries() == 2  # the two verdicts, not the table
    assert cache.compact(max_age=0) == 2
    assert cache.disk_entries() == 0
    assert (tmp_path / DEFAULT_FILENAME).is_file()

    reloaded = SequentCache(cache_dir=tmp_path).ordering
    assert reloaded.path == str(tmp_path / DEFAULT_FILENAME)
    assert reloaded.rank(seq, ["refuses", "proves"]) == [1, 0]


def test_dispatcher_without_cache_learns_in_a_fresh_table():
    one, two = Dispatcher([_Proves()]), Dispatcher([_Proves()])
    assert one.ordering is not two.ordering and one.ordering.path is None
    cache = SequentCache()
    assert Dispatcher([_Proves()], cache=cache).ordering is cache.ordering
    assert Dispatcher(DispatchConfig(["syntactic"], workers=2), cache).ordering is cache.ordering
    override = ProverOrdering()
    assert Dispatcher([_Proves()], cache=cache, ordering=override).ordering is override


class _Refuses2(_Refuses):
    name = "refuses2"


def test_learned_ordering_reorders_the_chain():
    """A table that knows the portfolio-last prover always proves ranks it
    first, where it settles the sequent immediately."""
    ordering = ProverOrdering()
    seq = sequent([parse("p")], parse("q"))
    ordering.observe_outcome(sequent_features(seq), "proves", proved=True, time=0.001)
    outcome = _run_prover_chain([_Refuses(), _Refuses2(), _Proves()], seq, ordering=ordering)
    assert outcome.proved and outcome.prover == "proves"
    # The refusing provers were never consulted at all.
    assert [a.prover for a in outcome.answers] == ["proves"]


def test_dispatcher_observes_outcomes_into_ordering():
    ordering = ProverOrdering()
    seq = sequent([parse("p")], parse("q"))
    Dispatcher([_Refuses(), _Proves()], ordering=ordering).prove_all([seq])
    assert ordering.bucket_count() == 1
    ranked = ordering.rank_bucket(sequent_features(seq), ["refuses", "proves"])
    assert ranked[0] == 1  # proves has the only proof record


def test_chain_falls_through_to_later_provers():
    """A prover that fails does not settle the sequent: the chain offers it
    to each prover in turn until one proves, as Jahob's ``-usedp`` does."""
    result = Dispatcher([_Refuses(), _Refuses2(), _Proves()]).prove_all(
        [sequent([parse("p")], parse("q"))]
    )
    (outcome,) = result.outcomes
    assert outcome.proved and outcome.prover == "proves"
    assert [(a.prover, a.verdict) for a in outcome.answers] == [
        ("refuses", Verdict.UNKNOWN),
        ("refuses2", Verdict.UNKNOWN),
        ("proves", Verdict.PROVED),
    ]


def test_warm_cache_runs_no_prover():
    """A cached PROVED anywhere in the ranked order wins outright: the warm
    rerun runs no prover at all."""
    cache = SequentCache()
    provers = [_Refuses(), _Proves()]
    seq = sequent([parse("p")], parse("q"))
    Dispatcher(provers, cache=cache).prove_all([seq])
    warm = Dispatcher(provers, cache=cache).prove_all([seq])
    assert warm.proved == 1
    assert warm.proved_from_cache == 1
    assert not warm.stats


# -- the sequential chain -----------------------------------------------------

#: Scheduling slack tolerated by the timing assertions below.
EPSILON = 0.25


class _Counting(Prover):
    """Answers ``verdict`` immediately and counts how often it was asked."""

    def __init__(self, name, verdict=Verdict.PROVED, timeout=10.0):
        super().__init__(timeout=timeout)
        self.name = name
        self.verdict = verdict
        self.calls = 0

    def attempt(self, sequent, deadline=None):
        self.calls += 1
        return ProverAnswer(self.verdict, self.name)


class _Grinds(Prover):
    """Polls its deadline in small steps and would only answer after
    ``grind`` seconds: whatever budget cuts it off first decides."""

    name = "grinds"
    grind = 5.0
    step = 0.005

    def attempt(self, sequent, deadline=None):
        elapsed = 0.0
        while elapsed < self.grind:
            deadline.checkpoint(detail=f"{elapsed:.3f}s ground")
            time.sleep(self.step)
            elapsed += self.step
        return ProverAnswer(Verdict.PROVED, self.name)


def test_chain_winner_is_the_first_ranked_prover_that_proves():
    """Both provers would prove: the first in rank order wins and the chain
    stops there, so the second is never asked."""
    first, second = _Counting("first"), _Counting("second")
    result = Dispatcher([first, second]).prove_all([sequent([parse("p")], parse("q"))])
    (outcome,) = result.outcomes
    assert outcome.proved and outcome.prover == "first"
    assert (first.calls, second.calls) == (1, 0)
    assert list(result.stats) == ["first"]


@pytest.mark.parametrize("verdict", [Verdict.UNKNOWN, Verdict.UNSUPPORTED, Verdict.TIMEOUT])
def test_every_non_proof_falls_through(verdict):
    """No verdict short of a proof settles the sequent."""
    failing, proving = _Counting("failing", verdict), _Counting("proving")
    outcome = _run_prover_chain([failing, proving], sequent([parse("p")], parse("q")))
    assert outcome.proved and outcome.prover == "proving"
    assert [(a.prover, a.verdict) for a in outcome.answers] == [
        ("failing", verdict), ("proving", Verdict.PROVED),
    ]
    assert not outcome.budget_exhausted


def test_expired_chain_budget_skips_the_remaining_provers():
    """A prover that runs out the sequent budget is cut off at its next
    checkpoint, and the chain then stops: the provers after it are skipped
    and the outcome is marked ``budget_exhausted``."""
    later = _Counting("later")
    start = time.perf_counter()
    result = Dispatcher([_Grinds(timeout=30.0), later], sequent_budget=0.1).prove_all(
        [sequent([parse("p")], parse("q"))]
    )
    elapsed = time.perf_counter() - start
    (outcome,) = result.outcomes
    assert not outcome.proved and outcome.budget_exhausted
    assert [(a.prover, a.verdict) for a in outcome.answers] == [("grinds", Verdict.TIMEOUT)]
    assert later.calls == 0
    assert elapsed <= 0.1 + EPSILON


def test_budget_clipped_timeout_is_neither_cached_nor_learned():
    """A TIMEOUT the chain budget clipped says nothing about the prover: it
    stays out of the cache and out of the learned table."""
    cache, ordering = SequentCache(), ProverOrdering()
    grinds = _Grinds(timeout=30.0)
    seq = sequent([parse("p")], parse("q"))
    Dispatcher([grinds], cache=cache, ordering=ordering, sequent_budget=0.05).prove_all([seq])
    assert cache.lookup(seq, "grinds", grinds.options_signature()) is None
    assert ordering.bucket_count() == 0


def test_prove_marks_a_timeout_truncated_only_when_the_deadline_clipped_it():
    seq = sequent([parse("p")], parse("q"))
    clipped = _Grinds(timeout=30.0).prove(seq, deadline=Deadline.after(0.05))
    assert clipped.verdict is Verdict.TIMEOUT and clipped.truncated
    own = _Grinds(timeout=0.05).prove(seq)
    assert own.verdict is Verdict.TIMEOUT and not own.truncated
    generous = _Grinds(timeout=0.05).prove(seq, deadline=Deadline.after(60.0))
    assert generous.verdict is Verdict.TIMEOUT and not generous.truncated


def test_cached_failure_replays_and_only_uncached_provers_run():
    """A prover whose failure is cached is not asked again: its verdict
    replays as a hit and only the provers without an entry run live."""
    cache = SequentCache()
    refuses = _Counting("refuses", Verdict.UNKNOWN)
    seq = sequent([parse("p")], parse("q"))
    Dispatcher([refuses], cache=cache).prove_all([seq])
    proves = _Counting("proves")
    result = Dispatcher([refuses, proves], cache=cache).prove_all([seq])
    (outcome,) = result.outcomes
    assert outcome.proved and outcome.prover == "proves"
    assert [(a.prover, a.cached) for a in outcome.answers] == [
        ("refuses", True), ("proves", False),
    ]
    assert (refuses.calls, proves.calls) == (1, 1)
    assert (result.cache_stats.hits, result.cache_stats.misses) == (1, 1)
    assert list(result.stats) == ["proves"]


def test_every_executor_runs_the_learned_order(executor):
    """Inline chains rank when they start; process workers receive the live
    provers already ranked by the parent's table.  Either way the chain runs
    in the learned order."""
    seq = sequent([parse("p")], parse("p"))  # both provers prove it
    ordering = ProverOrdering()
    ordering.observe_outcome(sequent_features(seq), "smt", proved=True, time=0.001)
    config = DispatchConfig(["syntactic", "smt"], {"smt": {"timeout": 2.0}}, **executor)
    result = Dispatcher(config, ordering=ordering).prove_all([seq])
    (outcome,) = result.outcomes
    assert outcome.proved and outcome.prover == "smt"
    assert [a.prover for a in outcome.answers] == ["smt"]


# -- executors and the fixed order prove the same sequents ---------------------

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


def _proved(result):
    return [o.proved for o in result.outcomes]


@pytest.mark.parametrize("seed", [7, 1009])
def test_stats_identical_across_executors(seed, executor):
    """The seeded-corpus determinism property.  Inline, a config-built
    dispatcher agrees with one over a prover list on outcomes and
    per-prover stats (the merge order is the sequent order, and the learned
    ordering sees the answers in the same order).  With ``workers > 1`` the
    ordering learns in completion order — the process executor ranks a
    whole batch at submit time — so credit may move between provers, but
    the pools still prove exactly the sequents the inline run proves."""
    corpus = _seeded_corpus(seed)
    reference = Dispatcher(make_provers(PROVERS, **OPTIONS)).prove_all(corpus)
    result = Dispatcher(DispatchConfig(PROVERS, OPTIONS, **executor)).prove_all(corpus)
    assert _proved(result) == _proved(reference)
    if executor["workers"] == 1:
        assert _shape(result) == _shape(reference)
        assert _stat_counts(result) == _stat_counts(reference)


@pytest.mark.parametrize("seed", [7, 1009])
def test_fixed_order_gives_full_parity_across_executors(seed, executor):
    """Under a table that never reorders, no answer can change another
    chain's order, so every executor credits the same prover per sequent."""
    corpus = _seeded_corpus(seed)
    reference = Dispatcher(
        make_provers(PROVERS, **OPTIONS), ordering=_PortfolioOrder()
    ).prove_all(corpus)
    result = Dispatcher(
        DispatchConfig(PROVERS, OPTIONS, **executor), ordering=_PortfolioOrder()
    ).prove_all(corpus)
    assert _shape(result) == _shape(reference)
    assert _stat_counts(result) == _stat_counts(reference)


class _PortfolioOrder(ProverOrdering):
    """A table that never reorders: Jahob's fixed, user-given order."""

    def rank_bucket(self, bucket, provers):
        return list(range(len(provers)))


@pytest.mark.parametrize("seed", [23])
def test_learned_order_proves_exactly_what_fixed_order_proves(seed):
    """The learned order does not change *what* is proved — only how fast:
    every prover still gets its turn until one proves."""
    corpus = _seeded_corpus(seed, count=12)
    fixed = Dispatcher(
        make_provers(PROVERS, **OPTIONS), ordering=_PortfolioOrder()
    ).prove_all(corpus)
    ordered = Dispatcher(make_provers(PROVERS, **OPTIONS)).prove_all(corpus)
    assert ordered.proved == fixed.proved
    assert _proved(ordered) == _proved(fixed)


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


class _ReversedOrder(ProverOrdering):
    """A table that always ranks the portfolio back to front."""

    def rank_bucket(self, bucket, provers):
        return list(reversed(range(len(provers))))


def test_verify_report_counts_do_not_depend_on_the_table():
    """Through ``verify``, a cache whose table ranks the portfolio back to
    front reports the same sequent counts as a fresh one."""
    from repro import suite, verify

    source = suite.source("SizedList")
    kwargs = dict(
        class_name="SizedList", method="clear", provers=["syntactic", "smt"],
        prover_options=OPTIONS,
    )
    fresh = verify(source, cache=SequentCache(), **kwargs)
    reversed_cache = SequentCache()
    reversed_cache.ordering = _ReversedOrder()
    reversed_run = verify(source, cache=reversed_cache, **kwargs)
    # The reversed table really ran: smt went first on every sequent.
    assert reversed_run.prover_stats["smt"].attempted == reversed_run.total_sequents
    assert reversed_run.proved_sequents == fresh.proved_sequents
    assert reversed_run.total_sequents == fresh.total_sequents


# -- the budget schedule ---------------------------------------------------------


class _Sleeps(Prover):
    """Answers after ``delay`` seconds (PROVED, or UNKNOWN when not
    ``proves``), polling its deadline every few milliseconds: a stand-in for
    an engine whose run time is fixed, whatever budget it is given."""

    name = "sleeps"

    @dataclass(frozen=True)
    class Options(Prover.Options):
        timeout: Seconds = 5.0
        delay: float = 1.0
        proves: bool = True

    def attempt(self, sequent, deadline=None):
        end = time.monotonic() + self.options.delay
        while time.monotonic() < end:
            deadline.checkpoint(detail="sleeping")
            time.sleep(0.005)
        return ProverAnswer(Verdict.PROVED if self.options.proves else Verdict.UNKNOWN, self.name)


class _Sleeps2(_Sleeps):
    name = "sleeps2"


@pytest.fixture
def sleepers():
    make_provers(["syntactic"])  # populate the default registry first
    registry.register(_Sleeps.name, _Sleeps)
    registry.register(_Sleeps2.name, _Sleeps2)
    yield


def _sleepers(slow, quick, **settings):
    """A chain of ``sleeps`` (options ``slow``) then ``sleeps2`` (``quick``)."""
    return DispatchConfig(("sleeps", "sleeps2"), {"sleeps": slow, "sleeps2": quick}, **settings)


def _trail(outcome):
    return [(a.prover, a.verdict, a.slice_cut) for a in outcome.answers]


def test_slice_is_the_floor_until_the_bucket_records_a_proof():
    ordering = ProverOrdering()
    bucket = "head=eq;frag=none;asm=0;qd=0"
    assert ordering.slice_of(bucket, "smt") == SLICE_FLOOR
    ordering.observe_outcome(bucket, "smt", proved=False, time=2.0)
    assert ordering.slice_of(bucket, "smt") == SLICE_FLOOR
    ordering.observe_outcome(bucket, "smt", proved=True, time=0.1)
    assert ordering.slice_of(bucket, "smt") == SLICE_FLOOR
    ordering.observe_outcome(bucket, "smt", proved=True, time=0.75)
    ordering.observe_outcome(bucket, "smt", proved=True, time=0.3)
    assert ordering.slice_of(bucket, "smt") == SLICE_FACTOR * 0.75
    assert ordering.slice_of(bucket, "fol") == SLICE_FLOOR


def test_a_slice_cut_prover_reruns_with_its_full_timeout(sleepers, executor):
    """Pass 1 cuts ``sleeps`` off at the floor; ``sleeps2`` cannot prove; pass
    2 gives ``sleeps`` its full timeout, and it proves."""
    config = _sleepers({"delay": 0.8}, {"delay": 0.0, "proves": False}, **executor)
    result = Dispatcher(config).prove_all([sequent([parse("p")], parse("q"))])
    (outcome,) = result.outcomes
    assert outcome.proved and outcome.prover == "sleeps"
    assert _trail(outcome) == [
        ("sleeps", Verdict.TIMEOUT, True),
        ("sleeps2", Verdict.UNKNOWN, False),
        ("sleeps", Verdict.PROVED, False),
    ]
    assert SLICE_FLOOR - EPSILON <= outcome.answers[0].time <= SLICE_FLOOR + EPSILON
    assert outcome.answers[0].truncated and not outcome.budget_exhausted
    assert (result.stats["sleeps"].attempted, result.stats["sleeps"].proved) == (2, 1)


def test_a_later_pass_one_proof_ends_the_chain(sleepers, executor):
    """The prover after a cut one proves within its slice: the chain ends
    there, and the cut prover never runs again."""
    config = _sleepers({"delay": 0.8}, {"delay": 0.05}, **executor)
    result = Dispatcher(config).prove_all([sequent([parse("p")], parse("q"))])
    (outcome,) = result.outcomes
    assert outcome.proved and outcome.prover == "sleeps2"
    assert _trail(outcome) == [
        ("sleeps", Verdict.TIMEOUT, True),
        ("sleeps2", Verdict.PROVED, False),
    ]
    assert result.stats["sleeps"].attempted == 1


def test_a_slice_cut_is_learned_as_an_attempt_but_never_stored(sleepers, executor):
    """Pass 1 cuts ``sleeps`` with chain budget left: the cut is kept out of
    the cache, counts as an unproved attempt, and leaves the longest proof
    alone.  Pass 2 then runs into the sequent budget: that TIMEOUT is a
    budget clip, neither stored nor learned."""
    cache, ordering = SequentCache(), ProverOrdering()
    seq = sequent([parse("p")], parse("q"))
    bucket = sequent_features(seq)
    ordering.observe_outcome(bucket, "sleeps", proved=True, time=0.1)
    config = _sleepers(
        {"delay": 2.0}, {"delay": 0.0, "proves": False}, sequent_budget=1.0, **executor
    )
    result = Dispatcher(config, cache, ordering=ordering).prove_all([seq])
    (outcome,) = result.outcomes
    assert _trail(outcome) == [
        ("sleeps", Verdict.TIMEOUT, True),
        ("sleeps2", Verdict.UNKNOWN, False),
        ("sleeps", Verdict.TIMEOUT, False),
    ]
    assert outcome.answers[2].truncated and not outcome.proved
    slow, quick = make_provers(["sleeps", "sleeps2"], sleeps={"delay": 2.0},
                               sleeps2={"delay": 0.0, "proves": False})
    assert cache.lookup(seq, "sleeps", slow.options_signature()) is None
    assert cache.lookup(seq, "sleeps2", quick.options_signature()) is not None
    stats = ordering.snapshot()[bucket]
    assert (stats["sleeps"]["attempted"], stats["sleeps"]["proved"]) == (2, 1)
    assert stats["sleeps"]["longest"] == 0.1
    assert stats["sleeps2"]["attempted"] == 1


def test_a_slice_at_or_above_the_timeout_leaves_the_prover_unsliced(sleepers, executor):
    """A timeout below the slice is the prover's own: its TIMEOUT is genuine,
    stored, and not run again."""
    cache = SequentCache()
    seq = sequent([parse("p")], parse("q"))
    config = _sleepers({"delay": 1.0, "timeout": 0.2}, {"delay": 0.0, "proves": False},
                       **executor)
    (outcome,) = Dispatcher(config, cache).prove_all([seq]).outcomes
    assert _trail(outcome) == [
        ("sleeps", Verdict.TIMEOUT, False),
        ("sleeps2", Verdict.UNKNOWN, False),
    ]
    assert not outcome.answers[0].truncated
    slow = make_provers(["sleeps"], sleeps={"delay": 1.0, "timeout": 0.2})[0]
    assert cache.lookup(seq, "sleeps", slow.options_signature()) is not None


class _InlinePool(Executor):
    """A lent "pool" that runs each task in the calling process, so the
    process path's payloads and chains can be watched in-process."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def test_both_executors_compute_the_same_slices(sleepers, monkeypatch):
    """The process path ships the parent's slices to the worker's chain:
    seeded alike, both paths run the same (prover, slice) turns and give
    the same answers."""
    from repro.provers import dispatcher

    turns = []
    real_attempt = dispatcher._attempt

    def watched(prover, sequent, deadline, slice_):
        turns.append((prover.name, slice_))
        return real_attempt(prover, sequent, deadline, slice_)

    monkeypatch.setattr(dispatcher, "_attempt", watched)
    seq = sequent([parse("p")], parse("q"))
    config = _sleepers({"delay": 0.8}, {"delay": 0.05, "proves": False})
    runs = []
    for executor in (None, _InlinePool()):
        ordering = ProverOrdering()
        ordering.observe_outcome(sequent_features(seq), "sleeps2", proved=True, time=0.4)
        turns.clear()
        (outcome,) = Dispatcher(config, ordering=ordering, executor=executor).prove_all(
            [seq]).outcomes
        runs.append((list(turns), _trail(outcome)))
    assert runs[0] == runs[1]
    assert runs[0][0] == [("sleeps2", 0.8), ("sleeps", SLICE_FLOOR), ("sleeps", None)]


def test_the_schedule_proves_what_an_unsliced_chain_proves_on_cheap_methods(monkeypatch):
    """Suite obligations: the default slices prove sequent for sequent what
    a chain with a floor above every timeout (so no slicing) proves."""
    from repro import suite
    from repro.java.resolver import parse_program
    from repro.provers import ordering as ordering_module
    from repro.vcgen.vcgen import generate_method_vc

    names = ["syntactic", "smt", "fol", "mona", "bapa"]
    options = {"smt": {"timeout": 3.0}, "fol": {"timeout": 1.5}}
    batches = []
    for structure, method in CHEAP_METHODS:
        program = parse_program(suite.source(structure))
        batches.append(generate_method_vc(program, structure, method).sequents)
    sliced = [_proved(Dispatcher(make_provers(names, **options)).prove_all(b)) for b in batches]
    monkeypatch.setattr(ordering_module, "SLICE_FLOOR", 1e9)
    unsliced = [_proved(Dispatcher(make_provers(names, **options)).prove_all(b)) for b in batches]
    assert sliced == unsliced


def test_a_version_one_table_is_discarded(tmp_path):
    """Version-1 tables record no longest proofs, so they are not loaded."""
    path = tmp_path / DEFAULT_FILENAME
    path.write_text(json.dumps({"version": 1, "buckets": {
        "head=eq;frag=none;asm=0;qd=0": {"smt": {"attempted": 1, "proved": 1, "time": 0.1}}
    }}))
    assert FORMAT_VERSION == 2
    assert ProverOrdering(path=str(path)).bucket_count() == 0


def test_save_load_roundtrip_keeps_the_longest_proof(tmp_path):
    path = str(tmp_path / DEFAULT_FILENAME)
    ordering = ProverOrdering(path=path)
    bucket = "head=eq;frag=arith;asm=1-3;qd=0"
    ordering.observe_outcome(bucket, "smt", proved=True, time=0.25)
    ordering.observe_outcome(bucket, "smt", proved=True, time=0.75)
    assert ordering.save()
    reloaded = ProverOrdering(path=path)
    assert reloaded.snapshot()[bucket]["smt"]["longest"] == 0.75
    assert reloaded.slice_of(bucket, "smt") == SLICE_FACTOR * 0.75
