"""The cached dispatch subsystem: cache semantics, parity of the three
executors, the dispatch config, and the stable sequent digests that key the
cache."""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import pytest

from repro.form.parser import parse_formula as parse
from repro.provers.base import Deadline, Prover, ProverAnswer, Verdict, registry
from repro.provers.cache import CacheStats, SequentCache
from repro.provers.dispatcher import DispatchConfig, Dispatcher, available_cpus, make_provers
from repro.vcgen.sequent import Labeled, Sequent, sequent


def _batch():
    """A small mixed batch: syntactic-provable, smt-provable, unprovable."""
    return [
        sequent([parse("p")], parse("p")),
        sequent([parse("x < y"), parse("y < z")], parse("x < z")),
        sequent([parse("a = b")], parse("b = a")),
        sequent([], parse("q")),  # stays unproved
        sequent([parse("u : A Un {}")], parse("u : A")),
    ]


def _shape(result):
    return [(o.proved, o.prover) for o in result.outcomes]


def _stat_counts(result):
    return {name: (s.attempted, s.proved) for name, s in result.stats.items()}


def _proved(result):
    return [o.proved for o in result.outcomes]


# -- sequent digests (cache keys) ---------------------------------------------------


def test_digest_is_stable_across_calls():
    seq = sequent([parse("x : A"), parse("A subseteq B")], parse("x : B"))
    assert seq.digest() == seq.digest()


def test_digest_ignores_assumption_order():
    a, b = parse("x : A"), parse("A subseteq B")
    goal = parse("x : B")
    assert sequent([a, b], goal).digest() == sequent([b, a], goal).digest()


def test_digest_alpha_renames_generated_variables():
    """Splitter fresh names (x$n) and havoc incarnations (v#n) are normalised."""
    one = sequent([parse("x$1 : A")], parse("x$1 : B"))
    two = sequent([parse("x$7 : A")], parse("x$7 : B"))
    assert one.digest() == two.digest()
    # Havoc incarnations carry a '#' which only the VC generator introduces
    # (the formula parser has no syntax for it) — build the terms directly.
    from repro.form import ast as F

    def incarnation(n, m):
        return sequent(
            [F.Eq(F.Var(f"first#{n}"), F.NULL)],
            F.Eq(F.Var(f"content#{m}"), F.EMPTYSET),
        )

    assert incarnation(2, 3).digest() == incarnation(9, 4).digest()


def test_digest_invariant_under_renumbering_across_assumptions():
    """Canonical indices must track assumptions, not their raw numbering:
    (x$1 > y, x$2 < y) and its renumbering (x$2 > y, x$1 < y) are the same
    sequent up to alpha-renaming."""
    one = sequent([parse("x$1 > y"), parse("x$2 < y")], parse("p"))
    two = sequent([parse("x$2 > y"), parse("x$1 < y")], parse("p"))
    assert one.digest() == two.digest()


def test_digest_uses_occurrence_signatures_for_tied_assumptions():
    """Masked-identical assumptions must not fall back to raw-numbering
    order: x$1 (occurring in R and S) and x$2 (only in R) are distinguished
    by their occurrence signatures, so any renumbering digests identically."""
    one = sequent([parse("R x$1"), parse("R x$2"), parse("S x$1")], parse("G y"))
    two = sequent([parse("R x$5"), parse("R x$3"), parse("S x$5")], parse("G y"))
    assert one.digest() == two.digest()


def test_digest_preserves_cross_formula_correlation():
    """Variables shared across assumptions are part of the identity: a
    sequent where S sees the same variable as R must not collide with one
    where it sees a different variable."""
    shared = sequent([parse("R x$1"), parse("S x$1")], parse("p"))
    distinct = sequent([parse("R x$1"), parse("S x$2")], parse("p"))
    assert shared.digest() != distinct.digest()


def test_digest_distinguishes_different_goals():
    assert sequent([], parse("p")).digest() != sequent([], parse("q")).digest()


def test_digest_distinguishes_hints():
    base = Sequent(assumptions=(Labeled(parse("p"), ("l1",)),), goal=Labeled(parse("p")))
    hinted = Sequent(
        assumptions=(Labeled(parse("p"), ("l1",)),),
        goal=Labeled(parse("p")),
        hints=("l1",),
    )
    assert base.digest() != hinted.digest()


def test_worker_portfolio_cache_is_a_bounded_lru(monkeypatch):
    """A farm worker keeps at most ``_MAX_CACHED_PORTFOLIOS`` portfolios,
    drops the least recently used first, and reuses a cached one."""
    from collections import OrderedDict

    from repro.provers import dispatcher

    monkeypatch.setattr(dispatcher, "_PROCESS_PORTFOLIOS", OrderedDict())
    cap = dispatcher._MAX_CACHED_PORTFOLIOS
    seq = sequent([parse("p")], parse("p"))
    configs = [DispatchConfig(["syntactic"], sequent_budget=k + 1.0) for k in range(40)]

    def run(config):
        answers, budget_exhausted = dispatcher._process_worker_chain(
            (config, None, seq, [0], [None])
        )
        assert answers[-1].proved and not budget_exhausted

    for config in configs:
        run(config)
    portfolios = dispatcher._PROCESS_PORTFOLIOS
    assert len(portfolios) == cap
    assert [key for key in portfolios] == [c.key() for c in configs[-cap:]]

    oldest, last = configs[40 - cap], portfolios[configs[-1].key()]
    run(oldest)  # a hit refreshes its entry...
    run(configs[-1])
    assert portfolios[configs[-1].key()] is last  # ...and reuses the portfolio
    run(DispatchConfig(["syntactic"], sequent_budget=99.0))
    assert len(portfolios) == cap
    assert oldest.key() in portfolios
    assert configs[41 - cap].key() not in portfolios


# -- cache semantics ----------------------------------------------------------------


def test_cache_miss_then_hit():
    cache = SequentCache()
    seq = sequent([parse("p")], parse("p"))
    assert cache.lookup(seq, "syntactic") is None
    stored = cache.store(
        seq, "syntactic", ProverAnswer(Verdict.PROVED, "syntactic", time=0.1)
    )
    assert stored
    entry = cache.lookup(seq, "syntactic")
    assert entry is not None and entry.verdict is Verdict.PROVED
    answer = entry.to_answer("syntactic")
    assert answer.cached and answer.proved and answer.time == 0.0


def test_cache_key_includes_prover_and_options():
    cache = SequentCache()
    seq = sequent([parse("p")], parse("p"))
    cache.store(seq, "smt", ProverAnswer(Verdict.PROVED, "smt"), "timeout=1.0")
    assert cache.lookup(seq, "smt", "timeout=1.0") is not None
    assert cache.lookup(seq, "smt", "timeout=9.0") is None  # other options
    assert cache.lookup(seq, "fol", "timeout=1.0") is None  # other prover
    assert cache.store(seq, "fol", ProverAnswer(Verdict.TIMEOUT, "fol"), "timeout=1.0")


def test_cache_lru_eviction():
    cache = SequentCache(max_entries=2)
    seqs = [sequent([], parse(name)) for name in ("p1", "p2", "p3")]
    for seq in seqs:
        cache.store(seq, "x", ProverAnswer(Verdict.UNKNOWN, "x"))
    assert len(cache) == 2
    assert cache.lookup(seqs[0], "x") is None  # oldest entry evicted


def test_cache_disk_tier_survives_new_cache_instance(tmp_path):
    seq = sequent([parse("p")], parse("p"))
    first = SequentCache(cache_dir=tmp_path)
    first.store(seq, "syntactic", ProverAnswer(Verdict.PROVED, "syntactic"))
    second = SequentCache(cache_dir=tmp_path)  # fresh memory tier
    entry = second.lookup(seq, "syntactic")
    assert entry is not None and entry.verdict is Verdict.PROVED
    assert second.stats.disk_hits == 1


def test_options_signature_covers_search_bounds():
    """Verdict-affecting options beyond the timeout must rotate cache keys."""
    from repro.fol.prover import FirstOrderProver
    from repro.mona.prover import MonaProver
    from repro.smt.prover import SmtProver

    assert (
        FirstOrderProver(max_processed=10).options_signature()
        != FirstOrderProver(max_processed=1000).options_signature()
    )
    assert (
        MonaProver(max_states=100).options_signature()
        != MonaProver(max_states=20000).options_signature()
    )
    assert (
        SmtProver(max_theory_iterations=5).options_signature()
        != SmtProver(max_theory_iterations=300).options_signature()
    )


def test_cache_stats_hit_rate():
    stats = CacheStats(hits=3, misses=1)
    assert stats.hit_rate == pytest.approx(0.75)
    assert CacheStats().hit_rate == 0.0


# -- cached dispatch ----------------------------------------------------------------


def test_cache_hits_do_not_double_count_prover_stats():
    cache = SequentCache()
    seqs = _batch()
    first = Dispatcher(make_provers(["syntactic", "smt"]), cache=cache).prove_all(seqs)
    second = Dispatcher(make_provers(["syntactic", "smt"]), cache=cache).prove_all(seqs)
    # First run: all lookups miss, provers attempt everything.
    assert first.cache_stats.hits == 0
    assert first.cache_stats.misses > 0
    # Second run: every verdict replays; no prover is attempted at all.
    assert second.cache_stats.misses == 0
    assert second.cache_stats.hits == first.cache_stats.misses
    assert not second.stats  # zero ProverStats recorded on pure replay
    assert second.proved_from_cache == second.proved == first.proved
    assert second.proved_live == 0
    assert _shape(second) == _shape(first)


def test_cached_dispatch_preserves_outcomes():
    cache = SequentCache()
    baseline = Dispatcher(make_provers(["syntactic", "smt"])).prove_all(_batch())
    warm = Dispatcher(make_provers(["syntactic", "smt"]), cache=cache)
    warm.prove_all(_batch())
    replayed = warm.prove_all(_batch())
    assert _shape(replayed) == _shape(baseline)


# -- one dispatcher, two executors ---------------------------------------------

PAIR = ("syntactic", "smt")


def test_executor_matches_inline_prover_list(executor):
    """Every executor proves what an inline dispatch over a prover list
    proves.  Inline, outcomes and per-prover stats match exactly; pool
    workers learn the ordering in completion order, so credit may differ."""
    seqs = _batch()
    reference = Dispatcher(make_provers(PAIR)).prove_all(seqs)
    result = Dispatcher(DispatchConfig(PAIR, **executor)).prove_all(seqs)
    assert _proved(result) == _proved(reference)
    assert result.workers == executor["workers"]
    if executor["workers"] == 1:
        assert _shape(result) == _shape(reference)
        assert _stat_counts(result) == _stat_counts(reference)


def test_shared_cache_replays_everything(executor):
    cache = SequentCache()
    seqs = _batch()
    config = DispatchConfig(PAIR, **executor)
    Dispatcher(config, cache).prove_all(seqs)
    replay = Dispatcher(config, cache).prove_all(seqs)
    assert replay.proved_live == 0
    assert replay.cache_stats.misses == 0
    assert not replay.stats


def test_partially_cached_chain_replays_the_prefix(executor):
    """A partially cached chain only re-runs the uncached suffix: the cached
    prefix is replayed as cached answers, not recomputed."""
    cache = SequentCache()
    seqs = [sequent([parse("x < y"), parse("y < z")], parse("x < z"))]
    # Warm only the syntactic (first) prover's verdict.
    syn = make_provers(["syntactic"])[0]
    first = syn.prove(seqs[0])
    assert not first.proved
    cache.store(seqs[0], "syntactic", first, syn.options_signature())
    result = Dispatcher(DispatchConfig(PAIR, **executor), cache).prove_all(seqs)
    (outcome,) = result.outcomes
    assert [a.prover for a in outcome.answers] == ["syntactic", "smt"]
    assert outcome.answers[0].cached and not outcome.answers[1].cached
    assert outcome.proved and outcome.prover == "smt"
    # Only the live smt answer reaches ProverStats.
    assert set(result.stats) == {"smt"}


def test_prover_list_dispatches_inline_only():
    """Pool workers rebuild the portfolio from names; a list of prover
    instances cannot be rebuilt, so it refuses a pool."""
    with pytest.raises(ValueError):
        Dispatcher(make_provers(["syntactic"]), workers=2)


# -- the process path: rank at submission, deadline, clean-up -------------------


class _Unknowing(Prover):
    """Never proves anything, at once."""

    name = "unknowing"

    def attempt(self, sequent, deadline):
        return ProverAnswer(Verdict.UNKNOWN, self.name)


class _Proving(Prover):
    """Proves everything, at once."""

    name = "proving"

    def attempt(self, sequent, deadline):
        return ProverAnswer(Verdict.PROVED, self.name)


class _Slow(Prover):
    """Proves everything after a second, polling its deadline."""

    name = "slow"

    def attempt(self, sequent, deadline):
        end = time.monotonic() + 1.0
        while time.monotonic() < end:
            deadline.checkpoint(detail="slow")
            time.sleep(0.005)
        return ProverAnswer(Verdict.PROVED, self.name)


class _Raising(Prover):
    """A prover bug :meth:`Prover.prove` cannot turn into an answer."""

    name = "raising"

    def prove(self, sequent, deadline=None):
        raise RuntimeError("prover bug")

    def attempt(self, sequent, deadline):  # pragma: no cover - prove raises first
        raise AssertionError


@pytest.fixture
def fakes():
    """Registers the fake provers before any pool forks, so its workers
    can build them too."""
    for fake in (_Unknowing, _Proving, _Slow, _Raising):
        registry.register(fake.name, fake)


def _one_bucket(count):
    """``count`` sequents with distinct digests in one feature bucket."""
    return [sequent([parse("a < b")], parse(f"x{k} = y{k}")) for k in range(count)]


@pytest.fixture(params=["owned", "lent"])
def pool(request):
    """None (the dispatcher builds its own pool) or a lent two-process pool."""
    if request.param == "owned":
        yield None
        return
    lent = ProcessPoolExecutor(max_workers=2)
    yield lent
    lent.shutdown(wait=True)


def test_each_sequent_is_ranked_when_a_worker_frees_up(fakes, executor, pool):
    """``unknowing`` leads the portfolio order, so every sequent the table
    has not yet learned from tries it first.  A sequent is ranked only when
    a worker is free for it, so only the first ``workers`` sequents of the
    bucket miss that ``proving`` proves there."""
    seqs = _one_bucket(10)
    config = DispatchConfig(("unknowing", "proving"), **executor)
    result = Dispatcher(config, executor=pool).prove_all(seqs)
    assert result.proved == len(seqs)
    assert result.stats["unknowing"].attempted <= executor["workers"]
    assert result.stats["proving"].attempted == len(seqs)


def test_sequents_not_submitted_by_the_deadline_never_take_a_worker(fakes, pool):
    """Each chain takes a second; the batch deadline passes long before a
    worker frees up, so every sequent after the first two comes back
    ``budget_exhausted`` without a live answer."""
    seqs = _one_bucket(6)
    dispatcher = Dispatcher(DispatchConfig(("slow",), workers=2), executor=pool)
    result = dispatcher.prove_all(seqs, deadline=Deadline.after(0.3))
    assert result.outcomes[0].answers, "the first sequent is submitted at once"
    for outcome in result.outcomes[2:]:
        assert outcome.budget_exhausted and not outcome.answers
    assert result.stats["slow"].attempted <= 2
    assert result.proved == 0


@pytest.mark.parametrize("chain", [("proving",), ("raising",)])
def test_an_owned_pool_leaves_no_process_behind(fakes, chain):
    before = set(multiprocessing.active_children())
    dispatcher = Dispatcher(DispatchConfig(chain, workers=2))
    raises = pytest.raises(RuntimeError) if chain == ("raising",) else nullcontext()
    with raises:
        assert dispatcher.prove_all(_one_bucket(4)).proved == 4
    assert not set(multiprocessing.active_children()) - before


def test_a_dispatch_settled_without_the_pool_reports_one_worker(pool):
    """A warm batch runs no chain on the pool: its report is that of an
    inline replay, whatever the configured width."""
    cache = SequentCache()
    seqs = _batch()
    config = DispatchConfig(PAIR, workers=2, dedup=True)
    cold = Dispatcher(config, cache, executor=pool).prove_all(seqs)
    warm = Dispatcher(config, cache, executor=pool).prove_all(seqs + seqs)
    assert cold.workers == 2 and cold.worker_utilization
    assert warm.workers == 1 and not warm.worker_utilization
    assert warm.proved_live == 0 and warm.proved == 2 * cold.proved


# -- the dispatch config ---------------------------------------------------------


def test_config_resolves_aliases_and_prepends_syntactic_once():
    assert DispatchConfig(["Z3", "spass"]).provers == ("smt", "fol")
    assert DispatchConfig.for_verify(["z3", "mona"]).provers == ("syntactic", "smt", "mona")
    assert DispatchConfig.for_verify(["smt", "syntactic"]).provers == ("smt", "syntactic")


def test_verify_defaults_to_one_worker_per_available_cpu():
    assert DispatchConfig.for_verify(["smt"]).workers == available_cpus() >= 1
    assert DispatchConfig.for_verify(["smt"], workers=1).workers == 1
    assert DispatchConfig(PAIR).workers == 1
    assert Dispatcher(make_provers(PAIR)).config.workers == 1


@pytest.mark.parametrize("settings", [{"workers": 0}, {"workers": -2}])
def test_config_rejects_bad_executor_settings(settings):
    with pytest.raises(ValueError):
        DispatchConfig(PAIR, **settings)


def test_config_survives_a_pickle_round_trip():
    """The process executor ships the config to its workers."""
    import pickle

    config = DispatchConfig(
        PAIR, {"smt": {"timeout": 2.0}}, sequent_budget=1.5, dedup=True, workers=2,
    )
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config and clone.key() == config.key()
    assert [p.name for p in clone.make_provers()] == list(PAIR)


def test_equal_configs_give_equal_keys():
    one = DispatchConfig(["z3"], {"smt": {"timeout": 2.0}}, sequent_budget=1.0)
    two = DispatchConfig(("smt",), {"smt": {"timeout": 2.0}}, sequent_budget=1.0)
    assert one == two and one.key() == two.key() and hash(one) == hash(two)
    assert one.key() != DispatchConfig(["smt"], sequent_budget=1.0).key()
    assert one.key() != DispatchConfig(["z3"], {"smt": {"timeout": 2.0}}).key()


def test_sequent_budget_limits_chain():
    """With a zero per-sequent budget no prover is ever attempted."""
    seqs = _batch()
    result = Dispatcher(
        make_provers(["syntactic", "smt"]), sequent_budget=0.0
    ).prove_all(seqs)
    assert result.proved == 0
    assert all(o.budget_exhausted for o in result.outcomes)
    assert not result.stats


# -- verifier plumbing --------------------------------------------------------------


def test_verify_plumbs_workers_and_cache():
    from repro import verify
    from repro import suite

    fast = {"smt": {"timeout": 2.0}}
    cache = SequentCache()
    source = suite.source("SizedList")
    first = verify(source, method="size", class_name="SizedList",
                   provers=["smt"], prover_options=fast, cache=cache, workers=2)
    second = verify(source, method="size", class_name="SizedList",
                    provers=["smt"], prover_options=fast, cache=cache, workers=2)
    assert first.succeeded and second.succeeded
    assert second.proved_live == 0
    assert second.cache_hit_rate == 1.0
    # The first run proves on the pool; the replay runs no chain there and
    # reports one worker, as an inline replay would.
    assert first.workers == 2 and second.workers == 1
    assert "workers" in first.format()
    text = second.format()
    assert "Sequent cache" in text and "workers" not in text
