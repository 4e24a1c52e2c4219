"""The parallel cached dispatch subsystem: cache semantics, stats parity,
stop-on-failure under parallelism, and the stable sequent digests that key
the cache."""

import pytest

from repro.form.parser import parse_formula as parse
from repro.provers.base import ProverAnswer, Verdict
from repro.provers.cache import CacheStats, SequentCache
from repro.provers.dispatcher import (
    Dispatcher,
    ParallelDispatcher,
    make_provers,
)
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


def test_cache_timeout_verdicts_optional():
    strict = SequentCache(cache_timeouts=False)
    seq = sequent([], parse("p"))
    assert not strict.store(seq, "smt", ProverAnswer(Verdict.TIMEOUT, "smt"))
    default = SequentCache()
    assert default.store(seq, "smt", ProverAnswer(Verdict.TIMEOUT, "smt"))


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
    from repro.interactive.kernel import ProofScript
    from repro.interactive.lemma_store import LemmaStore
    from repro.interactive.prover import InteractiveProver
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
    # A grown lemma store must invalidate cached interactive verdicts.
    store = LemmaStore()
    empty_sig = InteractiveProver(store=store).options_signature()
    store.add("fp", ProofScript(name="fp"))
    assert InteractiveProver(store=store).options_signature() != empty_sig


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


# -- parallel dispatch --------------------------------------------------------------


def test_parallel_workers1_matches_sequential():
    seqs = _batch()
    sequential = Dispatcher(make_provers(["syntactic", "smt"])).prove_all(seqs)
    parallel = ParallelDispatcher.from_names(["syntactic", "smt"], workers=1).prove_all(seqs)
    assert _shape(parallel) == _shape(sequential)
    assert _stat_counts(parallel) == _stat_counts(sequential)


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_many_workers_matches_sequential(workers):
    """With several workers the learned ordering learns in completion order,
    so credit may differ from a serial run; the proved set never does."""
    seqs = _batch()
    sequential = Dispatcher(make_provers(["syntactic", "smt"])).prove_all(seqs)
    parallel = ParallelDispatcher.from_names(
        ["syntactic", "smt"], workers=workers
    ).prove_all(seqs)
    assert _proved(parallel) == _proved(sequential)
    assert parallel.workers == workers


def test_parallel_stop_on_failure_truncates_like_sequential():
    seqs = _batch()  # the unprovable sequent sits at index 3
    sequential = Dispatcher(
        make_provers(["syntactic"]), stop_on_failure=True
    ).prove_all(seqs)
    parallel = ParallelDispatcher.from_names(
        ["syntactic"], workers=3, stop_on_failure=True
    ).prove_all(seqs)
    assert _shape(parallel) == _shape(sequential)
    assert not parallel.outcomes[-1].proved
    assert parallel.total < len(seqs)


def test_parallel_with_shared_cache_replays_everything():
    cache = SequentCache()
    seqs = _batch()
    ParallelDispatcher.from_names(["syntactic", "smt"], workers=2, cache=cache).prove_all(seqs)
    replay = ParallelDispatcher.from_names(
        ["syntactic", "smt"], workers=2, cache=cache
    ).prove_all(seqs)
    assert replay.proved_live == 0
    assert replay.cache_stats.misses == 0
    assert not replay.stats


def test_parallel_process_backend_matches_sequential():
    seqs = _batch()
    sequential = Dispatcher(make_provers(["syntactic", "smt"])).prove_all(seqs)
    parallel = ParallelDispatcher.from_names(
        ["syntactic", "smt"], workers=2, backend="process"
    ).prove_all(seqs)
    assert _proved(parallel) == _proved(sequential)


def test_parallel_process_backend_replays_cached_prefix():
    """A partially cached chain only re-runs the uncached suffix: the cached
    prefix is replayed as cached answers, not recomputed."""
    cache = SequentCache()
    seqs = [sequent([parse("x < y"), parse("y < z")], parse("x < z"))]
    # Warm only the syntactic (first) prover's verdict.
    syn = make_provers(["syntactic"])[0]
    first = syn.prove(seqs[0])
    assert not first.proved
    cache.store(seqs[0], "syntactic", first, syn.options_signature())
    result = ParallelDispatcher.from_names(
        ["syntactic", "smt"], workers=2, backend="process", cache=cache
    ).prove_all(seqs)
    (outcome,) = result.outcomes
    assert [a.prover for a in outcome.answers] == ["syntactic", "smt"]
    assert outcome.answers[0].cached and not outcome.answers[1].cached
    assert outcome.proved and outcome.prover == "smt"
    # Only the live smt answer reaches ProverStats.
    assert set(result.stats) == {"smt"}


def test_parallel_process_backend_requires_names():
    with pytest.raises(ValueError):
        ParallelDispatcher(lambda: make_provers(["syntactic"]), backend="process")


def test_parallel_rejects_unknown_backend():
    with pytest.raises(ValueError):
        ParallelDispatcher.from_names(["syntactic"], backend="gpu")


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
    assert second.workers == 2
    text = second.format()
    assert "Sequent cache" in text and "workers" in text
