"""The learned prover ordering: feature buckets, the three-tier deterministic
ranking, JSON persistence (including concurrent saves), which answers teach
it anything, and how the dispatch chain learns from each answer."""

import json

from repro.form.parser import parse_formula as parse
from repro.provers.base import Prover, ProverAnswer, Verdict
from repro.provers.ordering import (
    DEFAULT_FILENAME,
    FORMAT_VERSION,
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

    ordering.observe(seq, ProverAnswer(Verdict.CANCELLED, "smt"))
    ordering.observe(seq, ProverAnswer(Verdict.STATIC, "static"))
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


def test_racing_dispatch_persists_the_table(tmp_path):
    """End to end: a racing dispatch with a pathed ordering leaves a valid
    table on disk that a fresh dispatcher loads and ranks from."""
    from repro.provers.dispatcher import Dispatcher, make_provers

    path = str(tmp_path / DEFAULT_FILENAME)
    corpus = [sequent([parse("a < b"), parse("b < c")], parse("a < c"))]
    Dispatcher(
        make_provers(["syntactic", "smt"], smt={"timeout": 2.0}),
        race=2, ordering=ProverOrdering(path=path),
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
    from repro.provers.dispatcher import Dispatcher

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
    entry of the disk tier."""
    from repro.provers.cache import SequentCache
    from repro.provers.dispatcher import Dispatcher

    cache = SequentCache(cache_dir=tmp_path)
    seq = sequent([parse("p")], parse("q"))
    Dispatcher([_Refuses(), _Proves()], cache=cache).prove_all([seq])
    assert (tmp_path / DEFAULT_FILENAME).is_file()
    assert cache.disk_entries() == 2  # the two verdicts, not the table

    reloaded = SequentCache(cache_dir=tmp_path).ordering
    assert reloaded.path == str(tmp_path / DEFAULT_FILENAME)
    assert reloaded.rank(seq, ["refuses", "proves"]) == [1, 0]


def test_dispatcher_without_cache_learns_in_a_fresh_table():
    from repro.provers.cache import SequentCache
    from repro.provers.dispatcher import Dispatcher, ParallelDispatcher

    one, two = Dispatcher([_Proves()]), Dispatcher([_Proves()])
    assert one.ordering is not two.ordering and one.ordering.path is None
    cache = SequentCache()
    assert Dispatcher([_Proves()], cache=cache).ordering is cache.ordering
    assert ParallelDispatcher.from_names(["syntactic"], cache=cache).ordering is cache.ordering
    override = ProverOrdering()
    assert Dispatcher([_Proves()], cache=cache, ordering=override).ordering is override
