"""The cross-method dedup pre-pass: duplicate sequents (by structural
digest) are proved once and their verdicts fanned back out, with the same
per-sequent outcomes, correct ProverStats attribution (representative proved
live, duplicates replayed) and byte-identical reports vs. no-dedup runs."""

from repro.form.parser import parse_formula as parse
from repro.provers.cache import SequentCache
from repro.provers.dispatcher import DispatchConfig, Dispatcher, make_provers
from repro.vcgen.sequent import sequent


def _batch_with_duplicates():
    """Five sequents, three distinct digests: indices 0/2 are alpha-variants
    (splitter numbering only) and 1/4 are verbatim duplicates."""
    return [
        sequent([parse("x$1 : A")], parse("x$1 : A")),        # proved (syntactic)
        sequent([parse("a < b"), parse("b < c")], parse("a < c")),  # proved (smt)
        sequent([parse("x$9 : A")], parse("x$9 : A")),        # duplicate of 0
        sequent([], parse("q")),                              # stays unproved
        sequent([parse("a < b"), parse("b < c")], parse("a < c")),  # duplicate of 1
    ]


def _shape(result):
    return [(o.proved, o.prover) for o in result.outcomes]


def _verdicts(result):
    return [[(a.prover, a.verdict) for a in o.answers] for o in result.outcomes]


def _stat_counts(result):
    return {name: (s.attempted, s.proved) for name, s in result.stats.items()}


PROVERS = ["syntactic", "smt"]


def test_dedup_outcomes_identical_to_no_dedup():
    seqs = _batch_with_duplicates()
    plain = Dispatcher(make_provers(PROVERS)).prove_all(seqs)
    deduped = Dispatcher(make_provers(PROVERS), dedup=True).prove_all(seqs)
    assert _shape(deduped) == _shape(plain)
    # Representatives run the same chain; each duplicate replays its
    # representative's verdicts.  (The plain run proves duplicate 4 with
    # fewer attempts: the learned order already knows smt proved its twin.)
    verdicts, plain_verdicts = _verdicts(deduped), _verdicts(plain)
    assert [verdicts[i] for i in (0, 1, 3)] == [plain_verdicts[i] for i in (0, 1, 3)]
    assert verdicts[2] == verdicts[0] and verdicts[4] == verdicts[1]


def test_dedup_attributes_duplicates_as_replayed():
    seqs = _batch_with_duplicates()
    result = Dispatcher(make_provers(PROVERS), dedup=True).prove_all(seqs)
    assert result.dedup_replayed == 2
    # Representatives were proved live; duplicates replayed (cached answers).
    assert result.proved == 4  # indices 0, 1 live + their duplicates 2, 4
    assert result.proved_live == 2  # indices 0 and 1
    assert result.proved_from_cache == 2  # the fanned-out duplicates 2 and 4
    # Index 2 duplicates a syntactic proof, index 4 an smt proof; both carry
    # only cached answers.
    for index in (2, 4):
        assert all(a.cached for a in result.outcomes[index].answers)
        assert result.outcomes[index].from_cache or not result.outcomes[index].proved


def test_dedup_prover_stats_count_only_representatives():
    seqs = _batch_with_duplicates()
    plain = Dispatcher(make_provers(PROVERS)).prove_all(seqs)
    deduped = Dispatcher(make_provers(PROVERS), dedup=True).prove_all(seqs)
    plain_counts = _stat_counts(plain)
    dedup_counts = _stat_counts(deduped)
    # The no-dedup run attempts the duplicates too; the dedup run does not.
    assert dedup_counts["syntactic"] == (3, 1)  # representatives 0, 1, 3 only
    assert dedup_counts["smt"] == (2, 1)        # representatives 1 and 3
    assert plain_counts["syntactic"][0] > dedup_counts["syntactic"][0]
    # Without dedup every duplicate is re-proved live; with dedup the proof
    # count per prover drops by exactly the replayed duplicates.
    assert plain_counts["syntactic"][1] == dedup_counts["syntactic"][1] + 1
    assert plain_counts["smt"][1] == dedup_counts["smt"][1] + 1
    # Total proved sequents (live + replayed) still agree.
    assert plain.proved == deduped.proved


def test_dedup_matches_warm_cache_accounting():
    """Dedup replay is accounted exactly like a warm-cache replay, so a
    dedup run and a cached no-dedup run of the same batch agree on every
    counter a report prints."""
    seqs = _batch_with_duplicates()
    cached = Dispatcher(make_provers(PROVERS), cache=SequentCache()).prove_all(seqs)
    deduped = Dispatcher(
        make_provers(PROVERS), cache=SequentCache(), dedup=True
    ).prove_all(seqs)
    assert _shape(deduped) == _shape(cached)
    assert _stat_counts(deduped) == _stat_counts(cached)
    assert deduped.cache_stats.hits == cached.cache_stats.hits
    assert deduped.proved_from_cache == cached.proved_from_cache
    assert deduped.proved_live == cached.proved_live


def test_dedup_matches_across_executors(executor):
    seqs = _batch_with_duplicates()
    reference = Dispatcher(make_provers(PROVERS), dedup=True).prove_all(seqs)
    result = Dispatcher(DispatchConfig(PROVERS, dedup=True, **executor)).prove_all(seqs)
    assert [o.proved for o in result.outcomes] == [o.proved for o in reference.outcomes]
    assert result.dedup_replayed == reference.dedup_replayed == 2
    # The batch's representatives share no feature bucket, so no answer can
    # reorder another chain, whatever order they land in: full parity.
    assert _shape(result) == _shape(reference)
    assert _verdicts(result) == _verdicts(reference)
    assert _stat_counts(result) == _stat_counts(reference)


def test_dedup_with_cache_stores_only_representatives(executor):
    cache = SequentCache()
    seqs = _batch_with_duplicates()
    config = DispatchConfig(PROVERS, dedup=True, **executor)
    Dispatcher(config, cache).prove_all(seqs)
    # 3 distinct digests; the two proved chains store per-prover entries and
    # replaying the whole batch afterwards needs no live prover at all.
    replay = Dispatcher(config, cache).prove_all(seqs)
    assert replay.proved_live == 0
    assert not replay.stats


def test_dedup_with_no_duplicates_is_identity():
    seqs = [
        sequent([parse("p")], parse("p")),
        sequent([], parse("q")),
    ]
    plain = Dispatcher(make_provers(PROVERS)).prove_all(seqs)
    deduped = Dispatcher(make_provers(PROVERS), dedup=True).prove_all(seqs)
    assert _shape(deduped) == _shape(plain)
    assert _stat_counts(deduped) == _stat_counts(plain)
    assert deduped.dedup_replayed == 0


def test_dedup_report_byte_identical_to_no_dedup_run():
    """End to end: verifying a method with dedup produces the same formatted
    report, byte for byte, as the plain cached run."""
    from repro import suite, verify

    source = suite.source("SizedList")
    kwargs = dict(
        class_name="SizedList", method="size", provers=["smt"],
        prover_options={"smt": {"timeout": 2.0}},
    )
    plain = verify(source, cache=SequentCache(), **kwargs)
    deduped = verify(source, cache=SequentCache(), dedup=True, **kwargs)
    assert deduped.format() == plain.format()
    assert deduped.succeeded == plain.succeeded


def test_class_report_aggregates_dedup_counter():
    from repro import suite, verify_class

    report = verify_class(
        suite.source("SizedList"), class_name="SizedList", provers=["smt"],
        prover_options={"smt": {"timeout": 1.0}}, dedup=True,
    )
    assert report.dedup_replayed == sum(m.dedup_replayed for m in report.methods)
    assert report.proved_live <= report.proved_sequents
