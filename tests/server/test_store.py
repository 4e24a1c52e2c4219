"""Unit tests of the daemon's verdict store (a plain ``SequentCache``) and
the wire encodings."""

import pytest

from repro.form.parser import parse_formula as parse
from repro.provers.base import ProverAnswer, Verdict
from repro.provers.cache import SequentCache
from repro.server.wire import (
    method_report_from_wire,
    method_report_to_wire,
    sequent_from_wire,
    sequent_to_wire,
)
from repro.vcgen.sequent import sequent


def _seqs(count=32):
    return [
        sequent([parse("a < b"), parse("b < c")], parse(f"a < c + {k}"))
        for k in range(count)
    ]


def _proof(detail="t"):
    return ProverAnswer(Verdict.PROVED, "smt", time=0.01, detail=detail)


# -- content addressing -------------------------------------------------------


def test_alpha_variant_sequents_share_one_entry():
    """Content addressing: structurally identical sequents (splitter
    numbering aside) hit the same entry."""
    store = SequentCache()
    one = sequent([parse("x$1 : A")], parse("x$1 : A"))
    two = sequent([parse("x$9 : A")], parse("x$9 : A"))
    assert one.digest() == two.digest()
    store.store(one, "smt", _proof())
    hit = store.lookup(two, "smt")
    assert hit is not None and hit.verdict is Verdict.PROVED
    assert len(store) == 1


# -- lookup / store -----------------------------------------------------------


def test_lookup_store_roundtrip_and_stats():
    store = SequentCache()
    seqs = _seqs(6)
    assert store.lookup(seqs[0], "smt") is None
    for seq in seqs:
        store.store(seq, "smt", _proof("cold"))
    for seq in seqs:
        hit = store.lookup(seq, "smt")
        assert hit is not None
        assert hit.verdict is Verdict.PROVED
        assert hit.detail == "cold"
    stats = store.stats
    assert stats.stores == 6
    assert stats.hits == 6
    assert stats.misses == 1
    assert stats.hit_rate == pytest.approx(6 / 7)


def test_disk_tier_shared_between_store_instances(tmp_path):
    seqs = _seqs(5)
    writer = SequentCache(cache_dir=tmp_path)
    for seq in seqs:
        writer.store(seq, "smt", _proof())
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{SequentCache.key(seq, 'smt')}.json" for seq in seqs
    )

    reader = SequentCache(cache_dir=tmp_path)  # fresh memory tier
    for seq in seqs:
        assert reader.lookup(seq, "smt") is not None
    assert reader.stats.disk_hits == 5


def test_clear_disk_empties_the_store(tmp_path):
    store = SequentCache(cache_dir=tmp_path)
    for seq in _seqs(8):
        store.store(seq, "smt", _proof())
    store.clear(disk=True)
    assert len(store) == 0
    assert not any(tmp_path.glob("*.json"))
    fresh = SequentCache(cache_dir=tmp_path)
    assert fresh.lookup(_seqs(1)[0], "smt") is None


def test_options_signature_is_part_of_the_key():
    store = SequentCache()
    seq = _seqs(1)[0]
    store.store(seq, "smt", _proof(), options_signature="timeout=1")
    assert store.lookup(seq, "smt", "timeout=1") is not None
    assert store.lookup(seq, "smt", "timeout=2") is None
    assert store.lookup(seq, "fol", "timeout=1") is None


# -- wire roundtrips ----------------------------------------------------------


def test_sequent_wire_roundtrip_preserves_digest():
    for seq in _seqs(4):
        back = sequent_from_wire(sequent_to_wire(seq))
        assert back.digest() == seq.digest()
        assert back.origin == seq.origin
        assert back.hints == seq.hints


def test_method_report_wire_roundtrip_is_exact():
    from repro.core.report import MethodReport
    from repro.provers.base import ProverStats

    report = MethodReport(
        class_name="C", method_name="m", total_sequents=3, proved_sequents=2,
        proved_during_splitting=1,
        prover_stats={"smt": ProverStats(attempted=2, proved=2, time=0.5)},
        prover_order=["syntactic", "smt"], unproved_origins=["goal 3"],
        cache_hits=2, cache_misses=1, proved_from_cache=1,
        replayed_sequents=2, dedup_replayed=1, trusted_assumes=0,
    )
    back = method_report_from_wire(method_report_to_wire(report))
    assert back == report
    assert back.format() == report.format()


def test_method_report_from_wire_ignores_fields_it_does_not_know():
    from repro.core.report import MethodReport

    report = MethodReport(class_name="C", method_name="m", total_sequents=1)
    payload = method_report_to_wire(report)
    # An older daemon still sends fields this reader no longer has, such
    # as the wall time of the batch a request shared with others.
    payload["retired_field"] = 0.25
    assert method_report_from_wire(payload) == report


# -- disk-tier lifecycle (compaction) -----------------------------------------


def test_cache_compact_enforces_entry_cap_oldest_first(tmp_path):
    import os
    import time as _time

    cache = SequentCache(cache_dir=tmp_path)
    seqs = _seqs(6)
    for k, seq in enumerate(seqs):
        cache.store(seq, "smt", _proof(f"v{k}"))
        path = cache._disk_path(SequentCache.key(seq, "smt"))
        os.utime(path, (100.0 + k, 100.0 + k))  # deterministic age order
    assert cache.disk_entries() == 6

    evicted = cache.compact(max_entries=2)
    assert evicted == 4
    assert cache.disk_entries() == 2
    # The two *newest* entries survive; a fresh cache (empty memory tier)
    # still reads them, and the evicted ones are plain misses.
    fresh = SequentCache(cache_dir=tmp_path)
    assert fresh.lookup(seqs[5], "smt") is not None
    assert fresh.lookup(seqs[4], "smt") is not None
    assert fresh.lookup(seqs[0], "smt") is None


def test_cache_compact_enforces_age_cap_and_sweeps_stale_tmp(tmp_path):
    import os
    import time as _time

    cache = SequentCache(cache_dir=tmp_path)
    old, new = _seqs(2)
    cache.store(old, "smt", _proof())
    path = cache._disk_path(SequentCache.key(old, "smt"))
    ancient = _time.time() - 1000.0
    os.utime(path, (ancient, ancient))
    cache.store(new, "smt", _proof())
    stale_tmp = tmp_path / "deadbeef.123.0.tmp"
    stale_tmp.write_text("{}")
    os.utime(stale_tmp, (ancient, ancient))

    evicted = cache.compact(max_age=500.0)
    assert evicted == 1
    assert cache.disk_entries() == 1
    assert not stale_tmp.exists()
    fresh = SequentCache(cache_dir=tmp_path)
    assert fresh.lookup(new, "smt") is not None
    assert fresh.lookup(old, "smt") is None


def test_memory_only_compact_is_a_noop():
    cache = SequentCache()
    cache.store(_seqs(1)[0], "smt", _proof())
    assert cache.compact(max_entries=0) == 0
    assert cache.disk_entries() == 0


def test_evicted_entries_reprove_instead_of_tearing(tmp_path):
    store = SequentCache(cache_dir=tmp_path)
    seqs = _seqs(4)
    for seq in seqs:
        store.store(seq, "smt", _proof("original"))
    store.compact(max_entries=0)
    assert store.disk_entries() == 0

    # A fresh instance (cold memory tier) misses cleanly and re-stores.
    fresh = SequentCache(cache_dir=tmp_path)
    assert fresh.lookup(seqs[0], "smt") is None
    fresh.store(seqs[0], "smt", _proof("reproved"))
    hit = fresh.lookup(seqs[0], "smt")
    assert hit is not None and hit.detail == "reproved"
