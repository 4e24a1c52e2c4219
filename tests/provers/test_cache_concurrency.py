"""Cache/dispatch accounting fixes, pinned.

Two regressions this file guards:

* ``SequentOutcome.from_cache`` once answered True only for *proved*
  outcomes, so cached UNKNOWN/TIMEOUT replays were invisible to hit
  accounting — a warm re-run of a batch with open obligations looked
  half-cold.  Now any outcome decided by a replayed answer counts.
* ``SequentCache._disk_write`` once staged every write of a key under one
  shared temp name (``<key>.tmp``): two processes storing the same key
  could interleave ``write_text`` / ``replace`` and publish a torn entry.
  Staging names are now unique per writer (pid + per-process counter), so
  the final ``os.replace`` always publishes a fully written payload.  The
  multi-process hammer here exercises exactly that interleaving.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.core.report import MethodReport
from repro.form.parser import parse_formula as parse
from repro.provers.base import ProverAnswer, Verdict
from repro.provers.cache import SequentCache
from repro.provers.dispatcher import Dispatcher, make_provers
from repro.vcgen.sequent import sequent

PROVERS = ["syntactic", "smt"]
OPTIONS_SIG = "timeout=2.0"


def _corpus():
    return [
        sequent([parse("a < b"), parse("b < c")], parse(f"a < c + {k}"))
        for k in range(8)
    ]


# -- from_cache counts every replay, not just proofs --------------------------


def test_cached_nonproof_verdict_counts_as_replay():
    cache = SequentCache()
    unprovable = [sequent([], parse("q"))]
    cold = Dispatcher(make_provers(PROVERS), cache=cache).prove_all(unprovable)
    assert cold.proved == 0 and cold.replayed == 0

    warm = Dispatcher(make_provers(PROVERS), cache=cache).prove_all(unprovable)
    (outcome,) = warm.outcomes
    assert not outcome.proved
    assert outcome.from_cache  # regression: used to be False for non-proofs
    assert warm.replayed == 1
    assert warm.proved_from_cache == 0  # the proofs-only counter is unchanged
    assert warm.cache_stats.hits >= 1


def test_warm_mixed_batch_replays_everything():
    """Warm traffic = replayed outcomes whatever the verdict: a batch with
    one proof and one open obligation replays both on the second run."""
    cache = SequentCache()
    batch = [_corpus()[0], sequent([], parse("q"))]
    Dispatcher(make_provers(PROVERS), cache=cache).prove_all(batch)
    warm = Dispatcher(make_provers(PROVERS), cache=cache).prove_all(batch)
    assert warm.replayed == 2
    assert warm.proved_from_cache == 1
    assert all(outcome.from_cache for outcome in warm.outcomes)
    assert not warm.stats  # no live prover ran


def test_report_format_marks_nonproof_replays():
    report = MethodReport(
        class_name="C", method_name="m", total_sequents=2, proved_sequents=1,
        prover_order=["smt"], unproved_origins=["goal 2"],
        cache_hits=2, cache_misses=0, proved_from_cache=1, replayed_sequents=2,
    )
    assert "1 proofs replayed (+1 non-proof replays)" in report.format()
    report.replayed_sequents = 1  # proofs only: no marker
    assert "non-proof" not in report.format()


# -- unique per-writer staging names ------------------------------------------


def test_disk_write_stages_under_unique_per_writer_names(tmp_path, monkeypatch):
    recorded = []
    original = Path.write_text

    def spy(self, *args, **kwargs):
        recorded.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", spy)
    seq = _corpus()[0]
    answer = ProverAnswer(Verdict.PROVED, "smt", time=0.0)
    SequentCache(cache_dir=tmp_path).store(seq, "smt", answer, OPTIONS_SIG)
    SequentCache(cache_dir=tmp_path).store(seq, "smt", answer, OPTIONS_SIG)

    staged = [name for name in recorded if name.endswith(".tmp")]
    assert len(staged) == 2
    assert len(set(staged)) == 2  # never one shared staging file per key
    key = SequentCache.key(seq, "smt", OPTIONS_SIG)
    assert f"{key}.tmp" not in staged  # the old colliding name
    assert all(f".{os.getpid()}." in name for name in staged)
    assert not list(tmp_path.glob("*.tmp"))  # both were published


def test_disk_write_failure_leaves_no_staging_file(tmp_path, monkeypatch):
    def refuse(self, target):
        raise OSError("disk full")

    monkeypatch.setattr(Path, "replace", refuse)
    cache = SequentCache(cache_dir=tmp_path)
    seq = _corpus()[0]
    assert cache.store(seq, "smt", ProverAnswer(Verdict.PROVED, "smt"), OPTIONS_SIG)
    assert not list(tmp_path.iterdir())  # no entry, but also no stray .tmp
    # The memory tier still serves the verdict.
    assert cache.lookup(seq, "smt", OPTIONS_SIG) is not None


@pytest.mark.parametrize(
    "payload",
    ["null", "[]", '{"verdict": "proved", "proof_time": "x"}'],
    ids=["null", "list", "string-proof-time"],
)
def test_disk_entry_that_is_not_a_verdict_object_is_a_miss(tmp_path, payload):
    seq = _corpus()[0]
    key = SequentCache.key(seq, "smt", OPTIONS_SIG)
    (tmp_path / f"{key}.json").write_text(payload)
    cache = SequentCache(cache_dir=tmp_path)
    assert cache.lookup(seq, "smt", OPTIONS_SIG) is None
    assert cache.stats.misses == 1 and cache.stats.hits == 0


# -- multi-process hammer -----------------------------------------------------


def _hammer(cache_dir, rounds, queue):
    """One hammer process: repeatedly store every key, then re-read all of
    them through a *fresh* cache (empty memory tier, so every lookup takes
    the disk path) while the sibling processes keep overwriting the same
    files.  Reports the number of failed reads (lost or torn entries)."""
    try:
        corpus = _corpus()
        answer = ProverAnswer(Verdict.PROVED, "smt", time=0.001, detail="hammer")
        writer = SequentCache(cache_dir=cache_dir)
        for seq in corpus:
            writer.store(seq, "smt", answer, OPTIONS_SIG)
        bad = 0
        for _ in range(rounds):
            for seq in corpus:
                writer.store(seq, "smt", answer, OPTIONS_SIG)
            reader = SequentCache(cache_dir=cache_dir)
            for seq in corpus:
                got = reader.lookup(seq, "smt", OPTIONS_SIG)
                if got is None or got.verdict is not Verdict.PROVED:
                    bad += 1
        queue.put(bad)
    except BaseException as exc:  # noqa: BLE001 - surface in the parent
        queue.put(repr(exc))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="hammer relies on fork so test-module functions need no import",
)
def test_multiprocess_hammer_no_lost_or_torn_entries(tmp_path):
    ctx = multiprocessing.get_context("fork")
    queue = ctx.SimpleQueue()
    procs = [
        ctx.Process(target=_hammer, args=(str(tmp_path), 40, queue))
        for _ in range(4)
    ]
    for proc in procs:
        proc.start()
    results = [queue.get() for _ in procs]
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0

    assert results == [0, 0, 0, 0], results
    # Every published entry is complete, valid JSON with the stored verdict,
    # and no staging file was left behind.
    entries = list(tmp_path.glob("*.json"))
    assert len(entries) == 8
    for path in entries:
        payload = json.loads(path.read_text())
        assert payload["verdict"] == Verdict.PROVED.value
        assert payload["detail"] == "hammer"
    assert not list(tmp_path.glob("*.tmp"))
    # A fresh cache replays the whole corpus from the disk tier.
    fresh = SequentCache(cache_dir=tmp_path)
    assert all(fresh.lookup(seq, "smt", OPTIONS_SIG) for seq in _corpus())
    assert fresh.stats.disk_hits == 8
