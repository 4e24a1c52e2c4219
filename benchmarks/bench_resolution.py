"""P4 — set-of-support + ordered resolution vs the fair baseline.

The portfolio's slowest path is the resolution engine on the
invariant-exit obligations of the mutating suite methods — the
fieldWrite-backbone proofs of ``AssocList.put`` took ~20s of saturation
under the PR-2 fair strategy, and ``BinarySearchTree.insert``'s placement
obligations drowned outright (the method carried the portfolio's last
trusted ``assume``).  This benchmark times both methods' *FOL-heavy*
sequents under ``strategy="sos"`` (set of support + KBO ordering +
negative-literal selection, the default) and ``strategy="fair"``
(the undirected PR-2 loop), and pins the headline claims:

* ``AssocList.put`` discharges in well under the former ~20s, and
* the ``sos`` strategy is at least 2x faster than ``fair`` on the
  FOL-heavy methods combined.

The fair runs are bounded by the per-prover timeout, so "2x faster"
is conservative: where fair times out, its recorded time is the budget,
not the (unbounded) true search time.
"""

from __future__ import annotations

from repro import suite, verify
from repro.provers.dispatcher import DEFAULT_ORDER

from conftest import run_once

#: Per-strategy prover options; generous FOL budget so the fair strategy's
#: remaining power (not its cut-off) is what gets measured.
FOL_TIMEOUT = 20.0
METHODS = [("AssocList", "put"), ("BinarySearchTree", "insert")]


def _verify(structure: str, method: str, strategy: str, provers=DEFAULT_ORDER):
    options = {
        "smt": {"timeout": 2.0},
        "fol": {
            "timeout": FOL_TIMEOUT,
            "strategy": strategy,
            # The fair baseline is the PR-2 engine: no ordering, no selection.
            "ordering": "kbo" if strategy == "sos" else "none",
            "selection": "negative" if strategy == "sos" else "none",
        },
    }
    return verify(
        suite.source(structure),
        class_name=structure,
        method=method,
        provers=provers,
        prover_options=options,
        sequent_budget=FOL_TIMEOUT + 5.0,
    )


def test_sos_discharges_assoclist_put_fast(benchmark):
    """AssocList.put's written-backbone proofs: ~20s of fair saturation,
    now well under that (the acceptance bound is 10s for the whole FOL
    share, and the engine actually needs well under 1s)."""
    report = run_once(benchmark, lambda: _verify("AssocList", "put", "sos"))
    benchmark.extra_info.update(
        {
            "proved": report.proved_sequents,
            "total": report.total_sequents,
            "fol_time_s": round(report.time_of("fol"), 3),
            "wall_time_s": round(report.total_time, 3),
        }
    )
    assert report.succeeded, report.format()
    assert report.time_of("fol") < 10.0, (
        f"AssocList.put FOL time regressed: {report.time_of('fol'):.1f}s"
    )


def test_sos_discharges_bst_insert_without_assume(benchmark):
    """BinarySearchTree.insert end-to-end — the obligation set that used to
    require a trusted assume — discharges fully under sos."""
    report = run_once(benchmark, lambda: _verify("BinarySearchTree", "insert", "sos"))
    benchmark.extra_info.update(
        {
            "proved": report.proved_sequents,
            "total": report.total_sequents,
            "trusted_assumes": report.trusted_assumes,
            "fol_time_s": round(report.time_of("fol"), 3),
            "wall_time_s": round(report.total_time, 3),
        }
    )
    assert report.succeeded, report.format()
    assert report.trusted_assumes == 0


def test_sos_at_least_twice_as_fast_as_fair_on_fol_heavy_methods(benchmark):
    """The acceptance criterion: summed FOL time of the FOL-heavy methods
    under sos is at most half the fair strategy's (whose timeouts bound it
    from above, making the comparison conservative).  It measures the
    engine, not the chain: inside the chain SMT settles most of
    ``AssocList.put`` before FOL sees it, so here FOL runs alone (after the
    syntactic prover) and both strategies get the same sequents."""
    sos_reports = [
        _verify(structure, method, "sos", ["fol"]) for structure, method in METHODS
    ]

    def run_fair():
        return [_verify(structure, method, "fair", ["fol"]) for structure, method in METHODS]

    fair_reports = run_once(benchmark, run_fair)
    sos_time = sum(r.time_of("fol") for r in sos_reports)
    fair_time = sum(r.time_of("fol") for r in fair_reports)
    benchmark.extra_info.update(
        {
            "sos_fol_time_s": round(sos_time, 3),
            "fair_fol_time_s": round(fair_time, 3),
            "speedup": round(fair_time / max(sos_time, 1e-9), 1),
            "sos_all_proved": all(r.succeeded for r in sos_reports),
            "fair_all_proved": all(r.succeeded for r in fair_reports),
        }
    )
    # Everything sos leaves open, fair leaves open too (sos never loses
    # a method fair could finish).
    for sos_report, fair_report in zip(sos_reports, fair_reports):
        assert sos_report.proved_sequents >= fair_report.proved_sequents
    assert sos_time * 2.0 <= fair_time, (
        f"sos ({sos_time:.1f}s) is not 2x faster than fair ({fair_time:.1f}s)"
    )
