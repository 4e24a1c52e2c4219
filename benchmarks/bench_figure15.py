"""E1 — Figure 15: per-data-structure proved sequents per prover and times.

One benchmark per data structure of the suite (paper Section 7).  Each run
verifies every contracted method of the structure with the default prover
chain and records, in ``extra_info``, the row of the Figure 15 table:
sequents proved by the syntactic prover / SMT / first-order / MONA / BAPA
provers, the number proved during splitting, and whether every obligation
was discharged.

Absolute times differ from the paper (different provers, hardware and
substrate); the comparable part is the shape of the row: the syntactic
prover and the SMT/first-order provers carry the bulk of the sequents, the
specialised decision procedures (MONA, BAPA) pick up the set-algebraic and
cardinality obligations, and a residue of open obligations may remain.
"""

from __future__ import annotations

import pytest

from repro import suite
from repro.provers.dispatcher import DEFAULT_ORDER
from conftest import FAST_PROVER_OPTIONS, run_once

PROVERS = list(DEFAULT_ORDER)


@pytest.mark.parametrize("name", list(suite.FIGURE15_NAMES))
def test_figure15_row(benchmark, name):
    entry = suite.entry(name)

    def verify():
        return suite.verify_structure(
            name, provers=PROVERS, prover_options=FAST_PROVER_OPTIONS
        )

    report = run_once(benchmark, verify)
    row = report.row(PROVERS)
    benchmark.extra_info.update(
        {
            "paper_row": entry.paper_row,
            "methods": len(report.methods),
            "total_sequents": report.total_sequents,
            "proved_sequents": report.proved_sequents,
            "proved_during_splitting": report.proved_during_splitting,
            "verified": report.succeeded,
            **{f"proved_by_{p}": report.proved_by(p) for p in PROVERS},
            "row": row,
        }
    )
    # The harness reproduces the table even when a residue of obligations is
    # left open; every structure must at least discharge the majority of its
    # obligations automatically.
    assert report.total_sequents > 0
    assert report.proved_sequents + report.proved_during_splitting > 0
