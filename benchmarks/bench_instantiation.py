"""P5 — E-matching quantifier instantiation on the retired-assume lookups.

The suite's last two trusted ``assume False`` terminators (the lookup
loops of ``AssocList`` and ``HashTable``) were retired by the reverse
content invariant — an existentially-guarded universal that only
model-driven E-matching instantiates at the loop exits.  This benchmark
pins the headline claims of the SMT prover's E-matching engine:

* both lookups discharge **every** obligation, with zero trusted assumes,
  under a 10-second per-sequent budget (the acceptance bound; the engine
  actually needs well under a second per obligation);
* the quantified obligations really go through instantiation (a non-zero
  instance count is recorded), so a silent bypass cannot masquerade as a
  pass.
"""

from __future__ import annotations

from repro import suite, verify
from repro.provers.dispatcher import DEFAULT_ORDER

from conftest import run_once

BUDGET = 10.0
LOOKUPS = [("AssocList", "lookup"), ("HashTable", "lookup")]


def _verify(structure: str, method: str):
    return verify(
        suite.source(structure),
        class_name=structure,
        method=method,
        provers=DEFAULT_ORDER,
        prover_options={
            "smt": {"timeout": 6.0},
            "fol": {"timeout": 3.0},
        },
        sequent_budget=BUDGET,
    )


def test_lookups_discharge_under_budget(benchmark):
    """Both retired-assume lookups verify fully within the 10s budget."""

    def run():
        return [_verify(structure, method) for structure, method in LOOKUPS]

    reports = run_once(benchmark, run)
    for (structure, method), report in zip(LOOKUPS, reports):
        benchmark.extra_info[f"{structure}.{method}"] = {
            "proved": report.proved_sequents,
            "total": report.total_sequents,
            "trusted_assumes": report.trusted_assumes,
            "instances": report.instantiations,
            "wall_time_s": round(report.total_time, 3),
        }
        assert report.succeeded, f"{structure}.{method}:\n" + report.format()
        assert report.trusted_assumes == 0
        assert report.fully_verified
        assert report.instantiations > 0, (
            f"{structure}.{method} proved without instantiation — the "
            "quantified obligations were bypassed"
        )
