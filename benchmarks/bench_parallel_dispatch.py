"""P1 — parallel cached dispatch: scaling with workers, near-free re-runs.

The integrated-reasoning loop is embarrassingly parallel: splitting turns
one verification condition into many independent sequents (Sections
5.1-5.2), each offered to the portfolio in isolation.  This benchmark
measures the two scaling levers of the dispatch subsystem:

* ``workers=N`` — a verification run dispatched on a worker pool, with the
  deterministic merge keeping outcomes and per-prover statistics identical
  to the sequential dispatcher;
* the normalized-sequent result cache — a second verification of the same
  class replays every verdict (100% hit rate, zero sequents re-proved).
"""

from __future__ import annotations

import os

from repro import suite, verify_class
from repro.java.resolver import parse_program
from repro.provers.cache import SequentCache
from repro.provers.dispatcher import DEFAULT_ORDER, DispatchConfig, Dispatcher, make_provers
from repro.provers.ordering import ProverOrdering
from repro.vcgen.vcgen import generate_method_vc

from conftest import run_once

STRUCTURE = "SinglyLinkedList"
#: The benchmark measures the dispatch layer (fan-out, merge, cache), not
#: prover power: a single engine with a tight timeout keeps the open
#: obligations of the harder methods from dominating the wall time.
PROVERS = ["smt"]
OPTIONS = {"smt": {"timeout": 0.5}}


class _PortfolioOrder(ProverOrdering):
    """A table that never reorders: Jahob's fixed, user-given order.

    Both sides of the parity check run under one such table.  A learned
    table promotes provers as answers land — in sequent order inline, in
    completion order on a pool — so the two runs could credit different
    provers for a sequent (which sequents prove never differs)."""

    def rank_bucket(self, bucket, provers):
        return list(range(len(provers)))


def _sequent_batch():
    program = parse_program(suite.source(STRUCTURE))
    sequents = []
    for info in program.methods_of(STRUCTURE):
        if info.decl.body is None or not info.decl.contract_text:
            continue
        sequents.extend(generate_method_vc(program, STRUCTURE, info.decl.name).sequents)
    return sequents


def test_parallel_dispatch_matches_sequential(benchmark):
    """workers=4 over one class's sequents; outcomes must equal sequential."""
    sequents = _sequent_batch()
    names = ["syntactic"] + PROVERS
    fixed = _PortfolioOrder()
    sequential = Dispatcher(make_provers(names, **OPTIONS), ordering=fixed).prove_all(sequents)

    def run():
        config = DispatchConfig(names, OPTIONS, workers=4)
        return Dispatcher(config, ordering=fixed).prove_all(sequents)

    parallel = run_once(benchmark, run)
    benchmark.extra_info.update(
        {
            "sequents": parallel.total,
            "proved": parallel.proved,
            "workers": parallel.workers,
            "wall_time_s": round(parallel.wall_time, 3),
            "cpu_time_s": round(parallel.cpu_time, 3),
            "sequential_wall_time_s": round(sequential.wall_time, 3),
            "worker_utilization": {
                w: round(u, 3) for w, u in parallel.worker_utilization.items()
            },
        }
    )
    assert [(o.proved, o.prover) for o in parallel.outcomes] == [
        (o.proved, o.prover) for o in sequential.outcomes
    ]
    assert {name: (s.attempted, s.proved) for name, s in parallel.stats.items()} == {
        name: (s.attempted, s.proved) for name, s in sequential.stats.items()
    }


def test_cached_reverification_is_near_free(benchmark):
    """Verify the class twice with a shared cache; the second run replays
    every verdict (the acceptance criterion: 0 sequents re-proved)."""
    source = suite.source(STRUCTURE)
    cache = SequentCache()
    first = verify_class(
        source, class_name=STRUCTURE, provers=PROVERS,
        prover_options=OPTIONS, cache=cache,
    )

    def run():
        return verify_class(
            source, class_name=STRUCTURE, provers=PROVERS,
            prover_options=OPTIONS, cache=cache,
        )

    second = run_once(benchmark, run)
    benchmark.extra_info.update(
        {
            "first_run_time_s": round(first.total_time, 3),
            "second_run_time_s": round(second.total_time, 3),
            "first_hit_rate": round(first.cache_hit_rate, 3),
            "second_hit_rate": round(second.cache_hit_rate, 3),
            "second_proved_from_cache": second.proved_from_cache,
            "speedup": round(first.total_time / max(second.total_time, 1e-9), 1),
        }
    )
    assert second.proved_sequents == first.proved_sequents
    # 100% hit rate: every lookup of the re-verification is answered by the
    # cache, and no sequent is re-proved by running a prover.
    assert second.cache_hit_rate == 1.0
    assert second.proved_from_cache == second.proved_sequents
    assert sum(s.attempted for s in second.methods[0].prover_stats.values()) == 0


def test_tight_budget_dispatch_never_overruns(benchmark):
    """Timeout-stress smoke (run by CI with DISPATCH_SEQUENT_BUDGET tightened):
    dispatch the full portfolio over one class's sequents under an enforced
    per-sequent budget; no sequent's live prover time may overrun it by more
    than the 0.25s epsilon."""
    budget = float(os.environ.get("DISPATCH_SEQUENT_BUDGET", "0.5"))
    epsilon = 0.25
    sequents = _sequent_batch()
    dispatcher = Dispatcher(
        make_provers(DEFAULT_ORDER),
        sequent_budget=budget,
    )

    result = run_once(benchmark, lambda: dispatcher.prove_all(sequents))
    overruns = []
    for outcome in result.outcomes:
        live = sum(a.time for a in outcome.answers if not a.cached)
        if live > budget + epsilon:
            overruns.append((outcome.sequent.origin, round(live, 3)))
    benchmark.extra_info.update(
        {
            "sequents": result.total,
            "proved": result.proved,
            "budget_s": budget,
            "max_live_s": round(
                max(
                    (sum(a.time for a in o.answers if not a.cached) for o in result.outcomes),
                    default=0.0,
                ),
                3,
            ),
        }
    )
    assert not overruns, f"sequents overran the enforced budget: {overruns}"
