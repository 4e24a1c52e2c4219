#!/usr/bin/env python3
"""Regenerate the Figure 15 table: per-data-structure sequent counts and times.

For every data structure of the bundled suite (paper Section 7), every
contracted method is verified with the default prover chain
(``repro.provers.dispatcher.DEFAULT_ORDER``), and one row of the table is
printed: how many sequents each prover proved, the total verification time,
and whether every obligation was discharged.

The whole table shares one on-disk sequent cache (``--cache-dir``) and the
dedup pre-pass: obligations that recur across methods and structures —
invariant re-establishment, frame conjuncts, recurring null checks — are
proved once and replayed everywhere else, so a full table run reports fewer
live proofs than sequents dispatched, and a *re*-run replays almost
everything.  Per-sequent budgets (``--budget``) are enforced inside every
prover (see the Deadline contract in ``repro.provers.base``), so a stuck
decision procedure is cut off instead of stalling its row.

This is the full reproduction run and takes several minutes; pass a subset
of structure names to restrict it, e.g.::

    python examples/figure15_table.py SinglyLinkedList SizedList
    python examples/figure15_table.py --workers 4 --budget 10

With ``--server host:port`` the table is regenerated *through a verify
daemon* (``python -m repro.server``) instead of in-process: sources are
shipped to the daemon, obligations are batched and deduplicated across
every client the daemon serves, and verdicts come from its verdict store —
a warm daemon reproduces the table without proving anything live, and the
rows are byte-identical to a local warm-cache run.  ``--cache-dir`` /
``--workers`` are daemon-side concerns in that mode and are ignored.
"""

import argparse

from repro import suite
from repro.core.report import format_table
from repro.provers.cache import SequentCache
from repro.provers.dispatcher import DEFAULT_ORDER, DispatchConfig


def _print_profile(report) -> None:
    """Per-phase breakdown of one structure: frontend, then each prover.

    Phase spans are the engines' own monotonic timers; per live answer they
    sum exactly to the answer's measured wall time (``other`` is the
    remainder bucket ``Prover.prove`` adds), so each prover's line adds up
    to its ``ProverStats.time``.  Cache replays contribute nothing.
    """
    frontend = report.frontend_phases
    if frontend:
        spans = ", ".join(f"{name} {seconds:.2f}s" for name, seconds in sorted(frontend.items()))
        print(f"     profile frontend: {spans}")
    for prover, phases in sorted(report.phase_times().items()):
        total = sum(phases.values())
        spans = ", ".join(
            f"{name} {seconds:.2f}s"
            for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1])
        )
        print(f"     profile {prover} ({total:.2f}s): {spans}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", help="suite structures to verify (default: all)")
    parser.add_argument(
        "--cache-dir", default=".figure15-cache",
        help="on-disk sequent cache shared by the whole table (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the shared disk cache"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker pool size per class (default: 1)"
    )
    parser.add_argument(
        "--budget", type=float, default=None,
        help="enforced per-sequent time budget in seconds (default: none)",
    )
    parser.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="verify through a running daemon (python -m repro.server) "
        "instead of in-process; its verdict store replaces --cache-dir",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-phase time breakdown (parse/vcgen frontend, then "
        "per-prover translate/clausify/instantiation/sat/theory/saturate "
        "spans of live attempts) after each structure's row",
    )
    args = parser.parse_args()

    names = args.names or list(suite.FIGURE15_NAMES)
    provers = list(DEFAULT_ORDER)
    # What a daemon honours too; the executor and dedup are local-dispatch
    # settings (the daemon runs its own farm and dedup).
    settings = dict(
        provers=provers,
        prover_options={"smt": {"timeout": 3.0}, "fol": {"timeout": 1.5}},
        sequent_budget=args.budget,
    )
    config = DispatchConfig.for_verify(**settings, dedup=True, workers=args.workers)
    client = cache = None
    if args.server:
        from repro.server import VerifyClient

        client = VerifyClient.from_address(args.server)
    elif not args.no_cache:
        cache = SequentCache(cache_dir=args.cache_dir)
    reports = []
    for name in names:
        print(f"verifying {name} ...", flush=True)
        if client is not None:
            report = client.verify_class(
                suite.source(name), class_name=suite.entry(name).name, **settings
            )
        else:
            report = suite.verify_structure(name, config=config, cache=cache)
        reports.append(report)
        row = report.row(provers)
        print("  ", {k: v for k, v in row.items() if v})
        if args.profile:
            _print_profile(report)
    print()
    print(format_table(reports, provers))

    dispatched = sum(r.total_sequents for r in reports)
    live = sum(r.proved_live for r in reports)
    # Replays whatever the verdict (cached UNKNOWN/TIMEOUTs included), not
    # just replayed proofs — the table's warm-traffic number.
    replayed = sum(r.replayed_sequents for r in reports)
    print()
    print(
        f"{dispatched} sequents dispatched: {live} proved live, "
        f"{replayed} replayed (shared cache + dedup pre-pass)."
    )
    if client is not None:
        stats = client.stats()
        store, service = stats["store"], stats["service"]
        print(
            f"Daemon {args.server}: store {store['hits']} hits / "
            f"{store['hits'] + store['misses']} lookups; "
            f"{service['live_proved']} proved live "
            f"daemon-wide, {service['live_reproofs']} re-proofs."
        )
        client.close()
    elif cache is not None:
        print(
            f"Cache: {cache.stats.hits} hits / {cache.stats.lookups} lookups "
            f"({cache.stats.hit_rate:.0%}), {cache.stats.stores} stores, "
            f"disk tier at {args.cache_dir!r}; learned prover ordering "
            f"({cache.ordering.bucket_count()} buckets) beside it."
        )


if __name__ == "__main__":
    main()
