#!/usr/bin/env python3
"""The verifier's benchmark: one command, two workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-suite --seed 1 --seconds 16 --trace 0

Workloads (inputs are generated from ``--seed``; see ``workloads.py``):

* ``cold-suite`` -- the ten Figure 15 structures verified cold, in one
  process with an empty cache, BinarySearchTree first and the other nine in
  a seeded order (one whole pass, which takes longer than ``--seconds``);
* ``daemon-mixed`` -- an open loop with seeded Poisson arrivals against an
  in-process ``VerifyServer`` at a light and a heavy rate: nine in ten
  requests re-verify a method whose verdicts the store holds, the rest
  prove fresh obligations live.

Every answer is checked against the oracle (``oracle.py``).  With
``--trace 0`` the last line of output reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run, and the
spans are written to ``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

import config

#: The end-to-end metrics every workload reports, with their units.
#: ``latency_*`` are times to verdict per operation: for ``cold-suite`` the
#: one operation is the whole cold pass (so both equal its wall time), for
#: ``daemon-mixed`` a request at the light rate, counted from its due time.
#: ``throughput_per_s`` is methods verified per second of the cold pass, and
#: heavy-rate goodput (answers within the latency limit per second) for
#: ``daemon-mixed``.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "proved_share": "ratio",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_per_s": "1/s",
}

WORKLOADS = ("cold-suite", "daemon-mixed")

#: Why a traced run reports some per-layer metrics as 0.
ZERO_REASONS = {
    "cold-suite": "cold-suite runs no daemon, wire, farm or load generator; "
                  "the rest are counts the pass never reached",
    "daemon-mixed": "the daemon builds its dispatcher once, during set-up, and "
                    "proves only the fresh obligations live; the rest are counts "
                    "the run never reached",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        config.require_program()
    except config.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import spans
    from cold_run import peak_rss_mb, run_cold
    from daemon_run import run_daemon

    runner = {"cold-suite": run_cold, "daemon-mixed": run_daemon}[args.workload]
    config.WORK.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    result = runner(args.seed, args.seconds, tracer)
    result.metrics.setdefault("peak_rss_mb", peak_rss_mb())
    result.metrics["ok_share"] = (
        1.0 - len(result.failures) / result.attempted if result.attempted else 0.0
    )
    for note in result.notes:
        print(note)
    for failure in result.failures:
        print(f"FAILED: {failure}")

    if tracer is None:
        units = END_TO_END_UNITS
        values = result.metrics
    else:
        units = dict(spans.layer_units(config.CHAIN))
        values = spans.layer_metrics(tracer, result.layer_extra, config.CHAIN)
        path = config.WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.dump(path)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(config.ROOT)}")
        zero = [name for name in units if not values[name]]
        if zero:
            print(f"zero in this trace ({ZERO_REASONS[args.workload]}): {', '.join(zero)}")
    summary = {
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
