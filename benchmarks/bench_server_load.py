"""P6 — verify daemon under load: concurrent request waves, warm hit rate.

The service claim of the daemon (``repro.server``): once the verdict
store is warm, heavy concurrent traffic is answered by replay — no sequent
is ever proved twice.  This benchmark fires two waves of concurrent
``prove_sequents`` requests at an in-process daemon:

* a **cold** wave populates the store (each request dispatches on its own
  lane, and the in-flight registry defers a digest another lane is already
  proving, so even the cold wave proves each distinct digest exactly once);
* a **warm** wave — the measured one — must be answered entirely from the
  store: hit rate >= 99%, zero live re-proofs, zero failed requests, and,
  since the store settles every warm request at admission, no batch.

Reading the output: ``extra_info`` carries the headline numbers —
``warm_hit_rate`` (fraction of warm sequents answered by replay),
``live_proofs_cold`` / ``live_proofs_warm`` (the latter must be 0),
``cold_p50_ms`` .. ``warm_p99_ms`` (per-request latency percentiles across
the concurrent wave) and ``warm_rps`` (requests per wall-second).  Scale
with ``SERVER_LOAD_REQUESTS`` (default 1000; CI smoke uses 200) and
``SERVER_LOAD_THREADS`` (default 32 concurrent client threads, one
persistent connection each)::

    PYTHONPATH=src python -m pytest benchmarks/bench_server_load.py -q --benchmark-disable
    PYTHONPATH=src SERVER_LOAD_REQUESTS=5000 python -m pytest benchmarks/bench_server_load.py -q
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.form.parser import parse_formula as parse
from repro.provers.base import Prover, ProverAnswer, Seconds, Verdict, registry
from repro.server import VerifyClient, VerifyServer
from repro.vcgen.sequent import sequent

from conftest import run_once

REQUESTS = int(os.environ.get("SERVER_LOAD_REQUESTS", "1000"))
THREADS = int(os.environ.get("SERVER_LOAD_THREADS", "32"))
SEQUENTS_PER_REQUEST = 3
DISTINCT_DIGESTS = 40

PROVERS = ["syntactic", "smt"]
OPTIONS = {"smt": {"timeout": 2.0}}

#: Forty distinct-digest LIA obligations; every request draws three, so the
#: waves overlap heavily across clients (the cross-request dedup regime).
CORPUS = [
    sequent([parse("a < b"), parse("b < c")], parse(f"a < c + {k}"))
    for k in range(DISTINCT_DIGESTS)
]


def _batch_for(index):
    return [
        CORPUS[(index * SEQUENTS_PER_REQUEST + j) % DISTINCT_DIGESTS]
        for j in range(SEQUENTS_PER_REQUEST)
    ]


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _fire_wave(port, requests, threads):
    """``requests`` concurrent ``prove_sequents`` calls from ``threads``
    client threads (one persistent connection per thread)."""
    local = threading.local()
    clients, clients_lock = [], threading.Lock()
    latencies = [0.0] * requests
    totals = {"sequents": 0, "proved": 0, "replayed": 0}
    totals_lock = threading.Lock()
    failures = []

    def one_request(index):
        client = getattr(local, "client", None)
        if client is None:
            client = local.client = VerifyClient(port=port, timeout=120.0)
            with clients_lock:
                clients.append(client)
        started = time.perf_counter()
        try:
            response = client.prove_sequents(
                _batch_for(index), provers=PROVERS, prover_options=OPTIONS
            )
        except Exception as exc:  # noqa: BLE001 - a failed request fails the run
            failures.append(f"request {index}: {exc!r}")
            return
        latencies[index] = time.perf_counter() - started
        if response["proved"] != response["total"]:
            failures.append(f"request {index}: {response['proved']}/{response['total']} proved")
        with totals_lock:
            totals["sequents"] += response["total"]
            totals["proved"] += response["proved"]
            totals["replayed"] += response["replayed"]

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(one_request, range(requests)))
    wall = time.perf_counter() - started
    for client in clients:
        client.close()

    ordered = sorted(latencies)
    return {
        "failures": failures,
        "wall": wall,
        "rps": requests / wall if wall else 0.0,
        "p50_ms": _percentile(ordered, 0.50) * 1e3,
        "p95_ms": _percentile(ordered, 0.95) * 1e3,
        "p99_ms": _percentile(ordered, 0.99) * 1e3,
        **totals,
    }


def test_server_load_warm_wave_is_pure_replay(benchmark, tmp_path):
    """Cold wave populates the store; the measured warm wave must be
    answered entirely by replay: hit rate >= 99%, zero re-proved sequents,
    zero failed requests, every request answered at admission (no batch)."""
    server = VerifyServer(port=0, store_dir=str(tmp_path / "store")).start()
    control = VerifyClient(port=server.port)
    try:
        cold = _fire_wave(server.port, REQUESTS, THREADS)
        assert not cold["failures"], cold["failures"][:5]
        after_cold = control.stats()

        warm = run_once(
            benchmark, lambda: _fire_wave(server.port, REQUESTS, THREADS)
        )
        assert not warm["failures"], warm["failures"][:5]
        after_warm = control.stats()
    finally:
        control.close()
        server.stop()

    service_cold = after_cold["service"]
    service_warm = after_warm["service"]
    live_proofs_warm = service_warm["live_proved"] - service_cold["live_proved"]
    hit_rate = warm["replayed"] / warm["sequents"] if warm["sequents"] else 0.0

    # The acceptance gates: a warm wave of concurrent requests is answered
    # from the store — nothing proved twice, nothing failed.
    assert warm["proved"] == warm["sequents"] == REQUESTS * SEQUENTS_PER_REQUEST
    assert hit_rate >= 0.99, f"warm hit rate {hit_rate:.2%}"
    assert live_proofs_warm == 0, f"{live_proofs_warm} sequents re-proved warm"
    assert service_warm["live_reproofs"] == 0
    # Store-first admission: the warm wave never waited for a lane.
    assert service_warm["batches"] == service_cold["batches"]
    assert service_warm["store_answered"] - service_cold["store_answered"] == REQUESTS
    # The cold wave proved each distinct obligation exactly once.
    assert service_cold["live_proved"] == DISTINCT_DIGESTS
    assert service_cold["distinct_live_digests"] == DISTINCT_DIGESTS

    benchmark.extra_info.update(
        {
            "requests": REQUESTS,
            "threads": THREADS,
            "distinct_digests": DISTINCT_DIGESTS,
            "warm_hit_rate": round(hit_rate, 4),
            "live_proofs_cold": service_cold["live_proved"],
            "live_proofs_warm": live_proofs_warm,
            "cold_p50_ms": round(cold["p50_ms"], 2),
            "cold_p95_ms": round(cold["p95_ms"], 2),
            "cold_p99_ms": round(cold["p99_ms"], 2),
            "warm_p50_ms": round(warm["p50_ms"], 2),
            "warm_p95_ms": round(warm["p95_ms"], 2),
            "warm_p99_ms": round(warm["p99_ms"], 2),
            "warm_rps": round(warm["rps"], 1),
        }
    )
    print(
        f"\nserver load: {REQUESTS} requests x {SEQUENTS_PER_REQUEST} sequents "
        f"on {THREADS} threads; warm hit rate {hit_rate:.1%}, "
        f"{live_proofs_warm} re-proofs; latency p50/p95/p99 "
        f"{warm['p50_ms']:.1f}/{warm['p95_ms']:.1f}/{warm['p99_ms']:.1f} ms "
        f"({warm['rps']:.0f} req/s warm, cold p50 {cold['p50_ms']:.1f} ms)"
    )


# -- mixed-config lanes -------------------------------------------------------

N_CONFIGS = 4
REQS_PER_CONFIG = 6


class SleepyProver(Prover):
    """Proves everything after ``delay`` seconds of deadline-polled sleep —
    a wall-clock-heavy, CPU-free stand-in for a slow decision procedure, so
    the lane-overlap speedup below is deterministic even on a single core."""

    name = "sleepy"

    @dataclass(frozen=True)
    class Options(Prover.Options):
        timeout: Seconds = 30.0
        delay: float = 0.08

    def attempt(self, sequent, deadline=None):
        end = time.monotonic() + self.options.delay
        while time.monotonic() < end:
            if deadline is not None:
                deadline.checkpoint(detail="sleeping")
            time.sleep(0.005)
        return ProverAnswer(Verdict.PROVED, self.name, detail="slept")


def _register_sleepy():
    if "sleepy" not in registry.known():
        registry.register("sleepy", SleepyProver)


def _mixed_config_wave(port):
    """One client thread per prover configuration, each submitting its
    requests *sequentially* (a pipelined client): per-config work is a
    serial chain, so total wall time measures how well the daemon overlaps
    different configurations across lanes."""
    results = {}
    failures = []

    def one_config(config):
        delay = 0.08 + config * 0.001  # distinct options -> distinct config key
        verdicts = []
        try:
            with VerifyClient(port=port, timeout=120.0) as client:
                for r in range(REQS_PER_CONFIG):
                    response = client.prove_sequents(
                        [CORPUS[config * REQS_PER_CONFIG + r]],
                        provers=["sleepy"],
                        prover_options={"sleepy": {"delay": delay}},
                    )
                    verdicts.append(
                        tuple(o["proved"] for o in response["outcomes"])
                    )
        except Exception as exc:  # noqa: BLE001
            failures.append(f"config {config}: {exc!r}")
            return
        results[config] = verdicts

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=N_CONFIGS) as pool:
        list(pool.map(one_config, range(N_CONFIGS)))
    wall = time.perf_counter() - started
    assert not failures, failures[:5]
    return wall, results


def _lanes_run(lanes):
    # One worker: each lane proves its request inline, because the sleepy
    # prover is registered only in this process and a farm could not run it.
    server = VerifyServer(port=0, lanes=lanes, workers=1).start()
    control = VerifyClient(port=server.port)
    try:
        wall, results = _mixed_config_wave(server.port)
        stats = control.stats()
    finally:
        control.close()
        server.stop()
    return wall, results, stats


def test_server_mixed_config_lanes_throughput(benchmark):
    """The multi-lane acceptance gate: a mixed-config workload (N config
    keys, each a serial client pipeline) runs >= 1.5x faster on a multi-lane
    daemon than on a single-lane one, with identical verdicts and zero
    cross-lane re-proofs.  The workload's provers sleep instead of burning
    CPU, so the overlap — and the gate — hold on any core count."""
    _register_sleepy()

    single_wall, single_results, single_stats = _lanes_run(lanes=1)
    multi_wall, multi_results, multi_stats = run_once(
        benchmark, lambda: _lanes_run(lanes=N_CONFIGS)
    )

    # Identical verdicts, request by request, on both daemons.
    assert multi_results == single_results
    assert all(
        verdicts == [(True,)] * REQS_PER_CONFIG
        for verdicts in multi_results.values()
    )
    # Single-flight held across lanes.
    assert multi_stats["service"]["live_reproofs"] == 0
    assert single_stats["service"]["live_reproofs"] == 0
    assert multi_stats["lanes"]["peak_busy"] >= 2, "lanes never overlapped"
    assert single_stats["lanes"]["peak_busy"] == 1
    assert multi_stats["lanes"]["workers"] == 1

    speedup = single_wall / multi_wall if multi_wall else 0.0
    benchmark.extra_info.update(
        {
            "configs": N_CONFIGS,
            "requests_per_config": REQS_PER_CONFIG,
            "single_lane_wall_s": round(single_wall, 3),
            "multi_lane_wall_s": round(multi_wall, 3),
            "lane_speedup": round(speedup, 2),
            "peak_lanes_busy": multi_stats["lanes"]["peak_busy"],
        }
    )
    print(
        f"\nmixed-config lanes: {N_CONFIGS} configs x {REQS_PER_CONFIG} requests; "
        f"single-lane {single_wall:.2f}s, {N_CONFIGS} lanes {multi_wall:.2f}s "
        f"({speedup:.1f}x, peak {multi_stats['lanes']['peak_busy']} lanes busy, "
        "each proving inline)"
    )
    assert speedup >= 1.5, f"lane speedup {speedup:.2f}x < 1.5x"
