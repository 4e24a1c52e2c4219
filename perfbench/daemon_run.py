"""The ``daemon-mixed`` workload: an open loop against an in-process daemon."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import config
import oracle
import spans
import workloads
from stats import Sent, median, tail
from cold_run import SETUP_REPEATS, RunResult

#: At most one connection per core, as a single client machine would open.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: A request answered later than this after its due time misses the limit.
LATENCY_LIMIT_S = 0.5
#: Pause between the light and the heavy phase, so queues drain.
PHASE_PAUSE_S = 0.5


class _Daemon:
    """One daemon with a fresh store, filled during set-up."""

    def __init__(self, store_dir: Path, result: RunResult) -> None:
        from repro import suite
        from repro.server import VerifyClient, VerifyServer

        self.store_dir = store_dir
        shutil.rmtree(store_dir, ignore_errors=True)
        self.sources = {s: suite.source(s) for s, _ in workloads.READ_SET}
        self.server = VerifyServer(port=0, store_dir=str(store_dir)).start()
        self.client = VerifyClient(port=self.server.port)
        try:
            # The controls keep one farm worker busy for a while; the reads
            # fill the store meanwhile over the other connection.
            with ThreadPoolExecutor(1) as pool:
                controls = pool.submit(self._prove_controls)
                for structure, method in workloads.READ_SET:
                    self._fill(structure, method, result)
                flags = controls.result()
        except BaseException:
            self.stop()
            raise
        result.attempted += len(oracle.CONTROLS)
        if flags is None:
            result.failures.append("set-up: the control request failed")
        else:
            result.failures.extend(oracle.control_failures(flags))

    def _fill(self, structure: str, method: str, result: RunResult) -> None:
        from repro.server import VerifyServiceError

        result.attempted += 1
        try:
            report = self.client.verify_method(
                self.sources[structure], method, class_name=structure,
                provers=list(config.PROVERS), prover_options=config.PROVER_OPTIONS,
            )
        except VerifyServiceError as exc:
            result.failures.append(f"set-up {structure}.{method}: {exc}")
            return
        problem = oracle.method_failure(structure, method, report.proved_sequents,
                                        report.total_sequents)
        if problem:
            result.failures.append("set-up " + problem)

    def _prove_controls(self) -> Optional[List[bool]]:
        from repro.server import VerifyClient, VerifyServiceError

        try:
            with VerifyClient(port=self.server.port) as client:
                answer = client.prove_sequents(
                    oracle.control_sequents(), provers=list(config.CHAIN),
                    prover_options=config.PROVER_OPTIONS,
                )
        except VerifyServiceError:
            return None
        return [outcome["proved"] for outcome in answer["outcomes"]]

    def stop(self) -> None:
        self.client.close()
        self.server.stop()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def _frames(daemon: _Daemon, phase: str, requests: List[workloads.Request]) -> Tuple[List[str], int]:
    """Wire frames of one phase (built before it starts) and their bytes."""
    from repro.form.parser import parse_formula
    from repro.server import wire
    from repro.vcgen.sequent import sequent

    lines = []
    for index, request in enumerate(requests):
        frame = {"id": f"{phase}{index}", "prover_options": config.PROVER_OPTIONS}
        if request.is_read:
            structure, method = request.method
            frame.update(op="verify_method", source=daemon.sources[structure],
                         method=method, class_name=structure, provers=list(config.PROVERS))
        else:
            sequents = [
                sequent([parse_formula(a) for a in assumptions], parse_formula(goal))
                for assumptions, goal in request.obligations
            ]
            frame.update(op="prove_sequents", sequents=wire.sequents_to_wire(sequents),
                         provers=list(config.CHAIN))
        lines.append(json.dumps(frame))
    return lines, sum(len(line) + 1 for line in lines)


def _drive(port: int, phases: List[Tuple[str, List[str], List[float]]]) -> Dict[str, list]:
    """Run the generator process over the phases; its records per phase."""
    plan = {
        "port": port,
        "connections": CONNECTIONS,
        "pause": PHASE_PAUSE_S,
        "phases": [{"name": n, "lines": lines, "dues": dues} for n, lines, dues in phases],
    }
    budget = 60 + sum(max(dues, default=0.0) for _, _, dues in phases) * 3
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("loadgen.py"))],
        input=json.dumps(plan), capture_output=True, text=True, timeout=budget,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"load generator failed: {completed.stderr.strip()[-2000:]}")
    return json.loads(completed.stdout)["phases"]


def _check(requests: List[workloads.Request], records: list,
           result: RunResult) -> Tuple[List[Sent], List[bool]]:
    """Oracle-check every answer; returns timings and which answers were right."""
    timings: List[Sent] = []
    good: List[bool] = []
    for request, (due, ready, sent, done, answer) in zip(requests, records):
        timings.append(Sent(due, ready, sent, done))
        result.attempted += 1
        if not answer["ok"]:
            problem = f"request failed: {answer['error']}"
        elif request.is_read:
            problem = oracle.method_failure(*request.method, answer["proved"], answer["total"])
        elif tuple(answer["proved_flags"]) != request.expect_proved:
            problem = (f"prove_sequents answered {answer['proved_flags']}, "
                       f"expected {list(request.expect_proved)}")
        else:
            problem = ""
        if problem:
            result.failures.append(problem)
        good.append(not problem)
    return timings, good


def _proved(requests: List[workloads.Request], records: list) -> Tuple[int, int]:
    """Proved and total sequents over the answers, controls left out."""
    proved = total = 0
    for request, record in zip(requests, records):
        answer = record[4]
        if not answer["ok"]:
            total += (oracle.PINNED[request.method][1] if request.is_read
                      else sum(request.expect_proved))
        elif request.is_read:
            proved += answer["proved"]
            total += answer["total"]
        else:
            flags = [f for f, e in zip(answer["proved_flags"], request.expect_proved) if e]
            proved += sum(flags)
            total += len(flags)
    return proved, total


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    service_before, service_after = before["service"], after["service"]
    batches = service_after["batches"] - service_before["batches"]
    sequents = service_after["sequents"] - service_before["sequents"]
    replayed = service_after["replayed"] - service_before["replayed"]
    return {
        "daemon.batches": batches,
        "daemon.sequents_per_batch": sequents / batches if batches else 0.0,
        "daemon.replayed_ratio": replayed / sequents if sequents else 0.0,
        "daemon.peak_lanes_busy": after["lanes"]["peak_busy"],
        "daemon.deferred_sequents": (
            service_after["deferred_sequents"] - service_before["deferred_sequents"]
        ),
        "daemon.live_reproofs": service_after["live_reproofs"],
    }


def run_daemon(seed: int, seconds: float, tracer: Optional[spans.Tracer]) -> RunResult:
    result = RunResult()
    setups = []
    daemon: Optional[_Daemon] = None
    try:
        for repeat in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            began = time.perf_counter()
            daemon = _Daemon(config.WORK / f"daemon-store-{os.getpid()}", result)
            setups.append(time.perf_counter() - began)
        result.metrics["setup_s"] = median(setups)

        light_s = seconds * workloads.LIGHT_SHARE
        light = workloads.daemon_schedule(seed, "L", workloads.LIGHT_RATE, light_s)
        heavy = workloads.daemon_schedule(seed, "H", workloads.HEAVY_RATE, seconds - light_s)
        untraced_light: List[float] = []
        if tracer is not None:
            # The same light schedule untraced first, with its own fresh
            # obligations: the baseline of the tracing overhead.
            replay = workloads.daemon_schedule(
                seed, "L", workloads.LIGHT_RATE, light_s, tag="U")
            lines, _ = _frames(daemon, "U", replay)
            records = _drive(daemon.server.port, [("U", lines, [r.due for r in replay])])
            untraced_light = [t.latency for t in _check(replay, records["U"], result)[0]]
            spans.install(tracer)
            spans.trace_server(tracer, daemon.server)
        light_lines, light_bytes = _frames(daemon, "L", light)
        heavy_lines, heavy_bytes = _frames(daemon, "H", heavy)
        before = daemon.client.stats()
        began = time.perf_counter()
        records = _drive(daemon.server.port, [
            ("L", light_lines, [r.due for r in light]),
            ("H", heavy_lines, [r.due for r in heavy]),
        ])
        wall = time.perf_counter() - began
        after = daemon.client.stats()
        if tracer is not None:
            tracer.uninstall()
    finally:
        if daemon is not None:
            daemon.stop()

    light_sent, _ = _check(light, records["L"], result)
    heavy_sent, heavy_good = _check(heavy, records["H"], result)
    light_latency = [t.latency for t in light_sent]
    heavy_latency = [t.latency for t in heavy_sent]
    light_tail, heavy_tail = tail(light_latency), tail(heavy_latency)
    within = sum(1 for ok, t in zip(heavy_good, heavy_sent) if ok and t.latency <= LATENCY_LIMIT_S)
    # Goodput counts the heavy phase from its first due time to its last answer.
    heavy_wall = max(t.done for t in heavy_sent) - (heavy_sent[0].due - heavy[0].due)
    proved, total = _proved(light + heavy, records["L"] + records["H"])
    result.metrics["proved_share"] = proved / total
    result.metrics["latency_p50_ms"] = median(light_latency) * 1e3
    result.metrics["latency_p99_ms"] = light_tail.value * 1e3
    result.metrics["throughput_per_s"] = within / heavy_wall
    result.notes.append(
        f"daemon-mixed light {workloads.LIGHT_RATE:g}/s: {workloads.describe(light)}; "
        f"latency_p99_ms is p{light_tail.percentile:g} of {light_tail.samples}"
    )
    result.notes.append(
        f"daemon-mixed heavy {workloads.HEAVY_RATE:g}/s: {workloads.describe(heavy)}; "
        f"median {median(heavy_latency) * 1e3:.1f} ms, p{heavy_tail.percentile:g} of "
        f"{heavy_tail.samples} {heavy_tail.value * 1e3:.1f} ms; "
        f"{within} answered within {LATENCY_LIMIT_S * 1e3:g} ms"
    )

    if tracer is not None:
        lags = [t.lag for t in light_sent + heavy_sent]
        farm_busy = sum(
            (s[6] or {}).get("live_s", 0.0) for s in tracer.spans
            if s[1] == "dispatch.prove_all" and s[6] and s[6].get("farm")
        )
        requests = len(light) + len(heavy)
        result.layer_extra.update(_stats_delta(before, after))
        result.layer_extra.update({
            "wire.request_bytes": (light_bytes + heavy_bytes) / requests,
            "farm.utilization": farm_busy / (after["lanes"]["workers"] * wall),
            "loadgen.lag_p99_ms": tail(lags).value * 1e3,
            "trace.overhead_ratio": (
                (sum(light_latency) / len(light_latency))
                / (sum(untraced_light) / len(untraced_light)) - 1.0
            ),
        })
    return result
