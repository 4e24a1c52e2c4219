"""The ``cold-suite`` workload, and what every workload run reports."""

from __future__ import annotations

import gc
import resource
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import config
import oracle
import spans
import workloads
from stats import median

#: How often ``daemon-mixed`` repeats its set-up; ``setup_s`` is the median.
#: ``cold-suite`` repeats its set-up once per structure.
SETUP_REPEATS = 3


@dataclass
class RunResult:
    """What one workload run reports."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Per-layer values only the runner knows (daemon counters, lag, ...).
    layer_extra: Dict[str, float] = field(default_factory=dict)


def peak_rss_mb(children: bool = True) -> float:
    """Peak resident memory of this process plus its largest reaped child.

    A child's peak counts the pages it shared with this process until it
    exec'd, so a child started late in a run reads as large as its parent.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if children else 0
    return (own + child) / 1024.0


def _verify_structure(name: str, cache):
    from repro import suite

    return suite.verify_structure(name, cache=cache, **config.verify_kwargs())


@contextmanager
def timed_out_origins(counts: Counter) -> Iterator[None]:
    """Count, per origin, the unproved sequents some prover timed out on.

    Reads the outcomes every ``Dispatcher.prove_all`` returns; the verdicts
    themselves are untouched.
    """
    from repro.provers.base import Verdict
    from repro.provers.dispatcher import Dispatcher

    original = Dispatcher.prove_all

    def prove_all(self, *args, **kwargs):
        dispatched = original(self, *args, **kwargs)
        for outcome in dispatched.outcomes:
            if not outcome.proved and any(
                a.verdict is Verdict.TIMEOUT for a in outcome.answers
            ):
                counts[outcome.sequent.origin] += 1
        return dispatched

    Dispatcher.prove_all = prove_all
    try:
        yield
    finally:
        Dispatcher.prove_all = original


def check_class_report(report, timed_out: Counter, result: RunResult) -> int:
    """Oracle-check every method; returns the pinned proofs that timed out."""
    missed = 0
    for method in report.methods:
        result.attempted += 1
        problem, misses = oracle.open_failure(
            report.class_name, method.method_name, method.total_sequents,
            method.unproved_origins, timed_out,
        )
        if problem:
            result.failures.append(problem)
        elif misses:
            result.notes.append(
                f"{report.class_name}.{method.method_name}: {misses} pinned proof(s) "
                "ran out of time (not a failure; proved_share counts it)"
            )
        missed += misses
    return missed


def check_controls(cache, result: RunResult) -> None:
    """Send the controls through the verifier's own chain and cache."""
    from repro.provers.dispatcher import Dispatcher, make_provers

    dispatcher = Dispatcher(
        make_provers(list(config.CHAIN), **config.PROVER_OPTIONS),
        cache=cache, dedup=config.DEDUP,
    )
    dispatched = dispatcher.prove_all(oracle.control_sequents())
    result.attempted += len(dispatched.outcomes)
    result.failures.extend(oracle.control_failures([o.proved for o in dispatched.outcomes]))


def _time_import() -> float:
    """Wall time of a fresh interpreter loading the pinned portfolio."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from repro import suite;"
        "from repro.provers.dispatcher import make_provers;"
        "make_provers(sys.argv[2].split(','))"
    )
    args = [sys.executable, "-c", code, str(config.SRC), ",".join(config.CHAIN)]
    start = time.perf_counter()
    child = subprocess.Popen(args)
    # A blocking wait: a wait with a timeout polls the child in steps of up
    # to 50 ms, which rounds a 0.3 s set-up to that grain.  The timer bounds
    # it instead.
    watchdog = threading.Timer(60.0, child.kill)
    watchdog.start()
    try:
        returncode = child.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, args)
    return elapsed


# ---------------------------------------------------------------------------
# cold-suite
# ---------------------------------------------------------------------------


def run_cold(seed: int, seconds: float, tracer: Optional[spans.Tracer]) -> RunResult:
    """One cold pass over the ten structures in a seeded order.

    A cold pass is the unit of work and is never cut short, so this
    workload runs exactly one pass whatever ``seconds`` says.
    """
    from repro.provers.cache import SequentCache

    result = RunResult()
    setups = []
    order = workloads.cold_order(seed)
    result.notes.append("cold-suite order: " + ", ".join(order))
    if tracer is not None:
        spans.install(tracer)
    cache = SequentCache()
    proved = total = methods = 0
    reports = []
    timed_out: Counter = Counter()
    suite_s = 0.0
    with timed_out_origins(timed_out):
        for index, name in enumerate(order):
            # One set-up before each structure, outside the timed work: the
            # host's speed shifts in phases of seconds to a minute, and set-ups
            # spread over the whole pass give a median that does not hang on
            # the phase the run started in.
            setups.append(_time_import())
            # A full collection, also outside the timed work, so that
            # peak_rss_mb does not depend on how much cyclic garbage of the
            # structures before the collector happened to leave.
            gc.collect()
            start = time.perf_counter()
            if tracer is not None:
                with tracer.op("bench.structure", f"s{index}"):
                    reports.append(_verify_structure(name, cache))
            else:
                reports.append(_verify_structure(name, cache))
            suite_s += time.perf_counter() - start
    missed = 0
    for report in reports:
        missed += check_class_report(report, timed_out, result)
        proved += sum(m.proved_sequents for m in report.methods)
        total += sum(m.total_sequents for m in report.methods)
        methods += len(report.methods)
    if tracer is not None:
        tracer.uninstall()
    check_controls(cache, result)
    result.metrics["setup_s"] = median(setups)
    # The verifier runs wholly in this process; the only children are the
    # set-up probes, whose peaks would read as this process's.
    result.metrics["peak_rss_mb"] = peak_rss_mb(children=False)
    # The user's first run is one operation: both latency percentiles are
    # its time to the last verdict (per-method times, one sample each, swing
    # with the host's speed far more than the whole pass does).
    result.metrics["proved_share"] = proved / total
    result.metrics["latency_p50_ms"] = suite_s * 1e3
    result.metrics["latency_p99_ms"] = suite_s * 1e3
    result.metrics["throughput_per_s"] = methods / suite_s
    result.notes.append(
        f"cold-suite: proved {proved}/{total} in suite_s {suite_s:.2f}; "
        f"{missed} pinned proof(s) ran out of time"
    )
    if tracer is not None:
        estimate = len(tracer.spans) * spans.span_cost() / suite_s
        result.layer_extra["trace.overhead_ratio"] = estimate
        result.notes.append(
            f"trace.overhead_ratio: estimated from {len(tracer.spans)} spans x "
            "measured per-span cost (a second cold pass would not fit the run)"
        )
    return result
