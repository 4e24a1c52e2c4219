"""The traced run: spans around the calls into each layer, from outside.

Nothing in the verifier is edited.  :func:`install` wraps the public
functions of each layer where their callers look them up:

* ``parse_program``, ``generate_method_vc`` and ``make_provers`` in
  ``repro.core.verifier``'s namespace;
* ``Dispatcher.__init__`` (the dispatcher each ``verify`` call builds) and
  both ``prove_all`` methods;
* ``Prover.prove``, ``SequentCache.lookup`` / ``store`` (the daemon's
  sharded store is made of ``SequentCache`` shards) and ``Sequent.digest``;
* ``VerifyService.prove`` and the wire encoders/decoders the daemon calls.

Each span records name, start, end, parent and request id.  Parents follow
``contextvars``, so they are right across asyncio tasks; the daemon's
request pool is made to carry the context into its threads, so a
``verify_method`` request's parse and VC generation hang under the request
that caused them.  Spans stay in memory and are written out at the end.

Prover time inside farm worker processes is not traced there (forked
workers inherit the wrappers, which pass straight through outside the
tracing process); it is read from the answers the workers return.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from stats import median, self_times, tail

#: (id, name, start, end, parent, request, attrs)
Span = Tuple[int, str, float, float, Optional[int], Optional[str], Optional[dict]]

AttrFn = Callable[[tuple, dict, Any], Optional[dict]]


class EngineTally:
    """Per-prover counters read from the answers of every dispatch."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = {}
        self.attempts: Dict[str, int] = {}
        self.proved: Dict[str, int] = {}
        self.timeout_s: Dict[str, float] = {}
        self.unsupported: Dict[str, int] = {}
        self.phases: Dict[str, float] = {}
        self.unproved_busy = 0.0
        self.unproved_sequents = 0
        self.dedup_replayed = 0

    def add(self, result) -> float:
        """Fold one ``DispatchResult``; returns its live prover seconds."""
        live_total = 0.0
        self.dedup_replayed += result.dedup_replayed
        for outcome in result.outcomes:
            live = [a for a in outcome.answers if not a.cached]
            for answer in live:
                name = answer.prover
                self.busy[name] = self.busy.get(name, 0.0) + answer.time
                self.attempts[name] = self.attempts.get(name, 0) + 1
                if answer.proved:
                    self.proved[name] = self.proved.get(name, 0) + 1
                verdict = answer.verdict.value
                if verdict == "timeout":
                    self.timeout_s[name] = self.timeout_s.get(name, 0.0) + answer.time
                elif verdict == "unsupported":
                    self.unsupported[name] = self.unsupported.get(name, 0) + 1
                for phase, seconds in answer.phases.items():
                    key = f"{name}.{phase}"
                    self.phases[key] = self.phases.get(key, 0.0) + seconds
                live_total += answer.time
            if live and not outcome.proved:
                self.unproved_sequents += 1
                self.unproved_busy += sum(a.time for a in live)
        return live_total


class Tracer:
    """In-memory span recorder for the process that created it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        #: Guards the counters below: the daemon's request and lane threads
        #: update them concurrently.
        self.lock = threading.Lock()
        self.engines = EngineTally()
        self.vc_sequents = 0
        self.proved_during_splitting = 0
        self._ids = itertools.count(1)
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_parent", default=None
        )
        self._request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, attrs: Optional[AttrFn] = None) -> Callable:
        """``fn`` with a span around every call made in this process."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = tracer._parent.get()
            token = tracer._parent.set(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._parent.reset(token)
                extra = attrs(args, kwargs, result) if attrs is not None else None
                tracer.spans.append(
                    (span_id, name, start, end, parent, tracer._request.get(), extra)
                )

        return traced

    def wrap_async(self, fn: Callable, name: str, attrs: Optional[AttrFn] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = tracer._parent.get()
            token = tracer._parent.set(span_id)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._parent.reset(token)
                extra = attrs(args, kwargs, None) if attrs is not None else None
                tracer.spans.append(
                    (span_id, name, start, end, parent, tracer._request.get(), extra)
                )

        return traced

    @contextmanager
    def op(self, name: str, request: str) -> Iterator[None]:
        """A root span for one benchmark operation, tagging its request id."""
        request_token = self._request.set(request)
        span_id = next(self._ids)
        parent_token = self._parent.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._parent.reset(parent_token)
            self._request.reset(request_token)
            self.spans.append((span_id, name, start, end, None, request, None))

    # -- patching --------------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr``; :meth:`uninstall` puts the original back."""
        had = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, name, start, end, parent, request, extra in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "request": request}
                if extra:
                    record.update({k: v for k, v in extra.items() if k != "seqs"})
                out.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# The layer boundaries
# ---------------------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.core.verifier as verifier
    from repro.provers.base import Prover
    from repro.provers.cache import SequentCache
    from repro.provers.dispatcher import Dispatcher, ParallelDispatcher
    from repro.server import daemon, wire
    from repro.vcgen.sequent import Sequent

    def vc_attrs(args, kwargs, method_vc):
        if method_vc is not None:
            with tracer.lock:
                tracer.vc_sequents += len(method_vc.sequents)
                tracer.proved_during_splitting += method_vc.proved_during_splitting
        return None

    def tally(result) -> float:
        with tracer.lock:
            return tracer.engines.add(result)

    def lookup_attrs(args, kwargs, entry):
        return {"hit": entry is not None}

    def local_prove_all(args, kwargs, result):
        if result is not None:
            return {"live_s": tally(result), "farm": False}
        return None

    def farm_prove_all(args, kwargs, result):
        sequents = args[1] if len(args) > 1 else kwargs.get("sequents", ())
        extra = {"seqs": frozenset(map(id, sequents)), "farm": True}
        if result is not None:
            extra["live_s"] = tally(result)
        return extra

    def service_prove_attrs(args, kwargs, _):
        sequents = args[1] if len(args) > 1 else kwargs.get("sequents", ())
        return {"seqs": frozenset(map(id, sequents))}

    def engine_attrs(args, kwargs, answer):
        return {"prover": args[0].name}

    tracer.patch(verifier, "parse_program", tracer.wrap(verifier.parse_program, "java.parse"))
    tracer.patch(verifier, "generate_method_vc",
                 tracer.wrap(verifier.generate_method_vc, "vcgen.generate", vc_attrs))
    tracer.patch(verifier, "make_provers", tracer.wrap(verifier.make_provers, "dispatch.build"))
    tracer.patch(Dispatcher, "__init__", tracer.wrap(Dispatcher.__init__, "dispatch.build"))
    tracer.patch(Dispatcher, "prove_all",
                 tracer.wrap(Dispatcher.prove_all, "dispatch.prove_all", local_prove_all))
    tracer.patch(ParallelDispatcher, "prove_all",
                 tracer.wrap(ParallelDispatcher.prove_all, "dispatch.prove_all", farm_prove_all))
    tracer.patch(Prover, "prove", tracer.wrap(Prover.prove, "engine", engine_attrs))
    tracer.patch(SequentCache, "lookup",
                 tracer.wrap(SequentCache.lookup, "cache.lookup", lookup_attrs))
    tracer.patch(SequentCache, "store", tracer.wrap(SequentCache.store, "cache.store"))
    tracer.patch(Sequent, "digest", tracer.wrap(Sequent.digest, "vcgen.digest"))
    tracer.patch(daemon.VerifyService, "prove",
                 tracer.wrap_async(daemon.VerifyService.prove, "daemon.prove",
                                   service_prove_attrs))
    for name in ("outcome_to_wire", "method_report_to_wire", "class_report_to_wire"):
        tracer.patch(daemon, name, tracer.wrap(getattr(daemon, name), "wire.encode"))
    tracer.patch(daemon, "sequents_from_wire",
                 tracer.wrap(daemon.sequents_from_wire, "wire.decode"))
    tracer.patch(wire, "sequents_to_wire", tracer.wrap(wire.sequents_to_wire, "wire.encode"))


def trace_server(tracer: Tracer, server) -> None:
    """Tag each daemon request's spans with its wire id and carry the
    request's context into the server's request-pool threads."""
    dispatch_op = tracer.wrap_async(server._dispatch_op, "server.request")

    async def traced_dispatch_op(request):
        request_token = tracer._request.set(str(request.get("id")))
        try:
            return await dispatch_op(request)
        finally:
            tracer._request.reset(request_token)

    pool = server._request_pool
    submit = pool.submit

    def submit_in_context(fn, *args, **kwargs):
        return submit(contextvars.copy_context().run, fn, *args, **kwargs)

    tracer.patch(server, "_dispatch_op", traced_dispatch_op)
    tracer.patch(pool, "submit", submit_in_context)


def span_cost() -> float:
    """Seconds one span adds to a call, measured on a no-op function."""
    samples = 20000

    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap(noop, "probe")
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        traced()
    wrapped = time.perf_counter() - start
    return max(0.0, (wrapped - bare) / samples)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Per-layer metric names and units, in report order (engine metrics are
#: expanded per engine by :func:`layer_units`).
ENGINE_METRICS = (
    ("busy_s", "s"), ("attempts", "count"), ("proved", "count"),
    ("useful_ratio", "ratio"), ("timeout_s", "s"), ("unsupported", "count"),
)
PHASES = (
    ("smt.sat_s", "smt.sat"), ("smt.theory_s", "smt.theory"),
    ("smt.instantiation_s", "smt.instantiation"), ("smt.clausify_s", "smt.clausify"),
    ("fol.translate_s", "fol.translate"), ("fol.saturate_s", "fol.saturate"),
)
BASE_UNITS = (
    ("java.parse_s", "s"), ("java.parse_calls", "count"),
    ("vcgen.generate_s", "s"), ("vcgen.sequents", "count"),
    ("vcgen.proved_during_splitting", "count"), ("vcgen.digest_s", "s"),
    ("vcgen.digest_calls", "count"),
    ("cache.lookup_s", "s"), ("cache.lookups", "count"), ("cache.hit_ratio", "ratio"),
    ("cache.store_s", "s"), ("cache.stores", "count"),
    ("dispatch.build_s", "s"), ("dispatch.prove_all_s", "s"),
    ("dispatch.overhead_s", "s"), ("dispatch.dedup_replayed", "count"),
)
TAIL_UNITS = (
    ("unproved.busy_s", "s"), ("unproved.sequents", "count"),
    ("wire.encode_s", "s"), ("wire.decode_s", "s"), ("wire.request_bytes", "B"),
    ("daemon.wait_p50_ms", "ms"), ("daemon.wait_p99_ms", "ms"),
    ("daemon.dispatch_p50_ms", "ms"),
    ("daemon.batches", "count"), ("daemon.sequents_per_batch", "count"),
    ("daemon.replayed_ratio", "ratio"), ("daemon.peak_lanes_busy", "count"),
    ("daemon.deferred_sequents", "count"), ("daemon.live_reproofs", "count"),
    ("farm.utilization", "ratio"),
    ("loadgen.lag_p99_ms", "ms"), ("trace.overhead_ratio", "ratio"),
)


def layer_units(engines) -> List[Tuple[str, str]]:
    units = list(BASE_UNITS)
    for engine in engines:
        units.extend((f"{engine}.{metric}", unit) for metric, unit in ENGINE_METRICS)
    units.extend((name, "s") for name, _ in PHASES)
    units.extend(TAIL_UNITS)
    return units


def _daemon_waits(spans: List[Span]) -> Tuple[List[float], List[float]]:
    """Per ``VerifyService.prove``: its wait (prove minus the dispatch that
    answered it) and that dispatch's duration, both in seconds.

    The answering dispatches are the farm ``prove_all`` calls that overlap
    the prove in time and received one of its sequents (deferred digests
    can take more than one).
    """
    dispatches = sorted(
        (s for s in spans if s[1] == "dispatch.prove_all" and s[6] and s[6].get("farm")),
        key=lambda s: s[2],
    )
    waits: List[float] = []
    answered_by: List[float] = []
    for span in spans:
        if span[1] != "daemon.prove" or not span[6]:
            continue
        seqs = span[6]["seqs"]
        start, end = span[2], span[3]
        dispatch = sum(
            d[3] - d[2] for d in dispatches
            if d[2] < end and d[3] > start and not seqs.isdisjoint(d[6]["seqs"])
        )
        if dispatch > 0:
            answered_by.append(dispatch)
            waits.append(max(0.0, (end - start) - dispatch))
    return waits, answered_by


def layer_metrics(tracer: Tracer, extra: Dict[str, float], engines) -> Dict[str, float]:
    """Every per-layer metric from the spans and answers of a traced run.

    ``extra`` supplies what only the workload runner knows (daemon counters
    from the ``stats`` op, request bytes, generator lag, farm utilization,
    tracing overhead); metrics of layers a workload does not exercise are 0.
    """
    spans = tracer.spans
    own = self_times((s[0], s[4], s[2], s[3]) for s in spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def self_s(name: str) -> float:
        return sum(own[s[0]] for s in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    lookups = by_name.get("cache.lookup", [])
    hits = sum(1 for s in lookups if s[6] and s[6]["hit"])
    engine_child: Dict[int, float] = {}
    for span in by_name.get("engine", ()):
        if span[4] is not None:
            engine_child[span[4]] = engine_child.get(span[4], 0.0) + span[3] - span[2]
    overhead = 0.0
    for span in by_name.get("dispatch.prove_all", ()):
        untraced_live = (span[6] or {}).get("live_s", 0.0) - engine_child.get(span[0], 0.0)
        overhead += max(0.0, own[span[0]] - max(0.0, untraced_live))

    answers = tracer.engines
    metrics: Dict[str, float] = {
        "java.parse_s": self_s("java.parse"),
        "java.parse_calls": count("java.parse"),
        "vcgen.generate_s": self_s("vcgen.generate"),
        "vcgen.sequents": tracer.vc_sequents,
        "vcgen.proved_during_splitting": tracer.proved_during_splitting,
        "vcgen.digest_s": self_s("vcgen.digest"),
        "vcgen.digest_calls": count("vcgen.digest"),
        "cache.lookup_s": self_s("cache.lookup"),
        "cache.lookups": len(lookups),
        "cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "cache.store_s": self_s("cache.store"),
        "cache.stores": count("cache.store"),
        "dispatch.build_s": self_s("dispatch.build"),
        "dispatch.prove_all_s": sum(s[3] - s[2] for s in by_name.get("dispatch.prove_all", ())),
        "dispatch.overhead_s": overhead,
        "dispatch.dedup_replayed": answers.dedup_replayed,
    }
    for engine in engines:
        attempts = answers.attempts.get(engine, 0)
        proved = answers.proved.get(engine, 0)
        metrics[f"{engine}.busy_s"] = answers.busy.get(engine, 0.0)
        metrics[f"{engine}.attempts"] = attempts
        metrics[f"{engine}.proved"] = proved
        metrics[f"{engine}.useful_ratio"] = proved / attempts if attempts else 0.0
        metrics[f"{engine}.timeout_s"] = answers.timeout_s.get(engine, 0.0)
        metrics[f"{engine}.unsupported"] = answers.unsupported.get(engine, 0)
    for name, phase in PHASES:
        metrics[name] = answers.phases.get(phase, 0.0)
    metrics["unproved.busy_s"] = answers.unproved_busy
    metrics["unproved.sequents"] = answers.unproved_sequents
    metrics["wire.encode_s"] = self_s("wire.encode")
    metrics["wire.decode_s"] = self_s("wire.decode")
    waits, dispatches = _daemon_waits(spans)
    metrics["daemon.wait_p50_ms"] = median(waits) * 1e3 if waits else 0.0
    metrics["daemon.wait_p99_ms"] = tail(waits).value * 1e3 if waits else 0.0
    metrics["daemon.dispatch_p50_ms"] = median(dispatches) * 1e3 if dispatches else 0.0
    for name, _ in TAIL_UNITS:
        metrics.setdefault(name, 0.0)
    metrics.update(extra)
    return metrics
