"""The verify daemon: verification-as-a-service over the prover portfolio.

Everything the per-process pipeline already does — splitting, portfolio
dispatch, digest dedup, verdict caching — lives here behind a long-lived
asyncio server, so *many* concurrent clients share one prover farm and one
verdict store:

* :class:`VerifyService` answers each request on its own.  A request is
  first admitted against the verdict store: when the store settles every
  one of its sequents (the warm case), it is answered at once, from the
  same cache scan and accounting a dispatch would use.  Every other request
  (from ``verify_class`` / ``verify_method`` / raw ``prove_sequents``)
  waits for one of ``lanes`` lanes (by default one per farm worker, at
  least :data:`DEFAULT_LANES`), holds it until it is answered, and
  dispatches alone under its own configuration and deadline.  Requests for
  *different* configurations therefore never serialize behind each other,
  while an in-flight digest registry keeps the single-flight guarantee
  *per (digest, configuration)*: a lane skips digests currently being
  proved by another lane under the same configuration and picks their
  verdicts from the store once that dispatch lands
  (``ServiceStats.live_reproofs == 0`` pins this across lanes).
* Every claimed dispatch builds a fresh
  :class:`repro.provers.dispatcher.ParallelDispatcher` (cheap: a portfolio
  and its option signatures).  With ``workers > 1`` (by default one per
  CPU the daemon may run on) it runs on the prover farm, one *persistent*
  process pool shared by every lane, whose processes keep their prover
  portfolios across dispatches; with ``workers=1`` the dispatch runs
  inline in its lane thread.
* One :class:`repro.provers.cache.SequentCache` backs the verdicts:
  content-addressed by structural digest, one ``<store-dir>/<key>.json``
  file per verdict, safe under concurrent multi-process access — several
  daemons may share one store directory.  The cache also owns the learned
  prover ordering every lane ranks with (``<store-dir>/ordering.json``).
  Long-lived deployments bound the disk tier with ``--store-max-entries`` /
  ``--store-max-age``; the daemon compacts at startup and every
  ``compact_interval`` seconds (and on the ``compact`` op).
* :class:`VerifyServer` is the protocol front end: newline-delimited JSON
  over TCP (see ``repro.server.wire``), ops ``ping`` / ``stats`` /
  ``prove_sequents`` / ``verify_method`` / ``verify_class`` / ``compact`` /
  ``shutdown``.  Request frames are bounded by ``max_request_bytes``
  (default 16 MiB — not asyncio's 64 KiB line limit); an oversized frame is
  drained and answered with a structured error instead of dropping the
  connection.  ``verify_*`` requests run :func:`repro.core.verifier.verify`
  with a ``dispatch`` hook that routes the split sequents through the
  service — report assembly is byte-for-byte the local code path, which is
  what makes a server-backed run's report identical to a local warm-cache
  run's (request results deliberately report ``workers=1``: farm occupancy
  is a daemon-level number surfaced by the ``stats`` op, not a per-request
  one).  A source the Java or specification frontend cannot read is
  answered ``source: <message>``, with the frontend's location.

Per-request budgets reuse :class:`repro.provers.base.Deadline`: a request
carrying ``budget=T`` seconds is answered ``budget_exhausted`` if its
deadline passes before it holds a lane, and the deadline is threaded into
the dispatch itself: the prover chains enforce it cooperatively, and
outcomes reached after it passes come back ``budget_exhausted``.
Per-sequent prover budgets (``sequent_budget``) are enforced inside the
engines as everywhere else.

Starting a daemon::

    python -m repro.server --port 7333 --store-dir /var/tmp/verdicts

or in-process (tests, benchmarks)::

    from repro.server import VerifyServer, VerifyClient
    server = VerifyServer(port=0, store_dir="...").start()
    with VerifyClient(port=server.port) as client:
        report = client.verify_class(source, class_name="AssocList")
    server.stop()

Graceful shutdown: ``stop(drain=True)`` (or the ``shutdown`` op) stops
accepting connections, answers every admitted request, then exits;
``stop(drain=False)`` refuses requests still waiting for a lane with
:class:`ServiceStopped` and lets running dispatches complete.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.verifier import verify, verify_class
from ..form.parser import ParseError
from ..java.lexer import JavaSyntaxError
from ..java.resolver import ResolveError
from ..provers.base import Deadline
from ..provers.cache import SequentCache
from ..provers.dispatcher import (
    DEFAULT_ORDER,
    DispatchConfig,
    DispatchResult,
    ParallelDispatcher,
    SequentOutcome,
    _cache_scan,
    _dedup_representatives,
    _fan_out_duplicates,
    _merge_outcomes,
    _settled_outcome,
    available_cpus,
)
from ..spec.specparse import SpecParseError
from ..vcgen.sequent import Sequent
from .wire import (
    DEFAULT_MAX_REQUEST_BYTES,
    WireError,
    class_report_to_wire,
    method_report_to_wire,
    outcome_to_wire,
    request_from_wire,
    sequents_from_wire,
)

#: The fewest lanes (requests that may dispatch at once) a service gets
#: by default.  The default is one lane per farm worker and never fewer
#: than this: every cold request dispatches alone, so a burst of small
#: requests keeps the whole farm busy only with at least one lane per
#: worker, and a narrow farm still lets requests of different
#: configurations dispatch side by side.
DEFAULT_LANES = 4

#: Seconds between periodic store compactions (when disk caps are set).
DEFAULT_COMPACT_INTERVAL = 300.0

#: What the Java and specification frontends raise on a source they cannot
#: read; a ``verify_*`` request answers these as ``source: <message>``.
_FRONTEND_ERRORS = (JavaSyntaxError, ResolveError, SpecParseError, ParseError)

#: Verify-request fields whose only accepted value is true: ``verify`` always
#: runs the syntactic prover first and includes frame conditions, so a request
#: asking otherwise is refused rather than answered with a different report.
_ALWAYS_ON_VERIFY_FIELDS = ("always_syntactic_first", "include_frame")


class ServiceStopped(RuntimeError):
    """Raised to waiting requests when the daemon stops without draining."""


@dataclass
class ServiceStats:
    """Cumulative counters of the verify service (the ``stats`` op)."""

    requests: int = 0
    requests_expired: int = 0
    #: Requests the verdict store settled at admission: answered without a
    #: dispatch (their sequents still count in ``sequents`` and ``replayed``).
    store_answered: int = 0
    #: Dispatches run: one per claim round of a request on its lane.
    batches: int = 0
    sequents: int = 0
    live_proved: int = 0
    replayed: int = 0
    #: Live proofs of a (digest, configuration) pair the service had already
    #: proved live before — zero as long as the store + the cross-lane
    #: single-flight registry work as designed.
    live_reproofs: int = 0
    distinct_live_digests: int = 0
    #: Sequents a lane deferred because their digest was in flight on
    #: another lane under the same configuration (their verdicts were picked
    #: from the store afterwards instead of re-proved).
    deferred_sequents: int = 0
    #: High-water mark of concurrently busy lanes.
    peak_lanes_busy: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class VerifyService:
    """Answers requests from the store, else dispatches each on a lane.

    Up to ``lanes`` requests dispatch at once on a shared, persistent prover
    farm; the rest wait for a lane in arrival order.  Single-flight is per
    (digest, configuration), not per daemon: the in-flight registry lets a
    lane defer digests another lane is already proving under the same
    configuration and replay their verdicts from the store once that
    dispatch lands, so a digest is proved live at most once per
    configuration across the daemon's lifetime (``ServiceStats.live_reproofs``
    pins this).  A request the store settles outright never takes a lane: it
    is answered at admission (``ServiceStats.store_answered``).
    """

    def __init__(
        self,
        store: SequentCache,
        lanes: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.store = store
        # The farm defaults to the machine: every CPU this process may run
        # on a process worker.
        self.workers = max(1, int(workers)) if workers else available_cpus()
        self.lanes = max(1, int(lanes)) if lanes else max(DEFAULT_LANES, self.workers)
        self.stats = ServiceStats()
        self._lane_slots = asyncio.Semaphore(self.lanes)
        #: Requests in their admission store scan, sequents of requests
        #: waiting for a lane, and lanes dispatching.
        self._admitting = 0
        self._pending = 0
        self._lanes_busy = 0
        self._stopping = False
        # Lane executor: each dispatching request occupies one thread here
        # while its prove_all blocks — proving inline at ``workers=1``, else
        # waiting on the farm below.
        self._executor = ThreadPoolExecutor(self.lanes, thread_name_prefix="verify-lane")
        # The persistent prover farm: one process pool shared by every lane
        # and every configuration, its processes — and their per-process
        # portfolio caches — reused across dispatches.
        self._farm: Optional[ProcessPoolExecutor] = (
            ProcessPoolExecutor(max_workers=self.workers) if self.workers > 1 else None
        )
        # The cross-lane single-flight registry: (digest, config key) ->
        # event set once the dispatch proving that digest has stored its
        # verdicts.  Only touched from the event loop.
        self._inflight: Dict[Tuple[str, str], asyncio.Event] = {}
        self._live_proofs: Set[Tuple[str, str]] = set()
        self._live_digests: Set[str] = set()

    # -- client-facing --------------------------------------------------------

    @property
    def pending(self) -> int:
        """Sequents of the requests waiting for a lane."""
        return self._pending

    @property
    def lanes_busy(self) -> int:
        return self._lanes_busy

    @property
    def busy(self) -> bool:
        return bool(self._admitting or self._pending or self._lanes_busy)

    async def prove(
        self,
        sequents: Sequence[Sequent],
        config: DispatchConfig = DispatchConfig(),
        deadline: Optional[Deadline] = None,
    ) -> DispatchResult:
        """Answer a request's sequents from the store or a dispatch.

        ``config`` names the chain, options and per-sequent budget; the farm
        supplies the executor, and every dispatch runs the dedup pre-pass.

        Admission comes first: the store is scanned for the request's dedup
        representatives off the event loop, and a request it settles
        outright is answered at once, built exactly as a dispatch would
        build it.  Any other request waits for a lane, holds it until it is
        answered, and dispatches alone under its own deadline."""
        if self._stopping:
            raise ServiceStopped("the verify service is shutting down")
        if not sequents:
            return DispatchResult()
        sequents = list(sequents)
        self.stats.requests += 1
        if deadline is not None and deadline.expired():
            self.stats.requests_expired += 1
            return _expired_result(sequents)
        self._admitting += 1
        try:
            result = await asyncio.to_thread(
                _store_answer, self.store, sequents, config, deadline
            )
        finally:
            self._admitting -= 1
        if result is not None:
            self.stats.store_answered += 1
            self.stats.sequents += result.total
            self.stats.replayed += result.replayed
            return result
        config = dataclasses.replace(config, dedup=True, workers=self.workers)
        self._pending += len(sequents)
        try:
            await self._lane_slots.acquire()
        finally:
            self._pending -= len(sequents)
        try:
            # A stop without draining refuses every request still waiting
            # for a lane, one per freed lane.
            if self._stopping:
                raise ServiceStopped("service stopped")
            # A request whose deadline lapsed while it waited is answered
            # budget_exhausted without consuming any prover time.
            if deadline is not None and deadline.expired():
                self.stats.requests_expired += 1
                return _expired_result(sequents)
            self._lanes_busy += 1
            self.stats.peak_lanes_busy = max(self.stats.peak_lanes_busy, self._lanes_busy)
            try:
                return await self._dispatch(sequents, config, deadline)
            finally:
                self._lanes_busy -= 1
        finally:
            self._lane_slots.release()

    async def drain(self) -> None:
        """Wait until every admitted request has been answered."""
        while self.busy:
            await asyncio.sleep(0.005)

    async def stop(self, drain: bool = True) -> None:
        """Stop the service.  With ``drain`` every request already admitted
        is answered first; without it, requests still waiting for a lane get
        :class:`ServiceStopped`, while dispatches already running complete."""
        if drain:
            await self.drain()
        self._stopping = True
        await self.drain()
        self._executor.shutdown(wait=True)
        if self._farm is not None:
            self._farm.shutdown(wait=True)

    # -- dispatch -------------------------------------------------------------

    async def _dispatch(
        self,
        sequents: List[Sequent],
        config: DispatchConfig,
        deadline: Optional[Deadline],
    ) -> DispatchResult:
        """Prove one request's sequents under the single-flight registry:
        claim every digest nobody is proving and dispatch the claims, wait
        for digests another lane is proving under this configuration, and
        repeat until every sequent has an outcome."""
        loop = asyncio.get_running_loop()
        key = config.key()
        digests = [sequent.digest() for sequent in sequents]
        outcomes: List[Optional[SequentOutcome]] = [None] * len(sequents)
        deferred: Set[str] = set()

        pending = list(range(len(sequents)))
        while pending:
            if deadline is not None and deadline.expired():
                for index in pending:
                    outcomes[index] = SequentOutcome(
                        sequent=sequents[index], proved=False, budget_exhausted=True
                    )
                break
            # Partition the open sequents: claim every digest nobody is
            # proving (duplicates ride with their representative's claim),
            # defer digests in flight on another lane under this config.
            claimed: Dict[str, asyncio.Event] = {}
            waiting: Dict[str, asyncio.Event] = {}
            mine: List[int] = []
            for index in pending:
                digest = digests[index]
                if digest in claimed:
                    mine.append(index)
                    continue
                if digest in waiting:
                    continue
                event = self._inflight.get((digest, key))
                if event is not None:
                    waiting[digest] = event
                    if digest not in deferred:
                        deferred.add(digest)
                        self.stats.deferred_sequents += 1
                    continue
                event = asyncio.Event()
                self._inflight[(digest, key)] = event
                claimed[digest] = event
                mine.append(index)
            if mine:
                try:
                    # Built inside the try: a config the registry cannot
                    # build must still release the digests claimed above.
                    dispatcher = ParallelDispatcher(config, self.store, executor=self._farm)
                    result = await loop.run_in_executor(
                        self._executor,
                        functools.partial(
                            dispatcher.prove_all,
                            [sequents[index] for index in mine],
                            deadline=deadline,
                        ),
                    )
                finally:
                    # Verdicts are in the store (prove_all stores before
                    # returning), so deferring lanes may now replay them.
                    for digest, event in claimed.items():
                        self._inflight.pop((digest, key), None)
                        event.set()
                self._account(result, key)
                for index, outcome in zip(mine, result.outcomes):
                    outcomes[index] = outcome
                pending = [index for index in pending if outcomes[index] is None]
                continue  # re-partition: deferred digests may have landed
            # Nothing claimable: every open digest is being proved elsewhere.
            waiters = asyncio.gather(*(event.wait() for event in waiting.values()))
            if deadline is not None:
                try:
                    await asyncio.wait_for(
                        waiters, timeout=max(0.0, deadline.remaining())
                    )
                except asyncio.TimeoutError:
                    pass  # the loop re-checks the deadline
            else:
                await waiters

        return _request_result(outcomes, deadline)

    def _account(self, result: DispatchResult, key: str) -> None:
        """Fold one dispatch into the service counters (event-loop only).

        Reproof tracking is per (digest, configuration): the same digest
        proved under two different prover configurations is two legitimate
        live proofs (their verdicts key the store differently), never a
        reproof.  ``distinct_live_digests`` stays digest-only.
        """
        self.stats.batches += 1
        self.stats.sequents += result.total
        self.stats.replayed += result.replayed
        for outcome in result.outcomes:
            if outcome.proved and not outcome.from_cache:
                digest = outcome.sequent.digest()
                if (digest, key) in self._live_proofs:
                    self.stats.live_reproofs += 1
                else:
                    self._live_proofs.add((digest, key))
                self._live_digests.add(digest)
                self.stats.live_proved += 1
        self.stats.distinct_live_digests = len(self._live_digests)


def _wire_settings(request: Dict[str, Any]) -> Dict[str, Any]:
    """The dispatch settings a request carries on the wire (checked by
    :func:`_settings_error` first)."""
    provers = request.get("provers")
    return {
        "provers": DEFAULT_ORDER if provers is None else provers,
        "prover_options": request.get("prover_options") or {},
        "sequent_budget": request.get("sequent_budget"),
    }


def _settings_error(request: Dict[str, Any]) -> Optional[str]:
    """Why a request's dispatch settings are refused (None when valid).
    Checked before dispatch: a malformed field would otherwise fail deep
    inside the service, with an error that does not name it."""
    provers = request.get("provers")
    if provers is not None and not (
        isinstance(provers, list) and all(isinstance(name, str) for name in provers)
    ):
        return f"provers must be a list of prover names, got {provers!r:.80}"
    options = request.get("prover_options")
    if options is not None and not (
        isinstance(options, dict)
        and all(isinstance(value, dict) for value in options.values())
    ):
        return f"prover_options must map prover names to objects, got {options!r:.80}"
    budget = request.get("sequent_budget")
    if budget is not None and (type(budget) not in (int, float) or not budget > 0):
        return (
            "sequent_budget must be null or a positive number of seconds, "
            f"got {budget!r:.80}"
        )
    # ``not budget >= 0`` refuses a NaN budget too, which would never expire.
    budget = request.get("budget")
    if budget is not None and (type(budget) not in (int, float) or not budget >= 0):
        return (
            "budget must be null or a non-negative number of seconds, "
            f"got {budget!r:.80}"
        )
    return None


def _verify_fields_error(request: Dict[str, Any], class_wide: bool) -> Optional[str]:
    """Why a ``verify_method`` / ``verify_class`` request's own fields are
    refused (None when valid): a mistyped name would otherwise fail inside
    the frontend with an error that does not name it."""
    source = request.get("source")
    if not source:
        return "missing 'source'"
    if not isinstance(source, str):
        return f"source must be Java source text, got {source!r:.80}"
    class_name = request.get("class_name")
    if class_name is not None and not isinstance(class_name, str):
        return f"class_name must be null or a class name, got {class_name!r:.80}"
    if class_wide:
        methods = request.get("methods")
        if methods is not None and not (
            isinstance(methods, list) and all(isinstance(name, str) for name in methods)
        ):
            return f"methods must be null or a list of method names, got {methods!r:.80}"
    else:
        method = request.get("method")
        if not method:
            return "missing 'method'"
        if not isinstance(method, str):
            return f"method must be a method name, got {method!r:.80}"
    for knob in _ALWAYS_ON_VERIFY_FIELDS:
        if not request.get(knob, True):
            return (
                f"{knob}=false is not supported: verify always runs the "
                "syntactic prover first and checks frame conditions"
            )
    return None


def _portfolio_error(config: DispatchConfig) -> Optional[str]:
    """Why a request's prover chain cannot be built (None when it can).
    Checked before queueing: an unknown prover name, option keyword or
    option value would otherwise fail only in the lane (for ``verify_*``,
    after parsing and splitting the source) or inside the engine."""
    try:
        config.make_provers()
    except KeyError as exc:
        return f"provers: {exc.args[0]}"
    except (TypeError, ValueError) as exc:
        return f"prover_options: {exc}"
    return None


def _cap_error(max_entries: Any, max_age: Any) -> Optional[str]:
    """Why a ``compact`` request's caps are refused (None when valid): a
    negative cap would put the cutoff past every published verdict, and
    ``not max_age >= 0`` refuses a NaN age too."""
    if max_entries is not None and (type(max_entries) is not int or max_entries < 0):
        return f"max_entries must be a non-negative integer, got {max_entries!r}"
    if max_age is not None and (type(max_age) not in (int, float) or not max_age >= 0):
        return f"max_age must be a non-negative number of seconds, got {max_age!r}"
    return None


def _store_answer(
    store: SequentCache,
    sequents: List[Sequent],
    config: DispatchConfig,
    deadline: Optional[Deadline],
) -> Optional[DispatchResult]:
    """A request's answer when the store settles it outright, else None
    (admission, on a worker thread: the disk tier may read files).

    This is the dispatcher's own pre-pass: each dedup representative is
    cache-scanned under the chain's signatures, the first one the scan
    leaves open ends the admission, duplicates replay their
    representative's outcome, and the result is accounted as a dispatch's
    would be — so the answer is the one a dispatch would have produced
    from the same store."""
    signatures = [(p.name, p.options_signature()) for p in config.make_provers()]
    rep = _dedup_representatives(sequents)
    outcomes: List[Optional[SequentOutcome]] = [None] * len(sequents)
    for index, sequent in enumerate(sequents):
        if rep[index] != index:
            continue
        answers, _, settled = _cache_scan(store, sequent, signatures)
        if not settled:
            return None
        outcomes[index] = _settled_outcome(sequent, answers)
    _fan_out_duplicates(sequents, rep, outcomes)
    return _request_result(outcomes, deadline)


def _expired_result(sequents: Sequence[Sequent]) -> DispatchResult:
    result = DispatchResult()
    for sequent in sequents:
        result.outcomes.append(
            SequentOutcome(sequent=sequent, proved=False, budget_exhausted=True)
        )
    return result


def _request_result(
    outcomes: List[SequentOutcome], deadline: Optional[Deadline] = None
) -> DispatchResult:
    """One request's answer: its outcomes re-accounted exactly as a local
    dispatch would account them (stats recorded answer by answer, cache
    hits/misses per answer), so reports built from it match local runs.
    The result keeps the default ``workers=1`` whatever the farm width:
    per-request reports carry per-request latency, and stamping the farm
    size here would both misattribute shared capacity and break the
    byte-identical-report guarantee against local runs — daemon occupancy
    lives in the ``stats`` op instead."""
    if deadline is not None and deadline.expired():
        # The request's own deadline lapsed mid-dispatch: whatever its chain
        # did not settle in time is a budget casualty, marked as such (the
        # module contract: post-deadline outcomes are ``budget_exhausted``).
        for outcome in outcomes:
            if not outcome.settled:
                outcome.budget_exhausted = True
    result = DispatchResult()
    _merge_outcomes(result, outcomes, cache_enabled=True)
    # The request's own answer-time sum: ``cpu_time`` was accumulated answer
    # by answer just above, so it is what a local dispatch of these
    # sequents would have measured (replays cost zero), and store-answered
    # and dispatched requests are billed alike.
    result.total_time = result.wall_time = result.cpu_time
    return result


# ---------------------------------------------------------------------------
# The protocol front end
# ---------------------------------------------------------------------------


class VerifyServer:
    """A TCP daemon exposing the verify service (newline-delimited JSON).

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`, or pass ``on_ready`` — called with the server once it is
    actually listening, which is what ``python -m repro.server`` uses to
    print the *bound* port instead of the requested one).  The server runs
    its asyncio loop on a background thread, so tests and benchmarks can
    start it in-process; ``python -m repro.server`` runs it in the
    foreground instead.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_dir: Optional[str] = None,
        lanes: Optional[int] = None,
        workers: Optional[int] = None,
        request_workers: int = 8,
        drain_timeout: float = 30.0,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        store_max_entries: Optional[int] = None,
        store_max_age: Optional[float] = None,
        compact_interval: float = DEFAULT_COMPACT_INTERVAL,
        on_ready: Optional[Callable[["VerifyServer"], None]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.store = SequentCache(cache_dir=store_dir)
        #: Disk-tier caps that :meth:`compact` applies (None = never evict),
        #: and its cumulative counters (surfaced by the ``stats`` op).
        self.store_max_entries = store_max_entries
        self.store_max_age = store_max_age
        self.compactions = 0
        self.evicted_entries = 0
        self.lanes = lanes
        self.workers = workers
        self.max_request_bytes = max(1024, int(max_request_bytes))
        self.compact_interval = compact_interval
        self.drain_timeout = drain_timeout
        self.on_ready = on_ready
        self.service: Optional[VerifyService] = None
        self.started_at: Optional[float] = None
        self._request_pool = ThreadPoolExecutor(
            request_workers, thread_name_prefix="verify-request"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop_requested: Optional[asyncio.Event] = None
        self._drain_on_stop = True
        self._inflight = 0
        self._requests_served = 0
        self._requests_failed = 0
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "VerifyServer":
        """Start the daemon on a background thread; returns once it accepts."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="verify-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise RuntimeError("verify server failed to start") from self._startup_error
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the daemon: optionally drain queued work, then shut down."""
        if self._loop is None or self._stop_requested is None:
            return
        self._drain_on_stop = drain
        try:
            self._loop.call_soon_threadsafe(self._stop_requested.set)
        except RuntimeError:
            pass  # the loop already exited (e.g. a client sent the shutdown op)
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def run_forever(self) -> None:
        """Run the daemon in the foreground (the ``python -m repro.server``
        entry point); Ctrl-C drains and exits."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:  # pragma: no cover - interactive use
            pass

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surface startup failures
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        self.service = VerifyService(self.store, lanes=self.lanes, workers=self.workers)
        server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=self.max_request_bytes,
        )
        self.port = server.sockets[0].getsockname()[1]
        self.started_at = time.time()
        compactor: Optional[asyncio.Task] = None
        if self.store_max_entries is not None or self.store_max_age is not None:
            # Startup compaction bounds a store inherited from a previous
            # (possibly differently-capped) deployment; then keep it bounded.
            await self._loop.run_in_executor(self._request_pool, self.compact)
            if self.compact_interval and self.compact_interval > 0:
                compactor = asyncio.create_task(
                    self._compact_periodically(), name="store-compactor"
                )
        if self.on_ready is not None:
            self.on_ready(self)
        self._ready.set()
        try:
            await self._stop_requested.wait()
        finally:
            server.close()
            await server.wait_closed()
            if compactor is not None:
                compactor.cancel()
            if self._drain_on_stop:
                deadline = Deadline.after(self.drain_timeout)
                while (self._inflight or self.service.busy) and not deadline.expired():
                    await asyncio.sleep(0.01)
            await self.service.stop(drain=self._drain_on_stop)
            self._request_pool.shutdown(wait=False, cancel_futures=True)

    def compact(
        self, max_entries: Optional[int] = None, max_age: Optional[float] = None
    ) -> int:
        """Evict disk-store entries beyond the caps; returns how many went.

        The call's caps fall back to ``store_max_entries`` /
        ``store_max_age``.  A no-op (returning 0 without counting a
        compaction) when the store is memory-only or no cap applies.
        """
        max_entries = max_entries if max_entries is not None else self.store_max_entries
        max_age = max_age if max_age is not None else self.store_max_age
        if self.store.cache_dir is None or (max_entries is None and max_age is None):
            return 0
        evicted = self.store.compact(max_entries, max_age)
        self.compactions += 1
        self.evicted_entries += evicted
        return evicted

    async def _compact_periodically(self) -> None:
        while True:
            await asyncio.sleep(self.compact_interval)
            try:
                await self._loop.run_in_executor(self._request_pool, self.compact)
            except Exception:  # noqa: BLE001 - maintenance must not kill the daemon
                pass

    # -- connection handling --------------------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader) -> Optional[bytes]:
        """One newline-terminated request frame.

        Returns the frame, ``b""`` on a clean EOF, or ``None`` for a frame
        longer than ``max_request_bytes`` — the oversized frame is drained
        through its terminator first, so the connection stays usable and the
        caller answers a structured error.  (The old ``readline()`` path
        raised ``ValueError`` at asyncio's default 64 KiB limit and killed
        the connection, leaving the client blocked on a reply that never
        came.)
        """
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return exc.partial  # EOF: b"" when clean, the unterminated tail otherwise
        except asyncio.LimitOverrunError as exc:
            # Drain without ever consuming past the terminator: ``consumed``
            # bytes are known separator-free, so discarding exactly that many
            # and rescanning converges on the newline and leaves any
            # pipelined follow-up frame intact in the buffer.
            skip = exc.consumed
            while True:
                try:
                    await reader.readexactly(skip)
                    await reader.readuntil(b"\n")
                    return None
                except asyncio.LimitOverrunError as overrun:
                    skip = overrun.consumed
                except asyncio.IncompleteReadError:
                    return b""  # the peer vanished mid-drain

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._stop_requested.is_set():
                try:
                    line = await self._read_frame(reader)
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except asyncio.CancelledError:
                    # Loop teardown cancelled this connection mid-read (the
                    # peer never said goodbye); exit cleanly so the stream
                    # machinery does not log the cancellation as an error.
                    break
                if line == b"":
                    break
                if line is None:
                    self._requests_failed += 1
                    response = {
                        "ok": False,
                        "error": (
                            "request frame exceeds max_request_bytes="
                            f"{self.max_request_bytes}; raise --max-request-bytes "
                            "or split the batch"
                        ),
                    }
                    writer.write(json.dumps(response).encode() + b"\n")
                    try:
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        break
                    continue
                request_id = None
                self._inflight += 1
                try:
                    request = request_from_wire(line)
                    request_id = request.get("id")
                    response = await self._dispatch_op(request)
                except WireError as exc:
                    response = {"ok": False, "error": str(exc)}
                except Exception as exc:  # noqa: BLE001 - answer, don't die
                    response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                finally:
                    self._inflight -= 1
                if response.get("ok", False):
                    self._requests_served += 1
                else:
                    self._requests_failed += 1
                if request_id is not None:
                    response["id"] = request_id
                writer.write(json.dumps(response).encode() + b"\n")
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # Loop teardown cancelled the close of a connection whose
                # peer had just left; the task ends here either way.
                pass

    # -- operations -----------------------------------------------------------

    async def _dispatch_op(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "stats":
            return {"ok": True, "stats": self.snapshot_stats()}
        if op in ("prove_sequents", "verify_method", "verify_class"):
            error = _settings_error(request)
            if error is not None:
                return {"ok": False, "error": error}
            # One config for the whole request: the report's prover_order and
            # the chain the service dispatches are the same resolved chain, so
            # server-backed runs key the verdict store exactly as local ones do.
            settings = _wire_settings(request)
            try:
                config = (
                    DispatchConfig(**settings) if op == "prove_sequents"
                    else DispatchConfig.for_verify(**settings)
                )
            except ValueError as exc:  # two option sets for one engine
                return {"ok": False, "error": f"prover_options: {exc}"}
            error = _portfolio_error(config)
            if error is not None:
                return {"ok": False, "error": error}
            if op == "prove_sequents":
                return await self._op_prove_sequents(request, config)
            return await self._op_verify(request, config, class_wide=op == "verify_class")
        if op == "compact":
            max_entries, max_age = request.get("max_entries"), request.get("max_age")
            error = _cap_error(max_entries, max_age)
            if error is not None:
                return {"ok": False, "error": error}
            evicted = await self._loop.run_in_executor(
                self._request_pool,
                functools.partial(self.compact, max_entries, max_age),
            )
            return {
                "ok": True,
                "evicted": evicted,
                "disk_entries": self.store.disk_entries(),
            }
        if op == "shutdown":
            drain = bool(request.get("drain", True))
            self._drain_on_stop = drain
            self._loop.call_soon(self._stop_requested.set)
            return {"ok": True, "stopping": True, "drain": drain}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _request_deadline(self, request: Dict[str, Any]) -> Optional[Deadline]:
        budget = request.get("budget")
        return Deadline.after(budget) if budget is not None else None

    async def _op_prove_sequents(
        self, request: Dict[str, Any], config: DispatchConfig
    ) -> Dict[str, Any]:
        # A malformed sequent raises WireError here, naming its field,
        # before the service's admission scan digests anything.
        loop = asyncio.get_running_loop()
        sequents = await loop.run_in_executor(
            self._request_pool, sequents_from_wire, request.get("sequents", [])
        )
        result = await self.service.prove(
            sequents, config, self._request_deadline(request)
        )
        return {
            "ok": True,
            "total": result.total,
            "proved": result.proved,
            "replayed": result.replayed,
            "proved_from_cache": result.proved_from_cache,
            "dedup_replayed": result.dedup_replayed,
            # This request's own answer-time sum (see _request_result).
            "total_time": result.total_time,
            "wall_time": result.wall_time,
            "cpu_time": result.cpu_time,
            "outcomes": [outcome_to_wire(o) for o in result.outcomes],
        }

    async def _op_verify(
        self, request: Dict[str, Any], config: DispatchConfig, class_wide: bool
    ) -> Dict[str, Any]:
        error = _verify_fields_error(request, class_wide)
        if error is not None:
            return {"ok": False, "error": error}
        source = request["source"]
        deadline = self._request_deadline(request)
        loop = asyncio.get_running_loop()

        def dispatch(sequents: Sequence[Sequent]) -> DispatchResult:
            # Runs on a request-pool thread inside verify(): hop the sequents
            # over to the event loop's service and block for the verdicts.
            return asyncio.run_coroutine_threadsafe(
                self.service.prove(list(sequents), config, deadline), loop
            ).result()

        def work():
            if class_wide:
                return verify_class(
                    source,
                    class_name=request.get("class_name"),
                    methods=request.get("methods"),
                    config=config,
                    dispatch=dispatch,
                )
            return verify(
                source,
                method=request["method"],
                class_name=request.get("class_name"),
                config=config,
                dispatch=dispatch,
            )

        try:
            report = await loop.run_in_executor(self._request_pool, work)
        except _FRONTEND_ERRORS as exc:
            # The client's source does not parse or resolve: answer with the
            # frontend's located message, not a Python exception name.
            return {"ok": False, "error": f"source: {exc}"}
        if class_wide:
            return {"ok": True, "report": class_report_to_wire(report)}
        return {"ok": True, "report": method_report_to_wire(report)}

    # -- instrumentation ------------------------------------------------------

    def snapshot_stats(self) -> Dict[str, Any]:
        store_stats = self.store.stats
        service = self.service.stats.as_dict() if self.service is not None else {}
        lanes = (
            {
                "configured": self.service.lanes,
                "busy": self.service.lanes_busy,
                "peak_busy": self.service.stats.peak_lanes_busy,
                "queue_depth": self.service.pending,
                "workers": self.service.workers,
            }
            if self.service is not None
            else {}
        )
        return {
            "uptime": time.time() - self.started_at if self.started_at else 0.0,
            "requests_served": self._requests_served,
            "requests_failed": self._requests_failed,
            "inflight": self._inflight,
            "pending_sequents": self.service.pending if self.service else 0,
            "max_request_bytes": self.max_request_bytes,
            "service": service,
            "lanes": lanes,
            "store": {
                "entries": len(self.store),
                "hits": store_stats.hits,
                "misses": store_stats.misses,
                "stores": store_stats.stores,
                "disk_hits": store_stats.disk_hits,
                "compactions": self.compactions,
                "evicted_entries": self.evicted_entries,
                "max_disk_entries": self.store_max_entries,
                "max_disk_age": self.store_max_age,
            },
        }
