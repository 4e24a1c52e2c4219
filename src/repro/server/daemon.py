"""The verify daemon: verification-as-a-service over the prover portfolio.

Everything the per-process pipeline already does — splitting, portfolio
dispatch, digest dedup, verdict caching — lives here behind a long-lived
asyncio server, so *many* concurrent clients share one prover farm and one
verdict store:

* :class:`VerifyService` is the cross-request batcher.  A request is first
  admitted against the verdict store: when the store settles every one of
  its sequents (the warm case), it is answered at once, from the same cache
  scan and slicing a batch would use, and never waits for a window.  The
  sequents of every other request (from ``verify_class`` /
  ``verify_method`` / raw batch requests) accumulate in a small time window
  (``window`` seconds, capped at ``max_batch`` sequents) and are dispatched
  as merged batches per prover configuration — so ``window`` applies only
  to requests that need a prover.
  Batches for *different* configurations run concurrently on up to ``lanes``
  batch lanes — clients with different prover options no longer serialize
  behind each other — while an in-flight digest registry keeps the
  single-flight guarantee *per (digest, configuration)*: a lane assembling a
  batch skips digests currently being proved by another lane under the same
  configuration and picks their verdicts from the store once that dispatch
  lands (``ServiceStats.live_reproofs == 0`` pins this across lanes).
* Every claimed dispatch builds a fresh
  :class:`repro.provers.dispatcher.ParallelDispatcher` (cheap: a portfolio
  and its option signatures).  With ``workers > 1`` (by default one per
  core) it runs on the prover farm, one *persistent* process pool shared by
  every lane, whose processes keep their prover portfolios across batches;
  with ``workers=1`` the batch runs inline in its lane thread.
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
  batcher — report assembly is byte-for-byte the local code path, which is
  what makes a server-backed run's report identical to a local warm-cache
  run's (request slices deliberately report ``workers=1``: farm occupancy is
  a daemon-level number surfaced by the ``stats`` op, not a per-request
  one).

Per-request budgets reuse :class:`repro.provers.base.Deadline`: a request
carrying ``budget=T`` seconds is dropped from its batch (and answered
``budget_exhausted``) once its deadline passes while queued, and — unlike
the pre-lane daemon, which only checked *before* dispatch — the deadline is
threaded into the dispatch itself: a deadlined request dispatches alone
under its own deadline (so a short budget never clips co-batched unbudgeted
work), the prover chains enforce it cooperatively, and outcomes reached
after it passes come back ``budget_exhausted``.  Per-sequent prover budgets
(``sequent_budget``) are enforced inside the engines as everywhere else.

Starting a daemon::

    python -m repro.server --port 7333 --store-dir /var/tmp/verdicts

or in-process (tests, benchmarks)::

    from repro.server import VerifyServer, VerifyClient
    server = VerifyServer(port=0, store_dir="...").start()
    with VerifyClient(port=server.port) as client:
        report = client.verify_class(source, class_name="AssocList")
    server.stop()

Graceful shutdown: ``stop(drain=True)`` (or the ``shutdown`` op) stops
accepting connections, flushes the pending batch queue, completes in-flight
lanes, then exits.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import os
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.verifier import verify, verify_class
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
)
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

#: Default batch window in seconds.  Only requests the store cannot settle
#: wait for it (store-settled ones are answered at admission), so it is
#: kept near the cost of one cheap proof: a longer window makes every cold
#: request wait several times its own proving time, while the in-flight
#: registry, not the merge, is what keeps a digest from being proved twice.
DEFAULT_WINDOW = 0.01

#: Default batch-lane count: enough concurrent config keys for a mixed
#: workload without oversubscribing the farm (lanes share one process pool).
DEFAULT_LANES = 4

#: Seconds between periodic store compactions (when disk caps are set).
DEFAULT_COMPACT_INTERVAL = 300.0

#: Verify-request fields whose only accepted value is true: ``verify`` always
#: runs the syntactic prover first and includes frame conditions, so a request
#: asking otherwise is refused rather than answered with a different report.
_ALWAYS_ON_VERIFY_FIELDS = ("always_syntactic_first", "include_frame")


class ServiceStopped(RuntimeError):
    """Raised to pending requests when the daemon stops without draining."""


@dataclass
class _PendingRequest:
    """One client request waiting for the next batch window.

    Requests merge into one dispatch batch only when their whole dispatch
    configuration agrees (equal ``config.key()``) — verdicts depend on
    prover order, options and the enforced per-sequent budget, so mixing
    configurations would either fragment the verdict-store keys or replay
    answers across budgets.
    """

    config: DispatchConfig
    #: ``config.key()``, computed once: the scheduler reads it on every pass.
    key: str
    sequents: List[Sequent]
    future: "asyncio.Future[DispatchResult]"
    deadline: Optional[Deadline] = None
    #: Event-loop timestamp of arrival: a key's batch dispatches once its
    #: oldest request has waited out the window (or the batch is full).
    arrived: float = 0.0


@dataclass
class ServiceStats:
    """Cumulative counters of the batching service (the ``stats`` op)."""

    requests: int = 0
    requests_expired: int = 0
    #: Requests the verdict store settled at admission: answered without a
    #: batch (their sequents still count in ``sequents`` and ``replayed``).
    store_answered: int = 0
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
    #: High-water mark of concurrently running batch lanes.
    peak_lanes_busy: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class VerifyService:
    """Accumulates sequents from concurrent requests into merged batches.

    Batches are grouped by dispatch configuration (``DispatchConfig.key``)
    and up to ``lanes`` of them dispatch concurrently on a shared,
    persistent prover farm.  Single-flight is per (digest, configuration), not per daemon: the
    in-flight registry lets a lane defer digests another lane is already
    proving under the same configuration and replay their verdicts from the
    store once that dispatch lands, so a digest is proved live at most once
    per configuration across the daemon's lifetime
    (``ServiceStats.live_reproofs`` pins this).  A request the store settles
    outright never reaches a batch: it is answered at admission
    (``ServiceStats.store_answered``).
    """

    def __init__(
        self,
        store: SequentCache,
        window: float = DEFAULT_WINDOW,
        max_batch: int = 512,
        lanes: int = DEFAULT_LANES,
        workers: Optional[int] = None,
    ) -> None:
        self.store = store
        self.window = window
        self.max_batch = max_batch
        self.lanes = max(1, int(lanes))
        # The farm defaults to the machine: every core a process worker.
        self.workers = max(1, int(workers)) if workers else (os.cpu_count() or 1)
        self.stats = ServiceStats()
        self._pending: Deque[_PendingRequest] = deque()
        #: Requests whose admission store scan is still running.
        self._admitting = 0
        self._wakeup = asyncio.Event()
        self._stopping = False
        self._task: Optional[asyncio.Task] = None
        # Lane executor: each concurrently dispatching batch occupies one
        # thread here while its prove_all blocks — proving inline at
        # ``workers=1``, else waiting on the farm below.
        self._executor = ThreadPoolExecutor(self.lanes, thread_name_prefix="verify-lane")
        # The persistent prover farm: one process pool shared by every lane
        # and every configuration, its processes — and their per-process
        # portfolio caches — reused across batches.
        self._farm: Optional[ProcessPoolExecutor] = (
            ProcessPoolExecutor(max_workers=self.workers) if self.workers > 1 else None
        )
        self._lane_tasks: Dict[int, asyncio.Task] = {}
        self._lane_counter = 0
        # The cross-lane single-flight registry: (digest, config key) ->
        # event set once the dispatch proving that digest has stored its
        # verdicts.  Only touched from the event loop.
        self._inflight: Dict[Tuple[str, str], asyncio.Event] = {}
        self._live_proofs: Set[Tuple[str, str]] = set()
        self._live_digests: Set[str] = set()

    # -- client-facing --------------------------------------------------------

    @property
    def pending(self) -> int:
        return sum(len(r.sequents) for r in self._pending)

    @property
    def lanes_busy(self) -> int:
        return len(self._lane_tasks)

    @property
    def busy(self) -> bool:
        return bool(self._lane_tasks) or bool(self._pending) or bool(self._admitting)

    async def start(self) -> "VerifyService":
        if self._task is None:
            self._task = asyncio.create_task(self._run(), name="verify-batch-loop")
        return self

    async def prove(
        self,
        sequents: Sequence[Sequent],
        config: DispatchConfig = DispatchConfig(),
        deadline: Optional[Deadline] = None,
    ) -> DispatchResult:
        """Submit a batch of sequents; resolves once the store or a
        dispatched window has answered every one.

        ``config`` names the chain, options and per-sequent budget; the farm
        supplies the executor, and every batch runs the dedup pre-pass.

        Admission comes first: the store is scanned for the request's dedup
        representatives off the event loop, and a request it settles
        outright is answered at once, sliced exactly as a batch would slice
        it.  Only a request with a sequent left to prove waits for the
        window."""
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
        if self._stopping:
            raise ServiceStopped("the verify service is shutting down")
        loop = asyncio.get_running_loop()
        config = dataclasses.replace(config, dedup=True, workers=self.workers)
        request = _PendingRequest(
            config=config,
            key=config.key(),
            sequents=sequents,
            future=loop.create_future(),
            deadline=deadline,
            arrived=loop.time(),
        )
        self._pending.append(request)
        self._wakeup.set()
        return await request.future

    async def drain(self) -> None:
        """Wait until every queued request has been answered."""
        while self.busy:
            await asyncio.sleep(0.005)

    async def stop(self, drain: bool = True) -> None:
        if drain:
            await self.drain()
        self._stopping = True
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None
        for request in self._pending:
            if not request.future.done():
                request.future.set_exception(ServiceStopped("service stopped"))
        self._pending.clear()
        self._executor.shutdown(wait=True)
        if self._farm is not None:
            self._farm.shutdown(wait=True)

    # -- the lane scheduler ---------------------------------------------------

    def _key_state(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Oldest arrival and pending sequent count per config key."""
        oldest: Dict[str, float] = {}
        count: Dict[str, int] = {}
        for request in self._pending:
            key = request.key
            oldest.setdefault(key, request.arrived)
            count[key] = count.get(key, 0) + len(request.sequents)
        return oldest, count

    def _next_due_in(self, now: float) -> Optional[float]:
        """Seconds until the next batch window closes (None = nothing to
        schedule until a wakeup: empty queue or every lane occupied)."""
        if not self._pending or len(self._lane_tasks) >= self.lanes:
            return None
        oldest, count = self._key_state()
        soonest = min(
            0.0 if count[key] >= self.max_batch else (arrived + self.window - now)
            for key, arrived in oldest.items()
        )
        return max(0.0, soonest)

    def _launch_due_lanes(self, now: float) -> None:
        """Start a lane task per due config key while lanes are free.  A key
        is due once its oldest request has waited out the window or its
        pending sequents fill a batch; keys go oldest-first, and a key whose
        earlier batch is still in flight may get a second lane — the
        in-flight registry keeps the two from proving a digest twice."""
        oldest, count = self._key_state()
        for key in sorted(oldest, key=oldest.__getitem__):
            if len(self._lane_tasks) >= self.lanes:
                break
            due = (
                self._stopping
                or count[key] >= self.max_batch
                or now - oldest[key] >= self.window - 1e-6
            )
            if not due:
                continue
            batch = self._take_batch(key)
            if not batch:
                continue
            self._lane_counter += 1
            lane_id = self._lane_counter
            task = asyncio.create_task(
                self._lane(lane_id, batch), name=f"verify-lane-{lane_id}"
            )
            self._lane_tasks[lane_id] = task
            self.stats.peak_lanes_busy = max(
                self.stats.peak_lanes_busy, len(self._lane_tasks)
            )

    def _take_batch(self, key: str) -> List[_PendingRequest]:
        """Pop whole requests of one config key up to the size cap (always at
        least one); everything else keeps its queue position."""
        batch: List[_PendingRequest] = []
        taken = 0
        rest: Deque[_PendingRequest] = deque()
        while self._pending:
            request = self._pending.popleft()
            if request.key == key and (not batch or taken < self.max_batch):
                batch.append(request)
                taken += len(request.sequents)
            else:
                rest.append(request)
        self._pending = rest
        return batch

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            timeout = self._next_due_in(loop.time())
            if timeout is None:
                await self._wakeup.wait()
            else:
                try:
                    await asyncio.wait_for(self._wakeup.wait(), timeout=timeout)
                except asyncio.TimeoutError:
                    pass
            self._wakeup.clear()
            if self._stopping:
                # stop() drains first when asked to; anything still queued
                # here is deliberately abandoned (stop(drain=False)), but
                # lanes already dispatching run to completion.
                if self._lane_tasks:
                    await asyncio.gather(
                        *list(self._lane_tasks.values()), return_exceptions=True
                    )
                return
            self._launch_due_lanes(loop.time())

    async def _lane(self, lane_id: int, batch: List[_PendingRequest]) -> None:
        try:
            await self._process(batch)
        except Exception as exc:  # noqa: BLE001 - fail the batch, not the loop
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
        finally:
            self._lane_tasks.pop(lane_id, None)
            self._wakeup.set()

    # -- batch processing -----------------------------------------------------

    async def _process(self, batch: List[_PendingRequest]) -> None:
        # Requests whose *request-level* Deadline expired while queued are
        # answered budget_exhausted without consuming any prover time.
        live: List[_PendingRequest] = []
        for request in batch:
            if request.deadline is not None and request.deadline.expired():
                self.stats.requests_expired += 1
                request.future.set_result(_expired_result(request.sequents))
                continue
            live.append(request)
        if not live:
            return
        # Deadlined requests dispatch alone under their own deadline —
        # earliest expiry first — so a short budget never clips co-batched
        # unbudgeted work and the deadline threaded into dispatch is exactly
        # the request's own.  Unbudgeted requests merge as one batch.
        deadlined = sorted(
            (r for r in live if r.deadline is not None),
            key=lambda r: r.deadline.expires_at,
        )
        plain = [r for r in live if r.deadline is None]
        for request in deadlined:
            await self._process_group([request], request.deadline)
        if plain:
            await self._process_group(plain, None)

    async def _process_group(
        self, requests: List[_PendingRequest], deadline: Optional[Deadline]
    ) -> None:
        """Dispatch one merged same-config group under the single-flight
        registry, then slice the merged result back per request."""
        loop = asyncio.get_running_loop()
        first = requests[0]
        key = first.key
        merged: List[Sequent] = []
        slices: List[Tuple[_PendingRequest, int, int]] = []
        for request in requests:
            start = len(merged)
            merged.extend(request.sequents)
            slices.append((request, start, len(merged)))
        digests = [sequent.digest() for sequent in merged]
        rep = _dedup_representatives(merged)
        outcomes: List[Optional[SequentOutcome]] = [None] * len(merged)
        deferred: Set[str] = set()
        group_started = loop.time()

        pending = list(range(len(merged)))
        while pending:
            if deadline is not None and deadline.expired():
                for index in pending:
                    outcomes[index] = SequentOutcome(
                        sequent=merged[index], proved=False, budget_exhausted=True
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
                    dispatcher = ParallelDispatcher(
                        first.config, self.store, executor=self._farm
                    )
                    result = await loop.run_in_executor(
                        self._executor,
                        functools.partial(
                            dispatcher.prove_all,
                            [merged[index] for index in mine],
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

        merged_result = DispatchResult()
        merged_result.outcomes = [outcome for outcome in outcomes]
        merged_result.total_time = loop.time() - group_started
        for request, start, stop in slices:
            if not request.future.done():
                request.future.set_result(
                    _slice_result(merged_result, rep, start, stop, deadline)
                )

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
    inside the batcher, with an error that does not name it."""
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
    Checked before queueing: an unknown prover name or option keyword would
    otherwise fail only in the lane (for ``verify_*``, after parsing and
    splitting the source)."""
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
    representative's outcome, and the slice is cut as a batch's would be —
    so the answer is the one a batch would have produced from the same
    store."""
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
    return _slice_result(
        DispatchResult(outcomes=outcomes), rep, 0, len(sequents), deadline
    )


def _expired_result(sequents: Sequence[Sequent]) -> DispatchResult:
    result = DispatchResult()
    for sequent in sequents:
        result.outcomes.append(
            SequentOutcome(sequent=sequent, proved=False, budget_exhausted=True)
        )
    return result


def _slice_result(
    merged: DispatchResult,
    rep: List[int],
    start: int,
    stop: int,
    deadline: Optional[Deadline] = None,
) -> DispatchResult:
    """One request's view of a merged batch: its outcome slice re-accounted
    exactly as a standalone dispatch would have been (stats recorded answer
    by answer, cache hits/misses per answer), so reports built from it match
    local runs.  Slices keep the default ``workers=1`` whatever the farm
    width: per-request reports carry per-request latency, and stamping the
    farm size here would both misattribute shared capacity and break the
    byte-identical-report guarantee against local runs — daemon occupancy
    lives in the ``stats`` op instead."""
    if deadline is not None and deadline.expired():
        # The request's own deadline lapsed mid-dispatch: whatever its chain
        # did not settle in time is a budget casualty, marked as such (the
        # module contract: post-deadline outcomes are ``budget_exhausted``).
        for outcome in merged.outcomes[start:stop]:
            if not outcome.settled:
                outcome.budget_exhausted = True
    result = DispatchResult()
    _merge_outcomes(result, merged.outcomes[start:stop], cache_enabled=True)
    result.dedup_replayed = sum(1 for i in range(start, stop) if rep[i] != i)
    # The slice's own answer-time sum, not the merged batch's wall: stamping
    # ``merged.total_time`` on every slice would bill each co-batched client
    # for the whole window, inflating per-request stats by the number of
    # clients sharing the batch.  ``cpu_time`` was accumulated answer by
    # answer just above, so it is exactly what a standalone dispatch of this
    # slice would have measured (replays cost zero); the shared batch wall
    # stays available separately.
    result.total_time = result.wall_time = result.cpu_time
    result.batch_wall_time = merged.total_time
    return result


# ---------------------------------------------------------------------------
# The protocol front end
# ---------------------------------------------------------------------------


class VerifyServer:
    """A TCP daemon exposing the batching service (newline-delimited JSON).

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
        window: float = DEFAULT_WINDOW,
        max_batch: int = 512,
        lanes: int = DEFAULT_LANES,
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
        self.window = window
        self.max_batch = max_batch
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
        self.service = VerifyService(
            self.store,
            window=self.window,
            max_batch=self.max_batch,
            lanes=self.lanes,
            workers=self.workers,
        )
        await self.service.start()
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
            # the chain the batcher dispatches are the same resolved chain, so
            # server-backed runs key the verdict store exactly as local ones do.
            settings = _wire_settings(request)
            config = (
                DispatchConfig(**settings) if op == "prove_sequents"
                else DispatchConfig.for_verify(**settings)
            )
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
            # Per-slice latency accounting (see _slice_result): this
            # request's own answer-time sum, with the shared batch wall
            # reported separately instead of billed to every client.
            "total_time": result.total_time,
            "wall_time": result.wall_time,
            "cpu_time": result.cpu_time,
            "batch_wall_time": result.batch_wall_time,
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
            # over to the event loop's batcher and block for the verdicts.
            return asyncio.run_coroutine_threadsafe(
                self.service.prove(list(sequents), config, deadline), loop
            ).result()

        if class_wide:
            def work():
                return verify_class(
                    source,
                    class_name=request.get("class_name"),
                    methods=request.get("methods"),
                    config=config,
                    dispatch=dispatch,
                )

            report = await loop.run_in_executor(self._request_pool, work)
            return {"ok": True, "report": class_report_to_wire(report)}

        method = request["method"]

        def work():
            return verify(
                source,
                method=method,
                class_name=request.get("class_name"),
                config=config,
                dispatch=dispatch,
            )

        report = await loop.run_in_executor(self._request_pool, work)
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
