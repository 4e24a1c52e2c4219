"""Lane-concurrency tests of the multi-lane verify service.

The contract pinned here:

* requests for *different* prover configurations dispatch concurrently —
  a fast config's request returns while a slow config's dispatch is still
  in flight, and ``peak_lanes_busy`` records the overlap;
* requests of the *same* configuration overlap too, each on a portfolio of
  its own, even when the farm is one worker wide;
* the in-flight digest registry preserves single-flight per (digest,
  configuration) *across* lanes: a second lane dispatching digests
  another lane is proving defers them and replays their verdicts from the
  store, keeping ``live_reproofs == 0``;
* a request-level deadline cuts a dispatch off *mid-flight* (the chains
  enforce the threaded ``Deadline`` cooperatively) and post-deadline
  outcomes come back ``budget_exhausted`` — the request never waits for the
  slow prover to finish on its own schedule.
* store-first admission: a request the verdict store settles outright is
  answered without waiting for a lane or dispatching, with the outcomes a
  local warm dispatch returns; a partly warm request still dispatches
  exactly once;
* ``stop(drain=False)`` refuses the requests still waiting for a lane and
  lets the running dispatch complete.

All tests drive :class:`VerifyService` directly under asyncio with a
registered in-process test prover, so they run at ``workers=1``, each
dispatch inline in its lane thread (the process farm cannot see a prover
registered only in the test process).
"""

import asyncio
import time
from dataclasses import dataclass

import pytest

from repro.form.parser import parse_formula as parse
from repro.provers.base import Deadline, Prover, ProverAnswer, Seconds, Verdict, registry
from repro.provers.cache import SequentCache
from repro.provers.dispatcher import DispatchConfig, Dispatcher
from repro.server import ServiceStopped, VerifyService
from repro.server.daemon import DEFAULT_LANES
from repro.vcgen.sequent import sequent


class SleepyProver(Prover):
    """Proves everything after ``delay`` seconds, polling its deadline —
    a stand-in for a slow decision procedure that honors cooperative
    cancellation (``DeadlineExpired`` from checkpoint → TIMEOUT answer)."""

    name = "sleepy"

    @dataclass(frozen=True)
    class Options(Prover.Options):
        timeout: Seconds = 30.0
        delay: float = 0.3

    def attempt(self, sequent, deadline=None):
        end = time.monotonic() + self.options.delay
        while time.monotonic() < end:
            if deadline is not None:
                deadline.checkpoint(detail="sleeping")
            time.sleep(0.01)
        return ProverAnswer(Verdict.PROVED, self.name, detail="slept it off")


#: (prover instance id, entered, left) of every :class:`TrackingProver` attempt.
_ATTEMPTS = []


class TrackingProver(SleepyProver):
    """A sleepy prover that records when each instance is inside ``attempt``."""

    name = "tracking"

    def attempt(self, sequent, deadline=None):
        entered = time.monotonic()
        try:
            return super().attempt(sequent, deadline)
        finally:
            _ATTEMPTS.append((id(self), entered, time.monotonic()))


@pytest.fixture(autouse=True)
def _register_sleepy():
    registry.register("sleepy", SleepyProver)
    registry.register("tracking", TrackingProver)
    yield


def _service(**kwargs):
    kwargs.setdefault("lanes", 2)
    kwargs.setdefault("workers", 1)
    return VerifyService(SequentCache(), **kwargs)


def _syntactic_seq(k=0):
    return sequent([parse(f"P (x + {k})")], parse(f"P (x + {k})"))


async def _wait_for(predicate, timeout=5.0):
    deadline = Deadline.after(timeout)
    while not predicate():
        assert not deadline.expired(), "condition never became true"
        await asyncio.sleep(0.005)


# -- lane overlap --------------------------------------------------------------


def test_distinct_configs_dispatch_concurrently():
    """A fast config's request must not queue behind a slow config's: the
    syntactic request returns while the sleepy dispatch is still in flight
    (the pre-lane daemon serialized them: ~0.6s for the fast client)."""

    async def run():
        service = _service()
        try:
            slow = asyncio.ensure_future(
                service.prove(
                    [_syntactic_seq(0)],
                    DispatchConfig(["sleepy"], {"sleepy": {"delay": 0.6}}),
                )
            )
            # Wait until the slow lane has *claimed* its digest (not merely
            # launched), so the fast request below provably overlaps it.
            await _wait_for(lambda: service._inflight)
            fast = await service.prove([_syntactic_seq(1)], DispatchConfig(["syntactic"]))
            assert fast.proved == 1
            assert not slow.done(), "fast lane should finish first"
            assert service.lanes_busy >= 1
            result = await slow
            assert result.proved == 1
        finally:
            await service.stop()
        assert service.stats.peak_lanes_busy == 2
        assert service.stats.live_reproofs == 0
        assert service.stats.batches == 2

    asyncio.run(run())


def test_same_config_lanes_overlap_on_portfolios_of_their_own():
    """Two requests of one configuration, distinct digests, on a one-worker
    farm: the second lane proves while the first dispatch is still in flight
    (each lane runs its dispatch inline), and no prover instance is inside
    ``attempt`` twice at once — every dispatch builds its own portfolio."""

    async def run():
        _ATTEMPTS.clear()
        service = _service(workers=1, lanes=2)
        config = DispatchConfig(["tracking"], {"tracking": {"delay": 0.4}})
        try:
            first = asyncio.ensure_future(service.prove([_syntactic_seq(0)], config))
            await _wait_for(lambda: service._inflight)
            second = await service.prove([_syntactic_seq(1)], config)
            assert second.proved == 1
            assert (await first).proved == 1
        finally:
            await service.stop()
        assert service.stats.peak_lanes_busy == 2

    asyncio.run(run())
    (one, one_in, one_out), (two, two_in, two_out) = _ATTEMPTS
    assert one_in < two_out and two_in < one_out, "same-config lanes never overlapped"
    assert one != two, "one prover instance was inside attempt twice at once"


def test_inflight_registry_blocks_cross_lane_reproofs():
    """Two lanes of the *same* configuration over the same digest: the
    second lane must defer to the first's in-flight proof and replay the
    verdict from the store — never prove it live a second time."""

    async def run():
        service = _service()
        options = {"sleepy": {"delay": 0.4}}
        try:
            first = asyncio.ensure_future(
                service.prove(
                    [_syntactic_seq(0)], DispatchConfig(["sleepy"], options)
                )
            )
            await _wait_for(lambda: service._inflight)
            second = asyncio.ensure_future(
                service.prove(
                    [_syntactic_seq(0)], DispatchConfig(["sleepy"], options)
                )
            )
            # The second request gets its own lane while the first is in flight.
            await _wait_for(lambda: service.stats.peak_lanes_busy >= 2)
            a, b = await asyncio.gather(first, second)
        finally:
            await service.stop()
        assert a.proved == 1 and b.proved == 1
        assert a.replayed + b.replayed == 1  # the deferred copy replays
        assert service.stats.live_proved == 1
        assert service.stats.live_reproofs == 0
        assert service.stats.deferred_sequents >= 1
        assert service.stats.peak_lanes_busy == 2

    asyncio.run(run())


def test_all_lanes_busy_queues_the_next_batch():
    """With every lane occupied, a new config's request waits — and
    dispatches as soon as a lane frees up."""

    async def run():
        service = _service(lanes=1)
        try:
            slow = asyncio.ensure_future(
                service.prove(
                    [_syntactic_seq(0)],
                    DispatchConfig(["sleepy"], {"sleepy": {"delay": 0.3}}),
                )
            )
            await _wait_for(lambda: service._inflight)
            fast = await service.prove([_syntactic_seq(1)], DispatchConfig(["syntactic"]))
            assert fast.proved == 1
            assert slow.done(), "one lane: the fast request had to wait its turn"
            await slow
        finally:
            await service.stop()
        assert service.stats.peak_lanes_busy == 1

    asyncio.run(run())


# -- deadlines mid-dispatch ----------------------------------------------------


def test_deadline_expires_mid_dispatch():
    """Regression (the deadline bugfix): a request whose budget runs out
    *during* dispatch must come back ``budget_exhausted`` promptly — the old
    daemon only checked deadlines before the dispatch started, so this request
    used to block for the sleepy prover's full 10 seconds."""

    async def run():
        service = _service(lanes=1)
        loop = asyncio.get_running_loop()
        try:
            started = loop.time()
            result = await service.prove(
                [_syntactic_seq(0)],
                DispatchConfig(["sleepy"], {"sleepy": {"delay": 10.0}}),
                deadline=Deadline.after(0.3),
            )
            elapsed = loop.time() - started
        finally:
            await service.stop()
        assert elapsed < 3.0, f"deadline ignored mid-dispatch ({elapsed:.1f}s)"
        assert result.proved == 0
        (outcome,) = result.outcomes
        assert outcome.budget_exhausted
        # The request made it into dispatch — it did not expire while waiting.
        assert service.stats.requests_expired == 0
        assert service.stats.batches == 1

    asyncio.run(run())


def test_deadlined_request_never_clips_cobatched_work():
    """A short-budget request arriving with an unbudgeted one must not drag
    the latter under its deadline: each request dispatches alone under its
    own deadline, and the plain one runs to completion."""

    async def run():
        service = _service(lanes=1)
        options = {"sleepy": {"delay": 0.4}}
        try:
            budgeted = asyncio.ensure_future(
                service.prove(
                    [_syntactic_seq(0)],
                    DispatchConfig(["sleepy"], options),
                    deadline=Deadline.after(0.1),
                )
            )
            plain = asyncio.ensure_future(
                service.prove(
                    [_syntactic_seq(1)], DispatchConfig(["sleepy"], options)
                )
            )
            a, b = await asyncio.gather(budgeted, plain)
        finally:
            await service.stop()
        assert a.proved == 0 and a.outcomes[0].budget_exhausted
        assert b.proved == 1, "the unbudgeted request must complete"
        assert service.stats.live_reproofs == 0

    asyncio.run(run())


# -- store-first admission -----------------------------------------------------

#: A syntactic-first chain: ``P (x + k) |- P (x + k)`` settles on syntactic,
#: ``|- Q k`` only after a cached syntactic UNKNOWN, on sleepy.
ADMISSION_CONFIG = DispatchConfig(["syntactic", "sleepy"], {"sleepy": {"delay": 0.0}})


def _admission_request():
    """Both kinds of chain, with one in-request duplicate."""
    return [
        _syntactic_seq(0),
        sequent([], parse("Q 1")),
        _syntactic_seq(2),
        sequent([], parse("Q 1")),
    ]


def _answer_view(result):
    """Everything a report is built from: per outcome its verdict, prover
    and answers (with detail and the ``cached`` flag), and dedup replays."""
    outcomes = [
        (
            outcome.proved,
            outcome.prover,
            outcome.budget_exhausted,
            [(a.verdict, a.prover, a.detail, a.cached) for a in outcome.answers],
        )
        for outcome in result.outcomes
    ]
    return outcomes, result.dedup_replayed


def _filled_store(sequents):
    """A store filled by a local dispatch, and that dispatch's warm rerun."""
    store = SequentCache()
    local = Dispatcher(ADMISSION_CONFIG, store, dedup=True)
    local.prove_all(sequents)
    return store, local.prove_all(sequents)


def test_store_settled_request_skips_the_lane_queue():
    """While a sleepy dispatch holds the only lane, a request the store
    settles comes back at once, dispatches nothing, and carries exactly the
    local warm outcomes."""
    request = _admission_request()
    store, local_warm = _filled_store(request)

    async def run():
        service = VerifyService(store, lanes=1, workers=1)
        loop = asyncio.get_running_loop()
        try:
            slow = asyncio.ensure_future(
                service.prove(
                    [sequent([], parse("R 0"))],
                    DispatchConfig(["sleepy"], {"sleepy": {"delay": 1.0}}),
                )
            )
            await _wait_for(lambda: service._inflight)
            batches = service.stats.batches
            started = loop.time()
            result = await service.prove(request, ADMISSION_CONFIG)
            elapsed = loop.time() - started
            assert not slow.done(), "the sleepy dispatch should still hold the lane"
            assert service.stats.batches == batches
            assert (await slow).proved == 1
        finally:
            await service.stop()
        return service.stats, result, elapsed

    stats, result, elapsed = asyncio.run(run())
    assert elapsed < 0.5, f"a store-settled request waited {elapsed:.2f}s"
    assert stats.batches == 1  # the sleepy request's dispatch only
    assert stats.store_answered == 1
    assert (stats.requests, stats.sequents, stats.replayed) == (2, 5, 4)
    assert _answer_view(result) == _answer_view(local_warm)
    assert result.dedup_replayed == 1


def test_partly_warm_request_goes_through_one_batch():
    """One cold sequent sends the whole request to one dispatch: only the
    cold sequent is proved live, the warm ones replay."""
    warm = _admission_request()
    store, _ = _filled_store(warm)
    request = warm + [sequent([], parse("Q 9"))]

    async def run():
        service = VerifyService(store, lanes=2, workers=1)
        try:
            result = await service.prove(request, ADMISSION_CONFIG)
        finally:
            await service.stop()
        return service.stats, result

    stats, result = asyncio.run(run())
    assert result.proved == 5
    assert result.replayed == 4
    assert stats.batches == 1
    assert stats.store_answered == 0
    assert stats.live_proved == 1
    assert stats.live_reproofs == 0


def test_expired_request_is_not_answered_from_the_store():
    """A warm request whose budget has already run out is answered
    ``budget_exhausted`` and counted as expired, as a waiting one would be."""
    request = _admission_request()
    store, _ = _filled_store(request)

    async def run():
        service = VerifyService(store, lanes=2, workers=1)
        try:
            result = await service.prove(
                request, ADMISSION_CONFIG, deadline=Deadline.after(0.0)
            )
        finally:
            await service.stop()
        return service.stats, result

    stats, result = asyncio.run(run())
    assert result.proved == 0
    assert all(o.budget_exhausted and not o.answers for o in result.outcomes)
    assert (stats.requests_expired, stats.store_answered, stats.batches) == (1, 0, 0)


def test_stopped_service_refuses_store_settled_requests():
    """Stopping closes admission too: a warm request is refused with
    ``ServiceStopped``, not answered from the store."""
    request = _admission_request()
    store, _ = _filled_store(request)

    async def run():
        service = VerifyService(store, lanes=2, workers=1)
        await service.stop()
        with pytest.raises(ServiceStopped):
            await service.prove(request, ADMISSION_CONFIG)
        return service.stats

    stats = asyncio.run(run())
    assert (stats.requests, stats.store_answered) == (0, 0)


def test_concurrent_admissions_keep_the_counters_exact():
    """Warm and cold requests in flight together, with a short thread
    switch interval: the admission scans read the store while lanes write
    it, and every counter still adds up — each request is answered once,
    every sequent is either replayed or proved live, none twice."""
    import random
    import sys

    warm = [_syntactic_seq(k) for k in range(8)]
    cold = [sequent([], parse(f"Q {k}")) for k in range(8)]
    store, _ = _filled_store(warm)
    rng = random.Random(3)
    requests = [rng.sample(warm + cold, 3) for _ in range(24)]
    all_warm = sum(1 for request in requests if all(s in warm for s in request))

    async def run():
        service = VerifyService(store, lanes=2, workers=1)
        try:
            results = await asyncio.wait_for(
                asyncio.gather(*(service.prove(r, ADMISSION_CONFIG) for r in requests)),
                timeout=60,
            )
        finally:
            await service.stop()
        return service.stats, results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stats, results = asyncio.run(run())
    finally:
        sys.setswitchinterval(interval)
    assert all(result.proved == 3 for result in results)
    assert stats.requests == len(requests)
    assert stats.sequents == 3 * len(requests)
    assert stats.replayed == sum(result.replayed for result in results)
    assert stats.replayed + stats.live_proved == stats.sequents
    assert stats.live_reproofs == 0
    assert stats.live_proved == len({s.digest() for r in requests for s in r if s in cold})
    assert stats.store_answered >= all_warm


# -- lane count ----------------------------------------------------------------


def test_default_lanes_follow_the_farm_width():
    """Each cold request dispatches alone, so the default gives every farm
    worker a lane (never fewer than ``DEFAULT_LANES``): a burst of
    one-sequent requests can then keep a wide farm busy.  An explicit
    ``lanes`` wins."""

    async def run():
        services = [
            VerifyService(SequentCache(), workers=1),
            VerifyService(SequentCache(), workers=DEFAULT_LANES + 8),
            VerifyService(SequentCache(), lanes=3, workers=DEFAULT_LANES + 8),
        ]
        for service in services:
            await service.stop()  # the farm starts no process before a dispatch
        return [service.lanes for service in services]

    assert asyncio.run(run()) == [DEFAULT_LANES, DEFAULT_LANES + 8, 3]


# -- stopping ------------------------------------------------------------------


def test_stop_without_drain_refuses_waiting_requests():
    """``stop(drain=False)`` with one request dispatching on the only lane
    and a second waiting for it: the waiting request gets ``ServiceStopped``
    without dispatching, the running one completes, and nothing stays busy."""

    async def run():
        service = _service(lanes=1)
        config = DispatchConfig(["sleepy"], {"sleepy": {"delay": 0.4}})
        running = asyncio.ensure_future(service.prove([_syntactic_seq(0)], config))
        await _wait_for(lambda: service._inflight)
        waiting = asyncio.ensure_future(service.prove([_syntactic_seq(1)], config))
        await _wait_for(lambda: service.pending == 1)
        await service.stop(drain=False)
        with pytest.raises(ServiceStopped):
            await waiting
        result = await running
        assert not service.busy
        return service.stats, result

    stats, result = asyncio.run(run())
    assert result.proved == 1
    assert (stats.batches, stats.live_proved) == (1, 1)
