"""One dispatch per class, largest sequent first.

``verify_class`` proves every target method's sequents in one dispatch and
reports each method from its contiguous slice of the outcomes, and the
dispatcher starts the open sequents largest first.  Pinned here:

* per method, the class batch reports what per-method ``verify`` calls
  sharing one fresh cache report (sequent counts, proved counts, open and
  refuted origins), for every bundled structure and both executors; a
  sequent repeated between two methods is a dedup replay of the later one;
* a pool dispatch starts the sequents with the most assumptions first,
  ties in sequent order, and returns outcomes in sequent order, around the
  caller's own sequent objects; the inline
  and process paths give each sequent the same (prover, slice) turns.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import suite, verify, verify_class
from repro.form.parser import parse_formula as parse
from repro.provers.base import Prover, ProverAnswer, Verdict, registry
from repro.provers.cache import SequentCache
from repro.provers.dispatcher import DEFAULT_ORDER, DispatchConfig, Dispatcher
from repro.vcgen.sequent import sequent

#: The benchmark's prover options: with them every settled answer of the
#: suite lands well inside its timeout, so verdicts do not hang on the clock.
OPTIONS = {"smt": {"timeout": 3.0}, "fol": {"timeout": 1.5}}

#: Structures whose ``isEmpty:post:return`` has ``size:post:return``'s digest.
DUPLICATED = ("SizedList", "PriorityQueue", "ArrayList")


def _verdicts(report):
    return (
        report.total_sequents, report.proved_sequents,
        report.unproved_origins, report.refuted,
    )


@pytest.mark.parametrize("name", suite.names())
def test_class_batch_matches_per_method_verify(name, executor):
    source = suite.source(name)
    class_name = suite.entry(name).name
    settings = dict(provers=DEFAULT_ORDER, prover_options=OPTIONS, dedup=True, **executor)
    batched = verify_class(source, class_name=class_name, cache=SequentCache(), **settings)
    cache = SequentCache()
    per_method = [
        verify(source, method=report.method_name, class_name=class_name, cache=cache, **settings)
        for report in batched.methods
    ]
    assert batched.methods
    for ours, theirs in zip(batched.methods, per_method):
        assert _verdicts(ours) == _verdicts(theirs), ours.method_name
    assert batched.dedup_replayed == sum(m.dedup_replayed for m in batched.methods)

    if name in DUPLICATED:
        names = [report.method_name for report in batched.methods]
        size, is_empty = (batched.methods[names.index(m)] for m in ("size", "isEmpty"))
        own_is_empty = per_method[names.index("isEmpty")]
        # In the class batch the repeat is a dedup replay of size's answer;
        # per method it is a cache replay.  Either way it is isEmpty's only
        # replay, and it carries size's verdict.
        assert (size.dedup_replayed, is_empty.dedup_replayed) == (0, 1)
        assert own_is_empty.dedup_replayed == 0
        size_proved = f"{class_name}.size:post:return" not in size.unproved_origins
        for report in (is_empty, own_is_empty):
            assert report.replayed_sequents == 1
            assert report.proved_from_cache == int(size_proved)


def test_class_report_time_is_the_class_calls_wall():
    """The methods share one dispatch, so the class's total time is the
    call's wall, not the sum that would count the dispatch per method."""
    start = time.perf_counter()
    report = verify_class(suite.source("SizedList"), class_name="SizedList",
                          provers=["smt"], prover_options=OPTIONS, workers=1)
    elapsed = time.perf_counter() - start
    assert len(report.methods) > 1
    assert 0 < report.total_time <= elapsed
    assert report.total_time < sum(m.total_time for m in report.methods)
    assert len({(m.wall_time, m.workers) for m in report.methods}) == 1


# -- submission order -------------------------------------------------------------


class _Stamping(Prover):
    """Proves everything at once; its answer's detail is the monotonic
    instant it started and the slice it ran under."""

    name = "stamping"

    def attempt(self, sequent, deadline):
        return ProverAnswer(
            Verdict.PROVED, self.name,
            detail=f"{time.monotonic():.6f} {deadline.remaining():.1f}",
        )


@pytest.fixture
def stamping():
    """Registered before any pool forks, so its workers can build it."""
    registry.register(_Stamping.name, _Stamping)


#: Assumption counts of the batch: ties, and sizes out of order.
SIZES = (1, 3, 2, 3, 0, 2, 1)


def _sized_batch():
    return [
        sequent([parse(f"p{k} = {j}") for j in range(size)], parse(f"x{k} = y{k}"))
        for k, size in enumerate(SIZES)
    ]


def _start_order(result):
    started = {index: float(outcome.answers[0].detail.split()[0])
               for index, outcome in enumerate(result.outcomes)}
    return sorted(started, key=started.get)


def _turns(result):
    return [[(a.prover, a.detail.split()[1]) for a in o.answers] for o in result.outcomes]


def test_a_pool_dispatch_starts_the_largest_sequents_first(stamping):
    """A one-process pool starts tasks in submission order, so the answers'
    start instants read back the order the dispatcher submitted them in;
    the inline path runs them in that order too, and an own two-process
    pool gives each sequent the inline path's turns."""
    seqs = _sized_batch()
    largest_first = sorted(range(len(SIZES)), key=lambda index: -SIZES[index])
    assert largest_first == [1, 3, 2, 5, 0, 6, 4]
    config = DispatchConfig(("stamping",), workers=2)
    with ProcessPoolExecutor(max_workers=1) as pool:
        serial = Dispatcher(config, executor=pool).prove_all(seqs)
    pooled = Dispatcher(config).prove_all(seqs)
    inline = Dispatcher(DispatchConfig(("stamping",))).prove_all(seqs)

    assert _start_order(serial) == _start_order(inline) == largest_first
    for result in (serial, pooled, inline):
        # In sequent order, around the caller's own sequents: a worker sends
        # back its answers, never a copy of the sequent.
        assert all(outcome.sequent is seq for outcome, seq in zip(result.outcomes, seqs))
        assert result.proved == len(seqs)
    assert pooled.workers == 2 and inline.workers == 1
    assert _turns(pooled) == _turns(inline) == [[("stamping", "0.5")]] * len(seqs)
