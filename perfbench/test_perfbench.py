"""Tests of the benchmark's own helpers (run: python3 -m pytest perfbench -q)."""

from __future__ import annotations

import math

import pytest

import config
import loadgen
import oracle
import spans
import workloads
from stats import Sent, percentile, self_times, tail


# -- the percentile rule --------------------------------------------------------


def test_tail_is_p99_when_ten_samples_lie_beyond_it():
    values = list(range(1, 1001))
    result = tail(values)
    assert result.percentile == 99.0
    assert result.value == 990
    assert result.samples == 1000
    assert sum(1 for v in values if v > result.value) == 10


def test_tail_falls_back_to_the_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    result = tail(values)
    assert result.percentile == 90.0
    assert result.value == 90.0
    assert result.samples == 100
    assert sum(1 for v in values if v > result.value) == 10


def test_tail_with_few_samples_reports_the_median():
    result = tail([5.0, 1.0, 3.0])
    assert result.percentile == pytest.approx(200.0 / 3)
    assert result.value == 3.0
    assert result.samples == 3


def test_tail_stops_at_p99_with_many_samples():
    result = tail(list(range(10000)))
    assert result.percentile == 99.0
    assert result.value == percentile(list(range(10000)), 99.0)


def test_tail_of_no_samples_is_an_error():
    with pytest.raises(ValueError):
        tail([])


# -- due-time latency under generator lag -------------------------------------


class FakeClock:
    def __init__(self, oversleep: float = 0.0) -> None:
        self.now = 100.0
        self.oversleep = oversleep

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds + self.oversleep


def _run(dues, service, oversleep=0.0):
    clock = FakeClock(oversleep)

    def send(connection, index):
        clock.now += service
        return index

    records = loadgen.run_phase(dues, 1, send, clock=clock, sleep=clock.sleep)
    return [Sent(*record[:4]) for record in records]


def test_latency_counts_from_due_time_when_the_connection_is_busy():
    sent = _run([0.0, 0.1, 0.2], service=0.3)
    assert [round(s.latency, 9) for s in sent] == [0.3, 0.5, 0.7]
    # Waiting for the one connection is queueing, not generator lag.
    assert all(s.lag == 0.0 for s in sent)
    # Timing from the send would have hidden the queueing entirely.
    assert all(math.isclose(s.done - s.sent, 0.3) for s in sent)


def test_generator_lag_is_charged_to_latency_and_reported():
    sent = _run([0.0, 1.0, 2.0], service=0.1, oversleep=0.05)
    assert [round(s.lag, 9) for s in sent] == [0.0, 0.05, 0.05]
    assert [round(s.latency, 9) for s in sent] == [0.1, 0.15, 0.15]


def test_run_phase_answers_every_request_on_several_connections():
    records = loadgen.run_phase([0.0] * 20, 2, lambda connection, index: index)
    assert [record[4] for record in records] == list(range(20))


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_child_spans_once():
    own = self_times([
        (1, None, 0.0, 10.0),
        (2, 1, 1.0, 3.0),
        (3, 1, 2.0, 5.0),   # overlaps span 2 (another thread): counted once
        (4, 1, 9.0, 12.0),  # outlives its parent: clipped
        (5, 2, 1.5, 2.5),   # a grandchild only reduces its own parent
    ])
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_tracer_nests_spans_and_restores_patches():
    tracer = spans.Tracer()

    class Layer:
        def inner(self):
            return sum(range(1000))

        def outer(self):
            return self.inner() + 1

    original = Layer.inner
    tracer.patch(Layer, "inner", tracer.wrap(Layer.inner, "inner"))
    tracer.patch(Layer, "outer", tracer.wrap(Layer.outer, "outer"))
    with tracer.op("bench.op", "r1"):
        Layer().outer()
    tracer.uninstall()
    assert Layer.inner is original
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["outer"][4] == by_name["bench.op"][0]
    assert {span[5] for span in tracer.spans} == {"r1"}
    own = self_times((s[0], s[4], s[2], s[3]) for s in tracer.spans)
    outer = by_name["outer"]
    inner = by_name["inner"]
    assert own[outer[0]] == pytest.approx((outer[3] - outer[2]) - (inner[3] - inner[2]))


# -- seeded inputs -----------------------------------------------------------


def test_same_seed_gives_the_same_inputs():
    assert workloads.cold_order(7) == workloads.cold_order(7)
    assert workloads.daemon_schedule(7, "L", 16.0, 6.0) == workloads.daemon_schedule(7, "L", 16.0, 6.0)


def test_other_seeds_give_other_inputs_of_the_same_size():
    assert workloads.cold_order(1) != workloads.cold_order(2)
    assert sorted(workloads.cold_order(1)) == sorted(oracle.STRUCTURES)
    one = workloads.daemon_schedule(1, "H", 30.0, 6.0)
    two = workloads.daemon_schedule(2, "H", 30.0, 6.0)
    assert one != two
    assert len(one) == len(two) == 180
    assert all(0.0 <= r.due < 6.0 for r in one)
    assert [r.due for r in one] == sorted(r.due for r in one)


def test_fresh_obligations_are_fresh_and_valid():
    config.require_program()
    from repro.form.parser import parse_formula
    from repro.provers.dispatcher import Dispatcher, make_provers
    from repro.vcgen.sequent import sequent

    schedule = workloads.daemon_schedule(3, "H", 30.0, 6.0)
    replay = workloads.daemon_schedule(3, "H", 30.0, 6.0, tag="U")
    writes = [r for r in schedule if not r.is_read]
    assert writes and [r.due for r in replay] == [r.due for r in schedule]
    fresh = [(a, g) for r in writes for (a, g), e in zip(r.obligations, r.expect_proved) if e]
    replayed = [(a, g) for r in replay if not r.is_read
                for (a, g), e in zip(r.obligations, r.expect_proved) if e]
    sequents = [sequent([parse_formula(x) for x in a], parse_formula(g)) for a, g in fresh]
    digests = {s.digest() for s in sequents}
    assert len(digests) == len(fresh)
    assert digests.isdisjoint(
        sequent([parse_formula(x) for x in a], parse_formula(g)).digest() for a, g in replayed
    )
    dispatcher = Dispatcher(make_provers(list(config.CHAIN), **config.PROVER_OPTIONS))
    assert dispatcher.prove_all(sequents[:12]).proved == 12


def test_pinned_counts_match_the_suite_totals():
    assert sum(p for p, _ in oracle.PINNED.values()) == 198
    assert sum(t for _, t in oracle.PINNED.values()) == 214
    assert len(oracle.PINNED) == 34
    assert set(workloads.READ_SET) <= set(oracle.PINNED)
    assert all(oracle.PINNED[m][0] == oracle.PINNED[m][1] > 0 for m in workloads.READ_SET)
    assert oracle.method_failure("HashTable", "put", 9, 11) == ""
    assert "proved 8/11" in oracle.method_failure("HashTable", "put", 8, 11)
    assert "sequents" in oracle.method_failure("HashTable", "put", 9, 12)


def test_pinned_open_origins_match_the_pinned_counts():
    for method, (proved, total) in oracle.PINNED.items():
        assert len(oracle.PINNED_OPEN.get(method, ())) == total - proved, method


def test_a_timed_out_proof_is_a_miss_and_a_definite_one_a_failure():
    opens = ["HashTable.put:inv-exit:SizeInv", "HashTable.put:inv-exit:ContentStored"]
    lost = "HashTable.put:inv-exit:ReachPairs"
    assert oracle.open_failure("HashTable", "put", 11, opens, {}) == ("", 0)
    # A pinned proof that ran out of time is a miss, not a failure.
    assert oracle.open_failure("HashTable", "put", 11, opens + [lost], {lost: 1}) == ("", 1)
    # The same proof lost without a timeout is a wrong answer.
    problem, _ = oracle.open_failure("HashTable", "put", 11, opens + [lost], {})
    assert "proved 8/11" in problem and lost in problem
    # A timeout on a pinned-open sequent excuses no other loss.
    problem, _ = oracle.open_failure(
        "HashTable", "put", 11, opens + [lost], {opens[1]: 1})
    assert lost in problem
    assert "sequents" in oracle.open_failure("HashTable", "put", 12, opens, {})[0]
