"""A ``REFUTED`` verdict survives every hop a verdict makes.

The countermodel travels as the answer's detail, so the disk cache, the
daemon's store, the wire and the report carry it without a field of their
own.  Pinned here: a refutation is stored on disk, replays after a daemon
restart without running SMT again, crosses the wire intact, and a
server-backed report that contains one is byte-identical to the local one.
"""

from repro import suite, verify
from repro.form.parser import parse_formula as parse
from repro.provers.base import Verdict
from repro.provers.cache import SequentCache
from repro.provers.dispatcher import Dispatcher, make_provers
from repro.server import VerifyClient, VerifyServer
from repro.server.wire import answer_from_wire, answer_to_wire, outcome_to_wire
from repro.vcgen.sequent import sequent

PROVERS = ["syntactic", "smt"]
OPTIONS = {"smt": {"timeout": 2.0}}


def _invalid(k=0):
    """``a < b |- b < a + k``: SMT refutes it (``a = -1, b = 0`` for k = 0)."""
    return sequent([parse("a < b")], parse(f"b < a + {k}" if k else "b < a"))


def _dispatch(cache):
    return Dispatcher(make_provers(PROVERS, **OPTIONS), cache=cache)


def test_refuted_verdict_persists_in_the_disk_cache(tmp_path):
    cold = _dispatch(SequentCache(cache_dir=tmp_path)).prove_all([_invalid()])
    (outcome,) = cold.outcomes
    assert outcome.answers[-1].verdict is Verdict.REFUTED

    # A fresh cache over the same directory: memory tier empty, disk warm.
    reopened = SequentCache(cache_dir=tmp_path)
    signature = make_provers(["smt"], **OPTIONS)[0].options_signature()
    entry = reopened.lookup(_invalid(), "smt", signature)
    assert entry is not None and entry.verdict is Verdict.REFUTED
    assert entry.detail == outcome.countermodel
    warm = _dispatch(reopened).prove_all([_invalid()])
    assert warm.outcomes[0].countermodel == outcome.countermodel
    assert warm.stats == {}  # nothing ran live
    assert reopened.stats.disk_hits >= 1


def test_refuted_answer_crosses_the_wire():
    outcome = _dispatch(None).prove_all([_invalid()]).outcomes[0]
    answer = outcome.answers[-1]
    back = answer_from_wire(answer_to_wire(answer))
    assert (back.verdict, back.prover, back.detail) == (
        Verdict.REFUTED, "smt", answer.detail
    )
    wired = outcome_to_wire(outcome)
    assert wired["proved"] is False and wired["prover"] == "smt"
    assert wired["answers"][-1]["verdict"] == "refuted"


def test_refuted_replays_after_a_daemon_restart_without_smt(tmp_path):
    store_dir = str(tmp_path / "store")
    batch = [_invalid(k) for k in range(3)]

    first = VerifyServer(port=0, store_dir=store_dir).start()
    try:
        with VerifyClient(port=first.port) as c:
            cold = c.prove_sequents(batch, provers=PROVERS, prover_options=OPTIONS)
    finally:
        first.stop()
    assert cold["proved"] == 0
    refuted = [o["answers"][-1] for o in cold["outcomes"]]
    assert [a["verdict"] for a in refuted] == ["refuted"] * 3
    assert not any(a["cached"] for a in refuted)

    second = VerifyServer(port=0, store_dir=store_dir).start()
    try:
        with VerifyClient(port=second.port) as c:
            warm = c.prove_sequents(batch, provers=PROVERS, prover_options=OPTIONS)
            stats = c.stats()
    finally:
        second.stop()
    assert warm["replayed"] == 3
    for cold_outcome, warm_outcome in zip(cold["outcomes"], warm["outcomes"]):
        assert all(a["cached"] for a in warm_outcome["answers"])
        assert warm_outcome["answers"][-1]["verdict"] == "refuted"
        assert warm_outcome["answers"][-1]["detail"] == (
            "cached: " + cold_outcome["answers"][-1]["detail"]
        )
    assert stats["store"]["disk_hits"] > 0


def test_server_report_with_refutations_is_byte_identical_to_local(tmp_path):
    source = suite.source("CursorList")
    kwargs = dict(class_name="CursorList", method="next", provers=["smt"],
                  prover_options={"smt": {"timeout": 3.0}})
    cache = SequentCache()
    local_cold = verify(source, cache=cache, **kwargs)
    local_warm = verify(source, cache=cache, **kwargs)
    assert [line.split(": countermodel")[0] for line in local_warm.refuted] == [
        "CursorList.next:inv-exit:DoneInv", "CursorList.next:inv-exit:CurrentData",
    ]
    assert local_warm.refuted == local_cold.refuted
    assert "    refuted: CursorList.next:inv-exit:DoneInv: countermodel (null + " in (
        local_warm.format()
    )

    server = VerifyServer(port=0, store_dir=str(tmp_path / "store")).start()
    try:
        with VerifyClient(port=server.port) as client:
            client.verify_method(source, **kwargs)
            server_warm = client.verify_method(source, **kwargs)
    finally:
        server.stop()
    assert server_warm.refuted == local_warm.refuted
    assert server_warm.format() == local_warm.format()
