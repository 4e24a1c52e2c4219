"""Integration tests of the verify daemon (repro.server).

The daemon's contract, pinned here:

* concurrent clients with overlapping batches share one prover farm — each
  distinct digest is proved live at most once (``live_reproofs == 0``);
* warm traffic is answered entirely by replay, whatever the verdict
  (cached UNKNOWNs count — the ``from_cache`` accounting fix);
* server-backed ``verify_method`` / ``verify_class`` runs produce
  byte-identical ``format()`` reports to local warm-cache runs;
* per-request budgets expire queued work without consuming prover time;
* the verdict store persists verdicts across daemon restarts;
* shutdown drains gracefully and the port stops answering.
"""

import re
import threading

import pytest

from repro import suite, verify, verify_class
from repro.form.parser import parse_formula as parse
from repro.provers.cache import SequentCache
from repro.provers.dispatcher import DispatchConfig
from repro.server import VerifyClient, VerifyServer, VerifyServiceError
from repro.vcgen.sequent import sequent

PROVERS = ["syntactic", "smt"]
OPTIONS = {"smt": {"timeout": 2.0}}


def _arith(k):
    """A distinct-digest LIA sequent the smt engine proves quickly."""
    return sequent([parse("a < b"), parse("b < c")], parse(f"a < c + {k}"))


def _corpus(count=8):
    return [_arith(k) for k in range(count)]


@pytest.fixture
def server(tmp_path):
    srv = VerifyServer(port=0, store_dir=str(tmp_path / "store")).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    with VerifyClient(port=server.port) as c:
        yield c


def _service_stats(client):
    return client.stats()["service"]


# -- protocol basics ----------------------------------------------------------


def test_ping_and_stats(client):
    assert client.ping()
    stats = client.stats()
    assert set(stats["service"]) >= {
        "requests", "batches", "live_proved", "replayed", "live_reproofs",
    }


def test_error_answer_keeps_the_connection_usable(client):
    with pytest.raises(VerifyServiceError):
        client.call("no-such-op")
    with pytest.raises(VerifyServiceError):
        client.call("verify_method")  # missing source
    assert client.ping()


# -- raw sequent batches ------------------------------------------------------


def test_prove_sequents_cold_then_warm(client):
    batch = _corpus(4) + [_arith(0)]  # one in-batch duplicate
    cold = client.prove_sequents(batch, provers=PROVERS, prover_options=OPTIONS)
    assert cold["total"] == 5
    assert cold["proved"] == 5
    assert cold["dedup_replayed"] == 1

    warm = client.prove_sequents(batch, provers=PROVERS, prover_options=OPTIONS)
    assert warm["proved"] == 5
    assert warm["replayed"] == 5  # every verdict replayed, none proved live
    stats = _service_stats(client)
    assert stats["live_proved"] == 4
    assert stats["live_reproofs"] == 0
    assert stats["distinct_live_digests"] == 4


def test_cached_nonproof_verdict_is_replayed_traffic(client):
    """A cached UNKNOWN replays as warm traffic (the from_cache fix):
    ``replayed`` counts it even though ``proved_from_cache`` cannot."""
    unprovable = [sequent([], parse("q"))]
    cold = client.prove_sequents(unprovable, provers=PROVERS, prover_options=OPTIONS)
    assert cold["proved"] == 0
    assert cold["replayed"] == 0

    warm = client.prove_sequents(unprovable, provers=PROVERS, prover_options=OPTIONS)
    assert warm["proved"] == 0
    assert warm["replayed"] == 1
    assert warm["proved_from_cache"] == 0
    (outcome,) = warm["outcomes"]
    assert outcome["from_cache"] and not outcome["proved"]
    assert all(answer["cached"] for answer in outcome["answers"])


def test_cross_client_dedup_proves_each_digest_once(server):
    """Six concurrent clients submit overlapping slices of one corpus: the
    in-flight registry, the dedup pre-pass and the store guarantee every
    distinct digest is proved live exactly once across all of them."""
    corpus = _corpus(8)
    responses = {}
    errors = []

    def submit(index):
        batch = [corpus[j % 8] for j in range(index, index + 5)]
        try:
            with VerifyClient(port=server.port) as c:
                responses[index] = c.prove_sequents(
                    batch, provers=PROVERS, prover_options=OPTIONS
                )
        except Exception as exc:  # noqa: BLE001 - surfaced by the assert below
            errors.append(repr(exc))

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    assert len(responses) == 6
    for response in responses.values():
        assert response["proved"] == response["total"] == 5

    with VerifyClient(port=server.port) as c:
        stats = _service_stats(c)
    assert stats["live_proved"] == 8
    assert stats["distinct_live_digests"] == 8
    assert stats["live_reproofs"] == 0
    # 6 x 5 sequents dispatched, 8 proved live: the rest were replays.
    assert stats["replayed"] == 30 - 8


def test_request_budget_expires_queued_work(client):
    """A request whose budget lapses while queued is answered
    ``budget_exhausted`` without running any prover."""
    response = client.prove_sequents(
        [_arith(100), _arith(101)],
        provers=PROVERS,
        prover_options=OPTIONS,
        budget=0.0,
    )
    assert response["proved"] == 0
    assert all(o["budget_exhausted"] for o in response["outcomes"])
    assert all(not o["answers"] for o in response["outcomes"])
    stats = _service_stats(client)
    assert stats["requests_expired"] == 1
    assert stats["live_proved"] == 0


def _pigeonhole(n=8, bound=None):
    """An smt-grinding sequent: n pairwise-distinct integers in [0, n-2]."""
    bound = (n - 2) if bound is None else bound
    assumptions = []
    for i in range(n):
        assumptions += [parse(f"0 <= y{i}"), parse(f"y{i} <= {bound}")]
    for i in range(n):
        for j in range(i + 1, n):
            assumptions.append(parse(f"y{i} < y{j} | y{j} < y{i}"))
    return sequent(assumptions, parse(f"y{n-1} < y0"))


def test_cobatched_clients_are_billed_their_own_latency(tmp_path):
    """Two clients arriving together: the cheap client's answer must report
    *its own* answer-time sum, not the time the slow client's sequent
    grinds beside it."""
    slow_options = {"smt": {"timeout": 1.2}}
    server = VerifyServer(port=0, store_dir=str(tmp_path / "store")).start()
    try:
        responses = {}
        errors = []

        def submit(tag, batch):
            try:
                with VerifyClient(port=server.port) as c:
                    responses[tag] = c.prove_sequents(
                        batch, provers=PROVERS, prover_options=slow_options
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=submit, args=("slow", [_pigeonhole()])),
            threading.Thread(
                target=submit,
                args=("cheap", [sequent([parse(f"p{k}")], parse(f"p{k}")) for k in range(3)]),
            ),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
    finally:
        server.stop()

    cheap, slow = responses["cheap"], responses["slow"]
    assert cheap["proved"] == 3
    # The cheap client's own latency is its three syntactic answers, nowhere
    # near the pigeonhole grind (~1.2s timeout) of the slow client.
    assert cheap["wall_time"] < 0.5
    assert cheap["total_time"] == pytest.approx(cheap["wall_time"])
    assert slow["wall_time"] >= 1.0


def test_daemon_persists_the_learned_ordering(tmp_path):
    """A daemon proves the whole batch in learned order and leaves the
    store's ordering table in the store root."""
    import os

    from repro.provers.ordering import DEFAULT_FILENAME

    store_dir = str(tmp_path / "store")
    daemon = VerifyServer(port=0, store_dir=store_dir).start()
    try:
        with VerifyClient(port=daemon.port) as c:
            response = c.prove_sequents(_corpus(4), provers=PROVERS, prover_options=OPTIONS)
    finally:
        daemon.stop()

    assert response["proved"] == 4
    assert all(o["proved"] for o in response["outcomes"])
    assert os.path.exists(os.path.join(store_dir, DEFAULT_FILENAME))


# -- server-backed verify: byte-identical reports -----------------------------


def test_verify_method_report_byte_identical_to_local_warm_run(client):
    source = suite.source("SizedList")
    kwargs = dict(
        class_name="SizedList", method="size", provers=["smt"],
        prover_options=OPTIONS,
    )
    cache = SequentCache()
    verify(source, cache=cache, **kwargs)
    local_warm = verify(source, cache=cache, **kwargs)

    client.verify_method(source, **kwargs)
    server_warm = client.verify_method(source, **kwargs)

    assert server_warm.succeeded
    assert server_warm.format() == local_warm.format()
    assert server_warm.replayed_sequents == local_warm.replayed_sequents


def test_verify_class_concurrent_clients_match_local_warm_run(server):
    source = suite.source("SizedList")
    kwargs = dict(
        class_name="SizedList", methods=["size", "isEmpty"],
        provers=["smt"], prover_options=OPTIONS,
    )
    reports = {}
    errors = []

    def run_class(tag):
        try:
            with VerifyClient(port=server.port) as c:
                reports[tag] = c.verify_class(source, **kwargs)
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))

    threads = [threading.Thread(target=run_class, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors

    with VerifyClient(port=server.port) as c:
        warm_server = c.verify_class(source, **kwargs)
        stats = _service_stats(c)
    assert stats["live_reproofs"] == 0

    cache = SequentCache()
    verify_class(source, cache=cache, **kwargs)
    warm_local = verify_class(source, cache=cache, **kwargs)

    # isEmpty does not fully discharge with smt alone; what matters here is
    # that the server-backed warm run agrees with the local one byte for byte.
    assert warm_server.succeeded == warm_local.succeeded
    assert warm_server.prover_order == warm_local.prover_order
    assert len(warm_server.methods) == len(warm_local.methods) == 2
    for ours, theirs in zip(warm_server.methods, warm_local.methods):
        assert ours.format() == theirs.format()


@pytest.mark.parametrize("op", ["verify_method", "verify_class"])
@pytest.mark.parametrize("knob", ["always_syntactic_first", "include_frame"])
def test_verify_refuses_a_disabled_syntactic_first_or_frame(client, op, knob):
    """verify always runs the syntactic prover first and checks frame
    conditions, so a request switching either off gets a structured error
    instead of a report that quietly differs from what it asked for."""
    request = dict(
        source=suite.source("SizedList"), class_name="SizedList", method="size",
        methods=["size"], provers=["smt"], prover_options=OPTIONS,
    )
    with pytest.raises(VerifyServiceError, match=f"{knob}=false is not supported"):
        client.call(op, **request, **{knob: False})
    assert client.call(op, **request, **{knob: True})["ok"]


def test_alias_and_engine_name_requests_share_one_lane(server):
    """``z3`` is an alias of ``smt``: requests naming either resolve to one
    DispatchConfig, so they key the store alike and share their verdicts."""
    alias = DispatchConfig(["syntactic", "z3"], OPTIONS)
    engine = DispatchConfig(["syntactic", "smt"], OPTIONS)
    assert alias.key() == engine.key()
    with VerifyClient(port=server.port) as c:
        cold = c.prove_sequents(_corpus(3), provers=["syntactic", "z3"], prover_options=OPTIONS)
        warm = c.prove_sequents(_corpus(3), provers=["syntactic", "smt"], prover_options=OPTIONS)
        stats = _service_stats(c)
    assert cold["proved"] == warm["proved"] == 3
    assert warm["replayed"] == 3 and stats["live_reproofs"] == 0


# -- store persistence and lifecycle ------------------------------------------


def test_store_persists_across_daemon_restarts(tmp_path):
    store_dir = str(tmp_path / "store")
    batch = _corpus(4)

    first = VerifyServer(port=0, store_dir=store_dir).start()
    try:
        with VerifyClient(port=first.port) as c:
            cold = c.prove_sequents(batch, provers=PROVERS, prover_options=OPTIONS)
            assert cold["proved"] == 4
    finally:
        first.stop()

    second = VerifyServer(port=0, store_dir=store_dir).start()
    try:
        with VerifyClient(port=second.port) as c:
            warm = c.prove_sequents(batch, provers=PROVERS, prover_options=OPTIONS)
            assert warm["proved"] == 4
            assert warm["replayed"] == 4
            stats = c.stats()
            assert stats["service"]["live_proved"] == 0
            assert stats["store"]["disk_hits"] > 0
    finally:
        second.stop()


def test_daemon_compacts_a_prefilled_store_to_its_exact_cap(tmp_path):
    """One store directory: ``store_max_entries`` is an exact cap, applied
    at startup to a store a previous deployment left behind, and the
    daemon's verdicts land beside it as ``<store-dir>/<key>.json``."""
    from repro.provers.base import ProverAnswer, Verdict

    store_dir = tmp_path / "store"
    prefill = SequentCache(cache_dir=store_dir)
    for seq in _corpus(10):
        prefill.store(seq, "smt", ProverAnswer(Verdict.PROVED, "smt"))
    assert prefill.disk_entries() == 10

    daemon = VerifyServer(
        port=0, store_dir=str(store_dir), store_max_entries=3
    ).start()
    try:
        assert daemon.store.disk_entries() == 3
        with VerifyClient(port=daemon.port) as c:
            store = c.stats()["store"]
            assert store["compactions"] == 1
            assert store["evicted_entries"] == 7
            assert store["max_disk_entries"] == 3
            fresh = [_arith(k) for k in range(100, 102)]
            assert c.prove_sequents(fresh, provers=PROVERS, prover_options=OPTIONS)[
                "proved"
            ] == 2
    finally:
        daemon.stop()
    assert daemon.store.disk_entries() > 3
    assert all(path.is_file() and path.suffix == ".json" for path in store_dir.iterdir())


def test_compact_op_refuses_invalid_caps(server, client):
    """A negative or non-numeric cap is a structured error, and nothing is
    evicted: ``max_age=-1`` would put the cutoff in the future."""
    client.prove_sequents(_corpus(3), provers=PROVERS, prover_options=OPTIONS)
    before = server.store.disk_entries()
    assert before > 0
    for caps in ({"max_age": -1}, {"max_entries": "2"}, {"max_entries": -1},
                 {"max_entries": True}, {"max_age": "1"}, {"max_age": float("nan")}):
        with pytest.raises(VerifyServiceError, match="non-negative"):
            client.call("compact", **caps)
    assert client.compact()["disk_entries"] == before
    assert client.stats()["store"]["compactions"] == 0


@pytest.mark.parametrize("fields, named", [
    ({"provers": "smt"}, "provers must be a list"),
    ({"prover_options": [1, 2]}, "prover_options must map"),
    ({"sequent_budget": "x"}, "sequent_budget must be"),
    ({"sequents": "nope"}, "sequents must be a list"),
    ({"budget": float("nan")}, "^budget must be"),
    ({"budget": True}, "^budget must be"),
    ({"budget": "abc"}, "^budget must be"),
    ({"budget": -1}, "^budget must be"),
], ids=["provers", "prover_options", "sequent_budget", "sequents",
        "budget-nan", "budget-true", "budget-abc", "budget-negative"])
def test_malformed_request_settings_are_refused_by_name(client, fields, named):
    """A malformed dispatch setting is answered ``ok: false`` with an error
    naming the field, before anything is dispatched, and the daemon still
    proves the next valid request.  A NaN ``budget`` would build a deadline
    that never expires inline (and a zero one on the farm), and ``true``
    would read as one second."""
    from repro.server.wire import sequents_to_wire

    request = {"sequents": sequents_to_wire([_arith(70)]), "provers": PROVERS,
               "prover_options": OPTIONS, **fields}
    with pytest.raises(VerifyServiceError, match=named):
        client.call("prove_sequents", **request)
    assert _service_stats(client)["batches"] == 0
    response = client.prove_sequents([_arith(71)], provers=PROVERS, prover_options=OPTIONS)
    assert response["proved"] == 1


#: (engine, option, bad value) refused over the wire as they are by
#: ``make_provers`` (``tests/provers/test_prover_options.py``).
BAD_OPTIONS = [
    ("mona", "max_states", "x"),
    ("fol", "max_processed", "x"),
    ("fol", "max_generated", 1.5),
    ("fol", "backward_subsumption", "no"),
    ("fol", "strategy", "greedy"),
    ("smt", "interning", 1),
    ("smt", "max_theory_iterations", True),
    ("smt", "instantiation", {"ematch_rounds": 1}),
]
BAD_IDS = [f"{engine}-{option}" for engine, option, _ in BAD_OPTIONS]
#: Engines besides ``smt`` (the ``prover_options`` case) whose unknown option
#: key must be refused by its ``Options`` constructor: admission has no
#: per-engine key check of its own.
UNKNOWN_KEY_ENGINES = ["syntactic", "fol", "mona", "bapa"]


@pytest.mark.parametrize("op", ["prove_sequents", "verify_method"])
@pytest.mark.parametrize("fields, error", [
    ({"provers": ["nope"]}, "^provers: unknown prover 'nope'"),
    ({"prover_options": {"smt": {"bogus": 1}}}, "^prover_options: .*'bogus'"),
    ({"prover_options": {"smt": {"timeout": "x"}}}, "^prover_options: timeout must be"),
    ({"prover_options": {"smt": {"timeout": float("nan")}}},
     "^prover_options: timeout must be"),
    ({"prover_options": {"smt": {"timeout": True}}}, "^prover_options: timeout must be"),
    ({"prover_options": {"smt": {"timeout": 0}}}, "^prover_options: timeout must be"),
    ({"prover_options": {"smt": {"timeout": 1.0}, "z3": {"timeout": 2.0}}},
     "^prover_options: two option sets for one prover in \\['smt', 'z3'\\]"),
    ({"provers": ["interactive"], "prover_options": {"interactive": {"store": {"a": 1}}}},
     "^provers: unknown prover 'interactive'"),
    ({"provers": ["interactive"], "prover_options": {"interactive": {"store": {}}}},
     "^provers: unknown prover 'interactive'"),
    ({"provers": ["interactive"]}, "^provers: unknown prover 'interactive'"),
    ({"provers": ["isabelle"]}, "^provers: unknown prover 'isabelle'"),
    ({"provers": ["coq"]}, "^provers: unknown prover 'coq'"),
] + [
    ({"provers": [engine], "prover_options": {engine: {"bogus": 1}}},
     f"^prover_options: .*Options.__init__\\(\\) got an unexpected keyword argument 'bogus'")
    for engine in UNKNOWN_KEY_ENGINES
] + [
    ({"provers": [engine], "prover_options": {engine: {option: value}}},
     f"^prover_options: {option} must be")
    for engine, option, value in BAD_OPTIONS
], ids=["provers", "prover_options", "timeout-str", "timeout-nan", "timeout-true",
        "timeout-zero", "alias-twice", "interactive-store", "interactive-store-empty",
        "interactive", "isabelle", "coq"]
    + [f"{engine}-bogus" for engine in UNKNOWN_KEY_ENGINES] + BAD_IDS)
def test_unbuildable_prover_chains_are_refused_before_queueing(client, op, fields, error):
    """An unknown prover name (a deleted engine or alias included, whatever
    options it carries) or option keyword, an option value its declared type
    does not admit, or two option sets for one engine is refused with an
    error naming the field before anything is queued (for ``verify_method``,
    before the source is parsed), not raised from inside a lane or stored as
    an engine's ``internal error``."""
    from repro.server.wire import sequents_to_wire

    request = {"provers": ["smt"], "prover_options": OPTIONS, **fields}
    if op == "prove_sequents":
        request["sequents"] = sequents_to_wire([_arith(74)])
    else:
        request.update(source=suite.source("SizedList"), class_name="SizedList",
                       method="size")
    with pytest.raises(VerifyServiceError, match=error):
        client.call(op, **request)
    assert _service_stats(client)["requests"] == 0
    response = client.prove_sequents([_arith(75)], provers=PROVERS, prover_options=OPTIONS)
    assert response["proved"] == 1


@pytest.mark.parametrize("break_source, located", [
    (lambda src: src.replace("return size;", "return size", 1), r"\(line \d+:\d+\)$"),
    (lambda src: src.replace("invariant", "invariant (", 1), r"\(in SizedList line \d+\)$"),
], ids=["java-syntax", "class-spec"])
def test_unreadable_source_is_answered_with_its_location(client, break_source, located):
    """A ``verify_*`` source the Java or spec frontend cannot read is
    answered ``source: <message>`` with the frontend's location, and no
    Python exception name in front."""
    source = break_source(suite.source("SizedList"))
    for op in ("verify_method", "verify_class"):
        with pytest.raises(VerifyServiceError) as raised:
            client.call(op, source=source, class_name="SizedList", method="size",
                        provers=["smt"], prover_options=OPTIONS)
        error = str(raised.value)
        assert error.startswith("source: "), error
        assert re.search(located, error), error
        assert "Error:" not in error, error
    assert _service_stats(client)["requests"] == 0
    assert client.ping()


def test_verify_ops_check_the_same_settings(client):
    for op in ("verify_method", "verify_class"):
        with pytest.raises(VerifyServiceError, match="sequent_budget must be"):
            client.call(op, source=suite.source("SizedList"), class_name="SizedList",
                        method="size", sequent_budget=-1)
    assert client.ping()


def test_compact_op_zero_caps_are_valid_and_evict_everything(server, client):
    """Zero is the least valid cap, not a refused one: ``max_entries=0`` and
    ``max_age=0.0`` each empty the store, and each call counts once."""
    client.prove_sequents(_corpus(3), provers=PROVERS, prover_options=OPTIONS)
    before = server.store.disk_entries()
    assert before > 0
    assert client.compact(max_entries=0) == {"ok": True, "evicted": before, "disk_entries": 0}
    client.prove_sequents([_arith(50)], provers=PROVERS, prover_options=OPTIONS)
    aged = client.compact(max_age=0.0)
    assert aged["evicted"] > 0 and aged["disk_entries"] == 0
    store = client.stats()["store"]
    assert store["compactions"] == 2
    assert store["evicted_entries"] == before + aged["evicted"]


def test_server_compact_falls_back_to_its_caps_and_skips_memory_only(tmp_path):
    """``VerifyServer.compact``: the call's caps override the daemon's own,
    and with no cap or no disk tier it evicts nothing and counts nothing."""
    from repro.provers.base import ProverAnswer, Verdict

    memory_only = VerifyServer(port=0, store_max_entries=0)
    memory_only.store.store(_arith(0), "smt", ProverAnswer(Verdict.PROVED, "smt"))
    assert memory_only.compact() == 0 and memory_only.compact(max_entries=0) == 0
    assert memory_only.compactions == 0 and len(memory_only.store) == 1

    store_dir = tmp_path / "store"
    daemon = VerifyServer(port=0, store_dir=str(store_dir), store_max_entries=4)
    for seq in _corpus(6):
        daemon.store.store(seq, "smt", ProverAnswer(Verdict.PROVED, "smt"))
    assert daemon.compact(max_entries=5) == 1
    assert daemon.compact() == 1
    assert daemon.store.disk_entries() == 4
    assert (daemon.compactions, daemon.evicted_entries) == (2, 2)

    uncapped = VerifyServer(port=0, store_dir=str(store_dir))
    assert uncapped.compact() == 0 and uncapped.compactions == 0
    assert uncapped.store.disk_entries() == 4


def test_daemon_ignores_shard_directories_from_older_daemons(tmp_path):
    """Older daemons kept verdicts in ``shard-*`` subdirectories.  The store
    neither reads nor compacts them: those sequents re-prove once, and the
    old files stay until the operator deletes them."""
    from repro.provers.base import ProverAnswer, Verdict

    store_dir = tmp_path / "store"
    batch = _corpus(3)
    old_shard = SequentCache(cache_dir=store_dir / "shard-00")
    for seq in batch:
        old_shard.store(seq, "smt", ProverAnswer(Verdict.PROVED, "smt"))
    old_files = sorted((store_dir / "shard-00").iterdir())
    assert len(old_files) == 3

    daemon = VerifyServer(
        port=0, store_dir=str(store_dir), store_max_entries=0
    ).start()
    try:
        assert daemon.store.disk_entries() == 0
        with VerifyClient(port=daemon.port) as c:
            answer = c.prove_sequents(batch, provers=PROVERS, prover_options=OPTIONS)
            assert answer["proved"] == 3 and answer["replayed"] == 0
            assert _service_stats(c)["live_proved"] == 3
    finally:
        daemon.stop()
    assert sorted((store_dir / "shard-00").iterdir()) == old_files


def test_shutdown_op_drains_and_stops(tmp_path):
    server = VerifyServer(port=0).start()
    with VerifyClient(port=server.port) as c:
        assert c.prove_sequents(_corpus(2), provers=PROVERS, prover_options=OPTIONS)[
            "proved"
        ] == 2
        c.shutdown(drain=True)
    server.stop()  # joins the (already exiting) server thread
    probe = VerifyClient(port=server.port, connect_retries=2)
    with pytest.raises(VerifyServiceError):
        probe.ping()


def test_stop_without_drain_abandons_nothing_inflight(tmp_path):
    server = VerifyServer(port=0).start()
    with VerifyClient(port=server.port) as c:
        assert c.ping()
    server.stop(drain=False)
    assert server._thread is None


# -- protocol framing ---------------------------------------------------------


def test_large_request_over_64k_is_served(tmp_path):
    """Regression (the framing bugfix): a request frame over asyncio's stock
    64 KiB StreamReader limit must be served normally — the old server
    started without ``limit=`` and dropped the connection on the first big
    ``prove_sequents`` batch, leaving the client blocked on a reply."""
    server = VerifyServer(port=0).start()
    try:
        batch = [_arith(0)] * 3000  # ~240 KiB on the wire
        with VerifyClient(port=server.port) as c:
            response = c.prove_sequents(batch, provers=PROVERS, prover_options=OPTIONS)
        assert response["total"] == 3000
        assert response["proved"] == 3000
        assert response["dedup_replayed"] == 2999
    finally:
        server.stop()


def test_oversized_frame_gets_structured_error_not_a_dropped_connection():
    """A frame beyond ``max_request_bytes`` is drained and answered with a
    structured error, and the *same* connection keeps working."""
    import json as _json
    import socket as _socket

    server = VerifyServer(port=0, max_request_bytes=4096).start()
    try:
        with _socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            f = sock.makefile("rwb")
            # An oversized (but otherwise valid) request frame...
            huge = _json.dumps({"op": "ping", "pad": "x" * 20000}).encode() + b"\n"
            f.write(huge)
            f.flush()
            answer = _json.loads(f.readline())
            assert answer["ok"] is False
            assert "max_request_bytes" in answer["error"]
            # ... does not poison the connection for the next request.
            f.write(_json.dumps({"op": "ping"}).encode() + b"\n")
            f.flush()
            answer = _json.loads(f.readline())
            assert answer == {"ok": True, "pong": True}
        stats_client = VerifyClient(port=server.port)
        stats = stats_client.stats()
        assert stats["max_request_bytes"] == 4096
        assert stats["requests_failed"] >= 1
        stats_client.close()
    finally:
        server.stop()


# -- two daemon processes on one store root -----------------------------------


def test_two_daemon_processes_share_one_store_root(tmp_path):
    """Two real daemon *processes* (``python -m repro.server``) on one
    ``--store-dir`` root: the second daemon answers the first's corpus
    entirely from the shared disk tier, with both daemons alive and
    serving concurrently.  Also pins the CLI bugfix: ``--port 0`` prints
    the actually-bound port (parsed from the banner here), not ``:0``."""
    import os as _os
    import re as _re
    import subprocess as _subprocess
    import sys as _sys

    import repro

    store_dir = str(tmp_path / "shared-store")
    env = dict(_os.environ)
    env["PYTHONPATH"] = str(_os.path.dirname(_os.path.dirname(repro.__file__)))

    def spawn():
        proc = _subprocess.Popen(
            [
                _sys.executable, "-m", "repro.server", "--port", "0",
                "--store-dir", store_dir, "--lanes", "2", "--workers", "1",
            ],
            stdout=_subprocess.PIPE, stderr=_subprocess.STDOUT, text=True, env=env,
        )
        banner = proc.stdout.readline()
        match = _re.search(r"verify daemon on 127\.0\.0\.1:(\d+)", banner)
        assert match, f"unparseable daemon banner: {banner!r}"
        port = int(match.group(1))
        assert port != 0, "--port 0 must print the bound port, not the requested one"
        return proc, port

    batch = _corpus(6)
    first_proc, first_port = spawn()
    second_proc, second_port = spawn()
    try:
        with VerifyClient(port=first_port) as a:
            cold = a.prove_sequents(batch, provers=PROVERS, prover_options=OPTIONS)
            assert cold["proved"] == 6
        with VerifyClient(port=second_port) as b:
            warm = b.prove_sequents(batch, provers=PROVERS, prover_options=OPTIONS)
            assert warm["proved"] == 6
            assert warm["replayed"] == 6  # all from the shared disk tier
            stats = b.stats()
            assert stats["service"]["live_proved"] == 0
            assert stats["store"]["disk_hits"] > 0
            # Cross-process compaction is safe while the other daemon serves.
            compacted = b.compact(max_entries=2)
            assert compacted["disk_entries"] <= 6
        with VerifyClient(port=first_port) as a:
            again = a.prove_sequents(batch, provers=PROVERS, prover_options=OPTIONS)
            assert again["proved"] == 6  # evicted entries re-prove, never tear
    finally:
        for proc, port in ((first_proc, first_port), (second_proc, second_port)):
            try:
                VerifyClient(port=port, connect_retries=2).shutdown()
            except VerifyServiceError:
                pass
            proc.wait(timeout=20)
