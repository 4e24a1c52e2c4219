"""The dispatch entry points the benchmark harness instruments.

``perfbench/cold_run.py::timed_out_origins`` wraps ``Dispatcher.prove_all``
to read every local dispatch's outcomes, and ``perfbench/spans.py`` wraps
both ``Dispatcher.prove_all`` (local dispatch) and
``ParallelDispatcher.prove_all`` (the daemon's farm batches).  Pinned here:

* a local ``verify`` runs exactly one ``Dispatcher.prove_all``, and so does
  a local ``verify_class`` for the whole class: the wrapper sees every
  method's outcomes in one batch;
* a daemon batch runs ``ParallelDispatcher.prove_all`` once and never
  passes through ``Dispatcher.prove_all``, so a farm batch is counted once
  and never mistaken for a local dispatch.
"""

import pytest

from repro import suite, verify, verify_class
from repro.form.parser import parse_formula as parse
from repro.provers.dispatcher import Dispatcher, ParallelDispatcher
from repro.server import VerifyClient, VerifyServer
from repro.vcgen.sequent import sequent

OPTIONS = {"smt": {"timeout": 2.0}}


@pytest.fixture
def calls(monkeypatch):
    """Wrap both entry points; records ``(class name, outcome count)``."""
    seen = []
    for cls in (Dispatcher, ParallelDispatcher):
        original = cls.__dict__["prove_all"]

        def wrapper(self, *args, _original=original, _name=cls.__name__, **kwargs):
            result = _original(self, *args, **kwargs)
            seen.append((_name, len(result.outcomes)))
            return result

        monkeypatch.setattr(cls, "prove_all", wrapper)
    return seen


def test_local_verify_dispatches_once_per_class(calls):
    source = suite.source("SizedList")
    report = verify(source, method="size", class_name="SizedList",
                    provers=["smt"], prover_options=OPTIONS, workers=1)
    assert calls == [("Dispatcher", report.total_sequents)]

    del calls[:]
    report = verify_class(source, class_name="SizedList", methods=["size", "clear"],
                          provers=["smt"], prover_options=OPTIONS, workers=1)
    assert calls == [("Dispatcher", sum(m.total_sequents for m in report.methods))]


def test_daemon_batch_dispatches_through_the_farm_entry_only(calls, tmp_path):
    sequents = [sequent([parse("a < b"), parse("b < c")], parse(f"a < c + {k}"))
                for k in range(3)]
    server = VerifyServer(port=0, store_dir=str(tmp_path / "store")).start()
    try:
        with VerifyClient(port=server.port) as client:
            answer = client.prove_sequents(sequents, provers=["syntactic", "smt"],
                                           prover_options=OPTIONS)
            batches = client.stats()["service"]["batches"]
    finally:
        server.stop()
    assert answer["proved"] == 3
    assert batches == 1
    assert calls == [("ParallelDispatcher", 3)]
