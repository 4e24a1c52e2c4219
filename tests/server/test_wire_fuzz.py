"""Seeded wire-protocol fuzzer for the verify daemon.

About 300 seeded mutations of valid request frames — truncated JSON,
non-object JSON, unknown ops, fields of the wrong type and malformed
sequents — go to a daemon whose store is warm, over one connection.  Every
frame must get a valid answer, or ``ok: false`` with an error that does not
start with a Python exception name (a leaked ``KeyError: 'goal'`` tells the
client nothing about its request).  Afterwards the daemon still answers
``ping`` and has proved no digest live twice.
"""

import json
import random
import socket

import pytest

from repro import suite
from repro.form.parser import parse_formula as parse
from repro.server import VerifyClient, VerifyServer
from repro.server.wire import sequents_to_wire
from repro.vcgen.sequent import sequent

SEED = 24
MUTANTS = 300

SETTINGS = {
    "provers": ["syntactic", "smt"],
    "prover_options": {"smt": {"timeout": 0.5}},
    "sequent_budget": 1.0,
}

#: Values of every JSON type; a field is replaced by one of another type.
ODD_VALUES = [5, -1, 2.5, float("nan"), "x", "", None, True, False, [], [1], ["x"],
              {}, {"k": 1}]


def _retyped(rng, value):
    """A value of another JSON type than ``value`` (a wrong type, not merely
    a wrong value: source text that does not parse is the frontends' part)."""
    return rng.choice([odd for odd in ODD_VALUES if type(odd) is not type(value)])


def _valid_frames():
    seqs = [
        sequent([parse("a < b"), parse("b < c")], parse("a < c + 1")),
        sequent([parse("P x")], parse("P x")),
    ]
    source = suite.source("SizedList")
    return [
        {"op": "ping"},
        {"op": "stats"},
        {"op": "prove_sequents", "sequents": sequents_to_wire(seqs), **SETTINGS},
        {"op": "verify_method", "source": source, "class_name": "SizedList",
         "method": "size", **SETTINGS},
        {"op": "verify_class", "source": source, "class_name": "SizedList",
         "methods": ["size"], **SETTINGS},
    ]


def _exception_names():
    names, stack = set(), [BaseException]
    while stack:
        cls = stack.pop()
        names.add(cls.__name__)
        stack.extend(cls.__subclasses__())
    return names


def _mutate_text(rng, text):
    position = rng.randrange(len(text) + 1)
    if text and rng.random() < 0.5:
        return text[:position] + text[position + 1:]
    return text[:position] + rng.choice("()<>=&|~:.,%!ALLEX 0aQ") + text[position:]


def _malformed_sequent(rng, frame):
    """One sequent of a ``prove_sequents`` frame broken at one field."""
    target = rng.choice(frame["sequents"])
    kind = rng.randrange(6)
    if kind == 0:
        index = rng.randrange(len(frame["sequents"]))
        frame["sequents"][index] = _retyped(rng, {})
    elif kind == 1:
        key = rng.choice(["goal", "assumptions", "hints", "origin"])
        if rng.random() < 0.5:
            target.pop(key, None)
        else:
            target[key] = _retyped(rng, target.get(key))
    else:
        labeled = target["goal"]
        if target["assumptions"] and rng.random() < 0.5:
            labeled = rng.choice(target["assumptions"])
        key = rng.choice(["formula", "formula", "labels"])
        if kind == 2:
            labeled.pop(key, None)
        elif kind == 3:
            labeled[key] = _retyped(rng, labeled.get(key))
        else:
            labeled["formula"] = _mutate_text(rng, labeled["formula"])
    return json.dumps(frame)


def _mutants(rng):
    """``MUTANTS`` frames, each family about a fifth of them."""
    valid = _valid_frames()
    prove = next(frame for frame in valid if frame["op"] == "prove_sequents")
    for _ in range(MUTANTS):
        kind = rng.randrange(5)
        frame = json.loads(json.dumps(prove if kind == 4 else rng.choice(valid)))
        if kind == 0:  # truncated JSON
            text = json.dumps(frame)
            yield text[: rng.randrange(1, len(text))]
        elif kind == 1:  # valid JSON, but not an object
            yield json.dumps(rng.choice([[1, 2], [frame], 5, "ping", None, True, 1.5]))
        elif kind == 2:  # unknown op
            frame["op"] = rng.choice(["nope", "", "PING", "prove", 5, None, ["ping"], {}])
            yield json.dumps(frame)
        elif kind == 3:  # a field retyped
            key = rng.choice(sorted(set(frame) - {"op"}) or ["id"])
            frame[key] = _retyped(rng, frame.get(key))
            yield json.dumps(frame)
        else:
            yield _malformed_sequent(rng, frame)


@pytest.fixture
def warm_daemon():
    server = VerifyServer(port=0, workers=1).start()
    with VerifyClient(port=server.port) as client:
        for frame in _valid_frames():
            op = frame.pop("op")
            assert client.call(op, **frame)["ok"]
    yield server
    server.stop()


def test_mutated_frames_never_leak_python_exceptions(warm_daemon):
    leaked_names = _exception_names()
    bad = []
    with socket.create_connection(("127.0.0.1", warm_daemon.port), timeout=60) as sock:
        stream = sock.makefile("rwb")
        for text in _mutants(random.Random(SEED)):
            stream.write(text.encode() + b"\n")
            stream.flush()
            answer = json.loads(stream.readline())
            if answer.get("ok") is True:
                continue
            error = answer.get("error")
            if (answer.get("ok") is not False or not isinstance(error, str)
                    or error.split(":", 1)[0].strip() in leaked_names):
                bad.append(f"{text[:120]!r} -> {answer!r:.200}")
    assert not bad, f"{len(bad)} bad answers, e.g. " + "\n".join(bad[:5])
    with VerifyClient(port=warm_daemon.port) as client:
        assert client.ping()
        assert client.stats()["service"]["live_reproofs"] == 0
