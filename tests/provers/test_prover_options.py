"""Typed prover options: each prover declares its options once, in a frozen
``Options`` dataclass that is checked when built and from which the
verdict-cache signature is derived.

The pinned signatures guard existing verdict stores: a key that changes
byte for byte orphans every verdict stored under it.
"""

from dataclasses import dataclass

import pytest

from repro.form.parser import parse_formula as parse
from repro.provers.base import Prover, ProverAnswer, Seconds, Verdict, registry
from repro.provers.cache import SequentCache
from repro.provers.dispatcher import (
    DEFAULT_ORDER,
    DispatchConfig,
    Dispatcher,
    make_provers,
)
from repro.vcgen.sequent import sequent

_INSTANTIATION = (
    "(max_candidates_per_sort=8,max_instances_per_formula=64,max_triggers=3,"
    "ematch_rounds=12,max_instances_per_quantifier_round=24,max_instances_per_round=100,"
    "max_ematch_instances=2000,max_skolem_generation=2,max_substitution_size=8)"
)

#: ``options_signature()`` of every default prover.
DEFAULT_SIGNATURES = {
    "syntactic": "",
    "smt": (
        f"incremental=True;instantiation={_INSTANTIATION};interning=True;"
        "max_theory_iterations=300;timeout=3.0"
    ),
    "fol": (
        "backward_subsumption=True;interning=True;max_generated=200000;"
        "max_processed=6000;ordering='kbo';selection='negative';strategy='sos';timeout=1.5"
    ),
    "mona": "timeout=2.0;max_states=20000;max_tracks=12;reach=escape-suffix-v1",
    "bapa": "timeout=10.0",
}


def _seq(k=0):
    return sequent([parse(f"p{k}")], parse(f"q{k}"))


# -- the signature ----------------------------------------------------------------


def test_default_signatures_are_pinned_byte_for_byte():
    provers = make_provers(list(DEFAULT_ORDER))
    assert {p.name: p.options_signature() for p in provers} == DEFAULT_SIGNATURES


def test_benchmark_chain_signatures_are_pinned():
    """The benchmark's chain sets ``smt`` 3.0 s and ``fol`` 1.5 s: the
    defaults, given explicitly, key the same entries."""
    smt, fol = make_provers(["smt", "fol"], smt={"timeout": 3.0}, fol={"timeout": 1.5})
    assert smt.options_signature() == DEFAULT_SIGNATURES["smt"]
    assert fol.options_signature() == DEFAULT_SIGNATURES["fol"]


class _Counting(Prover):
    """Proves everything and counts its attempts in an attribute that is
    not an option."""

    name = "counting"

    def __init__(self, **options):
        super().__init__(**options)
        self.calls = 0

    def attempt(self, sequent, deadline=None):
        self.calls += 1
        return ProverAnswer(Verdict.PROVED, self.name)


def test_state_set_during_an_attempt_stays_out_of_the_key():
    prover = _Counting(timeout=2.0)
    before = prover.options_signature()
    assert Dispatcher([prover], SequentCache()).prove_all([_seq()]).proved == 1
    assert prover.calls == 1
    assert prover.options_signature() == before == "timeout=2.0"


class _Patient(Prover):
    name = "patient"

    @dataclass(frozen=True)
    class Options(Prover.Options):
        timeout: Seconds = 30.0
        delay: float = 0.3

    def attempt(self, sequent, deadline=None):
        return ProverAnswer(Verdict.PROVED, self.name)


def test_a_subclass_option_keys_the_cache_and_is_checked():
    assert _Patient().options_signature() == "delay=0.3;timeout=30.0"
    assert _Patient(delay=0.0).options_signature() == "delay=0.0;timeout=30.0"
    with pytest.raises(ValueError, match="^delay must be"):
        _Patient(delay="slow")
    with pytest.raises(TypeError, match="'pace'"):
        _Patient(pace=1.0)


def test_options_are_frozen():
    prover = make_provers(["fol"])[0]
    with pytest.raises(AttributeError):
        prover.options.max_processed = 1


# -- bad values -------------------------------------------------------------------

#: (engine, option, bad value) — each would otherwise build a portfolio that
#: fails inside the engine (or, for ``backward_subsumption``, be coerced).
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


@pytest.mark.parametrize("engine, option, value", BAD_OPTIONS, ids=BAD_IDS)
def test_make_provers_refuses_a_bad_value_naming_the_option(engine, option, value):
    with pytest.raises(ValueError, match=f"^{option} must be"):
        make_provers(["syntactic", engine], **{engine: {option: value}})


@pytest.mark.parametrize("engine", DEFAULT_ORDER)
def test_make_provers_refuses_an_unknown_option_key(engine):
    """Every engine's constructor takes its options only: a key it does not
    declare fails the build, naming the key (the daemon's admission check
    relies on this)."""
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        make_provers([engine], **{engine: {"bogus": 1}})


# -- internal errors are never stored ---------------------------------------------


class _CrashesOnce(Prover):
    """Raises on the first attempt of the process, proves afterwards.  The
    flag lives on the class: every dispatch builds fresh instances."""

    name = "crashes-once"
    crashed = False

    def attempt(self, sequent, deadline=None):
        if not _CrashesOnce.crashed:
            _CrashesOnce.crashed = True
            raise RuntimeError("engine bug")
        return ProverAnswer(Verdict.PROVED, self.name)


class _AlwaysCrashes(Prover):
    name = "always-crashes"

    def attempt(self, sequent, deadline=None):
        raise RuntimeError("engine bug")


@pytest.fixture
def crashing_provers():
    make_provers(["syntactic"])  # populate the default registry first
    _CrashesOnce.crashed = False
    registry.register(_CrashesOnce.name, _CrashesOnce)
    registry.register(_AlwaysCrashes.name, _AlwaysCrashes)
    yield


def test_an_internal_error_is_retried_not_replayed(crashing_provers):
    cache, seq = SequentCache(), _seq()
    first = Dispatcher(make_provers(["crashes-once"]), cache).prove_all([seq])
    (answer,) = first.outcomes[0].answers
    assert answer.detail.startswith("internal error: ") and not answer.storable
    second = Dispatcher(make_provers(["crashes-once"]), cache).prove_all([seq])
    (outcome,) = second.outcomes
    assert outcome.proved and not outcome.answers[-1].cached
    assert second.proved_live == 1


def test_no_executor_stores_an_internal_error(crashing_provers, executor):
    cache, seq = SequentCache(), _seq(1)
    config = DispatchConfig(("always-crashes",), **executor)
    result = Dispatcher(config, cache).prove_all([seq])
    assert result.outcomes[0].answers[0].detail.startswith("internal error: ")
    signature = make_provers(["always-crashes"])[0].options_signature()
    assert cache.lookup(seq, "always-crashes", signature) is None


# -- option keys ------------------------------------------------------------------


def test_options_keyed_by_an_alias_reach_their_engine():
    config = DispatchConfig(("z3", "spass"), prover_options={"z3": {"timeout": 0.5}})
    assert config.prover_options == {"smt": {"timeout": 0.5}}
    smt, fol = config.make_provers()
    assert (smt.timeout, fol.timeout) == (0.5, 1.5)
    assert DispatchConfig(("smt",), {"cvc3": {"timeout": 0.5}}).key() == DispatchConfig(
        ("smt",), {"smt": {"timeout": 0.5}}
    ).key()
    assert make_provers(["smt"], z3={"timeout": 0.5})[0].timeout == 0.5


def test_two_option_sets_for_one_engine_are_refused():
    with pytest.raises(ValueError, match="two option sets for one prover in \\['smt', 'z3'\\]"):
        DispatchConfig(("smt",), {"z3": {"timeout": 0.5}, "smt": {"timeout": 1.0}})


def test_options_for_engines_outside_the_chain_are_ignored():
    """One shared options dict serves chains with and without ``fol``."""
    (smt,) = DispatchConfig(("smt",), {"fol": {"max_processed": 10}}).make_provers()
    assert smt.name == "smt"
