"""Soundness of the finite-countermodel check behind the ``REFUTED`` verdict.

A ``REFUTED`` answer ends the prover chain, so a wrong one would hide a
provable sequent for good.  These tests pin that it never happens:

* the evaluator agrees with an independent brute-force evaluation on
  generated formulas, and the finder refutes exactly the formulas that
  brute force can falsify in its scope;
* called directly, without an SMT seed, the finder refutes no suite
  sequent that the prover portfolio proves;
* it refutes the invalid controls and the seven suite sequents that are
  invalid as written, each with a printed countermodel;
* through the SMT prover and the dispatcher, ``REFUTED`` stops the chain,
  is cached and replays as a settled verdict.
"""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import suite
from repro.form import ast as F
from repro.form.parser import parse_formula as parse
from repro.java.resolver import parse_program
from repro.provers.base import Verdict
from repro.provers.cache import SequentCache
from repro.provers.countermodel import INT_WINDOW, find_countermodel
from repro.provers.dispatcher import Dispatcher, make_provers
from repro.smt.prover import SmtProver
from repro.vcgen.sequent import sequent
from repro.vcgen.vcgen import generate_method_vc

# -- the evaluator against brute force ----------------------------------------

#: The generated formulas' vocabulary: objects ``a``, ``b``, a field ``f``,
#: an object set ``S`` and an integer ``c``.  With ``null`` plus one object
#: there are 2 * 2 * 4 * 4 * len(INT_WINDOW) interpretations.
OBJECTS = (0, 1)


def _interpretations():
    for a, b, c in itertools.product(OBJECTS, OBJECTS, INT_WINDOW):
        for f in itertools.product(OBJECTS, repeat=len(OBJECTS)):
            for bits in itertools.product((False, True), repeat=len(OBJECTS)):
                yield {"a": a, "b": b, "c": c, "f": f,
                       "S": frozenset(o for o, bit in zip(OBJECTS, bits) if bit)}


def _reference(term, model, env):
    """A direct, eager evaluator: the brute-force side of the comparison."""
    if isinstance(term, F.Var):
        if term.name in env:
            return env[term.name]
        if term.name == "null":
            return 0
        if term.name == "emptyset":
            return frozenset()
        return model[term.name]
    if isinstance(term, F.IntLit):
        return term.value
    if isinstance(term, F.Not):
        return not _reference(term.arg, model, env)
    if isinstance(term, F.And):
        return all(_reference(a, model, env) for a in term.args)
    if isinstance(term, F.Or):
        return any(_reference(a, model, env) for a in term.args)
    if isinstance(term, F.Implies):
        return (not _reference(term.lhs, model, env)) or _reference(term.rhs, model, env)
    if isinstance(term, F.Eq):
        return _reference(term.lhs, model, env) == _reference(term.rhs, model, env)
    if isinstance(term, F.Quant):
        ((name, _),) = term.params
        values = (_reference(term.body, model, {**env, name: o}) for o in OBJECTS)
        return all(values) if term.kind == "ALL" else any(values)
    assert isinstance(term, F.App) and isinstance(term.func, F.Var), term
    args = [_reference(a, model, env) for a in term.args]
    name = term.func.name
    if name == "f":
        return model["f"][args[0]]
    ops = {
        "elem": lambda x, s: x in s,
        "insert": lambda x, s: s | {x},
        "union": lambda s, t: s | t,
        "inter": lambda s, t: s & t,
        "setdiff": lambda s, t: s - t,
        "subseteq": lambda s, t: s <= t,
        "card": len,
        "plus": lambda x, y: x + y,
        "lt": lambda x, y: x < y,
        "lte": lambda x, y: x <= y,
    }
    return ops[name](*args)


_objects = st.deferred(lambda: st.one_of(
    st.sampled_from([F.NULL, F.Var("a"), F.Var("b")]),
    _objects.map(lambda t: F.app("f", t)),
))
_sets = st.deferred(lambda: st.one_of(
    st.sampled_from([F.Var("S"), F.EMPTYSET]),
    st.tuples(_objects, _sets).map(lambda p: F.app("insert", *p)),
    st.tuples(st.sampled_from(["union", "inter", "setdiff"]), _sets, _sets).map(
        lambda p: F.app(p[0], p[1], p[2])),
))
_ints = st.one_of(
    st.sampled_from([F.Var("c"), F.IntLit(0), F.IntLit(2)]),
    _sets.map(lambda s: F.app("card", s)),
).flatmap(lambda t: st.one_of(st.just(t), st.just(F.app("plus", t, F.Var("c")))))
_atoms = st.one_of(
    st.tuples(_objects, _objects).map(lambda p: F.Eq(*p)),
    st.tuples(_objects, _sets).map(lambda p: F.app("elem", *p)),
    st.tuples(_sets, _sets).map(lambda p: F.app("subseteq", *p)),
    st.tuples(st.sampled_from(["lt", "lte"]), _ints, _ints).map(
        lambda p: F.app(p[0], p[1], p[2])),
    st.tuples(_sets, _sets).map(lambda p: F.Eq(*p)),
    # One bound object variable, used through the field.
    st.tuples(st.sampled_from(["ALL", "EX"]), _sets).map(lambda p: F.Quant(
        p[0], (("x", None),), F.Implies(F.app("elem", F.Var("x"), p[1]),
                                         F.Eq(F.app("f", F.Var("x")), F.Var("a"))))),
)
_formulas = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        inner.map(F.Not),
        st.lists(inner, min_size=2, max_size=3).map(lambda xs: F.And(tuple(xs))),
        st.lists(inner, min_size=2, max_size=3).map(lambda xs: F.Or(tuple(xs))),
        st.tuples(inner, inner).map(lambda p: F.Implies(*p)),
    ),
    max_leaves=6,
)


def _typed(formula):
    """Pin the vocabulary's types: ``S``/``c``/``f`` may not occur at all."""
    anchors = F.And((
        F.app("elem", F.app("f", F.Var("a")), F.Var("S")),
        F.app("lte", F.Var("c"), F.Var("c")),
        F.Eq(F.Var("b"), F.Var("b")),
    ))
    return anchors, formula


@given(_formulas)
@settings(max_examples=80, deadline=None)
def test_finder_refutes_exactly_what_brute_force_falsifies(formula):
    anchors, goal = _typed(formula)
    # ``anchors`` holds in the interpretations where f a : S; the finder
    # sees the same restriction as an assumption.
    falsifiers = [
        model for model in _interpretations()
        if _reference(anchors, model, {}) and not _reference(goal, model, {})
    ]
    found = find_countermodel(sequent([anchors], goal))
    if falsifiers:
        assert found is not None, F.Not(goal)
        assert found.objects == 1  # the smallest scope is tried first
    if found is not None and found.objects == 1:
        cells = dict(found.cells)
        model = {
            "a": cells.get(("a", ()), 0), "b": cells.get(("b", ()), 0),
            "c": cells.get(("c", ()), 0),
            "f": tuple(cells.get(("f", (o,)), 0) for o in OBJECTS),
            "S": frozenset(o for o in OBJECTS if cells.get(("S", (o,)), False)),
        }
        assert model in falsifiers


@given(_formulas)
@settings(max_examples=50, deadline=None)
def test_evaluator_agrees_with_brute_force_in_every_interpretation(formula):
    from repro.form.typecheck import check_formulas
    from repro.provers.countermodel import _Compiler, _State

    anchors, goal = _typed(formula)
    annotated, signature = check_formulas([anchors, goal])
    fn = _Compiler(signature).formula(annotated[1])
    for model in _interpretations():
        state = _State(k=1, complete=True)
        state.cells.update({("a", ()): model["a"], ("b", ()): model["b"],
                            ("c", ()): model["c"]})
        state.cells.update({("f", (o,)): model["f"][o] for o in OBJECTS})
        state.cells.update({("S", (o,)): o in model["S"] for o in OBJECTS})
        assert fn(state, {}) == _reference(goal, model, {}), (goal, model)


def test_evaluator_does_not_guess_integer_quantifiers_or_negative_division():
    undecidable = [
        "ALL (i :: int). i < i + 1",
        "0 <= (c - 3) div 2",
        "(c - 3) mod 2 = 1",
    ]
    for text in undecidable:
        assert find_countermodel(sequent([parse("c = 0")], parse(f"~({text})"))) is None
    # Non-negative operands are exact: 3 div 2 = 1 refutes "3 div 2 = 2".
    found = find_countermodel(sequent([parse("c = 3")], parse("c div 2 = 2")))
    assert found is not None and "c=3" in found.describe()


# -- the bundled suite ---------------------------------------------------------

#: The suite sequents no prover proves (``(structure, method, origin)`` ->
#: indices among that origin's sequents, in VC order).  The first
#: ``PriorityQueue.insert`` null-check (``heap ~= null``) proves; the two
#: array-read null-checks after it do not.
OPEN = {
    ("HashTable", "put", "inv-exit:SizeInv"): {0},
    ("HashTable", "put", "inv-exit:ContentStored"): {0},
    ("PriorityQueue", "insert", "array-lower-bound"): {1},
    ("PriorityQueue", "insert", "array-upper-bound"): {1},
    ("PriorityQueue", "insert", "null-check"): {1, 2},
    ("PriorityQueue", "insert", "inv-exit:SizeInv"): {0, 1},
    ("PriorityQueue", "insert", "loop-inv-preserved:loopinv1"): {0},
    ("ArrayList", "add", "inv-exit:SizeInv"): {0},
    ("SinglyLinkedList", "member", "loop-inv-initial:loopinv1"): {0},
    ("SinglyLinkedList", "member", "loop-inv-preserved:loopinv1"): {0},
    ("SinglyLinkedList", "member", "Found"): {0},
    ("CursorList", "next", "inv-exit:DoneInv"): {0},
    ("CursorList", "next", "inv-exit:CurrentData"): {0},
}

#: The sequents that are invalid as written: each must be refuted.
TARGETS = [
    ("CursorList", "next", "inv-exit:DoneInv", 0),
    ("CursorList", "next", "inv-exit:CurrentData", 0),
    ("SinglyLinkedList", "member", "loop-inv-initial:loopinv1", 0),
    ("SinglyLinkedList", "member", "loop-inv-preserved:loopinv1", 0),
    ("SinglyLinkedList", "member", "Found", 0),
    ("PriorityQueue", "insert", "null-check", 1),
    ("PriorityQueue", "insert", "null-check", 2),
]


def _suite_sequents():
    """(structure, method, origin, index, sequent) over the Figure 15 suite."""
    for name in suite.FIGURE15_NAMES:
        program = parse_program(suite.source(name))
        for info in program.methods_of(name):
            if info.decl.body is None or not info.decl.contract_text:
                continue
            seen = {}
            for seq in generate_method_vc(program, name, info.decl.name).sequents:
                origin = seq.origin.split(":", 1)[1]
                index = seen.get(origin, 0)
                seen[origin] = index + 1
                yield name, info.decl.name, origin, index, seq


def test_finder_refutes_no_suite_sequent_a_prover_proves():
    started = time.perf_counter()
    checked = 0
    for name, method, origin, index, seq in _suite_sequents():
        if index in OPEN.get((name, method, origin), ()):
            continue
        found = find_countermodel(seq)
        assert found is None, f"{seq.origin} #{index} refuted: {found.describe()}"
        checked += 1
    assert checked == 199
    assert time.perf_counter() - started < 20.0


def _target(name, method, origin, index):
    for entry in _suite_sequents():
        if entry[:4] == (name, method, origin, index):
            return entry[4]
    raise LookupError((name, method, origin, index))


@pytest.mark.parametrize("key", TARGETS, ids=lambda k: f"{k[0]}.{k[1]}:{k[2]}#{k[3]}")
def test_finder_refutes_the_sequents_invalid_as_written(key):
    found = find_countermodel(_target(*key))
    assert found is not None
    text = found.describe()
    print(f"{key[0]}.{key[1]}:{key[2]}#{key[3]}: {text}")
    assert text.startswith("countermodel (null + ")


def test_typing_goal_countermodel_names_the_missing_axiom():
    """``first : Node`` fails because nothing says a non-null ``first`` is a
    ``Node`` — the countermodel shows ``first`` outside ``Node``."""
    text = find_countermodel(
        _target("SinglyLinkedList", "member", "loop-inv-initial:loopinv1", 0)
    ).describe()
    assert "Node={}" in text and "first=o1" in text


#: The benchmark's invalid controls (copied: each is "not proved" by design).
CONTROLS = (
    (("ALL x. EX y. f y = x", "a ~= b"), "p (f a)"),
    (("a < b",), "b < a"),
    (("x < y", "y < x + 2"), "x = y"),
    (("x : S", "S Int T = {}"), "x : T"),
    (("ALL x. p x --> q x", "p a"), "q b"),
)


@pytest.mark.parametrize("control", CONTROLS, ids=lambda c: c[1])
def test_finder_refutes_the_invalid_controls(control):
    assumptions, goal = control
    assert find_countermodel(sequent([parse(a) for a in assumptions], parse(goal)))


# -- through SMT and the dispatcher --------------------------------------------


def test_smt_answers_refuted_with_the_countermodel():
    answer = SmtProver(timeout=3.0).prove(
        _target("CursorList", "next", "inv-exit:DoneInv", 0)
    )
    assert answer.verdict is Verdict.REFUTED
    assert answer.detail.startswith("countermodel (null + ")
    assert not answer.proved and answer.settles
    assert "countermodel" in answer.phases


def test_refuted_stops_the_chain_and_replays_from_the_cache():
    seq = sequent([parse("a < b")], parse("b < a"))
    cache = SequentCache()
    dispatcher = Dispatcher(make_provers(["smt", "fol", "bapa"]), cache=cache)
    cold = dispatcher.prove_all([seq])
    (outcome,) = cold.outcomes
    assert [a.prover for a in outcome.answers] == ["smt"]
    assert not outcome.proved and outcome.settled and outcome.prover == "smt"
    assert outcome.countermodel.startswith("countermodel (null + ")
    assert "fol" not in cold.stats and "bapa" not in cold.stats

    warm = Dispatcher(make_provers(["smt", "fol", "bapa"]), cache=cache).prove_all([seq])
    (replay,) = warm.outcomes
    assert [(a.prover, a.verdict, a.cached) for a in replay.answers] == [
        ("smt", Verdict.REFUTED, True)
    ]
    assert replay.countermodel == outcome.countermodel
    assert warm.cache_stats.hits == 1 and warm.stats == {}


def test_a_refutation_does_not_demote_the_refuting_prover():
    seq = sequent([parse("a < b")], parse("b < a"))
    dispatcher = Dispatcher(make_provers(["smt", "fol"]))
    dispatcher.prove_all([seq])
    (bucket,) = dispatcher.ordering.snapshot().values()
    assert bucket["smt"]["proved"] == 1
