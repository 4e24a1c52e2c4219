"""The bundled data structure suite: sources parse, resolve and yield VCs."""

import pytest

from repro import suite
from repro.java.resolver import parse_program
from repro.vcgen.vcgen import generate_method_vc


def test_suite_lists_the_paper_structures():
    names = set(suite.names())
    assert {
        "AssocList",
        "SpaceSubdivisionTree",
        "SpanningTree",
        "HashTable",
        "BinarySearchTree",
        "PriorityQueue",
        "ArrayList",
        "CircularList",
        "SinglyLinkedList",
        "CursorList",
    } <= names
    assert len(suite.FIGURE15_NAMES) == 10


def test_verify_structure_hands_its_options_to_verify_class(monkeypatch):
    """A row is ``verify_class`` on the structure's source: the chain and
    every other setting come from the caller, none from the suite entry."""
    from repro.core import verifier

    calls = []
    monkeypatch.setattr(verifier, "verify_class",
                        lambda source, **kwargs: calls.append((source, kwargs)))
    suite.verify_structure("sizedlist")
    suite.verify_structure("SizedList", provers=["z3"], workers=1)
    assert calls == [
        (suite.source("SizedList"), {"class_name": "SizedList"}),
        (suite.source("SizedList"), {"class_name": "SizedList", "provers": ["z3"], "workers": 1}),
    ]


def test_entry_lookup_is_case_insensitive():
    assert suite.entry("assoclist").name == "AssocList"
    with pytest.raises(KeyError):
        suite.entry("NoSuchStructure")


@pytest.mark.parametrize("name", suite.names())
def test_sources_parse_and_resolve(name):
    program = parse_program(suite.source(name))
    assert name in program.class_names
    # Every structure declares a public abstract state variable.
    assert program.public_specvars
    # And at least one class invariant.
    assert program.invariants


@pytest.mark.parametrize("name", suite.names())
def test_every_contracted_method_yields_obligations(name):
    program = parse_program(suite.source(name))
    contracted = [
        info for info in program.methods_of(name)
        if info.decl.body is not None and info.decl.contract_text
    ]
    assert contracted, f"{name} has no contracted methods"
    for info in contracted:
        vc = generate_method_vc(program, name, info.decl.name)
        assert vc.total_obligations > 0, f"{name}.{info.decl.name} produced no obligations"


@pytest.mark.parametrize("name", suite.names())
def test_abstract_state_is_ghost_and_public(name):
    program = parse_program(suite.source(name))
    assert set(program.public_specvars) & set(program.ghost_vars) or program.public_specvars


def test_sources_carry_full_functional_contracts():
    # Spot-check that the headline operations state their effect on the
    # abstract state, not just shape properties.
    text = suite.source("SinglyLinkedList")
    assert 'ensures "content = old content Un {x}"' in text
    text = suite.source("AssocList")
    assert "(k0, result) : content" in text
    text = suite.source("SizedList")
    assert 'invariant SizeInv: "size = card content"' in text
