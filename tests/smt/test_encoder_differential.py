"""The single HOL-to-FOL encoder against the E-matcher's retired translator.

:func:`repro.fol.clausify.term_to_fol` is the only term encoding: the
clausifier, the SMT prover's theory check and the E-matcher's term graph
all use it.  The E-matcher used to carry its own translator, kept below as
the reference: on every suite term (and every inferred trigger pattern) it
translates, the engine must build the very same node, and the engine's
back-map must hold the same HOL preimage for every node.
"""

from typing import Dict, Optional, Set

from repro.fol.clausify import term_to_fol
from repro.fol.terms import FTerm, FVar
from repro.form import ast as F
from repro.form.intern import TermBank
from repro.form.parser import parse_formula
from repro.form.printer import to_str
from repro.form.subst import free_vars
from repro.smt.instantiate import EMatchEngine, InstantiationConfig, infer_triggers


class _RetiredHolToFol:
    """The E-matcher's former translator, verbatim apart from names:
    ground terms to interned FOL nodes, bound names to FOL variables,
    ``None`` for non-terms and applications of bound names; a back-map of
    every ground node to its first HOL preimage."""

    def __init__(self, bank: TermBank) -> None:
        self.backmap: Dict[FTerm, F.Term] = {}
        self._bank = bank

    def term(self, node: F.Term, bound: Optional[Set[str]] = None) -> Optional[FTerm]:
        return self._term(node, bound or set())

    def _term(self, node: F.Term, bound: Set[str]) -> Optional[FTerm]:
        if isinstance(node, F.Var):
            if node.name in bound:
                return FVar(node.name)
            out = self._bank.fapp(node.name)
            self.backmap.setdefault(out, node)
            return out
        if isinstance(node, F.IntLit):
            out = self._bank.fapp(f"$int_{node.value}")
            self.backmap.setdefault(out, node)
            return out
        if isinstance(node, F.BoolLit):
            out = self._bank.fapp("$true" if node.value else "$false")
            self.backmap.setdefault(out, node)
            return out
        if isinstance(node, F.TupleTerm):
            items = [self._term(item, bound) for item in node.items]
            if any(item is None for item in items):
                return None
            out = self._bank.fapp("$pair", items)
            if not free_vars(node) & bound:
                self.backmap.setdefault(out, node)
            return out
        if isinstance(node, F.App):
            head = node.func
            args = list(node.args)
            while isinstance(head, F.App):
                args = list(head.args) + args
                head = head.func
            if not isinstance(head, F.Var) or head.name in bound:
                return None
            translated = [self._term(a, bound) for a in args]
            if any(t is None for t in translated):
                return None
            out = self._bank.fapp(head.name, translated)
            if not free_vars(node) & bound:
                self.backmap.setdefault(out, node)
            return out
        return None


def test_single_encoder_matches_the_retired_ematcher_translator(suite_sequents):
    config = InstantiationConfig()
    ground = patterns = 0
    for seq in suite_sequents:
        bank = TermBank()
        reference = _RetiredHolToFol(bank)
        engine = EMatchEngine([], bank=bank)
        for formula in (*seq.assumption_formulas(), seq.goal.formula):
            for term in F.subterms(formula):
                expected = reference.term(term)
                assert engine.translate(term) is expected, to_str(term)
                if expected is None:
                    continue
                assert term_to_fol(term, {}, bank.fapp) is expected, to_str(term)
                ground += 1
            for quantifier in F.subterms(formula):
                if not (isinstance(quantifier, F.Quant) and quantifier.kind == "ALL"):
                    continue
                bound = {name for name, _ in quantifier.params}
                for trigger in infer_triggers(quantifier, config):
                    for pattern in trigger.patterns:
                        expected = reference.term(pattern, bound)
                        assert engine.translate(pattern, bound) == expected, to_str(pattern)
                        patterns += expected is not None
        assert engine.backmap.keys() == reference.backmap.keys()
        for node, hol in reference.backmap.items():
            assert engine.backmap[node] is hol, str(node)
    assert ground >= 30000
    assert patterns >= 500


EDGE_TERMS = [
    # (term, bound names): applications of bound names, curried heads,
    # tuples over bound variables, and non-terms the engine must skip.
    ("f (P x) x", {"P", "x"}),
    ("P x", {"P", "x"}),
    ("g (f a) (P a)", {"P"}),
    ("(f a) b", set()),
    ("h (x, a) 3 True", {"x"}),
    ("(x, (a, b))", {"x"}),
    ("f (% y. y) a", set()),
    ("f (a = b) c", set()),
    ("f (if a = b then c else d)", set()),
    ("f (old x)", set()),
]


def test_single_encoder_matches_the_retired_translator_on_edge_terms():
    bank = TermBank()
    reference = _RetiredHolToFol(bank)
    engine = EMatchEngine([], bank=bank)
    for text, bound in EDGE_TERMS:
        for term in F.subterms(parse_formula(text)):
            expected = reference.term(term, bound)
            assert engine.translate(term, bound) == expected, (text, to_str(term))
    assert engine.backmap.keys() == reference.backmap.keys()
    for node, hol in reference.backmap.items():
        assert engine.backmap[node] is hol, str(node)
