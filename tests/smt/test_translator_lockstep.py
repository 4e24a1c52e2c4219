"""The two HOL-to-FOL term translators encode every suite term identically.

:class:`repro.smt.instantiate._HolToFol` (the E-matcher's term graph) and
:meth:`repro.fol.clausify.Clausifier.term_to_fol` (the SMT prover's theory
check) must agree, or congruence classes silently split between them.  With
one shared :class:`TermBank`, agreement means the very same node.
"""

from repro.fol.clausify import Clausifier
from repro.form import ast as F
from repro.form.intern import TermBank
from repro.form.printer import to_str
from repro.smt.instantiate import _HolToFol


def test_ematcher_and_clausifier_translate_suite_terms_to_the_same_node(suite_sequents):
    bank = TermBank()
    matcher = _HolToFol(bank)
    clausifier = Clausifier(bank=bank)
    checked = 0
    for seq in suite_sequents:
        for formula in (*seq.assumption_formulas(), seq.goal.formula):
            for term in F.subterms(formula):
                translated = matcher.term(term)
                if translated is None:
                    continue  # not a first-order term (a formula, binder, ...)
                assert clausifier.term_to_fol(term, {}) is translated, to_str(term)
                checked += 1
    assert checked >= 30000
