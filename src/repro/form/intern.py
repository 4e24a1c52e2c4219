"""Hash-consing of terms: one canonical object per distinct term, per run.

The hot paths of every prover — substitution during E-matching, congruence
closure, clausification, printing — are dominated by recomputing structural
facts (hashes, printed forms, normal forms) of terms that are structurally
identical but freshly rebuilt.  A :class:`TermBank` makes structurally
identical terms *pointer-identical* within one prover run, which buys:

* ``O(1)`` equality on the interned path (``is`` instead of a recursive
  walk), and one hash computation per distinct term ever;
* sound memoisation *by object identity* for the pure per-term functions —
  printing, simplification, negation normal form — because an interned
  subterm shared by a thousand quantifier instances is literally the same
  object in each of them.

Lifecycle: a bank is created per prover attempt and threaded through
clausify/translate/congruence/instantiate — deliberately **not** a module
global.  The verify daemon keeps prover processes alive across requests; a
global intern table would accrete every term of every request ever seen
(unbounded memory, cross-request retention).  A per-run bank dies with the
attempt, so two requests never share one (pinned by
``tests/form/test_interning.py``).

Two term representations are covered: the HOL AST of :mod:`repro.form.ast`
(interned by :meth:`TermBank.intern`, keyed on child *identities* since
interned children make that sound) and the FOL applications of
:mod:`repro.fol.terms` (:meth:`TermBank.fapp`, keyed structurally — cheap
because FOL nodes cache their hashes and interned children compare by
identity).

Identity-keyed caches pin their key object in the cache entry (a
``(node, value)`` pair checked with ``is``): Python reuses ids after
garbage collection, so a bare ``id -> value`` mapping could silently return
a stale value for a different term.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from . import ast as F
from .ast import Term
from ..fol.terms import FApp, FTerm


class TermBank:
    """Per-run hash-consing tables and identity-keyed memo caches."""

    def __init__(self) -> None:
        # HOL side: key -> canonical node; keys embed child ids, sound
        # because every canonical child is itself pinned in _canonical.
        self._hol: Dict[tuple, Term] = {}
        self._canonical: Dict[int, Term] = {}
        # FOL side: structural keys (cached hashes make them cheap).
        self._fapps: Dict[Tuple[str, Tuple[FTerm, ...]], FApp] = {}
        # Identity-keyed memo caches ((node, value) pinned entries).
        self._printed: Dict[int, Tuple[Term, str]] = {}
        self._simplify_memo: Dict[int, Tuple[Term, Term]] = {}
        self._nnf_memo: Dict[Tuple[int, bool], Tuple[Term, Term]] = {}
        self._normal_memo: Dict[int, Tuple[Term, Term]] = {}

    # ------------------------------------------------------------------
    # HOL interning
    # ------------------------------------------------------------------

    def is_interned(self, term: Term) -> bool:
        return self._canonical.get(id(term)) is term

    def intern(self, term: Term) -> Term:
        """The canonical object for ``term`` (interning it if new).

        Observationally the identity function: the result is structurally
        equal to the input (same printed form, same verdicts downstream);
        only object identity is normalised.
        """
        if self._canonical.get(id(term)) is term:
            return term
        if isinstance(term, F.Var):
            key: tuple = ("v", term.name)
            rebuilt = term
        elif isinstance(term, F.IntLit):
            key = ("i", term.value)
            rebuilt = term
        elif isinstance(term, F.BoolLit):
            key = ("b", term.value)
            rebuilt = term
        elif isinstance(term, F.App):
            func = self.intern(term.func)
            args = tuple(self.intern(a) for a in term.args)
            key = ("a", id(func), tuple(id(a) for a in args))
            rebuilt = (
                term
                if func is term.func and _all_same(args, term.args)
                else F.App(func, args)
            )
        elif isinstance(term, (F.Lambda, F.Quant, F.SetCompr)):
            body = self.intern(term.body)
            if isinstance(term, F.Quant):
                key = ("q", term.kind, term.params, id(body))
            elif isinstance(term, F.Lambda):
                key = ("l", term.params, id(body))
            else:
                key = ("s", term.params, id(body))
            rebuilt = term if body is term.body else _with_body(term, body)
        elif isinstance(term, F.TupleTerm):
            items = tuple(self.intern(i) for i in term.items)
            key = ("t", tuple(id(i) for i in items))
            rebuilt = term if _all_same(items, term.items) else F.TupleTerm(items)
        elif isinstance(term, F.Old):
            inner = self.intern(term.term)
            key = ("o", id(inner))
            rebuilt = term if inner is term.term else F.Old(inner)
        elif isinstance(term, F.Not):
            inner = self.intern(term.arg)
            key = ("n", id(inner))
            rebuilt = term if inner is term.arg else F.Not(inner)
        elif isinstance(term, (F.And, F.Or)):
            args = tuple(self.intern(a) for a in term.args)
            tag = "&" if isinstance(term, F.And) else "|"
            key = (tag, tuple(id(a) for a in args))
            rebuilt = (
                term if _all_same(args, term.args) else type(term)(args)
            )
        elif isinstance(term, (F.Implies, F.Iff, F.Eq)):
            lhs = self.intern(term.lhs)
            rhs = self.intern(term.rhs)
            tag = {F.Implies: ">", F.Iff: "=", F.Eq: "e"}[type(term)]
            key = (tag, id(lhs), id(rhs))
            rebuilt = (
                term
                if lhs is term.lhs and rhs is term.rhs
                else type(term)(lhs, rhs)
            )
        elif isinstance(term, F.Ite):
            cond = self.intern(term.cond)
            then = self.intern(term.then)
            els = self.intern(term.els)
            key = ("?", id(cond), id(then), id(els))
            rebuilt = (
                term
                if cond is term.cond and then is term.then and els is term.els
                else F.Ite(cond, then, els)
            )
        else:
            raise TypeError(f"unknown term node {term!r}")
        canonical = self._hol.get(key)
        if canonical is None:
            canonical = rebuilt
            self._hol[key] = canonical
            self._canonical[id(canonical)] = canonical
        return canonical

    # ------------------------------------------------------------------
    # memoised per-term functions (sound under interning: pure functions
    # keyed by the identity of their — ideally interned — argument)
    # ------------------------------------------------------------------

    def printed(self, term: Term) -> str:
        """``printer.to_str`` memoised by node identity."""
        entry = self._printed.get(id(term))
        if entry is not None and entry[0] is term:
            return entry[1]
        from .printer import to_str

        text = to_str(term)
        self._printed[id(term)] = (term, text)
        return text

    def simplify(self, term: Term) -> Term:
        """:func:`repro.form.rewrite.simplify` with the bank's shared memo."""
        from .rewrite import simplify

        return simplify(term, memo=self._simplify_memo)

    def nnf(self, term: Term, positive: bool = True) -> Term:
        """:func:`repro.form.rewrite.nnf` with the bank's shared memo."""
        from .rewrite import nnf

        return nnf(term, positive, memo=self._nnf_memo)

    def normalised(self, term: Term) -> Term:
        """``simplify(nnf(term))`` — the E-matcher's per-instance normal form,
        memoised end-to-end and interned so downstream caches can hit."""
        entry = self._normal_memo.get(id(term))
        if entry is not None and entry[0] is term:
            return entry[1]
        result = self.intern(self.simplify(self.nnf(term)))
        self._normal_memo[id(term)] = (term, result)
        return result

    # ------------------------------------------------------------------
    # FOL interning
    # ------------------------------------------------------------------

    def fapp(self, func: str, args: Iterable[FTerm] = ()) -> FApp:
        args = tuple(args)
        key = (func, args)
        t = self._fapps.get(key)
        if t is None:
            t = FApp(func, args)
            self._fapps[key] = t
        return t


def _all_same(new: Tuple, old: Tuple) -> bool:
    return len(new) == len(old) and all(a is b for a, b in zip(new, old))


def _with_body(term: Term, body: Term) -> Term:
    if isinstance(term, F.Quant):
        return F.Quant(term.kind, term.params, body)
    if isinstance(term, F.Lambda):
        return F.Lambda(term.params, body)
    return F.SetCompr(term.params, body)
