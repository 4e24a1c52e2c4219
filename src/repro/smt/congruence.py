"""Congruence closure over ground first-order terms (the EUF theory solver).

This is the classic union-find based algorithm: ground terms are interned
into a DAG, asserted equalities merge equivalence classes, and congruence
(``a1 = b1, ..., an = bn  implies  f(a..) = f(b..)``) is propagated to a fixed
point.  Asserted disequalities are then checked against the final classes.

Predicate atoms are handled by the standard reification trick: ``p(t)`` is
treated as the term equation ``p(t) = $tt`` and ``~p(t)`` as ``p(t) = $ff``
with the additional global disequality ``$tt != $ff``.

Beyond the yes/no check, the closure is *proof-producing* (the
Nieuwenhuis–Oliveras proof-forest construction): every union records why it
happened — an input equation (tagged by the caller) or a congruence step —
and :meth:`CongruenceClosure.conflict_explanation` walks the forest to
return the exact set of input tags responsible for a violated disequality.
The SMT prover's DPLL(T) loop turns that set into a minimal blocking
clause in one closure run, instead of minimizing by repeated subset
re-checks.  The closure also exposes its term graph (applications by head
symbol, equivalence-class members) — the structure the E-matching
instantiation engine matches trigger patterns against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..fol.terms import FApp, FTerm

#: Why two terms were merged: an input equation (carrying the caller's tag)
#: or a congruence step between two applications (by id).
_Reason = Tuple  # ("input", tag) | ("congruence", int, int)


class CongruenceClosure:
    """Congruence closure over interned integer ids (rebuilt per check,
    which is fine for the sequent sizes produced by splitting).

    :meth:`intern` gives each distinct term an int id in first-seen
    (pre-order) order; the union-find parent pointers are a ``List[int]``
    and :meth:`close` keys its signature table on ``(head, root ids)``, so
    the fixed-point loop hashes small tuples of ints instead of walking
    terms.  The public queries still speak terms: :meth:`find` returns the
    stored (first-interned) term of a class root, and
    :meth:`members_by_class` lists members in interning order.
    """

    def __init__(self) -> None:
        #: term -> id, and the inverse: the stored term of every id.
        self._ids: Dict[FTerm, int] = {}
        self._terms: List[FTerm] = []
        #: Argument ids of every interned term (empty for constants).
        self._args: List[Tuple[int, ...]] = []
        self._parent: List[int] = []
        #: ``(id, head, argument ids)`` of every non-constant application,
        #: in post-order (arguments before the application).
        self._subterms: List[Tuple[int, str, Tuple[int, ...]]] = []
        self._equalities: List[Tuple[int, int, object]] = []
        self._disequalities: List[Tuple[int, int, object]] = []
        #: Interned applications grouped by ``(head symbol, arity)`` — the
        #: term-graph view the E-matcher walks (pattern heads retrieve their
        #: candidate occurrences here instead of scanning every term).
        self._by_head: Dict[Tuple[str, int], List[FApp]] = {}
        #: The proof forest: ``id -> (neighbour id, reason)`` edges; each
        #: union links the two *asserted* terms (not their roots).
        self._proof: Dict[int, Tuple[int, _Reason]] = {}
        self._closed = False
        self._explain_incomplete = False

    # -- construction ---------------------------------------------------------

    def intern(self, term: FTerm) -> int:
        """The id of ``term``, assigning a fresh one (and interning its
        arguments) on first sight."""
        known = self._ids.get(term)
        if known is not None:
            return known
        index = len(self._terms)
        self._ids[term] = index
        self._terms.append(term)
        self._parent.append(index)
        self._args.append(())
        if isinstance(term, FApp):
            self._by_head.setdefault((term.func, len(term.args)), []).append(term)
            if term.args:
                args = tuple(self.intern(arg) for arg in term.args)
                self._args[index] = args
                self._subterms.append((index, term.func, args))
        return index

    def assert_equal(self, lhs: FTerm, rhs: FTerm, tag: object = None) -> None:
        self._equalities.append((self.intern(lhs), self.intern(rhs), tag))

    def assert_distinct(self, lhs: FTerm, rhs: FTerm, tag: object = None) -> None:
        self._disequalities.append((self.intern(lhs), self.intern(rhs), tag))

    # -- union-find -----------------------------------------------------------

    def find(self, term: FTerm) -> FTerm:
        """The stored term of the root of ``term``'s class (``term`` must
        be interned)."""
        return self._terms[self._find(self._ids[term])]

    def _find(self, index: int) -> int:
        parent = self._parent
        root = index
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[index] != root:
            parent[index], index = root, parent[index]
        return root

    def _union(self, a: int, b: int, reason: _Reason) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb
            self._proof_link(a, b, reason)

    # -- proof forest ----------------------------------------------------------

    def _proof_link(self, a: int, b: int, reason: _Reason) -> None:
        """Add the proof edge ``a — b``: reroot ``a``'s proof tree at ``a``,
        then hang it under ``b``."""
        path: List[Tuple[int, int, _Reason]] = []
        node = a
        while node in self._proof:
            neighbour, edge_reason = self._proof[node]
            path.append((node, neighbour, edge_reason))
            node = neighbour
        for child, parent, edge_reason in reversed(path):
            self._proof[parent] = (child, edge_reason)
        if path:
            del self._proof[a]
        self._proof[a] = (b, reason)

    def _explain_pair(
        self, a: int, b: int, tags: Set[object], visited: Set[Tuple[int, int]]
    ) -> None:
        """Collect the input tags proving ``a = b`` from the proof forest."""
        if a == b:
            return
        key = (a, b)
        if key in visited or (b, a) in visited:
            return
        visited.add(key)
        # Nearest common ancestor in the proof forest.
        ancestors: Set[int] = {a}
        node = a
        while node in self._proof:
            node = self._proof[node][0]
            ancestors.add(node)
        common = b
        while common not in ancestors and common in self._proof:
            common = self._proof[common][0]
        if common not in ancestors:
            # Defensive: the proof forest should always connect two terms
            # the union-find merged.  If it ever does not, the explanation
            # is *incomplete* — an under-explained conflict would become a
            # too-strong blocking clause (unsound), so flag it and let the
            # caller degrade to blocking everything.
            self._explain_incomplete = True
            return

        def walk(start: int) -> None:
            node = start
            while node != common:
                neighbour, reason = self._proof[node]
                if reason[0] == "input":
                    if reason[1] is not None:
                        tags.add(reason[1])
                else:
                    _kind, t1, t2 = reason
                    for arg1, arg2 in zip(self._args[t1], self._args[t2]):
                        self._explain_pair(arg1, arg2, tags, visited)
                node = neighbour

        walk(a)
        walk(b)

    # -- the closure ------------------------------------------------------------

    def close(self) -> None:
        """Merge the asserted equalities and propagate congruence to a fixed
        point (without consulting the disequalities).  Idempotent; the
        E-matcher calls this to turn the interned terms into the equivalence-
        aware term graph it matches patterns against."""
        for lhs, rhs, tag in self._equalities[:]:
            self._union(lhs, rhs, ("input", tag))
        find = self._find
        changed = True
        while changed:
            changed = False
            signature: Dict[Tuple[str, Tuple[int, ...]], int] = {}
            for index, func, args in self._subterms:
                key = (func, tuple([find(a) for a in args]))
                other = signature.get(key)
                if other is None:
                    signature[key] = index
                elif find(other) != find(index):
                    self._union(other, index, ("congruence", other, index))
                    changed = True
        self._closed = True

    def check(self) -> bool:
        """Return True when the asserted literals are EUF-consistent."""
        self.close()
        for lhs, rhs, _tag in self._disequalities:
            if self._find(lhs) == self._find(rhs):
                return False
        return True

    def conflict_explanation(self) -> Optional[List[object]]:
        """The input tags responsible for the first violated disequality
        (including that disequality's own tag), or ``None`` when consistent.

        Runs :meth:`close` if needed.  The returned set is the exact proof
        footprint of one conflict — the DPLL(T) loop blocks precisely these
        literals instead of the whole model.
        """
        if not self._closed:
            self.close()
        for lhs, rhs, tag in self._disequalities:
            if self._find(lhs) == self._find(rhs):
                tags: Set[object] = set()
                if tag is not None:
                    tags.add(tag)
                self._explain_incomplete = False
                self._explain_pair(lhs, rhs, tags, set())
                if self._explain_incomplete:
                    # Incomplete explanation: an under-approximated core
                    # would block too much.  The empty list tells the
                    # caller "inconsistent, but block the whole
                    # assignment" (see SmtProver._theory_conflict).
                    return []
                return sorted(tags, key=repr)
        return None

    def equivalence_classes(self) -> List[Set[FTerm]]:
        return [set(members) for members in self.members_by_class().values()]

    # -- term-graph queries (the E-matcher's view) ------------------------------

    def apps_with_head(self, func: str, arity: int) -> List[FApp]:
        """Every interned application ``func(t1, ..., t_arity)`` — the
        candidate occurrences of a pattern whose head is ``func``."""
        return self._by_head.get((func, arity), [])

    def members_by_class(self) -> Dict[FTerm, List[FTerm]]:
        """The full partition: class root term -> interned members, both in
        interning order."""
        by_root: Dict[int, List[FTerm]] = {}
        terms = self._terms
        for index, term in enumerate(terms):
            by_root.setdefault(self._find(index), []).append(term)
        return {terms[root]: members for root, members in by_root.items()}

    def __contains__(self, term: FTerm) -> bool:
        return term in self._ids


TRUE_TERM = FApp("$tt", ())
FALSE_TERM = FApp("$ff", ())


def check_euf(
    equalities: Iterable[Tuple[FTerm, FTerm]],
    disequalities: Iterable[Tuple[FTerm, FTerm]],
    true_atoms: Iterable[FTerm] = (),
    false_atoms: Iterable[FTerm] = (),
) -> bool:
    """One-shot satisfiability check of a conjunction of EUF literals."""
    cc = CongruenceClosure()
    cc.assert_distinct(TRUE_TERM, FALSE_TERM)
    for lhs, rhs in equalities:
        cc.assert_equal(lhs, rhs)
    for lhs, rhs in disequalities:
        cc.assert_distinct(lhs, rhs)
    for atom in true_atoms:
        cc.assert_equal(atom, TRUE_TERM)
    for atom in false_atoms:
        cc.assert_equal(atom, FALSE_TERM)
    return cc.check()


def euf_conflict_tags(
    tagged_equalities: Iterable[Tuple[FTerm, FTerm, object]],
    tagged_disequalities: Iterable[Tuple[FTerm, FTerm, object]],
    tagged_true_atoms: Iterable[Tuple[FTerm, object]] = (),
    tagged_false_atoms: Iterable[Tuple[FTerm, object]] = (),
) -> Optional[List[object]]:
    """One-shot conflict extraction: the tags of one inconsistent subset of
    the given EUF literals, or ``None`` when they are consistent."""
    cc = CongruenceClosure()
    cc.assert_distinct(TRUE_TERM, FALSE_TERM)
    for lhs, rhs, tag in tagged_equalities:
        cc.assert_equal(lhs, rhs, tag)
    for lhs, rhs, tag in tagged_disequalities:
        cc.assert_distinct(lhs, rhs, tag)
    for atom, tag in tagged_true_atoms:
        cc.assert_equal(atom, TRUE_TERM, tag)
    for atom, tag in tagged_false_atoms:
        cc.assert_equal(atom, FALSE_TERM, tag)
    return cc.conflict_explanation()
