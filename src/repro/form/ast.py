"""Abstract syntax of Jahob higher-order logic formulas.

Formulas follow Isabelle/HOL (paper Section 3.1): simply-typed terms with
ground types ``bool``, ``int``, ``obj``, the type constructors ``=>``, ``*``
and ``set``, polymorphic equality, the usual connectives and quantifiers, the
lambda binder, set comprehensions, and a handful of interpreted operators
(set algebra, linear arithmetic, transitive closure, ``tree [...]``,
``card``, field/array updates).

The representation is deliberately small:

* structural nodes: :class:`Var`, :class:`IntLit`, :class:`BoolLit`,
  :class:`App`, :class:`Lambda`, :class:`Quant`, :class:`SetCompr`,
  :class:`TupleTerm`, :class:`Old`;
* logical nodes: :class:`Not`, :class:`And`, :class:`Or`, :class:`Implies`,
  :class:`Iff`, :class:`Eq`, :class:`Ite`;
* every interpreted operator is an :class:`App` whose function is a
  :class:`Var` carrying one of the names in :data:`BUILTIN_SIGNATURES`.

All nodes are immutable and hashable, so terms can be shared, memoised and
put in sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .types import (
    BOOL,
    INT,
    OBJ,
    OBJ_SET,
    TFun,
    TSet,
    TTuple,
    TVar,
    Type,
    fun_type,
)

# ---------------------------------------------------------------------------
# Term nodes
# ---------------------------------------------------------------------------


class Term:
    """Base class of all HOL terms (formulas are terms of type ``bool``)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import to_str

        return f"<{type(self).__name__} {to_str(self)}>"


#: A binder parameter: a variable name together with an optional type
#: annotation (``None`` means "infer me").
Param = Tuple[str, Optional[Type]]


@dataclass(frozen=True, repr=False)
class Var(Term):
    """A variable or constant reference (including built-in operators)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class IntLit(Term):
    """An integer literal (mathematical integer, unbounded)."""

    value: int


@dataclass(frozen=True, repr=False)
class BoolLit(Term):
    """The propositional constants ``True`` and ``False``."""

    value: bool


@dataclass(frozen=True, repr=False)
class App(Term):
    """Application of a function term to one or more argument terms."""

    func: Term
    args: Tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True, repr=False)
class Lambda(Term):
    """Lambda abstraction ``% x1 ... xn. body``."""

    params: Tuple[Param, ...]
    body: Term

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(tuple(p) for p in self.params))


@dataclass(frozen=True, repr=False)
class Quant(Term):
    """A quantified formula; ``kind`` is ``"ALL"`` or ``"EX"``."""

    kind: str
    params: Tuple[Param, ...]
    body: Term

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(tuple(p) for p in self.params))


@dataclass(frozen=True, repr=False)
class SetCompr(Term):
    """A set comprehension ``{x. P}`` or ``{(x, y). P}``."""

    params: Tuple[Param, ...]
    body: Term

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(tuple(p) for p in self.params))


@dataclass(frozen=True, repr=False)
class TupleTerm(Term):
    """A tuple ``(t1, ..., tn)`` with n >= 2."""

    items: Tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True, repr=False)
class Old(Term):
    """``old t`` — the value of ``t`` in the pre-state of a method."""

    term: Term


@dataclass(frozen=True, repr=False)
class Not(Term):
    arg: Term


@dataclass(frozen=True, repr=False)
class And(Term):
    args: Tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True, repr=False)
class Or(Term):
    args: Tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True, repr=False)
class Implies(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True, repr=False)
class Iff(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True, repr=False)
class Eq(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True, repr=False)
class Ite(Term):
    """``if c then t else e`` at the term level."""

    cond: Term
    then: Term
    els: Term


# ---------------------------------------------------------------------------
# Built-in operators
# ---------------------------------------------------------------------------

_A = TVar("a")
_B = TVar("b")

#: Names and polymorphic types of the interpreted operators.  The paper's
#: notation maps onto these names as follows: set union ``Un`` -> ``union``,
#: intersection ``Int`` -> ``inter``, membership ``:`` -> ``elem``,
#: ``f(x := v)`` -> ``fieldWrite f x v``, ``{(x,y). G}^*`` ->
#: ``rtrancl {(x,y). G}``, ``tree [f]`` -> ``tree f``, ``cardinality`` ->
#: ``card``.
BUILTIN_SIGNATURES = {
    # Arithmetic over mathematical integers.
    "plus": fun_type([INT, INT], INT),
    "minus": fun_type([INT, INT], INT),
    "times": fun_type([INT, INT], INT),
    "div": fun_type([INT, INT], INT),
    "mod": fun_type([INT, INT], INT),
    "uminus": fun_type([INT], INT),
    "lt": fun_type([INT, INT], BOOL),
    "lte": fun_type([INT, INT], BOOL),
    "gt": fun_type([INT, INT], BOOL),
    "gte": fun_type([INT, INT], BOOL),
    # Set algebra.
    "union": fun_type([TSet(_A), TSet(_A)], TSet(_A)),
    "inter": fun_type([TSet(_A), TSet(_A)], TSet(_A)),
    "setdiff": fun_type([TSet(_A), TSet(_A)], TSet(_A)),
    "elem": fun_type([_A, TSet(_A)], BOOL),
    "subseteq": fun_type([TSet(_A), TSet(_A)], BOOL),
    "insert": fun_type([_A, TSet(_A)], TSet(_A)),
    "card": fun_type([TSet(_A)], INT),
    "finite": fun_type([TSet(_A)], BOOL),
    "emptyset": TSet(_A),
    "univ": TSet(_A),
    # Relations and reachability.
    "rtrancl": fun_type([TSet(TTuple((_A, _A)))], TSet(TTuple((_A, _A)))),
    "trancl": fun_type([TSet(TTuple((_A, _A)))], TSet(TTuple((_A, _A)))),
    "rtrancl_pt": fun_type(
        [fun_type([_A, _A], BOOL), _A, _A], BOOL
    ),
    # Heap structure.
    "tree": fun_type([fun_type([OBJ], OBJ)], BOOL),
    "tree2": fun_type([fun_type([OBJ], OBJ), fun_type([OBJ], OBJ)], BOOL),
    "fieldWrite": fun_type([TFun(_A, _B), _A, _B], TFun(_A, _B)),
    "arrayRead": fun_type([fun_type([OBJ, INT], OBJ), OBJ, INT], OBJ),
    "arrayWrite": fun_type(
        [fun_type([OBJ, INT], OBJ), OBJ, INT, OBJ], fun_type([OBJ, INT], OBJ)
    ),
    # Distinguished object constants and heap sets.
    "null": OBJ,
    "alloc": OBJ_SET,
    "Object_alloc": OBJ_SET,
    "arrayLength": fun_type([OBJ], INT),
    # Pair projections (used when eliminating tuples).
    "fst": fun_type([TTuple((_A, _B))], _A),
    "snd": fun_type([TTuple((_A, _B))], _B),
}

#: Built-ins that denote relations/sets over objects and therefore never need
#: arithmetic reasoning (used by prover approximation heuristics).
SET_OPS = frozenset({"union", "inter", "setdiff", "elem", "subseteq", "insert",
                     "emptyset", "univ", "card", "finite"})
ARITH_OPS = frozenset({"plus", "minus", "times", "div", "mod", "uminus",
                       "lt", "lte", "gt", "gte"})
REACH_OPS = frozenset({"rtrancl", "trancl", "rtrancl_pt", "tree", "tree2"})


def is_builtin(name: str) -> bool:
    """Return True if ``name`` is an interpreted operator of the logic."""
    return name in BUILTIN_SIGNATURES


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

TRUE = BoolLit(True)
FALSE = BoolLit(False)
NULL = Var("null")
EMPTYSET = Var("emptyset")
ALLOC = Var("alloc")


def var(name: str) -> Var:
    return Var(name)


def app(func, *args: Term) -> Term:
    """Apply ``func`` (a Term or an operator name) to ``args``."""
    if isinstance(func, str):
        func = Var(func)
    if not args:
        return func
    return App(func, tuple(args))


def mk_not(arg: Term) -> Term:
    if isinstance(arg, BoolLit):
        return BoolLit(not arg.value)
    if isinstance(arg, Not):
        return arg.arg
    return Not(arg)


def mk_and(args: Iterable[Term]) -> Term:
    flat = []
    for a in args:
        if isinstance(a, BoolLit):
            if not a.value:
                return FALSE
            continue
        if isinstance(a, And):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def mk_or(args: Iterable[Term]) -> Term:
    flat = []
    for a in args:
        if isinstance(a, BoolLit):
            if a.value:
                return TRUE
            continue
        if isinstance(a, Or):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def mk_implies(lhs: Term, rhs: Term) -> Term:
    if isinstance(lhs, BoolLit):
        return rhs if lhs.value else TRUE
    if isinstance(rhs, BoolLit) and rhs.value:
        return TRUE
    return Implies(lhs, rhs)


def mk_iff(lhs: Term, rhs: Term) -> Term:
    if isinstance(lhs, BoolLit):
        return rhs if lhs.value else mk_not(rhs)
    if isinstance(rhs, BoolLit):
        return lhs if rhs.value else mk_not(lhs)
    return Iff(lhs, rhs)


def mk_eq(lhs: Term, rhs: Term) -> Term:
    if lhs == rhs:
        return TRUE
    return Eq(lhs, rhs)


def mk_ne(lhs: Term, rhs: Term) -> Term:
    return mk_not(mk_eq(lhs, rhs))


def mk_exists(params: Sequence[Param], body: Term) -> Term:
    params = tuple(params)
    if not params:
        return body
    if isinstance(body, BoolLit):
        return body
    return Quant("EX", params, body)


def mk_elem(x: Term, s: Term) -> Term:
    return app("elem", x, s)


def mk_union(a: Term, b: Term) -> Term:
    return app("union", a, b)


def mk_field_write(field: Term, obj: Term, value: Term) -> Term:
    """``field(obj := value)`` — functional field update."""
    return app("fieldWrite", field, obj, value)


def mk_singleton(x: Term) -> Term:
    return app("insert", x, EMPTYSET)


def finite_set(items: Sequence[Term]) -> Term:
    """Build the finite set literal ``{t1, ..., tn}``."""
    result: Term = EMPTYSET
    for item in reversed(list(items)):
        result = app("insert", item, result)
    return result


def conjuncts(term: Term) -> Tuple[Term, ...]:
    """Flatten a conjunction into its conjuncts (a non-And term is one conjunct)."""
    if isinstance(term, And):
        out = []
        for arg in term.args:
            out.extend(conjuncts(arg))
        return tuple(out)
    if isinstance(term, BoolLit) and term.value:
        return ()
    return (term,)


def disjuncts(term: Term) -> Tuple[Term, ...]:
    """Flatten a disjunction into its disjuncts."""
    if isinstance(term, Or):
        out = []
        for arg in term.args:
            out.extend(disjuncts(arg))
        return tuple(out)
    if isinstance(term, BoolLit) and not term.value:
        return ()
    return (term,)


def is_app_of(term: Term, name: str) -> bool:
    """Return True if ``term`` is an application of the built-in ``name``."""
    return (
        isinstance(term, App)
        and isinstance(term.func, Var)
        and term.func.name == name
    )


def subterms(term: Term):
    """Yield every subterm of ``term`` (including the term itself), pre-order."""
    yield term
    if isinstance(term, App):
        yield from subterms(term.func)
        for arg in term.args:
            yield from subterms(arg)
    elif isinstance(term, (Lambda, Quant, SetCompr)):
        yield from subterms(term.body)
    elif isinstance(term, TupleTerm):
        for item in term.items:
            yield from subterms(item)
    elif isinstance(term, Old):
        yield from subterms(term.term)
    elif isinstance(term, Not):
        yield from subterms(term.arg)
    elif isinstance(term, (And, Or)):
        for arg in term.args:
            yield from subterms(arg)
    elif isinstance(term, (Implies, Iff, Eq)):
        yield from subterms(term.lhs)
        yield from subterms(term.rhs)
    elif isinstance(term, Ite):
        yield from subterms(term.cond)
        yield from subterms(term.then)
        yield from subterms(term.els)


def term_size(term: Term) -> int:
    """The number of nodes in ``term`` — used for statistics and limits."""
    return sum(1 for _ in subterms(term))


def mentions(term: Term, name: str) -> bool:
    """True when any subterm is the variable/operator called ``name``.

    Operators are plain :class:`Var` heads under application, so this
    doubles as "does the formula use this builtin" (e.g. ``card``) — the
    check provers use to gate fragments they cannot reason about.
    """
    return any(isinstance(sub, Var) and sub.name == name for sub in subterms(term))
