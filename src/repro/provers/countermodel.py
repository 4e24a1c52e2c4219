"""Finite countermodels: an exact HOL evaluator and a small-scope model finder.

A sequent ``A1 & ... & An --> G`` is *refuted* by an interpretation that
makes every assumption true and the goal false.  This module looks for one
over a finite domain, in the style of Nitpick (Blanchette & Nipkow, ITP
2010): ``null`` plus ``k <= MAX_OBJECTS`` further objects, every field a
total map, every set a subset, ``card`` and ``rtrancl`` computed exactly
over the domain, and integer constants drawn from a small range with exact
Python arithmetic on them.

The evaluator is exact or silent: it answers true or false only when that
is the formula's value in the interpretation, and raises :class:`Unknown`
otherwise — on a quantifier or comprehension over ``int``, on ``div`` /
``mod`` with a negative operand (where Java truncation and floor division
differ) or a zero divisor, and on any symbol it cannot interpret
(``tree``, ``old``, ...).  Connectives are evaluated in Kleene's strong
three-valued logic, so an undecidable conjunct does not hide a false one.

The finder is a lazy depth-first search over *cells* — one cell per
constant, per function entry and per set membership.  Evaluating the
sequent under a partial interpretation either decides every formula or
names the first cell it needs; the search then branches on that cell's
values.  A cell no formula ever reads is never assigned, so the search
touches only the part of the heap the sequent talks about.  Symmetric
objects are broken by the least-number rule (a new object is only ever the
smallest one not used yet).  The search is capped at :data:`SEARCH_NODES`
nodes per sequent, a constant, so the answer does not depend on the
machine.

Nothing here trusts the search: a candidate is accepted only after a final
evaluation of the *original* assumptions and goal in the completed
interpretation (every unassigned cell at its default ``null``/``0``/
``False``) makes all assumptions true and the goal false.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..form import ast as F
from ..form.typecheck import TypeError_, check_formulas
from ..form.types import (
    BOOL,
    INT,
    OBJ,
    TFun,
    TSet,
    TTuple,
    TVar,
    Type,
    TypeNameSupply,
    UnificationError,
    fun_type,
    strip_fun,
    subst_type,
    type_vars,
    unify,
)
from ..vcgen.sequent import Sequent
from .base import Deadline

#: Largest number of non-null objects the finder tries.
MAX_OBJECTS = 4
#: Candidate values of an integer cell, in the order they are tried.
INT_WINDOW = (0, 1, 2, 3, -1, 4)
#: Search nodes (partial interpretations evaluated) per sequent, over all
#: domain sizes.  The suite's countermodels take at most 160; a valid
#: sequent with many quantified invariants exhausts the cap in about 0.2 s.
SEARCH_NODES = 400

#: Built-in names that denote uninterpreted heap state, not operators.
_UNINTERPRETED = frozenset({"alloc", "Object_alloc", "arrayLength"})

Cell = Tuple[str, tuple]
Env = Dict[str, object]
Fn = Callable[["_State", Env], object]


class Unknown(Exception):
    """The evaluator cannot decide a formula in this interpretation."""


class _Need(Exception):
    """Evaluation read a cell the partial interpretation leaves open."""

    def __init__(self, cell: Cell, typ: Type) -> None:
        self.cell = cell
        self.typ = typ


class _OutOfBudget(Exception):
    pass


# ---------------------------------------------------------------------------
# Interpretations
# ---------------------------------------------------------------------------


class _State:
    """A (partial) interpretation: ``k`` non-null objects and assigned cells.

    Objects are the ints ``0`` (``null``) to ``k``.  When ``complete`` is set,
    an unassigned cell reads as its default instead of stopping evaluation.
    """

    __slots__ = ("k", "cells", "complete", "_domains")

    def __init__(self, k: int, complete: bool = False) -> None:
        self.k = k
        self.cells: Dict[Cell, object] = {}
        self.complete = complete
        self._domains: Dict[Type, tuple] = {}

    def read(self, cell: Cell, typ: Type) -> object:
        try:
            return self.cells[cell]
        except KeyError:
            if self.complete:
                return _default(typ)
            raise _Need(cell, typ) from None

    def domain(self, typ: Type) -> tuple:
        """Every value of a finite type; :class:`Unknown` for infinite ones."""
        cached = self._domains.get(typ)
        if cached is None:
            if typ == OBJ:
                cached = tuple(range(self.k + 1))
            elif typ == BOOL:
                cached = (False, True)
            elif isinstance(typ, TTuple):
                cached = tuple(itertools.product(*(self.domain(t) for t in typ.items)))
            else:
                raise Unknown
            self._domains[typ] = cached
        return cached


def _default(typ: Type) -> object:
    if typ == INT:
        return 0
    if typ == BOOL:
        return False
    return 0  # null


# ---------------------------------------------------------------------------
# Kleene connectives
# ---------------------------------------------------------------------------


def _all(st: _State, thunks: Iterable[Callable[[], object]]) -> bool:
    """Strong Kleene conjunction: False wins over undecided arguments."""
    pending: Optional[Exception] = None
    for thunk in thunks:
        try:
            if not thunk():
                return False
        except _Need as need:
            if not isinstance(pending, _Need):
                pending = need
        except Unknown as unknown:
            pending = pending or unknown
    if pending is not None:
        raise pending
    return True


def _any(st: _State, thunks: Iterable[Callable[[], object]]) -> bool:
    """Strong Kleene disjunction: True wins over undecided arguments."""
    pending: Optional[Exception] = None
    for thunk in thunks:
        try:
            if thunk():
                return True
        except _Need as need:
            if not isinstance(pending, _Need):
                pending = need
        except Unknown as unknown:
            pending = pending or unknown
    if pending is not None:
        raise pending
    return False


# ---------------------------------------------------------------------------
# Set and function values
# ---------------------------------------------------------------------------


def _has(st: _State, s: object, v: object) -> bool:
    if isinstance(s, frozenset):
        return v in s
    if isinstance(s, _LazySet):
        return s.has(st, v)
    raise Unknown


def _elems(st: _State, s: object) -> frozenset:
    if isinstance(s, frozenset):
        return s
    if isinstance(s, _LazySet):
        return s.elems(st)
    raise Unknown


class _LazySet:
    """A set whose membership is computed on demand (see :func:`_has`)."""

    def has(self, st: _State, v: object) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def elems(self, st: _State) -> frozenset:  # pragma: no cover - abstract
        raise NotImplementedError


class _SymSet(_LazySet):
    """A set-valued symbol: one boolean cell per element."""

    def __init__(self, name: str, prefix: tuple, elem: Type) -> None:
        self.name, self.prefix, self.elem = name, prefix, elem

    def has(self, st, v):
        return st.read((self.name, self.prefix + (v,)), BOOL)

    def elems(self, st):
        return frozenset(v for v in st.domain(self.elem) if self.has(st, v))


class _Union(_LazySet):
    def __init__(self, a, b) -> None:
        self.a, self.b = a, b

    def has(self, st, v):
        return _any(st, (lambda: _has(st, self.a, v), lambda: _has(st, self.b, v)))

    def elems(self, st):
        return _elems(st, self.a) | _elems(st, self.b)


class _Inter(_LazySet):
    def __init__(self, a, b) -> None:
        self.a, self.b = a, b

    def has(self, st, v):
        return _all(st, (lambda: _has(st, self.a, v), lambda: _has(st, self.b, v)))

    def elems(self, st):
        try:
            base, other = _elems(st, self.a), self.b
        except Unknown:
            base, other = _elems(st, self.b), self.a
        return frozenset(v for v in base if _has(st, other, v))


class _Diff(_LazySet):
    def __init__(self, a, b) -> None:
        self.a, self.b = a, b

    def has(self, st, v):
        return _all(st, (lambda: _has(st, self.a, v), lambda: not _has(st, self.b, v)))

    def elems(self, st):
        return frozenset(v for v in _elems(st, self.a) if not _has(st, self.b, v))


class _Insert(_LazySet):
    def __init__(self, x, s) -> None:
        self.x, self.s = x, s

    def has(self, st, v):
        return v == self.x or _has(st, self.s, v)

    def elems(self, st):
        return _elems(st, self.s) | {self.x}


class _Compr(_LazySet):
    """``{x. P}`` / ``{(x, y). P}``: membership evaluates the body."""

    def __init__(self, names: Tuple[str, ...], elem: Type, body: Fn, env: Env) -> None:
        self.names, self.elem, self.body, self.env = names, elem, body, env

    def _bind(self, v) -> Env:
        env = dict(self.env)
        if len(self.names) == 1:
            env[self.names[0]] = v
        else:
            env.update(zip(self.names, v))
        return env

    def has(self, st, v):
        return self.body(st, self._bind(v))

    def elems(self, st):
        return frozenset(v for v in st.domain(self.elem) if self.has(st, v))


class _Closure(_LazySet):
    """The (reflexive) transitive closure of a relation over a finite type."""

    def __init__(self, rel, node: Type, reflexive: bool) -> None:
        self.rel, self.node, self.reflexive = rel, node, reflexive

    def has(self, st, v):
        source, target = v
        if self.reflexive and source == target:
            return True
        nodes = st.domain(self.node)
        seen = set()
        frontier = [source]
        while frontier:
            current = frontier.pop()
            for nxt in nodes:
                if nxt not in seen and _has(st, self.rel, (current, nxt)):
                    if nxt == target:
                        return True
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def elems(self, st):
        nodes = st.domain(self.node)
        return frozenset((a, b) for a in nodes for b in nodes if self.has(st, (a, b)))


class _Fun:
    """A function value, applied one (curried) argument at a time."""

    def call(self, st: _State, v: object) -> object:  # pragma: no cover - abstract
        raise NotImplementedError


class _SymFun(_Fun):
    """A function-valued symbol: one cell per full argument tuple."""

    def __init__(self, name: str, prefix: tuple, typ: Type) -> None:
        self.name, self.prefix, self.typ = name, prefix, typ

    def call(self, st, v):
        return _symbol_value(st, self.name, self.prefix + (v,), self.typ.res)


class _Lam(_Fun):
    def __init__(self, name: str, body: Fn, env: Env) -> None:
        self.name, self.body, self.env = name, body, env

    def call(self, st, v):
        env = dict(self.env)
        env[self.name] = v
        return self.body(st, env)


class _Update(_Fun):
    """``f(x := v)``."""

    def __init__(self, base, key, value) -> None:
        self.base, self.key, self.value = base, key, value

    def call(self, st, v):
        return self.value if v == self.key else _call(st, self.base, v)


def _call(st: _State, f: object, v: object) -> object:
    if isinstance(f, _Fun):
        return f.call(st, v)
    raise Unknown


def _symbol_value(st: _State, name: str, args: tuple, typ: Type) -> object:
    """The value of symbol ``name`` applied to ``args``, of type ``typ``."""
    if isinstance(typ, TFun):
        return _SymFun(name, args, typ)
    if isinstance(typ, TSet):
        return _SymSet(name, args, typ.elem)
    if typ in (OBJ, INT, BOOL):
        return st.read((name, args), typ)
    raise Unknown


# ---------------------------------------------------------------------------
# Typed equality
# ---------------------------------------------------------------------------


def _equality(typ: Type) -> Callable[[_State, object, object], bool]:
    if isinstance(typ, TSet):
        def set_eq(st, a, b):
            if isinstance(a, frozenset) and isinstance(b, frozenset):
                return a == b
            return _all(st, (
                lambda: all(_has(st, b, v) for v in _elems(st, a)),
                lambda: all(_has(st, a, v) for v in _elems(st, b)),
            ))
        return set_eq
    if isinstance(typ, TFun):
        inner = _equality(typ.res)

        def fun_eq(st, f, g):
            if f is g:
                return True
            return _all(st, (
                (lambda v=v: inner(st, _call(st, f, v), _call(st, g, v)))
                for v in st.domain(typ.arg)
            ))
        return fun_eq
    if isinstance(typ, TTuple) and any(
        isinstance(t, (TSet, TFun, TTuple)) for t in typ.items
    ):
        parts = [_equality(t) for t in typ.items]
        return lambda st, a, b: _all(st, (
            (lambda i=i: parts[i](st, a[i], b[i])) for i in range(len(parts))
        ))
    if isinstance(typ, TVar):
        return _unknown
    return lambda st, a, b: a == b


# ---------------------------------------------------------------------------
# Compilation of annotated terms into evaluator closures
# ---------------------------------------------------------------------------


def _const(value: object) -> Fn:
    return lambda st, env: value


def _unknown(*_args) -> object:
    raise Unknown


def _nonneg(value: int) -> int:
    if value < 0:
        raise Unknown
    return value


def _int_div(a: int, b: int) -> int:
    if b <= 0:
        raise Unknown
    return _nonneg(a) // b


def _int_mod(a: int, b: int) -> int:
    if b <= 0:
        raise Unknown
    return _nonneg(a) % b


_INT_BINARY = {
    "plus": lambda a, b: a + b,
    "minus": lambda a, b: a - b,
    "times": lambda a, b: a * b,
    "div": _int_div,
    "mod": _int_mod,
    "lt": lambda a, b: a < b,
    "lte": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "gte": lambda a, b: a >= b,
}

_SET_BINARY = {"union": _Union, "inter": _Inter, "setdiff": _Diff}


def _arity(name: str) -> int:
    """How many arguments built-in ``name`` takes before it yields its
    value (the writes yield functions, so their type alone cannot say)."""
    if name == "fieldWrite":
        return 3
    if name == "arrayWrite":
        return 4
    return len(strip_fun(F.BUILTIN_SIGNATURES[name])[0])


class _Compiler:
    """Turns annotated formulas into closures ``fn(state, env)``."""

    def __init__(self, signature: Dict[str, Type]) -> None:
        self.signature = signature
        self.supply = TypeNameSupply("?c")

    def formula(self, term: F.Term) -> Fn:
        fn, _typ = self.compile(term, {})
        return fn

    def compile(self, term: F.Term, scope: Dict[str, Type]) -> Tuple[Fn, Type]:
        if isinstance(term, F.Var):
            return self._var(term.name, scope)
        if isinstance(term, F.IntLit):
            return _const(term.value), INT
        if isinstance(term, F.BoolLit):
            return _const(term.value), BOOL
        if isinstance(term, F.Not):
            arg, _ = self.compile(term.arg, scope)
            return (lambda st, env: not arg(st, env)), BOOL
        if isinstance(term, (F.And, F.Or)):
            args = [self.compile(a, scope)[0] for a in term.args]
            combine = _all if isinstance(term, F.And) else _any
            return (lambda st, env: combine(
                st, ((lambda a=a: a(st, env)) for a in args)
            )), BOOL
        if isinstance(term, F.Implies):
            lhs, _ = self.compile(term.lhs, scope)
            rhs, _ = self.compile(term.rhs, scope)
            return (lambda st, env: _any(
                st, (lambda: not lhs(st, env), lambda: rhs(st, env))
            )), BOOL
        if isinstance(term, (F.Iff, F.Eq)):
            lhs, ltype = self.compile(term.lhs, scope)
            rhs, _ = self.compile(term.rhs, scope)
            equal = _equality(ltype)
            return (lambda st, env: equal(st, lhs(st, env), rhs(st, env))), BOOL
        if isinstance(term, F.Ite):
            cond, _ = self.compile(term.cond, scope)
            then, typ = self.compile(term.then, scope)
            els, _ = self.compile(term.els, scope)
            return (lambda st, env: then(st, env) if cond(st, env) else els(st, env)), typ
        if isinstance(term, F.TupleTerm):
            items = [self.compile(i, scope) for i in term.items]
            fns = [fn for fn, _ in items]
            return (lambda st, env: tuple(fn(st, env) for fn in fns)), TTuple(
                tuple(t for _, t in items)
            )
        if isinstance(term, F.Quant):
            return self._quant(term, scope), BOOL
        if isinstance(term, F.SetCompr):
            return self._compr(term, scope)
        if isinstance(term, F.Lambda):
            return self._lambda(term.params, term.body, scope)
        if isinstance(term, F.App):
            return self._app(term, scope)
        # ``old`` and anything else this evaluator does not interpret.
        return _unknown, self.supply.fresh()

    # -- names ----------------------------------------------------------------

    def _var(self, name: str, scope: Dict[str, Type]) -> Tuple[Fn, Type]:
        if name in scope:
            return (lambda st, env: env[name]), scope[name]
        if name == "null":
            return _const(0), OBJ
        if name == "emptyset":
            return _const(frozenset()), TSet(self.supply.fresh())
        if F.is_builtin(name) and name not in _UNINTERPRETED:
            # ``univ`` and operators used as values: the element type is not
            # known here, so the evaluator does not guess it.
            return _unknown, self.supply.fresh()
        typ = self.signature.get(name) or F.BUILTIN_SIGNATURES.get(name) or OBJ
        return (lambda st, env: _symbol_value(st, name, (), typ)), typ

    # -- binders --------------------------------------------------------------

    def _quant(self, term: F.Quant, scope: Dict[str, Type]) -> Fn:
        names = tuple(name for name, _ in term.params)
        types = tuple(typ or OBJ for _, typ in term.params)
        inner = dict(scope)
        inner.update(zip(names, types))
        body, _ = self.compile(term.body, inner)
        combine = _all if term.kind == "ALL" else _any

        def quant(st, env):
            domains = [st.domain(t) for t in types]

            def instance(values):
                local = dict(env)
                local.update(zip(names, values))
                return body(st, local)

            return combine(st, (
                (lambda values=values: instance(values))
                for values in itertools.product(*domains)
            ))

        return quant

    def _compr(self, term: F.SetCompr, scope: Dict[str, Type]) -> Tuple[Fn, Type]:
        names = tuple(name for name, _ in term.params)
        types = tuple(typ or OBJ for _, typ in term.params)
        inner = dict(scope)
        inner.update(zip(names, types))
        body, _ = self.compile(term.body, inner)
        elem = types[0] if len(types) == 1 else TTuple(types)
        return (lambda st, env: _Compr(names, elem, body, env)), TSet(elem)

    def _lambda(self, params, body_term, scope) -> Tuple[Fn, Type]:
        name, typ = params[0]
        typ = typ or OBJ
        inner = dict(scope)
        inner[name] = typ
        if len(params) > 1:
            body, res = self._lambda(params[1:], body_term, inner)
        else:
            body, res = self.compile(body_term, inner)
        return (lambda st, env: _Lam(name, body, env)), TFun(typ, res)

    # -- applications ---------------------------------------------------------

    def _app(self, term: F.App, scope: Dict[str, Type]) -> Tuple[Fn, Type]:
        head = term.func
        if (
            isinstance(head, F.Var)
            and head.name not in scope
            and F.is_builtin(head.name)
            and head.name not in _UNINTERPRETED
        ):
            arity = _arity(head.name)
            if len(term.args) > arity:
                # A write applied on the spot: ``(fieldWrite f x v) y``.
                inner = F.App(head, term.args[:arity])
                return self._app(F.App(inner, term.args[arity:]), scope)
            return self._builtin(head.name, term.args, scope)
        func, ftype = self.compile(head, scope)
        args = [self.compile(a, scope) for a in term.args]
        typ = ftype
        for _fn, _atype in args:
            typ = typ.res if isinstance(typ, TFun) else self.supply.fresh()
        fns = [fn for fn, _ in args]
        if isinstance(head, F.Var) and head.name not in scope:
            # A symbol applied to all its arguments reads its cell directly.
            name = head.name
            return (lambda st, env: _symbol_value(
                st, name, tuple(fn(st, env) for fn in fns), typ
            )), typ

        def apply(st, env):
            value = func(st, env)
            for fn in fns:
                value = _call(st, value, fn(st, env))
            return value

        return apply, typ

    def _result_type(self, name: str, arg_types: Sequence[Type]) -> Type:
        signature = F.BUILTIN_SIGNATURES[name]
        mapping = {var: self.supply.fresh() for var in set(type_vars(signature))}
        result = self.supply.fresh()
        try:
            subst = unify(subst_type(signature, mapping), fun_type(arg_types, result))
        except UnificationError as exc:
            raise TypeError_(f"{name}: {exc}") from exc
        return subst_type(result, subst)

    def _builtin(self, name: str, arg_terms, scope) -> Tuple[Fn, Type]:
        compiled = [self.compile(a, scope) for a in arg_terms]
        fns = [fn for fn, _ in compiled]
        types = [t for _, t in compiled]
        if name == "minus" and types and isinstance(types[0], TSet):
            name = "setdiff"
        typ = self._result_type(name, types)
        if len(fns) != _arity(name):
            return _unknown, typ
        if name in _INT_BINARY:
            op = _INT_BINARY[name]
            a, b = fns
            return (lambda st, env: op(a(st, env), b(st, env))), typ
        if name == "uminus":
            (a,) = fns
            return (lambda st, env: -a(st, env)), typ
        if name in _SET_BINARY:
            make = _SET_BINARY[name]
            a, b = fns
            return (lambda st, env: make(a(st, env), b(st, env))), typ
        if name == "elem":
            x, s = fns
            return (lambda st, env: _has(st, s(st, env), x(st, env))), typ
        if name == "subseteq":
            a, b = fns
            return (lambda st, env: _all(st, (
                (lambda v=v: _has(st, b(st, env), v)) for v in _elems(st, a(st, env))
            ))), typ
        if name == "insert":
            x, s = fns
            return (lambda st, env: _Insert(x(st, env), s(st, env))), typ
        if name == "card":
            (s,) = fns
            return (lambda st, env: len(_elems(st, s(st, env)))), typ
        if name == "finite":
            (s,) = fns
            # Every set the evaluator can enumerate is finite.
            return (lambda st, env: _elems(st, s(st, env)) is not None), typ
        if name in ("rtrancl", "trancl"):
            (rel,) = fns
            rel_type = types[0]
            node = rel_type.elem.items[0] if (
                isinstance(rel_type, TSet) and isinstance(rel_type.elem, TTuple)
            ) else self.supply.fresh()
            reflexive = name == "rtrancl"
            return (lambda st, env: _Closure(rel(st, env), node, reflexive)), typ
        if name == "rtrancl_pt":
            pred, a, b = fns
            node = types[1]
            return (lambda st, env: _Closure(
                _PredicateRelation(pred(st, env)), node, True
            ).has(st, (a(st, env), b(st, env)))), typ
        if name == "fieldWrite":
            f, x, v = fns
            return (lambda st, env: _Update(f(st, env), x(st, env), v(st, env))), typ
        if name == "arrayRead":
            a, o, i = fns
            return (lambda st, env: _call(st, _call(st, a(st, env), o(st, env)), i(st, env))), typ
        if name == "arrayWrite":
            a, o, i, v = fns

            def array_write(st, env):
                array, obj = a(st, env), o(st, env)
                row = _Update(_call(st, array, obj), i(st, env), v(st, env))
                return _Update(array, obj, row)

            return array_write, typ
        if name in ("fst", "snd"):
            (pair,) = fns
            index = 0 if name == "fst" else 1
            return (lambda st, env: pair(st, env)[index]), typ
        # ``tree``, ``tree2`` and the rest: not interpreted here.
        return _unknown, typ


class _PredicateRelation(_LazySet):
    """The relation ``{(x, y). P x y}`` of a binary predicate value."""

    def __init__(self, pred) -> None:
        self.pred = pred

    def has(self, st, v):
        return _call(st, _call(st, self.pred, v[0]), v[1])

    def elems(self, st):  # pragma: no cover - only used through _Closure.has
        raise Unknown


# ---------------------------------------------------------------------------
# The finder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Countermodel:
    """A checked countermodel: the domain size and the assigned cells."""

    objects: int
    cells: Tuple[Tuple[Cell, object], ...]
    signature: Tuple[Tuple[str, Type], ...]

    def describe(self) -> str:
        """``countermodel (null + 2 objects): current=o1, next o1=null, ...``."""
        types = dict(self.signature)
        sets: Dict[Tuple[str, tuple], List[object]] = {}
        entries: List[str] = []
        for (name, args), value in self.cells:
            typ = types.get(name, OBJ)
            arg_types, result = strip_fun(typ)
            if isinstance(result, TSet):
                members = sets.setdefault((name, args[:-1]), [])
                if value:
                    members.append(_show(args[-1], result.elem))
                continue
            shown = " ".join([name] + [_show(a, t) for a, t in zip(args, arg_types)])
            entries.append(f"{shown}={_show(value, result)}")
        for (name, prefix), members in sets.items():
            arg_types = strip_fun(types.get(name, OBJ))[0]
            shown = " ".join([name] + [_show(a, t) for a, t in zip(prefix, arg_types)])
            entries.append(f"{shown}={{{','.join(sorted(members))}}}")
        entries.sort()
        plural = "" if self.objects == 1 else "s"
        return (
            f"countermodel (null + {self.objects} object{plural}): "
            + ", ".join(entries)
            + "; everything else null/0/false/{}"
        )


def _show(value: object, typ: Type) -> str:
    if typ == OBJ:
        return "null" if value == 0 else f"o{value}"
    if isinstance(typ, TTuple) and isinstance(value, tuple):
        return "(" + ",".join(_show(v, t) for v, t in zip(value, typ.items)) + ")"
    return str(value)


Check = Tuple[Fn, bool]


def _compile_sequent(sequent: Sequent) -> Optional[Tuple[List[Check], Dict[str, Type]]]:
    """The sequent's checks (goal first, each with its required value)."""
    formulas = [sequent.goal.formula] + [a.formula for a in sequent.assumptions]
    try:
        annotated, signature = check_formulas(formulas, sequent.env)
        signature.update((name, F.BUILTIN_SIGNATURES[name]) for name in _UNINTERPRETED)
        compiler = _Compiler(signature)
        fns = [compiler.formula(term) for term in annotated]
    except TypeError_:
        return None
    return [(fns[0], False)] + [(fn, True) for fn in fns[1:]], signature


def _candidates(typ: Type, st: _State, hint: object) -> List[object]:
    if typ == BOOL:
        values: List[object] = [False, True]
    elif typ == INT:
        values = list(INT_WINDOW)
    else:
        # Least-number symmetry breaking: objects above the largest one in
        # use are interchangeable, so only the next fresh one is tried.
        used = max(
            (v for v in st.cells.values() if type(v) is int and 0 <= v <= st.k),
            default=0,
        )
        values = list(range(min(st.k, used + 1) + 1))
    if hint is not None and hint in values:
        values.remove(hint)
        values.insert(0, hint)
    return values


def _search(
    checks: List[Check],
    k: int,
    hints: Dict[Cell, object],
    budget: List[int],
    deadline: Optional[Deadline],
) -> Optional[Dict[Cell, object]]:
    """Depth-first search for cells under which every check holds.

    A check decided at a node stays decided in the whole subtree below it
    (more cells never change a value that read none of them), so each node
    evaluates only the checks still open at its parent.  A check that is
    false, or undecidable without needing any open cell, closes the
    subtree.
    """
    st = _State(k)

    def dfs(open_checks: List[Check]) -> bool:
        budget[0] -= 1
        if budget[0] < 0 or (deadline is not None and deadline.expired()):
            raise _OutOfBudget
        need: Optional[_Need] = None
        still_open: List[Check] = []
        for check in open_checks:
            fn, want = check
            try:
                value = fn(st, {})
            except _Need as exc:
                need = need or exc
                still_open.append(check)
                continue
            except Unknown:
                return False
            if value is not want:
                return False
        if need is None:
            return True
        cell, typ = need.cell, need.typ
        for value in _candidates(typ, st, hints.get(cell)):
            st.cells[cell] = value
            if dfs(still_open):
                return True
            del st.cells[cell]
        return False

    return dict(st.cells) if dfs(checks) else None


def _confirmed(checks: Sequence[Check], k: int, cells: Dict[Cell, object]) -> bool:
    """The final, exact check in the completed interpretation."""
    st = _State(k, complete=True)
    st.cells.update(cells)
    try:
        return all(fn(st, {}) is want for fn, want in checks)
    except (Unknown, _Need):
        return False


def _seed_hints(
    model: Iterable[Tuple[F.Term, bool]], signature: Dict[str, Type]
) -> Dict[Cell, object]:
    """Preferred cell values read off a propositional model of ground atoms.

    The true equalities between object terms are merged into classes (the
    E-graph's view); the class of ``null`` is object 0 and every other class
    the next object.  Each symbol application over classified arguments then
    prefers its class, and each membership or predicate atom its truth
    value.  Atoms over symbols the sequent does not have (Skolem constants,
    reified reachability) are skipped.
    """
    literals = list(model)
    parent: Dict[F.Term, F.Term] = {}

    def find(term: F.Term) -> F.Term:
        while parent.get(term, term) != term:
            term = parent[term]
        return term

    def object_term(term: F.Term) -> bool:
        if isinstance(term, F.Var):
            return term.name == "null" or signature.get(term.name) == OBJ
        if isinstance(term, F.App) and isinstance(term.func, F.Var):
            args, result = strip_fun(signature.get(term.func.name, BOOL))
            return (
                result == OBJ and len(args) == len(term.args)
                and all(object_term(a) for a in term.args if not isinstance(a, F.IntLit))
            )
        return False

    order: List[F.Term] = [F.NULL]
    for atom, value in literals:
        if isinstance(atom, F.Eq) and object_term(atom.lhs) and object_term(atom.rhs):
            order.extend((atom.lhs, atom.rhs))
            if value:
                parent[find(atom.lhs)] = find(atom.rhs)
    ids: Dict[F.Term, int] = {find(F.NULL): 0}
    for term in order:
        root = find(term)
        if root not in ids and len(ids) <= MAX_OBJECTS:
            ids[root] = len(ids)

    def value_of(term: F.Term) -> Optional[object]:
        if isinstance(term, F.IntLit):
            return term.value
        if isinstance(term, F.TupleTerm):
            items = [value_of(item) for item in term.items]
            return None if None in items else tuple(items)
        return ids.get(find(term)) if object_term(term) else None

    def cell(term: F.Term) -> Optional[Cell]:
        if isinstance(term, F.Var) and term.name in signature:
            return term.name, ()
        if isinstance(term, F.App) and isinstance(term.func, F.Var) and (
            term.func.name in signature
        ):
            args = tuple(value_of(a) for a in term.args)
            return None if None in args else (term.func.name, args)
        return None

    hints: Dict[Cell, object] = {}
    for term in order:
        key, value = cell(term), value_of(term)
        if key is not None and value is not None:
            hints.setdefault(key, value)
    for atom, value in literals:
        if F.is_app_of(atom, "elem") and isinstance(atom.args[1], F.Var):
            member = value_of(atom.args[0])
            if member is not None and atom.args[1].name in signature:
                hints.setdefault((atom.args[1].name, (member,)), value)
        elif not isinstance(atom, F.Eq):
            key = cell(atom)
            if key is not None and strip_fun(signature[key[0]])[1] == BOOL:
                hints.setdefault(key, value)
    return hints


def find_countermodel(
    sequent: Sequent,
    model: Iterable[Tuple[F.Term, bool]] = (),
    deadline: Optional[Deadline] = None,
) -> Optional[Countermodel]:
    """A checked finite countermodel of ``sequent``, or None.

    Every assumption in ``sequent.assumptions`` — not a hint-restricted or
    prover-sliced subset — must come out true and the goal false.
    ``model`` is an optional seed: ground atoms with their truth values in
    a candidate model (SMT's final propositional model).  The seed orders
    the search (see :func:`_seed_hints`); it never decides it.
    """
    compiled = _compile_sequent(sequent)
    if compiled is None:
        return None
    checks, signature = compiled
    hints = _seed_hints(model, signature)
    budget = [SEARCH_NODES]
    for k in range(1, MAX_OBJECTS + 1):
        try:
            cells = _search(checks, k, hints, budget, deadline)
        except _OutOfBudget:
            return None
        except (Unknown, TypeError, IndexError, AttributeError):
            return None
        if cells is not None and _confirmed(checks, k, cells):
            return Countermodel(
                objects=k,
                cells=tuple(sorted(cells.items(), key=repr)),
                signature=tuple(sorted(signature.items())),
            )
    return None
