"""Free variables, capture-avoiding substitution, and beta reduction."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set

from .ast import (
    And,
    App,
    BoolLit,
    Eq,
    Iff,
    Implies,
    IntLit,
    Ite,
    Lambda,
    Not,
    Old,
    Or,
    Quant,
    SetCompr,
    Term,
    TupleTerm,
    Var,
    is_builtin,
)


def free_vars(term: Term) -> FrozenSet[str]:
    """The set of free variable names of ``term``.

    Built-in operator names (``union``, ``null``, ...) are *not* reported as
    free variables.
    """
    return _free_vars(term, frozenset())


def free_vars_with_builtins(term: Term) -> FrozenSet[str]:
    """Like :func:`free_vars` but including built-in operator names."""
    return _free_vars(term, frozenset(), include_builtins=True)


def _free_vars(term: Term, bound: FrozenSet[str], include_builtins: bool = False) -> FrozenSet[str]:
    if isinstance(term, Var):
        if term.name in bound:
            return frozenset()
        if not include_builtins and is_builtin(term.name):
            return frozenset()
        return frozenset({term.name})
    if isinstance(term, (IntLit, BoolLit)):
        return frozenset()
    if isinstance(term, App):
        out = _free_vars(term.func, bound, include_builtins)
        for arg in term.args:
            out |= _free_vars(arg, bound, include_builtins)
        return out
    if isinstance(term, (Lambda, Quant, SetCompr)):
        inner_bound = bound | {name for name, _ in term.params}
        return _free_vars(term.body, inner_bound, include_builtins)
    if isinstance(term, TupleTerm):
        out = frozenset()
        for item in term.items:
            out |= _free_vars(item, bound, include_builtins)
        return out
    if isinstance(term, Old):
        return _free_vars(term.term, bound, include_builtins)
    if isinstance(term, Not):
        return _free_vars(term.arg, bound, include_builtins)
    if isinstance(term, (And, Or)):
        out = frozenset()
        for arg in term.args:
            out |= _free_vars(arg, bound, include_builtins)
        return out
    if isinstance(term, (Implies, Iff, Eq)):
        return _free_vars(term.lhs, bound, include_builtins) | _free_vars(
            term.rhs, bound, include_builtins
        )
    if isinstance(term, Ite):
        return (
            _free_vars(term.cond, bound, include_builtins)
            | _free_vars(term.then, bound, include_builtins)
            | _free_vars(term.els, bound, include_builtins)
        )
    raise TypeError(f"unknown term node: {term!r}")


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    """A single fresh name based on ``base`` avoiding the names in ``avoid``."""
    avoid = set(avoid)
    if base not in avoid:
        return base
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def substitute(term: Term, mapping: Dict[str, Term]) -> Term:
    """Capture-avoiding simultaneous substitution of variables by terms."""
    if not mapping:
        return term
    # Pre-compute the free variables of the replacement terms once.
    replacement_fvs: Set[str] = set()
    for repl in mapping.values():
        replacement_fvs |= free_vars(repl)
    return _subst(term, dict(mapping), replacement_fvs)


def _rename_params(params, body, mapping, replacement_fvs):
    """Rename binder parameters to avoid capture; returns (params, body, mapping)."""
    mapping = {k: v for k, v in mapping.items()}
    for name, _typ in params:
        mapping.pop(name, None)
    body_fvs = free_vars(body)
    if not any(key in body_fvs for key in mapping):
        # Nothing will be substituted under this binder: no renaming needed.
        return tuple(params), body, {}
    new_params = []
    renamings: Dict[str, Term] = {}
    used = set(replacement_fvs) | free_vars(body) | {p for p, _ in params}
    for name, typ in params:
        mapping.pop(name, None)
        if name in replacement_fvs:
            new_name = fresh_name(name, used)
            used.add(new_name)
            renamings[name] = Var(new_name)
            new_params.append((new_name, typ))
        else:
            new_params.append((name, typ))
    if renamings:
        body = _subst(body, renamings, set())
    return tuple(new_params), body, mapping


def _subst(term: Term, mapping: Dict[str, Term], replacement_fvs: Set[str]) -> Term:
    # Identity-preserving: a subtree the substitution does not touch comes
    # back as the same object, so sharing (e.g. interned DAGs) survives and
    # identity-keyed caches downstream keep hitting.
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, (IntLit, BoolLit)):
        return term
    if isinstance(term, App):
        func = _subst(term.func, mapping, replacement_fvs)
        args = tuple(_subst(a, mapping, replacement_fvs) for a in term.args)
        if func is term.func and all(a is b for a, b in zip(args, term.args)):
            return term
        return App(func, args)
    if isinstance(term, (Lambda, Quant, SetCompr)):
        params, body, inner_map = _rename_params(
            term.params, term.body, mapping, replacement_fvs
        )
        inner_map = {k: v for k, v in inner_map.items() if k not in {p for p, _ in params}}
        new_body = _subst(body, inner_map, replacement_fvs) if inner_map else body
        if new_body is term.body and params == term.params:
            return term
        if isinstance(term, Lambda):
            return Lambda(params, new_body)
        if isinstance(term, Quant):
            return Quant(term.kind, params, new_body)
        return SetCompr(params, new_body)
    if isinstance(term, TupleTerm):
        items = tuple(_subst(i, mapping, replacement_fvs) for i in term.items)
        if all(a is b for a, b in zip(items, term.items)):
            return term
        return TupleTerm(items)
    if isinstance(term, Old):
        inner = _subst(term.term, mapping, replacement_fvs)
        return term if inner is term.term else Old(inner)
    if isinstance(term, Not):
        inner = _subst(term.arg, mapping, replacement_fvs)
        return term if inner is term.arg else Not(inner)
    if isinstance(term, (And, Or)):
        args = tuple(_subst(a, mapping, replacement_fvs) for a in term.args)
        if all(a is b for a, b in zip(args, term.args)):
            return term
        return And(args) if isinstance(term, And) else Or(args)
    if isinstance(term, (Implies, Iff, Eq)):
        lhs = _subst(term.lhs, mapping, replacement_fvs)
        rhs = _subst(term.rhs, mapping, replacement_fvs)
        if lhs is term.lhs and rhs is term.rhs:
            return term
        return type(term)(lhs, rhs)
    if isinstance(term, Ite):
        cond = _subst(term.cond, mapping, replacement_fvs)
        then = _subst(term.then, mapping, replacement_fvs)
        els = _subst(term.els, mapping, replacement_fvs)
        if cond is term.cond and then is term.then and els is term.els:
            return term
        return Ite(cond, then, els)
    raise TypeError(f"unknown term node: {term!r}")


def beta_reduce(term: Term) -> Term:
    """Fully beta-reduce ``term`` (normal-order, with a fuel limit).

    Specification definitions use lambda abstraction heavily (per-object
    specification fields, the ``edge`` shorthand of Figure 4); beta reduction
    is the first formula-approximation rewrite the paper applies
    (Section 5.3).
    """
    for _ in range(200):
        reduced, changed = _beta_step(term)
        if not changed:
            return reduced
        term = reduced
    return term


def _beta_step(term: Term):
    if isinstance(term, App):
        func, fchanged = _beta_step(term.func)
        args = []
        achanged = False
        for a in term.args:
            new_a, ch = _beta_step(a)
            args.append(new_a)
            achanged = achanged or ch
        if isinstance(func, Lambda):
            nparams = len(func.params)
            nargs = len(args)
            take = min(nparams, nargs)
            mapping = {}
            for (name, _typ), value in zip(func.params[:take], args[:take]):
                mapping[name] = value
            body = substitute(func.body, mapping)
            if take < nparams:
                body = Lambda(func.params[take:], body)
            if take < nargs:
                body = App(body, tuple(args[take:]))
            return body, True
        new = App(func, tuple(args))
        return new, fchanged or achanged
    if isinstance(term, (Var, IntLit, BoolLit)):
        return term, False
    if isinstance(term, Lambda):
        body, ch = _beta_step(term.body)
        return (Lambda(term.params, body), ch) if ch else (term, False)
    if isinstance(term, Quant):
        body, ch = _beta_step(term.body)
        return (Quant(term.kind, term.params, body), ch) if ch else (term, False)
    if isinstance(term, SetCompr):
        body, ch = _beta_step(term.body)
        return (SetCompr(term.params, body), ch) if ch else (term, False)
    if isinstance(term, TupleTerm):
        items = []
        changed = False
        for i in term.items:
            ni, ch = _beta_step(i)
            items.append(ni)
            changed = changed or ch
        return (TupleTerm(tuple(items)), changed) if changed else (term, False)
    if isinstance(term, Old):
        inner, ch = _beta_step(term.term)
        return (Old(inner), ch) if ch else (term, False)
    if isinstance(term, Not):
        inner, ch = _beta_step(term.arg)
        return (Not(inner), ch) if ch else (term, False)
    if isinstance(term, (And, Or)):
        args = []
        changed = False
        for a in term.args:
            na, ch = _beta_step(a)
            args.append(na)
            changed = changed or ch
        if not changed:
            return term, False
        return (And(tuple(args)) if isinstance(term, And) else Or(tuple(args))), True
    if isinstance(term, (Implies, Iff, Eq)):
        lhs, c1 = _beta_step(term.lhs)
        rhs, c2 = _beta_step(term.rhs)
        if not (c1 or c2):
            return term, False
        cls = type(term)
        return cls(lhs, rhs), True
    if isinstance(term, Ite):
        cond, c1 = _beta_step(term.cond)
        then, c2 = _beta_step(term.then)
        els, c3 = _beta_step(term.els)
        if not (c1 or c2 or c3):
            return term, False
        return Ite(cond, then, els), True
    raise TypeError(f"unknown term node: {term!r}")


def alpha_equal(t1: Term, t2: Term) -> bool:
    """Alpha-equivalence of two terms."""
    return _alpha(t1, t2, {}, {})


def _alpha(t1: Term, t2: Term, env1: Dict[str, int], env2: Dict[str, int]) -> bool:
    if type(t1) is not type(t2):
        return False
    if isinstance(t1, Var):
        b1 = env1.get(t1.name)
        b2 = env2.get(t2.name)
        if b1 is None and b2 is None:
            return t1.name == t2.name
        return b1 == b2
    if isinstance(t1, (IntLit, BoolLit)):
        return t1 == t2
    if isinstance(t1, App):
        return (
            len(t1.args) == len(t2.args)
            and _alpha(t1.func, t2.func, env1, env2)
            and all(_alpha(a, b, env1, env2) for a, b in zip(t1.args, t2.args))
        )
    if isinstance(t1, (Lambda, Quant, SetCompr)):
        if isinstance(t1, Quant) and t1.kind != t2.kind:
            return False
        if len(t1.params) != len(t2.params):
            return False
        depth = len(env1)
        new_env1 = dict(env1)
        new_env2 = dict(env2)
        for i, ((n1, _), (n2, _)) in enumerate(zip(t1.params, t2.params)):
            new_env1[n1] = depth + i
            new_env2[n2] = depth + i
        return _alpha(t1.body, t2.body, new_env1, new_env2)
    if isinstance(t1, TupleTerm):
        return len(t1.items) == len(t2.items) and all(
            _alpha(a, b, env1, env2) for a, b in zip(t1.items, t2.items)
        )
    if isinstance(t1, Old):
        return _alpha(t1.term, t2.term, env1, env2)
    if isinstance(t1, Not):
        return _alpha(t1.arg, t2.arg, env1, env2)
    if isinstance(t1, (And, Or)):
        return len(t1.args) == len(t2.args) and all(
            _alpha(a, b, env1, env2) for a, b in zip(t1.args, t2.args)
        )
    if isinstance(t1, (Implies, Iff, Eq)):
        return _alpha(t1.lhs, t2.lhs, env1, env2) and _alpha(t1.rhs, t2.rhs, env1, env2)
    if isinstance(t1, Ite):
        return (
            _alpha(t1.cond, t2.cond, env1, env2)
            and _alpha(t1.then, t2.then, env1, env2)
            and _alpha(t1.els, t2.els, env1, env2)
        )
    raise TypeError(f"unknown term node: {t1!r}")
