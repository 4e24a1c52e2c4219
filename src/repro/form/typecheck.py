"""Type checking and inference for Jahob formulas.

The checker performs simple Hindley-Milner-style inference restricted to
rank-1 types: binder parameters without annotations receive fresh type
variables which are resolved by unification.  The result of
:func:`annotate` is an alpha-equivalent term in which every binder parameter
carries a concrete type, which downstream provers rely on to pick sorts.

The checker also resolves the one piece of overloading in the concrete
syntax: the binary ``-`` operator parses as ``minus`` and is re-resolved to
``setdiff`` when its operands are sets (the paper writes set difference with
the same symbol, e.g. ``content = old content - {(k0, result)} Un ...``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import ast as F
from .types import (
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
    subst_type,
    type_vars,
    unify,
)


class TypeError_(Exception):
    """Raised when a formula is ill-typed."""


@dataclass
class TypeEnv:
    """A typing environment: free variable names to their types.

    ``vars`` holds program variables, specification variables, field
    functions and class sets.  Unknown free variables are an error unless
    ``default_obj`` is set, in which case they default to type ``obj`` (this
    matches Jahob's treatment of program variables of reference type).
    """

    vars: Dict[str, Type] = field(default_factory=dict)
    default_obj: bool = True

    def copy(self) -> "TypeEnv":
        return TypeEnv(dict(self.vars), self.default_obj)

    def bind(self, name: str, typ: Type) -> None:
        self.vars[name] = typ

    def lookup(self, name: str) -> Optional[Type]:
        return self.vars.get(name)


class _Inference:
    def __init__(self, env: TypeEnv) -> None:
        self.env = env
        self.supply = TypeNameSupply("?t")
        self.subst: Dict[str, Type] = {}

    def fresh(self) -> TVar:
        return self.supply.fresh()

    def unify(self, t1: Type, t2: Type, context: str) -> None:
        try:
            self.subst = unify(t1, t2, self.subst)
        except UnificationError as exc:
            raise TypeError_(f"{context}: {exc}") from exc

    def resolve(self, typ: Type) -> Type:
        return subst_type(typ, self.subst)

    def instantiate(self, typ: Type) -> Type:
        """Instantiate the type variables of a built-in signature freshly."""
        mapping = {name: self.fresh() for name in set(type_vars(typ))}
        return subst_type(typ, mapping)

    # -- main traversal -----------------------------------------------------

    def infer(self, term: F.Term, bound: Dict[str, Type]) -> Tuple[Type, F.Term]:
        if isinstance(term, F.Var):
            if term.name in bound:
                return bound[term.name], term
            if F.is_builtin(term.name):
                return self.instantiate(F.BUILTIN_SIGNATURES[term.name]), term
            known = self.env.lookup(term.name)
            if known is not None:
                return known, term
            if self.env.default_obj:
                return OBJ, term
            raise TypeError_(f"unknown variable {term.name!r}")
        if isinstance(term, F.IntLit):
            return INT, term
        if isinstance(term, F.BoolLit):
            return BOOL, term
        if isinstance(term, F.Old):
            typ, inner = self.infer(term.term, bound)
            return typ, F.Old(inner)
        if isinstance(term, F.Not):
            typ, inner = self.infer(term.arg, bound)
            self.unify(typ, BOOL, "negation")
            return BOOL, F.Not(inner)
        if isinstance(term, (F.And, F.Or)):
            new_args = []
            for arg in term.args:
                typ, new_arg = self.infer(arg, bound)
                self.unify(typ, BOOL, "connective argument")
                new_args.append(new_arg)
            cls = type(term)
            return BOOL, cls(tuple(new_args))
        if isinstance(term, (F.Implies, F.Iff)):
            lt, lhs = self.infer(term.lhs, bound)
            rt, rhs = self.infer(term.rhs, bound)
            self.unify(lt, BOOL, "implication lhs")
            self.unify(rt, BOOL, "implication rhs")
            cls = type(term)
            return BOOL, cls(lhs, rhs)
        if isinstance(term, F.Eq):
            lt, lhs = self.infer(term.lhs, bound)
            rt, rhs = self.infer(term.rhs, bound)
            self.unify(lt, rt, "equality")
            return BOOL, F.Eq(lhs, rhs)
        if isinstance(term, F.Ite):
            ct, cond = self.infer(term.cond, bound)
            tt, then = self.infer(term.then, bound)
            et, els = self.infer(term.els, bound)
            self.unify(ct, BOOL, "ite condition")
            self.unify(tt, et, "ite branches")
            return self.resolve(tt), F.Ite(cond, then, els)
        if isinstance(term, F.TupleTerm):
            types = []
            items = []
            for item in term.items:
                t, new_item = self.infer(item, bound)
                types.append(t)
                items.append(new_item)
            return TTuple(tuple(types)), F.TupleTerm(tuple(items))
        if isinstance(term, F.Quant):
            new_bound, params = self._bind_params(term.params, bound)
            bt, body = self.infer(term.body, new_bound)
            self.unify(bt, BOOL, "quantifier body")
            params = self._resolve_params(params)
            return BOOL, F.Quant(term.kind, params, body)
        if isinstance(term, F.Lambda):
            new_bound, params = self._bind_params(term.params, bound)
            bt, body = self.infer(term.body, new_bound)
            params = self._resolve_params(params)
            result: Type = bt
            for _, ptype in reversed(params):
                result = TFun(ptype, result)
            return self.resolve(result), F.Lambda(params, body)
        if isinstance(term, F.SetCompr):
            new_bound, params = self._bind_params(term.params, bound)
            bt, body = self.infer(term.body, new_bound)
            self.unify(bt, BOOL, "set comprehension body")
            params = self._resolve_params(params)
            if len(params) == 1:
                elem_type: Type = params[0][1]
            else:
                elem_type = TTuple(tuple(p[1] for p in params))
            return TSet(self.resolve(elem_type)), F.SetCompr(params, body)
        if isinstance(term, F.App):
            return self._infer_app(term, bound)
        raise TypeError_(f"unknown term node {term!r}")

    def _bind_params(self, params, bound):
        new_bound = dict(bound)
        out_params = []
        for name, typ in params:
            if typ is None:
                typ = self.fresh()
            new_bound[name] = typ
            out_params.append((name, typ))
        return new_bound, out_params

    def _resolve_params(self, params):
        resolved = []
        for name, typ in params:
            typ = self.resolve(typ)
            if isinstance(typ, TVar):
                # Unconstrained binder variables default to obj, the dominant
                # sort in data structure specifications.
                typ = OBJ
            resolved.append((name, typ))
        return tuple(resolved)

    def _infer_app(self, term: F.App, bound) -> Tuple[Type, F.Term]:
        # Overloading of '-' : try integer minus, fall back to set difference.
        if (
            isinstance(term.func, F.Var)
            and term.func.name == "minus"
            and len(term.args) == 2
        ):
            saved_subst = dict(self.subst)
            try:
                return self._infer_app_plain(term, bound)
            except TypeError_:
                self.subst = saved_subst
                retry = F.App(F.Var("setdiff"), term.args)
                return self._infer_app_plain(retry, bound)
        return self._infer_app_plain(term, bound)

    def _infer_app_plain(self, term: F.App, bound) -> Tuple[Type, F.Term]:
        ftype, func = self.infer(term.func, bound)
        new_args = []
        for arg in term.args:
            at, new_arg = self.infer(arg, bound)
            res = self.fresh()
            self.unify(ftype, TFun(at, res), f"application of {func!r}")
            ftype = self.resolve(res)
            new_args.append(new_arg)
        return self.resolve(ftype), F.App(func, tuple(new_args))


def infer_type(term: F.Term, env: Optional[TypeEnv] = None) -> Type:
    """Infer and return the type of ``term`` under ``env``."""
    env = env or TypeEnv()
    inference = _Inference(env)
    typ, _ = inference.infer(term, {})
    return inference.resolve(typ)


def annotate(term: F.Term, env: Optional[TypeEnv] = None, expect: Optional[Type] = None) -> F.Term:
    """Type-check ``term`` and return it with all binder parameters typed.

    Raises :class:`TypeError_` when the term is ill-typed.
    """
    env = env or TypeEnv()
    inference = _Inference(env)
    typ, new_term = inference.infer(term, {})
    if expect is not None:
        inference.unify(typ, expect, "expected type")
    return _apply_param_subst(new_term, inference)


def check_formula(term: F.Term, env: Optional[TypeEnv] = None) -> F.Term:
    """Check that ``term`` is a well-typed boolean formula; return it annotated."""
    return annotate(term, env, expect=BOOL)


def check_formulas(
    terms: Sequence[F.Term], env: Optional[TypeEnv] = None
) -> Tuple[List[F.Term], Dict[str, Type]]:
    """Check several boolean formulas under one shared inference.

    Unlike :func:`check_formula`, a free name that ``env`` does not know gets
    its type from how the formulas use it (``f`` in ``p (f a)`` becomes a
    function) instead of defaulting to ``obj``.  Returns the annotated
    formulas and the type of every free name; type variables left
    unconstrained default to ``obj``, as unconstrained binders do.
    Raises :class:`TypeError_` when the formulas are ill-typed.
    """
    from .subst import free_vars

    scope = env.copy() if env is not None else TypeEnv()
    inference = _Inference(scope)
    names = sorted({name for term in terms for name in free_vars(term)})
    for name in names:
        if scope.lookup(name) is None:
            scope.bind(name, inference.fresh())
    annotated = []
    for term in terms:
        typ, new_term = inference.infer(term, {})
        inference.unify(typ, BOOL, "formula")
        annotated.append(new_term)
    annotated = [_apply_param_subst(term, inference) for term in annotated]
    resolved = {name: inference.resolve(scope.vars[name]) for name in names}
    defaults = {var: OBJ for typ in resolved.values() for var in type_vars(typ)}
    signature = {name: subst_type(typ, defaults) for name, typ in resolved.items()}
    return annotated, signature


def _apply_param_subst(term: F.Term, inference: _Inference) -> F.Term:
    """Resolve any remaining type variables in binder annotations."""
    if isinstance(term, (F.Var, F.IntLit, F.BoolLit)):
        return term
    if isinstance(term, F.App):
        return F.App(
            _apply_param_subst(term.func, inference),
            tuple(_apply_param_subst(a, inference) for a in term.args),
        )
    if isinstance(term, (F.Lambda, F.Quant, F.SetCompr)):
        params = []
        for name, typ in term.params:
            resolved = inference.resolve(typ) if typ is not None else OBJ
            if isinstance(resolved, TVar):
                resolved = OBJ
            params.append((name, resolved))
        body = _apply_param_subst(term.body, inference)
        if isinstance(term, F.Lambda):
            return F.Lambda(tuple(params), body)
        if isinstance(term, F.Quant):
            return F.Quant(term.kind, tuple(params), body)
        return F.SetCompr(tuple(params), body)
    if isinstance(term, F.TupleTerm):
        return F.TupleTerm(tuple(_apply_param_subst(i, inference) for i in term.items))
    if isinstance(term, F.Old):
        return F.Old(_apply_param_subst(term.term, inference))
    if isinstance(term, F.Not):
        return F.Not(_apply_param_subst(term.arg, inference))
    if isinstance(term, F.And):
        return F.And(tuple(_apply_param_subst(a, inference) for a in term.args))
    if isinstance(term, F.Or):
        return F.Or(tuple(_apply_param_subst(a, inference) for a in term.args))
    if isinstance(term, F.Implies):
        return F.Implies(
            _apply_param_subst(term.lhs, inference),
            _apply_param_subst(term.rhs, inference),
        )
    if isinstance(term, F.Iff):
        return F.Iff(
            _apply_param_subst(term.lhs, inference),
            _apply_param_subst(term.rhs, inference),
        )
    if isinstance(term, F.Eq):
        return F.Eq(
            _apply_param_subst(term.lhs, inference),
            _apply_param_subst(term.rhs, inference),
        )
    if isinstance(term, F.Ite):
        return F.Ite(
            _apply_param_subst(term.cond, inference),
            _apply_param_subst(term.then, inference),
            _apply_param_subst(term.els, inference),
        )
    raise TypeError_(f"unknown term node {term!r}")


def standard_env() -> TypeEnv:
    """A typing environment pre-populated with the heap model variables.

    The paper (Section 4.1) models the program memory with: one ``obj set``
    per class, one function per field, the global allocation set ``alloc``
    and an integer-valued ``arrayLength``.  Classes and fields are added by
    the resolver; this environment only holds what exists for every program.
    """
    env = TypeEnv()
    env.bind("alloc", TSet(OBJ))
    env.bind("Object", TSet(OBJ))
    env.bind("Object_alloc", TSet(OBJ))
    env.bind("arrayLength", fun_type([OBJ], INT))
    env.bind("arrayState", fun_type([OBJ, INT], OBJ))
    env.bind("result", OBJ)
    return env
