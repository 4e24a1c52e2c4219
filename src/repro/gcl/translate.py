"""Translation of mini-Java method bodies into extended guarded commands.

Follows Section 4.2 of the paper: statements become guarded commands,
implicit runtime checks (null dereferences, array bounds) become explicit
``assert`` commands, field and array assignments become assignments to
global function variables through functional updates, and allocation is
modelled as picking a fresh, previously unallocated object whose fields hold
their default values.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..form import ast as F
from ..form.parser import ParseError
from ..form.types import INT, OBJ, TFun
from ..java import ast as J
from ..java.resolver import Program
from ..spec import (
    AssertSpec,
    AssumeSpec,
    GhostAssign,
    HavocSpec,
    LocalSpecVar,
    NoteSpec,
    SpecParseError,
    parse_statement,
)
from .commands import Assert, Assign, Assume, Choice, Command, Havoc, If, Loop, Note, SKIP, Seq, seq


class TranslationError(Exception):
    """Raised when a construct is outside the supported Java subset."""


#: What :meth:`MethodTranslator.translate` raises on malformed specification
#: text inside a method body (a loop invariant or a ``//:`` statement).
SPEC_TEXT_ERRORS = (ParseError, SpecParseError)


@dataclass
class TranslationResult:
    command: Command
    locals_: List[str] = field(default_factory=list)
    #: Number of user-written ``assume`` specification statements in the
    #: body.  Each is a *trusted* proof step — the paper's headline claim is
    #: full verification with zero of them — so the count is surfaced
    #: through :class:`repro.core.report.MethodReport` and pinned by the
    #: suite regression tests.
    trusted_assumes: int = 0


class MethodTranslator:
    """Translates one method body, inserting the method's postcondition check
    at every return point."""

    def __init__(self, program: Program, method_owner: str, method: J.MethodDecl,
                 postcondition: F.Term, exit_invariants: Tuple[Tuple[str, F.Term], ...] = ()) -> None:
        self.program = program
        self.owner = method_owner
        self.method = method
        self.postcondition = postcondition
        self.exit_invariants = exit_invariants
        self.params = {name for _, name in method.params}
        self.locals: List[str] = []
        self.trusted_assumes = 0
        self._counter = itertools.count(1)
        self._pending_checks: List[Assert] = []
        #: Source line of the statement currently being translated; stamped
        #: onto every command produced so lint findings and CFG nodes can
        #: point back into the Java source.  When :meth:`translate` raises,
        #: it is the offending statement's line.
        self.line = 0

    # -- helpers ------------------------------------------------------------------

    def _fresh(self, base: str) -> str:
        return f"{base}_{next(self._counter)}"

    def _check(self, formula: F.Term, label: str) -> None:
        self._pending_checks.append(Assert(formula, label=label, line=self.line))

    def _take_checks(self) -> List[Command]:
        checks, self._pending_checks = self._pending_checks, []
        return list(checks)

    # -- expressions -----------------------------------------------------------------

    def expr(self, expression: J.Expr) -> F.Term:
        """Translate an expression, queueing the runtime checks it requires."""
        if isinstance(expression, J.IntLiteral):
            return F.IntLit(expression.value)
        if isinstance(expression, J.BoolLiteral):
            return F.BoolLit(expression.value)
        if isinstance(expression, J.NullLiteral):
            return F.NULL
        if isinstance(expression, J.VarRef):
            return F.Var(expression.name)
        if isinstance(expression, J.FieldAccess):
            if isinstance(expression.target, J.VarRef) and expression.target.name in self.program.class_names:
                # Static access C.f
                return F.Var(expression.field)
            target = self.expr(expression.target)
            self._check(F.mk_ne(target, F.NULL), "null-check")
            return F.App(F.Var(expression.field), (target,))
        if isinstance(expression, J.ArrayAccess):
            array = self.expr(expression.array)
            index = self.expr(expression.index)
            self._check(F.mk_ne(array, F.NULL), "null-check")
            self._check(F.app("lte", F.IntLit(0), index), "array-lower-bound")
            self._check(F.app("lt", index, F.app("arrayLength", array)), "array-upper-bound")
            return F.app("arrayRead", F.Var("arrayState"), array, index)
        if isinstance(expression, J.Unary):
            operand = self.expr(expression.operand)
            if expression.op == "!":
                return F.mk_not(operand)
            return F.app("uminus", operand)
        if isinstance(expression, J.Binary):
            left = self.expr(expression.left)
            right = self.expr(expression.right)
            op = expression.op
            if op == "==":
                return F.Eq(left, right)
            if op == "!=":
                return F.mk_ne(left, right)
            if op == "&&":
                return F.mk_and((left, right))
            if op == "||":
                return F.mk_or((left, right))
            mapping = {"<": "lt", "<=": "lte", ">": "gt", ">=": "gte",
                       "+": "plus", "-": "minus", "*": "times", "/": "div", "%": "mod"}
            if op in mapping:
                return F.app(mapping[op], left, right)
            raise TranslationError(f"unsupported operator {op!r}")
        if isinstance(expression, (J.NewObject, J.NewArray)):
            raise TranslationError("allocation is only supported directly on the right-hand side of an assignment")
        if isinstance(expression, J.Call):
            raise TranslationError(
                f"method call {expression.method!r} is outside the verified subset "
                "(the suite data structures are written call-free, as in the paper's examples)"
            )
        raise TranslationError(f"unsupported expression {expression!r}")

    # -- statements -------------------------------------------------------------------

    def block(self, block: J.Block) -> Command:
        commands: List[Command] = []
        for statement in block.statements:
            commands.append(self.statement(statement))
        return Seq(tuple(commands))

    def statement(self, statement: J.Stmt) -> Command:
        if getattr(statement, "line", 0):
            self.line = statement.line
        line = self.line
        if isinstance(statement, J.Block):
            return self.block(statement)
        if isinstance(statement, J.LocalDecl):
            self.locals.append(statement.name)
            if statement.init is None:
                return Havoc((statement.name,), line=line)
            return self._assignment(J.VarRef(statement.name), statement.init)
        if isinstance(statement, J.Assign):
            return self._assignment(statement.target, statement.value)
        if isinstance(statement, J.If):
            condition = self.expr(statement.condition)
            checks = self._take_checks()
            then_branch = self.block(statement.then_branch)
            else_branch = self.block(statement.else_branch) if statement.else_branch else SKIP
            return Seq(tuple(checks + [If(condition, then_branch, else_branch, line=line)]))
        if isinstance(statement, J.While):
            invariants = self._parse_loop_invariants(statement.invariants)
            condition = self.expr(statement.condition)
            checks = self._take_checks()
            body = self.block(statement.body)
            return Seq(tuple(checks + [Loop(tuple(invariants), condition, body, line=line)]))
        if isinstance(statement, J.Return):
            commands: List[Command] = []
            if statement.value is not None:
                value = self.expr(statement.value)
                commands.extend(self._take_checks())
                commands.append(Assign("result", value, line=line))
            commands.append(Assert(self.postcondition, label="post:return", line=line))
            for name, formula in self.exit_invariants:
                commands.append(Assert(formula, label=f"inv-exit:{name}", line=line))
            commands.append(Assume(F.FALSE, label="return-cut", line=line))
            return Seq(tuple(commands))
        if isinstance(statement, J.ExprStmt):
            raise TranslationError("expression statements (method calls) are outside the subset")
        if isinstance(statement, J.SpecStmt):
            return self._spec_statement(statement.text)
        raise TypeError(f"unknown statement {statement!r}")

    # -- assignments and allocation ----------------------------------------------------

    def _assignment(self, target: J.Expr, value: J.Expr) -> Command:
        if isinstance(value, (J.NewObject, J.NewArray)):
            return self._allocation(target, value)
        translated = self.expr(value)
        line = self.line
        if isinstance(target, J.VarRef):
            checks = self._take_checks()
            return Seq(tuple(checks + [Assign(target.name, translated, line=line)]))
        if isinstance(target, J.FieldAccess):
            if isinstance(target.target, J.VarRef) and target.target.name in self.program.class_names:
                checks = self._take_checks()
                return Seq(tuple(checks + [Assign(target.field, translated, line=line)]))
            receiver = self.expr(target.target)
            self._check(F.mk_ne(receiver, F.NULL), "null-check")
            checks = self._take_checks()
            update = F.mk_field_write(F.Var(target.field), receiver, translated)
            return Seq(tuple(checks + [Assign(target.field, update, line=line)]))
        if isinstance(target, J.ArrayAccess):
            array = self.expr(target.array)
            index = self.expr(target.index)
            self._check(F.mk_ne(array, F.NULL), "null-check")
            self._check(F.app("lte", F.IntLit(0), index), "array-lower-bound")
            self._check(F.app("lt", index, F.app("arrayLength", array)), "array-upper-bound")
            checks = self._take_checks()
            update = F.app("arrayWrite", F.Var("arrayState"), array, index, translated)
            return Seq(tuple(checks + [Assign("arrayState", update, line=line)]))
        raise TranslationError(f"unsupported assignment target {target!r}")

    def _allocation(self, target: J.Expr, value: J.Expr) -> Command:
        fresh = self._fresh("fresh")
        self.locals.append(fresh)
        fresh_var = F.Var(fresh)
        facts: List[F.Term] = [
            F.mk_ne(fresh_var, F.NULL),
            F.mk_not(F.mk_elem(fresh_var, F.ALLOC)),
        ]
        if isinstance(value, J.NewObject):
            facts.append(F.mk_elem(fresh_var, F.Var(value.class_name)))
            for info in self.program.fields.values():
                if info.is_static or info.owner != value.class_name:
                    continue
                default = F.IntLit(0) if info.value_type == INT else F.NULL
                facts.append(F.Eq(F.App(F.Var(info.name), (fresh_var,)), default))
            for name, hol_type in self.program.specvar_types.items():
                # Per-object ghost variables (function-typed) start at their declared value.
                if isinstance(hol_type, TFun) and name in self.program.specvar_inits:
                    facts.append(
                        F.Eq(F.App(F.Var(name), (fresh_var,)), self.program.specvar_inits[name])
                    )
        else:
            length = self.expr(value.length)
            facts.append(F.Eq(F.app("arrayLength", fresh_var), length))
            facts.append(
                F.Quant(
                    "ALL",
                    (("i", INT),),
                    F.Eq(F.app("arrayRead", F.Var("arrayState"), fresh_var, F.Var("i")), F.NULL),
                )
            )
        checks = self._take_checks()
        line = self.line
        allocation = [
            Havoc((fresh,), line=line),
            Assume(F.mk_and(tuple(facts)), label="new", line=line),
            Assign("alloc", F.mk_union(F.ALLOC, F.mk_singleton(fresh_var)), line=line),
        ]
        assignment = self._assignment(target, J.VarRef(fresh))
        return Seq(tuple(checks + allocation + [assignment]))

    # -- specification statements -----------------------------------------------------------

    def _spec_statement(self, text: str) -> Command:
        commands: List[Command] = []
        line = self.line
        for item in parse_statement(text):
            if isinstance(item, GhostAssign):
                commands.append(self._ghost_assign(item))
            elif isinstance(item, NoteSpec):
                commands.append(
                    Note(self.program.parse(item.formula_text), label=item.label,
                         hints=tuple(item.hints), line=line)
                )
            elif isinstance(item, AssertSpec):
                commands.append(
                    Assert(self.program.parse(item.formula_text), label=item.label,
                           hints=tuple(item.hints), line=line)
                )
            elif isinstance(item, AssumeSpec):
                self.trusted_assumes += 1
                commands.append(
                    Assume(self.program.parse(item.formula_text),
                           label=item.label, line=line, trusted=True)
                )
            elif isinstance(item, HavocSpec):
                such_that = self.program.parse(item.such_that_text) if item.such_that_text else None
                commands.append(Havoc(tuple(item.targets), such_that, line=line))
            elif isinstance(item, LocalSpecVar):
                self.locals.append(item.name)
                commands.append(Havoc((item.name,), line=line))
                if item.init_text:
                    commands.append(
                        Assume(F.Eq(F.Var(item.name), self.program.parse(item.init_text)),
                               label="specvar-init", line=line)
                    )
            else:  # pragma: no cover - parse_statement only returns the above
                raise TranslationError(f"unsupported specification statement {item!r}")
        return Seq(tuple(commands))

    def _ghost_assign(self, item: GhostAssign) -> Command:
        value = self.program.parse(item.expr_text)
        if ".." in item.target_text:
            receiver_text, _, field_name = item.target_text.rpartition("..")
            receiver = self.program.parse(receiver_text)
            update = F.mk_field_write(F.Var(field_name), receiver, value)
            return Assign(field_name, update, line=self.line)
        return Assign(item.target_text, value, line=self.line)

    # -- loop invariants -----------------------------------------------------------------------

    def _parse_loop_invariants(self, texts: List[str]) -> List[Tuple[str, F.Term]]:
        invariants: List[Tuple[str, F.Term]] = []
        for text in texts:
            # Accept `inv "..."`, `invariant Name: "..."` and bare `"..."`.
            for match in re.finditer(r'(?:inv(?:ariant)?\s*(\w+)?\s*:?\s*)?"([^"]*)"', text):
                name = match.group(1) or f"loopinv{len(invariants) + 1}"
                invariants.append((name, self.program.parse(match.group(2))))
        return invariants

    # -- entry point ------------------------------------------------------------------------------

    def translate(self) -> TranslationResult:
        if self.method.body is None:
            raise TranslationError(f"method {self.method.name} has no body")
        body = self.block(self.method.body)
        return TranslationResult(
            command=body, locals_=list(self.locals), trusted_assumes=self.trusted_assumes
        )
