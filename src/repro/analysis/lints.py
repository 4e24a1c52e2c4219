"""Spec well-formedness and CFG lint rules.

Rules (stable identifiers; see the "Static analysis & lint rules" section of
the ROADMAP):

================  ========  =====================================================
rule              severity  finding
================  ========  =====================================================
``SPEC01``        error     spec formula references an unknown field/variable
``SPEC02``        error     duplicate invariant label
``SPEC03``        info      universal quantifier admits no E-matching trigger
                            (``smt/instantiate.py`` will fall back to ground
                            enumeration)
``SPEC04``        error     spec formula fails to parse
``SPEC05``        error     a ``by`` hint names no assumption of its sequent
``CFG01``         warning   unreachable code
``CFG02``         error     reachable ``assume`` statement (the suite is
                            verified assume-free; ``assume False`` would
                            silently discharge everything after it)
``CFG03``         info      assert is statically dischargeable (dominated by
                            an identical assume / trivially true)
================  ========  =====================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..form import ast as F
from ..form.rewrite import simplify
from ..form.subst import free_vars
from ..gcl.commands import (
    Assert,
    Assume,
    Choice,
    Command,
    If,
    Loop,
    Note,
    Seq,
    desugar,
    seq_of,
)
from ..gcl.translate import SPEC_TEXT_ERRORS, MethodTranslator, TranslationError
from ..java.resolver import Program
from ..smt.instantiate import InstantiationConfig, infer_triggers
from ..vcgen.vcgen import _command_map, generate_method_vc
from .cfg import build_cfg
from .diagnostics import Diagnostic, Severity
from .discharge import find_dominated_asserts

#: Names known in every specification formula beyond fields/specvars/classes.
_AMBIENT = {"Object", "Object_alloc", "arrayLength", "arrayState", "alloc", "result", "this"}


# ---------------------------------------------------------------------------
# Spec well-formedness (SPEC01-04)
# ---------------------------------------------------------------------------


def _known_names(program: Program) -> Set[str]:
    return program.state_variables() | program.class_names | _AMBIENT


def _check_formula(
    program: Program,
    text: str,
    *,
    file: str,
    line: int,
    class_name: str,
    method_name: str,
    what: str,
    extra_known: Set[str] = frozenset(),
    diagnostics: List[Diagnostic],
) -> Optional[F.Term]:
    """Parse ``text`` and report unknown symbols; returns the parsed term."""
    try:
        formula = program.parse(text)
    except Exception as exc:
        diagnostics.append(Diagnostic(
            rule="SPEC04", severity=Severity.ERROR,
            message=f"{what} does not parse: {exc}",
            file=file, line=line, class_name=class_name, method_name=method_name,
        ))
        return None
    known = _known_names(program) | extra_known
    unknown = sorted(
        name for name in free_vars(formula)
        if name not in known and not name.startswith("old_")
    )
    for name in unknown:
        hint = ""
        simple = name.partition(".")[2] if "." in name else name
        candidates = _near_misses(simple, known)
        if candidates:
            hint = f" (did you mean {candidates[0]!r}?)"
        diagnostics.append(Diagnostic(
            rule="SPEC01", severity=Severity.ERROR,
            message=f"{what} references unknown name {name!r}{hint}",
            file=file, line=line, class_name=class_name, method_name=method_name,
        ))
    return formula


def _near_misses(name: str, known: Set[str]) -> List[str]:
    """Known names within edit distance 1-2 of ``name`` (cheap heuristic)."""

    def distance_le2(a: str, b: str) -> bool:
        if abs(len(a) - len(b)) > 2:
            return False
        # One-row Levenshtein with early exit at 2.
        previous = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            current = [i]
            for j, cb in enumerate(b, 1):
                current.append(min(previous[j] + 1, current[j - 1] + 1,
                                   previous[j - 1] + (ca != cb)))
            if min(current) > 2:
                return False
            previous = current
        return previous[-1] <= 2

    return sorted(k for k in known if k != name and distance_le2(name, k))


def _quantifiers(term: F.Term) -> List[F.Quant]:
    """All universal quantifiers in a formula, outermost first."""
    out: List[F.Quant] = []

    def walk(node: F.Term) -> None:
        if isinstance(node, F.Quant):
            if node.kind == "ALL":
                out.append(node)
            walk(node.body)
            return
        for child in _children(node):
            walk(child)

    walk(term)
    return out


def _children(node: F.Term) -> Sequence[F.Term]:
    if isinstance(node, F.App):
        return (node.func, *node.args)
    if isinstance(node, (F.Lambda, F.SetCompr)):
        return (node.body,)
    if isinstance(node, F.TupleTerm):
        return node.items
    if isinstance(node, F.Old):
        return (node.term,)
    if isinstance(node, F.Not):
        return (node.arg,)
    if isinstance(node, (F.And, F.Or)):
        return node.args
    if isinstance(node, (F.Implies, F.Iff, F.Eq)):
        return (node.lhs, node.rhs)
    if isinstance(node, F.Ite):
        return (node.cond, node.then, node.els)
    return ()


def _check_triggers(
    formula: F.Term,
    *,
    file: str,
    line: int,
    class_name: str,
    method_name: str,
    what: str,
    diagnostics: List[Diagnostic],
) -> None:
    config = InstantiationConfig()
    for quant in _quantifiers(formula):
        try:
            triggers = infer_triggers(quant, config)
        except Exception:  # never let a heuristic crash the lint
            continue
        if not triggers:
            bound = ", ".join(name for name, _ in quant.params)
            diagnostics.append(Diagnostic(
                rule="SPEC03", severity=Severity.INFO,
                message=(
                    f"{what}: quantifier over {bound} admits no E-matching "
                    "trigger; SMT instantiation will fall back to ground "
                    "enumeration"
                ),
                file=file, line=line, class_name=class_name, method_name=method_name,
            ))


def check_specs(program: Program, file: str = "<source>") -> List[Diagnostic]:
    """SPEC01-04 over every invariant, vardef, specvar init and contract."""
    diagnostics: List[Diagnostic] = []

    seen_labels: Dict[str, Tuple[str, int]] = {}
    for class_name, spec in sorted(program.class_specs.items()):
        for specvar in spec.specvars:
            if specvar.init_text:
                _check_formula(
                    program, specvar.init_text, file=file, line=specvar.line,
                    class_name=class_name, method_name="",
                    what=f"initialiser of specvar {specvar.name!r}",
                    diagnostics=diagnostics)
        for vardef in spec.vardefs:
            _check_formula(
                program, vardef.definition_text, file=file, line=vardef.line,
                class_name=class_name, method_name="",
                what=f"vardefs of {vardef.name!r}", diagnostics=diagnostics)
        for invariant in spec.invariants:
            if invariant.name in seen_labels:
                other_class, other_line = seen_labels[invariant.name]
                where = f"line {other_line}" if other_line else other_class
                diagnostics.append(Diagnostic(
                    rule="SPEC02", severity=Severity.ERROR,
                    message=(f"duplicate invariant label {invariant.name!r} "
                             f"(first declared at {where})"),
                    file=file, line=invariant.line, class_name=class_name,
                ))
            else:
                seen_labels[invariant.name] = (class_name, invariant.line)
            formula = _check_formula(
                program, invariant.formula_text, file=file, line=invariant.line,
                class_name=class_name, method_name="",
                what=f"invariant {invariant.name!r}", diagnostics=diagnostics)
            if formula is not None:
                _check_triggers(
                    formula, file=file, line=invariant.line, class_name=class_name,
                    method_name="", what=f"invariant {invariant.name!r}",
                    diagnostics=diagnostics)

    for (class_name, method_name), info in sorted(program.methods.items()):
        params = {name for _, name in info.decl.params}
        contract = info.contract
        for what, text, line in (
            ("requires clause", contract.requires_text,
             contract.requires_line or info.decl.contract_line or info.decl.line),
            ("ensures clause", contract.ensures_text,
             contract.ensures_line or info.decl.contract_line or info.decl.line),
        ):
            if text.strip() == "True":
                continue
            formula = _check_formula(
                program, text, file=file, line=line, class_name=class_name,
                method_name=method_name, what=what, extra_known=params,
                diagnostics=diagnostics)
            if formula is not None:
                _check_triggers(
                    formula, file=file, line=line, class_name=class_name,
                    method_name=method_name, what=what, diagnostics=diagnostics)
        for name in contract.modifies:
            simple = name.partition(".")[2] if "." in name else name
            if simple not in program.state_variables():
                diagnostics.append(Diagnostic(
                    rule="SPEC01", severity=Severity.ERROR,
                    message=f"modifies clause lists unknown state variable {name!r}",
                    file=file, line=contract.modifies_line or info.decl.line,
                    class_name=class_name, method_name=method_name,
                ))
    return diagnostics


def _hinted(command: Command) -> List[Union[Assert, Note]]:
    """The ``assert``/``note`` statements of a method body that carry ``by``
    hints, in program order."""
    if isinstance(command, (Assert, Note)):
        return [command] if command.hints else []
    if isinstance(command, Seq):
        return [found for sub in command.commands for found in _hinted(sub)]
    if isinstance(command, Choice):
        return _hinted(command.left) + _hinted(command.right)
    if isinstance(command, If):
        return _hinted(command.then_branch) + _hinted(command.else_branch)
    if isinstance(command, Loop):
        return _hinted(command.body)
    return []


def check_hints(program: Program, file: str = "<source>") -> List[Diagnostic]:
    """SPEC05: every ``by`` hint must select an assumption of its sequent.

    A hint that selects nothing is silently useless: the prover sees the
    other hints' assumptions only (or, if none match, all of them), not the
    fact the author meant.  Only methods with hinted statements pay for VC
    generation.  This is the first pass to translate every method body, so
    it also reports malformed spec text inside a body (a loop invariant or a
    ``//:`` statement) as SPEC04 on the offending statement's line.
    """
    diagnostics: List[Diagnostic] = []
    for (class_name, method_name), info in sorted(program.methods.items()):
        if info.decl.body is None:
            continue
        translator = MethodTranslator(program, class_name, info.decl, postcondition=F.TRUE)
        try:
            hinted = _hinted(translator.translate().command)
        except TranslationError:
            continue
        except SPEC_TEXT_ERRORS as exc:
            diagnostics.append(Diagnostic(
                rule="SPEC04", severity=Severity.ERROR,
                message=f"specification in the method body does not parse: {exc}",
                file=file, line=translator.line,
                class_name=class_name, method_name=method_name,
            ))
            continue
        if not hinted:
            continue
        lines = {command.label: command.line for command in hinted}
        try:
            sequents = generate_method_vc(program, class_name, method_name).sequents
        except SPEC_TEXT_ERRORS:
            continue  # malformed contract text, reported by check_specs
        reported = set()
        for sequent in sequents:
            label = sequent.origin[len(f"{class_name}.{method_name}:"):]
            for hint in sequent.unmatched_hints():
                if (label, hint) in reported:
                    continue
                reported.add((label, hint))
                diagnostics.append(Diagnostic(
                    rule="SPEC05", severity=Severity.ERROR,
                    message=(f"'by' hint {hint!r} of {label!r} names no assumption "
                             "(neither a label nor an invariant)"),
                    file=file, line=lines.get(label, info.decl.line),
                    class_name=class_name, method_name=method_name,
                ))
    return diagnostics


# ---------------------------------------------------------------------------
# CFG lints (CFG01-03)
# ---------------------------------------------------------------------------


def check_method_cfg(
    program: Program, class_name: str, method_name: str, file: str = "<source>"
) -> List[Diagnostic]:
    """CFG01-03 for one method body."""
    info = program.method(class_name, method_name)
    if info.decl.body is None:
        return []
    diagnostics: List[Diagnostic] = []
    translator = MethodTranslator(program, class_name, info.decl, postcondition=F.TRUE)
    try:
        translation = translator.translate()
    except (TranslationError, *SPEC_TEXT_ERRORS):
        return []  # outside the subset (the verifier reports it) or SPEC04's
    # Model the method entry the way the VC generator does: the requires
    # clause and the class invariants hold on entry.  Without them CFG03
    # would miss asserts dominated by the precondition.
    entry: List[Command] = []
    for label, text in [("pre", info.contract.requires_text)] + [
        (f"inv:{inv.name}", inv.formula_text)
        for spec in program.class_specs.values()
        for inv in spec.invariants
    ]:
        if not text:
            continue
        try:
            entry.append(Assume(program.parse(text), label=label))
        except Exception:
            continue  # unparsable spec text is SPEC04's business
    # Fold constants so `if (true) ... else ...` exposes its dead branch as
    # a literal `assume False`.
    body = _command_map(
        desugar(seq_of([*entry, translation.command])), simplify
    )
    cfg = build_cfg(body)

    reachable = cfg.reachable_commands()
    reachable_ids = {id(cmd) for cmd, _ in reachable}
    all_commands = [cmd for block in cfg.blocks for cmd in block.commands]

    def common(line: int) -> dict:
        return dict(file=file, line=line, class_name=class_name, method_name=method_name)

    # CFG01: user code (line-stamped) never reached on any path.
    reachable_lines = {cmd.line for cmd, _ in reachable if cmd.line}
    unreachable_lines = sorted({
        cmd.line for cmd in all_commands
        if cmd.line and id(cmd) not in reachable_ids and cmd.line not in reachable_lines
    })
    for line in unreachable_lines:
        diagnostics.append(Diagnostic(
            rule="CFG01", severity=Severity.WARNING,
            message="unreachable code (no path from the method entry reaches it)",
            **common(line)))

    # CFG02: a reachable user-written assume weakens the obligation.
    for cmd, _block in reachable:
        if isinstance(cmd, Assume) and cmd.trusted:
            detail = "assume False" if cmd.formula == F.FALSE else "assume statement"
            diagnostics.append(Diagnostic(
                rule="CFG02", severity=Severity.ERROR,
                message=(f"reachable {detail}: it is trusted, not proved "
                         "(the suite verifies assume-free)"),
                **common(cmd.line)))

    # CFG03: asserts that dataflow facts alone settle, without a prover.
    # Vacuous ones (dead code past an ``assume False``) are CFG01's business.
    for dominated in find_dominated_asserts(body, cfg):
        cmd = dominated.command
        if not cmd.line or dominated.reason == "unreachable":
            continue
        diagnostics.append(Diagnostic(
            rule="CFG03", severity=Severity.INFO,
            message=(f"assert {cmd.label or ''}".strip() +
                     f" is statically dischargeable ({dominated.reason})"),
            **common(cmd.line)))
    return diagnostics


def check_cfgs(program: Program, file: str = "<source>") -> List[Diagnostic]:
    """CFG lints over every method with a body."""
    diagnostics: List[Diagnostic] = []
    for (class_name, method_name) in sorted(program.methods):
        diagnostics.extend(check_method_cfg(program, class_name, method_name, file))
    return diagnostics
