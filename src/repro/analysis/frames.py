"""Frame (``modifies``) checking: a method's write effects versus its contract.

The suite's frame convention (which matches how the VC generator emits frame
conjuncts — see ``generate_method_vc``) is:

* ``modifies`` lists the *public* abstract state a method may change —
  public specification variables and public fields;
* private/package state of the method's own class, all members of classes
  ``claimedby`` it (their representation belongs to it), ``alloc`` and
  ``arrayState`` (array cells — ownership of individual cells is not
  tracked) are implicitly modifiable: callers cannot name them, so they
  never appear in frames;
* writes to members of an *unrelated* class are suspicious even when
  non-public — the class does not own that representation.

``method_effects`` computes the write effects from
:func:`repro.gcl.commands.assigned_variables` over the translated body —
field and array stores become assignments to the global field/``arrayState``
functions, so heap writes are covered — and ``check_frames`` reports every
effect the contract does not license.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..form import ast as F
from ..gcl.commands import Assign, Choice, Command, Havoc, If, Loop, Seq
from ..gcl.translate import SPEC_TEXT_ERRORS, MethodTranslator, TranslationError
from ..java.resolver import MethodInfo, Program
from .diagnostics import Diagnostic, Severity

#: State variables every method may change without declaring them.
IMPLICIT_STATE = {"alloc", "arrayState"}


def collect_writes(command: Command) -> Dict[str, int]:
    """Map each written variable to the first source line writing it."""
    writes: Dict[str, int] = {}

    def note(name: str, line: int) -> None:
        if name not in writes or (line and not writes[name]):
            writes[name] = line
        elif line and writes[name] and line < writes[name]:
            writes[name] = line

    def walk(cmd: Command) -> None:
        if isinstance(cmd, Assign):
            note(cmd.variable, cmd.line)
        elif isinstance(cmd, Havoc):
            for name in cmd.variables:
                note(name, cmd.line)
        elif isinstance(cmd, Seq):
            for sub in cmd.commands:
                walk(sub)
        elif isinstance(cmd, Choice):
            walk(cmd.left)
            walk(cmd.right)
        elif isinstance(cmd, If):
            walk(cmd.then_branch)
            walk(cmd.else_branch)
        elif isinstance(cmd, Loop):
            walk(cmd.body)

    walk(command)
    return writes


@dataclass
class MethodEffects:
    """The state variables a method writes, with first-write lines."""

    class_name: str
    method_name: str
    writes: Dict[str, int]  # state variable -> first source line (0 unknown)


def method_effects(program: Program, class_name: str, method_name: str) -> Optional[MethodEffects]:
    """Write effects of one method, restricted to global state variables.

    Returns None for body-less (abstract) methods.
    """
    info: MethodInfo = program.method(class_name, method_name)
    if info.decl.body is None:
        return None
    translator = MethodTranslator(program, class_name, info.decl, postcondition=F.TRUE)
    translation = translator.translate()
    state = program.state_variables()
    writes = {
        name: line
        for name, line in collect_writes(translation.command).items()
        if name in state
    }
    return MethodEffects(class_name, method_name, writes)


def _claimed_by(program: Program) -> Dict[str, str]:
    """Map each class name to the class claiming it (if any)."""
    return {
        cls.name: cls.claimed_by
        for cls in program.unit.classes
        if cls.claimed_by is not None
    }


def _specvar_owners(program: Program) -> Dict[str, str]:
    owners: Dict[str, str] = {}
    for class_name, spec in program.class_specs.items():
        for specvar in spec.specvars:
            owners[specvar.name] = class_name
    return owners


def check_frames(program: Program, file: str = "<source>") -> List[Diagnostic]:
    """Frame-check every contracted method of the program."""
    diagnostics: List[Diagnostic] = []
    claimed = _claimed_by(program)
    specvar_owner = _specvar_owners(program)

    for (class_name, method_name), info in sorted(program.methods.items()):
        if info.decl.body is None:
            continue
        try:
            effects = method_effects(program, class_name, method_name)
        except (TranslationError, *SPEC_TEXT_ERRORS):
            # Outside the verified subset, which the verifier reports itself,
            # or malformed spec text in the body, which SPEC04 reports.
            continue
        if effects is None:
            continue
        declared = set(info.contract.modifies)
        # `modifies C.f` and `modifies f` both license writing field f.
        declared |= {name.partition(".")[2] for name in declared if "." in name}
        for name, line in sorted(effects.writes.items()):
            if name in declared or name in IMPLICIT_STATE:
                continue
            diagnostic = _classify_write(
                program, claimed, specvar_owner, class_name, method_name, name)
            if diagnostic is None:
                continue
            rule, severity, message = diagnostic
            diagnostics.append(
                Diagnostic(
                    rule=rule,
                    severity=severity,
                    message=message,
                    file=file,
                    line=line or info.decl.line,
                    class_name=class_name,
                    method_name=method_name,
                )
            )
    return diagnostics


def _classify_write(
    program: Program,
    claimed: Dict[str, str],
    specvar_owner: Dict[str, str],
    class_name: str,
    method_name: str,
    name: str,
):
    """Decide whether an undeclared write to ``name`` is a finding."""
    if name in program.specvar_types:
        owner = specvar_owner.get(name, class_name)
        is_public = name in program.public_specvars
        if is_public:
            return (
                "FRAME01",
                Severity.ERROR,
                f"writes public specvar {name!r} not listed in the modifies clause",
            )
        if owner == class_name or claimed.get(owner) == class_name:
            return None  # private ghost state of this class (or its representation)
        return (
            "FRAME02",
            Severity.WARNING,
            f"writes specvar {name!r} owned by unrelated class {owner!r}",
        )
    info = program.fields.get(name)
    if info is None:
        return None  # not a field or specvar (alloc/arrayState handled above)
    owner = info.owner
    if claimed.get(owner) == class_name:
        return None  # representation of a claimed class, any visibility
    if owner == class_name:
        if info.visibility != "public":
            return None  # encapsulated representation of this class
        return (
            "FRAME01",
            Severity.ERROR,
            f"writes public field {owner}.{name} not listed in the modifies clause",
        )
    return (
        "FRAME02",
        Severity.WARNING,
        f"writes field {owner}.{name} of unrelated class {owner!r} "
        "without declaring it in the modifies clause",
    )
