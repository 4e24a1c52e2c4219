"""Lint driver: run every analysis pass over a source file or program."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..java.lexer import JavaSyntaxError
from ..java.parser import parse_java
from ..java.resolver import Program, ResolveError, resolve
from .diagnostics import Diagnostic, Severity
from .frames import check_frames
from .lints import check_cfgs, check_hints, check_specs


@dataclass
class LintReport:
    """All findings for one source file, sorted by position."""

    file: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    @property
    def errors(self) -> int:
        return self.count(Severity.ERROR)

    @property
    def warnings(self) -> int:
        return self.count(Severity.WARNING)

    @property
    def infos(self) -> int:
        return self.count(Severity.INFO)

    def clean(self, strict: bool = False) -> bool:
        """No errors (and, with ``strict``, no warnings either)."""
        if strict:
            return self.errors == 0 and self.warnings == 0
        return self.errors == 0

    def render(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [
            diagnostic.render()
            for diagnostic in self.diagnostics
            if diagnostic.severity >= min_severity
        ]
        return "\n".join(lines)


def lint_program(program: Program, file: str = "<source>") -> LintReport:
    """Run every lint pass over an already-resolved program."""
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(check_specs(program, file))
    diagnostics.extend(check_hints(program, file))
    diagnostics.extend(check_frames(program, file))
    diagnostics.extend(check_cfgs(program, file))
    diagnostics.sort(key=Diagnostic.sort_key)
    return LintReport(file=file, diagnostics=diagnostics)


def lint_source(source: str, file: str = "<source>") -> LintReport:
    """Parse, resolve and lint mini-Java source text.

    Frontend failures (syntax errors, unresolvable specifications) become
    ``PARSE01``/``RESOLVE01`` error findings instead of exceptions, so the
    CLI can report every file it was given.
    """
    try:
        unit = parse_java(source)
    except JavaSyntaxError as exc:
        return LintReport(file=file, diagnostics=[Diagnostic(
            rule="PARSE01", severity=Severity.ERROR, message=str(exc),
            file=file, line=getattr(exc, "line", 0), column=getattr(exc, "column", 0),
        )])
    try:
        program = resolve(unit)
    except ResolveError as exc:
        return LintReport(file=file, diagnostics=[Diagnostic(
            rule="RESOLVE01", severity=Severity.ERROR, message=str(exc),
            file=file, line=getattr(exc, "line", 0),
            class_name=getattr(exc, "class_name", ""),
        )])
    except Exception as exc:  # malformed spec text outside ResolveError paths
        return LintReport(file=file, diagnostics=[Diagnostic(
            rule="RESOLVE01", severity=Severity.ERROR, message=str(exc), file=file,
        )])
    return lint_program(program, file)
