"""Mutation tests pinning lint precision on the bundled suite.

Each corruption of a pristine suite source must trigger exactly the intended
diagnostic (and nothing else at error/warning severity); the pristine suite
must lint clean at error/warning severity — which is what lets CI run
``python -m repro.lint --strict --suite``.
"""

import pytest

from repro import suite
from repro.analysis import lint_source


def _pristine():
    return suite.source("SinglyLinkedList")


def _hard_findings(report):
    """Errors and warnings (severity >= WARNING); infos are advisory."""
    return [d for d in report.diagnostics if d.severity >= 1]


@pytest.mark.parametrize("name", suite.names())
def test_pristine_suite_lints_clean(name):
    report = lint_source(suite.source(name), file=f"{name}.java")
    assert report.errors == 0, report.render()
    assert report.warnings == 0, report.render()
    assert report.clean(strict=True)


def test_misspelled_field_in_invariant_triggers_spec01():
    source = _pristine().replace(
        'invariant FirstData: "first ~= null --> first..data : content"',
        'invariant FirstData: "first ~= null --> first..data : contnet"',
    )
    assert source != _pristine()
    findings = _hard_findings(lint_source(source))
    assert [d.rule for d in findings] == ["SPEC01"]
    assert "contnet" in findings[0].message
    assert "did you mean 'content'?" in findings[0].message


def test_write_outside_modifies_triggers_frame01():
    source = _pristine().replace(
        '/*: requires "True"\n        modifies content\n        ensures "content = {}" */',
        '/*: requires "True"\n        ensures "content = {}" */',
    )
    assert source != _pristine()
    findings = _hard_findings(lint_source(source))
    assert [d.rule for d in findings] == ["FRAME01"]
    assert "content" in findings[0].message
    assert findings[0].method_name == "clear"


def test_reintroduced_assume_false_triggers_cfg02():
    source = _pristine().replace(
        'first = null;\n        //: content := "{}";',
        'first = null;\n        //: assume Cheat: "False";\n        //: content := "{}";',
    )
    assert source != _pristine()
    findings = _hard_findings(lint_source(source))
    rules = [d.rule for d in findings]
    # The assume is the error; everything after it is dead code (CFG01).
    assert rules.count("CFG02") == 1
    assert set(rules) <= {"CFG01", "CFG02"}
    cfg02 = next(d for d in findings if d.rule == "CFG02")
    assert "assume False" in cfg02.message
    assert cfg02.severity == 2  # error


def test_unreachable_statement_triggers_cfg01():
    source = _pristine().replace(
        "return first == null;",
        "if (first == null) { return true; }\n"
        "        return false;\n"
        "        first = null;",
    )
    assert source != _pristine()
    findings = _hard_findings(lint_source(source))
    assert [d.rule for d in findings] == ["CFG01"]
    assert findings[0].method_name == "isEmpty"


def test_each_mutation_reports_a_source_line():
    source = _pristine().replace(
        'invariant NullNotIn: "null ~: content"',
        'invariant NullNotIn: "null ~: contents"',
    )
    findings = _hard_findings(lint_source(source, file="suite.java"))
    assert findings and all(d.line > 0 for d in findings)
    rendered = findings[0].render()
    assert rendered.startswith("suite.java:")


def test_by_hint_naming_no_assumption_triggers_spec05():
    source = _pristine().replace("by FirstData, pre;", "by FirstDat, pre;")
    assert source != _pristine()
    findings = _hard_findings(lint_source(source))
    assert [d.rule for d in findings] == ["SPEC05"]
    assert "'FirstDat'" in findings[0].message
    assert findings[0].method_name == "member"
    assert findings[0].line == 55


def test_by_hint_selects_an_invariant_by_its_bare_name():
    from repro.java.resolver import parse_program
    from repro.vcgen.vcgen import generate_method_vc

    vc = generate_method_vc(parse_program(_pristine()), "SinglyLinkedList", "member")
    (found,) = [s for s in vc.sequents if s.origin.endswith(":Found")]
    assert found.hints == ("FirstData", "pre")
    assert found.unmatched_hints() == ()
    labels = [a.labels for a in found.relevant_assumptions()]
    assert labels == [("pre",), ("inv:FirstData",)]
