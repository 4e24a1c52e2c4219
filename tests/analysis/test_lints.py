"""Spec well-formedness (SPEC01-04) and CFG lints (CFG01-03) on small sources."""

import pytest

from repro.analysis import lint_source
from repro.analysis.diagnostics import Severity
from repro.analysis.frames import check_frames
from repro.analysis.lints import check_cfgs, check_hints, check_method_cfg, check_specs
from repro.java.resolver import parse_program


CLEAN = """
class Box {
    private static Object item;
    /*: public static ghost specvar full :: "bool" = "False";
        invariant ItemInv: "full --> item ~= null";
    */
    public static void put(Object x)
    /*: requires "x ~= null"
        modifies full
        ensures "full" */
    {
        item = x;
        //: full := "True";
    }
}
"""

LOOP = """
class Counter {
    public static void run()
    /*: ensures "True" */
    {
        int i = 0;
        while /*: inv "0 <= i" */ (i < 3) {
            i = i + 1;
        }
    }
}
"""

#: Malformed spec text inside a method body, and the text of its line.
MALFORMED_BODY_SPECS = {
    "loop-invariant": (LOOP.replace('inv "0 <= i"', 'inv "0 <= i &"'), "while"),
    "spec-statement": (
        CLEAN.replace('//: full := "True";', '//: vertitic gh "{r}";'), "vertitic"
    ),
}


def _line_of(source, needle):
    return next(n for n, text in enumerate(source.splitlines(), 1) if needle in text)


def _rules(report, min_severity=Severity.INFO):
    return [d.rule for d in report.diagnostics if d.severity >= min_severity]


def test_clean_source_has_no_errors_or_warnings():
    report = lint_source(CLEAN)
    assert report.errors == 0 and report.warnings == 0
    assert report.clean(strict=True)


def test_spec01_unknown_name_with_suggestion():
    report = lint_source(CLEAN.replace('"full --> item ~= null"',
                                       '"full --> itme ~= null"'))
    findings = [d for d in report.diagnostics if d.rule == "SPEC01"]
    assert len(findings) == 1
    assert findings[0].severity == Severity.ERROR
    assert "itme" in findings[0].message
    assert "did you mean 'item'?" in findings[0].message
    assert findings[0].class_name == "Box"
    assert findings[0].line > 0


def test_spec01_in_ensures_clause():
    report = lint_source(CLEAN.replace('ensures "full"', 'ensures "ful"'))
    findings = [d for d in report.diagnostics if d.rule == "SPEC01"]
    assert len(findings) == 1
    assert findings[0].method_name == "put"


def test_spec01_unknown_modifies_target():
    report = lint_source(CLEAN.replace("modifies full", "modifies fulll"))
    findings = [d for d in report.diagnostics if d.rule == "SPEC01"]
    assert len(findings) == 1
    assert "modifies" in findings[0].message


def test_spec02_duplicate_invariant_label():
    source = CLEAN.replace(
        'invariant ItemInv: "full --> item ~= null";',
        'invariant ItemInv: "full --> item ~= null";\n'
        '        invariant ItemInv: "item = item";',
    )
    report = lint_source(source)
    findings = [d for d in report.diagnostics if d.rule == "SPEC02"]
    assert len(findings) == 1
    assert "ItemInv" in findings[0].message


def test_spec04_unparsable_formula():
    # Contract formulas are parsed lazily, so a malformed ensures surfaces as
    # SPEC04 (the resolver pre-parses invariants and reports those itself as
    # a located RESOLVE01 — covered below).
    report = lint_source(CLEAN.replace('ensures "full"', 'ensures "full -->"'))
    assert "SPEC04" in _rules(report)


def test_malformed_invariant_becomes_located_resolve01():
    report = lint_source(CLEAN.replace('"full --> item ~= null"',
                                       '"full -->"'))
    assert [d.rule for d in report.diagnostics] == ["RESOLVE01"]
    assert report.diagnostics[0].line > 0
    assert report.diagnostics[0].class_name == "Box"


def test_loop_source_lints_clean():
    assert lint_source(LOOP).clean(strict=True)


@pytest.mark.parametrize("case", sorted(MALFORMED_BODY_SPECS))
def test_malformed_body_spec_is_a_located_spec04(case):
    source, needle = MALFORMED_BODY_SPECS[case]
    report = lint_source(source)
    hard = [(d.rule, d.line) for d in report.diagnostics if d.severity >= Severity.WARNING]
    assert hard == [("SPEC04", _line_of(source, needle))]
    assert "in the method body does not parse" in report.diagnostics[0].message
    program = parse_program(source)
    assert [d.rule for d in check_hints(program)] == ["SPEC04"]
    # The other passes that translate bodies skip the method instead of raising.
    assert check_frames(program) == []
    assert check_cfgs(program) == []


def test_method_params_are_known_in_contracts():
    # `x` is a parameter, not a state variable: no SPEC01.
    report = lint_source(CLEAN)
    assert "SPEC01" not in _rules(report)


def test_cfg01_unreachable_after_return():
    source = CLEAN.replace(
        "item = x;",
        "if (x != null) { item = x; } else { item = null; }",
    )
    # Both branches rejoin; nothing is unreachable.
    assert "CFG01" not in _rules(lint_source(source))
    source = CLEAN.replace(
        '//: full := "True";',
        'return;\n        //: full := "True";',
    )
    report = lint_source(source)
    findings = [d for d in report.diagnostics if d.rule == "CFG01"]
    assert len(findings) == 1
    assert findings[0].severity == Severity.WARNING


def test_cfg02_reachable_assume():
    source = CLEAN.replace('//: full := "True";',
                           '//: assume Cheat: "x ~= null";\n        //: full := "True";')
    report = lint_source(source)
    findings = [d for d in report.diagnostics if d.rule == "CFG02"]
    assert len(findings) == 1
    assert findings[0].severity == Severity.ERROR
    assert "trusted" in findings[0].message


def test_cfg02_distinguishes_assume_false():
    source = CLEAN.replace('//: full := "True";',
                           '//: assume Cheat: "False";\n        //: full := "True";')
    report = lint_source(source)
    findings = [d for d in report.diagnostics if d.rule == "CFG02"]
    assert len(findings) == 1
    assert "assume False" in findings[0].message


def test_unreachable_assume_is_not_cfg02():
    # An assume after a return never weakens anything; CFG01 reports the dead
    # code instead.
    source = CLEAN.replace(
        "item = x;",
        'return;\n        //: assume Cheat: "False";',
    )
    report = lint_source(source)
    assert "CFG02" not in _rules(report)
    assert "CFG01" in _rules(report)


def test_cfg03_statically_dischargeable_assert():
    source = CLEAN.replace(
        '//: full := "True";',
        '//: assert Redundant: "x ~= null";\n        //: full := "True";')
    report = lint_source(source)
    findings = [d for d in report.diagnostics if d.rule == "CFG03"]
    # The requires clause assumes x ~= null and nothing assigns x.
    assert len(findings) == 1
    assert findings[0].severity == Severity.INFO
    assert "statically dischargeable" in findings[0].message


def test_parse_failure_becomes_parse01():
    report = lint_source("class Broken {{{")
    assert [d.rule for d in report.diagnostics] == ["PARSE01"]
    assert report.errors == 1
    assert not report.clean()


def test_check_specs_and_cfg_usable_on_programs():
    program = parse_program(CLEAN)
    assert check_specs(program) == []
    assert check_method_cfg(program, "Box", "put") == []


def test_render_respects_min_severity():
    source = CLEAN.replace(
        '//: full := "True";',
        '//: assert Redundant: "x ~= null";\n        //: full := "True";')
    report = lint_source(source, file="box.java")
    assert "CFG03" in report.render(Severity.INFO)
    assert report.render(Severity.WARNING) == ""
