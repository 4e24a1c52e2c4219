"""The ``python -m repro.lint`` command line: exit codes, severities, output."""

import pytest

from repro.lint import main


CLEAN = """
class Box {
    private static Object item;
    /*: public static ghost specvar full :: "bool" = "False"; */
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

BROKEN = CLEAN.replace('ensures "full"', 'ensures "ful"')

WARNING_ONLY = CLEAN.replace(
    '//: full := "True";',
    'return;\n        //: full := "True";',
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_clean_file_exits_zero(tmp_path, capsys):
    assert main([_write(tmp_path, "clean.java", CLEAN)]) == 0
    out = capsys.readouterr().out
    assert "1 file(s) linted: 0 error(s)" in out


def test_error_file_exits_one_and_prints_finding(tmp_path, capsys):
    path = _write(tmp_path, "broken.java", BROKEN)
    assert main([path]) == 1
    out = capsys.readouterr().out
    assert "error[SPEC01]" in out
    assert "did you mean 'full'?" in out
    assert out.splitlines()[0].startswith(f"{path}:")


MALFORMED_BODY_SPECS = {
    "loop-invariant": (
        CLEAN.replace('//: full := "True";',
                      'while /*: inv "full &" */ (x == null) { }\n        //: full := "True";'),
        "while",
    ),
    "spec-statement": (CLEAN.replace('//: full := "True";', '//: vertitic gh "{r}";'), "vertitic"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BODY_SPECS))
def test_malformed_body_spec_exits_one_with_located_spec04(tmp_path, capsys, case):
    source, needle = MALFORMED_BODY_SPECS[case]
    line = next(n for n, text in enumerate(source.splitlines(), 1) if needle in text)
    path = _write(tmp_path, "body.java", source)
    assert main([path]) == 1
    out = capsys.readouterr().out
    assert f"{path}:{line}: error[SPEC04]" in out
    assert "1 error(s)" in out


def test_warnings_fail_only_in_strict_mode(tmp_path):
    path = _write(tmp_path, "warn.java", WARNING_ONLY)
    assert main([path]) == 0
    assert main(["--strict", path]) == 1


def test_min_severity_filters_output(tmp_path, capsys):
    path = _write(tmp_path, "warn.java", WARNING_ONLY)
    main(["--min-severity", "error", path])
    out = capsys.readouterr().out
    assert "CFG01" not in out
    # The summary still counts the hidden warning.
    assert "1 warning(s)" in out


def test_missing_file_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "absent.java")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_no_inputs_exits_two(capsys):
    assert main([]) == 2
    assert "no input files" in capsys.readouterr().err


def test_multiple_files_aggregate(tmp_path, capsys):
    clean = _write(tmp_path, "clean.java", CLEAN)
    broken = _write(tmp_path, "broken.java", BROKEN)
    assert main([clean, broken]) == 1
    out = capsys.readouterr().out
    assert "2 file(s) linted: 1 error(s)" in out
