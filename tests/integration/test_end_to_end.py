"""End-to-end verification through the public API (frontend -> VCs -> provers).

These tests run the whole pipeline on small programs with short prover
timeouts.  They check both directions:

* correct programs verify (completeness on easy instances), and
* broken programs or broken specifications are *never* reported as verified
  (soundness) — the non-negotiable property of the system.
"""

import pytest

from repro import suite, verify, verify_class
from repro.core.report import ClassReport, MethodReport, format_table
from repro.provers.dispatcher import DEFAULT_ORDER, make_provers

FAST = {"smt": {"timeout": 2.5}, "fol": {"timeout": 1.0}}

COUNTER = """
class Counter {
    private static int count;
    /*: public static ghost specvar total :: "int" = "0";
        invariant TotalInv: "total = count";
    */
    public static void increment()
    /*: requires "True" modifies total ensures "total = old total + 1" */
    {
        count = count + 1;
        //: total := "total + 1";
    }
    public static int get()
    /*: requires "True" ensures "result = total" */
    {
        return count;
    }
}
"""

BROKEN_COUNTER = COUNTER.replace("count = count + 1;", "count = count + 2;")
BROKEN_SPEC = COUNTER.replace('ensures "result = total"', 'ensures "result = total + 1"')

GLOBAL_SET = """
class Registry {
    private static Object last;
    /*: public static ghost specvar seen :: "objset" = "{}"; */
    public static void record(Object x)
    /*: requires "x ~= null" modifies seen ensures "seen = old seen Un {x}" */
    {
        last = x;
        //: seen := "seen Un {x}";
    }
    public static void forget()
    /*: requires "True" modifies seen ensures "seen = {}" */
    {
        last = null;
        //: seen := "{}";
    }
}
"""


def test_counter_increment_verifies():
    report = verify(COUNTER, method="increment", class_name="Counter",
                    provers=["smt"], prover_options=FAST)
    assert report.succeeded, report.format()


def test_counter_get_verifies():
    report = verify(COUNTER, method="get", class_name="Counter",
                    provers=["smt"], prover_options=FAST)
    assert report.succeeded, report.format()


def test_broken_body_is_rejected():
    report = verify(BROKEN_COUNTER, method="increment", class_name="Counter",
                    provers=["smt", "bapa", "mona"], prover_options=FAST)
    assert not report.succeeded


def test_broken_specification_is_rejected():
    report = verify(BROKEN_SPEC, method="get", class_name="Counter",
                    provers=["smt", "bapa", "mona"], prover_options=FAST)
    assert not report.succeeded


def test_ghost_set_updates_verify():
    report = verify(GLOBAL_SET, method="record", class_name="Registry",
                    provers=["smt", "mona"], prover_options=FAST)
    assert report.succeeded, report.format()


def test_ghost_set_clear_verifies():
    report = verify(GLOBAL_SET, method="forget", class_name="Registry",
                    provers=["smt", "mona"], prover_options=FAST)
    assert report.succeeded, report.format()


def test_frame_violation_detected():
    # `forget` claims it modifies nothing: the frame condition seen = old seen
    # must then fail (the body sets seen := {}).
    broken = GLOBAL_SET.replace(
        '/*: requires "True" modifies seen ensures "seen = {}" */',
        '/*: requires "True" ensures "True" */',
    )
    report = verify(broken, method="forget", class_name="Registry",
                    provers=["smt", "mona"], prover_options=FAST)
    assert not report.succeeded


def test_missing_null_check_detected():
    source = """
    public /*: claimedby Box */ class Cell { public Object value; }
    class Box {
        private static Cell cell;
        /*: public static ghost specvar stored :: "obj" = "null"; */
        public static Object read()
        /*: requires "True" ensures "True" */
        {
            return cell.value;
        }
    }
    """
    report = verify(source, method="read", class_name="Box",
                    provers=["smt", "fol"], prover_options=FAST)
    # cell may be null: the null-dereference obligation must remain open.
    assert not report.succeeded
    assert any("null-check" in origin for origin in report.unproved_origins)


def test_report_format_mirrors_figure7():
    report = verify(COUNTER, method="increment", class_name="Counter",
                    provers=["z3"], prover_options=FAST)
    text = report.format()
    assert "sequents" in text
    assert "Verification SUCCEEDED" in text or "FAILED" in text
    assert f":Counter.increment]" in text


def test_verify_class_aggregates_methods():
    report = verify_class(COUNTER, class_name="Counter", provers=["smt"],
                          prover_options=FAST)
    assert isinstance(report, ClassReport)
    assert {m.method_name for m in report.methods} == {"increment", "get"}
    assert report.total_sequents == sum(m.total_sequents for m in report.methods)
    row = report.row(["smt"])
    assert row["Data Structure"] == "Counter"


def test_format_table_produces_figure15_shape():
    report = verify_class(COUNTER, class_name="Counter", provers=["smt"], prover_options=FAST)
    table = format_table([report], ["smt"])
    assert "Data Structure" in table.splitlines()[0]
    assert "Counter" in table


def test_figure15_table_for_the_default_chain_has_one_column_per_engine():
    """Syntactic heads the default chain and has its own column, so the
    table has the columns the hand-written chain without it gave."""
    header = format_table([ClassReport("Counter")], DEFAULT_ORDER).splitlines()[0]
    assert header.split() == ["Data", "Structure", "Syntactic", "smt", "fol", "mona",
                              "bapa", "Total", "Time", "Verified"]
    assert header == format_table([ClassReport("Counter")], DEFAULT_ORDER[1:]).splitlines()[0]


def test_paper_prover_aliases_accepted_end_to_end():
    report = verify(COUNTER, method="get", class_name="Counter",
                    provers=["spass", "z3"],
                    prover_options={"fol": {"timeout": 1.0}, "smt": {"timeout": 2.0}})
    assert report.succeeded
    # The paper's interactive provers have no engine here, so no alias.
    with pytest.raises(KeyError, match="'isabelle'"):
        make_provers(["isabelle"])


# -- selected easy suite methods run end-to-end (kept small for test-suite speed) ----------


@pytest.mark.parametrize(
    "structure, method, provers",
    [
        ("SinglyLinkedList", "clear", ["smt", "mona"]),
        ("SizedList", "size", ["smt", "bapa"]),
        ("ArrayList", "size", ["smt"]),
    ],
)
def test_easy_suite_methods_verify(structure, method, provers):
    report = verify(
        suite.source(structure),
        class_name=structure,
        method=method,
        provers=provers,
        prover_options=FAST,
    )
    assert report.succeeded, report.format()


@pytest.mark.parametrize(
    "structure, method",
    [
        ("AssocList", "lookup"),
        ("BinarySearchTree", "contains"),
        ("BinarySearchTree", "insert"),
        ("BinarySearchTree", "clear"),
        ("AssocList", "clear"),
    ],
)
def test_strengthened_traversal_invariants_fully_discharge(structure, method):
    """The ReachPairs/ReachKeys backbone invariants (plus the union- and
    fieldWrite-backbone reachability axioms) let the traversal obligations of
    AssocList.lookup and BinarySearchTree.contains discharge completely —
    the previously weak loop invariants left their preservation obligations
    open.  (AssocList.put also fully verifies, but its written-backbone
    proofs take ~20s; the unit tests in tests/fol cover that machinery.)"""
    report = verify(
        suite.source(structure),
        class_name=structure,
        method=method,
        provers=["smt", "fol", "mona", "bapa"],
        prover_options={"smt": {"timeout": 2.0}, "fol": {"timeout": 10.0}},
        sequent_budget=20.0,
    )
    assert report.succeeded, report.format()


@pytest.mark.parametrize(
    "structure, method",
    [
        ("SinglyLinkedList", "add"),
        ("SinglyLinkedList", "isEmpty"),
        ("SizedList", "addNew"),
        ("CursorList", "done"),
    ],
)
def test_mutating_suite_methods_discharge_most_obligations(structure, method):
    report = verify(
        suite.source(structure),
        class_name=structure,
        method=method,
        provers=["smt", "mona", "bapa"],
        prover_options=FAST,
    )
    total = report.total_sequents + report.proved_during_splitting
    discharged = report.proved_sequents + report.proved_during_splitting
    assert total > 0
    # The automated portfolio (including the splitting-time checker, which the
    # paper's Figure 15 also counts) must discharge the majority of the
    # obligations; a small residue may be left open.
    assert discharged >= total * 0.6, report.format()
