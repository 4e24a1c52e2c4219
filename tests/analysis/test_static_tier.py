"""The static-discharge prover tier: dispatcher pre-pass, STATIC verdict,
report plumbing, and verdict parity with a static-tier-disabled run."""

from repro import suite
from repro.core.report import format_table
from repro.core.verifier import verify, verify_class
from repro.form.parser import parse_formula as parse
from repro.java.resolver import parse_program
from repro.provers.base import ProverAnswer, Verdict
from repro.provers.cache import SequentCache
from repro.provers.dispatcher import DispatchConfig, Dispatcher, make_provers
from repro.vcgen.sequent import sequent
from repro.vcgen.vcgen import generate_method_vc


def _sequents():
    return [
        sequent([parse("p")], parse("x = x")),       # trivial
        sequent([parse("a = b")], parse("b = a")),   # symmetric equality
        sequent([parse("p & q")], parse("q")),       # conjunct
        sequent([parse("p"), parse("~p")], parse("r")),  # contradiction
        sequent([parse("p")], parse("~(~p)")),       # needs a prover (normalizing)
    ]


def test_static_verdict_counts_as_proved():
    answer = ProverAnswer(Verdict.STATIC, "static")
    assert answer.proved


def test_sequential_dispatcher_static_pre_pass():
    dispatcher = Dispatcher(make_provers(["syntactic"]), static_tier=True)
    result = dispatcher.prove_all(_sequents())
    assert result.statically_discharged == 4
    assert result.proved == 5  # syntactic still proves the last one
    statics = [o for o in result.outcomes if o.prover == "static"]
    assert len(statics) == 4
    for outcome in statics:
        assert outcome.answers[-1].verdict is Verdict.STATIC
        assert outcome.answers[-1].detail.startswith("static discharge: ")
    # Stats accrue under the "static" pseudo-prover, zero time.
    assert result.stats["static"].proved == 4
    assert result.stats["static"].time == 0.0
    # The live prover only saw the one remaining sequent.
    assert result.stats["syntactic"].attempted == 1
    assert dispatcher.static.by_reason == {
        "trivial": 1, "symmetric-equality": 1, "conjunct": 1, "contradiction": 1,
    }


def test_static_tier_disabled_by_default():
    result = Dispatcher(make_provers(["syntactic"])).prove_all(_sequents())
    assert result.statically_discharged == 0
    assert all(o.prover != "static" for o in result.outcomes)


def test_static_answers_bypass_and_never_touch_the_cache():
    cache = SequentCache()
    dispatcher = Dispatcher(make_provers(["syntactic"]), cache=cache, static_tier=True)
    result = dispatcher.prove_all(_sequents())
    assert result.statically_discharged == 4
    # Only the one live sequent produced cache traffic.
    assert result.cache_stats.hits == 0
    assert result.cache_stats.misses == 1
    # Nothing stored under the static tier: a rerun re-discharges statically.
    rerun = Dispatcher(make_provers(["syntactic"]), cache=cache, static_tier=True)
    again = rerun.prove_all(_sequents())
    assert again.statically_discharged == 4
    assert again.cache_stats.hits == 1


def test_static_pre_pass_runs_in_the_caller_under_every_executor(executor):
    reference = Dispatcher(make_provers(["syntactic"]), static_tier=True).prove_all(
        _sequents()
    )
    dispatcher = Dispatcher(DispatchConfig(["syntactic"], static_tier=True, **executor))
    result = dispatcher.prove_all(_sequents())
    assert [o.proved for o in result.outcomes] == [o.proved for o in reference.outcomes]
    assert [o.prover for o in result.outcomes] == [o.prover for o in reference.outcomes]
    assert result.statically_discharged == reference.statically_discharged == 4
    assert result.proved == 5
    # The caller's discharger saw every sequent: no pool worker ran it.
    assert dispatcher.static.checked == 5


def test_dedup_fans_out_static_outcomes():
    duplicated = _sequents()[:1] * 3
    result = Dispatcher(
        make_provers(["syntactic"]), dedup=True, static_tier=True
    ).prove_all(duplicated)
    assert result.proved == 3
    assert result.dedup_replayed == 2
    assert result.statically_discharged == 3  # representative + fan-outs


def test_suite_verdicts_identical_with_and_without_static_tier():
    """The acceptance gate: enabling the tier changes attribution, never
    verdicts, and discharges a nonzero number of sequents."""
    program = parse_program(suite.source("SinglyLinkedList"))
    for method in ("add", "isEmpty", "member"):
        vc = generate_method_vc(program, "SinglyLinkedList", method)
        base = Dispatcher(make_provers(["syntactic"])).prove_all(vc.sequents)
        tier = Dispatcher(make_provers(["syntactic"]), static_tier=True).prove_all(
            vc.sequents
        )
        assert [o.proved for o in tier.outcomes] == [o.proved for o in base.outcomes]
        assert tier.statically_discharged > 0, method


def test_verify_reports_statically_discharged():
    source = suite.source("SinglyLinkedList")
    base = verify(source, method="isEmpty", class_name="SinglyLinkedList",
                  provers=["syntactic"])
    tier = verify(source, method="isEmpty", class_name="SinglyLinkedList",
                  provers=["syntactic"], static_tier=True)
    assert base.statically_discharged == 0
    assert tier.statically_discharged == 1
    assert tier.proved_sequents == base.proved_sequents
    assert tier.succeeded == base.succeeded
    assert "Static tier discharged 1 sequents" in tier.format()
    assert "Static tier" not in base.format()


def test_figure15_table_grows_static_column_only_when_used():
    source = suite.source("SinglyLinkedList")
    base = verify_class(source, class_name="SinglyLinkedList",
                        provers=["syntactic"], methods=["isEmpty"])
    tier = verify_class(source, class_name="SinglyLinkedList",
                        provers=["syntactic"], methods=["isEmpty"],
                        static_tier=True)
    assert "Static" not in base.row(["syntactic"])
    assert tier.row(["syntactic"])["Static"] == "1"
    assert "Static" in format_table([tier], ["syntactic"]).splitlines()[0]
    assert "Static" not in format_table([base], ["syntactic"]).splitlines()[0]
