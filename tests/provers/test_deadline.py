"""The enforced Deadline contract: no prover overruns its budget by more
than a small epsilon, even on adversarial sequents (deep automaton products,
wide Venn regions, exploding saturation), and TIMEOUT answers carry
partial-work detail.

These are the "timeout-stress" tests run by the CI smoke job; keep every
budget tight so the whole file stays fast.
"""

import time

import pytest

from repro.bapa.prover import BapaProver
from repro.fol.prover import FirstOrderProver
from repro.form.parser import parse_formula as parse
from repro.mona.prover import MonaProver
from repro.provers.base import Deadline, DeadlineExpired, Verdict
from repro.provers.dispatcher import Dispatcher, make_provers
from repro.smt.prover import SmtProver
from repro.vcgen.sequent import sequent

#: Maximum tolerated overrun past the budget (the acceptance criterion).
EPSILON = 0.25


# -- the Deadline object ------------------------------------------------------------


def test_deadline_after_expires():
    deadline = Deadline.after(0.02)
    assert not deadline.expired() or deadline.remaining() == 0.0
    time.sleep(0.03)
    assert deadline.expired()
    assert deadline.remaining() == 0.0


def test_deadline_never_does_not_expire():
    deadline = Deadline.never()
    assert not deadline.expired()
    assert deadline.remaining() == float("inf")
    deadline.checkpoint()  # never raises


def test_deadline_bounded_by_takes_the_earlier_expiry():
    generous = Deadline.after(100.0)
    tight = generous.bounded_by(0.0)
    assert tight.expired()
    assert not generous.bounded_by(None).expired()
    # Bounding an already-tight deadline by a generous timeout keeps it tight.
    assert Deadline.after(0.0).bounded_by(100.0).remaining() == 0.0


def test_deadline_checkpoint_raises_with_detail():
    deadline = Deadline.after(0.0)
    with pytest.raises(DeadlineExpired) as excinfo:
        deadline.checkpoint(detail="17 widgets built")
    assert excinfo.value.detail == "17 widgets built"


def test_deadline_checkpoint_lazy_detail_callable():
    deadline = Deadline.after(0.0)
    with pytest.raises(DeadlineExpired) as excinfo:
        deadline.checkpoint(detail=lambda: "computed lazily")
    assert excinfo.value.detail == "computed lazily"


def test_deadline_checkpoint_amortises_clock_reads():
    deadline = Deadline.after(0.0)
    # With every=1000, the first 999 checkpoints skip the clock entirely.
    for _ in range(999):
        deadline.checkpoint(every=1000)
    with pytest.raises(DeadlineExpired):
        deadline.checkpoint(every=1000)


# -- adversarial sequents -----------------------------------------------------------


def _mona_adversarial():
    """Deep automaton products: a subset chain with a 5-variable quantified
    goal forces products and subset constructions over a wide alphabet
    (~6.5s unbounded on a development machine)."""
    n = 10
    assumptions = [parse(f"A{i} subseteq A{i+1}") for i in range(n)]
    names = ["x", "y", "z", "u", "v"]
    premise = " & ".join(f"{w} : A{i}" for i, w in enumerate(names))
    conclusion = " & ".join(f"{w} : A{n}" for w in names)
    goal = parse(f"ALL {' '.join(names)}. {premise} --> ({conclusion})")
    return sequent(assumptions, goal)


def _bapa_adversarial():
    """Wide Venn regions: 6 set variables (64 regions) whose cardinality
    constraints make the Fourier-Motzkin elimination explode (>30s
    unbounded)."""
    sets = ["S0", "S1", "S2", "S3", "S4", "S5"]
    assumptions = [
        parse(f"card({a} Un {b}) <= card({a} Int {b}) + k{i}")
        for i, (a, b) in enumerate(zip(sets, sets[1:]))
    ]
    assumptions += [parse(f"card {s} >= 1") for s in sets]
    goal = parse("card(S0 Un (S1 Un (S2 Un (S3 Un (S4 Un S5))))) >= 1")
    return sequent(assumptions, goal)


def _fol_adversarial():
    """A saturation-exploding entailment: transitive relations with several
    constants generate resolvents far faster than the budget allows."""
    assumptions = [
        parse("ALL x y z. r x y & r y z --> r x z"),
        parse("ALL x y. r x y --> r y x"),
        parse("ALL x y z. s x y & s y z --> s x z"),
        parse("ALL x y. r x y --> s x y"),
        parse("r a b"), parse("r b c"), parse("r c d"), parse("r d e"),
    ]
    return sequent(assumptions, parse("s e q"))  # invalid: saturates forever


def _smt_adversarial():
    """An arithmetic pigeonhole: 8 pairwise-distinct integers in [0, 6].
    Valid (the assumptions are unsatisfiable), but the DPLL(T) loop and the
    Fourier-Motzkin eliminations behind it grind far past any small budget
    (>10s unbounded)."""
    n = 8
    assumptions = []
    for i in range(n):
        assumptions += [parse(f"0 <= y{i}"), parse(f"y{i} <= {n - 2}")]
    for i in range(n):
        for j in range(i + 1, n):
            assumptions.append(parse(f"y{i} < y{j} | y{j} < y{i}"))
    return sequent(assumptions, parse(f"y{n-1} < y0"))


ADVERSARIAL = [
    (MonaProver(timeout=0.15, max_states=10**6, max_tracks=16), _mona_adversarial()),
    (BapaProver(timeout=0.15), _bapa_adversarial()),
    (FirstOrderProver(timeout=0.15, max_processed=10**6, max_generated=10**8), _fol_adversarial()),
    (SmtProver(timeout=0.15, max_theory_iterations=10**6), _smt_adversarial()),
]


@pytest.mark.parametrize(
    "prover, seq", ADVERSARIAL, ids=[p.name for p, _ in ADVERSARIAL]
)
def test_no_prover_overruns_its_own_timeout(prover, seq):
    start = time.perf_counter()
    answer = prover.prove(seq)
    elapsed = time.perf_counter() - start
    assert answer.verdict is Verdict.TIMEOUT, answer
    assert elapsed <= prover.timeout + EPSILON, (
        f"{prover.name} overran its budget: {elapsed:.3f}s > "
        f"{prover.timeout} + {EPSILON}"
    )


@pytest.mark.parametrize(
    "prover, seq", ADVERSARIAL, ids=[p.name for p, _ in ADVERSARIAL]
)
def test_timeout_answers_carry_partial_work_detail(prover, seq):
    answer = prover.prove(seq)
    assert answer.verdict is Verdict.TIMEOUT
    assert answer.detail, "TIMEOUT must describe the partial work done"
    # Every engine reports a count of the work it completed before expiry
    # (states built, regions/constraints, clauses processed, iterations).
    assert any(ch.isdigit() for ch in answer.detail), answer.detail


@pytest.mark.parametrize(
    "prover, seq", ADVERSARIAL, ids=[p.name for p, _ in ADVERSARIAL]
)
def test_external_deadline_preempts_generous_timeout(prover, seq):
    """A dispatcher deadline tighter than the prover's own timeout wins."""
    start = time.perf_counter()
    answer = prover.prove(seq, deadline=Deadline.after(0.05))
    elapsed = time.perf_counter() - start
    assert answer.verdict is Verdict.TIMEOUT
    assert elapsed <= 0.05 + EPSILON


def test_mona_sequent_budget_cuts_off_midflight_and_portfolio_falls_through():
    """The acceptance scenario: a sequent whose MONA attempt previously ran
    unbounded now times out within budget + epsilon, and the portfolio falls
    through to the next prover in the chain."""
    # Order mona first with a tight timeout so the chain must cut it off
    # mid-flight to reach the syntactic prover within the sequent budget.
    budget = 2.0
    provers = [
        MonaProver(timeout=0.2, max_states=10**6, max_tracks=16),
        make_provers(["syntactic"])[0],
    ]
    hard = _mona_adversarial()
    # Same expensive monadic structure, but the goal occurs verbatim among
    # the assumptions, so the syntactic prover discharges it instantly.
    trivial_goal = sequent(list(hard.assumption_formulas()) + [hard.goal.formula], hard.goal.formula)
    start = time.perf_counter()
    result = Dispatcher(provers, sequent_budget=budget).prove_all([trivial_goal])
    elapsed = time.perf_counter() - start
    (outcome,) = result.outcomes
    # MONA was cut off by its enforced timeout (pre-enforcement it ran the
    # whole automaton construction to completion, ~6s)...
    assert outcome.answers[0].prover == "mona"
    assert outcome.answers[0].verdict is Verdict.TIMEOUT
    assert outcome.answers[0].time <= 0.2 + EPSILON
    # ...and the portfolio fell through to the syntactic prover.
    assert outcome.proved and outcome.prover == "syntactic"
    assert not outcome.budget_exhausted
    assert elapsed <= budget + EPSILON


def test_bapa_sequent_budget_returns_timeout_within_epsilon():
    budget = 0.2
    provers = [BapaProver(timeout=10.0)]
    start = time.perf_counter()
    result = Dispatcher(provers, sequent_budget=budget).prove_all([_bapa_adversarial()])
    elapsed = time.perf_counter() - start
    (outcome,) = result.outcomes
    assert outcome.answers[0].verdict is Verdict.TIMEOUT
    assert "interrupted" in outcome.answers[0].detail
    assert elapsed <= budget + EPSILON


def test_budget_truncated_timeouts_are_not_cached():
    """A TIMEOUT produced under a per-sequent budget may reflect the
    budget's truncated remainder, not the prover's configured timeout that
    keys the cache entry; storing it would poison later full-budget runs."""
    from repro.provers.cache import SequentCache

    cache = SequentCache()
    seq = _bapa_adversarial()
    prover = BapaProver(timeout=10.0)
    Dispatcher([prover], cache=cache, sequent_budget=0.1).prove_all([seq])
    assert cache.lookup(seq, "bapa", prover.options_signature()) is None
    # Without a sequent budget the TIMEOUT reflects the prover's own
    # (enforced) timeout and is safely cacheable.
    tight = BapaProver(timeout=0.1)
    Dispatcher([tight], cache=cache).prove_all([seq])
    entry = cache.lookup(seq, "bapa", tight.options_signature())
    assert entry is not None and entry.verdict is Verdict.TIMEOUT


def test_full_budget_timeouts_are_cached_even_under_sequent_budget():
    """The converse of the truncation rule: when the sequent budget's
    remaining slack at prove-start covers the prover's whole configured
    timeout, a TIMEOUT is a genuine (cacheable) verdict — the budget never
    clipped the attempt.  Blanket-suppressing every TIMEOUT whenever
    ``sequent_budget`` was set made budgeted cold runs re-pay their
    timeouts on every warm rerun."""
    from repro.provers.cache import SequentCache

    cache = SequentCache()
    seq = _bapa_adversarial()
    prover = BapaProver(timeout=0.1)
    # Budget far above the prover's own timeout: slack >= timeout at start.
    first = Dispatcher([prover], cache=cache, sequent_budget=30.0).prove_all([seq])
    assert first.stats["bapa"].attempted == 1
    entry = cache.lookup(seq, "bapa", prover.options_signature())
    assert entry is not None and entry.verdict is Verdict.TIMEOUT
    assert not first.outcomes[0].answers[0].truncated
    # The warm rerun replays the cached TIMEOUT instead of re-grinding.
    warm = Dispatcher(
        [BapaProver(timeout=0.1)], cache=cache, sequent_budget=30.0
    ).prove_all([seq])
    assert warm.cache_stats.hits == 1
    assert not warm.stats


def test_timeout_counts_against_prover_stats_time():
    """Budget consumed by a cut-off attempt still shows up in ProverStats."""
    result = Dispatcher([BapaProver(timeout=0.1)]).prove_all([_bapa_adversarial()])
    stats = result.stats["bapa"]
    assert stats.attempted == 1 and stats.proved == 0
    assert 0.0 < stats.time <= 0.1 + EPSILON
