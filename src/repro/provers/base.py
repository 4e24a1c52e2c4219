"""The common interface of every prover integrated into Jahob.

The paper treats each prover as a black box (Section 1.5, "Splitting"):
a prover receives one sequent at a time and answers *proved* or *gives up*.
Soundness of the whole system only requires that a prover never answers
*proved* for an invalid sequent; incompleteness is expected and handled by
trying the next prover in the user-specified order.  A prover may also
answer *refuted*, but only with a countermodel it has checked exactly; that
ends the chain just as a proof does.

Deadline contract (budget semantics)
------------------------------------

The portfolio approach (Section 4) only pays off when a stuck decision
procedure can be cut off and the next prover tried, so time budgets are
*enforced in the engines*, not merely recorded in the API:

* Every prover carries a ``timeout`` (seconds per :meth:`Prover.attempt`).
  :meth:`Prover.prove` turns it into a :class:`Deadline` — a monotonic-clock
  expiry instant — and hands it to :meth:`Prover.attempt`.
* The dispatcher may additionally pass the per-sequent budget's deadline to
  :meth:`Prover.prove`; the prover then runs under the *earlier* of the two
  expiries (``deadline.bounded_by(self.timeout)``), so a generous prover
  timeout can never overrun the sequent budget.
* Engines poll the deadline cooperatively on their hot loops
  (:meth:`Deadline.checkpoint`): the WS1S compiler per automaton
  product/subset-construction step, BAPA per Venn-region/elimination step,
  resolution per given clause, the SMT core per DPLL(T) iteration and
  per batch of DPLL decisions.  On expiry they unwind with
  :class:`DeadlineExpired`, which :meth:`Prover.prove` converts into a
  genuine ``Verdict.TIMEOUT`` answer whose detail records the partial work
  done (states built, regions enumerated, clauses processed, ...).
* A ``TIMEOUT`` answer is an "I give up" verdict like ``UNKNOWN``: the
  dispatcher simply offers the sequent to the next prover, as the paper's
  ``-usedp`` semantics prescribe.  It can never make the system unsound.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Literal, NewType, Optional, Tuple, Union
from typing import get_args, get_origin, get_type_hints

from ..vcgen.sequent import Sequent


class DeadlineExpired(Exception):
    """Raised by :meth:`Deadline.checkpoint` when the budget has run out.

    ``detail`` describes the partial work completed when the deadline fired
    (e.g. ``"1234 product states built"``); :meth:`Prover.prove` copies it
    into the ``TIMEOUT`` answer so reports can show how far the engine got.
    """

    #: Optional per-phase wall-time breakdown of the partial attempt; engines
    #: that keep a :class:`PhaseTimer` attach it while unwinding so TIMEOUT
    #: answers still carry phase attribution.
    phases: Optional[Dict[str, float]] = None

    def __init__(self, detail: str = "") -> None:
        self.detail = detail
        super().__init__(detail or "deadline expired")


class Deadline:
    """A cooperative, monotonic-clock deadline shared along a call chain.

    A deadline is an *instant* (``time.monotonic()`` based), not a duration:
    passing the same object through nested engines makes every layer count
    against one budget.  Engines poll it either explicitly
    (:meth:`expired` / :meth:`remaining`) or via :meth:`checkpoint`, which
    amortises the clock read over ``every`` calls and raises
    :class:`DeadlineExpired` once the instant has passed.

    Budgets nest by clipping: :meth:`bounded_by` yields the earlier of this
    instant and a fresh duration, so a prover's own timeout, the per-sequent
    budget and a request-level deadline all bound one attempt, and whichever
    expires first cuts it off.
    """

    __slots__ = ("expires_at", "_ticks")

    def __init__(self, expires_at: float) -> None:
        self.expires_at = expires_at
        self._ticks = 0

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """The deadline ``seconds`` from now."""
        return cls(time.monotonic() + seconds)

    @classmethod
    def never(cls) -> "Deadline":
        """A deadline that never expires (for unbounded runs)."""
        return cls(math.inf)

    def bounded_by(self, seconds: Optional[float]) -> "Deadline":
        """The earlier of this deadline and ``seconds`` from now."""
        if seconds is None:
            return Deadline(self.expires_at)
        return Deadline(min(self.expires_at, time.monotonic() + seconds))

    def remaining(self) -> float:
        """Seconds until expiry; ``inf`` for :meth:`never`, never negative."""
        return max(0.0, self.expires_at - time.monotonic())

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def checkpoint(
        self,
        every: int = 1,
        detail: Union[str, Callable[[], str]] = "",
    ) -> None:
        """Poll the clock once per ``every`` calls; raise on expiry.

        ``detail`` (a string, or a zero-argument callable evaluated only on
        expiry) describes the partial work done so far and is carried on the
        :class:`DeadlineExpired` exception.
        """
        self._ticks += 1
        if every > 1 and self._ticks % every:
            return
        if time.monotonic() >= self.expires_at:
            raise DeadlineExpired(detail() if callable(detail) else detail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Deadline remaining={self.remaining():.3f}s>"


class _PhaseSpan:
    """One timed span; accumulates into the owning timer even on unwind."""

    __slots__ = ("_phases", "_name", "_start")

    def __init__(self, phases: Dict[str, float], name: str) -> None:
        self._phases = phases
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._start
        self._phases[self._name] = self._phases.get(self._name, 0.0) + elapsed
        return False


class PhaseTimer:
    """Accumulates wall time per named phase of a prover attempt.

    Usage: ``timer = PhaseTimer()`` then ``with timer("sat"): ...`` on each
    hot region; ``timer.phases`` is the accumulated breakdown.  Spans of the
    same name add up, and a span interrupted by :class:`DeadlineExpired`
    still records the time it spent — so the breakdown of a timed-out
    attempt accounts for the work actually done.  Phase names are
    per-engine (the conventional ones: ``parse``, ``clausify``,
    ``translate``, ``index``, ``sat``, ``theory``, ``instantiation``);
    :meth:`Prover.prove` adds a final ``other`` bucket so the phases of
    every answer sum to its measured wall time.
    """

    __slots__ = ("phases",)

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}

    def __call__(self, name: str) -> _PhaseSpan:
        return _PhaseSpan(self.phases, name)


class Verdict(Enum):
    """The possible answers of a prover on one sequent."""

    PROVED = "proved"
    UNKNOWN = "unknown"
    UNSUPPORTED = "unsupported"  # the sequent falls outside the prover's fragment
    TIMEOUT = "timeout"
    #: The sequent is invalid: the answer's detail is a finite countermodel
    #: that an exact evaluation checked against every assumption and the
    #: goal (:mod:`repro.provers.countermodel`).  Counts as not proved, but
    #: settles the sequent like a proof does — no other prover can prove it.
    REFUTED = "refuted"


#: The detail prefix of the answer :meth:`Prover.prove` makes of a crash.
INTERNAL_ERROR = "internal error: "


@dataclass
class ProverAnswer:
    """The answer of one prover on one sequent, with timing and diagnostics."""

    verdict: Verdict
    prover: str
    time: float = 0.0
    detail: str = ""
    #: True when the answer was replayed from the sequent-result cache rather
    #: than computed; cached answers are never recorded in :class:`ProverStats`.
    cached: bool = False
    #: Quantifier instances the prover generated during this attempt (the
    #: SMT engine's E-matching/grounding work; zero for provers that do not
    #: instantiate).  Aggregated into :class:`ProverStats` and surfaced per
    #: method in :class:`repro.core.report.MethodReport`.
    instances: int = 0
    #: Per-phase wall-time breakdown of the attempt (seconds by phase name).
    #: :meth:`Prover.prove` tops it up with an ``other`` bucket so the values
    #: sum to :attr:`time`; empty only for cached answers.
    phases: Dict[str, float] = field(default_factory=dict)
    #: True when this answer's verdict reflects a *clipped* run rather than
    #: the prover's configured budget: a ``TIMEOUT`` produced while the chain
    #: deadline left less than the prover's own ``timeout`` (the option that
    #: keys the cache).  Truncated answers are never stored in the sequent
    #: cache.
    truncated: bool = False
    #: True when the budget schedule's first-pass slice cut this attempt
    #: off while the chain still had budget (the dispatch chain sets it,
    #: and ``truncated`` with it): never stored, but learned as an unproved
    #: attempt, and the prover runs again with its full timeout later in
    #: the chain.
    slice_cut: bool = False

    @property
    def proved(self) -> bool:
        return self.verdict is Verdict.PROVED

    @property
    def storable(self) -> bool:
        """False for a truncated TIMEOUT or an internal error: neither says
        anything about the sequent, so no verdict cache keeps them."""
        return not self.truncated and not self.detail.startswith(INTERNAL_ERROR)

    @property
    def settles(self) -> bool:
        """True when this answer decides the sequent, either way: a proof or
        a checked countermodel.  The prover chain stops at such an answer."""
        return self.proved or self.verdict is Verdict.REFUTED


#: The type of a prover's ``timeout`` option: a positive number of seconds.
Seconds = NewType("Seconds", float)


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Tuple[Tuple[str, object], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _expected(kind: object, value: object) -> str:
    """What a field declared as ``kind`` must hold, or '' when ``value``
    does.  ``bool`` subclasses ``int``, so numbers compare exact types, and
    ``not value > 0`` refuses NaN too."""
    if kind is Seconds:
        ok = type(value) in (int, float) and value > 0
        return "" if ok else "a positive number of seconds"
    if kind is int:
        return "" if type(value) is int and value >= 0 else "a non-negative integer"
    if kind is bool:
        return "" if type(value) is bool else "a bool"
    if get_origin(kind) is Literal:
        return "" if value in get_args(kind) else f"one of {get_args(kind)}"
    return "" if isinstance(value, kind) else f"an instance of {kind.__name__}"


def check_fields(options: object) -> None:
    """Refuse, naming the field, a dataclass field value its declared type
    does not admit: a bad option then fails when the portfolio is built, not
    inside an engine as an ``internal error``."""
    for name, kind in _field_types(type(options)):
        value = getattr(options, name)
        expected = _expected(kind, value)
        if expected:
            raise ValueError(f"{name} must be {expected}, got {value!r}")


class Prover(ABC):
    """Base class of all provers.

    Subclasses implement :meth:`attempt`; :meth:`prove` wraps it with timing
    and defensive error handling (a crashing prover must never make the
    system unsound or abort the verification — it simply fails to prove).
    """

    #: Short name used on the command line and in reports (e.g. ``"mona"``).
    name: str = "prover"

    @dataclass(frozen=True)
    class Options:
        """A prover's options, each declared once with its type and default
        (engines subclass it to add theirs), checked when built, and each a
        part of the verdict-cache key (:meth:`Prover.options_signature`)."""

        #: Seconds per :meth:`Prover.attempt`.
        timeout: Seconds = 10.0

        def __post_init__(self) -> None:
            check_fields(self)

    def __init__(self, **options) -> None:
        self.options = self.Options(**options)

    @property
    def timeout(self) -> float:
        return self.options.timeout

    def options_signature(self) -> str:
        """A stable signature of the options that can change this prover's
        verdicts; part of the sequent-result cache key so that, e.g., answers
        computed under a short timeout or a small search bound are not
        replayed for a more generous configuration.

        It is ``name=repr(value)`` for each option, sorted by name; a
        dataclass value (the SMT instantiation config) shows its fields in
        declaration order.
        """

        def show(value: object) -> str:
            if not dataclasses.is_dataclass(value):
                return repr(value)
            return "(" + ",".join(f"{f.name}={show(getattr(value, f.name))}"
                                  for f in dataclasses.fields(value)) + ")"

        names = sorted(f.name for f in dataclasses.fields(self.options))
        return ";".join(f"{name}={show(getattr(self.options, name))}" for name in names)

    @abstractmethod
    def attempt(self, sequent: Sequent, deadline: Deadline) -> ProverAnswer:
        """Try to prove the sequent; must be sound, may be incomplete.

        ``deadline`` is the enforced time budget of this attempt, which
        :meth:`prove` bounds by the ``timeout`` option; engines poll it on
        their hot loops and may let :class:`DeadlineExpired` propagate —
        :meth:`prove` converts it into a ``TIMEOUT`` answer.
        """

    def prove(self, sequent: Sequent, deadline: Optional[Deadline] = None) -> ProverAnswer:
        """Run :meth:`attempt` under an enforced deadline.

        Without an explicit ``deadline`` the prover's own ``timeout``
        applies; with one (e.g. the dispatcher's per-sequent budget) the
        attempt runs under the earlier of the two expiries.
        """
        if deadline is None:
            effective = Deadline.after(self.timeout)
            slack = math.inf
        else:
            effective = deadline.bounded_by(self.timeout)
            slack = deadline.remaining()
        start = time.perf_counter()
        try:
            answer = self.attempt(sequent, effective)
        except DeadlineExpired as exc:
            answer = ProverAnswer(
                Verdict.TIMEOUT, self.name, detail=exc.detail or "deadline expired"
            )
            if exc.phases:
                answer.phases = dict(exc.phases)
        except Exception as exc:  # noqa: BLE001 - prover bugs must not kill the run
            answer = ProverAnswer(
                Verdict.UNKNOWN, self.name, detail=f"{INTERNAL_ERROR}{exc!r}"
            )
        answer.prover = self.name
        answer.time = time.perf_counter() - start
        if answer.verdict is Verdict.TIMEOUT and slack < self.timeout:
            # The chain deadline clipped this attempt before the prover's own
            # configured timeout (the option that keys the cache) could have:
            # the verdict reflects the truncated remainder, not the budget,
            # so the dispatchers must not store it.  A TIMEOUT with the full
            # configured budget available is a genuine (cacheable) verdict.
            answer.truncated = True
        if not answer.cached:
            # The remainder bucket makes every answer's phases sum exactly to
            # its wall time, instrumented engine or not.
            accounted = sum(answer.phases.values())
            answer.phases["other"] = max(0.0, answer.time - accounted)
        return answer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


@dataclass
class ProverStats:
    """Aggregate statistics of one prover across a verification run.

    These are the numbers reported per prover in Figures 7 and 15: how many
    sequents the prover attempted, how many it proved, and how much time it
    spent (including unsuccessful attempts).
    """

    attempted: int = 0
    proved: int = 0
    time: float = 0.0
    #: Quantifier instances generated across the recorded attempts (the
    #: instantiation work behind the verdicts; only the SMT engine reports
    #: a non-zero count today).
    instances: int = 0
    #: Per-phase wall time summed across the recorded attempts; every
    #: recorded answer contributes (its ``other`` bucket covers whatever its
    #: engine did not attribute), so the phase totals sum to :attr:`time`.
    phases: Dict[str, float] = field(default_factory=dict)

    def record(self, answer: ProverAnswer) -> None:
        self.attempted += 1
        self.time += answer.time
        self.instances += answer.instances
        for phase, seconds in answer.phases.items():
            self.phases[phase] = self.phases.get(phase, 0.0) + seconds
        if answer.proved:
            self.proved += 1


class ProverRegistry:
    """Maps command-line prover names to factory functions.

    Mirrors the paper's ``-usedp spass mona bapa`` command-line interface
    (Figure 7): users select provers by name and order.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, "ProverFactory"] = {}

    def register(self, name: str, factory: "ProverFactory") -> None:
        self._factories[name] = factory

    def create(self, name: str, **options) -> Prover:
        if name not in self._factories:
            known = ", ".join(sorted(self._factories))
            raise KeyError(f"unknown prover {name!r}; known provers: {known}")
        return self._factories[name](**options)

    def known(self):
        return sorted(self._factories)


ProverFactory = callable

#: The global registry; populated by :mod:`repro.provers.dispatcher`.
registry = ProverRegistry()
