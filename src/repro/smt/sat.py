"""A CNF SAT solver (CDCL: conflict-driven clause learning) for the SMT core.

Clauses are lists of non-zero integers in the DIMACS convention: a positive
integer is a positive literal of that variable, a negative integer its
negation.  The solver backs the lazy SMT loop, which needs two things of
it: incremental addition of blocking clauses and quantifier-instance
clauses between ``solve`` calls, and enough raw search power that a few
hundred E-matching instances do not drown the DPLL(T) loop.  The engine is
therefore a compact but real CDCL solver — assignment trail with decision
levels, watched-literal propagation, first-UIP conflict analysis with
clause learning and non-chronological backjumping, and an activity-bumped
decision heuristic.

Incrementality (the default, ``incremental=True``): the trail, watch lists,
variable activities and learned clauses all persist across ``solve`` calls.
A clause added between calls is *integrated* into the live search state: if
it is falsified by the current assignment the solver backjumps only far
enough to open it (to the clause's second-highest decision level, where it
becomes asserting), so the DPLL(T) loop resumes from the highest consistent
decision level after each theory blocking clause instead of re-deciding
every variable.  ``solve(assumptions=...)`` posts literals as pseudo
decision levels below the search, MiniSat style: a conflict that learns the
negation of an assumption surfaces as ``SatResult(False)`` for that call
without poisoning the solver (only a level-0 conflict is recorded as
permanently unsatisfiable).  ``incremental=False`` reproduces the previous
engine exactly — every call rebuilds watches, activities and the trail from
scratch (learned clauses and phases still persist) — and is kept as the
baseline of the incremental-trail differential tests; its wall-clock
comparison is recorded in ``BENCH_hot_paths.json``.

Correctness note on the watch scheme: a clause is re-scanned in full
whenever one of its watched literals is falsified, and its watches are
moved to currently-unfalsified literals.  Watches may transiently
degenerate (both on one literal, or one on a false literal after a clause
is integrated under a partial assignment); that can delay a unit
propagation but never loses a conflict — at least one watch of every clause
is non-false when the watch is placed, the search only answers
"satisfiable" once every variable is assigned, and the last falsification
of a watched literal always triggers its clause's re-scan.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..provers.base import Deadline


@dataclass
class SatResult:
    satisfiable: bool
    assignment: Dict[int, bool] = field(default_factory=dict)


class SatSolver:
    """CDCL with watched literals, 1-UIP learning and activity decisions."""

    def __init__(self, num_vars: int, incremental: bool = True) -> None:
        self.num_vars = num_vars
        self.incremental = incremental
        self.clauses: List[List[int]] = []
        #: Learned clauses persisted across ``solve`` calls.  Sound: a
        #: learned clause is implied by the clause set it was derived from,
        #: and the set only ever grows between calls.
        self._learned: List[List[int]] = []
        #: Saved decision phases, also persisted across calls.
        self._saved_phase: Dict[int, bool] = {}
        #: Cap on the persisted learned-clause store (long clauses are weak
        #: and slow propagation; beyond the cap the longest are dropped).
        self._max_learned = 4000
        # -- persistent search state (incremental mode) ---------------------
        #: The live clause database: inputs and learned clauses interleaved
        #: in integration order.  Clause indices (watches, reasons) refer to
        #: this list.
        self._db: List[List[int]] = []
        self._watches: Dict[int, List[int]] = {}
        self._assign: Dict[int, bool] = {}
        self._level_of: Dict[int, int] = {}
        self._reason_of: Dict[int, Optional[int]] = {}
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._activity: Dict[int, float] = {}
        self._heap: List = []
        self._bump = 1.0
        self._restart_interval = 100
        self._conflicts_until_restart = 100
        self._ticks = 0
        #: Input clauses added since the last ``solve`` (not yet integrated).
        self._pending: List[List[int]] = []
        #: Latched once a level-0 conflict proves the clause set unsatisfiable.
        self._unsat = False
        self._last_assumptions: Tuple[int, ...] = ()

    def add_clause(self, clause: Sequence[int]) -> None:
        clause = list(dict.fromkeys(clause))
        self.clauses.append(clause)
        if self.incremental:
            self._pending.append(clause)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def solve(
        self,
        max_decisions: int = 200000,
        deadline: Optional[Deadline] = None,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        """Solve the current clause set (under ``assumptions``, if given).

        ``deadline`` is polled once per batch of 128 propagation steps;
        expiry raises :class:`repro.provers.base.DeadlineExpired` (converted
        into a ``TIMEOUT`` answer by the calling prover).  Exhausting
        ``max_decisions`` reports "satisfiable" so the caller answers
        UNKNOWN rather than looping forever; this can never cause an
        unsound "proved" answer.  ``SatResult(False)`` under non-empty
        ``assumptions`` means "unsatisfiable together with the assumptions";
        with no assumptions it means the clause set itself is unsatisfiable
        (and the solver remembers that permanently).
        """
        if not self.incremental:
            return self._solve_scratch(max_decisions, deadline)
        return self._solve_incremental(max_decisions, deadline, tuple(assumptions))

    # ------------------------------------------------------------------
    # incremental engine
    # ------------------------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        var_value = self._assign.get(abs(lit))
        if var_value is None:
            return None
        return var_value == (lit > 0)

    def _current_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        existing = self._value(lit)
        if existing is not None:
            return existing
        variable = abs(lit)
        self._assign[variable] = lit > 0
        self._level_of[variable] = self._current_level()
        self._reason_of[variable] = reason
        self._trail.append(lit)
        return True

    def _backjump(self, target_level: int) -> None:
        if target_level >= self._current_level():
            return
        cut = self._trail_lim[target_level]
        for lit in self._trail[cut:]:
            variable = abs(lit)
            self._saved_phase[variable] = self._assign[variable]
            del self._assign[variable]
            del self._level_of[variable]
            del self._reason_of[variable]
            heapq.heappush(self._heap, (-self._activity.get(variable, 0.0), variable))
        del self._trail[cut:]
        del self._trail_lim[target_level:]
        self._qhead = len(self._trail)

    def _register_vars(self, lits: Sequence[int]) -> None:
        activity = self._activity
        for lit in lits:
            variable = abs(lit)
            activity[variable] = activity.get(variable, 0.0) + 1.0
            if variable not in self._assign:
                heapq.heappush(self._heap, (-activity[variable], variable))

    def _attach(self, index: int) -> bool:
        """Integrate ``self._db[index]`` into the live search state.

        Chooses watches that are non-false under the current assignment when
        possible; a clause falsified outright triggers a backjump to its
        second-highest decision level, where it becomes asserting.  Returns
        False when the clause is falsified at level 0 (the set is
        permanently unsatisfiable).
        """
        clause = self._db[index]
        if not clause:
            return False
        if len(clause) == 1:
            lit = clause[0]
            value = self._value(lit)
            self._watches.setdefault(lit, []).append(index)
            if value is True:
                return True
            if value is False:
                level = self._level_of[abs(lit)]
                if level == 0:
                    return False
                self._backjump(level - 1)
            self._enqueue(lit, reason=index)
            return True
        while True:
            true_lit = None
            open_lits: List[int] = []
            false_lits: List[int] = []
            for candidate in clause:
                value = self._value(candidate)
                if value is True:
                    true_lit = candidate
                elif value is None:
                    open_lits.append(candidate)
                else:
                    false_lits.append(candidate)
            non_false = ([true_lit] if true_lit is not None else []) + open_lits
            if len(non_false) >= 2:
                self._watches.setdefault(non_false[0], []).append(index)
                self._watches.setdefault(non_false[1], []).append(index)
                return True
            highest_false = (
                max(false_lits, key=lambda q: self._level_of[abs(q)])
                if false_lits
                else None
            )
            if len(non_false) == 1:
                watched = non_false[0]
                self._watches.setdefault(watched, []).append(index)
                if highest_false is not None:
                    self._watches.setdefault(highest_false, []).append(index)
                if true_lit is None:
                    # Unit under the current assignment: assert it here (its
                    # reason's literals all sit at or below this level).
                    self._enqueue(watched, reason=index)
                return True
            # Every literal false: conflict on integration.  Backjump to the
            # clause's second-highest decision level — the deepest level at
            # which it stops being falsified — and re-classify.
            levels = sorted((self._level_of[abs(q)] for q in clause), reverse=True)
            if levels[0] == 0:
                return False
            second = next((lv for lv in levels[1:] if lv < levels[0]), levels[0] - 1)
            self._backjump(second)

    def _integrate_pending(self) -> bool:
        pending, self._pending = self._pending, []
        for clause in pending:
            index = len(self._db)
            self._db.append(clause)
            self._register_vars(clause)
            if not self._attach(index):
                return False
        return True

    def _reduce_learned(self) -> None:
        """Compact the clause database when the learned store overflows.

        Keeps the shortest half of the learned clauses, rebuilds watches
        from level 0, and drops now-stale reasons (level-0 assignments keep
        their facts; conflict analysis never resolves through level 0).
        """
        if len(self._learned) <= self._max_learned:
            return
        self._backjump(0)
        learned_ids = {id(c) for c in self._learned}
        inputs = [c for c in self._db if id(c) not in learned_ids]
        self._learned.sort(key=len)
        kept = self._learned[: self._max_learned // 2]
        self._learned = kept
        self._db = inputs + kept
        self._watches = {}
        for variable in list(self._reason_of):
            self._reason_of[variable] = None
        for index in range(len(self._db)):
            if not self._attach(index):
                self._unsat = True
                return
        self._qhead = len(self._trail)

    def _propagate(self, deadline: Optional[Deadline]) -> Optional[int]:
        """Propagate the unprocessed trail suffix; returns a conflict index."""
        watches = self._watches
        trail = self._trail
        db = self._db
        value = self._value
        while self._qhead < len(trail):
            false_lit = -trail[self._qhead]
            self._qhead += 1
            self._ticks += 1
            if deadline is not None and self._ticks % 128 == 0:
                deadline.checkpoint(
                    detail=lambda: f"DPLL interrupted: {len(trail)} literals assigned"
                )
            watching = watches.get(false_lit)
            if not watching:
                continue
            # Invariant: every processed watch entry ends on a literal that
            # is not false right now (true satisfier, open literal, or the
            # just-enqueued unit).  A backjump can then only turn watched
            # literals *open*, never leave a stale false watch — which is
            # what guarantees the last falsification of a clause always
            # triggers its re-scan (no missed conflicts).
            position = 0
            while position < len(watching):
                clause_index = watching[position]
                position += 1
                clause = db[clause_index]
                true_literal = None
                open_literals: List[int] = []
                for candidate in clause:
                    candidate_value = value(candidate)
                    if candidate_value is True:
                        true_literal = candidate
                        break
                    if candidate_value is None:
                        open_literals.append(candidate)
                        if len(open_literals) >= 2:
                            break
                if true_literal is not None:
                    watches.setdefault(true_literal, []).append(clause_index)
                    continue
                if len(open_literals) >= 2:
                    watches.setdefault(open_literals[0], []).append(clause_index)
                    continue
                if len(open_literals) == 1:
                    unit = open_literals[0]
                    watches.setdefault(unit, []).append(clause_index)
                    self._enqueue(unit, reason=clause_index)
                    continue
                # Every literal false: conflict.  Keep the unprocessed
                # entries here — ``false_lit`` was assigned at the current
                # level, so the coming backjump reopens it.
                watches[false_lit] = [clause_index] + watching[position:]
                self._qhead -= 1
                return clause_index
            del watches[false_lit]
        return None

    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        """First-UIP conflict analysis: the learned clause and backjump level."""
        learned_tail: List[int] = []
        seen: Dict[int, bool] = {}
        counter = 0
        resolve_lit: Optional[int] = None
        index = len(self._trail) - 1
        reason_clause = self._db[conflict_index]
        level_of = self._level_of
        activity = self._activity
        current = self._current_level()
        while True:
            for q in reason_clause:
                if resolve_lit is not None and q == resolve_lit:
                    continue
                variable = abs(q)
                if seen.get(variable) or level_of.get(variable, 0) == 0:
                    continue
                seen[variable] = True
                activity[variable] = activity.get(variable, 0.0) + self._bump
                heapq.heappush(self._heap, (-activity[variable], variable))
                if level_of[variable] == current:
                    counter += 1
                else:
                    learned_tail.append(q)
            while not seen.get(abs(self._trail[index])):
                index -= 1
            resolve_lit = self._trail[index]
            index -= 1
            counter -= 1
            if counter == 0:
                break
            reason_clause = self._db[self._reason_of[abs(resolve_lit)]]
        # Put a maximum-level tail literal second: it is the learned
        # clause's other watch, and sharing the backjump level with the
        # asserting literal keeps the watch invariant across backjumps.
        learned_tail.sort(key=lambda q: -level_of[abs(q)])
        learned = [-resolve_lit] + learned_tail
        backjump_level = level_of[abs(learned_tail[0])] if learned_tail else 0
        self._bump *= 1.05  # newer conflicts weigh more (VSIDS-style decay)
        if self._bump > 1e100:
            for variable in activity:
                activity[variable] /= 1e100
            self._bump /= 1e100
            self._heap = [
                (-activity.get(v, 0.0), v) for v in activity if v not in self._assign
            ]
            heapq.heapify(self._heap)
        return learned, backjump_level

    def _decide(self) -> Optional[int]:
        while self._heap:
            _score, variable = heapq.heappop(self._heap)
            if variable not in self._assign:
                return variable
        return None

    def _solve_incremental(
        self,
        max_decisions: int,
        deadline: Optional[Deadline],
        assumptions: Tuple[int, ...],
    ) -> SatResult:
        if self._unsat:
            return SatResult(False)
        self._reduce_learned()
        if self._unsat:
            return SatResult(False)
        if not self._integrate_pending():
            self._unsat = True
            return SatResult(False)
        if assumptions != self._last_assumptions and (
            assumptions or self._last_assumptions
        ):
            # The old assumption pseudo-decisions are not part of the clause
            # set; drop the trail back to facts before honouring new ones.
            self._backjump(0)
        self._last_assumptions = assumptions

        budget = max_decisions
        while True:
            conflict = self._propagate(deadline)
            if conflict is not None:
                if self._current_level() == 0:
                    self._unsat = True
                    return SatResult(False)
                learned, backjump_level = self._analyze(conflict)
                self._conflicts_until_restart -= 1
                restart = (
                    self._conflicts_until_restart <= 0 and self._current_level() > 1
                )
                if restart:
                    # Restart (learned clauses and phases are kept); the
                    # geometric schedule keeps restarts from starving deep
                    # searches.
                    self._restart_interval = int(self._restart_interval * 1.5)
                    self._conflicts_until_restart = self._restart_interval
                self._backjump(0 if restart else backjump_level)
                learned_index = len(self._db)
                self._db.append(learned)
                self._learned.append(learned)
                self._watches.setdefault(learned[0], []).append(learned_index)
                if len(learned) > 1:
                    self._watches.setdefault(learned[1], []).append(learned_index)
                if not restart:
                    # At the backjump level the learned clause is asserting;
                    # after a restart it need not be unit, so it is only
                    # watched and left to propagation.
                    self._enqueue(learned[0], reason=learned_index)
                continue
            if self._current_level() < len(assumptions):
                # Establish the next assumption as a pseudo decision level
                # (a level per assumption, even when already satisfied, so
                # learned backjumps land between assumptions consistently).
                assumed = assumptions[self._current_level()]
                if self._value(assumed) is False:
                    return SatResult(False)
                self._trail_lim.append(len(self._trail))
                if self._value(assumed) is None:
                    self._enqueue(assumed, reason=None)
                continue
            decision = self._decide()
            if decision is None:
                return SatResult(True, dict(self._assign))
            budget -= 1
            if budget <= 0:
                # Budget exhausted: report "satisfiable" so the caller
                # answers UNKNOWN rather than looping forever.
                return SatResult(True, dict(self._assign))
            self._trail_lim.append(len(self._trail))
            polarity = self._saved_phase.get(decision, False)
            self._enqueue(decision if polarity else -decision, reason=None)

    # ------------------------------------------------------------------
    # from-scratch engine (the measured pre-incremental baseline)
    # ------------------------------------------------------------------

    def _solve_scratch(
        self, max_decisions: int = 200000, deadline: Optional[Deadline] = None
    ) -> SatResult:
        """The previous per-call engine: rebuilds watches, activities and the
        trail on every call (learned clauses and phases persist)."""
        clauses = [list(c) for c in self.clauses]
        if any(not clause for clause in clauses):
            return SatResult(False)
        first_learned = len(clauses)
        clauses.extend(list(c) for c in self._learned)

        assign: Dict[int, bool] = {}
        level_of: Dict[int, int] = {}
        reason_of: Dict[int, Optional[int]] = {}
        trail: List[int] = []
        trail_lim: List[int] = []  # trail indices where each decision level starts

        watches: Dict[int, List[int]] = {}

        def watch_clause(index: int) -> None:
            clause = clauses[index]
            watches.setdefault(clause[0], []).append(index)
            if len(clause) > 1:
                watches.setdefault(clause[1], []).append(index)

        for index in range(len(clauses)):
            watch_clause(index)

        activity: Dict[int, float] = {}
        for clause in clauses:
            for literal in clause:
                activity[abs(literal)] = activity.get(abs(literal), 0.0) + 1.0
        #: Max-heap of (-activity, var) with lazy deletion: bumps push a
        #: fresh entry, pops skip assigned vars (stale lower-score entries
        #: surface later and are skipped the same way).
        heap: List = [(-score, var) for var, score in activity.items()]
        heapq.heapify(heap)
        #: Phase saving: last assigned polarity per variable.
        saved_phase = self._saved_phase

        def current_level() -> int:
            return len(trail_lim)

        def value(lit: int) -> Optional[bool]:
            var_value = assign.get(abs(lit))
            if var_value is None:
                return None
            return var_value == (lit > 0)

        def enqueue(lit: int, reason: Optional[int]) -> bool:
            existing = value(lit)
            if existing is not None:
                return existing
            variable = abs(lit)
            assign[variable] = lit > 0
            level_of[variable] = current_level()
            reason_of[variable] = reason
            trail.append(lit)
            return True

        ticks = 0

        def propagate(start: int) -> Optional[int]:
            """Propagate trail[start:]; returns a conflicting clause index."""
            nonlocal ticks
            head = start
            while head < len(trail):
                false_lit = -trail[head]
                head += 1
                ticks += 1
                if deadline is not None and ticks % 128 == 0:
                    deadline.checkpoint(
                        detail=lambda: f"DPLL interrupted: {len(trail)} literals assigned"
                    )
                watching = watches.get(false_lit)
                if not watching:
                    continue
                position = 0
                while position < len(watching):
                    clause_index = watching[position]
                    position += 1
                    clause = clauses[clause_index]
                    true_literal = None
                    open_literals: List[int] = []
                    for candidate in clause:
                        candidate_value = value(candidate)
                        if candidate_value is True:
                            true_literal = candidate
                            break
                        if candidate_value is None:
                            open_literals.append(candidate)
                            if len(open_literals) >= 2:
                                break
                    if true_literal is not None:
                        watches.setdefault(true_literal, []).append(clause_index)
                        continue
                    if len(open_literals) >= 2:
                        watches.setdefault(open_literals[0], []).append(clause_index)
                        continue
                    if len(open_literals) == 1:
                        unit = open_literals[0]
                        watches.setdefault(unit, []).append(clause_index)
                        enqueue(unit, reason=clause_index)
                        continue
                    watches[false_lit] = [clause_index] + watching[position:]
                    return clause_index
                del watches[false_lit]
            return None

        def analyze(conflict_index: int) -> Tuple[List[int], int]:
            learned_tail: List[int] = []
            seen: Dict[int, bool] = {}
            counter = 0
            resolve_lit: Optional[int] = None
            index = len(trail) - 1
            reason_clause = clauses[conflict_index]
            while True:
                for q in reason_clause:
                    if resolve_lit is not None and q == resolve_lit:
                        continue
                    variable = abs(q)
                    if seen.get(variable) or level_of.get(variable, 0) == 0:
                        continue
                    seen[variable] = True
                    activity[variable] = activity.get(variable, 0.0) + bump
                    heapq.heappush(heap, (-activity[variable], variable))
                    if level_of[variable] == current_level():
                        counter += 1
                    else:
                        learned_tail.append(q)
                while not seen.get(abs(trail[index])):
                    index -= 1
                resolve_lit = trail[index]
                index -= 1
                counter -= 1
                if counter == 0:
                    break
                reason_clause = clauses[reason_of[abs(resolve_lit)]]
            learned_tail.sort(key=lambda q: -level_of[abs(q)])
            learned = [-resolve_lit] + learned_tail
            backjump_level = level_of[abs(learned_tail[0])] if learned_tail else 0
            return learned, backjump_level

        def backjump(target_level: int) -> None:
            cut = trail_lim[target_level]
            for lit in trail[cut:]:
                variable = abs(lit)
                saved_phase[variable] = assign[variable]
                del assign[variable]
                del level_of[variable]
                del reason_of[variable]
                heapq.heappush(heap, (-activity.get(variable, 0.0), variable))
            del trail[cut:]
            del trail_lim[target_level:]

        def decide() -> Optional[int]:
            while heap:
                _score, variable = heapq.heappop(heap)
                if variable not in assign:
                    return variable
            return None

        budget = max_decisions
        bump = 1.0
        conflicts_until_restart = 100
        restart_interval = 100
        start = 0
        try:
            while True:
                conflict = propagate(start)
                if conflict is not None:
                    if current_level() == 0:
                        return SatResult(False)
                    learned, backjump_level = analyze(conflict)
                    bump *= 1.05
                    if bump > 1e100:
                        for variable in activity:
                            activity[variable] /= 1e100
                        bump /= 1e100
                        heap = [(-activity.get(v, 0.0), v) for v in activity if v not in assign]
                        heapq.heapify(heap)
                    conflicts_until_restart -= 1
                    restart = conflicts_until_restart <= 0 and current_level() > 1
                    if restart:
                        restart_interval = int(restart_interval * 1.5)
                        conflicts_until_restart = restart_interval
                    backjump(0 if restart else backjump_level)
                    clauses.append(learned)
                    learned_index = len(clauses) - 1
                    watch_clause(learned_index)
                    start = len(trail)
                    if not restart:
                        enqueue(learned[0], reason=learned_index)
                    continue
                decision = decide()
                if decision is None:
                    return SatResult(True, dict(assign))
                budget -= 1
                if budget <= 0:
                    return SatResult(True, dict(assign))
                trail_lim.append(len(trail))
                start = len(trail)
                polarity = saved_phase.get(decision, False)
                enqueue(decision if polarity else -decision, reason=None)
        finally:
            learned = clauses[first_learned:]
            learned.sort(key=len)
            self._learned = learned[: self._max_learned]
