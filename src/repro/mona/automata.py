"""Deterministic finite automata over bit-track alphabets.

These automata are the computational core of the WS1S decision procedure
(the role MONA plays in the original system).  A word encodes a valuation of
the free variables of a WS1S formula: the alphabet is the set of bit vectors
with one *track* per variable, and position ``i`` of the word carries, for
every second-order variable ``X``, the bit "``i`` is an element of ``X``".

Supported operations are exactly the ones needed by the standard
formula-to-automaton construction: product (conjunction / disjunction),
complement (negation), and projection of one track (existential
quantification) followed by subset-construction determinisation and the
trailing-zero acceptance closure specific to WS1S.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..provers.base import Deadline

#: A letter: one bit per track, in track order.
Letter = Tuple[int, ...]


@dataclass
class DFA:
    """A complete deterministic automaton over the given tracks.

    ``transitions[state][letter]`` is defined for every state and every
    letter of the alphabet (automata are kept complete; a rejecting sink is
    added where needed).
    """

    tracks: Tuple[str, ...]
    initial: int
    accepting: FrozenSet[int]
    transitions: Dict[int, Dict[Letter, int]]

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def alphabet(self) -> List[Letter]:
        return [tuple(bits) for bits in itertools.product((0, 1), repeat=len(self.tracks))]

    # -- language queries -----------------------------------------------------

    def accepts(self, word: Sequence[Letter]) -> bool:
        state = self.initial
        for letter in word:
            state = self.transitions[state][tuple(letter)]
        return state in self.accepting

    def is_empty(self) -> bool:
        """True when the accepted language is empty."""
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            state = frontier.pop()
            if state in self.accepting:
                return False
            for target in self.transitions[state].values():
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return True

    def find_accepted_word(self, max_length: int = 32) -> Optional[List[Letter]]:
        """A shortest accepted word, or None if the language is empty."""
        from collections import deque

        queue = deque([(self.initial, [])])
        seen = {self.initial}
        while queue:
            state, word = queue.popleft()
            if state in self.accepting:
                return word
            if len(word) >= max_length:
                continue
            for letter, target in self.transitions[state].items():
                if target not in seen:
                    seen.add(target)
                    queue.append((target, word + [letter]))
        return None

    # -- boolean operations -----------------------------------------------------

    def complement(self) -> "DFA":
        accepting = frozenset(s for s in self.transitions if s not in self.accepting)
        return DFA(self.tracks, self.initial, accepting, self.transitions)

    def product(self, other: "DFA", mode: str = "and", deadline: Optional[Deadline] = None) -> "DFA":
        """Product automaton; ``mode`` is ``"and"`` or ``"or"``.

        Polls ``deadline`` once per product state expanded, so a blowing-up
        construction unwinds with :class:`DeadlineExpired` within one state's
        worth of work of the budget.
        """
        tracks = self.tracks
        if other.tracks != tracks:
            raise ValueError("product requires identical track lists; cylindrify first")
        alphabet = self.alphabet()
        state_ids: Dict[Tuple[int, int], int] = {}
        transitions: Dict[int, Dict[Letter, int]] = {}
        accepting: Set[int] = set()

        def intern(pair: Tuple[int, int]) -> int:
            if pair not in state_ids:
                state_ids[pair] = len(state_ids)
            return state_ids[pair]

        initial = intern((self.initial, other.initial))
        frontier = [(self.initial, other.initial)]
        visited = {(self.initial, other.initial)}
        while frontier:
            if deadline is not None:
                deadline.checkpoint(
                    detail=lambda: f"automaton product interrupted: {len(state_ids)} states built"
                )
            pair = frontier.pop()
            source = intern(pair)
            transitions[source] = {}
            left_accept = pair[0] in self.accepting
            right_accept = pair[1] in other.accepting
            is_accepting = (left_accept and right_accept) if mode == "and" else (left_accept or right_accept)
            if is_accepting:
                accepting.add(source)
            for letter in alphabet:
                target_pair = (
                    self.transitions[pair[0]][letter],
                    other.transitions[pair[1]][letter],
                )
                transitions[source][letter] = intern(target_pair)
                if target_pair not in visited:
                    visited.add(target_pair)
                    frontier.append(target_pair)
        return DFA(tracks, initial, frozenset(accepting), transitions)

    # -- track manipulation -----------------------------------------------------

    def cylindrify(self, new_tracks: Sequence[str], deadline: Optional[Deadline] = None) -> "DFA":
        """Extend the automaton to a larger track list (new tracks are don't-care)."""
        new_tracks = tuple(new_tracks)
        positions = []
        for track in self.tracks:
            positions.append(new_tracks.index(track))
        transitions: Dict[int, Dict[Letter, int]] = {}
        alphabet = [tuple(bits) for bits in itertools.product((0, 1), repeat=len(new_tracks))]
        for state, outgoing in self.transitions.items():
            if deadline is not None:
                deadline.checkpoint(
                    every=16,
                    detail=lambda: f"cylindrification interrupted: {len(transitions)} of {self.num_states} states widened",
                )
            transitions[state] = {}
            for letter in alphabet:
                old_letter = tuple(letter[p] for p in positions)
                transitions[state][letter] = outgoing[old_letter]
        return DFA(new_tracks, self.initial, self.accepting, transitions)

    def project(self, track: str, deadline: Optional[Deadline] = None) -> "DFA":
        """Existentially quantify one track (WS1S semantics).

        The projection produces an NFA (the quantified track may be 0 or 1 on
        every position); it is determinised by the subset construction, and
        acceptance is closed under trailing all-zero letters: the witness set
        for the quantified variable may contain positions beyond the length
        of the remaining word, which corresponds to appending zero letters.

        Polls ``deadline`` once per subset expanded during determinisation.
        """
        index = self.tracks.index(track)
        remaining = tuple(t for i, t in enumerate(self.tracks) if i != index)
        remaining_alphabet = [
            tuple(bits) for bits in itertools.product((0, 1), repeat=len(remaining))
        ]

        def expand(letter: Letter, bit: int) -> Letter:
            return letter[:index] + (bit,) + letter[index:]

        # Subset construction over the projected transition relation.
        initial_set = frozenset({self.initial})
        state_ids: Dict[FrozenSet[int], int] = {initial_set: 0}
        transitions: Dict[int, Dict[Letter, int]] = {}
        frontier = [initial_set]
        while frontier:
            if deadline is not None:
                deadline.checkpoint(
                    detail=lambda: f"subset construction interrupted: {len(state_ids)} states built"
                )
            subset = frontier.pop()
            source = state_ids[subset]
            transitions[source] = {}
            for letter in remaining_alphabet:
                targets = frozenset(
                    self.transitions[s][expand(letter, bit)] for s in subset for bit in (0, 1)
                )
                if targets not in state_ids:
                    state_ids[targets] = len(state_ids)
                    frontier.append(targets)
                transitions[source][letter] = state_ids[targets]

        # A subset is accepting if one of its states can reach an accepting
        # state of the original automaton by reading letters that are zero on
        # every remaining track (the quantified track is unconstrained).
        zero_closure_targets = self._states_reaching_accepting_via_zeros(index)
        accepting = frozenset(
            state_ids[subset]
            for subset in state_ids
            if any(s in zero_closure_targets for s in subset)
        )
        return DFA(remaining, 0, accepting, transitions)

    def _states_reaching_accepting_via_zeros(self, projected_index: int) -> Set[int]:
        """States from which an accepting state is reachable reading letters
        that are zero on all tracks except (possibly) the projected one."""
        zero_letters = []
        for bit in (0, 1):
            letter = [0] * len(self.tracks)
            letter[projected_index] = bit
            zero_letters.append(tuple(letter))
        # Backwards reachability.
        result = set(self.accepting)
        changed = True
        while changed:
            changed = False
            for state, outgoing in self.transitions.items():
                if state in result:
                    continue
                if any(outgoing[letter] in result for letter in zero_letters):
                    result.add(state)
                    changed = True
        return result

    # -- normalisation ----------------------------------------------------------

    def minimize(self, deadline: Optional[Deadline] = None) -> "DFA":
        """Hopcroft-style minimisation (simple partition refinement)."""
        states = list(self.transitions)
        alphabet = self.alphabet()
        partition: Dict[int, int] = {
            s: (0 if s in self.accepting else 1) for s in states
        }
        changed = True
        while changed:
            changed = False
            signature: Dict[int, Tuple] = {}
            for state in states:
                if deadline is not None:
                    deadline.checkpoint(
                        every=64,
                        detail=lambda: f"minimisation interrupted at {len(states)} states",
                    )
                signature[state] = (
                    partition[state],
                    tuple(partition[self.transitions[state][letter]] for letter in alphabet),
                )
            blocks: Dict[Tuple, int] = {}
            new_partition: Dict[int, int] = {}
            for state in states:
                key = signature[state]
                if key not in blocks:
                    blocks[key] = len(blocks)
                new_partition[state] = blocks[key]
            if new_partition != partition:
                partition = new_partition
                changed = True
        representatives: Dict[int, int] = {}
        for state in states:
            representatives.setdefault(partition[state], state)
        transitions: Dict[int, Dict[Letter, int]] = {}
        for block, representative in representatives.items():
            transitions[block] = {
                letter: partition[self.transitions[representative][letter]]
                for letter in alphabet
            }
        accepting = frozenset(
            block for block, rep in representatives.items() if rep in self.accepting
        )
        return DFA(self.tracks, partition[self.initial], accepting, transitions)


def constant(value: bool, tracks: Sequence[str]) -> DFA:
    """The automaton accepting every word (True) or no word (False)."""
    tracks = tuple(tracks)
    alphabet = [tuple(bits) for bits in itertools.product((0, 1), repeat=len(tracks))]
    transitions = {0: {letter: 0 for letter in alphabet}}
    accepting = frozenset({0}) if value else frozenset()
    return DFA(tracks, 0, accepting, transitions)


def from_predicate(tracks: Sequence[str], num_states: int, initial: int,
                   accepting: Iterable[int], delta) -> DFA:
    """Build a complete DFA from a transition *function* ``delta(state, letter)``.

    Convenience used by the WS1S atom constructors; ``delta`` may return any
    state index in ``range(num_states)``.
    """
    tracks = tuple(tracks)
    alphabet = [tuple(bits) for bits in itertools.product((0, 1), repeat=len(tracks))]
    transitions = {
        state: {letter: delta(state, letter) for letter in alphabet}
        for state in range(num_states)
    }
    return DFA(tracks, initial, frozenset(accepting), transitions)
