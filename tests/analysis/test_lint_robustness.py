"""Malformed input never escapes the linter as an exception: seeded
character-level mutants of every suite source lint to findings."""

import random

from repro import suite
from repro.analysis import lint_source

MUTANTS = 300
ALPHABET = '"&|~()*/:;{}=.,<>-+ abcdefinrstv01'


def _mutant(rng, text):
    """Delete, insert or replace one character at a random position."""
    at = rng.randrange(len(text))
    op = rng.randrange(3)
    if op == 0:
        return text[:at] + text[at + 1:]
    if op == 1:
        return text[:at] + rng.choice(ALPHABET) + text[at:]
    return text[:at] + rng.choice(ALPHABET) + text[at + 1:]


def test_suite_mutants_lint_without_raising():
    rng = random.Random(11)
    sources = {name: suite.source(name) for name in suite.names()}
    names = sorted(sources)
    errors = 0
    for index in range(MUTANTS):
        name = rng.choice(names)
        try:
            report = lint_source(_mutant(rng, sources[name]), file=f"{name}.java")
        except Exception as exc:  # noqa: BLE001 - the property under test
            raise AssertionError(f"mutant {index} of {name} raised {exc!r}") from exc
        errors += report.errors > 0
    assert errors > 0  # the mutants do break things; they are just reported
