"""Shared fixtures of the tier-1 suite."""

import pytest

from repro import suite
from repro.java.resolver import parse_program
from repro.vcgen.vcgen import generate_method_vc

#: The dispatch executors parity tests run under, as
#: :class:`repro.provers.dispatcher.DispatchConfig` settings.
EXECUTORS = {
    "inline": {"workers": 1},
    "processes2": {"workers": 2},
}


@pytest.fixture(params=list(EXECUTORS))
def executor(request):
    """The ``workers`` setting of one dispatch executor."""
    return dict(EXECUTORS[request.param])


@pytest.fixture(scope="session")
def suite_sequents():
    """Every sequent of the bundled suite's contracted method bodies."""
    sequents = []
    for name in suite.names():
        program = parse_program(suite.source(name))
        for info in program.methods_of(name):
            if info.decl.body is not None and info.decl.contract_text:
                sequents.extend(generate_method_vc(program, name, info.decl.name).sequents)
    return tuple(sequents)
