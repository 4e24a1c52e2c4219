"""Shared fixtures of the tier-1 suite."""

import pytest

#: The dispatch executors backend-parity tests run under, as
#: :class:`repro.provers.dispatcher.DispatchConfig` settings.
EXECUTORS = {
    "inline": {"workers": 1},
    "threads2": {"workers": 2, "backend": "thread"},
    "processes2": {"workers": 2, "backend": "process"},
}


@pytest.fixture(params=list(EXECUTORS))
def executor(request):
    """``workers``/``backend`` settings of one dispatch executor."""
    return dict(EXECUTORS[request.param])
