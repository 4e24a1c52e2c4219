"""Ground SMT-style prover (the CVC3 / Z3 role in the Jahob portfolio)."""

from .congruence import CongruenceClosure, check_euf  # noqa: F401
from .instantiate import (  # noqa: F401
    EMatchEngine,
    InstantiationConfig,
    Trigger,
    infer_triggers,
)
from .lia import check_lia, fourier_motzkin_consistent  # noqa: F401
from .prover import SmtProver  # noqa: F401
from .sat import SatSolver, SatResult  # noqa: F401

__all__ = [
    "SmtProver",
    "CongruenceClosure",
    "check_euf",
    "check_lia",
    "fourier_motzkin_consistent",
    "SatSolver",
    "SatResult",
    "InstantiationConfig",
    "EMatchEngine",
    "Trigger",
    "infer_triggers",
]
