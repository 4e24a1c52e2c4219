"""repro — a Python reproduction of the Jahob data structure verification system.

The package reproduces the system described in *Full Functional Verification
of Linked Data Structures* (Zee, Kuncak, Rinard; PLDI 2008): a verifier for
Java-like data structure implementations annotated with higher-order-logic
specifications, built around *integrated reasoning* — splitting verification
conditions into many sequents and dispatching each to a portfolio of
specialised provers.

High-level API::

    from repro import verify, suite

    result = verify(suite.source("AssocList"), method="get",
                    provers=["syntactic", "fol", "smt"])
    print(result.report())

Sub-packages:

``repro.form``         HOL formulas (AST, parser, printer, type checker)
``repro.java``         mini-Java frontend
``repro.spec``         Jahob specification constructs
``repro.gcl``          guarded commands and weakest preconditions
``repro.vcgen``        verification condition generation and splitting
``repro.provers``      prover interface, approximation, dispatcher
``repro.fol``          first-order resolution prover (SPASS/E role)
``repro.smt``          ground SMT-style prover (CVC3/Z3 role)
``repro.mona``         WS1S decision procedure (MONA role)
``repro.bapa``         BAPA / Presburger decision procedures
``repro.core``         the verifier driver and reports
``repro.suite``        the ten verified data structures of Section 7
``repro.server``       the verify daemon: verification-as-a-service with a
                       shared cross-request verdict store (``python -m
                       repro.server``; clients use ``repro.server.VerifyClient``)
"""

__version__ = "0.1.0"

__all__ = [
    "verify",
    "verify_class",
    "MethodReport",
    "ClassReport",
    "SequentCache",
    "suite",
    "server",
    "__version__",
]


def __getattr__(name):
    """Lazily expose the high-level API to avoid importing the whole system
    (frontend, provers, suite) when a caller only needs one sub-package."""
    if name in ("verify", "verify_class"):
        from .core import verifier

        return getattr(verifier, name)
    if name == "SequentCache":
        from .provers.cache import SequentCache

        return SequentCache
    if name in ("MethodReport", "ClassReport"):
        from .core import report

        return getattr(report, name)
    if name in ("suite", "server"):
        import importlib

        module = importlib.import_module(f"repro.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
