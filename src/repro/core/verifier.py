"""The Jahob driver: verify a method or a whole data structure.

``verify`` mirrors the command line of Figure 7::

    $ jahob List.java -method List.add -usedp spass mona bapa

    >>> from repro import verify
    >>> report = verify(source, class_name="List", method="add",
    ...                 provers=["spass", "mona", "bapa"])
    >>> print(report.format())

Prover names accept both this reproduction's engine names (``syntactic``,
``smt``, ``fol``, ``mona``, ``bapa``) and the paper's tool names (``spass``,
``e``, ``z3``, ``cvc3``) as aliases.

Dispatch settings are the fields of one frozen
:class:`repro.provers.dispatcher.DispatchConfig`.  Pass them as keywords
(``verify(..., workers=4, dedup=True)``) or build the config once and pass
``config=`` — :func:`verify_class` builds it once for all its methods:

* ``provers`` / ``prover_options``: the chain, as on Jahob's ``-usedp``
  command line, and each engine's options.  The syntactic prover always
  runs first (it is free and discharges the many trivial conjuncts every
  VC contains).
* ``workers=N``: the executor.  By default one worker per CPU this
  process may run on fans the split sequents out to a process pool, as
  Jahob runs its provers as separate processes; ``workers=1`` dispatches
  inline.  Outcomes never depend on the executor; with several workers the
  prover credited for a sequent may.
* ``sequent_budget=T`` bounds the time the portfolio may spend on any one
  sequent — and the bound is *enforced*: every prover polls the budget's
  deadline on its hot loop and answers ``TIMEOUT`` when its slice runs out
  (see the Deadline contract in :mod:`repro.provers.base`).
* ``dedup=True`` groups the split sequents by structural digest before
  dispatch, proves one representative per group and replays its verdict for
  the duplicates (reported like cache replays, never as live proofs).

``cache=`` is not a setting but a shared resource: a
:class:`repro.provers.cache.SequentCache` memoises proved (and refuted)
sequents under their structural digest, so re-verifying a method, a class,
or the whole suite replays prior verdicts instead of re-proving them.
Share one cache across calls to benefit.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, Union

from ..java.resolver import Program, parse_program
from ..provers.cache import SequentCache
from ..provers.dispatcher import (  # noqa: F401 - perfbench/spans.py traces make_provers here
    DispatchConfig,
    DispatchResult,
    Dispatcher,
    make_provers,
)
from ..vcgen.sequent import Sequent
from ..vcgen.vcgen import generate_method_vc
from .report import ClassReport, MethodReport

SourceOrProgram = Union[str, Program]

#: A pluggable dispatch backend: takes the split sequents, returns the
#: dispatch result.  The verify daemon injects one that routes sequents
#: through its verify service (``repro.server``: the verdict store, then a
#: dispatch lane), so server-backed reports are assembled by this module.
DispatchFn = Callable[[Sequence[Sequent]], DispatchResult]


def _as_program(source: SourceOrProgram) -> Program:
    if isinstance(source, Program):
        return source
    return parse_program(source)


def _single_class_name(program: Program) -> str:
    candidates = [cls.name for cls in program.unit.classes if any(
        method.body is not None for method in cls.methods)]
    if len(candidates) == 1:
        return candidates[0]
    raise ValueError(
        f"class_name must be given explicitly; candidates: {', '.join(candidates)}"
    )


def _dispatch_config(config: Optional[DispatchConfig], settings: dict) -> DispatchConfig:
    """The config a call dispatches with: ``config`` as given, else one built
    from the keyword ``settings`` (never both)."""
    if config is None:
        return DispatchConfig.for_verify(**settings)
    if settings:
        raise TypeError(f"pass either config= or dispatch settings, not both: {sorted(settings)}")
    return config


def verify(
    source: SourceOrProgram,
    method: str,
    class_name: Optional[str] = None,
    config: Optional[DispatchConfig] = None,
    cache: Optional[SequentCache] = None,
    dispatch: Optional[DispatchFn] = None,
    **settings,
) -> MethodReport:
    """Verify one method and return its report (Figure 7).

    ``config`` (or the keyword ``settings`` it is built from, see the module
    docstring) says how the split sequents are dispatched; ``cache``
    memoises prover verdicts per normalized sequent.

    Each sequent's live provers run in the order the learned
    :class:`repro.provers.ordering.ProverOrdering` ranks them — the table
    ``cache`` owns, or a fresh one per call without a cache — and every
    answer teaches the table as it lands.  The order changes which prover
    gets credit for a sequent, never which sequents prove.

    ``dispatch`` replaces the dispatch backend entirely: the split sequents
    are handed to the callable and its :class:`DispatchResult` feeds the
    report.  The verify daemon (:mod:`repro.server`) uses this to route
    sequents through its verdict store and lanes while the report is still
    assembled here — which is what makes server-backed reports byte-identical
    to local ones.  Only the config's prover chain then matters here (it is
    the report's ``prover_order``); the rest is the callable's concern.
    """
    config = _dispatch_config(config, settings)
    parse_start = time.perf_counter()
    program = _as_program(source)
    parse_time = time.perf_counter() - parse_start
    if class_name is None:
        class_name = _single_class_name(program)

    start = time.perf_counter()
    method_vc = generate_method_vc(program, class_name, method)
    vcgen_time = time.perf_counter() - start

    if dispatch is not None:
        dispatched = dispatch(method_vc.sequents)
    else:
        dispatched = Dispatcher(config, cache).prove_all(method_vc.sequents)

    report = MethodReport(
        class_name=class_name,
        method_name=method,
        total_sequents=len(method_vc.sequents),
        proved_sequents=dispatched.proved,
        proved_during_splitting=method_vc.proved_during_splitting,
        prover_stats=dispatched.stats,
        prover_order=list(config.provers),
        unproved_origins=[outcome.sequent.origin for outcome in dispatched.unproved()],
        refuted=[
            f"{outcome.sequent.origin}: {outcome.countermodel}"
            for outcome in dispatched.unproved()
            if outcome.countermodel
        ],
        total_time=time.perf_counter() - start,
        cache_hits=dispatched.cache_stats.hits,
        cache_misses=dispatched.cache_stats.misses,
        proved_from_cache=dispatched.proved_from_cache,
        replayed_sequents=dispatched.replayed,
        wall_time=dispatched.wall_time,
        cpu_time=dispatched.cpu_time,
        workers=dispatched.workers,
        worker_utilization=dict(dispatched.worker_utilization),
        dedup_replayed=dispatched.dedup_replayed,
        trusted_assumes=method_vc.trusted_assumes,
        frontend_phases={"parse": parse_time, "vcgen": vcgen_time},
    )
    return report


def verify_class(
    source: SourceOrProgram,
    class_name: Optional[str] = None,
    methods: Optional[Sequence[str]] = None,
    config: Optional[DispatchConfig] = None,
    cache: Optional[SequentCache] = None,
    dispatch: Optional[DispatchFn] = None,
    **settings,
) -> ClassReport:
    """Verify every contracted method of a class (one Figure 15 row).

    The dispatch config is built once and, with ``cache`` and ``dispatch``,
    passed to :func:`verify` for each method; sharing one cache across the
    class lets invariant obligations that repeat between methods be proved
    once and replayed, and ``dedup`` additionally collapses duplicates
    within each method's batch before any prover runs.  The verify daemon
    passes its verify service as ``dispatch``.
    """
    config = _dispatch_config(config, settings)
    program = _as_program(source)
    if class_name is None:
        class_name = _single_class_name(program)
    report = ClassReport(class_name=class_name, prover_order=list(config.provers))
    for info in program.methods_of(class_name):
        if info.decl.body is None:
            continue
        if methods is not None and info.decl.name not in methods:
            continue
        if not info.decl.contract_text and methods is None:
            # Un-contracted helpers are not verification targets.
            continue
        report.methods.append(
            verify(
                program,
                method=info.decl.name,
                class_name=class_name,
                config=config,
                cache=cache,
                dispatch=dispatch,
            )
        )
    return report
