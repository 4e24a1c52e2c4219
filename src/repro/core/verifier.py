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
``config=``.  :func:`verify_class` proves a whole class in one dispatch
(one process pool per class, largest sequents first), and :func:`verify` is
its one-method case:

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
  the duplicates (reported like cache replays, never as live proofs).  The
  batch is the class's, so an obligation repeated between its methods is
  proved once.

``cache=`` is not a setting but a shared resource: a
:class:`repro.provers.cache.SequentCache` memoises proved (and refuted)
sequents under their structural digest, so re-verifying a method, a class,
or the whole suite replays prior verdicts instead of re-proving them.
Share one cache across calls to benefit.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple, Union

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


def _prove_methods(
    program: Program,
    class_name: str,
    names: Sequence[str],
    config: DispatchConfig,
    cache: Optional[SequentCache],
    dispatch: Optional[DispatchFn],
    parse_time: float,
) -> List[MethodReport]:
    """Generate each named method's VC, prove all their sequents in one
    dispatch, and report each method from its contiguous slice of the
    outcomes.  ``parse_time`` is credited to the first method, so a class
    report's frontend phases count the one parse."""
    vcs, vcgen_times = [], []
    for name in names:
        start = time.perf_counter()
        vcs.append(generate_method_vc(program, class_name, name))
        vcgen_times.append(time.perf_counter() - start)

    sequents = [sequent for vc in vcs for sequent in vc.sequents]
    start = time.perf_counter()
    if dispatch is not None:
        dispatched = dispatch(sequents)
    else:
        dispatched = Dispatcher(config, cache).prove_all(sequents)
    dispatch_time = time.perf_counter() - start

    reports = []
    parts = dispatched.split([len(vc.sequents) for vc in vcs])
    for name, vc, vcgen_time, part in zip(names, vcs, vcgen_times, parts):
        reports.append(MethodReport(
            class_name=class_name,
            method_name=name,
            total_sequents=len(vc.sequents),
            proved_sequents=part.proved,
            proved_during_splitting=vc.proved_during_splitting,
            prover_stats=part.stats,
            prover_order=list(config.provers),
            unproved_origins=[outcome.sequent.origin for outcome in part.unproved()],
            refuted=[
                f"{outcome.sequent.origin}: {outcome.countermodel}"
                for outcome in part.unproved()
                if outcome.countermodel
            ],
            total_time=vcgen_time + dispatch_time,
            cache_hits=part.cache_stats.hits,
            cache_misses=part.cache_stats.misses,
            proved_from_cache=part.proved_from_cache,
            replayed_sequents=part.replayed,
            wall_time=part.wall_time,
            cpu_time=part.cpu_time,
            workers=part.workers,
            worker_utilization=dict(part.worker_utilization),
            dedup_replayed=part.dedup_replayed,
            trusted_assumes=vc.trusted_assumes,
            frontend_phases={"parse": parse_time if not reports else 0.0, "vcgen": vcgen_time},
        ))
    return reports


def _parsed(source: SourceOrProgram, class_name: Optional[str]) -> Tuple[Program, str, float]:
    """The program, the class to verify and the parse's wall time (zero for
    an already-parsed program)."""
    start = time.perf_counter()
    program = _as_program(source)
    parse_time = time.perf_counter() - start
    return program, class_name or _single_class_name(program), parse_time


def verify(
    source: SourceOrProgram,
    method: str,
    class_name: Optional[str] = None,
    config: Optional[DispatchConfig] = None,
    cache: Optional[SequentCache] = None,
    dispatch: Optional[DispatchFn] = None,
    **settings,
) -> MethodReport:
    """Verify one method and return its report (Figure 7): the one-method
    case of :func:`verify_class`.

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
    program, class_name, parse_time = _parsed(source, class_name)
    return _prove_methods(
        program, class_name, [method], config, cache, dispatch, parse_time
    )[0]


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

    The class is parsed once, every target method's VC is generated, and
    all their sequents go to the provers in **one** dispatch — one pool per
    class, or one ``dispatch`` call (the verify daemon passes its verify
    service, so a class request takes one lane) — which submits the
    largest sequents first.  Each method's report is built from its
    contiguous slice of the outcomes; its ``wall_time`` and ``workers`` are
    the class dispatch's, and the class report's ``total_time`` is this
    call's wall.  ``dedup`` collapses duplicates within the class's batch
    (an invariant obligation repeated between methods is proved once), and
    a ``cache`` shared across classes replays what earlier calls proved.
    """
    start = time.perf_counter()
    config = _dispatch_config(config, settings)
    program, class_name, parse_time = _parsed(source, class_name)
    names = []
    for info in program.methods_of(class_name):
        if info.decl.body is None:
            continue
        if methods is not None and info.decl.name not in methods:
            continue
        if not info.decl.contract_text and methods is None:
            # Un-contracted helpers are not verification targets.
            continue
        names.append(info.decl.name)
    reports = _prove_methods(program, class_name, names, config, cache, dispatch, parse_time)
    return ClassReport(
        class_name=class_name,
        methods=reports,
        prover_order=list(config.provers),
        total_time=time.perf_counter() - start,
    )
