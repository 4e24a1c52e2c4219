"""Verification reports in the style of the paper's Figures 7 and 15.

Figure 7 shows the per-method command-line report: how many sequents each
prover proved and how long it spent, how many sequents the built-in checker
discharged during splitting, and whether the verification succeeded.
Figure 15 aggregates the same numbers per data structure.

On top of the paper's numbers, the reports surface the dispatch
instrumentation of the parallel cached dispatcher: sequent-cache hit rates
(``cache_hits`` / ``cache_misses`` / ``proved_from_cache``), wall versus
CPU time when some chain ran on a pool of ``workers > 1`` (the pool's
utilization is a field, not printed), and the number of sequents answered
by the dedup pre-pass (``dedup_replayed``).

Time and budget semantics
-------------------------

Three distinct clocks appear in a report; do not conflate them:

* **wall time** (``wall_time`` / ``total_time``): elapsed real time.  A
  class is proved in one dispatch shared by its methods, so each method's
  ``wall_time`` and ``workers`` are that dispatch's, and its ``total_time``
  is its own VC generation plus the whole shared dispatch.  A class
  report's ``total_time`` (Figure 15's "Total Time") is the measured wall
  of the :func:`repro.core.verifier.verify_class` call, never a sum over
  methods, which would count the shared dispatch once per method.  With
  ``workers > 1`` many provers run inside one wall-second.
* **CPU time in provers** (``cpu_time``, and per-prover
  ``ProverStats.time``): the summed durations of live prover attempts —
  cache replays and dedup fan-outs cost zero.  ``ProverStats.time`` is also
  the *budget consumed* by that prover: deadlines are enforced inside the
  engines (see :mod:`repro.provers.base`), so a prover's recorded time never
  exceeds its configured ``timeout`` (nor the per-sequent budget) by more
  than one checkpoint interval.
* **per-sequent budget** (``sequent_budget=``): the enforced ceiling on the
  sum of one sequent's live attempt times.  A ``TIMEOUT`` answer's ``time``
  tells how much of the budget that prover burned before being cut off; its
  ``detail`` records the partial work done (states built, regions
  enumerated, clauses processed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..provers.base import ProverStats


@dataclass
class MethodReport:
    """Statistics of verifying a single method."""

    class_name: str
    method_name: str
    total_sequents: int = 0
    proved_sequents: int = 0
    proved_during_splitting: int = 0
    prover_stats: Dict[str, ProverStats] = field(default_factory=dict)
    prover_order: List[str] = field(default_factory=list)
    unproved_origins: List[str] = field(default_factory=list)
    #: One ``"origin: countermodel ..."`` line per unproved sequent a prover
    #: refuted with a checked countermodel (a subset of ``unproved_origins``).
    refuted: List[str] = field(default_factory=list)
    total_time: float = 0.0
    # -- dispatch instrumentation (parallel cached dispatcher) ----------------
    cache_hits: int = 0
    cache_misses: int = 0
    proved_from_cache: int = 0
    #: Sequents *decided* by replayed answers whatever the verdict — includes
    #: cached UNKNOWN/TIMEOUT replays, which ``proved_from_cache`` (proofs
    #: only) leaves out.  This is the warm-cache traffic number.
    replayed_sequents: int = 0
    wall_time: float = 0.0
    cpu_time: float = 0.0
    workers: int = 1
    worker_utilization: Dict[str, float] = field(default_factory=dict)
    #: Sequents answered by the dedup pre-pass (duplicates of an earlier
    #: sequent in the batch, replayed instead of proved live).  Not printed
    #: by :meth:`format` so that dedup and warm-cache runs produce identical
    #: reports; inspect it programmatically.
    dedup_replayed: int = 0
    #: User-written ``assume`` statements in the method body.  Each is a
    #: *trusted* step the provers never check; the paper's headline claim
    #: (and this reproduction's, since the set-of-support engine landed) is
    #: full verification with ``trusted_assumes == 0``.
    trusted_assumes: int = 0
    #: Frontend wall time outside the provers: ``parse`` (Java source to
    #: program, zero when an already-parsed program was passed) and
    #: ``vcgen`` (weakest-precondition generation plus splitting).
    frontend_phases: Dict[str, float] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.proved_sequents == self.total_sequents

    @property
    def fully_verified(self) -> bool:
        """Succeeded *and* free of trusted ``assume`` steps."""
        return self.succeeded and self.trusted_assumes == 0

    @property
    def instantiations(self) -> int:
        """Quantifier instances generated across all live prover attempts
        (the SMT engine's E-matching/grounding work)."""
        return sum(stats.instances for stats in self.prover_stats.values())

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of prover lookups answered by the sequent cache."""
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0

    @property
    def proved_live(self) -> int:
        """Sequents proved by actually running a prover (not cache replay)."""
        return self.proved_sequents - self.proved_from_cache

    def proved_by(self, prover: str) -> int:
        stats = self.prover_stats.get(prover)
        return stats.proved if stats else 0

    def time_of(self, prover: str) -> float:
        stats = self.prover_stats.get(prover)
        return stats.time if stats else 0.0

    def phase_times(self) -> Dict[str, Dict[str, float]]:
        """Per-prover phase breakdown of live attempt time (seconds).

        Phases are the engines' own monotonic spans (translate, clausify,
        instantiation, sat, theory, saturate, ...) plus the ``other``
        bucket :meth:`repro.provers.base.Prover.prove` adds, so per answer
        the phases sum to the measured wall time exactly; cache replays
        contribute nothing, mirroring ``ProverStats.time``.
        """
        return {
            prover: dict(stats.phases)
            for prover, stats in self.prover_stats.items()
            if stats.phases
        }

    def format(self) -> str:
        """A command-line report shaped like Figure 7."""
        lines = [
            "=" * 56,
            f"Built-in checker proved {self.proved_during_splitting} sequents during splitting.",
        ]
        for prover in self.prover_order:
            stats = self.prover_stats.get(prover)
            if stats is None or stats.attempted == 0:
                continue
            instantiated = (
                f" ({stats.instances} quantifier instances)" if stats.instances else ""
            )
            lines.append(
                f"{prover.upper()} proved {stats.proved} out of {stats.attempted} sequents. "
                f"Total time : {stats.time:.1f} s" + instantiated
            )
        if self.cache_lookups:
            replay = f"{self.proved_from_cache} proofs replayed"
            if self.replayed_sequents > self.proved_from_cache:
                extra = self.replayed_sequents - self.proved_from_cache
                replay += f" (+{extra} non-proof replays)"
            lines.append(
                f"Sequent cache: {self.cache_hits}/{self.cache_lookups} lookups hit "
                f"({self.cache_hit_rate:.0%}); {replay}."
            )
        if self.workers > 1:
            # Times print at the 0.1 s grain of the prover lines; the pool's
            # utilization is CPU over workers times wall, and stays a field.
            lines.append(
                f"Dispatched on {self.workers} workers: wall {self.wall_time:.1f} s, "
                f"prover CPU {self.cpu_time:.1f} s"
            )
        lines.append("=" * 56)
        lines.append(
            f"A total of {self.proved_sequents} sequents out of {self.total_sequents} proved."
        )
        lines.append(f":{self.class_name}.{self.method_name}]")
        if self.trusted_assumes:
            lines.append(
                f"WARNING: {self.trusted_assumes} trusted assume statement(s) in the body."
            )
        if self.succeeded:
            lines.append("0=== Verification SUCCEEDED.")
        else:
            lines.append(f"0=== Verification FAILED ({len(self.unproved_origins)} sequents unproved).")
            for origin in self.unproved_origins[:10]:
                lines.append(f"    unproved: {origin}")
            for line in self.refuted[:10]:
                lines.append(f"    refuted: {line}")
        return "\n".join(lines)

    # Figure 7 in the paper prints this after running `jahob List.java -method ...`.
    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()


@dataclass
class ClassReport:
    """Statistics of verifying every method of a data structure (a Figure 15 row)."""

    class_name: str
    methods: List[MethodReport] = field(default_factory=list)
    prover_order: List[str] = field(default_factory=list)
    #: Wall time of the whole class call (parse, VC generation and the one
    #: dispatch its methods share); see the module docstring.
    total_time: float = 0.0

    @property
    def succeeded(self) -> bool:
        return all(method.succeeded for method in self.methods)

    @property
    def total_sequents(self) -> int:
        return sum(method.total_sequents for method in self.methods)

    @property
    def proved_sequents(self) -> int:
        return sum(method.proved_sequents for method in self.methods)

    @property
    def proved_during_splitting(self) -> int:
        return sum(method.proved_during_splitting for method in self.methods)

    @property
    def cache_hits(self) -> int:
        return sum(method.cache_hits for method in self.methods)

    @property
    def cache_misses(self) -> int:
        return sum(method.cache_misses for method in self.methods)

    @property
    def proved_from_cache(self) -> int:
        return sum(method.proved_from_cache for method in self.methods)

    @property
    def replayed_sequents(self) -> int:
        return sum(method.replayed_sequents for method in self.methods)

    @property
    def proved_live(self) -> int:
        return sum(method.proved_live for method in self.methods)

    @property
    def dedup_replayed(self) -> int:
        return sum(method.dedup_replayed for method in self.methods)

    @property
    def trusted_assumes(self) -> int:
        return sum(method.trusted_assumes for method in self.methods)

    @property
    def instantiations(self) -> int:
        return sum(method.instantiations for method in self.methods)

    @property
    def fully_verified(self) -> bool:
        """Every method succeeded with zero trusted ``assume`` steps."""
        return all(method.fully_verified for method in self.methods)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def cpu_time(self) -> float:
        return sum(method.cpu_time for method in self.methods)

    def proved_by(self, prover: str) -> int:
        return sum(method.proved_by(prover) for method in self.methods)

    def time_of(self, prover: str) -> float:
        return sum(method.time_of(prover) for method in self.methods)

    def phase_times(self) -> Dict[str, Dict[str, float]]:
        """Per-prover phase breakdown summed over every method."""
        merged: Dict[str, Dict[str, float]] = {}
        for method in self.methods:
            for prover, phases in method.phase_times().items():
                bucket = merged.setdefault(prover, {})
                for name, seconds in phases.items():
                    bucket[name] = bucket.get(name, 0.0) + seconds
        return merged

    @property
    def frontend_phases(self) -> Dict[str, float]:
        """Frontend (parse/vcgen) wall time summed over every method."""
        merged: Dict[str, float] = {}
        for method in self.methods:
            for name, seconds in method.frontend_phases.items():
                merged[name] = merged.get(name, 0.0) + seconds
        return merged

    def row(self, provers: Optional[Sequence[str]] = None) -> Dict[str, str]:
        """One row of the Figure 15 table."""
        provers = list(provers or self.prover_order)
        row: Dict[str, str] = {"Data Structure": self.class_name}
        row["Syntactic"] = str(self.proved_by("syntactic") + self.proved_during_splitting)
        for prover in provers:
            if prover == "syntactic":
                continue
            proved = self.proved_by(prover)
            seconds = self.time_of(prover)
            row[prover] = f"{proved} ({seconds:.1f}s)" if proved else ("" if seconds < 0.05 else f"0 ({seconds:.1f}s)")
        row["Total Time"] = f"{self.total_time:.1f}s"
        row["Verified"] = "yes" if self.succeeded else f"no ({self.total_sequents - self.proved_sequents} open)"
        return row


def format_table(reports: Sequence[ClassReport], provers: Sequence[str]) -> str:
    """Format several class reports as the Figure 15 table."""
    rows = [report.row(provers) for report in reports]
    columns = ["Data Structure", "Syntactic"]
    columns += [p for p in provers if p != "syntactic"] + ["Total Time", "Verified"]
    widths = {column: len(column) for column in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(row.get(column, "")))
    lines = ["  ".join(column.ljust(widths[column]) for column in columns)]
    lines.append("  ".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append("  ".join(row.get(column, "").ljust(widths[column]) for column in columns))
    return "\n".join(lines)
