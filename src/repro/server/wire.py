"""JSON wire encodings for the verify daemon's line protocol.

Everything that crosses the client/server boundary is encoded here, in one
place, so the two sides cannot drift:

* **sequents** travel as their printed formulas (the pretty-printer/parser
  roundtrip is exact, and :meth:`Sequent.digest` is computed from printed
  text, so a re-parsed sequent digests identically and hits the same verdict
  -store entries as the original);
* **reports** (:class:`MethodReport` / :class:`ClassReport`) travel as their
  dataclass fields, enumerated via :func:`dataclasses.fields` so a field
  added to a report is wired up automatically — the byte-identical-report
  guarantee of server-backed verification depends on nothing being lost
  here;
* **outcomes** of raw sequent batches travel as per-answer verdict records.

Decoding a request checks its shape first: a frame that is not a JSON
object, or a sequent with a missing or mistyped field, raises
:class:`WireError` with a message naming the field (``sequents[0].goal:
missing``), which the daemon answers as ``{"ok": false, "error": ...}``.

The type environment of a sequent is *not* transported: provers treat
``env=None`` sequents exactly like the test/benchmark corpus built via
:func:`repro.vcgen.sequent.sequent`.  ``verify_method``/``verify_class``
requests are unaffected — they ship source text and the daemon generates
VCs (with environments) server-side.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Sequence

from ..core.report import ClassReport, MethodReport
from ..form.parser import ParseError, parse_formula
from ..form.printer import to_str
from ..provers.base import ProverAnswer, ProverStats, Verdict
from ..vcgen.sequent import Labeled, Sequent

#: Default cap on one request frame (one newline-terminated JSON line).
#: asyncio's stock 64 KiB StreamReader limit is far too small for a
#: ``verify_class`` source or a large ``prove_sequents`` batch; 16 MiB
#: comfortably fits the whole benchmark suite in one frame while still
#: bounding a misbehaving client.  Overridable per server
#: (``max_request_bytes=`` / ``--max-request-bytes``).
DEFAULT_MAX_REQUEST_BYTES = 16 * 1024 * 1024


class WireError(ValueError):
    """A request that does not decode; the message names the bad field."""


def request_from_wire(frame: bytes) -> Dict[str, Any]:
    """One request frame as its JSON object."""
    try:
        request = json.loads(frame)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise WireError(f"request is not valid JSON: {exc}") from None
    if not isinstance(request, dict):
        raise WireError("request must be a JSON object")
    return request


# -- sequents -----------------------------------------------------------------


def sequent_to_wire(sequent: Sequent) -> Dict[str, Any]:
    return {
        "assumptions": [
            {"formula": to_str(a.formula), "labels": list(a.labels)}
            for a in sequent.assumptions
        ],
        "goal": {
            "formula": to_str(sequent.goal.formula),
            "labels": list(sequent.goal.labels),
        },
        "hints": list(sequent.hints),
        "origin": sequent.origin,
    }


def _strings(payload: Dict[str, Any], key: str, where: str) -> tuple:
    value = payload.get(key, ())
    if not (isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)):
        raise WireError(f"{where}.{key}: must be a list of strings")
    return tuple(value)


def _labeled_from_wire(payload: Any, where: str) -> Labeled:
    if not isinstance(payload, dict):
        raise WireError(f"{where}: must be an object")
    if "formula" not in payload:
        raise WireError(f"{where}.formula: missing")
    formula = payload["formula"]
    if not isinstance(formula, str):
        raise WireError(f"{where}.formula: must be a string")
    try:
        parsed = parse_formula(formula)
    except ParseError as exc:
        raise WireError(f"{where}.formula: {exc}") from None
    return Labeled(parsed, _strings(payload, "labels", where))


def sequent_from_wire(payload: Any, where: str = "sequent") -> Sequent:
    if not isinstance(payload, dict):
        raise WireError(f"{where}: must be an object")
    if "goal" not in payload:
        raise WireError(f"{where}.goal: missing")
    assumptions = payload.get("assumptions", ())
    if not isinstance(assumptions, (list, tuple)):
        raise WireError(f"{where}.assumptions: must be a list")
    origin = payload.get("origin", "")
    if not isinstance(origin, str):
        raise WireError(f"{where}.origin: must be a string")
    return Sequent(
        assumptions=tuple(
            _labeled_from_wire(a, f"{where}.assumptions[{i}]")
            for i, a in enumerate(assumptions)
        ),
        goal=_labeled_from_wire(payload["goal"], f"{where}.goal"),
        hints=_strings(payload, "hints", where),
        origin=origin,
    )


# -- prover answers / outcomes ------------------------------------------------


def answer_to_wire(answer: ProverAnswer) -> Dict[str, Any]:
    return {
        "verdict": answer.verdict.value,
        "prover": answer.prover,
        "time": answer.time,
        "detail": answer.detail,
        "cached": answer.cached,
        "instances": answer.instances,
        "truncated": answer.truncated,
        "slice_cut": answer.slice_cut,
    }


def answer_from_wire(payload: Dict[str, Any]) -> ProverAnswer:
    answer = ProverAnswer(
        Verdict(payload["verdict"]),
        payload["prover"],
        time=payload.get("time", 0.0),
        detail=payload.get("detail", ""),
        instances=payload.get("instances", 0),
    )
    answer.cached = payload.get("cached", False)
    answer.truncated = payload.get("truncated", False)
    answer.slice_cut = payload.get("slice_cut", False)
    return answer


def outcome_to_wire(outcome: "SequentOutcome") -> Dict[str, Any]:  # noqa: F821
    return {
        "proved": outcome.proved,
        "prover": outcome.prover,
        "budget_exhausted": outcome.budget_exhausted,
        "from_cache": outcome.from_cache,
        "origin": outcome.sequent.origin,
        "answers": [answer_to_wire(a) for a in outcome.answers],
    }


# -- reports ------------------------------------------------------------------


def _stats_to_wire(stats: ProverStats) -> Dict[str, Any]:
    return dataclasses.asdict(stats)


def _stats_from_wire(payload: Dict[str, Any]) -> ProverStats:
    return ProverStats(**payload)


def method_report_to_wire(report: MethodReport) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    for field in dataclasses.fields(MethodReport):
        value = getattr(report, field.name)
        if field.name == "prover_stats":
            value = {name: _stats_to_wire(stats) for name, stats in value.items()}
        payload[field.name] = value
    return payload


def method_report_from_wire(payload: Dict[str, Any]) -> MethodReport:
    # Keys that are not report fields are dropped, so a client still reads
    # the reports of an older daemon that sends a field this one removed
    # (the shared batch's wall time, from before requests stopped sharing
    # batches).
    names = {field.name for field in dataclasses.fields(MethodReport)}
    kwargs = {name: value for name, value in payload.items() if name in names}
    kwargs["prover_stats"] = {
        name: _stats_from_wire(stats)
        for name, stats in payload.get("prover_stats", {}).items()
    }
    return MethodReport(**kwargs)


def class_report_to_wire(report: ClassReport) -> Dict[str, Any]:
    return {
        "class_name": report.class_name,
        "prover_order": list(report.prover_order),
        "methods": [method_report_to_wire(m) for m in report.methods],
        "total_time": report.total_time,
    }


def class_report_from_wire(payload: Dict[str, Any]) -> ClassReport:
    return ClassReport(
        class_name=payload["class_name"],
        prover_order=list(payload.get("prover_order", ())),
        methods=[method_report_from_wire(m) for m in payload.get("methods", ())],
        total_time=payload.get("total_time", 0.0),
    )


def sequents_to_wire(sequents: Sequence[Sequent]) -> List[Dict[str, Any]]:
    return [sequent_to_wire(s) for s in sequents]


def sequents_from_wire(payloads: Any) -> List[Sequent]:
    if not isinstance(payloads, list):
        raise WireError(f"sequents must be a list of objects, got {payloads!r:.80}")
    return [sequent_from_wire(p, f"sequents[{i}]") for i, p in enumerate(payloads)]
