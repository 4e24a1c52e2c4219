"""The client library of the verify daemon.

:class:`VerifyClient` speaks the daemon's newline-delimited JSON protocol
over one persistent TCP connection and returns the same objects the local
API does — :class:`repro.core.report.MethodReport` /
:class:`repro.core.report.ClassReport` reconstructed from the wire — so a
caller can switch between local and server-backed verification without
touching its report handling::

    from repro.server import VerifyClient

    with VerifyClient(port=7333) as client:
        report = client.verify_class(source, class_name="AssocList",
                                     provers=["smt", "fol", "mona", "bapa"])
        print(report.row(["smt", "fol", "mona", "bapa"]))

A client instance is thread-safe (one request/response at a time on its
connection, serialised by a lock), but for *concurrent* load — e.g. the
``bench_server_load`` waves — use one client per thread so requests
pipeline across connections instead of queueing on one socket.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, List, Optional, Sequence

from ..core.report import ClassReport, MethodReport
from ..vcgen.sequent import Sequent
from .wire import class_report_from_wire, method_report_from_wire, sequents_to_wire

DEFAULT_PORT = 7333


class VerifyServiceError(RuntimeError):
    """An error answer from the daemon (or a broken connection)."""


class VerifyClient:
    """A synchronous client of one verify daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 300.0,
        connect_retries: int = 20,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_retries = connect_retries
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._lock = threading.Lock()

    @classmethod
    def from_address(cls, address: str, **kwargs) -> "VerifyClient":
        """Build a client from a ``host:port`` (or bare ``:port``) string."""
        host, _, port = address.rpartition(":")
        return cls(host=host or "127.0.0.1", port=int(port), **kwargs)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- connection management ------------------------------------------------

    def _connect(self) -> None:
        import time as _time

        last: Optional[Exception] = None
        for attempt in range(max(1, self.connect_retries)):
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                self._file = self._sock.makefile("rwb")
                return
            except OSError as exc:
                last = exc
                _time.sleep(min(0.05 * (attempt + 1), 0.5))
        raise VerifyServiceError(
            f"cannot connect to verify daemon at {self.address}: {last}"
        ) from last

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
                self._file = None
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None

    def __enter__(self) -> "VerifyClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the protocol ---------------------------------------------------------

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One request/response roundtrip; raises on an error answer."""
        payload = {"op": op, **{k: v for k, v in fields.items() if v is not None}}
        line = json.dumps(payload).encode() + b"\n"
        with self._lock:
            if self._file is None:
                self._connect()
            try:
                self._file.write(line)
                self._file.flush()
                answer = self._file.readline()
            except OSError as exc:
                self.close_unlocked()
                raise VerifyServiceError(f"connection to {self.address} broke: {exc}")
        if not answer:
            self.close()
            raise VerifyServiceError(
                f"verify daemon at {self.address} closed the connection"
            )
        response = json.loads(answer)
        if not response.get("ok", False):
            raise VerifyServiceError(response.get("error", "unknown server error"))
        return response

    def close_unlocked(self) -> None:
        """Drop the connection state; caller already holds the lock."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # -- operations -----------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.call("ping").get("pong"))

    def stats(self) -> Dict[str, Any]:
        """The daemon's cumulative service/store counters."""
        return self.call("stats")["stats"]

    def prove_sequents(
        self,
        sequents: Sequence[Sequent],
        provers: Optional[Sequence[str]] = None,
        prover_options: Optional[Dict[str, dict]] = None,
        sequent_budget: Optional[float] = None,
        budget: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Prove a raw sequent batch; returns the wire response (``total``,
        ``proved``, ``replayed``, per-sequent ``outcomes``)."""
        return self.call(
            "prove_sequents",
            sequents=sequents_to_wire(sequents),
            provers=list(provers) if provers is not None else None,
            prover_options=prover_options,
            sequent_budget=sequent_budget,
            budget=budget,
        )

    def verify_method(
        self,
        source: str,
        method: str,
        class_name: Optional[str] = None,
        provers: Optional[Sequence[str]] = None,
        prover_options: Optional[Dict[str, dict]] = None,
        sequent_budget: Optional[float] = None,
        budget: Optional[float] = None,
    ) -> MethodReport:
        """Server-backed :func:`repro.core.verifier.verify`."""
        response = self.call(
            "verify_method",
            source=source,
            method=method,
            class_name=class_name,
            provers=list(provers) if provers is not None else None,
            prover_options=prover_options,
            sequent_budget=sequent_budget,
            budget=budget,
        )
        return method_report_from_wire(response["report"])

    def verify_class(
        self,
        source: str,
        class_name: Optional[str] = None,
        methods: Optional[Sequence[str]] = None,
        provers: Optional[Sequence[str]] = None,
        prover_options: Optional[Dict[str, dict]] = None,
        sequent_budget: Optional[float] = None,
        budget: Optional[float] = None,
    ) -> ClassReport:
        """Server-backed :func:`repro.core.verifier.verify_class`."""
        response = self.call(
            "verify_class",
            source=source,
            class_name=class_name,
            methods=list(methods) if methods is not None else None,
            provers=list(provers) if provers is not None else None,
            prover_options=prover_options,
            sequent_budget=sequent_budget,
            budget=budget,
        )
        return class_report_from_wire(response["report"])

    def compact(
        self,
        max_entries: Optional[int] = None,
        max_age: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Compact the daemon's disk store now; returns ``{"evicted": N,
        "disk_entries": M}``.  Without arguments the daemon's own
        ``--store-max-entries`` / ``--store-max-age`` caps apply."""
        return self.call("compact", max_entries=max_entries, max_age=max_age)

    def shutdown(self, drain: bool = True) -> None:
        """Ask the daemon to stop (draining queued work by default)."""
        try:
            self.call("shutdown", drain=drain)
        except VerifyServiceError:
            pass  # the daemon may close the connection while answering
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VerifyClient {self.address}>"
