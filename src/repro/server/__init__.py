"""repro.server — verification-as-a-service for the prover portfolio.

The per-process pipeline (split → dispatch → cache) becomes a long-lived
daemon: many concurrent clients submit ``verify_class`` / ``verify_method``
/ raw sequent-batch requests.  A request the verdict store settles is
answered at admission; any other request waits for one of ``--lanes``
lanes and dispatches alone, so requests with *different* prover
configurations run concurrently, sharing one persistent process-pool
prover farm sized to the machine (``--workers``).  Each dispatch runs the
digest dedup pre-pass over its request, an in-flight registry keeps the
single-flight guarantee per (digest, configuration) *across* lanes, and
every verdict is backed by one content-addressed
:class:`repro.provers.cache.SequentCache` safe under concurrent
multi-process access (bounded, for long-lived deployments, by
``--store-max-entries`` / ``--store-max-age`` compaction).  Warm traffic —
the "heavy traffic from millions of users" regime — is O(lookup).  See
``docs/server.md`` for operating the daemon.

Start a daemon::

    python -m repro.server --port 7333 --store-dir /var/tmp/verdicts

Point a client at it::

    from repro.server import VerifyClient

    with VerifyClient(port=7333) as client:
        report = client.verify_class(source, class_name="AssocList")
        print(report.row(["smt", "fol", "mona", "bapa"]))

The report objects are the ordinary :class:`repro.core.report.MethodReport`
/ :class:`ClassReport` — server-backed runs produce byte-identical
``format()`` output to local runs against a warm cache (pinned by
``tests/server/test_server.py``).  ``examples/figure15_table.py --server
host:port`` regenerates the whole Figure 15 table through a daemon.

Measure it::

    PYTHONPATH=src python -m pytest benchmarks/bench_server_load.py -q --benchmark-disable

The load benchmark fires a cold then a warm wave of concurrent requests and
prints/asserts the headline numbers: warm verdict-store hit rate (>= 99%),
zero live re-proofs on the warm wave, and p50/p95/p99 request latency
(see the module docstring of ``benchmarks/bench_server_load.py`` for how to
read the output; ``SERVER_LOAD_REQUESTS`` scales the wave).

Components: :class:`VerifyServer` (asyncio TCP daemon + verify service),
:class:`VerifyClient` (sync client), ``repro.server.wire`` (the JSON
encodings both sides share).
"""

from .client import VerifyClient, VerifyServiceError
from .daemon import ServiceStopped, ServiceStats, VerifyServer, VerifyService

__all__ = [
    "VerifyClient",
    "VerifyServer",
    "VerifyService",
    "VerifyServiceError",
    "ServiceStats",
    "ServiceStopped",
]
