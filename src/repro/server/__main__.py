"""Run a verify daemon in the foreground: ``python -m repro.server``."""

from __future__ import annotations

import argparse

from .client import DEFAULT_PORT
from .daemon import DEFAULT_COMPACT_INTERVAL, DEFAULT_LANES, VerifyServer
from .wire import DEFAULT_MAX_REQUEST_BYTES


def _announce(server: VerifyServer) -> None:
    """Print the daemon's listening address once it is *actually* bound.

    Called via ``on_ready`` — after ``asyncio.start_server`` returned — so
    ``--port 0`` prints the kernel-assigned ephemeral port instead of the
    requested ``:0`` (scripts parse this line to find the daemon).
    """
    store_dir = server.store.cache_dir
    where = str(store_dir) if store_dir is not None else "memory"
    caps = []
    if server.store_max_entries is not None:
        caps.append(f"max {server.store_max_entries} entries")
    if server.store_max_age is not None:
        caps.append(f"max age {server.store_max_age:g}s")
    compaction = (
        f"; compaction: {', '.join(caps)} every {server.compact_interval:g}s"
        if caps
        else ""
    )
    service = server.service
    print(
        f"verify daemon on {server.host}:{server.port} "
        f"(store: {where}; "
        f"{service.lanes} lanes x {service.workers} workers"
        f"{compaction})",
        flush=True,
    )


def main() -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Start a verify daemon (verification-as-a-service).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--store-dir", default=None,
        help="directory of the on-disk verdict store (default: memory only)",
    )
    parser.add_argument(
        "--lanes", type=int, default=0,
        help="requests that may dispatch at once; the rest wait for a lane "
        f"(default: one per farm worker, at least {DEFAULT_LANES})",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="prover farm width shared by all lanes; 1 proves inline in each "
        "lane (default: one per CPU the daemon may run on)",
    )
    parser.add_argument(
        "--request-workers", type=int, default=8,
        help="threads serving verify_class/verify_method requests",
    )
    parser.add_argument(
        "--max-request-bytes", type=int, default=DEFAULT_MAX_REQUEST_BYTES,
        help="cap on one request frame; oversized frames get a structured "
        "error, not a dropped connection (default: %(default)s)",
    )
    parser.add_argument(
        "--store-max-entries", type=int, default=None,
        help="cap on published disk-store entries; compacted oldest-first "
        "at startup and every --compact-interval (default: unbounded)",
    )
    parser.add_argument(
        "--store-max-age", type=float, default=None,
        help="evict disk-store entries older than this many seconds "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--compact-interval", type=float, default=DEFAULT_COMPACT_INTERVAL,
        help="seconds between periodic store compactions when a cap is set "
        "(default: %(default)s)",
    )
    args = parser.parse_args()

    server = VerifyServer(
        host=args.host,
        port=args.port,
        store_dir=args.store_dir,
        lanes=args.lanes or None,
        workers=args.workers or None,
        request_workers=args.request_workers,
        max_request_bytes=args.max_request_bytes,
        store_max_entries=args.store_max_entries,
        store_max_age=args.store_max_age,
        compact_interval=args.compact_interval,
        on_ready=_announce,
    )
    server.run_forever()


if __name__ == "__main__":
    main()
