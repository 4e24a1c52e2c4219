"""Open-loop load generator for ``daemon-mixed`` (standard library only).

Run as its own process so the daemon under test does not share an
interpreter lock with its client::

    python3 perfbench/loadgen.py < plan.json > records.json

The plan names the daemon's port, the number of connections and the
phases, each a list of pre-encoded request frames with their due offsets.
Requests go out in schedule order over at most ``connections`` persistent
connections; a request whose due time passes while every connection is busy
waits for the first free one, and its latency still counts from its due
time.  For every request the generator records due, ready (when a
connection was free for it), sent and done times, plus the fields of the
answer the benchmark checks.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from typing import Callable, List, Optional, Sequence


def run_phase(
    dues: Sequence[float],
    connections: int,
    send: Callable[[int, int], object],
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Optional[tuple]]:
    """Send request ``i`` at ``start + dues[i]`` on the first free connection.

    ``send(connection, i)`` performs one roundtrip and returns the answer.
    Returns ``(due, ready, sent, done, answer)`` per request, all absolute
    times of ``clock``.
    """
    records: List[Optional[tuple]] = [None] * len(dues)
    lock = threading.Lock()
    cursor = [0]
    start = clock()

    def worker(connection: int) -> None:
        ready = clock()
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(dues):
                return
            due = start + dues[index]
            now = clock()
            if now < due:
                sleep(due - now)
            sent = clock()
            answer = send(connection, index)
            done = clock()
            records[index] = (due, ready, sent, done, answer)
            ready = done

    threads = [threading.Thread(target=worker, args=(c,)) for c in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def summarize(line: bytes) -> dict:
    """The parts of an answer the benchmark checks."""
    try:
        answer = json.loads(line)
    except ValueError:
        return {"ok": False, "error": "unparsable answer"}
    if not answer.get("ok"):
        return {"ok": False, "error": str(answer.get("error", "no answer"))}
    if "report" in answer:
        report = answer["report"]
        return {"ok": True, "proved": report["proved_sequents"],
                "total": report["total_sequents"]}
    return {"ok": True, "proved_flags": [o["proved"] for o in answer.get("outcomes", ())]}


def main() -> int:
    plan = json.load(sys.stdin)
    port = plan["port"]
    streams = []
    for _ in range(plan["connections"]):
        sock = socket.create_connection(("127.0.0.1", port), timeout=120.0)
        streams.append((sock, sock.makefile("rwb")))
    output = {"phases": {}}
    try:
        for phase in plan["phases"]:
            frames = [line.encode() + b"\n" for line in phase["lines"]]

            def send(connection: int, index: int) -> bytes:
                stream = streams[connection][1]
                try:
                    stream.write(frames[index])
                    stream.flush()
                    return stream.readline()
                except OSError as exc:
                    return json.dumps({"ok": False, "error": repr(exc)}).encode()

            records = run_phase(phase["dues"], len(streams), send)
            output["phases"][phase["name"]] = [
                [due, ready, sent, done, summarize(answer)]
                for due, ready, sent, done, answer in records
            ]
            time.sleep(plan.get("pause", 0.0))
    finally:
        for sock, stream in streams:
            stream.close()
            sock.close()
    json.dump(output, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
