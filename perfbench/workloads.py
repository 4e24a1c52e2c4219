"""Seeded inputs of the workloads.

Everything a run feeds the verifier is generated here from ``--seed``
alone, as plain data: the same seed gives the same inputs, and the program
under test receives only these inputs, never the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from oracle import CONTROLS, STRUCTURES

Method = Tuple[str, str]

#: ``daemon-mixed`` reads: fully proved methods whose verdicts the daemon's
#: store holds after set-up, one or more per structure that has one cheap
#: enough to prove during set-up.
READ_SET: Tuple[Method, ...] = (
    ("SpaceSubdivisionTree", "insert"),
    ("SpanningTree", "init"),
    ("SpanningTree", "addEdge"),
    ("SpanningTree", "inTree"),
    ("CircularList", "add"),
    ("SinglyLinkedList", "add"),
    ("CursorList", "add"),
    ("ArrayList", "get"),
    ("BinarySearchTree", "contains"),
    ("AssocList", "clear"),
)

#: Offered rates of ``daemon-mixed`` (requests per second), calibrated on a
#: 2-core machine where one request holds a connection for about 60 ms (the
#: 50 ms batch window plus the work): ``light`` keeps the two connections
#: about a quarter busy, ``heavy`` about 70%, so requests queue for a free
#: connection.
LIGHT_RATE = 8.0
HEAVY_RATE = 24.0
#: Share of a run's measured time spent at the light rate; the rest is
#: heavy.  The light latencies are the reported percentiles and need the
#: samples; the heavy phase reports goodput, which is steady on fewer.
LIGHT_SHARE = 0.75
#: Share of ``daemon-mixed`` requests that are ``prove_sequents`` writes.
WRITE_SHARE = 0.1
#: Fresh obligations per write request.
FRESH_PER_WRITE = 3


#: ``cold-suite`` verifies this structure first, whatever the seed.  It is
#: the largest (58 of the 214 sequents), and when it ran late in the order
#: the pass's peak RSS swung between 107 and 147 MB from seed to seed; run
#: first it stays within about a tenth.
COLD_FIRST = "BinarySearchTree"


def cold_order(seed: int) -> List[str]:
    """The order in which ``cold-suite`` verifies the ten structures:
    :data:`COLD_FIRST`, then the other nine in a seeded order."""
    rest = [s for s in STRUCTURES if s != COLD_FIRST]
    random.Random(f"cold:{seed}").shuffle(rest)
    return [COLD_FIRST] + rest


def fresh_obligation(tag: str, k: int, template: int) -> Tuple[Tuple[str, ...], str]:
    """A valid-by-construction obligation whose names make its digest new.

    ``k >= 1``; the three templates are integer order, linear equality and
    set union facts, each true for every value of its variables.
    """
    if template == 0:
        return (f"a{tag} < b{tag}", f"b{tag} < c{tag}"), f"a{tag} < c{tag} + {k - 1}"
    if template == 1:
        return (f"a{tag} + {k} = b{tag}", f"b{tag} < c{tag}"), f"a{tag} + {k - 1} < c{tag}"
    return (f"x{tag} : S{tag}", f"S{tag} Un T{tag} = U{tag}"), f"x{tag} : U{tag}"


@dataclass(frozen=True)
class Request:
    """One scheduled ``daemon-mixed`` request.

    ``due`` is its offset in seconds from the start of its phase.  A read
    names a method; a write carries obligations (assumptions, goal) and,
    per obligation, whether it must prove (controls must not).
    """

    due: float
    method: Optional[Method] = None
    obligations: Tuple[Tuple[Tuple[str, ...], str], ...] = ()
    expect_proved: Tuple[bool, ...] = ()

    @property
    def is_read(self) -> bool:
        return self.method is not None


def daemon_schedule(seed: int, phase: str, rate: float, seconds: float,
                    tag: Optional[str] = None) -> List[Request]:
    """Seeded Poisson arrivals at ``rate`` over ``seconds`` for one phase.

    The count is fixed at ``rate * seconds`` and the arrival times are
    uniform order statistics on ``[0, seconds)``, which is a Poisson process
    conditioned on its count: every seed offers the same load.  The seed
    also chooses what arrives: which method each read re-verifies, which
    requests are writes, and their fresh obligations.  ``tag`` (default: the phase name) prefixes the names of the fresh
    obligations, so a replay of a schedule under another tag stays fresh.
    """
    tag = phase if tag is None else tag
    rng = random.Random(f"daemon:{seed}:{phase}")
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))
    requests: List[Request] = []
    for index, due in enumerate(dues):
        if rng.random() < WRITE_SHARE:
            obligations = []
            for j in range(FRESH_PER_WRITE):
                name = f"{tag}{index}n{j}"
                obligations.append(fresh_obligation(name, rng.randint(1, 999), j % 3))
            expect = [True] * len(obligations)
            if index % 2 == 0:
                obligations.append(CONTROLS[rng.randrange(len(CONTROLS))])
                expect.append(False)
            requests.append(Request(due, obligations=tuple(obligations),
                                    expect_proved=tuple(expect)))
        else:
            requests.append(Request(due, method=READ_SET[rng.randrange(len(READ_SET))]))
    return requests


def describe(requests: Sequence[Request]) -> str:
    reads = sum(1 for r in requests if r.is_read)
    return f"{len(requests)} requests ({reads} reads, {len(requests) - reads} writes)"
