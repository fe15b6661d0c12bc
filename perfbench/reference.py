"""Fixed machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts over minutes.
``run.py`` runs this script in a fresh interpreter before every timed pass
and scales that pass's times by ``NOMINAL_S / reference time``. Timings are
then in seconds of a machine on which this reference takes ``NOMINAL_S``.

The reference uses only the standard library and never changes with the
code under test. Its mix resembles the simulator's: small-object and
string churn, dict lookups, and pointer chasing over a working set larger
than the caches.
"""

from __future__ import annotations

import json
import time

NOMINAL_S = 0.5


def reference() -> float:
    """Seconds the fixed reference work takes on the current host."""
    start = time.perf_counter()
    rows = 50_000
    table = {i: [i, str(i), (i * 2654435761) & 0xFFFF] for i in range(rows)}
    acc = 0
    for _ in range(3):
        for i in range(rows):
            row = table[(i * 7919) % rows]
            acc += row[2] + len(row[1])
    nodes = [[i, str(i), None] for i in range(200_000)]
    for i, node in enumerate(nodes):
        node[2] = nodes[(i * 2654435761) % len(nodes)]
    node = nodes[0]
    for _ in range(600_000):
        node = node[2]
        acc += node[0]
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps(reference()))
