"""How fast the machine runs right now, from fixed work shaped like a workload.

The benchmark runs on a few cores of a shared host whose speed changes by tens
of percent from one second to the next, and drifts over minutes, as its other
tenants come and go.  Each workload has a probe: a fixed piece of work with
the shape of its call, whose code never changes with the program.  The child
runs the probe just before and just after the timed ``cli.main``, and the
benchmark divides the call's times by the slowdown: the mean probe time over
the reference time below.  A change to the program therefore moves the scaled
timings fully, while a slower machine moves the probe much as it moves the
call.

* ``verify-bounds``: a Python loop of numpy operations on 16-element vectors,
  like the protocol steps of ``protocols.run_schedule``.
* the Langevin workloads: an Euler-Maruyama loop over the workload's
  ensemble width, with the noise filled per trajectory by four threads in
  blocks of 1024 steps, like ``langevin.simulate_erasure``.

Set-up time (interpreter start and imports: file reads, page faults and
module code) follows the probe at about half its rate, so it is divided by
the square root of the first probe's slowdown.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _dispatch(reps: int) -> float:
    start = time.perf_counter()
    energies = np.linspace(0.0, 1.0, 16)
    dist = np.full(16, 1.0 / 16)
    total = 0.0
    table: dict[int, float] = {}
    for i in range(reps):
        shifted = energies + (i % 7) * 1e-3
        total += float(dist @ (shifted - energies))
        gibbs = np.exp(-shifted)
        gibbs /= gibbs.sum()
        total += float((gibbs - dist) @ shifted)
        dist = gibbs
        table[i & 63] = table.get(i & 63, 0.0) + total
    return time.perf_counter() - start


def _langevin(n: int, steps: int, block: int, threads: int = 4) -> float:
    generators = [np.random.Generator(np.random.SFC64(i)) for i in range(n)]
    noise = np.empty((block, n), dtype=np.float32)
    x = np.linspace(-1.0, 1.0, n)
    x2, tmp = np.empty_like(x), np.empty_like(x)
    edges = np.linspace(0, n, threads + 1).astype(int)

    def fill(bounds):
        for i in range(*bounds):
            noise[:, i] = generators[i].standard_normal(block, dtype=np.float32)

    start = time.perf_counter()
    with ThreadPoolExecutor(threads) as pool:
        for j in range(steps):
            if j % block == 0:
                list(pool.map(fill, zip(edges[:-1], edges[1:])))
            np.multiply(x, x, out=x2)
            np.multiply(x2, x, out=tmp)
            tmp *= -4e-3
            x *= 1.001
            x += tmp
            np.multiply(noise[j % block], 0.01, out=tmp)
            x += tmp
            np.clip(x, -2.0, 2.0, out=x)
    return time.perf_counter() - start


# workload -> (probe work, its arguments, reference seconds); the probe times
# its loop only, not the set-up of its arrays and generators.  The reference
# is about what the probe takes on a quiet 2-core x86_64 host (Python 3.11,
# numpy 2.4), so scaled timings read as seconds on that host.
PROBES = {
    "langevin-ensemble": (_langevin, (10_000, 1024, 1024), 0.2),
    "langevin-small": (_langevin, (256, 16_384, 1024), 0.2),
    "verify-bounds": (_dispatch, (30_000,), 0.2),
}


def probe(workload: str) -> float:
    """Seconds the workload's probe takes now."""
    work, args, _ = PROBES[workload]
    return work(*args)


def reference_s(workload: str) -> float:
    """Seconds the workload's probe takes at the reference speed."""
    return PROBES[workload][2]
