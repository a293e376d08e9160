"""Host-speed reference for the benchmark's wall times.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give it changes over seconds and minutes: the same
fixed loop can take 1.7x longer for stretches of 20 s.  A wall time
measured in such a stretch says as much about the host as about the
program.  So every run interleaves short timings of a fixed reference
computation with its operations, and reports each operation's wall
time scaled to the reference speed:

    scaled ms = wall ms * nominal ms / (reference ms measured around it)

There are two reference computations (``REFERENCES``): interpreter
work, for workloads that run Python code, and a mix that also reads
scattered over a few MB, for the numpy-heavy simulation workload.
Neither touches the program, so a program that does more work, or
slower work, still reads slower by the same factor; only the host's
speed drops out.  The nominal ms are fixed constants, about what the
computations take on an unloaded 2-vCPU VM, so scaled times read close
to the wall times of such a host.  The run prints the unscaled wall
times next to the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time

import numpy as np

#: one probe repeats the computation for PROBE_SHARE of the time since
#: the previous probe, but at least PROBE_S (so that it spans a few
#: scheduler time slices and sees time sharing too) and at most
#: PROBE_MAX_S: a long operation is scaled by few probes, so each of
#: them measures longer
PROBE_S = 0.008
PROBE_SHARE = 0.02
PROBE_MAX_S = 0.06
#: a probe runs when at least this long has passed since the last one
PROBE_EVERY_S = 0.4
#: an operation is scaled by the median of the probes within this many
#: seconds of it (at least MIN_NEAR of the nearest ones)
NEAR_S = 1.0
MIN_NEAR = 5

_SMALL = np.linspace(0.0, 1.0, 2048)
#: objects and array memory_work reads (a few MB, more than a core's
#: private caches hold), built on its first call so that workloads
#: scaled by interpreter_work do not carry them
_MEMORY: dict = {}
_CHASE = 1000


def interpreter_work(rounds: int = 1800) -> float:
    """Python dict and float work, then small numpy array operations
    (about a millisecond at the default size)."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(rounds):
        key = i % 61
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += math.sqrt(i + 1.0)
    acc += sum(v for _, v in sorted(table.items(), key=lambda kv: kv[1]))
    for _ in range(rounds // 75):
        run = np.cumsum(_SMALL)
        acc += float(np.maximum(run[:-1], run[1:]).sum())
    return acc


def memory_work() -> float:
    """Half the interpreter work, then reads scattered over a few MB of
    objects and one 2 MB array (about two milliseconds)."""
    if not _MEMORY:
        nodes = [{"id": i, "w": float(i % 97), "acc": 0.0} for i in range(1 << 15)]
        _MEMORY.update(
            nodes=nodes,
            order=random.Random(0).sample(range(len(nodes)), len(nodes)),
            large=np.linspace(0.0, 1.0, 1 << 18),
            cursor=0,
        )
    acc = interpreter_work(900)
    # the same sequence of nodes on every run of the benchmark
    nodes, order, cursor = _MEMORY["nodes"], _MEMORY["order"], _MEMORY["cursor"]
    for i in order[cursor : cursor + _CHASE]:
        node = nodes[i]
        node["acc"] = acc = acc + node["w"] * 0.5
    _MEMORY["cursor"] = (cursor + _CHASE) % (len(order) - _CHASE)
    large = _MEMORY["large"]
    return acc + float(large.sum()) + float(np.maximum(large[:-1:4], large[1::4]).sum())


#: reference computations: name -> (computation, nominal ms of one run,
#: the scale's numerator).  A workload is scaled by the one whose speed
#: follows its operations': tiny compiles, alternated with probes while
#: a neighbour came and went, changed 0.95x as much as "interpreter"
#: (in log terms) and 1.6x as much as "memory", while what-if-sim's
#: numpy-heavy simulations changed less than "interpreter" and over ten
#: runs read the least spread with "memory".
REFERENCES = {
    "interpreter": (interpreter_work, 1.0),
    "memory": (memory_work, 2.0),
}


class HostSpeed:
    """Probes of a reference computation, taken between operations."""

    def __init__(self, reference: str = "interpreter") -> None:
        self.work, self.nominal_ms = REFERENCES[reference]
        #: probe midpoints on the perf_counter clock, ascending
        self.times: list[float] = []
        #: ms per reference computation, one per probe
        self.ms: list[float] = []
        #: wall seconds spent probing (kept out of measurement windows)
        self.spent_s = 0.0

    def probe(self, force: bool = False) -> None:
        """Time the reference computation, unless a probe ran less than
        ``PROBE_EVERY_S`` ago (``force`` probes regardless)."""
        start = time.perf_counter()
        since = start - self.times[-1] if self.times else 0.0
        if not force and self.times and since < PROBE_EVERY_S:
            return
        length = min(PROBE_MAX_S, max(PROBE_S, PROBE_SHARE * since))
        # one untimed computation first: the operation before the probe
        # has left the caches full of its own code and data
        self.work()
        t0 = time.perf_counter()
        reps = 0
        while True:
            self.work()
            reps += 1
            t1 = time.perf_counter()
            if t1 - t0 >= length:
                break
        self.times.append((t0 + t1) / 2)
        self.ms.append((t1 - t0) * 1e3 / reps)
        self.spent_s += t1 - start

    def reference_ms(self, t0: float, t1: float) -> float:
        """Median probe time around the interval ``[t0, t1]``."""
        lo = bisect.bisect_left(self.times, t0 - NEAR_S)
        hi = bisect.bisect_right(self.times, t1 + NEAR_S)
        if hi - lo >= MIN_NEAR:
            return statistics.median(self.ms[lo:hi])
        mid = (t0 + t1) / 2
        nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
        return statistics.median(self.ms[i] for i in nearest[:MIN_NEAR])

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns a wall time measured over ``[t0, t1]`` into
        a time at the reference speed."""
        return self.nominal_ms / self.reference_ms(t0, t1)

    def scaled_ms(self, t0: float, t1: float) -> float:
        return (t1 - t0) * 1e3 * self.scale(t0, t1)
