"""The machine's speed, measured alongside the program, and times
rescaled to a fixed reference speed.

The shared machine the benchmark runs on changes speed for seconds to
minutes at a time: identical rounds differ by a third, and CPU time
moves with wall time.  So the benchmark times a fixed piece of its own
pure-Python work, the *probe*, while the program runs, and reports
each time as ``program seconds * REF_PROBE_S / probe seconds``: the
time the same work would take on a machine where the probe takes
``REF_PROBE_S``.  The probe is code of this directory alone, so a
change to the program cannot make it faster or slower, and a change
that makes the program faster shows in full.

The probe runs from a SIGALRM handler every ``INTERVAL_S`` of a timed
region, between two bytecodes of the program, with the garbage
collector off, so that it never pays for a collection of the program's
heap.  Its own time is taken out of the region's time.
The import of pbzlat, which is cold code, is measured against the
import of numpy instead (``import_seconds``).
"""

import gc
import signal
import statistics
import time

REF_PROBE_S = 0.002
"""The probe's time at the reference speed, a round figure near its
median (1.7 to 1.9 ms) on the 2-core machine the bounds were set on."""

INTERVAL_S = 0.05

REF_IMPORT_S = 0.15
"""numpy's import time in a fresh process, a round figure near its
median (0.15 to 0.16 s) on that machine.  The import of pbzlat, which
imports numpy, is reported as this plus what pbzlat adds to it: the
difference between a fresh process importing pbzlat and one importing
numpy alone.  Both are cold imports, which the hot probe below does
not follow, and numpy's share of them, loading its extension modules
and shared libraries, ran at 0.07 s in some processes and 0.15 s in
others, while what pbzlat adds moved far less.  numpy comes from the
environment, not from this repository, so a change to the program
cannot change its import; one that stops importing numpy shows as the
whole of this figure saved."""

IMPORT_PAIRS = 15

# Tables the probe reads: the order of the 16-element Boolean lattice
# and its complement.  Built once, never changed.
_N = 16
_LEQ = [[(a & b) == a for b in range(_N)] for a in range(_N)]
_NEG = [_N - 1 - a for a in range(_N)]
_SLOT = {a: (a * 7) % _N for a in range(_N)}


def probe():
    """Fixed work in the interpreter's common idioms (nested loops over
    list tables, dict reads, small-int arithmetic, calls), about 2 ms,
    allocating no container."""
    le, neg, slot = _LEQ, _NEG, _SLOT
    count = 0
    for _ in range(14):
        for a in range(_N):
            row = le[a]
            for b in range(_N):
                if row[b]:
                    for c in range(_N):
                        if le[b][c] and le[neg[c]][neg[a]]:
                            count += slot[c] ^ a
                count += _mix(a, b)
    return count


def _mix(a, b):
    return (a * 31 + b) % 17


def _timed_probe():
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        probe()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probes the machine's speed every ``INTERVAL_S`` while it times a
    region of program work.

    The region is cut at its probes into intervals of program work.
    Each interval is rescaled by the median of the probes around it
    (the two that bound it and two more on each side), so a change of
    speed within a long region is followed.  A median of probes made
    just before and just after the region stands at each of its ends.
    """

    WINDOW = 2
    """Probes on each side of an interval's two bounding ones."""

    EDGE_PROBES = 5

    def __init__(self):
        self.samples = []
        for _ in range(10):  # the interpreter specialises the probe
            _timed_probe()

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append((t, _timed_probe()))

    def _edge(self):
        return statistics.median(
            _timed_probe() for _ in range(self.EDGE_PROBES))

    def region(self, fn):
        """Run ``fn()``; return (its result, program seconds, rescaled
        seconds).  Program seconds are the region's wall time less the
        probes'."""
        before = self._edge()
        self.samples = []
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        inside = self.samples
        probes = [before] + [dt for _, dt in inside] + [self._edge()]
        # interval j runs from the end of probe j to the start of probe
        # j + 1 (probe 0 and the last stand at the region's ends)
        starts = [start] + [t + dt for t, dt in inside]
        ends = [t for t, _ in inside] + [end]
        program = rescaled = 0.0
        for j, (a, b) in enumerate(zip(starts, ends)):
            work = b - a
            around = probes[max(0, j - self.WINDOW): j + 2 + self.WINDOW]
            program += work
            rescaled += work * REF_PROBE_S / statistics.median(around)
        return result, program, rescaled


def import_seconds(child_import):
    """The import of pbzlat, with numpy's share at ``REF_IMPORT_S``.

    ``child_import(kind)`` times one import in a fresh process.  Imports
    of the program alternate with imports of numpy alone
    (``reference``); from each program import the mean of the two numpy
    imports around it is taken.  Returns (``REF_IMPORT_S`` plus the
    median of these differences, the raw program import times).
    """
    refs = [child_import("reference")]
    programs, added = [], []
    for _ in range(IMPORT_PAIRS):
        programs.append(child_import("program"))
        refs.append(child_import("reference"))
        added.append(programs[-1] - (refs[-2] + refs[-1]) / 2)
    return REF_IMPORT_S + statistics.median(added), programs
