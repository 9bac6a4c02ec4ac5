"""Speed probe for the timed runs.

On a shared host the same op takes from 1x to 2x its best time as other
tenants load the cores, and the load changes within tens of seconds.  The
benchmark reports op times in reference seconds: each op's wall time scaled
by how fast the host ran, measured by small fixed pieces of work that run
between the op's own bytecodes.
"""

import bisect
import collections
import gc
import itertools
import signal
import statistics
import time
from fractions import Fraction

PROBE_PERIOD_S = 0.01  # one probe every 10 ms of wall time
PROBE_REF_S = 1.5e-4  # probe time that defines the reference host speed

PROBE_BIG = [(-1) ** i * (7 ** 20 + 131 * i * i) for i in range(64)]
PROBE_PIVOT = [(-1) ** (i // 3) * (5 ** 25 - 977 * i) for i in range(64)]
# 512 rows of 715 cached small ints: 3 MB of pointers
PROBE_ROWS = [[(7919 * i + 104729 * j) % 81 for j in range(715)] for i in range(512)]
PROBE_POLY = {(i, j, k): i - j + k for i in range(5) for j in range(5) for k in range(4)}
PROBE_SETS = [frozenset(range(i % 7, i % 7 + 1 + i % 5)) for i in range(24)]


def probe_bigint(n):
    found = {}
    for q in range(1, 9):
        row = [x - q * y for x, y in zip(PROBE_BIG, PROBE_PIVOT)]
        for i, x in enumerate(row):
            found[i, q] = x
    return found


def probe_rows(n):
    rows = PROBE_ROWS
    i = 37 * n % len(rows)
    row = [x - 3 * y for x, y in zip(rows[i], rows[(31 * i + 11) % len(rows)])]
    return [x - 2 * y for x, y in zip(row, rows[(17 * i + 5) % len(rows)])]


def probe_poly(n):
    prod, head = {}, list(PROBE_POLY.items())[:3]
    for (a, b, c), v in PROBE_POLY.items():
        for (d, e, f), w in head:
            key = (a + d, b + e, c + f)
            prod[key] = prod.get(key, 0) + v * w
    return prod


def probe_loop(n):
    s = 0
    for i in range(2000):
        s += i * i % 7
    return s


def probe_sets(n):
    found = 0
    for a, b in itertools.combinations(PROBE_SETS, 2):
        if a <= b or b <= a:
            found += 1
        elif a & b:
            found += len(a | b)
    return found


class _Node:
    __slots__ = ("value", "kids")

    def __init__(self, value):
        self.value, self.kids = value, []

    def total(self):
        return self.value + sum(k.total() for k in self.kids)


def probe_calls(n):
    root = _Node(0)
    layer = [root]
    for depth in range(4):
        nxt = []
        for node in layer:
            for j in range(3):
                kid = _Node(depth * j)
                node.kids.append(kid)
                nxt.append(kid)
        layer = nxt
    return root.total()


def probe_frac(n):
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i, i * i + 1)
    return s


# Fixed slices of pure-Python work of the kinds the program does, independent
# of its code: big-integer row operations, small-integer rows spread over a
# few megabytes, tuple-keyed polynomial dicts, a plain interpreter loop,
# subset tests on frozensets, method calls on small objects and fractions.
# Each reacts to a loaded host in its own way; their geometric mean tracks
# the ops better than any one of them.
PROBES = (probe_bigint, probe_rows, probe_poly, probe_loop, probe_sets,
          probe_calls, probe_frac)


class SpeedProbe:
    """Samples the speed of the host while the run goes on.

    A SIGALRM every PROBE_PERIOD_S runs the next of PROBES between two
    bytecodes of whatever the process is doing and records how long it
    took, so the probes see the same core, at the same moments, as the op
    they interrupt.  scale() turns a wall time into reference seconds: the
    time it would have taken on a host where the probes' times have the
    geometric mean PROBE_REF_S.  The probes cost about 1.5% of the run."""

    def __init__(self):
        self.at, self.took, self.kind = [], [], []

    def _tick(self, signum, frame):
        n = len(self.at)
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not host speed
        start = time.perf_counter()
        PROBES[n % len(PROBES)](n)
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.at.append(start)
        self.took.append(end - start)
        self.kind.append(n % len(PROBES))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start, end):
        """PROBE_REF_S over the geometric mean of each probe's median time
        while [start, end] ran, the interval widened until every probe has
        run in it.  Probes that ran next to the op, during the output checks
        or the next op, track it worse than those that interrupted it."""
        if len(self.at) < len(PROBES):
            raise RuntimeError("bench: too few speed probes ran (%d)" % len(self.at))
        pad = 0.0
        while True:
            lo = bisect.bisect_left(self.at, start - pad)
            hi = bisect.bisect_right(self.at, end + pad)
            by_kind = collections.defaultdict(list)
            for k, took in zip(self.kind[lo:hi], self.took[lo:hi]):
                by_kind[k].append(took)
            if len(by_kind) == len(PROBES):
                break
            pad = max(2 * pad, PROBE_PERIOD_S)
        return PROBE_REF_S / statistics.geometric_mean(
            statistics.median(t) for t in by_kind.values())
