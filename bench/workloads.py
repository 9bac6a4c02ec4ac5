"""Seeded op lists for the benchmark workloads.

A workload runs in rounds.  Each round is the same list of ops on fresh
inputs: the seed only picks translation values and signed coordinate
permutations, so every round of every seed is isomorphic to every other and
costs the same.  No two ops of one run share an input.  Each op carries the
reference its output is checked against; no reference comes from the code
path being timed.
"""

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

DENOM = 97  # translations are k/97 with k drawn without replacement per op

SQUARE = (((1, 0), (-1, 0), (0, 1), (0, -1)), ((0, 2), (0, 3), (1, 2), (1, 3)))
CUBE = (
    ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
    tuple((a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)),
)

# Three coordinate planes of (P1)^3: the base has Betti (1,3,3,1); the point
# (codim 3) adds (0,1,1,0) twice and each of the three lines (codim 2) adds
# (0,1,1,0) once; the planes are divisors and add nothing.
RANK3_MODEL_BETTI = (1, 7, 7, 1)

# Rank-2 repair family: four pairwise independent skew curves.  With the
# default budget the search adds 8 rays to the square fan.
SKEW_CURVES = ((1, 1), (1, -1), (1, 2), (2, 1))
# Rank-3 repair family.  The search converges under all 48 signed coordinate
# permutations, and the repaired model always has this Betti vector, so a
# different vector means the answer depends on the labeling.
PLANES3 = ((1, 1, 0), (1, -1, 0), (0, 0, 1))
PLANES3_BETTI = (1, 13, 13, 1)
# Known defect: the greedy subdivision search exhausts its default budget of
# 64 on these two planes under every labeling (goodfan exits 3).
DIVERGENT_PLANES = ((1, 1, 1), (1, 0, 0))


@dataclass
class Op:
    name: str  # unique within the run
    kind: str  # check | nested | stratum | betti | repair | diverge
    job: str  # path of the job file
    expect: dict = field(default_factory=dict)
    nested: dict = None  # stratum ops: the inline nested set


def curves_betti(a, b):
    """a vertical plus b horizontal coordinate curves on P1 x P1, whole poset:
    the a*b points are blown up, each adding one to b2 of the base (1,2,1)."""
    return (1, 2 + a * b, 1)


def torus_points(layers):
    """Number of distinct points where two curves {chi = phi} of the rank-2
    torus meet.  Each point is an angle vector in (Q/Z)^2 solving the 2x2
    system of the two characters; this counts them directly with fractions
    instead of going through the lattice module."""
    pts = set()
    for (c1, a1), (c2, a2) in itertools.combinations(layers, 2):
        det = c1[0] * c2[1] - c1[1] * c2[0]
        for k1, k2 in itertools.product(range(abs(det)), repeat=2):
            v1, v2 = a1 + k1, a2 + k2
            x0 = Fraction(c2[1] * v1 - c1[1] * v2, det)
            x1 = Fraction(c1[0] * v2 - c2[0] * v1, det)
            pts.add((x0 % 1, x1 % 1))
    return len(pts)


class Workload:
    """Generates one run's rounds of ops and writes their job files.

    A run makes at least min_rounds rounds, which fixes the percentile of
    job_tail_s for the workload (see run.py)."""

    def __init__(self, seed, workdir):
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self.workdir = workdir
        self.seen = set()

    def _signed_perm(self, n):
        perm = self.rng.sample(range(n), n)
        signs = [self.rng.choice((1, -1)) for _ in range(n)]
        return lambda v: [signs[i] * v[perm[i]] for i in range(n)]

    def _job(self, fan, layers, move=None):
        """Job document for a fan and (character, translation) layers, with
        every vector moved by a signed coordinate permutation."""
        move = move or (lambda v: list(v))
        rays, cones = fan
        return {
            "rank": len(rays[0]),
            "fan": {
                "rank": len(rays[0]),
                "rays": [move(r) for r in rays],
                "max_cones": [list(c) for c in cones],
            },
            "layers": [
                {"gamma": [move(chi)], "phi": ["%d/%d" % (k, DENOM)]}
                for chi, k in layers
            ],
        }

    def _phis(self, k):
        return self.rng.sample(range(DENOM), k)

    def _write(self, rnd, name, make):
        """Draw job documents from make() until one is new to this run."""
        while True:
            doc = make()
            key = json.dumps(doc, sort_keys=True)
            if key not in self.seen:
                break
        self.seen.add(key)
        path = os.path.join(self.workdir, "r%d-%s.json" % (rnd, name))
        with open(path, "w") as fh:
            fh.write(key)
        return path, doc

    def curves_job(self, a, b):
        """a curves {x = c} and b curves {y = c} on P1 x P1."""
        ks = self._phis(a + b)
        layers = [((1, 0), k) for k in ks[:a]] + [((0, 1), k) for k in ks[a:]]
        return self._job(SQUARE, layers, self._signed_perm(2))

    def round(self, rnd):
        raise NotImplementedError


class ModelRank3(Workload):
    """6 `check` jobs per round, each three coordinate planes of (P1)^3:
    the biggest ring a user waits on."""

    name = "model_rank3"
    min_rounds = 4

    def _planes(self):
        ks = self._phis(3)
        layers = [(e, k) for e, k in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ks)]
        return self._job(CUBE, layers, self._signed_perm(3))

    def round(self, rnd):
        ops = []
        for i in range(6):
            path, _ = self._write(rnd, "check%d" % i, self._planes)
            ops.append(Op("r%d-check%d" % (rnd, i), "check", path,
                          {"betti": RANK3_MODEL_BETTI}))
        return ops


class StrataSweep(Workload):
    """1 `nested` job per round on a P1 x P1 model with 2+2 curves (8 members,
    4 rays, 2^12 candidates), then one `stratum` job per nested+ set (33):
    many small requests on one model.  The stratum ops are queued by the
    check of the nested op, from the reference list."""

    name = "strata_sweep"
    min_rounds = 2

    def round(self, rnd):
        path, _ = self._write(rnd, "model", lambda: self.curves_job(2, 2))
        return [Op("r%d-nested" % rnd, "nested", path,
                   {"model_betti": curves_betti(2, 2)})]


class OracleRepair(Workload):
    """9 ops per round that never build a ring: 2 `betti` jobs with 3+3
    curves on P1 x P1 (15 members), 6 repairs (`goodfan --search`, then
    `betti` on the repaired fan) and the known-divergent search."""

    name = "oracle_repair"
    min_rounds = 4

    def _skew(self):
        # All four curves pass through one seeded torus point, so every input
        # is a translate of the same configuration (4 points, 8 members).
        move = self._signed_perm(2)
        point = self._phis(2)
        layers = [
            (chi, sum(a * b for a, b in zip(move(chi), point)) % DENOM)
            for chi in SKEW_CURVES
        ]
        return self._job(SQUARE, layers, move)

    def _planes3(self):
        ks = self._phis(len(PLANES3))
        return self._job(CUBE, list(zip(PLANES3, ks)), self._signed_perm(3))

    def _divergent(self):
        ks = self._phis(len(DIVERGENT_PLANES))
        return self._job(CUBE, list(zip(DIVERGENT_PLANES, ks)))

    def round(self, rnd):
        betti, skew, planes = [], [], []
        for i in range(2):
            path, _ = self._write(rnd, "betti%d" % i, lambda: self.curves_job(3, 3))
            betti.append(Op("r%d-betti%d" % (rnd, i), "betti", path,
                            {"betti": curves_betti(3, 3)}))
        for i in range(3):
            path, doc = self._write(rnd, "skew%d" % i, self._skew)
            layers = [
                (tuple(ld["gamma"][0]), Fraction(ld["phi"][0])) for ld in doc["layers"]
            ]
            skew.append(Op("r%d-skew%d" % (rnd, i), "repair", path,
                           {"points": torus_points(layers)}))
        for i in range(3):
            path, _ = self._write(rnd, "planes%d" % i, self._planes3)
            planes.append(Op("r%d-planes%d" % (rnd, i), "repair", path,
                             {"betti": PLANES3_BETTI}))
        path, _ = self._write(rnd, "divergent", self._divergent)
        diverge = Op("r%d-divergent" % rnd, "diverge", path, {"exit": 3})
        # Kinds are interleaved so that each one is sampled across the round:
        # the median op is a planes repair, and machine speed drifts within
        # a round.
        return [betti[0], skew[0], planes[0], diverge, skew[1], planes[1],
                betti[1], skew[2], planes[2]]


WORKLOADS = {w.name: w for w in (ModelRank3, StrataSweep, OracleRepair)}
