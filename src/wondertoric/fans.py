"""Smooth complete fans: validation, goodness, stellar subdivision.

A Fan stores primitive integer rays and maximal cones as sorted tuples of ray
indices.  All geometry is exact and in integers: sign checks are pairings,
and the relative-interior tests run a fraction-free phase-1 simplex.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass

from .errors import BudgetExhausted, InvariantViolated, MalformedFan, NotGood, RayNotInterior
from .lattice import RowEchelon

# Entries per memoised (fan, lattice) kernel.  A key keeps its whole fan
# alive, so the caches stay small: only input fans reach them now, and 256
# entries raised oracle_repair peak memory by 5-6% when every searched fan did.
FAN_CACHE_SIZE = 32

# Coefficients of the candidate characters of an equal-sign basis, in search
# order, so small combinations of the canonical basis come first.
COEFF_ORDER = (0, 1, -1, 2, -2)


@dataclass(frozen=True)
class Report:
    """Outcome of a validator: a tuple of failure descriptions, ok when it
    is empty."""

    failures: tuple = ()

    @property
    def ok(self):
        return not self.failures


def merge_reports(*reports):
    fails = tuple(f for r in reports for f in r.failures)
    return Report(fails)


@dataclass(frozen=True)
class Fan:
    rank: int
    rays: tuple  # tuple of primitive int vectors
    max_cones: tuple  # tuple of strictly increasing ray-index tuples

    @functools.cached_property
    def faces(self):
        """Every cone of the fan as a sorted ray-index tuple, () included."""
        return frozenset(
            s for c in self.max_cones for k in range(len(c) + 1)
            for s in itertools.combinations(c, k)
        )

    @functools.cached_property
    def incidence(self):
        """Per ray, the bitmask of the max cones holding it, by position in
        max_cones."""
        masks = [0] * len(self.rays)
        for k, c in enumerate(self.max_cones):
            for i in c:
                masks[i] |= 1 << k
        return tuple(masks)


def fan(rank, rays, max_cones):
    """Validate structural invariants and build a Fan.

    Raises MalformedFan on any structural defect: non-primitive or repeated
    rays, bad indices, repeated indices inside a cone, non-simplicial cones,
    unused rays, or one max cone contained in another.
    """
    rank = int(rank)
    if rank < 0:
        raise MalformedFan("rank must be nonnegative")
    rays = tuple(tuple(int(x) for x in r) for r in rays)
    for r in rays:
        if len(r) != rank:
            raise MalformedFan("ray length does not match rank: %r" % (r,))
        if all(x == 0 for x in r):
            raise MalformedFan("zero ray")
        if math.gcd(*r) != 1:
            raise MalformedFan("ray not primitive: %r" % (r,))
    if len(set(rays)) != len(rays):
        raise MalformedFan("repeated ray")
    cones = []
    for c in max_cones:
        c = tuple(int(i) for i in c)
        if len(set(c)) != len(c):
            raise MalformedFan("max cone repeats a ray: %r" % (c,))
        if any(i < 0 or i >= len(rays) for i in c):
            raise MalformedFan("ray index out of range: %r" % (c,))
        c = tuple(sorted(c))
        if RowEchelon(rank, [rays[i] for i in c]).rank != len(c):
            raise MalformedFan("max cone not simplicial: %r" % (c,))
        cones.append(c)
    if len(set(cones)) != len(cones):
        raise MalformedFan("repeated max cone")
    if len({len(c) for c in cones}) > 1:  # only a shorter cone can lie inside
        sets = [(c, set(c)) for c in cones]
        for (a, sa), (b, sb) in itertools.permutations(sets, 2):
            if sa < sb:
                raise MalformedFan("max cone %r contained in %r" % (a, b))
    if rank == 0:
        if rays or list(cones) != [()]:
            raise MalformedFan("rank-0 fan must be the single empty cone")
    else:
        if not cones:
            raise MalformedFan("no max cones")
        used = {i for c in cones for i in c}
        if used != set(range(len(rays))):
            raise MalformedFan("unused rays: %r" % (sorted(set(range(len(rays))) - used),))
    return Fan(rank, rays, tuple(cones))


def fan_to_dict(f):
    return {
        "rank": f.rank,
        "rays": [list(r) for r in f.rays],
        "max_cones": [list(c) for c in f.max_cones],
    }


def _check_ints(values, what):
    """JSON numbers that are not ints (floats, bools) are refused, not cut."""
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise MalformedFan("%s must be an integer: %r" % (what, x))


def fan_from_dict(doc):
    try:
        _check_ints([doc["rank"]], "fan rank")
        for r in doc["rays"]:
            _check_ints(r, "ray entry")
        for c in doc["max_cones"]:
            _check_ints(c, "cone index")
        return fan(doc["rank"], doc["rays"], doc["max_cones"])
    except MalformedFan:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFan("bad fan document: %s" % exc)


def primitive(vec):
    g = math.gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


def pairing(chi, ray):
    return sum(map(operator.mul, chi, ray))


def validate_smooth(f):
    """Each max cone's rays must extend to a basis of the ambient lattice:
    HNF pivots all 1 (|det| = 1 for a full cone) say so at once, and only a
    lower-dimensional or singular cone takes the Smith form of torsion()."""
    bad = []
    for c in f.max_cones:
        if c and RowEchelon(f.rank, [f.rays[i] for i in c]).torsion():
            bad.append(("not_smooth", c))
    return Report(tuple(bad))


def validate_complete(f):
    """Wall criterion: all max cones full-dimensional, every wall shared by
    exactly two of them, and the wall-adjacency graph connected.  The owners
    of a wall are the AND of its rays' incidence masks."""
    if f.rank == 0:
        return Report()
    bad = tuple(("not_full_dimensional", c) for c in f.max_cones if len(c) != f.rank)
    if bad:
        return Report(bad)
    every = (1 << len(f.max_cones)) - 1
    owners = {}
    for c in f.max_cones:
        for drop in c:
            wall = tuple(i for i in c if i != drop)
            owners[wall] = functools.reduce(operator.and_, (f.incidence[i] for i in wall), every)
    bad = tuple(("wall_count", w, m.bit_count()) for w, m in sorted(owners.items()) if m.bit_count() != 2)
    reached, grown = 0, 1  # the max cones wall-adjacent to the first, round by round
    while not bad and grown != reached:
        reached = grown
        grown = functools.reduce(operator.or_, (m for m in owners.values() if m & reached), reached)
    if not bad and reached != every:
        bad = (("disconnected", reached.bit_count(), len(f.max_cones)),)
    return Report(bad)


def _as_int(x):
    v = int(x)
    if v != x:
        raise ValueError("not an integer: %r" % (x,))
    return v


def feasible_nonneg(A, b):
    """Exact feasibility of {x >= 0 : A x = b} via phase-1 simplex.

    A is a list of int rows and b an int vector; a non-integer entry raises
    ValueError.  Integer-preserving pivots keep the tableau scaled by the
    basis determinant, so each division is exact.  Bland's rule, so the loop
    always terminates.  Returns True/False.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    T = []
    for i, (row, bv) in enumerate(zip(A, b)):
        sign = -1 if _as_int(bv) < 0 else 1
        row = [sign * _as_int(x) for x in row]
        T.append(row + [int(i == j) for j in range(m)] + [abs(int(bv))])
    if m == 0:
        return True
    # tableau columns: n originals + m artificials
    basis = [n + i for i in range(m)]
    # objective: minimize sum of artificials; reduced costs start from that
    cost = [-sum(col) for col in zip(*T)]
    for j in range(n, n + m):
        cost[j] += 1
    prev = 1  # determinant of the current basis; every entry is scaled by it
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        best = None  # least ratio T[i][-1] / T[i][enter], by cross-multiplication
        for i in range(m):
            if T[i][enter] > 0:
                if best is not None:
                    lhs, rhs = T[i][-1] * T[best][enter], T[best][-1] * T[i][enter]
                if best is None or lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
        if best is None:
            # unbounded phase-1 objective cannot happen; defensive
            return False
        prow = T[best]
        piv = prow[enter]
        for i in range(m):
            if i != best:
                c = T[i][enter]
                T[i] = [(piv * x - c * y) // prev for x, y in zip(T[i], prow)]
        c = cost[enter]
        cost = [(piv * x - c * y) // prev for x, y in zip(cost, prow)]
        prev = piv
        basis[best] = enter
    return cost[-1] == 0


def rays_in_kernel(f, lat):
    """Indices of fan rays killed by every character in the sublattice."""
    return frozenset(i for i, r in enumerate(f.rays) if not any(pairing(chi, r) for chi in lat.basis))


@functools.lru_cache(maxsize=FAN_CACHE_SIZE)
def cone_face_compat(f, lat):
    """For each max cone C, {x in C : all of lat vanishes on x} must be the
    face spanned by the rays of C lying in that kernel subspace."""
    values = [[pairing(chi, r) for r in f.rays] for chi in lat.basis]
    bad = []
    for c in f.max_cones:
        A = [[v[i] for i in c] for v in values]
        outside = [int(any(col)) for col in zip(*A)]
        # violation iff some x = sum lam_j r_j, lam >= 0 and lam_j > 0 for an
        # outside j, pairs zero with lat.  A basis character of one sign on C
        # zeroes lam_j where it is nonzero; if an outside j is left free, one
        # LP decides, with the outside lam scaled to sum to 1
        signed = [row for row in A if min(row) >= 0 or max(row) <= 0]
        free = [out and not any(row[p] for row in signed) for p, out in enumerate(outside)]
        if not any(free) or not feasible_nonneg(A + [outside], [0] * len(A) + [1]):
            continue
        for j, out in zip(c, outside):
            # the first outside j with lam_j >= 1: substitute lam_j = 1 + mu_j
            if out and feasible_nonneg(A, [-v[j] for v in values]):
                bad.append(("interior_meets_kernel", c, j))
                break
    return Report(tuple(bad))


def _signs(values, f):
    """(pos, neg): the ORs of f.incidence over the rays whose values (one
    per ray, a character's pairings) are positive and negative.  The
    character is mixed on the max cones of pos & neg."""
    pos = neg = 0
    for v, m in zip(values, f.incidence):
        if v > 0:
            pos |= m
        elif v < 0:
            neg |= m
    return pos, neg


def one_signed(f, chi):
    """True when chi pairs with the rays of every max cone using one sign."""
    pos, neg = _signs([pairing(chi, r) for r in f.rays], f)
    return not pos & neg


def _candidates(lat):
    """(combo, chi): the characters chi = combo . canonical basis of lat for
    primitive combos over COEFF_ORDER, in product order (simple first)."""
    cols = list(zip(*lat.basis))
    for combo in itertools.product(COEFF_ORDER, repeat=lat.rank):
        combo = combo[::-1]  # vary the first basis coefficient fastest
        if math.gcd(*combo) == 1:
            yield combo, tuple(pairing(combo, col) for col in cols)


def _pick_basis(s, candidates):
    """The chis of the first s (combo, chi) candidates, in combination order,
    whose combos are unimodular, or None.  Candidates are read only as far
    as the pick gets, and a subset grows only while its rows are independent."""
    it, seen = iter(candidates), []

    def pick(subset):
        ech = RowEchelon(s, [seen[k][0] for k in subset])
        if ech.rank < len(subset):
            return None
        if len(subset) == s:  # pivot entries are the HNF's: all 1 means determinant 1
            return subset if all(p[j] == 1 for j, p in ech.pivots.items()) else None
        for k in itertools.count(subset[-1] + 1 if subset else 0):
            if k == len(seen):
                seen.append(next(it, None))
            found = seen[k] and pick(subset + [k])
            if seen[k] is None or found:
                return found

    found = pick([])
    return None if found is None else tuple(seen[k][1] for k in found)


@functools.lru_cache(maxsize=FAN_CACHE_SIZE)
def find_equal_sign_basis(f, lat):
    """Search a basis of lat whose characters are each one_signed, or None:
    the first unimodular subset of the one-signed candidates, each tested
    only when the pick reaches it."""
    return _pick_basis(lat.rank, (cand for cand in _candidates(lat) if one_signed(f, cand[1])))


def validate_good(f, lattices):
    """Smooth + complete + equal-sign basis and face compatibility for every
    arrangement sublattice."""
    reports = [validate_smooth(f), validate_complete(f)]
    for idx, lat in enumerate(lattices):
        found = find_equal_sign_basis(f, lat) is not None
        compat = cone_face_compat(f, lat)
        if found and not compat.ok:  # equal-sign success forces compatibility
            raise InvariantViolated("lattice %d: equal signs, faces incompatible" % idx)
        if not found:
            reports.append(Report((("no_equal_sign_basis", idx),)))
        if not compat.ok:
            reports.append(Report(tuple(("lattice", idx) + fl for fl in compat.failures)))
    return merge_reports(*reports)


def relint_coords(f, cone, vec):
    """Coordinates of vec on the cone's rays as (nums, den) with den > 0 and
    vec == sum(nums[i] * rays[i]) / den, or None if vec is outside the
    rational span.  Cone rays are independent so coordinates are unique."""
    m = len(cone)
    # fraction-free (Bareiss) elimination on [rays | vec], one row per axis
    aug = [[f.rays[i][j] for i in cone] + [_as_int(vec[j])] for j in range(f.rank)]
    r, prev = 0, 1
    for col in range(m):
        piv = next((i for i in range(r, f.rank) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        p = aug[r][col]
        for i in range(r + 1, f.rank):
            c = aug[i][col]
            aug[i] = [(p * x - c * y) // prev for x, y in zip(aug[i], aug[r])]
        r, prev = r + 1, p
    if any(aug[i][-1] for i in range(r, f.rank)):
        return None
    if r < m:
        # dependent rays cannot occur for simplicial cones; defensive
        raise ValueError("cone rays are dependent")
    # prev is the determinant of the pivot block, so prev * x is integral
    # (Cramer) and back substitution divides exactly
    nums = [0] * m
    for i in reversed(range(m)):
        t = aug[i][-1] * prev - sum(aug[i][j] * nums[j] for j in range(i + 1, m))
        nums[i] = t // aug[i][i]
    if prev < 0:
        return [-x for x in nums], -prev
    return nums, prev


def stellar_subdivide(f, cone, new_ray):
    """Star subdivision at new_ray, which must sit in the relative interior
    of the given cone (a face of some max cone).  Its star cones need no
    check: new_ray has coordinates nums[i] / den > 0 on the face
    (relint_coords), so swapping ray i of a simplicial max cone c for it
    keeps the rays independent; a full cone's determinant becomes
    (nums[i] / den) * det(c) != 0."""
    cone = tuple(sorted(int(i) for i in cone))
    holding = (1 << len(f.max_cones)) - 1  # the max cones that hold the face
    for i in cone:
        holding &= f.incidence[i] if 0 <= i < len(f.rays) else 0
    if not holding:
        raise MalformedFan("not a face of any max cone: %r" % (cone,))
    if not cone:
        raise RayNotInterior("the zero cone has no interior ray")
    new_ray = tuple(int(x) for x in new_ray)
    if len(new_ray) != f.rank:
        raise MalformedFan("ray length does not match rank: %r" % (new_ray,))
    if math.gcd(*new_ray) != 1:
        raise MalformedFan("new ray not primitive: %r" % (new_ray,))
    if new_ray in f.rays:
        raise RayNotInterior("ray already present: %r" % (new_ray,))
    coords = relint_coords(f, cone, new_ray)
    if coords is None or any(x <= 0 for x in coords[0]):
        raise RayNotInterior("not in the relative interior of %r" % (cone,))
    rays = f.rays + (new_ray,)
    star = len(f.rays)
    cones = []
    for k, c in enumerate(f.max_cones):
        if holding >> k & 1:
            cones += (tuple(sorted([i for i in c if i != drop] + [star])) for drop in cone)
        else:
            cones.append(c)
    # the parent is a validated fan and only the star's cones are new
    return Fan(f.rank, rays, tuple(cones))


def first_equal_sign_violation(f, lat, signs=None):
    """Deterministic pick of a (cone, character, face) violation for the
    canonical basis of lat, or None when every cone is fine: the first max
    cone where a row is mixed, and the first such row.  signs: the _signs of
    the basis rows on f, when the caller keeps them."""
    signs = signs or [_signs([pairing(chi, r) for r in f.rays], f) for chi in lat.basis]
    mixed = functools.reduce(operator.or_, (pos & neg for pos, neg in signs), 0)
    if not mixed:
        return None
    k = (mixed & -mixed).bit_length() - 1
    c = f.max_cones[k]
    chi = next(chi for chi, (pos, neg) in zip(lat.basis, signs) if (pos & neg) >> k & 1)
    return c, chi, tuple(i for i in c if pairing(chi, f.rays[i]))


class _SignState:
    """The ray pairings of the candidates of find_equal_sign_basis and then
    of the canonical rows of a lattice, and their _signs on the last synced
    fan.  A character one-signed there stays so on every later star, so its
    signs are let be (stale, they still show it mixed on no cone)."""

    def __init__(self, lat):
        self.cands = list(_candidates(lat))
        self.chars = [chi for _, chi in self.cands] + list(lat.basis)
        self.values = [[] for _ in self.chars]
        self.signs = [(-1, -1)] * len(self.chars)  # mixed until synced

    def sync(self, f):
        """Follow star subdivisions into f: only new rays are paired."""
        for k, (pos, neg) in enumerate(self.signs):
            if pos & neg:
                values, chi = self.values[k], self.chars[k]
                values += [pairing(chi, r) for r in f.rays[len(values):]]
                self.signs[k] = _signs(values, f)

    def has_basis(self, s):
        """Whether find_equal_sign_basis finds a basis on the synced fan."""
        signed = [cand for cand, (pos, neg) in zip(self.cands, self.signs) if not pos & neg]
        return _pick_basis(s, signed) is not None


def search_good_fan(f, lattices, budget=64):
    """Greedy repair loop: while some lattice lacks an equal-sign basis,
    stellar-subdivide the smallest violating face at the primitive sum of its
    rays.  Returns (fan, subdivision count).  Raises NotGood, with the
    failures of validate_smooth and validate_complete, on a fan that is not
    smooth and complete, and BudgetExhausted, naming the lattice, its last
    violating cone and the character mixed there.

    A new ray is a positive sum of the rays of one face, so a character
    one-signed on a cone stays so on its star and a basis, once found, stays.
    So each lattice is tested once, on the input fan through the cache; one
    that fails there is followed by its _SignState, and no later fan is cached.
    """
    base = merge_reports(validate_smooth(f), validate_complete(f))
    if not base.ok:  # subdivisions repair equal signs only
        raise NotGood("the search needs a smooth complete fan: %s" % json.dumps(base.failures))
    current, steps = f, 0
    pending = [(idx, lat, _SignState(lat)) for idx, lat in enumerate(lattices)
               if find_equal_sign_basis(f, lat) is None]
    for idx, lat, signs in pending:
        signs.sync(current)
        while not signs.has_basis(lat.rank):
            # each canonical row is a candidate, so one is mixed somewhere
            rows = signs.signs[len(signs.cands):]
            cone, chi, face = first_equal_sign_violation(current, lat, rows)
            if steps >= budget:
                raise BudgetExhausted(
                    "no good fan within %d subdivisions: lattice %d (basis %s) is mixed on cone %s"
                    " (rays %s) by character %s" % (budget, idx, [list(r) for r in lat.basis],
                    list(cone), [list(current.rays[i]) for i in cone], list(chi)))
            total = [sum(current.rays[i][j] for i in face) for j in range(current.rank)]
            current = stellar_subdivide(current, face, primitive(total))
            signs.sync(current)
            steps += 1
    return current, steps
