"""Exact integer lattice algebra: HNF, SNF, saturation, adapted bases.

Everything here works over plain Python ints (arbitrary precision); no
floats.  Q/Z values are int numerators reduced mod one exact common
denominator (never mod a prime or other modulus) and become fractions.Fraction
only where they are returned.  Matrices are lists or tuples of equal-length
integer rows.  All functions are pure and all returned matrices are tuples of
tuples, safe to hash and share.  The one mutable object is RowEchelon, the
incremental echelon behind every Hermite form and lattice solve.

The kernels whose inputs repeat within one request (solve_in_lattice,
saturate, torsion_frame) are memoised by value; what they return is
immutable because every caller shares it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

# Entries per memoised kernel.  The keys are small int tuples; a 25 s run of
# any benchmark workload leaves at most 160 entries in each.
CACHE_SIZE = 1024


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def freeze(mat):
    return tuple(tuple(int(x) for x in row) for row in mat)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


class RowEchelon:
    """Integer row-echelon accumulator over a fixed number of columns: the
    package's one echelon engine.

    Rows are stored sparse, as {column: coefficient} dicts of their nonzeros,
    by head (pivot) column.  The stored rows always span the same lattice as
    everything inserted; back_reduce() turns them into the canonical HNF of
    that lattice and never changes a pivot entry.
    """

    def __init__(self, ncols, rows=()):
        self.ncols = ncols
        self.pivots = {}
        self._reduced = True
        for row in rows:
            self.insert(row)

    @property
    def rank(self):
        return len(self.pivots)

    def insert(self, row):
        """Add a row: a {column: coefficient} mapping or a dense sequence.
        Returns whether the lattice grew: the row made a new pivot or the
        xgcd step replaced one, which happens exactly when the row was not
        already in the lattice."""
        row = _sparse(row)
        grew = False
        while row:
            j = min(row)
            p = self.pivots.get(j)
            if p is None:
                self.pivots[j] = row if row[j] > 0 else {k: -x for k, x in row.items()}
                self._reduced = False
                return True
            if row[j] % p[j]:
                g, a, b = xgcd(p[j], row[j])
                self.pivots[j] = _combination(a, p, b, row)
                row = _combination(-(row[j] // g), p, p[j] // g, row)
                self._reduced, grew = False, True
            else:
                _add_multiple(row, -(row[j] // p[j]), p)
        return grew

    def _reduce(self, row, cols):
        """Reduce a sparse row in place by the pivot rows of cols, in
        increasing column order, into [0, pivot) on those columns."""
        for j in cols:
            q = row.get(j, 0) // self.pivots[j][j]
            if q:
                _add_multiple(row, -q, self.pivots[j])

    def back_reduce(self):
        if self._reduced:
            return
        cols = sorted(self.pivots)
        for pos in range(len(cols) - 2, -1, -1):
            self._reduce(self.pivots[cols[pos]], cols[pos + 1 :])
        self._reduced = True

    def hnf_rows(self):
        """The HNF as dense rows of width ncols."""
        self.back_reduce()
        width = range(self.ncols)
        return [tuple(self.pivots[j].get(k, 0) for k in width) for j in sorted(self.pivots)]

    def reduce_vector(self, vec):
        """The canonical representative of vec modulo the row lattice, as a
        dense list of width ncols."""
        self.back_reduce()
        v = _sparse(vec)
        self._reduce(v, sorted(self.pivots))
        return [v.get(k, 0) for k in range(self.ncols)]

    def torsion(self):
        """Elementary divisors > 1 of the row lattice (torsion of the
        quotient restricted to the pivot-supported part).  In the HNF a unit
        pivot's column is zero off its row, so that row and column split off
        a unit divisor: only the other rows, on the other columns, remain."""
        if all(p[j] == 1 for j, p in self.pivots.items()):
            return ()
        self.back_reduce()
        rest = [p for j, p in sorted(self.pivots.items()) if p[j] != 1]
        cols = sorted(set().union(*rest))
        return tuple(d for d in elementary_divisors([[p.get(k, 0) for k in cols] for p in rest]) if d != 1)


def _sparse(row):
    """The nonzeros of a mapping or a dense sequence as a new dict."""
    return {k: x for k, x in (row.items() if hasattr(row, "items") else enumerate(row)) if x}


def _add_multiple(row, q, p):
    """row += q * p in place on sparse rows, for q != 0."""
    for k, x in p.items():
        y = row.get(k, 0) + q * x
        if y:
            row[k] = y
        else:
            del row[k]


def _combination(a, p, b, r):
    """a * p + b * r as a new sparse row."""
    return {k: y for k in p.keys() | r.keys() if (y := a * p.get(k, 0) + b * r.get(k, 0))}


def hermite_normal_form(mat):
    """Row-style Hermite normal form of an integer matrix.

    Returns H, the canonical basis of the row lattice: pivot columns strictly
    increase, pivots are positive, entries above a pivot are reduced into
    [0, pivot).  Zero rows are dropped.
    """
    ech = RowEchelon(len(mat[0]) if mat else 0, (map(int, row) for row in mat))
    return tuple(ech.hnf_rows())


def smith_normal_form(mat):
    """Smith normal form with transforms: U * mat * V == D.

    U and V are unimodular; D is diagonal with nonnegative entries and
    d1 | d2 | ... .  Pivot selection is deterministic: smallest nonzero
    absolute value, ties broken by lowest row then column index.
    Returns (U, D, V, Vinv) with Vinv the exact integer inverse of V.
    """
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = identity(m)
    v = identity(n)
    vinv = identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        # col_dst += q * col_src; Vinv gets the inverse op on rows
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        vinv[src] = [x - q * y for x, y in zip(vinv[src], vinv[dst])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < m and t < n:
        # deterministic pivot: min |value|, then row, then column
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
            moved = False
            for i in range(t + 1, m):
                if a[i][t]:
                    swap_rows(t, i)
                    moved = True
                    break
            if moved:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
            moved = False
            for j in range(t + 1, n):
                if a[t][j]:
                    swap_cols(t, j)
                    moved = True
                    break
            if moved:
                continue
            break
        if a[t][t] < 0:
            negate_row(t)
        # enforce divisibility of the remaining block by the pivot
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        t += 1
    return freeze(u), freeze(a), freeze(v), freeze(vinv)


def elementary_divisors(mat):
    """Nonzero diagonal of the Smith form."""
    _, d, _, _ = smith_normal_form(mat)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(d[i][i])
    return tuple(out)


def solve_in_lattice(basis, target):
    """Integer coords of target in the row lattice of basis, or None.

    basis rows need not be in HNF but must be linearly independent.
    """
    return _solve_in_lattice(freeze(basis), tuple(map(int, target)))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _solve_in_lattice(basis, target):
    if not basis:
        return None if any(target) else ()
    # echelon of [basis | I]: a pivot in the I block is a dependency, and
    # reducing [target | 0] leaves [0 | -coords] exactly for members
    n, k = len(target), len(basis)
    rows = (list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(basis))
    ech = RowEchelon(n + k, rows)
    if any(j >= n for j in ech.pivots):
        raise ValueError("basis rows are dependent")
    v = ech.reduce_vector(list(target) + [0] * k)
    if any(v[:n]):
        return None
    return tuple(-x for x in v[n:])


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^ambient_rank, stored via its canonical HNF basis."""

    ambient_rank: int
    basis: tuple  # tuple of int row tuples, HNF, no zero rows

    @property
    def rank(self):
        return len(self.basis)


def sublattice(rows, ambient_rank, *, allow_dependent=False):
    """Build a Sublattice from generating rows (canonicalized via HNF)."""
    rows = [list(map(int, r)) for r in rows]
    for r in rows:
        if len(r) != ambient_rank:
            raise ValueError("row length does not match ambient rank")
    h = hermite_normal_form(rows)
    if not allow_dependent and len(h) != len(rows):
        raise ValueError("generators are linearly dependent")
    return Sublattice(ambient_rank, h)


def span_rows(rows, ambient_rank):
    return sublattice(rows, ambient_rank, allow_dependent=True)


@functools.lru_cache(maxsize=CACHE_SIZE)
def saturate(lat):
    """Smallest split direct summand of Z^n containing lat."""
    if lat.rank == 0:
        return lat
    _, d, _, vinv = smith_normal_form(lat.basis)
    s = lat.rank
    sat_rows = [list(vinv[i]) for i in range(s)]
    return Sublattice(lat.ambient_rank, hermite_normal_form(sat_rows))


def is_split_summand(lat):
    """True iff Z^n / lat is torsion free (all elementary divisors 1)."""
    return all(d == 1 for d in elementary_divisors(lat.basis))


@dataclass(frozen=True)
class AdaptedBasis:
    """Basis of the larger lattice whose first split_index rows span the smaller."""

    vectors: tuple  # tuple of int row tuples
    split_index: int


def adapted_basis(g_lat, m_lat):
    """Basis b1..bs of g_lat whose first k rows are a basis of m_lat.

    Precondition, not checked here: both lattices are saturated and m_lat
    sits inside g_lat, as for the lattices of a layer G inside a layer M of
    one LayerPoset.  The result is deterministic: the m-part is m_lat's HNF
    basis and the completion is Hermite-reduced against it.
    """
    s, k = g_lat.rank, m_lat.rank
    if k == s:
        return AdaptedBasis(m_lat.basis, k)
    if k == 0:
        return AdaptedBasis(g_lat.basis, 0)
    # coordinates of the m basis inside the g basis; saturated, so the
    # coordinate lattice is a split summand of Z^s and completes to a basis
    coords = [solve_in_lattice(g_lat.basis, row) for row in m_lat.basis]
    _, d, _, vinv = smith_normal_form(coords)
    completion = [list(vinv[i]) for i in range(k, s)]
    # Hermite-reduce the completion against the m coordinate pivots
    chnf = hermite_normal_form(coords)
    pivots = [(next(j for j, x in enumerate(row) if x), i) for i, row in enumerate(chnf)]
    reduced = []
    for w in completion:
        w = list(w)
        for j, i in pivots:
            q = w[j] // chnf[i][j]
            if q:
                w = [a - q * b for a, b in zip(w, chnf[i])]
        reduced.append(w)
    vectors = list(m_lat.basis) + [mat_vec(transpose(g_lat.basis), w) for w in reduced]
    return AdaptedBasis(freeze(vectors), k)


def qz(value):
    """Canonical representative of a rational in Q/Z: Fraction in [0, 1)."""
    f = Fraction(value)
    return Fraction(f.numerator % f.denominator, f.denominator)


def qz_numerators(values):
    """(nums, den): the values in Q/Z as ints in [0, den) over their lcm den."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) % den for v in values], den


def qz_dot(coeffs, values):
    """qz(sum c * v) for int coefficients and rational values."""
    nums, den = qz_numerators(values)
    return Fraction(sum(c * a for c, a in zip(coeffs, nums)) % den, den)


@dataclass(frozen=True)
class TorsionFrame:
    """What solve_torsion_congruences needs from the generators alone.

    sat is the saturation of span(gens).  u, divisors and v come from the
    Smith form U * coords * V == D of the generators' coordinates on the
    HNF basis of sat: divisors are the s = sat.rank diagonal entries of D.
    """

    sat: Sublattice
    u: tuple
    divisors: tuple
    v: tuple


def torsion_frame(gens, ambient_rank):
    """The TorsionFrame of the integer vectors gens (possibly dependent)."""
    return _torsion_frame(freeze(gens), int(ambient_rank))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _torsion_frame(gens, ambient_rank):
    sat = saturate(span_rows(gens, ambient_rank))
    if sat.rank == 0:
        return TorsionFrame(sat, (), (), ())
    coords = [solve_in_lattice(sat.basis, g) for g in gens]
    u, d, v, _ = smith_normal_form(coords)
    return TorsionFrame(sat, u, tuple(d[i][i] for i in range(sat.rank)), v)


def solve_torsion_congruences(gens, values, ambient_rank):
    """All torsion characters on the saturation of span(gens) hitting values.

    gens are integer vectors (possibly dependent), values their prescribed
    images in Q/Z.  Characters are returned as tuples of Q/Z values on the
    canonical HNF basis of saturate(span(gens)), sorted; the empty list means
    the constraints are inconsistent.  The number of solutions always equals
    the index of span(gens) inside its saturation.
    """
    nums, den = qz_numerators(values)
    if len(gens) != len(nums):
        raise ValueError("one value per generator required")
    frame = torsion_frame(gens, ambient_rank)
    if frame.sat.rank == 0:
        return [()] if not any(nums) else []
    u, divisors, v = frame.u, frame.divisors, frame.v
    # w = u * values in Q/Z; the rows past rank(sat) must vanish
    w = [sum(x * a for x, a in zip(row, nums)) % den for row in u]
    if any(w[len(divisors):]):
        return []
    # y_i = (w_i / den + k_i) / d_i over one denominator: d_1 | d_2 | ...
    big = den * divisors[-1]
    scale = [big // (den * d) for d in divisors]
    sols = []
    for ks in itertools.product(*(range(d) for d in divisors)):
        y = [(w[i] + k * den) * scale[i] for i, k in enumerate(ks)]
        sols.append(tuple(sum(x * b for x, b in zip(row, y)) % big for row in v))
    return [tuple(Fraction(x, big) for x in sol) for sol in sorted(sols)]
