import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _oracles import (
    DenseRowEchelon,
    hermite_normal_form_reference,
    kernel_basis,
    solve_in_lattice_reference,
    solve_torsion_congruences_reference,
)
from wondertoric import lattice
from wondertoric.lattice import (
    AdaptedBasis,
    RowEchelon,
    adapted_basis,
    elementary_divisors,
    hermite_normal_form,
    identity,
    is_split_summand,
    qz,
    saturate,
    smith_normal_form,
    solve_in_lattice,
    solve_torsion_congruences,
    span_rows,
    sublattice,
    torsion_frame,
)


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def naive_det(mat):
    # cofactor expansion
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * naive_det(minor)
    return total


def minors_gcd(mat, k):
    # gcd of all k x k minors; 0 if every minor vanishes
    import math

    m, n = len(mat), len(mat[0]) if mat else 0
    g = 0
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            sub = [[mat[i][j] for j in cols] for i in rows]
            g = math.gcd(g, naive_det(sub))
    return g


def random_matrix(rng, m, n, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_hnf_shape_is_canonical():
    rng = random.Random(2)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        h = hermite_normal_form(a)
        pivots = []
        for row in h:
            j = next(k for k, x in enumerate(row) if x)
            assert row[j] > 0
            pivots.append(j)
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for i, row in enumerate(h):
            j = next(k for k, x in enumerate(row) if x)
            for above in range(i):
                assert 0 <= h[above][j] < row[j]


def test_hnf_is_invariant_under_row_basis_change():
    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        shuffled = a[:]
        rng.shuffle(shuffled)
        assert hermite_normal_form(a) == hermite_normal_form(shuffled)
        # add one row to another: same lattice
        if m >= 2:
            b = [row[:] for row in a]
            b[0] = [x + 3 * y for x, y in zip(b[0], b[1])]
            assert hermite_normal_form(a) == hermite_normal_form(b)


def test_snf_reconstruction_and_divisor_chain():
    rng = random.Random(4)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        u, d, v, vinv = smith_normal_form(a)
        assert abs(naive_det(u)) == 1
        assert abs(naive_det(v)) == 1
        assert mat_mul(v, vinv) == identity(n)
        assert mat_mul(mat_mul(u, a), v) == [list(r) for r in d]
        diag = [d[i][i] for i in range(min(m, n))]
        for i, x in enumerate(d):
            for j, y in enumerate(x):
                if i != j:
                    assert y == 0
        nz = [x for x in diag if x]
        assert all(x > 0 for x in nz)
        for p, q in zip(nz, nz[1:]):
            assert q % p == 0
        assert diag[len(nz) :] == [0] * (len(diag) - len(nz))


def test_snf_divisors_match_minor_gcds():
    # d1*...*dk equals the gcd of all k x k minors
    rng = random.Random(5)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = random_matrix(rng, m, n)
        divs = elementary_divisors(a)
        prod = 1
        for k, dk in enumerate(divs, start=1):
            prod *= dk
            assert prod == minors_gcd(a, k)
        if len(divs) < min(m, n):
            assert minors_gcd(a, len(divs) + 1) == 0


def test_snf_known_example():
    _, d, _, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]


def test_solve_in_lattice_roundtrip_and_refusal():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        basis = random_matrix(rng, k, n)
        if len(hermite_normal_form(basis)) != k:
            continue
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        target = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(n)]
        got = solve_in_lattice(basis, target)
        assert got is not None
        rebuilt = [sum(c * row[j] for c, row in zip(got, basis)) for j in range(n)]
        assert rebuilt == target
    # refusals cross-checked by exhaustive small search
    basis = [[2, 0], [0, 3]]
    for target in ([1, 0], [2, 1], [1, 1], [3, 3]):
        got = solve_in_lattice(basis, target)
        brute = any(
            [2 * a, 3 * b] == target
            for a in range(-6, 7)
            for b in range(-6, 7)
        )
        assert (got is not None) == brute


def test_kernel_basis_contract():
    rng = random.Random(8)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        ker = kernel_basis(a)
        for v in ker:
            assert all(sum(row[j] * v[j] for j in range(n)) == 0 for row in a)
        rank = max((k for k in range(1, min(m, n) + 1) if minors_gcd(a, k)), default=0)
        assert len(ker) == n - rank
        if ker:
            assert is_split_summand(sublattice(ker, n))


def test_saturate_against_minor_gcd_characterization():
    # a rank-s sublattice is a split summand iff its s x s minors are coprime
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        rows = random_matrix(rng, k, n, lo=-3, hi=3)
        lat = span_rows(rows, n)
        if lat.rank == 0:
            continue
        sat = saturate(lat)
        assert sat.rank == lat.rank
        assert all(solve_in_lattice(sat.basis, row) is not None for row in lat.basis)
        assert minors_gcd([list(r) for r in sat.basis], sat.rank) == 1
        assert is_split_summand(sat) == (minors_gcd([list(r) for r in sat.basis], sat.rank) == 1)
        # index of lat in sat: determinant of the coordinate change
        coords = [solve_in_lattice(sat.basis, row) for row in lat.basis]
        assert abs(naive_det([list(c) for c in coords])) == math.prod(elementary_divisors(lat.basis))
        if math.prod(elementary_divisors(lat.basis)) == 1:
            assert sat.basis == lat.basis


def test_saturate_brute_force_quotient_count():
    # coset count of lat inside sat, enumerated directly, equals the index
    for rows, expected_sat, expected_index in [
        ([[2, 2]], ((1, 1),), 2),
        ([[2, 2], [0, 4]], ((1, 0), (0, 1)), 8),
        ([[2, 4]], ((1, 2),), 2),
    ]:
        lat = span_rows(rows, 2)
        sat = saturate(lat)
        assert sat.basis == expected_sat
        pts = [
            (a, b)
            for a in range(-8, 9)
            for b in range(-8, 9)
            if solve_in_lattice(sat.basis, (a, b)) is not None
        ]
        reps = []
        for p in pts:
            if not any(
                solve_in_lattice(lat.basis, [p[0] - r[0], p[1] - r[1]]) is not None
                for r in reps
            ):
                reps.append(p)
        assert len(reps) == math.prod(elementary_divisors(lat.basis)) == expected_index


def test_adapted_basis_example_and_contract():
    g = sublattice(identity(2), 2)
    m = sublattice([[1, 0]], 2)
    ab = adapted_basis(g, m)
    assert ab == AdaptedBasis(((1, 0), (0, 1)), 1)


def test_adapted_basis_randomized_contract():
    rng = random.Random(10)
    tried = 0
    while tried < 30:
        n = rng.randint(1, 4)
        s = rng.randint(1, n)
        k = rng.randint(0, s)
        g = span_rows(random_matrix(rng, s, n), n)
        if g.rank != s:
            continue
        g = saturate(g)
        combos = [[rng.randint(-2, 2) for _ in range(s)] for _ in range(k)]
        sub = span_rows(
            [
                [sum(c * row[j] for c, row in zip(combo, g.basis)) for j in range(n)]
                for combo in combos
            ],
            n,
        )
        m = saturate(sub) if sub.rank else sub
        if m.rank != k:
            continue
        tried += 1
        ab = adapted_basis(g, m)
        assert ab.split_index == k
        head = sublattice(ab.vectors[:k], n) if k else span_rows([], n)
        assert head.basis == m.basis
        assert sublattice(ab.vectors, n).basis == g.basis


def test_qz_normalization():
    assert qz(Fraction(5, 2)) == Fraction(1, 2)
    assert qz(Fraction(-1, 3)) == Fraction(2, 3)
    assert qz(3) == 0


def brute_force_characters(gens, values, sat, denominator):
    # try every character with the given denominator on the saturation basis
    s = sat.rank
    out = set()
    grid = [Fraction(i, denominator) for i in range(denominator)]
    for phi in itertools.product(grid, repeat=s):
        ok = True
        for g, val in zip(gens, values):
            coords = solve_in_lattice(sat.basis, g)
            image = qz(sum(Fraction(c) * p for c, p in zip(coords, phi)))
            if image != qz(val):
                ok = False
                break
        if ok:
            out.add(tuple(phi))
    return sorted(out)


def test_torsion_congruences_match_brute_force():
    cases = [
        ([(2, 0)], [Fraction(1, 2)], 2),
        ([(2, 0)], [Fraction(1, 3)], 2),
        ([(2, 2), (0, 4)], [Fraction(1, 2), Fraction(0)], 2),
        ([(1, 1), (1, -1)], [Fraction(1, 2), Fraction(1, 2)], 2),
        ([(3,)], [Fraction(2, 3)], 1),
        ([(1, 0), (1, 0)], [Fraction(0), Fraction(1, 2)], 2),
        ([(2, 4, 0), (0, 0, 3)], [Fraction(1, 4), Fraction(1, 3)], 3),
    ]
    for gens, values, n in cases:
        got = solve_torsion_congruences(gens, values, n)
        span = span_rows([list(g) for g in gens], n)
        if span.rank == 0:
            continue
        sat = saturate(span)
        denom = math.prod(elementary_divisors(span.basis))
        for v in values:
            denom = denom * Fraction(v).denominator
        brute = brute_force_characters(gens, values, sat, denom)
        assert got == brute
        if got:
            assert len(got) == math.prod(elementary_divisors(span.basis))


def test_torsion_congruences_solution_count_is_index():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        gens = random_matrix(rng, k, n, lo=-3, hi=3)
        span = span_rows(gens, n)
        if span.rank == 0:
            continue
        # values chosen consistently: evaluate a random torsion character
        sat = saturate(span)
        phi = [Fraction(rng.randint(0, 5), 6) for _ in range(sat.rank)]
        values = []
        for g in gens:
            coords = solve_in_lattice(sat.basis, g)
            values.append(qz(sum(Fraction(c) * p for c, p in zip(coords, phi))))
        got = solve_torsion_congruences(gens, values, n)
        assert len(got) == math.prod(elementary_divisors(span.basis))
        assert tuple(qz(p) for p in phi) in got


# --- the memoised kernels against their undecorated bodies -----------------


@st.composite
def small_matrices(draw, max_rows=4):
    """Integer matrices with at most 4 columns and entries in [-3, 3]."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=0, max_size=max_rows)), n


def as_tuples(mat):
    return tuple(tuple(row) for row in mat)


@settings(max_examples=150, deadline=None)
@given(mat=small_matrices(), data=st.data())
def test_cached_solve_in_lattice_equals_its_body(mat, data):
    basis, n = mat
    assume(len(hermite_normal_form(basis)) == len(basis))
    if data.draw(st.booleans()):  # a lattice vector
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
        target = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(n)]
    else:
        target = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    want = lattice._solve_in_lattice.__wrapped__(basis, target)
    for b, t in ((basis, target), (as_tuples(basis), tuple(target)), (basis, target)):
        assert solve_in_lattice(b, t) == want


@settings(max_examples=150, deadline=None)
@given(mat=small_matrices())
def test_cached_saturate_and_torsion_frame_equal_their_bodies(mat):
    gens, n = mat
    span = span_rows(gens, n)
    assert saturate(span) == saturate.__wrapped__(span)
    want = lattice._torsion_frame.__wrapped__(gens, n)
    assert want.sat == saturate.__wrapped__(span)
    for g in (gens, as_tuples(gens), gens):
        assert torsion_frame(g, n) == want


@settings(max_examples=100, deadline=None)
@given(mat=small_matrices(max_rows=3), data=st.data())
def test_cached_torsion_congruences_match_brute_force(mat, data):
    gens, n = mat
    span = span_rows(gens, n)
    assume(span.rank > 0)
    sat = saturate(span)
    index = math.prod(elementary_divisors(span.basis))
    values = [Fraction(data.draw(st.integers(0, 5)), 6) for _ in gens]
    denom = index * 6
    assume(denom ** sat.rank <= 5000)
    got = solve_torsion_congruences(gens, values, n)
    assert got == brute_force_characters(gens, values, sat, denom)
    assert len(got) in (0, index)
    assert solve_torsion_congruences(as_tuples(gens), tuple(values), n) == got


def test_mutating_inputs_and_results_leaves_the_caches_intact():
    gens = [[2, 0], [0, 2]]
    values = [Fraction(1, 2), Fraction(0)]
    first = solve_torsion_congruences(gens, values, 2)
    frame = torsion_frame(gens, 2)
    coords = solve_in_lattice(gens, [4, 2])
    assert first == [(Fraction(1, 4), Fraction(0)), (Fraction(1, 4), Fraction(1, 2)),
                     (Fraction(3, 4), Fraction(0)), (Fraction(3, 4), Fraction(1, 2))]
    first.clear()  # the caller owns the returned list
    gens[0][0] = 1  # and its own input rows
    assert solve_torsion_congruences([[2, 0], [0, 2]], values, 2) != []
    assert torsion_frame([[2, 0], [0, 2]], 2) == frame
    assert solve_in_lattice([[2, 0], [0, 2]], [4, 2]) == coords == (2, 1)
    assert torsion_frame(gens, 2) == lattice._torsion_frame.__wrapped__(gens, 2) != frame
    # shared values are immutable
    for value in (frame, coords, saturate(span_rows([[2, 0]], 2))):
        hash(value)


# --- the echelon engine against the batch references ------------------------


@st.composite
def echelon_matrices(draw):
    """Matrices up to 5 x 5 with entries in [-10, 10]; some rows are
    replaced by zero rows or combinations of earlier rows, and rows may be
    empty."""
    n = draw(st.integers(0, 5))
    row = st.lists(st.integers(-10, 10), min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=5))
    for k in range(1, len(rows)):
        combo = draw(st.sampled_from([None, (0, 0), (1, -1), (2, 3)]))
        if combo:
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            rows[k] = [combo[0] * x + combo[1] * y for x, y in zip(rows[i], rows[j])]
    return rows, n


@settings(max_examples=300, deadline=None)
@given(mat=echelon_matrices())
def test_hnf_equals_the_batch_reference(mat):
    rows, _ = mat
    assert hermite_normal_form(rows) == hermite_normal_form_reference(rows)


@settings(max_examples=300, deadline=None)
@given(mat=echelon_matrices(), data=st.data())
def test_solve_in_lattice_equals_the_batch_reference(mat, data):
    basis, n = mat
    if basis and data.draw(st.booleans()):  # a lattice vector
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
        target = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(n)]
    else:
        target = data.draw(st.lists(st.integers(-10, 10), min_size=n, max_size=n))
    try:
        want = solve_in_lattice_reference(basis, target)
    except ValueError:  # dependent rows
        with pytest.raises(ValueError):
            solve_in_lattice(basis, target)
        return
    assert solve_in_lattice(basis, target) == want


# --- the sparse echelon engine against its dense form --------------------------


@st.composite
def insert_sequences(draw):
    """(ncols, steps, vectors): each step inserts a row, given dense or as a
    mapping (zero entries included or not), and may then reduce a vector.
    Rows may be zero, negated or multiples of earlier ones; heads of 2, 3, 4
    and 6 make inserts hit pivots they do not divide."""
    n = draw(st.integers(0, 6))
    entry = st.sampled_from((-6, -4, -3, -2, -1, 0, 0, 0, 1, 2, 3, 4, 6))
    vector = st.lists(st.integers(-20, 20), min_size=n, max_size=n)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=8))
    steps = []
    for k, row in enumerate(rows):
        change = draw(st.sampled_from((None, "zero", "negate", "multiple")))
        if change == "zero":
            row = [0] * n
        elif change == "negate":
            row = [-x for x in row]
        elif change == "multiple" and k:
            row = [draw(st.sampled_from((-3, 2, 3))) * x for x in rows[draw(st.integers(0, k - 1))]]
        form = draw(st.sampled_from(("dense", "mapping", "mapping with zeros")))
        if form == "mapping":
            row = {j: x for j, x in enumerate(row) if x}
        elif form == "mapping with zeros":
            row = dict(enumerate(row))
        steps.append((row, draw(st.one_of(st.none(), vector))))
    return n, steps, draw(st.lists(vector, min_size=1, max_size=3))


def assert_same_echelon(sparse, dense, vectors):
    assert sparse.rank == dense.rank
    assert sparse.torsion() == dense.torsion()
    assert sparse.hnf_rows() == dense.hnf_rows()
    for v in vectors:
        assert sparse.reduce_vector(v) == dense.reduce_vector(v)


@settings(max_examples=300, deadline=None)
@given(seq=insert_sequences())
@example(seq=(3, [([2, 1, 0], None), ([3, 0, 1], [5, 5, 5]), ([0, 0, 0], None),
                  ({0: -4, 1: 2, 2: 2}, [1, -7, 3])], [[9, 9, 9]]))
@example(seq=(2, [([-2, 5], [3, 3]), ({0: 6, 1: 0}, None), ([4, -3], [1, 0]),
                  ([0, 4], [-9, 9])], [[1, 1]]))
def test_sparse_echelon_equals_the_dense_form(seq):
    n, steps, vectors = seq
    sparse, dense = RowEchelon(n), DenseRowEchelon(n)
    for row, vec in steps:
        sparse.insert(row)
        dense.insert([row.get(j, 0) for j in range(n)] if isinstance(row, dict) else row)
        if vec is not None:  # query mid-stream: later inserts meet reduced rows
            assert_same_echelon(sparse, dense, [vec])
    assert_same_echelon(sparse, dense, vectors)


@settings(max_examples=300, deadline=None)
@given(seq=insert_sequences(), data=st.data())
def test_insert_says_whether_the_row_was_outside_the_lattice(seq, data):
    # membership is read from a second echelon, so the tested one is never
    # back-reduced between inserts, as in a slice
    n, steps, _ = seq
    rows = [row for row, _ in steps]
    ech, ref = RowEchelon(n), DenseRowEchelon(n)
    for row in rows:
        dense = [row.get(j, 0) for j in range(n)] if isinstance(row, dict) else row
        outside = any(ref.reduce_vector(dense))
        assert ech.insert(row) is outside
        ref.insert(dense)
    # the lattice, and so its HNF, does not depend on the insertion order
    order = data.draw(st.permutations(rows))
    assert RowEchelon(n, order).hnf_rows() == ech.hnf_rows() == ref.hnf_rows()


@st.composite
def mixed_echelons(draw):
    """A RowEchelon whose rows have leading entries 1 and others, one row
    per pivot column, entries after the pivot in -6..6; then a few random
    rows, which may merge pivots through the xgcd step."""
    n = draw(st.integers(2, 7))
    heads = draw(st.lists(st.sampled_from((1, 1, 2, 3, 4, 6, -1, -2)), min_size=n, max_size=n))
    cols = draw(st.sets(st.integers(0, n - 1), min_size=1))
    ech = RowEchelon(n)
    for j in sorted(cols):
        ech.insert([0] * j + [heads[j]] + draw(st.lists(st.integers(-6, 6), min_size=n - j - 1, max_size=n - j - 1)))
    for row in draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=2)):
        ech.insert(row)
    return ech


@settings(max_examples=300, deadline=None)
@given(ech=mixed_echelons(), reduced=st.booleans())
def test_torsion_equals_the_divisors_of_the_whole_hnf(ech, reduced):
    # the unit pivots split off; the rest must give the Smith form of it all
    if reduced:
        ech.back_reduce()
    got = ech.torsion()  # before hnf_rows, which back-reduces
    assert got == tuple(d for d in elementary_divisors(ech.hnf_rows()) if d != 1)


def test_torsion_of_mixed_pivots_examples():
    # a unit pivot with entries in a non-unit pivot's column and beyond
    assert RowEchelon(3, [[1, 3, 5], [0, 2, 4], [0, 0, 6]]).torsion() == (2, 6)
    assert RowEchelon(3, [[1, 1, 1], [0, 4, 2]]).torsion() == (2,)
    # the unit pivot's column is cleared above it before the row goes
    assert RowEchelon(2, [[2, 1], [0, 1]]).torsion() == (2,)
    assert RowEchelon(2, [[1, 0], [0, 1]]).torsion() == ()


def test_insert_grows_the_lattice_through_the_xgcd_step():
    ech = RowEchelon(1, [[2]])
    assert ech.insert([3]) is True  # 2Z + 3Z = Z: the pivot 2 becomes 1
    assert ech.hnf_rows() == [(1,)]
    assert ech.insert([5]) is False
    # a replaced pivot whose remainder then lands on a new pivot
    ech = RowEchelon(2, [[2, 0]])
    assert ech.insert([3, 1]) is True
    assert ech.hnf_rows() == [(1, 1), (0, 2)]
    assert ech.insert([0, 4]) is False
    assert ech.insert({}) is False


# --- the int Q/Z kernel against its Fraction form ----------------------------

# denominators of the benchmark translations (97), of the torsion tests (6),
# their mix, and large ones up to 10**6
DENOMINATORS = st.sampled_from([1, 2, 6, 97, 6 * 97, 9973, 65536, 999983, 10**6])


@st.composite
def rationals(draw):
    return Fraction(draw(st.integers(-(10**6), 10**6)), draw(DENOMINATORS))


@settings(max_examples=200, deadline=None)
@given(mat=small_matrices(), data=st.data())
def test_torsion_congruences_equal_the_fraction_form(mat, data):
    gens, n = mat
    if data.draw(st.booleans()):  # values of a character of the saturation
        sat = saturate(span_rows(gens, n))
        phi = [data.draw(rationals()) for _ in sat.basis]
        values = [
            sum(Fraction(c) * p for c, p in zip(solve_in_lattice(sat.basis, g), phi))
            for g in gens
        ]
    else:  # arbitrary values, mostly inconsistent
        values = [data.draw(rationals()) for _ in gens]
    want = solve_torsion_congruences_reference(gens, values, n)
    got = solve_torsion_congruences(gens, values, n)
    assert got == want
    assert all(type(x) is Fraction for sol in got for x in sol)
    # ints and integral Fractions are the same values
    ints = [v.numerator if v.denominator == 1 else v for v in values]
    assert solve_torsion_congruences(gens, ints, n) == want


def test_torsion_congruences_reject_a_missing_value():
    with pytest.raises(ValueError):
        solve_torsion_congruences([[1, 0], [0, 1]], [Fraction(1, 2)], 2)
