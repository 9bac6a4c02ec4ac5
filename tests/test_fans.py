import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wondertoric.fans as fans_module
from _oracles import (
    cone_face_compat_reference,
    equal_sign_adapted_basis_reference,
    equal_sign_check_reference,
    feasible_nonneg_reference,
    find_equal_sign_basis_reference,
    first_equal_sign_violation_reference,
    incidence_reference,
    induced_fan,
    relint_coords_reference,
    search_good_fan_reference,
    star_cones_reference,
    validate_complete_reference,
    validate_smooth_reference,
)
from wondertoric.chern import equal_sign_adapted_basis
from wondertoric.errors import BudgetExhausted, MalformedFan, NoBasis, NotGood, RayNotInterior
from wondertoric.fans import (
    cone_face_compat,
    fan,
    fan_from_dict,
    fan_to_dict,
    feasible_nonneg,
    find_equal_sign_basis,
    first_equal_sign_violation,
    one_signed,
    pairing,
    primitive,
    relint_coords,
    search_good_fan,
    stellar_subdivide,
    validate_complete,
    validate_good,
    validate_smooth,
)
from wondertoric.lattice import RowEchelon, saturate, span_rows, sublattice
from wondertoric.layers import build_layer_poset, layer

P1 = fan(1, [(1,), (-1,)], [(0,), (1,)])
P1xP1 = fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)])
P2 = fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def lat(rows, n):
    return sublattice(rows, n)


def simplicial(f):
    """Every max cone has independent rays, by the rank of their echelon."""
    return all(RowEchelon(f.rank, [f.rays[i] for i in c]).rank == len(c) for c in f.max_cones)


def test_factory_rejects_structural_defects():
    with pytest.raises(MalformedFan):
        fan(2, [(2, 0)], [(0,)])  # not primitive
    with pytest.raises(MalformedFan):
        fan(2, [(1, 0), (1, 0)], [(0,), (1,)])  # repeated ray
    with pytest.raises(MalformedFan):
        fan(2, [(1, 0), (0, 1)], [(0, 0, 1)])  # repeated index in cone
    with pytest.raises(MalformedFan):
        fan(2, [(1, 0), (-1, 0)], [(0, 1)])  # not simplicial
    with pytest.raises(MalformedFan):
        fan(2, [(1, 0), (0, 1)], [(0,)])  # unused ray
    with pytest.raises(MalformedFan, match=re.escape("max cone (0,) contained in (0, 1)")):
        fan(2, [(1, 0), (0, 1)], [(0, 1), (0,)])  # nested max cones
    # the first contained cone in max-cone order is the one reported
    e3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(MalformedFan, match=re.escape("max cone (1,) contained in (0, 1, 2)")):
        fan(3, e3, [(0, 1, 2), (1,), (0, 2)])


def test_faces_are_every_cone_once():
    assert P2.faces == {(), (0,), (1,), (2,), (0, 1), (1, 2), (0, 2)}
    assert fan(0, (), ((),)).faces == {()}
    # a subdivision's faces are its own: the star of ray 4 replaces (0, 2)
    before = P1xP1.faces
    sub = stellar_subdivide(P1xP1, (0, 2), (1, 1))
    assert {s for s in sub.faces if 4 not in s} == before - {(0, 2)}
    assert (0, 4) in sub.faces and P1xP1.faces == before


def test_smoothness_reports():
    assert validate_smooth(P1).ok
    assert validate_smooth(P1xP1).ok
    bad = fan(2, [(1, 0), (1, 2)], [(0, 1)])
    rep = validate_smooth(bad)
    assert not rep.ok
    assert rep.failures == (("not_smooth", (0, 1)),)


def test_completeness_reports():
    assert validate_complete(P1).ok
    assert validate_complete(P2).ok
    missing = fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (1, 2), (1, 3)])
    rep = validate_complete(missing)
    assert not rep.ok
    walls = [f for f in rep.failures if f[0] == "wall_count"]
    assert len(walls) == 2  # the two boundary walls of the removed quadrant


def test_feasibility_solver_small_cases():
    # x + y = 1, x,y >= 0 feasible; x + y = -1 infeasible
    assert feasible_nonneg([[1, 1]], [1])
    assert not feasible_nonneg([[1, 1]], [-1])
    # x - y = 0, x + y = 2 -> x = y = 1
    assert feasible_nonneg([[1, -1], [1, 1]], [0, 2])
    # x = 1 and x = 2 contradictory
    assert not feasible_nonneg([[1], [1]], [1, 2])


def brute_face_violation(f, lattice, cone, denominator=4, top=3):
    # search a rational point of the cone, killed by the lattice, whose
    # support uses a ray outside the kernel subspace
    inside = [
        i
        for i in cone
        if all(sum(a * b for a, b in zip(chi, f.rays[i])) == 0 for chi in lattice.basis)
    ]
    grid = [Fraction(k, denominator) for k in range(top * denominator + 1)]
    for lams in itertools.product(grid, repeat=len(cone)):
        if all(l == 0 for i, l in zip(cone, lams) if i not in inside):
            continue
        point = [
            sum(l * r for l, r in zip(lams, [Fraction(f.rays[i][j]) for i in cone]))
            for j in range(f.rank)
        ]
        if all(sum(a * b for a, b in zip(chi, point)) == 0 for chi in lattice.basis):
            return lams
    return None


def test_cone_face_compat_examples_and_brute_force():
    coord = lat([[1, 0]], 2)
    assert cone_face_compat(P1xP1, coord).ok
    for cone in P1xP1.max_cones:
        assert brute_face_violation(P1xP1, coord, cone) is None

    diag = lat([[1, -1]], 2)
    rep = cone_face_compat(P2, diag)
    assert not rep.ok
    assert any(f[1] == (0, 1) for f in rep.failures)
    witness = brute_face_violation(P2, diag, (0, 1))
    assert witness is not None  # e.g. e1 + e2 on the diagonal

    zero = sublattice([], 2, allow_dependent=True)
    assert cone_face_compat(P1xP1, zero).ok


def test_equal_sign_examples():
    assert one_signed(P1xP1, (1, 0))
    assert not one_signed(P2, (1, -1))
    rep = equal_sign_check_reference(P2, [(1, -1)])
    assert not rep.ok
    assert ("mixed_signs", (0, 1), 0) in rep.failures
    assert equal_sign_check_reference(P2, []).ok


def test_equal_sign_implies_face_compat():
    # checked on every lattice/fan pair used in this file
    pairs = [
        (P1xP1, lat([[1, 0]], 2)),
        (P1xP1, lat([[0, 1]], 2)),
        (P1xP1, lat([[1, 0], [0, 1]], 2)),
        (P2, lat([[1, -1]], 2)),
        (P2, lat([[1, 0]], 2)),
    ]
    for f, L in pairs:
        basis = find_equal_sign_basis(f, L)
        if basis is not None:
            assert all(one_signed(f, chi) for chi in basis)
            assert cone_face_compat(f, L).ok


def test_find_equal_sign_basis_prefers_coordinates():
    full = lat([[1, 0], [0, 1]], 2)
    assert find_equal_sign_basis(P1xP1, full) == ((1, 0), (0, 1))
    assert find_equal_sign_basis(P2, lat([[1, -1]], 2)) is None


def test_validate_good_examples():
    coord_lats = [lat([[1, 0]], 2), lat([[0, 1]], 2), lat([[1, 0], [0, 1]], 2)]
    assert validate_good(P1xP1, coord_lats).ok
    assert not validate_good(P2, [lat([[1, -1]], 2)]).ok
    assert validate_good(P1, [lat([[1]], 1)]).ok


def test_induced_fan_examples():
    sub = induced_fan(P1xP1, lat([[1, 0]], 2))
    assert sub.rank == 1
    assert sorted(sub.rays) == [(-1,), (1,)]
    assert validate_smooth(sub).ok and validate_complete(sub).ok

    assert induced_fan(P1xP1, sublattice([], 2, allow_dependent=True)) is P1xP1

    point = induced_fan(P1xP1, lat([[1, 0], [0, 1]], 2))
    assert point.rank == 0 and point.max_cones == ((),)

    with pytest.raises(ValueError):
        induced_fan(P2, lat([[1, -1]], 2))


def test_stellar_subdivision_examples():
    bl = stellar_subdivide(P2, (0, 1), (1, 1))
    assert len(bl.rays) == 4
    assert validate_smooth(bl).ok and validate_complete(bl).ok
    assert len(bl.max_cones) == 4

    with pytest.raises(RayNotInterior):
        stellar_subdivide(P2, (0, 1), (1, 0))
    with pytest.raises(RayNotInterior):
        stellar_subdivide(P2, (0, 1), (2, -1))

    five = stellar_subdivide(P1xP1, (0, 2), (1, 1))
    assert len(five.rays) == 5
    assert validate_smooth(five).ok and validate_complete(five).ok


def test_stellar_preserves_completeness_report():
    before = validate_complete(P1xP1).ok
    after = validate_complete(stellar_subdivide(P1xP1, (0, 2), (1, 1))).ok
    assert before == after
    # and on an incomplete fan the defect stays a defect
    half = fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (1, 2), (1, 3)])
    assert not validate_complete(half).ok
    assert not validate_complete(stellar_subdivide(half, (0, 2), (1, 1))).ok


def test_induced_fan_of_good_fan_is_smooth_complete():
    for L in [lat([[1, 0]], 2), lat([[0, 1]], 2)]:
        sub = induced_fan(P1xP1, L)
        assert validate_smooth(sub).ok
        assert validate_complete(sub).ok


def test_json_roundtrip_bit_exact():
    doc = fan_to_dict(P1xP1)
    assert fan_to_dict(fan_from_dict(doc)) == doc
    assert doc == {
        "rank": 2,
        "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "max_cones": [[0, 2], [0, 3], [1, 2], [1, 3]],
    }
    with pytest.raises(MalformedFan):
        fan_from_dict({"rank": 2, "rays": [[1, 0]], "max_cones": "nope"})


def test_search_good_fan_fixes_p2_diagonal_in_one_step():
    fixed, steps = search_good_fan(P2, [lat([[1, -1]], 2)])
    assert steps == 1 and simplicial(fixed)
    assert (1, 1) in fixed.rays
    assert validate_good(fixed, [lat([[1, -1]], 2)]).ok


def test_search_good_fan_skew_arrangement():
    lats = [lat([[1, 1]], 2), lat([[1, -1]], 2)]
    fixed, steps = search_good_fan(P1xP1, lats)
    assert steps == 4 and simplicial(fixed)
    assert len(fixed.rays) == 8
    assert set(fixed.rays) == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1),
    }
    assert validate_good(fixed, lats).ok
    assert validate_smooth(fixed).ok and validate_complete(fixed).ok


@pytest.mark.parametrize("f, failures", [
    # a half-plane fan: the search cannot close its two lone walls
    (fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)]),
     (("wall_count", (0,), 1), ("wall_count", (2,), 1))),
    # complete but singular: a subdivision keeps a singular cone singular
    (fan(2, [(1, 0), (1, 2), (-1, 0), (0, -1), (-1, -2)], [(0, 1), (1, 2), (2, 4), (3, 4), (0, 3)]),
     (("not_smooth", (0, 1)), ("not_smooth", (1, 2)), ("not_smooth", (2, 4)))),
])
def test_search_good_fan_refuses_a_fan_that_is_not_smooth_and_complete(f, failures):
    want = validate_smooth(f).failures + validate_complete(f).failures
    assert want == failures
    with pytest.raises(NotGood, match=re.escape(json.dumps(failures))):
        search_good_fan(f, [lat([[1, 1]], 2)], budget=0)


def test_search_good_fan_budget():
    with pytest.raises(BudgetExhausted):
        search_good_fan(P2, [lat([[1, -1]], 2)], budget=0)
    # a fan that is already good needs no steps even with budget 0
    done, steps = search_good_fan(P1xP1, [lat([[1, 0]], 2)], budget=0)
    assert steps == 0 and done is P1xP1


# --- the memoised (fan, lattice) kernels against their undecorated bodies ---

CUBE = fan(
    3,
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)],
)
# P2 after one repair step, and the cube after two stellar subdivisions
P2_REPAIRED = stellar_subdivide(P2, (0, 1), (1, 1))
CUBE_SUBDIVIDED = stellar_subdivide(stellar_subdivide(CUBE, (0, 2), (1, 1, 0)), (0, 4), (1, 0, 1))
FANS = [P1, P1xP1, P2, P2_REPAIRED, CUBE, CUBE_SUBDIVIDED]


@st.composite
def fan_lattices(draw):
    """A fan and a sublattice of its character lattice: independent rows with
    entries in [-3, 3], given as lists or as tuples."""
    f = draw(st.sampled_from(FANS))
    row = st.lists(st.integers(-3, 3), min_size=f.rank, max_size=f.rank)
    rows = draw(st.lists(row, min_size=0, max_size=f.rank))
    span = span_rows(rows, f.rank)
    if span.rank != len(rows):
        rows = [list(r) for r in span.basis]
    if draw(st.booleans()):
        rows = tuple(tuple(r) for r in rows)
    return f, sublattice(rows, f.rank)


@settings(max_examples=150, deadline=None)
@given(pair=fan_lattices())
def test_cached_fan_kernels_equal_their_bodies(pair):
    f, L = pair
    want_basis = find_equal_sign_basis.__wrapped__(f, L)
    want_compat = cone_face_compat.__wrapped__(f, L)
    for _ in range(2):  # cold, then warm
        assert find_equal_sign_basis(f, L) == want_basis
        assert cone_face_compat(f, L) == want_compat
    # a fan rebuilt from lists is the same key
    same = fan(f.rank, [list(r) for r in f.rays], [list(c) for c in f.max_cones])
    assert find_equal_sign_basis(same, L) == want_basis
    assert cone_face_compat(same, L) == want_compat
    hash((want_basis, want_compat))  # shared values are immutable


# --- the one-pass sign test against the per-cone pairings --------------------


@st.composite
def subdivided_fans(draw):
    """A fan of FANS after up to two stellar subdivisions, each at a positive
    combination (coefficients 1 or 2) of the rays of a nonzero face."""
    f = draw(st.sampled_from(FANS))
    for _ in range(draw(st.integers(0, 2))):
        face = draw(st.sampled_from([c for c in faces(f) if c]))
        lams = draw(st.lists(st.integers(1, 2), min_size=len(face), max_size=len(face)))
        ray = primitive([sum(l * f.rays[i][j] for l, i in zip(lams, face)) for j in range(f.rank)])
        if ray not in f.rays:
            f = stellar_subdivide(f, face, ray)
    return f


@settings(max_examples=100, deadline=None)
@given(f=subdivided_fans())
def test_subdivided_fans_are_simplicial(f):
    # a coefficient of 2 can leave a star cone singular, never dependent
    assert simplicial(f)
    assert validate_smooth(f) == validate_smooth_reference(f)


@st.composite
def structural_fans(draw):
    """A rank-1 to rank-3 fan() of one to three cones, each of one to rank
    independent primitive rays with entries in [-3, 3]: cones overlap and
    leave gaps, and many are singular or lower-dimensional."""
    n = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any).map(primitive)
    cones = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(vec, min_size=1, max_size=n, unique=True))
        if RowEchelon(n, rows).rank == len(rows):
            cones.append(frozenset(map(tuple, rows)))
    cones = [c for c in set(cones) if not any(c < d for d in cones)]
    rays = sorted(set().union(*cones))
    return fan(n, rays, [[rays.index(r) for r in c] for c in cones]) if cones else P1


@settings(max_examples=300, deadline=None)
@given(f=structural_fans())
@example(f=fan(2, [(1, 0), (1, 2)], [(0, 1)]))  # singular, full-dimensional
@example(f=fan(2, [(2, 3)], [(0,)]))  # a pivot of 2, yet saturated
@example(f=fan(3, [(1, 1, 0), (1, -1, 0), (0, 0, 1)], [(0, 1), (2,)]))  # index 2 plane
def test_validate_smooth_equals_the_smith_form_reference(f):
    assert validate_smooth(f) == validate_smooth_reference(f)


def independent_rows(draw, n, min_rows=0, entry=3):
    row = st.lists(st.integers(-entry, entry), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=min(min_rows, n), max_size=n))
    span = span_rows(rows, n)
    return rows if span.rank == len(rows) else [list(r) for r in span.basis]


@settings(max_examples=300, deadline=None)
@given(f=subdivided_fans(), data=st.data())
def test_sign_searches_equal_the_per_cone_references(f, data):
    L = sublattice(independent_rows(data.draw, f.rank), f.rank)
    chars = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=f.rank, max_size=f.rank), max_size=3))
    for basis in (chars, L.basis):
        for chi in basis:
            assert one_signed(f, chi) is equal_sign_check_reference(f, [chi]).ok
    found = find_equal_sign_basis(f, L)
    assert found == find_equal_sign_basis_reference(f, L, 2)
    violation = first_equal_sign_violation(f, L)
    assert violation == first_equal_sign_violation_reference(f, L)
    # the search's canonical-row candidates: no basis means a mixed row
    if found is None:
        assert violation is not None


def divergent_fans(steps):
    """The fans of the first steps of the divergent search on the cube: each
    stars the face that the reference pick names for the plane x+y+z=0 at
    the sum of its rays.  Their rays grow like the Fibonacci numbers."""
    plane, f, out = sublattice([(1, 1, 1)], 3), CUBE, []
    for _ in range(steps):
        _, _, face = first_equal_sign_violation_reference(f, plane)
        f = stellar_subdivide(f, face, primitive([sum(f.rays[i][j] for i in face) for j in range(3)]))
        out.append(f)
    return out


DIVERGENT = divergent_fans(64)


@st.composite
def starred_fans(draw):
    """The square, the cube or one of the divergent search's fans, after up
    to two stellar subdivisions at a positive combination (coefficients 1
    to 3) of the rays of a nonzero face; the face and ray of a last one."""
    f = draw(st.sampled_from([P1xP1, CUBE] + DIVERGENT[::8] + DIVERGENT[-2:]))
    for k in range(draw(st.integers(0, 3))):
        face = draw(st.sampled_from([c for c in f.faces if c]))
        lams = draw(st.lists(st.integers(1, 3), min_size=len(face), max_size=len(face)))
        ray = primitive([sum(l * f.rays[i][j] for l, i in zip(lams, face)) for j in range(f.rank)])
        if ray in f.rays:
            continue
        if k == 2:
            return f, face, ray
        f = stellar_subdivide(f, face, ray)
    return f, None, None


@settings(max_examples=200, deadline=None)
@given(drawn=starred_fans(), data=st.data())
@example(drawn=(DIVERGENT[-1], DIVERGENT[-1].max_cones[0], None), data=None)  # 13-digit rays
def test_incidence_masks_equal_the_per_cone_references(drawn, data):
    f, face, ray = drawn
    assert f.incidence == incidence_reference(f)
    assert validate_complete(f) == validate_complete_reference(f)
    chars = [(1, 1, 1)[: f.rank], f.rays[-1]]
    rows = []
    if data is not None:
        entries = st.lists(st.integers(-3, 3), min_size=f.rank, max_size=f.rank)
        chars += data.draw(st.lists(entries, max_size=3))
        rows = independent_rows(data.draw, f.rank)
    for chi in chars:
        assert one_signed(f, chi) is equal_sign_check_reference(f, [chi]).ok
    for L in (sublattice(rows, f.rank), sublattice([chars[0]], f.rank)):
        assert first_equal_sign_violation(f, L) == first_equal_sign_violation_reference(f, L)
    if ray is not None:
        starred = stellar_subdivide(f, face, ray)
        assert starred.max_cones == star_cones_reference(f, face, len(f.rays))
        assert starred.incidence == incidence_reference(starred)


def test_divergent_fans_reach_thirteen_digit_rays():
    assert max(abs(x) for r in DIVERGENT[-1].rays for x in r) >= 10 ** 12
    # the cone that the pinned message of the exhausted search names
    plane = sublattice([(1, 1, 1)], 3)
    assert first_equal_sign_violation(DIVERGENT[-1], plane)[0] == (5, 68, 69)


def test_stellar_subdivide_keeps_its_errors():
    # an index out of range either way, and rays 0 and 1 of the square,
    # which are opposite, are no face; the empty cone is one
    for cone, named in (((0, 4), "(0, 4)"), ((-1,), "(-1,)"), ((1, 0), "(0, 1)")):
        with pytest.raises(MalformedFan, match="^not a face of any max cone: %s$" % re.escape(named)):
            stellar_subdivide(P1xP1, cone, (1, 1))
    with pytest.raises(RayNotInterior, match="^the zero cone has no interior ray$"):
        stellar_subdivide(P1xP1, (), (1, 1))
    with pytest.raises(RayNotInterior, match="^the zero cone has no interior ray$"):
        stellar_subdivide(fan(0, (), ((),)), (), ())


TWO_SQUARES = fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1)],
                  [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])


@settings(max_examples=300, deadline=None)
@given(f=st.one_of(structural_fans(), subdivided_fans()))
@example(f=TWO_SQUARES)  # every wall has two owners, yet two components
@example(f=fan(0, (), ((),)))
def test_validate_complete_equals_the_owner_list_reference(f):
    assert validate_complete(f) == validate_complete_reference(f)


def test_validate_complete_finds_two_components():
    assert validate_complete(TWO_SQUARES).failures == (("disconnected", 4, 8),)


def adapted_outcome(search, f, g, m):
    try:
        return search(f, g, m)
    except NoBasis as exc:
        return ("no_basis", str(exc))


@settings(max_examples=200, deadline=None)
@given(f=subdivided_fans(), data=st.data())
def test_adapted_basis_equals_the_per_cone_reference(f, data):
    # saturated m inside saturated g: saturations of a span and of a sub-span;
    # small entries, so that the m part often has an equal-sign basis and the
    # completion search runs
    rows = independent_rows(data.draw, f.rank, min_rows=2, entry=1)
    k = data.draw(st.integers(0, len(rows)))
    g = saturate(sublattice(rows, f.rank))
    m = saturate(sublattice(rows[:k], f.rank))
    got = adapted_outcome(equal_sign_adapted_basis, f, g, m)
    assert got == adapted_outcome(equal_sign_adapted_basis_reference, f, g, m)


def test_adapted_basis_completions_equal_the_per_cone_reference():
    # every rank-2 g spanned by two rows in {-1, 0, 1}^n over a rank-1 m:
    # the pairs where the completion search runs, found or not
    outcomes = set()
    for f in FANS:
        vecs = [v for v in itertools.product((-1, 0, 1), repeat=f.rank) if any(v)]
        for r1, r2 in itertools.product(vecs, repeat=2):
            span = span_rows([r1, r2], f.rank)
            if span.rank < 2:
                continue
            g, m = saturate(span), saturate(sublattice([r1], f.rank))
            got = adapted_outcome(equal_sign_adapted_basis, f, g, m)
            assert got == adapted_outcome(equal_sign_adapted_basis_reference, f, g, m)
            outcomes.add(got[1])  # k of a found basis, else the NoBasis message
    assert outcomes == {
        1,
        "no equal-sign basis for the larger layer's lattice",
        "no equal-sign completion within correction bound",
    }


# --- the integer cone kernels against their Fraction forms -------------------


def test_feasible_nonneg_rejects_non_integer_entries():
    for A, b in (
        ([[Fraction(1, 2), 1]], [1]),
        ([[1, 1]], [Fraction(3, 2)]),
        ([[1, 0.5]], [1]),
        ([[1, 1]], [-0.5]),
    ):
        with pytest.raises(ValueError):
            feasible_nonneg(A, b)
    # integral values of other types are the same integers
    assert feasible_nonneg([[Fraction(2), 1.0]], [Fraction(-4, 2)]) is False
    assert feasible_nonneg([[Fraction(2), -1.0]], [Fraction(-4, 2)]) is True


def test_feasible_nonneg_degenerate_ratio_ties():
    # zero right-hand sides tie every ratio at 0, so Bland's rule picks the
    # leaving row; the answers are the Fraction simplex's
    cases = [
        ([[1, 1, 0], [1, 0, 1]], [0, 0]),
        ([[1, -1, 0], [0, 1, -1], [-1, 0, 1]], [0, 0, 0]),
        ([[1, 1], [1, 1], [2, 2]], [1, 1, 2]),
        ([[1, 2, -1], [2, 4, -2]], [3, 7]),
        ([[1, -2, 3, 0, 1], [0, 1, 1, -1, 0], [1, -1, 4, -1, 1]], [2, 0, 2]),
    ]
    for A, b in cases:
        assert feasible_nonneg(A, b) == feasible_nonneg_reference(A, b)
    assert [feasible_nonneg(A, b) for A, b in cases] == [True, True, True, False, True]


@st.composite
def small_systems(draw):
    """A x = b with at most 4 rows, 5 columns and entries in [-3, 3].  Half
    of the right-hand sides are A x0 for some x0 >= 0 with zeros (feasible,
    degenerate), half are arbitrary (negative ones and infeasible ones)."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 5))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=m, max_size=m))
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    return A, b


@settings(max_examples=400, deadline=None)
@given(system=small_systems())
def test_feasible_nonneg_equals_the_fraction_simplex(system):
    A, b = system
    assert feasible_nonneg(A, b) is feasible_nonneg_reference(A, b)


def faces(f):
    return sorted({face for c in f.max_cones for k in range(len(c) + 1)
                   for face in itertools.combinations(c, k)})


@settings(max_examples=200, deadline=None)
@given(f=st.sampled_from(FANS), data=st.data())
def test_relint_coords_equals_the_fraction_elimination(f, data):
    cone = data.draw(st.sampled_from(faces(f)))
    if data.draw(st.booleans()):  # a point of the span, often of the interior
        lams = data.draw(st.lists(st.integers(-2, 3), min_size=len(cone), max_size=len(cone)))
        vec = [sum(l * f.rays[i][j] for l, i in zip(lams, cone)) for j in range(f.rank)]
    else:  # mostly outside the span
        vec = data.draw(st.lists(st.integers(-3, 3), min_size=f.rank, max_size=f.rank))
    want = relint_coords_reference(f, cone, vec)
    got = relint_coords(f, cone, vec)
    if want is None:
        assert got is None
    else:
        nums, den = got
        assert den > 0
        assert [Fraction(x, den) for x in nums] == want


def test_relint_coords_examples():
    assert relint_coords(P2, (0, 1), (1, 1)) == ([1, 1], 1)
    assert relint_coords(P2, (0,), (1, 1)) is None
    assert relint_coords(P2, (), (0, 0)) == ([], 1)
    for cone in CUBE_SUBDIVIDED.max_cones:
        nums, den = relint_coords(CUBE_SUBDIVIDED, cone, (1, 2, 3))
        want = relint_coords_reference(CUBE_SUBDIVIDED, cone, (1, 2, 3))
        assert [Fraction(x, den) for x in nums] == want
    with pytest.raises(ValueError):
        relint_coords(P2, (0, 1), (Fraction(1, 2), 0))


# the repair families of the benchmark's oracle_repair workload
SQUARE = (P1xP1.rays, P1xP1.max_cones)
SEARCH_FAMILIES = {
    "skew": (SQUARE, ((1, 1), (1, -1), (1, 2), (2, 1)), 64),
    "planes": ((CUBE.rays, CUBE.max_cones), ((1, 1, 0), (1, -1, 0), (0, 0, 1)), 64),
    # never converges; each search runs to its budget
    "divergent": ((CUBE.rays, CUBE.max_cones), ((1, 1, 1), (1, 0, 0)), 16),
}


def signed_labelings(n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield lambda v, p=perm, s=signs: tuple(s[i] * v[p[i]] for i in range(n))


def search_outcome(search, f, lats, budget):
    try:
        fixed, steps = search(f, lats, budget)
    except BudgetExhausted as exc:
        return ("exhausted", str(exc))
    assert simplicial(fixed)
    return fixed, steps


EXHAUSTED = re.compile(
    r"no good fan within (\d+) subdivisions: lattice (\d+) \(basis (.*)\) is mixed on"
    r" cone (\[[\d, ]*\]) \(rays (.*)\) by character (\[.*\])$"
)


@pytest.mark.parametrize("family", sorted(SEARCH_FAMILIES))
def test_search_good_fan_equals_the_loop_that_searches_every_lattice(family):
    (rays, cones), chars, budget = SEARCH_FAMILIES[family]
    n = len(rays[0])
    exhausted = 0
    for move in signed_labelings(n):
        f = fan(n, [move(r) for r in rays], cones)
        poset = build_layer_poset([layer([move(c)], [0], n) for c in chars])
        lats = [e.gamma for e in poset.elements]
        got = search_outcome(search_good_fan, f, lats, budget)
        assert got == search_outcome(search_good_fan_reference, f, lats, budget)
        if got[0] == "exhausted":
            exhausted += 1
            # the plane x+y+z=0 is the lattice the search cannot repair
            found = EXHAUSTED.match(got[1])
            assert found and found.group(1) == str(budget)
            assert lats[int(found.group(2))].basis == span_rows([move(chars[0])], n).basis
    assert exhausted == (2 ** n * math.factorial(n) if family == "divergent" else 0)


def test_divergent_search_exhausts_the_default_budget_like_the_loop():
    (rays, cones), chars, _ = SEARCH_FAMILIES["divergent"]
    outcomes = []
    for move in itertools.islice(signed_labelings(3), 0, 48, 47):  # first, last
        f = fan(3, [move(r) for r in rays], cones)
        lats = [e.gamma for e in build_layer_poset([layer([move(c)], [0], 3) for c in chars]).elements]
        got = search_outcome(search_good_fan, f, lats, 64)
        assert got == search_outcome(search_good_fan_reference, f, lats, 64)
        outcomes.append(got)
    # the rays of the last fan grow like the Fibonacci numbers
    assert outcomes[0] == (
        "exhausted",
        "no good fan within 64 subdivisions: lattice 1 (basis [[1, 1, 1]]) is mixed on"
        " cone [5, 68, 69] (rays [[0, 0, -1], [6557470319842, 10610209857723, -17167680177564],"
        " [10610209857723, 17167680177565, -27777890035287]]) by character [1, 1, 1]",
    )
    assert EXHAUSTED.match(outcomes[1][1]).group(1, 2, 3, 4, 6) == (
        "64", "1", "[[1, 1, 1]]", "[5, 68, 69]", "[1, 1, 1]")


@st.composite
def search_inputs(draw):
    """A rank-2 or rank-3 fan of FANS and the lattices of the layer poset of
    one to three primitive characters with entries in [-2, 2]."""
    f = draw(st.sampled_from([g for g in FANS if g.rank > 1]))
    entries = st.lists(st.integers(-2, 2), min_size=f.rank, max_size=f.rank)
    chars = draw(st.lists(entries.filter(any).map(primitive), min_size=1, max_size=3, unique=True))
    return f, chars


@settings(max_examples=120, deadline=None)
@given(inputs=search_inputs(), budget=st.integers(0, 16))
@example(inputs=(P1xP1, [(1, 1), (1, -1)]), budget=16)  # converges in 4 steps
@example(inputs=(CUBE, [(1, 1, 1), (1, 0, 0)]), budget=16)  # exhausts
@example(inputs=(P2, [(1, -1)]), budget=0)  # exhausts at once
def test_search_good_fan_equals_the_loop_on_random_arrangements(inputs, budget):
    f, chars = inputs
    lats = [e.gamma for e in build_layer_poset([layer([c], [0], f.rank) for c in chars]).elements]
    got = search_outcome(search_good_fan, f, lats, budget)
    assert got == search_outcome(search_good_fan_reference, f, lats, budget)
    if got[0] == "exhausted":
        assert EXHAUSTED.match(got[1]).group(1) == str(budget)
    else:
        assert validate_good(got[0], lats).ok and got[1] <= budget


def test_search_good_fan_passes_only_the_input_fan_to_the_caches(monkeypatch):
    seen = []

    def spy(fn):
        def wrapped(f, lat):
            seen.append(f)
            return fn(f, lat)
        return wrapped

    for name in ("find_equal_sign_basis", "cone_face_compat"):
        monkeypatch.setattr(fans_module, name, spy(getattr(fans_module, name)))
    for (rays, cones), chars, budget in SEARCH_FAMILIES.values():
        n = len(rays[0])
        f = fan(n, rays, cones)
        lats = [e.gamma for e in build_layer_poset([layer([c], [0], n) for c in chars]).elements]
        seen.clear()
        search_outcome(search_good_fan, f, lats, budget)
        assert seen and all(g is f for g in seen)


@st.composite
def compat_pairs(draw):
    """A fan of FANS after up to two stellar subdivisions and a sublattice of
    its characters.  Half of the lattices kill a point of the interior of a
    max cone, so most of those are incompatible with it; returns the cone."""
    f = draw(subdivided_fans())
    if draw(st.booleans()):
        return f, sublattice(independent_rows(draw, f.rank), f.rank), None
    cone = draw(st.sampled_from(f.max_cones))
    lams = draw(st.lists(st.integers(1, 3), min_size=len(cone), max_size=len(cone)))
    x = [sum(l * f.rays[i][j] for l, i in zip(lams, cone)) for j in range(f.rank)]
    rows = []
    for y in independent_rows(draw, f.rank, min_rows=1, entry=2)[: f.rank - 1]:
        # the part of y orthogonal to x, scaled to an integer character
        chi = [sum(a * b for a, b in zip(x, x)) * b - sum(a * b for a, b in zip(y, x)) * a
               for a, b in zip(x, y)]
        if any(chi):
            rows.append(primitive(chi))
    span = span_rows(rows, f.rank)
    return f, sublattice([list(r) for r in span.basis], f.rank), cone


@settings(max_examples=300, deadline=None)
@given(pair=compat_pairs())
def test_cone_face_compat_equals_the_per_ray_reference(pair):
    f, L, cone = pair
    got = cone_face_compat.__wrapped__(f, L)
    assert got == cone_face_compat_reference(f, L)
    if cone is not None and any(pairing(chi, f.rays[i]) for chi in L.basis for i in cone):
        # a kernel point inside the cone, outside its kernel face
        assert any(fl[1] == cone for fl in got.failures)
