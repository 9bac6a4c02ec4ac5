import glob
import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import restriction_kernel_report, restriction_map, toric_elimination_reference
from wondertoric.cohomology import (
    canon_terms,
    danilov_ring,
    from_terms,
    minimal_nonfaces,
    pmul,
    pvar,
    toric_elimination,
)
from wondertoric.errors import InvariantViolated
from wondertoric.fans import fan, primitive, stellar_subdivide
from wondertoric.jobs import load_job
from wondertoric.lattice import sublattice
from wondertoric.oracle import h_vector

P1 = fan(1, [(1,), (-1,)], [(0,), (1,)])
P1xP1 = fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)])
P2 = fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
BLP2 = stellar_subdivide(P2, (0, 1), (1, 1))
FIVE = stellar_subdivide(P1xP1, (0, 2), (1, 1))


def ranks(ring, n):
    return tuple(ring.graded_rank(d) for d in range(n + 1))


def test_minimal_nonfaces():
    assert minimal_nonfaces(P1) == ((0, 1),)
    assert set(minimal_nonfaces(P1xP1)) == {(0, 1), (2, 3)}
    assert minimal_nonfaces(P2) == ((0, 1, 2),)


def test_danilov_relations_p1xp1():
    ring = danilov_ring(P1xP1)
    rels = set(ring.relations)
    c = lambda i: pvar(i, 4)
    expected = [
        pmul(c(0), c(1)),
        pmul(c(2), c(3)),
        {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1},
        {(0, 0, 1, 0): 1, (0, 0, 0, 1): -1},
    ]
    assert rels == {canon_terms(p) for p in expected}


def test_graded_ranks_match_h_vectors():
    for f in (P1, P2, P1xP1, BLP2, FIVE):
        ring = danilov_ring(f)
        assert ranks(ring, f.rank) == h_vector(f.rank, f.faces)
        assert ring.graded_rank(f.rank + 1) == 0


def test_h_vector_examples():
    assert h_vector(P1xP1.rank, P1xP1.faces) == (1, 2, 1)
    assert h_vector(P2.rank, P2.faces) == (1, 1, 1)
    assert h_vector(P1.rank, P1.faces) == (1, 1)
    assert h_vector(BLP2.rank, BLP2.faces) == (1, 2, 1)
    assert h_vector(FIVE.rank, FIVE.faces) == (1, 3, 1)


def test_ranks_palindromic_top_rank_one():
    for f in (P1, P2, P1xP1, BLP2, FIVE):
        ring = danilov_ring(f)
        rk = ranks(ring, f.rank)
        assert rk == rk[::-1]
        assert rk[-1] == 1


def test_no_torsion_in_slices():
    for f in (P1, P2, P1xP1, BLP2, FIVE):
        ring = danilov_ring(f)
        for d in range(f.rank + 2):
            assert ring.graded_torsion(d) == ()


def test_normal_form_examples_p1():
    ring = danilov_ring(P1)
    c0, c1 = pvar(0, 2), pvar(1, 2)
    assert ring.normal_form(c0).terms == ring.normal_form(c1).terms
    assert ring.normal_form(c0).terms
    assert ring.normal_form(pmul(c0, c0)).terms == ()
    assert ring.normal_form({}).terms == ()


def test_normal_form_is_multiplicative():
    ring = danilov_ring(P1xP1)
    elems = [pvar(i, 4) for i in range(4)]
    elems.append({(1, 0, 0, 0): 2, (0, 0, 1, 0): -3})
    for x, y in itertools.product(elems, repeat=2):
        direct = ring.normal_form(pmul(x, y))
        staged = ring.normal_form(
            pmul(ring.normal_form(x).poly(), ring.normal_form(y).poly())
        )
        assert direct.terms == staged.terms


def test_top_class_same_generator_up_to_sign():
    for f in (P2, P1xP1, BLP2, FIVE):
        ring = danilov_ring(f)
        tops = []
        for c in f.max_cones:
            p = {(0,) * len(f.rays): 1}
            for i in c:
                p = pmul(p, pvar(i, len(f.rays)))
            nf = ring.normal_form(p)
            assert nf.terms
            tops.append(nf.terms)
        base = from_terms(tops[0])
        for t in tops[1:]:
            q = from_terms(t)
            assert q == base or q == {e: -c for e, c in base.items()}


def test_restriction_to_coordinate_curve():
    ring = danilov_ring(P1xP1)
    L = sublattice([[1, 0]], 2)
    target, rmap = restriction_map(ring, L, P1xP1)
    assert ranks(target, 1) == (1, 1)
    # c0, c1 die; c2, c3 survive
    assert rmap.images[0] is None and rmap.images[1] is None
    assert rmap.images[2] is not None and rmap.images[3] is not None
    gens = [pvar(0, 4), pvar(1, 4)]
    assert restriction_kernel_report(rmap, gens, 2).ok
    # c0 alone still generates: the linear relations identify c0 and c1
    assert restriction_kernel_report(rmap, [pvar(0, 4)], 2).ok
    # but an empty or unrelated list must be rejected
    assert not restriction_kernel_report(rmap, [], 2).ok
    assert not restriction_kernel_report(rmap, [pvar(2, 4)], 2).ok


def test_restriction_identity_and_point():
    ring = danilov_ring(P1xP1)
    zero = sublattice([], 2, allow_dependent=True)
    target, rmap = restriction_map(ring, zero, P1xP1)
    assert target.names == ring.names
    assert all(img is not None for img in rmap.images)
    assert restriction_kernel_report(rmap, [], 2).ok

    full = sublattice([[1, 0], [0, 1]], 2)
    point, rmap = restriction_map(ring, full, P1xP1)
    assert point.graded_rank(0) == 1 and point.graded_rank(1) == 0
    gens = [pvar(i, 4) for i in range(4)]
    assert restriction_kernel_report(rmap, gens, 2).ok


# --- the toric elimination against its Fraction form --------------------------

CUBE = fan(
    3,
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)],
)
GOLDEN_JOBS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "golden", "*.job.json")))
BASE_FANS = [load_job(path).fan for path in GOLDEN_JOBS] + [P1, P1xP1, P2, CUBE]
BASE_NAMES = [os.path.basename(path)[: -len(".job.json")] for path in GOLDEN_JOBS] + ["P1", "P1xP1", "P2", "CUBE"]


def assert_same_elimination(f):
    try:
        want = toric_elimination_reference(f)
    except InvariantViolated:  # a singular first cone
        with pytest.raises(InvariantViolated):
            toric_elimination(f)
        return
    got = toric_elimination(f)
    assert got == want
    # the same insertion orders, so substitution builds the same dicts
    assert [(v, list(p)) for v, p in got[1].items()] == [(v, list(p)) for v, p in want[1].items()]


@pytest.mark.parametrize("f", BASE_FANS, ids=BASE_NAMES)
def test_toric_elimination_equals_the_fraction_reference(f):
    assert_same_elimination(f)


@st.composite
def subdivided_fans(draw):
    """A fan of BASE_FANS after one or two stellar subdivisions, each at a
    positive combination (coefficients 1 or 2) of the rays of a nonzero face;
    a coefficient 2 can make a cone singular."""
    f = draw(st.sampled_from(BASE_FANS))
    for _ in range(draw(st.integers(1, 2))):
        faces = sorted({s for c in f.max_cones for k in range(1, len(c) + 1) for s in itertools.combinations(c, k)})
        face = draw(st.sampled_from(faces))
        lams = draw(st.lists(st.integers(1, 2), min_size=len(face), max_size=len(face)))
        ray = primitive([sum(l * f.rays[i][j] for l, i in zip(lams, face)) for j in range(f.rank)])
        if ray not in f.rays:
            f = stellar_subdivide(f, face, ray)
    return f


@settings(max_examples=200, deadline=None)
@given(f=subdivided_fans())
def test_toric_elimination_after_subdivisions_equals_the_fraction_reference(f):
    assert_same_elimination(f)
