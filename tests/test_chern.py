import pytest

from wondertoric.chern import (
    divisor_class,
    equal_sign_adapted_basis,
    lift_chern_absolute,
    lift_chern_pair,
    lift_chern_relative,
)
from wondertoric.cohomology import danilov_ring, pconst, pvar
from wondertoric.errors import NoBasis
from wondertoric.fans import fan, stellar_subdivide
from wondertoric.lattice import sublattice
from wondertoric.layers import layer, torus

P1 = fan(1, ((1,), (-1,)), ((0,), (1,)))
P1XP1 = fan(
    2,
    ((1, 0), (-1, 0), (0, 1), (0, -1)),
    ((0, 2), (0, 3), (1, 2), (1, 3)),
)
P2 = fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
# blow up one torus-fixed point of P2
BLP2 = stellar_subdivide(P2, (0, 1), (1, 1))


def ring_p1():
    return danilov_ring(P1)


def ring_p1xp1():
    return danilov_ring(P1XP1)


def test_divisor_class_p1():
    ring = ring_p1()
    cls = divisor_class((1,), ring, P1)
    assert cls.poly() == pvar(1, 2)
    # inverse character gives the other fixed point, same class here
    assert divisor_class((-1,), ring, P1).poly() == pvar(1, 2)


def test_divisor_class_p1xp1():
    ring = ring_p1xp1()
    assert divisor_class((1, 0), ring, P1XP1).poly() == pvar(1, 4)
    assert divisor_class((0, 1), ring, P1XP1).poly() == pvar(3, 4)
    assert divisor_class((0, 0), ring, P1XP1).is_zero()


def test_absolute_point_on_p1():
    ring = ring_p1()
    pt = layer([[1]], [0], 1)
    p = lift_chern_absolute(pt, ring, P1)
    assert p.degree == 1
    assert p.coefficients[0].poly() == pvar(1, 2)
    assert p.coefficients[1].poly() == pconst(1, 2)


def test_absolute_curve_on_p1xp1():
    ring = ring_p1xp1()
    curve = layer([[1, 0]], [0], 2)
    p = lift_chern_absolute(curve, ring, P1XP1)
    assert p.degree == 1
    assert p.coefficients[0].poly() == pvar(1, 4)


def test_absolute_point_on_p1xp1():
    ring = ring_p1xp1()
    pt = layer([[1, 0], [0, 1]], [0, 0], 2)
    p = lift_chern_absolute(pt, ring, P1XP1)
    assert p.degree == 2
    # (t + c1)(t + c3)
    assert p.coefficients[2].poly() == pconst(1, 4)
    c1, c3 = pvar(1, 4), pvar(3, 4)
    assert p.coefficients[1].poly() == {k: 1 for k in (*c1, *c3)}
    assert p.coefficients[0].poly() == {(0, 1, 0, 1): 1}


def test_relative_point_in_curve():
    ring = ring_p1xp1()
    pt = layer([[1, 0], [0, 1]], [0, 0], 2)
    curve = layer([[1, 0]], [0], 2)
    p = lift_chern_relative(pt, curve, ring, P1XP1)
    assert p.degree == 1
    assert p.coefficients[0].poly() == pvar(3, 4)


def test_relative_same_layer_is_one():
    ring = ring_p1xp1()
    curve = layer([[1, 0]], [0], 2)
    p = lift_chern_relative(curve, curve, ring, P1XP1)
    assert p.degree == 0
    assert p.coefficients[0].poly() == pconst(1, 4)


def test_relative_to_torus_is_absolute():
    ring = ring_p1xp1()
    pt = layer([[1, 0], [0, 1]], [0, 0], 2)
    rel = lift_chern_relative(pt, torus(2), ring, P1XP1)
    ab = lift_chern_absolute(pt, ring, P1XP1)
    assert [c.terms for c in rel.coefficients] == [c.terms for c in ab.coefficients]


def test_no_basis_on_p2_diagonal():
    ring = danilov_ring(P2)
    diag = layer([[1, -1]], [0], 2)
    with pytest.raises(NoBasis):
        lift_chern_absolute(diag, ring, P2)


def test_no_basis_from_completion_search():
    # on the one-point blowup of P2 only multiples of (1,-1) are equal-sign,
    # so the anti-diagonal curve lifts but no completion to the point does
    ring = danilov_ring(BLP2)
    anti = layer([[1, -1]], [0], 2)
    pt = layer([[1, 0], [0, 1]], [0, 0], 2)
    p = lift_chern_absolute(anti, ring, BLP2)
    assert p.degree == 1
    with pytest.raises(NoBasis):
        lift_chern_relative(pt, anti, ring, BLP2)
    with pytest.raises(NoBasis):
        lift_chern_absolute(pt, ring, BLP2)


def test_constant_term_is_nonzero_dual_class():
    ring = ring_p1xp1()
    for rows, codim in [([[1, 0]], 1), ([[0, 1]], 1), ([[1, 0], [0, 1]], 2)]:
        lay = layer(rows, [0] * len(rows), 2)
        p = lift_chern_absolute(lay, ring, P1XP1)
        assert p.degree == codim
        const = p.coefficients[0]
        assert not const.is_zero()
        from wondertoric.cohomology import pdegree

        assert pdegree(const.poly()) == codim


def test_factorization_coherence():
    ring = ring_p1xp1()
    pt = layer([[1, 0], [0, 1]], [0, 0], 2)
    curve = layer([[1, 0]], [0], 2)
    p_g, p_m, p_rel = lift_chern_pair(pt, curve, ring, P1XP1)
    assert p_g.degree == 2 and p_m.degree == 1 and p_rel.degree == 1
    assert p_m.coefficients[0].poly() == pvar(1, 4)
    assert p_rel.coefficients[0].poly() == pvar(3, 4)


def test_adapted_basis_prefers_uncorrected_completion():
    g = sublattice([[1, 0], [0, 1]], 2)
    m = sublattice([[1, 0]], 2)
    basis, k = equal_sign_adapted_basis(P1XP1, g, m)
    assert k == 1
    assert basis == ((1, 0), (0, 1))
