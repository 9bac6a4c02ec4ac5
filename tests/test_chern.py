import pytest

from _oracles import lift_chern_pair
from wondertoric.chern import (
    divisor_class_raw,
    equal_sign_adapted_basis,
    lift_chern_relative,
    product_of_linear_factors,
)
from wondertoric.cohomology import danilov_ring, pconst, pdegree, pvar
from wondertoric.errors import NoBasis
from wondertoric.fans import fan, find_equal_sign_basis, stellar_subdivide
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
    cls = ring.normal_form(divisor_class_raw((1,), P1, ring.nvars))
    assert cls.poly() == pvar(1, 2)
    # inverse character gives the other fixed point, same class here
    assert ring.normal_form(divisor_class_raw((-1,), P1, ring.nvars)).poly() == pvar(1, 2)


def test_divisor_class_p1xp1():
    ring = ring_p1xp1()
    assert ring.normal_form(divisor_class_raw((1, 0), P1XP1, ring.nvars)).poly() == pvar(1, 4)
    assert ring.normal_form(divisor_class_raw((0, 1), P1XP1, ring.nvars)).poly() == pvar(3, 4)
    assert ring.normal_form(divisor_class_raw((0, 0), P1XP1, ring.nvars)).terms == ()


def test_absolute_point_on_p1():
    ring = ring_p1()
    pt = layer([[1]], [0], 1)
    p = lift_chern_relative(pt, torus(1), ring, P1)
    assert len(p.coefficients) == 2
    assert p.coefficients[0].poly() == pvar(1, 2)
    assert p.coefficients[1].poly() == pconst(1, 2)


def test_absolute_curve_on_p1xp1():
    ring = ring_p1xp1()
    curve = layer([[1, 0]], [0], 2)
    p = lift_chern_relative(curve, torus(2), ring, P1XP1)
    assert len(p.coefficients) == 2
    assert p.coefficients[0].poly() == pvar(1, 4)


def test_absolute_point_on_p1xp1():
    ring = ring_p1xp1()
    pt = layer([[1, 0], [0, 1]], [0, 0], 2)
    p = lift_chern_relative(pt, torus(2), ring, P1XP1)
    assert len(p.coefficients) == 3
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
    assert len(p.coefficients) == 2
    assert p.coefficients[0].poly() == pvar(3, 4)


def test_relative_same_layer_is_one():
    ring = ring_p1xp1()
    curve = layer([[1, 0]], [0], 2)
    p = lift_chern_relative(curve, curve, ring, P1XP1)
    assert len(p.coefficients) == 1
    assert p.coefficients[0].poly() == pconst(1, 4)


def test_relative_to_torus_is_absolute():
    # over the torus the lift is prod (t + class(b)) over an equal-sign
    # basis of the whole layer lattice
    ring = ring_p1xp1()
    pt = layer([[1, 0], [0, 1]], [0, 0], 2)
    rel = lift_chern_relative(pt, torus(2), ring, P1XP1)
    basis = find_equal_sign_basis(P1XP1, pt.gamma)
    factors = [divisor_class_raw(b, P1XP1, ring.nvars) for b in basis]
    ab = product_of_linear_factors(factors, ring)
    assert [c.terms for c in rel.coefficients] == [ring.normal_form(c).terms for c in ab]


def test_no_basis_on_p2_diagonal():
    ring = danilov_ring(P2)
    diag = layer([[1, -1]], [0], 2)
    with pytest.raises(NoBasis):
        lift_chern_relative(diag, torus(2), ring, P2)


def test_no_basis_from_completion_search():
    # on the one-point blowup of P2 only multiples of (1,-1) are equal-sign,
    # so the anti-diagonal curve lifts but no completion to the point does
    ring = danilov_ring(BLP2)
    anti = layer([[1, -1]], [0], 2)
    pt = layer([[1, 0], [0, 1]], [0, 0], 2)
    p = lift_chern_relative(anti, torus(2), ring, BLP2)
    assert len(p.coefficients) == 2
    with pytest.raises(NoBasis):
        lift_chern_relative(pt, anti, ring, BLP2)
    with pytest.raises(NoBasis):
        lift_chern_relative(pt, torus(2), ring, BLP2)


def test_constant_term_is_nonzero_dual_class():
    ring = ring_p1xp1()
    for rows, codim in [([[1, 0]], 1), ([[0, 1]], 1), ([[1, 0], [0, 1]], 2)]:
        lay = layer(rows, [0] * len(rows), 2)
        p = lift_chern_relative(lay, torus(2), ring, P1XP1)
        assert len(p.coefficients) == codim + 1
        const = p.coefficients[0]
        assert const.terms
        assert pdegree(const.poly()) == codim


def test_factorization_coherence():
    ring = ring_p1xp1()
    pt = layer([[1, 0], [0, 1]], [0, 0], 2)
    curve = layer([[1, 0]], [0], 2)
    p_g, p_m, p_rel = lift_chern_pair(pt, curve, ring, P1XP1)
    assert [len(p.coefficients) for p in (p_g, p_m, p_rel)] == [3, 2, 2]
    assert p_m.coefficients[0].poly() == pvar(1, 4)
    assert p_rel.coefficients[0].poly() == pvar(3, 4)


def test_adapted_basis_prefers_uncorrected_completion():
    g = sublattice([[1, 0], [0, 1]], 2)
    m = sublattice([[1, 0]], 2)
    basis, k = equal_sign_adapted_basis(P1XP1, g, m)
    assert k == 1
    assert basis == ((1, 0), (0, 1))
