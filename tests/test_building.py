import itertools

import pytest

from _oracles import nested_plus_reference
from wondertoric.building import (
    building_set,
    is_nested,
    is_nested_plus,
    order_refining_inclusion,
    validate_building,
    validate_well_connected,
)
from wondertoric.errors import NotBuilding
from wondertoric.fans import fan
from wondertoric.layers import build_layer_poset, intersect_layers, layer
from wondertoric.oracle import _induced_members

X1 = layer([(1, 0)], [0], 2)
Y1 = layer([(0, 1)], [0], 2)
XY = layer([(1, 1)], [0], 2)
XYI = layer([(1, -1)], [0], 2)

COORD = build_layer_poset([X1, Y1])
SKEW = build_layer_poset([XY, XYI])

P1xP1 = fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)])


def ids_of(poset, *layers):
    return [poset.elements.index(l) for l in layers]


def curve_ids(poset):
    return [i for i, e in enumerate(poset.elements) if e.codim == 1]


def point_ids(poset):
    return [i for i, e in enumerate(poset.elements) if e.codim == 2]


def test_validate_building_whole_poset():
    for poset in (COORD, SKEW):
        assert validate_building(range(len(poset.elements)), poset).ok


def test_validate_building_curves_only():
    assert validate_building(curve_ids(COORD), COORD).ok
    # skew curves: both points are transversal components of the intersection
    assert validate_building(curve_ids(SKEW), SKEW).ok


def test_validate_building_failures():
    pt = point_ids(COORD)
    rep = validate_building(pt, COORD)
    assert not rep.ok
    assert all(f[0] == "no_containing_member" for f in rep.failures)
    one_curve = [curve_ids(COORD)[0], pt[0]]
    assert not validate_building(one_curve, COORD).ok


def test_validate_well_connected():
    assert not validate_well_connected(curve_ids(SKEW), SKEW).ok
    assert validate_well_connected(range(4), SKEW).ok
    assert validate_well_connected(curve_ids(COORD), COORD).ok
    assert validate_well_connected([0], SKEW).ok


def test_order_refining_inclusion():
    order = order_refining_inclusion(range(3), COORD)
    pt = point_ids(COORD)[0]
    assert order[0] == pt
    assert list(order[1:]) == curve_ids(COORD)
    # antichain keeps id order
    assert order_refining_inclusion(curve_ids(SKEW), SKEW) == tuple(curve_ids(SKEW))


def test_building_set_factory():
    g = building_set(COORD)
    assert g.members[0] == point_ids(COORD)[0]
    with pytest.raises(NotBuilding):
        building_set(COORD, point_ids(COORD))
    with pytest.raises(NotBuilding):
        building_set(SKEW, curve_ids(SKEW))


def test_prefixes_are_building():
    # every prefix, validated against the poset its own members generate
    for poset in (COORD, SKEW):
        g = building_set(poset)
        for k in range(1, g.size + 1):
            prefix_layers = [poset.elements[i] for i in g.members[:k]]
            sub = build_layer_poset(prefix_layers)
            prefix_ids = [sub.elements.index(l) for l in prefix_layers]
            assert validate_building(prefix_ids, sub).ok
            assert validate_well_connected(prefix_ids, sub).ok


def test_induced_building_coordinate_case():
    g = building_set(COORD)
    z = g.members[-1]
    got = _induced_members(COORD, g.members[:-1], z)
    assert got == (point_ids(COORD)[0],)


def test_induced_building_empty_and_chain():
    apart = build_layer_poset([X1, layer([(1, 0)], ["1/2"], 2)])
    g = building_set(apart)
    assert _induced_members(apart, g.members[:-1], g.members[-1]) == ()

    pt = layer([(1, 0), (0, 1)], [0, 0], 2)
    chain = build_layer_poset([pt, X1])
    g = building_set(chain)
    z = g.members[-1]
    got = _induced_members(chain, g.members[:-1], z)
    assert got == (chain.elements.index(pt),)


def test_induced_family_is_building_for_its_arrangement():
    g = building_set(COORD)
    z = g.members[-1]
    hs = [COORD.elements[i] for i in _induced_members(COORD, g.members[:-1], z)]
    sub = build_layer_poset(hs)
    ids = [sub.elements.index(h) for h in hs]
    assert validate_building(ids, sub).ok
    assert validate_well_connected(ids, sub).ok


def test_is_nested_examples():
    g = building_set(COORD)
    pt = point_ids(COORD)[0]
    c1, c2 = curve_ids(COORD)
    assert is_nested([pt, c1], g)
    assert not is_nested([c1, c2], g)  # the point's factor set is {pt}
    assert is_nested([], g) and is_nested([pt], g)

    apart = build_layer_poset([X1, layer([(1, 0)], ["1/2"], 2)])
    ga = building_set(apart)
    assert not is_nested([0, 1], ga)  # empty intersection


def test_nested_family_for_maximal_building():
    g = building_set(COORD)
    nested = [
        t
        for k in range(4)
        for t in itertools.combinations(range(3), k)
        if is_nested(t, g)
    ]
    pt = point_ids(COORD)[0]
    c1, c2 = curve_ids(COORD)
    expect = [(), (c1,), (c2,), (pt,), (pt, c1), (pt, c2)]
    assert sorted(nested) == sorted(tuple(sorted(t)) for t in expect)


def test_nested_monotone_under_subsets():
    g = building_set(SKEW)
    members = list(g.members)
    for k in range(len(members) + 1):
        for t in itertools.combinations(members, k):
            if is_nested(t, g):
                for sub in itertools.combinations(t, max(k - 1, 0)):
                    assert is_nested(sub, g)


def test_is_nested_plus_examples():
    # arrangement {x=1} over the quadrant fan; divisors indexed by rays
    poset = build_layer_poset([X1])
    g = building_set(poset)
    x1 = poset.elements.index(X1)
    e1, me1, e2 = 0, 1, 2
    assert is_nested_plus([x1], [e2], g, P1xP1)
    assert not is_nested_plus([x1], [e1], g, P1xP1)
    assert not is_nested_plus([], [e1, me1], g, P1xP1)
    assert is_nested_plus([], [e1], g, P1xP1)
    assert is_nested_plus([x1], [], g, P1xP1)


def test_is_nested_plus_matches_reference():
    poset = build_layer_poset([X1, Y1])
    g = building_set(poset)
    members = list(g.members)
    ray_ids = range(len(P1xP1.rays))
    for lk in range(len(members) + 1):
        for lt in itertools.combinations(members, lk):
            for rk in range(3):
                for rt in itertools.combinations(ray_ids, rk):
                    got = is_nested_plus(lt, rt, g, P1xP1)
                    want = nested_plus_reference(lt, rt, g, P1xP1)
                    assert got == want, (lt, rt)
