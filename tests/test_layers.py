import itertools
import math
import pathlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    closure_nonempty_with_orbit,
    layer_inclusion,
    layer_phi_reference,
    poset_closure_reference,
    value_on,
    value_on_reference,
)
from wondertoric.errors import NotSplit
from wondertoric.fans import fan
from wondertoric.jobs import job_poset, load_job
import wondertoric.layers as layers_module
from wondertoric.layers import (
    _entry,
    _meet,
    build_layer_poset,
    intersect_layers,
    layer,
    layer_from_dict,
    layer_to_dict,
    torus,
)
from wondertoric.lattice import elementary_divisors, saturate, solve_in_lattice, span_rows

H = Fraction(1, 2)

X1 = layer([(1, 0)], [0], 2)  # {x=1}
Y1 = layer([(0, 1)], [0], 2)  # {y=1}
XY = layer([(1, 1)], [0], 2)  # {xy=1}
XYI = layer([(1, -1)], [0], 2)  # {x y^-1 = 1}
XM1 = layer([(1, 0)], [H], 2)  # {x=-1}


def test_layer_canonicalization():
    # same lattice, different presented basis and matching values
    a = layer([(1, 1), (0, 2)], [Fraction(1, 3), Fraction(1, 2)], 2)
    b = layer([(1, 1), (1, -1)], [Fraction(1, 3), Fraction(1, 3) - Fraction(1, 2)], 2)
    assert a == b
    assert value_on(a, (2, 0)) == Fraction(1, 6)  # 2*(1/3) - 1/2


def test_intersection_coordinate_point():
    comps = intersect_layers([X1, Y1])
    assert len(comps) == 1
    pt = comps[0]
    assert pt.gamma.basis == ((1, 0), (0, 1))
    assert pt.phi == (0, 0)


def test_intersection_two_components():
    comps = intersect_layers([XY, XYI])
    assert len(comps) == 2
    phis = sorted(c.phi for c in comps)
    assert phis == [(0, 0), (H, H)]
    # component count equals the saturation index of the summed lattice
    assert math.prod(elementary_divisors(span_rows([(1, 1), (1, -1)], 2).basis)) == 2


def test_intersection_empty():
    assert intersect_layers([X1, XM1]) == []


def test_intersection_count_matches_index_brute_force():
    cases = [
        [layer([(2, 1)], [0], 2), layer([(0, 1)], [0], 2)],
        [layer([(1, 1)], [H], 2), layer([(1, -1)], [0], 2)],
        [layer([(3, 0)], [Fraction(1, 3)], 2), layer([(0, 1)], [0], 2)],
    ]
    for pair in cases:
        comps = intersect_layers(pair)
        gens = [list(r) for l in pair for r in l.gamma.basis]
        idx = math.prod(elementary_divisors(span_rows(gens, 2).basis))
        if comps:
            assert len(comps) == idx
        # all components share the saturated lattice
        assert len({c.gamma for c in comps}) <= 1


def test_layer_inclusion_examples():
    pt = intersect_layers([X1, Y1])[0]
    assert layer_inclusion(pt, X1)
    assert not layer_inclusion(X1, XM1)
    minus = layer([(1, 0), (0, 1)], [H, H], 2)  # the point (-1,-1)
    assert layer_inclusion(minus, XY)
    assert not layer_inclusion(minus, XYI) or value_on(minus, (1, -1)) == 0
    assert layer_inclusion(minus, XYI)  # (1/2) - (1/2) = 0 in Q/Z


def test_poset_coordinate_arrangement():
    poset = build_layer_poset([X1, Y1])
    assert len(poset.elements) == 3
    assert [e.codim for e in poset.elements] == [1, 1, 2]


def test_poset_single_layer():
    poset = build_layer_poset([X1])
    assert len(poset.elements) == 1


def test_poset_skew_arrangement():
    poset = build_layer_poset([XY, XYI])
    assert len(poset.elements) == 4
    assert [e.codim for e in poset.elements] == [1, 1, 2, 2]
    # closure property: intersecting any two elements stays inside the poset
    for a in poset.elements:
        for b in poset.elements:
            for comp in intersect_layers([a, b]):
                assert comp in poset.elements


def test_poset_rejects_unsaturated():
    bad = layer([(2, 0)], [0], 2)
    with pytest.raises(NotSplit):
        build_layer_poset([bad])


def test_poset_rejects_a_layer_with_no_characters():
    # the whole torus is no layer of an arrangement: it would give the poset
    # a codimension-0 element, and its model a top degree of rank 0
    with pytest.raises(ValueError, match="layer 1 has no characters"):
        build_layer_poset([X1, layer([], [], 2)])
    with pytest.raises(ValueError, match="layer 0 has no characters"):
        build_layer_poset([torus(2)])


def test_poset_inclusion_monotone_in_codim():
    poset = build_layer_poset([XY, XYI])
    for i, a in enumerate(poset.elements):
        for j, b in enumerate(poset.elements):
            if poset.inclusion[i][j] and a != b:
                assert a.codim > b.codim


def test_closure_orbit_meeting():
    P1xP1 = fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert closure_nonempty_with_orbit(X1, (2,), P1xP1)
    assert not closure_nonempty_with_orbit(X1, (0,), P1xP1)
    assert closure_nonempty_with_orbit(X1, (), P1xP1)


def test_layer_json_roundtrip():
    doc = layer_to_dict(XM1)
    assert doc == {"gamma": [[1, 0]], "phi": ["1/2"]}
    assert layer_from_dict(doc, 2) == XM1
    t = torus(2)
    assert layer_from_dict(layer_to_dict(t), 2) == t


# --- the int Q/Z sums against their Fraction form ---------------------------


@st.composite
def layer_inputs(draw):
    """Independent rows with entries in [-3, 3] and one value each, with
    denominators mixed from 6, 97 and up to 10**6."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=0, max_size=n))
    if span_rows(rows, n).rank != len(rows):
        rows = [list(r) for r in span_rows(rows, n).basis]
    den = st.sampled_from([1, 2, 6, 97, 582, 999983, 10**6])
    phi = [
        Fraction(draw(st.integers(-(10**6), 10**6)), draw(den)) for _ in rows
    ]
    return rows, phi, n


@settings(max_examples=200, deadline=None)
@given(inputs=layer_inputs(), data=st.data())
def test_layer_phi_and_value_on_equal_the_fraction_form(inputs, data):
    rows, phi, n = inputs
    lay = layer(rows, phi, n)
    assert lay.phi == layer_phi_reference(rows, phi, n)
    assert layer(rows, [str(v) for v in phi], n) == lay
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    chi = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
    assert value_on(lay, chi) == value_on_reference(lay, chi)
    assert all(type(v) is Fraction for v in lay.phi + (value_on(lay, chi),))
    other = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    if solve_in_lattice(lay.gamma.basis, other) is not None:
        assert value_on(lay, other) == value_on_reference(lay, other)
    else:
        with pytest.raises(ValueError):
            value_on(lay, other)
        with pytest.raises(ValueError):
            value_on_reference(lay, other)


# --- the poset's table against the lattice arithmetic -----------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"


def fixed_posets():
    """The poset of every golden job and of three coordinate planes of
    (P1)^3, as in the model_rank3 workload."""
    for path in sorted(GOLDEN.glob("*.job.json")):
        yield path.name[: -len(".job.json")], job_poset(load_job(path))
    planes = [((1, 0, 0), 5), ((0, 1, 0), 11), ((0, 0, 1), 60)]
    yield "cube", build_layer_poset([layer([c], [Fraction(k, 97)], 3) for c, k in planes])


POSETS = dict(fixed_posets())


def check_meet(poset, ids):
    comps = intersect_layers([poset.elements[i] for i in ids])
    assert poset.meet(ids) == sorted(poset.elements.index(c) for c in comps)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_meet_equals_intersect_layers_on_every_subset(name):
    poset = POSETS[name]
    ids = range(len(poset.elements))
    for k in range(1, len(ids) + 1):
        for sub in itertools.combinations(ids, k):
            check_meet(poset, sub)


def test_meet_needs_an_element():
    with pytest.raises(ValueError):
        POSETS["cube"].meet([])


CHARACTERS = {
    n: [c for c in itertools.product(range(-2, 3), repeat=n) if gcd(*c) == 1 and c > (0,) * n]
    for n in (2, 3)
}


def saturated_layer(rows, ks, n):
    """The layer on the saturation of span(rows), with values k/97 on its
    canonical basis."""
    basis = saturate(span_rows(rows, n)).basis
    return layer(basis, [Fraction(k, 97) for k in ks[: len(basis)]], n)


@st.composite
def arrangements(draw):
    """Hypersurfaces {chi = k/97} of the rank-2 or rank-3 torus, for one to
    three primitive characters chi of entries in [-2, 2], each at one to
    three translates k (parallel layers share a lattice), and at times a
    codim-2 layer on the saturation of two such characters."""
    n = draw(st.sampled_from(sorted(CHARACTERS)))
    chars = draw(st.lists(st.sampled_from(CHARACTERS[n]), min_size=1, max_size=3, unique=True))
    out = []
    for chi in chars:
        ks = draw(st.lists(st.integers(0, 96), min_size=1, max_size=3, unique=True))
        out += [layer([chi], [Fraction(k, 97)], n) for k in ks]
    if draw(st.booleans()):
        pair = draw(st.lists(st.sampled_from(CHARACTERS[n]), min_size=2, max_size=2, unique=True))
        out.append(saturated_layer(pair, draw(st.lists(st.integers(0, 96), min_size=2, max_size=2)), n))
    return out


@settings(max_examples=40, deadline=None)
@given(arrangement=arrangements(), data=st.data())
def test_meet_equals_intersect_layers_on_random_arrangements(arrangement, data):
    poset = build_layer_poset(arrangement)
    ids = range(len(poset.elements))
    for _ in range(4):
        check_meet(poset, data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=5, unique=True)))


@settings(max_examples=60, deadline=None)
@given(arrangement=arrangements())
def test_inclusion_table_equals_the_reference_on_random_arrangements(arrangement):
    # the table comes from the closure's pairwise intersections; the
    # reference asks layer_inclusion of every ordered pair
    got, want = build_layer_poset(arrangement), poset_closure_reference(arrangement)
    assert got.elements == want.elements
    assert got.inclusion == want.inclusion


def test_below_masks_read_the_inclusion_table():
    for poset in POSETS.values():
        for j in range(len(poset.elements)):
            want = [i for i in range(len(poset.elements)) if poset.inclusion[i][j]]
            assert [i for i in range(len(poset.elements)) if poset.below[j] >> i & 1] == want
            assert poset.components(poset.below[j]) == [j]


@st.composite
def nested_pairs(draw):
    """Two layers of the rank-1 to rank-3 torus whose lattices are nested
    (equal included), in either order: a saturated lattice and a saturated
    sublattice of it, values k/97 or, for the shallower layer half the
    time, the deeper layer's values restricted to its lattice, at times with
    its last value moved by 1/97."""
    n = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    big = saturate(span_rows(draw(st.lists(vec, min_size=1, max_size=n)), n))
    combos = st.lists(st.integers(-2, 2), min_size=big.rank, max_size=big.rank).filter(any)
    rows = [[sum(c * r[j] for c, r in zip(combo, big.basis)) for j in range(n)]
            for combo in draw(st.lists(combos, min_size=1, max_size=big.rank))]
    ks = st.lists(st.integers(0, 96), min_size=n, max_size=n)
    deep = saturated_layer(big.basis, draw(ks), n)
    other = saturated_layer(rows, draw(ks), n)
    if draw(st.booleans()):
        phi = [value_on_reference(deep, r) for r in other.gamma.basis]
        phi[-1] += draw(st.sampled_from([0, Fraction(1, 97)]))
        other = layer(other.gamma.basis, phi, n)
    return (deep, other) if draw(st.booleans()) else (other, deep)


@settings(max_examples=300, deadline=None)
@given(pair=nested_pairs())
def test_meet_of_nested_lattices_equals_intersect_layers(pair):
    a, b = pair
    lattices, coords = {}, {}
    ea, eb = _entry(a, lattices), _entry(b, lattices)
    assert _meet(ea, eb, coords) == intersect_layers([a, b])
    assert list(coords.values()) != [None]  # decided without the torsion solve
    assert _meet(eb, ea, coords) == intersect_layers([b, a])


CURVES_3_3 = [layer([(1, 0)], [Fraction(k, 97)], 2) for k in (3, 40, 77)] + [
    layer([(0, 1)], [Fraction(k, 97)], 2) for k in (5, 50, 90)]


@pytest.mark.parametrize("name, arrangement, calls", [
    # 105 pairs of 15 elements: 42 on equal lattices, 54 nested, 9 crossing
    ("3+3 curves", CURVES_3_3, 9),
    # 21 pairs of 7 elements: 12 nested, 9 crossing
    ("cube", [layer([c], [Fraction(k, 97)], 3) for c, k in
              [((1, 0, 0), 5), ((0, 1, 0), 11), ((0, 0, 1), 60)]], 9),
])
def test_only_crossing_lattices_run_the_torsion_solve(name, arrangement, calls, monkeypatch):
    seen = []
    solve = layers_module.intersect_layers
    monkeypatch.setattr(layers_module, "intersect_layers", lambda ls: seen.append(ls) or solve(ls))
    poset = build_layer_poset(arrangement)
    assert len(seen) == calls
    assert poset == poset_closure_reference(arrangement)


def skew_family():
    """oracle_repair's translated skew family: the curves chi = <chi, p>
    for the four skew characters through one torus point p, under every
    signed coordinate permutation.  Every point of the poset lies on Z^2."""
    skew = ((1, 1), (1, -1), (1, 2), (2, 1))
    for perm in itertools.permutations(range(2)):
        for signs in itertools.product((1, -1), repeat=2):
            for point in ((0, 0), (13, 71)):
                chis = [tuple(s * chi[p] for s, p in zip(signs, perm)) for chi in skew]
                yield [layer([c], [Fraction(sum(a * b for a, b in zip(c, point)) % 97, 97)], 2)
                       for c in chis]


@pytest.mark.parametrize("arrangement", [CURVES_3_3] + list(skew_family()))
def test_shared_lattices_run_one_solve_per_lattice_pair(arrangement, monkeypatch):
    # many elements share a lattice; each pair of lattices of two ranks is
    # solved once, row by row, and lattices of one rank not at all
    seen = []
    solve = layers_module.solve_in_lattice
    monkeypatch.setattr(layers_module, "solve_in_lattice",
                        lambda basis, row: seen.append((basis, row)) or solve(basis, row))
    poset = build_layer_poset(arrangement)
    assert poset == poset_closure_reference(arrangement)
    lats = {e.gamma for e in poset.elements}
    assert len(lats) < len(poset.elements)
    want = [(deep.basis, row) for deep in lats for other in lats if deep.rank > other.rank
            for row in other.basis]
    assert sorted(seen) == sorted(want)
