"""The antichain walks and the semi-naive poset closure against the
exhaustive references in `_oracles`.

The walks must give what the loops over every member subset gave: the same
well-connectedness verdicts and failure tuples, the same minimal empty sets
(the F0 groups), the same nested sets; the closure must give the same poset
elements and inclusion table as passes over every pair.  The bitmask walk
and the table lookups must give what the walk carrying component layers and
layer inclusion gave.
"""

import functools
import itertools
import json
import pathlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    antichains_reference,
    closure_nonempty_with_orbit,
    f0_reference,
    minimal_containing_reference,
    minimal_empty_filter_reference,
    nested_plus_reference,
    nested_reference,
    poset_closure_reference,
    well_connected_reference,
)
from wondertoric.building import (
    antichains,
    building_set,
    is_nested,
    minimal_containing,
    nested_plus_sets,
    validate_well_connected,
)
from wondertoric.cli import main
from wondertoric.fans import fan
from wondertoric.jobs import job_building, job_poset, load_job
from wondertoric.layers import (
    build_layer_poset,
    intersect_layers,
    layer,
    torus,
)
from wondertoric.present import _minimal_empty, nested_set

GOLDEN = pathlib.Path(__file__).parent / "golden"
STEMS = sorted(p.name[: -len(".job.json")] for p in GOLDEN.glob("*.job.json"))

P1XP1 = fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)])
CUBE = fan(
    3,
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)],
)
SKEW = build_layer_poset([layer([(1, 1)], [0], 2), layer([(1, -1)], [0], 2)])


def cube_layers():
    """Three coordinate planes of (P1)^3, as in the model_rank3 workload."""
    planes = [((1, 0, 0), 5), ((0, 1, 0), 11), ((0, 0, 1), 60)]
    return [layer([chi], [Fraction(k, 97)], 3) for chi, k in planes]


def golden_case(stem):
    job = load_job(GOLDEN / (stem + ".job.json"))
    return job.fan, list(job.layers), job_building(job, job_poset(job))


def cases():
    """(name, fan, arrangement, building set) of every golden job and the
    rank-3 cube model."""
    for stem in STEMS:
        yield (stem,) + golden_case(stem)
    poset = build_layer_poset(cube_layers())
    yield "cube", CUBE, cube_layers(), building_set(poset)


CASES = {name: rest for name, *rest in cases()}


def subsets(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, k) for k in range(len(items) + 1)
    )


def check_poset(arrangement):
    got = build_layer_poset(arrangement)
    want = poset_closure_reference(arrangement)
    assert got.elements == want.elements
    assert got.inclusion == want.inclusion


def check_well_connected(ids, poset):
    assert validate_well_connected(ids, poset) == well_connected_reference(ids, poset)


def check_f0(f, b, nested):
    assert _minimal_empty(b, nested, f) == f0_reference(f, b, nested)


def check_antichains(b, f, nested=None):
    """The bitmask walk over the members against the walk carrying component
    layers; with a nested set, both start from the intersection of its
    members and keep what meets the orbit of its rays: the layer walk drops
    the other components at every step, the bitmask walk starts without the
    elements that miss the orbit."""
    poset = b.poset
    start, start_layers, keep_layer = -1, None, None
    if nested is not None:
        t = [b.members[p] for p in nested.members]
        start_layers = intersect_layers([torus(f.rank)] + [poset.elements[i] for i in t])
        keep_layer = lambda k: closure_nonempty_with_orbit(k, nested.rays, f)
        start = sum(1 << k for k, e in enumerate(poset.elements) if keep_layer(e))
        for i in t:
            start &= poset.below[i]
    got = [
        (sub, poset.components(mask))
        for sub, mask in antichains(b.members, poset, start)
    ]
    want = [
        (sub, sorted(poset.elements.index(c) for c in comps))
        for sub, comps in antichains_reference(b.members, poset, start_layers, keep_layer)
    ]
    assert got == want


def check_minimal_containing(candidates, poset):
    for k, lam in enumerate(poset.elements):
        got = minimal_containing(candidates, poset, k)
        assert got == minimal_containing_reference(candidates, poset, lam)


def check_nested_border(b, f, listed):
    """`listed` is the nested+ family of (positions, rays): every listed pair
    passes the reference, the family is closed under subsets, and a
    one-candidate extension of a listed pair is listed exactly when the
    reference accepts it.  Since the family is closed under subsets, this
    pins it down."""
    ref = functools.lru_cache(maxsize=None)(
        lambda t, r: nested_plus_reference([b.members[p] for p in t], r, b, f)
    )
    family = set(listed)
    assert len(family) == len(listed)
    for t, r in listed:
        assert ref(t, r), (t, r)
        for k in range(len(t)):
            assert (t[:k] + t[k + 1 :], r) in family
        for k in range(len(r)):
            assert (t, r[:k] + r[k + 1 :]) in family
        for p in set(range(b.size)) - set(t):
            bigger = (tuple(sorted(t + (p,))), r)
            assert (bigger in family) == ref(*bigger), bigger
        for ray in set(range(len(f.rays))) - set(r):
            bigger = (t, tuple(sorted(r + (ray,))))
            assert (bigger in family) == ref(*bigger), bigger


@pytest.mark.parametrize("name", sorted(CASES))
def test_poset_closure_matches_reference(name):
    _, arrangement, _ = CASES[name]
    check_poset(arrangement)


@pytest.mark.parametrize("name", sorted(CASES))
def test_well_connected_matches_reference(name):
    _, _, b = CASES[name]
    check_well_connected(b.members, b.poset)
    for ids in subsets(range(min(len(b.poset.elements), 8))):
        check_well_connected(ids, b.poset)


def test_well_connected_failures_on_skew_curves():
    curves = [i for i, e in enumerate(SKEW.elements) if e.codim == 1]
    rep = validate_well_connected(curves, SKEW)
    assert not rep.ok
    assert rep == well_connected_reference(curves, SKEW)
    assert rep.failures == (("stray_component", tuple(curves)),)


@pytest.mark.parametrize("name", sorted(CASES))
def test_minimal_empty_sets_match_reference(name):
    f, _, b = CASES[name]
    pairs = nested_plus_sets(b, f)
    if len(pairs) > 24:  # the reference walks 2^m subsets per nested set
        pairs = pairs[:12] + pairs[-12:]
    for t, r in pairs:
        check_f0(f, b, nested_set(t, r))


@pytest.mark.parametrize("name", sorted(CASES))
def test_mask_walk_matches_layer_walk(name):
    f, _, b = CASES[name]
    check_antichains(b, f)
    pairs = nested_plus_sets(b, f)
    if len(pairs) > 24:
        pairs = pairs[:12] + pairs[-12:]
    for t, r in pairs:
        check_antichains(b, f, nested_set(t, r))


@pytest.mark.parametrize("name", sorted(CASES))
def test_minimal_containing_matches_reference(name):
    _, _, b = CASES[name]
    check_minimal_containing(b.members, b.poset)
    for ids in subsets(range(min(len(b.poset.elements), 8))):
        check_minimal_containing(ids, b.poset)


@pytest.mark.parametrize("name", sorted(CASES))
def test_nested_sets_match_reference(name):
    f, _, b = CASES[name]
    pairs = nested_plus_sets(b, f)
    check_nested_border(b, f, pairs)
    for t in subsets(b.members):
        assert is_nested(t, b) == nested_reference(t, b)
    if b.size + len(f.rays) <= 10:
        want = [
            (t, r)
            for t in subsets(range(b.size))
            for r in subsets(range(len(f.rays)))
            if nested_plus_reference([b.members[p] for p in t], r, b, f)
        ]
        assert pairs == want


def test_nested_lists_large_models(tmp_path):
    """4+3 curves on P1 x P1: 19 members and 4 rays, 2^23 candidates, which
    the command used to refuse."""
    ks = [3, 17, 40, 71, 9, 55, 88]
    layers = [{"gamma": [[1, 0]], "phi": ["%d/97" % k]} for k in ks[:4]]
    layers += [{"gamma": [[0, 1]], "phi": ["%d/97" % k]} for k in ks[4:]]
    rays = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    doc = {
        "rank": 2,
        "fan": {"rank": 2, "rays": rays, "max_cones": [[0, 2], [0, 3], [1, 2], [1, 3]]},
        "layers": layers,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "nested.json"
    assert main(["nested", "--input", str(path), "--output", str(out)]) == 0
    got = json.loads(out.read_text())
    job = load_job(path)
    b = job_building(job, job_poset(job))
    assert b.size == 19
    listed = [(tuple(e["members"]), tuple(e["rays"])) for e in got["nested_plus"]]
    check_nested_border(b, job.fan, listed)
    assert got["nested"] == [list(t) for t, r in listed if not r]
    assert listed == sorted(listed, key=lambda p: (len(p[0]), p[0], len(p[1]), p[1]))


# -- random rank-2 arrangements ----------------------------------------------

CHARACTERS = [
    (a, b)
    for a in range(-2, 3)
    for b in range(-2, 3)
    if gcd(a, b) == 1 and (a, b) > (0, 0)
]


@st.composite
def arrangements(draw):
    chars = draw(st.lists(st.sampled_from(CHARACTERS), min_size=1, max_size=3, unique=True))
    ks = draw(st.lists(st.integers(0, 96), min_size=len(chars), max_size=len(chars)))
    return [layer([chi], [Fraction(k, 97)], 2) for chi, k in zip(chars, ks)]


@settings(max_examples=40, deadline=None)
@given(arrangement=arrangements(), data=st.data())
def test_random_arrangements_match_references(arrangement, data):
    check_poset(arrangement)
    poset = build_layer_poset(arrangement)
    ids = range(len(poset.elements))
    for _ in range(3):
        sub = data.draw(st.lists(st.sampled_from(ids), max_size=8, unique=True))
        check_well_connected(sub, poset)
    b = building_set(poset)
    for _ in range(3):
        t = data.draw(st.lists(st.sampled_from(b.members), max_size=5, unique=True))
        assert is_nested(t, b) == nested_reference(t, b)
    if b.size > 10:  # the F0 reference walks 2^m subsets
        return
    pairs = nested_plus_sets(b, P1XP1)
    check_nested_border(b, P1XP1, pairs)
    check_f0(P1XP1, b, nested_set())
    check_f0(P1XP1, b, nested_set(*data.draw(st.sampled_from(pairs))))


@settings(max_examples=40, deadline=None)
@given(arrangement=arrangements(), data=st.data())
def test_mask_walk_and_lookups_match_layer_forms(arrangement, data):
    b = building_set(build_layer_poset(arrangement))
    check_antichains(b, P1XP1)
    ids = range(len(b.poset.elements))
    for _ in range(3):
        check_minimal_containing(data.draw(st.lists(st.sampled_from(ids), unique=True)), b.poset)
    if b.size > 12:  # the layer walk intersects at every step
        return
    pairs = nested_plus_sets(b, P1XP1)
    for _ in range(3):
        check_antichains(b, P1XP1, nested_set(*data.draw(st.sampled_from(pairs))))


@settings(max_examples=60, deadline=None)
@given(arrangement=arrangements(), data=st.data())
def test_minimal_empty_facet_test_equals_the_pairwise_filter(arrangement, data):
    # an empty antichain is minimal iff every facet meets; strata with rays
    # start the walk from fewer elements, so no facet is tested at the start
    b = building_set(build_layer_poset(arrangement))
    pairs = nested_plus_sets(b, P1XP1)
    sets = [nested_set()] + [nested_set(*data.draw(st.sampled_from(pairs))) for _ in range(4)]
    sets += [nested_set(t, r) for t, r in pairs if r and not t][:4]
    for nested in sets:
        assert _minimal_empty(b, nested, P1XP1) == minimal_empty_filter_reference(b, nested, P1XP1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_minimal_empty_facet_test_equals_the_pairwise_filter_on_every_stratum(name):
    f, _, b = CASES[name]
    for t, r in nested_plus_sets(b, f) if b.size <= 12 else [((), ())]:
        nested = nested_set(t, r)
        assert _minimal_empty(b, nested, f) == minimal_empty_filter_reference(b, nested, f)
