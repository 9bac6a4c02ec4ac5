"""Ring slices against the all-monomial reference slices.

A ring's slices have a column per standard monomial that no unit pivot of a
lower slice divides.  Every graded query must read as it does on
`_oracles.full_slice_reference`, which has a column per monomial and a row
per relation: ranks, torsion, normal forms, the HNF over all monomials and
the restriction-kernel verdicts.
"""

import functools
import itertools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    FullSlices,
    full_hnf_rows,
    full_slice_reference,
    ideal_equal_up_to,
    restriction_kernel_reference,
    restriction_kernel_report,
    restriction_map,
    standard_monomials,
    standard_monomials_reference,
    unpacked,
)
from wondertoric.building import building_set, nested_plus_sets
from wondertoric.cohomology import GradedRing, danilov_ring, pvar
from wondertoric.fans import fan, rays_in_kernel, search_good_fan, validate_good
from wondertoric.jobs import job_building, job_poset, load_job
from wondertoric.layers import build_layer_poset, layer
from wondertoric.present import (
    Model,
    ModelPresentation,
    assemble_model_ideal,
    assemble_stratum_ideal,
    hilbert_function,
    model_ideal,
    nested_set,
    stratum_ideal,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
STEMS = sorted(p.name[: -len(".job.json")] for p in GOLDEN.glob("*.job.json"))

P1XP1 = fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)])
CUBE = fan(
    3,
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)],
)

# normal forms are checked on every monomial in all generators up to this
# many per degree, taken evenly from the canonical order
NF_SAMPLE = 400


def golden_model(stem):
    """(fan, poset, presentation) of a golden job; a fan that is not good
    for the arrangement is repaired first, as `goodfan --search` does."""
    job = load_job(GOLDEN / (stem + ".job.json"))
    poset = job_poset(job)
    b = job_building(job, poset)
    f = job.fan
    lats = [e.gamma for e in poset.elements]
    if not validate_good(f, lats).ok:
        f, _ = search_good_fan(f, lats)
    if job.nested is None:
        pres = assemble_model_ideal(f, b)
    else:
        pres = assemble_stratum_ideal(f, b, nested_set(*job.nested))
    return f, poset, pres


@functools.lru_cache(maxsize=None)
def cube_model():
    """Three coordinate planes of (P1)^3, as in the model_rank3 workload."""
    planes = [((1, 0, 0), 5), ((0, 1, 0), 11), ((0, 0, 1), 60)]
    poset = build_layer_poset(
        [layer([chi], [Fraction(k, 97)], 3) for chi, k in planes]
    )
    pres = assemble_model_ideal(CUBE, building_set(poset))
    return poset, pres, FullSlices(pres.ring)


def all_monomials(nvars, d):
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def check_slices(ring, top, ref=None):
    ref = ref or FullSlices(ring)
    for d in range(top + 1):
        momos, _, ech = ref(d)
        assert ring.graded_rank(d) == len(momos) - ech.rank
        assert ring.graded_torsion(d) == ech.torsion()
        assert full_hnf_rows(ring, d) == ech.hnf_rows()
    return ref


def check_normal_forms(ring, top, ref):
    for d in range(top + 1):
        monos = all_monomials(ring.nvars, d)
        step = -(-len(monos) // NF_SAMPLE)
        for e in monos[::step]:
            assert ring.normal_form({e: 1}).terms == ref.normal_form({e: 1})


@pytest.mark.parametrize("stem", STEMS)
def test_golden_slices_match_reference(stem):
    f, _, pres = golden_model(stem)
    rings = [pres.ring]
    if stem == "p1xp1_curves":  # the strata_sweep model: its 33 strata too
        model = Model(f, pres.building)
        rings += [stratum_ideal(model, nested_set(t, r)).ring for t, r in nested_plus_sets(pres.building, f)]
    for ring in rings:
        ref = check_slices(ring, f.rank + 1)
        check_normal_forms(ring, f.rank + 1, ref)


def test_cube_model_slices_match_reference():
    _, pres, ref = cube_model()
    ring = pres.ring
    assert len(standard_monomials(ring, 4)) < len(ring.monomials(4))
    check_slices(ring, 4, ref)
    check_normal_forms(ring, 4, ref)


def restriction_cases(f, poset):
    ring = danilov_ring(f)
    for el in poset.elements:
        _, rmap = restriction_map(ring, el.gamma, f)
        inside = set(rays_in_kernel(f, el.gamma))
        dead = [pvar(r, ring.nvars) for r in range(len(f.rays)) if r not in inside]
        alive = [pvar(r, ring.nvars) for r in sorted(inside)]
        for gens in (dead, [], dead[:1], alive[:1]):
            yield rmap, gens


@pytest.mark.parametrize("stem", STEMS)
def test_golden_restriction_verdicts_match_reference(stem):
    f, poset, _ = golden_model(stem)
    for rmap, gens in restriction_cases(f, poset):
        want = restriction_kernel_reference(rmap, gens, f.rank)
        assert restriction_kernel_report(rmap, gens, f.rank) == want


def test_cube_restriction_verdicts_match_reference():
    poset, _, _ = cube_model()
    verdicts = set()
    for rmap, gens in restriction_cases(CUBE, poset):
        want = restriction_kernel_reference(rmap, gens, 3)
        assert restriction_kernel_report(rmap, gens, 3) == want
        verdicts.add(want.ok)
    assert verdicts == {True, False}


def test_model_and_stratum_ideals_stay_unequal():
    _, _, model = golden_model("p1xp1_coordinate")
    _, _, stratum = golden_model("p1xp1_stratum")
    assert not ideal_equal_up_to(model, stratum, 3)
    full_a, full_b = FullSlices(model.ring), FullSlices(stratum.ring)
    assert any(full_a(d)[2].hnf_rows() != full_b(d)[2].hnf_rows() for d in range(4))


def test_ideal_equal_when_only_one_ring_lists_a_monomial():
    names = ("x", "y")
    xy = {(1, 1): 1}
    diff = {(2, 0): 1, (0, 2): -1}
    with_monomial = GradedRing(names, [xy, diff])
    without = GradedRing(names, [{(1, 1): 1, (2, 0): 1, (0, 2): -1}, diff])
    assert standard_monomials(with_monomial, 2) != standard_monomials(without, 2)

    def pres(ring):
        return ModelPresentation(None, None, None, ring, tuple)

    assert ideal_equal_up_to(pres(with_monomial), pres(without), 4)
    assert not ideal_equal_up_to(pres(with_monomial), pres(GradedRing(names, [xy])), 4)
    assert not ideal_equal_up_to(pres(with_monomial), pres(GradedRing(names, [diff])), 4)


def test_non_unit_monomial_relation_stays_a_row():
    # 2xy is a monomial, but not a unit one: it leaves torsion Z/2 in degree 2
    ring = GradedRing(("x", "y"), [{(1, 1): 2}, {(2, 0): 1}, {(0, 2): -1}])
    assert standard_monomials(ring, 2) == [(1, 1)]
    assert ring.graded_torsion(2) == (2,)
    check_slices(ring, 3)


def test_slices_with_a_surviving_pure_power_match_reference():
    # x^d is standard in every degree d, so each slice holds an exponent
    # entry equal to d, the largest digit the packed column keys must carry;
    # the linear relation gives the degree-1 slice rows, where a smaller
    # base would give all three variables one key
    ring = GradedRing(
        "xyz",
        [
            {(1, 0, 0): 2, (0, 1, 0): -1, (0, 0, 1): 3},
            {(0, 1, 1): 1},
            {(1, 1, 0): 2},
            {(2, 0, 0): 1, (1, 0, 1): 3, (0, 0, 2): -1},
        ],
    )
    for d in range(7):
        assert (d, 0, 0) in standard_monomials(ring, d)
    ref = check_slices(ring, 6)
    check_normal_forms(ring, 6, ref)


# -- packed monomials past the starting radix -----------------------------------


def check_slice(ring, d):
    momos, _, ech = full_slice_reference(ring, d)
    assert standard_monomials(ring, d) == standard_monomials_reference(ring, d)
    assert ring.graded_rank(d) == len(momos) - ech.rank
    assert ring.graded_torsion(d) == ech.torsion()
    assert full_hnf_rows(ring, d) == ech.hnf_rows()


@pytest.mark.parametrize("degrees", [(300, 0, 17, 16, 15, 257, 256, 255), (15, 16, 17, 255, 256, 257, 300)])
def test_pure_powers_stay_exact_past_the_starting_radix(degrees):
    # x^d and y^d survive every degree, so a digit reaches d: asked for at
    # once or degree by degree, the radix grows by re-encoding, never by a
    # carry into the next generator's digit
    xy = GradedRing("xy", [{(1, 1): 1}])
    # 2y^d stays a row: Z/2 in every degree from 3 on, x^d dies
    torsion = GradedRing("xy", [{(1, 1): 1}, {(2, 0): 1, (0, 2): -2}])
    for d in degrees:
        assert standard_monomials(xy, d) == ([(0, 0)] if d == 0 else [(d, 0), (0, d)])
        for ring in (xy, torsion):
            check_slice(ring, d)
        if d >= 3:
            assert (torsion.graded_rank(d), torsion.graded_torsion(d)) == (0, (2,))
            assert torsion.normal_form({(0, d): 3, (d, 0): 5}).terms == (((0, d), 1),)


def test_cube_model_slices_stay_exact_above_the_starting_radix():
    _, pres, ref = cube_model()
    ring = GradedRing(pres.ring.names, pres.ring.relations, pres.ring.eliminate, pres.ring.substitutions)
    top = 17  # above the radix the first slices are packed in
    assert ring.graded_rank(top) == 0 and ring.graded_torsion(top) == ()
    for d in range(top + 1):
        assert standard_monomials(ring, d) == standard_monomials_reference(ring, d), d
    assert [ring.graded_rank(d) for d in range(top + 1)] == [1, 7, 7, 1] + [0] * (top - 3)
    check_slices(ring, 4, ref)
    check_normal_forms(ring, 4, ref)


# -- Hypothesis cases ------------------------------------------------------------


@st.composite
def small_rings(draw):
    """A ring on three generators with random homogeneous relations of
    degree 1 to 3, one to three terms each, coefficients +-1 or +-2; half of
    them eliminate the first generator by a linear substitution."""
    nvars = 3
    relations = []
    for _ in range(draw(st.integers(1, 5))):
        d = draw(st.integers(1, 3))
        monos = st.sampled_from(all_monomials(nvars, d))
        exps = draw(st.lists(monos, min_size=1, max_size=3, unique=True))
        relations.append({e: draw(st.sampled_from((-2, -1, 1, 2))) for e in exps})
    if draw(st.booleans()):
        subst = {0: {(0, 1, 0): draw(st.sampled_from((-2, -1, 1, 2))), (0, 0, 1): 1}}
        return GradedRing("xyz", relations, eliminate=(0,), substitutions=subst)
    return GradedRing("xyz", relations)


@settings(max_examples=80, deadline=None)
@given(ring=small_rings(), data=st.data())
def test_random_rings_match_reference(ring, data):
    ref = check_slices(ring, 4)
    for p in data.draw(st.lists(polynomials(ring.nvars, 4), min_size=1, max_size=4)):
        assert ring.normal_form(p).terms == ref.normal_form(p)


def polynomials(nvars, max_degree):
    term = st.tuples(
        st.lists(st.integers(0, nvars - 1), max_size=max_degree),
        st.integers(-6, 6),
    )
    return st.lists(term, max_size=6).map(lambda terms: poly_of(terms, nvars))


def poly_of(terms, nvars):
    out = {}
    for vars_, c in terms:
        e = [0] * nvars
        for i in vars_:
            e[i] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + c
    return {e: c for e, c in out.items() if c}


@settings(max_examples=15, deadline=None)
@given(
    a=st.integers(1, 2),
    b=st.integers(0, 2),
    ks=st.lists(st.integers(0, 96), min_size=4, max_size=4, unique=True),
    data=st.data(),
)
def test_p1xp1_curves_match_reference(a, b, ks, data):
    curves = [((1, 0), k) for k in ks[:a]] + [((0, 1), k) for k in ks[a : a + b]]
    poset = build_layer_poset(
        [layer([chi], [Fraction(k, 97)], 2) for chi, k in curves]
    )
    ring = assemble_model_ideal(P1XP1, building_set(poset)).ring
    ref = check_slices(ring, 3)
    for p in data.draw(st.lists(polynomials(ring.nvars, 3), min_size=1, max_size=5)):
        assert ring.normal_form(p).terms == ref.normal_form(p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cube_normal_form_of_random_polynomials(data):
    _, pres, ref = cube_model()
    p = data.draw(polynomials(pres.ring.nvars, 4))
    nf = pres.ring.normal_form(p)
    assert nf.terms == ref.normal_form(p)
    # the representative is canonical: reducing it again changes nothing
    assert pres.ring.normal_form(nf.poly()).terms == nf.terms


# -- a minimal generating set per slice -----------------------------------------


def permuted(ring, order):
    return GradedRing(ring.names, [ring.relations[k] for k in order], ring.eliminate, ring.substitutions)


def assert_same_ring(ring, other, top):
    for d in range(top + 1):
        assert other.graded_rank(d) == ring.graded_rank(d)
        assert other.graded_torsion(d) == ring.graded_torsion(d)
        assert full_hnf_rows(other, d) == full_hnf_rows(ring, d)


@settings(max_examples=80, deadline=None)
@given(ring=small_rings(), data=st.data())
def test_random_rings_do_not_depend_on_the_relation_order(ring, data):
    order = data.draw(st.permutations(range(len(ring.relations))))
    assert_same_ring(ring, permuted(ring, order), 4)


@pytest.mark.parametrize("stem", STEMS)
def test_golden_rings_do_not_depend_on_the_relation_order(stem):
    # which relations a slice keeps may depend on the order; the ring may not
    f, _, pres = golden_model(stem)
    n = len(pres.ring.relations)
    rng = random.Random(stem)
    for order in [range(n - 1, -1, -1)] + [rng.sample(range(n), n) for _ in range(2)]:
        assert_same_ring(pres.ring, permuted(pres.ring, order), f.rank + 1)


@pytest.mark.parametrize("path, kept, non_unit", [
    ("cube_planes.job.json", 3, 22),
    ("p1xp1_curves.job.json", 4, 16),
    ("skew_good.job.json", 10, 25),
    ("rank4/p1x4_hyperplanes.job.json", 4, 111),
])
def test_slices_keep_few_of_the_non_unit_relations(path, kept, non_unit):
    job = load_job(GOLDEN / path)
    pres = model_ideal(Model(job.fan, job_building(job, job_poset(job))))
    hilbert_function(pres)
    ring = pres.ring
    assert len(ring._split_relations()[1]) == non_unit
    assert len(ring._kept) == kept


# -- standard monomials by counting ------------------------------------------


@st.composite
def unit_monomial_rings(draw):
    """A ring on up to 8 generators whose relations are monomials of degree
    at most 4, most with coefficient +-1 (units), some with +-2 (rows); some
    generators are eliminated, each to zero or to +- a surviving one."""
    nvars = draw(st.integers(1, 8))
    exps = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
    relations = [
        {e: draw(st.sampled_from((-2, -1, 1, 1, 2)))}
        for e in draw(st.lists(exps.filter(lambda e: sum(e) <= 4), max_size=8))
    ]
    eliminate = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars - 1))
    surviving = [i for i in range(nvars) if i not in eliminate]
    subst = {}
    for v in eliminate:
        j = draw(st.sampled_from([None] + surviving))
        subst[v] = {} if j is None else pvar(j, nvars, draw(st.sampled_from((-1, 1))))
    return GradedRing(["x%d" % i for i in range(nvars)], relations, sorted(eliminate), subst)


@settings(max_examples=200, deadline=None)
@given(ring=unit_monomial_rings())
def test_standard_monomials_equal_the_tuple_slicing_reference(ring):
    for d in range(6):
        assert standard_monomials(ring, d) == standard_monomials_reference(ring, d), d


@pytest.mark.parametrize("stem", STEMS)
def test_golden_standard_monomials_equal_the_reference(stem):
    f, _, pres = golden_model(stem)
    model = Model(f, pres.building)
    rings = [model_ideal(model).ring]
    rings += [stratum_ideal(model, nested_set(t, r)).ring for t, r in nested_plus_sets(pres.building, f)]
    for ring in rings:
        for d in range(f.rank + 2):
            assert standard_monomials(ring, d) == standard_monomials_reference(ring, d), d


# -- columns: the standard monomials no lower unit lead divides ---------------------


def lead_free_columns_reference(ring, d):
    """The degree-d standard monomials (tuple-slicing reference) that no unit
    pivot of a lower slice divides, by comparing every exponent."""
    leads = []
    for e in range(d):
        cols, _, ech = ring.slice_table(e)
        leads += unpacked(ring, [cols[j] for j, row in ech.pivots.items() if row[j] == 1])
    return [
        m for m in standard_monomials_reference(ring, d)
        if not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)
    ]


def check_lead_free_columns(ring, top):
    empty = None
    for d in range(top + 1):
        cols = ring.slice_table(d)[0]
        assert unpacked(ring, cols) == lead_free_columns_reference(ring, d), d
        if empty is not None:
            assert ring.graded_rank(d) == 0, (empty, d)
        elif not cols:
            empty = d


@st.composite
def square_lead_rings(draw):
    """A ring on three or four generators whose relations of degree 2 and 3
    each lead with a monomial holding a square (x^2, x^2 y, x^3), coefficient
    +-1, ahead of up to two later terms in `monomials(d)` order; some unit
    monomial relations with squares ride along."""
    nvars = draw(st.integers(3, 4))
    relations = []
    for _ in range(draw(st.integers(1, 5))):
        d = draw(st.sampled_from((2, 3)))
        monos = all_monomials(nvars, d)
        k = draw(st.sampled_from([i for i, e in enumerate(monos[:-1]) if max(e) >= 2]))
        rel = {monos[k]: draw(st.sampled_from((-1, 1)))}
        for e in draw(st.lists(st.sampled_from(monos[k + 1 :]), max_size=2, unique=True)):
            rel[e] = draw(st.sampled_from((-2, -1, 1, 2)))
        relations.append(rel)
    squares = [e for e in all_monomials(nvars, 3) if max(e) == 2]
    relations += [{e: 1} for e in draw(st.lists(st.sampled_from(squares), max_size=2, unique=True))]
    return GradedRing(["x%d" % i for i in range(nvars)], relations)


@settings(max_examples=100, deadline=None)
@given(ring=st.one_of(unit_monomial_rings(), small_rings(), square_lead_rings()))
def test_columns_are_the_standard_monomials_no_lower_unit_lead_divides(ring):
    check_lead_free_columns(ring, 5)


@settings(max_examples=60, deadline=None)
@given(ring=square_lead_rings(), data=st.data())
def test_square_lead_rings_match_reference(ring, data):
    ref = check_slices(ring, 4)
    for p in data.draw(st.lists(polynomials(ring.nvars, 4), min_size=1, max_size=4)):
        assert ring.normal_form(p).terms == ref.normal_form(p)


@pytest.mark.parametrize("stem", STEMS)
def test_golden_columns_are_lead_free(stem):
    f, _, pres = golden_model(stem)
    check_lead_free_columns(pres.ring, f.rank + 1)
