import dataclasses
import functools
import gc
import importlib
import os
import pathlib
import subprocess
import sys
import textwrap
import types
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wondertoric
from wondertoric.building import BuildingSet, building_set, nested_plus_sets
from _oracles import (
    all_subsets_ring,
    f_base_reference,
    f_groups_reference,
    ideal_equal_up_to,
    induced_fan,
    irredundant_reference,
    layer_inclusion,
)
from wondertoric.chern import (
    LiftedChernPoly,
    divisor_class_raw,
    equal_sign_adapted_basis,
    lift_chern_relative,
    product_of_linear_factors,
)
from wondertoric.cohomology import (
    GradedRing,
    RingElement,
    canon_terms,
    danilov_ring,
    from_terms,
    padd,
    pconst,
    ppow,
    pvar,
)
from wondertoric.errors import (
    BadOrder,
    InvariantViolated,
    NotBuilding,
    NotGood,
    NotNested,
)
from wondertoric import chern, cli, present
from wondertoric.cli import dumps
from wondertoric.fans import (
    fan,
    rays_in_kernel,
    search_good_fan,
    validate_complete,
    validate_good,
    validate_smooth,
)
from wondertoric.jobs import job_building, job_poset, load_job
from wondertoric.lattice import elementary_divisors
from wondertoric.layers import LayerPoset, build_layer_poset, layer, torus
from wondertoric.present import (
    Model,
    ModelPresentation,
    assemble_model_ideal,
    assemble_stratum_ideal,
    hilbert_function,
    model_ideal,
    nested_set,
    presentation_to_dict,
    stratum_ideal,
    stratum_size,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

P1 = fan(1, ((1,), (-1,)), ((0,), (1,)))
P1XP1 = fan(
    2,
    ((1, 0), (-1, 0), (0, 1), (0, -1)),
    ((0, 2), (0, 3), (1, 2), (1, 3)),
)


def p1_one_point():
    poset = build_layer_poset([layer([[1]], [0], 1)])
    return building_set(poset)


def p1_two_points():
    poset = build_layer_poset([layer([[1]], [0], 1), layer([[1]], ["1/2"], 1)])
    return building_set(poset)


def three_member_building():
    # {x=1}, {y=1} and their intersection point; order puts the point first
    poset = build_layer_poset(
        [layer([[1, 0]], [0], 2), layer([[0, 1]], [0], 2)]
    )
    return building_set(poset)


def group_polys(pres, name):
    return [from_terms(t) for g, _, t in pres.groups if g == name]


def test_p1_one_point_relations():
    b = p1_one_point()
    pres = assemble_model_ideal(P1, b)
    # t0 c0, t0 c1
    assert group_polys(pres, "tc") == [{(1, 0, 1): 1}, {(0, 1, 1): 1}]
    # single F relation c1 - t0
    assert group_polys(pres, "F") == [{(0, 1, 0): 1, (0, 0, 1): -1}]
    assert group_polys(pres, "F0") == []
    assert group_polys(pres, "stratum_c") == []


def test_p1_one_point_hilbert():
    pres = assemble_model_ideal(P1, p1_one_point())
    ranks, torsion = hilbert_function(pres)
    assert ranks == (1, 1, 0)
    assert all(t == () for t in torsion)


def test_p1_two_points():
    pres = assemble_model_ideal(P1, p1_two_points())
    assert group_polys(pres, "F0") == [{(0, 0, 1, 1): 1}]
    ranks, _ = hilbert_function(pres)
    assert ranks == (1, 1, 0)


def test_three_member_order_and_groups():
    b = three_member_building()
    layers = [b.member_layer(p) for p in range(3)]
    assert layers[0].codim == 2  # the point comes first
    pres = assemble_model_ideal(P1XP1, b)
    # the pair of curves through the point yields the bare monomial t1 t2
    assert {(0, 0, 0, 0, 0, 1, 1): 1} in group_polys(pres, "F")
    # the point is in every member, so no empty intersections
    assert group_polys(pres, "F0") == []
    # the point annihilates every ray class
    tc = group_polys(pres, "tc")
    assert len([p for p in tc if list(p)[0][4] == 1]) == 4


def test_three_member_hilbert():
    # blowup of P1xP1 at one torus point: betti numbers 1, 3, 1
    pres = assemble_model_ideal(P1XP1, three_member_building())
    ranks, torsion = hilbert_function(pres)
    assert ranks == (1, 3, 1, 0)
    assert all(t == () for t in torsion)


def test_stratum_point_is_exceptional_line():
    b = three_member_building()
    pres = assemble_stratum_ideal(P1XP1, b, nested_set(members=[0]))
    # the stratum sits over an interior point: every ray class dies
    assert len(group_polys(pres, "stratum_c")) == 4
    ranks, _ = hilbert_function(pres)
    assert ranks[:3] == (1, 1, 0)


def test_stratum_empty_set_matches_model():
    b = three_member_building()
    model = assemble_model_ideal(P1XP1, b)
    strat = assemble_stratum_ideal(P1XP1, b, nested_set())
    assert strat.groups == model.groups
    assert ideal_equal_up_to(model, strat, 3)


def test_stratum_ray_divisor():
    b = three_member_building()
    pres = assemble_stratum_ideal(P1XP1, b, nested_set(rays=[0]))
    # the point (1,1) and the curve {x=1} miss the ray-0 divisor
    assert {(0, 0, 0, 0, 1, 0, 0): 1} in group_polys(pres, "F0")
    ranks, _ = hilbert_function(pres)
    assert ranks[:3] == (1, 1, 0)


def test_stratum_rejects_non_nested():
    b = three_member_building()
    with pytest.raises(NotNested):
        assemble_stratum_ideal(P1XP1, b, nested_set(rays=[0, 1]))
    with pytest.raises(NotNested):
        # the two curves are separated by the point member
        assemble_stratum_ideal(P1XP1, b, nested_set(members=[1, 2]))


def test_stratum_of_p1_point_is_a_point():
    pres = assemble_stratum_ideal(P1, p1_one_point(), nested_set(members=[0]))
    ranks, _ = hilbert_function(pres)
    assert ranks == (1, 0, 0)


def test_model_vs_stratum_ideals_differ():
    b = three_member_building()
    model = assemble_model_ideal(P1XP1, b)
    strat = assemble_stratum_ideal(P1XP1, b, nested_set(members=[0]))
    assert not ideal_equal_up_to(model, strat, 1)


def test_degree_mismatch():
    a = assemble_model_ideal(P1, p1_one_point())
    b = assemble_model_ideal(P1XP1, three_member_building())
    with pytest.raises(ValueError, match="different generators"):
        ideal_equal_up_to(a, b, 2)


def test_not_good_fan():
    poset = build_layer_poset([layer([[1, -1]], [0], 2)])
    b = building_set(poset)
    with pytest.raises(NotGood):
        Model(P1XP1, b)
    with pytest.raises(NotGood):
        assemble_model_ideal(P1XP1, b)


def test_bad_order_and_bad_building():
    b = three_member_building()
    poset = b.poset
    # a BuildingSet checks itself when made, before any model sees it
    with pytest.raises(BadOrder):
        BuildingSet(poset, (b.members[1], b.members[0], b.members[2]))
    with pytest.raises(NotBuilding):
        BuildingSet(poset, tuple(i for i in b.members if poset.elements[i].codim == 2))


def perturbing_lift(g, mlayer, ring, f):
    """Standard lift plus twice a vanishing-on-M class in one coefficient."""
    p = lift_chern_relative(g, mlayer, ring, f)
    if mlayer.codim == 0 or len(p.coefficients) == 1:
        return p
    inside = rays_in_kernel(f, mlayer.gamma)
    dead = [r for r in range(len(f.rays)) if r not in inside]
    if not dead:
        return p
    k = len(p.coefficients) - 2  # the coefficient of t^(degree - 1)
    merged = dict(p.coefficients[k].poly())
    for e, c in pvar(dead[0], ring.nvars, 2).items():
        merged[e] = merged.get(e, 0) + c
    coeffs = list(p.coefficients)
    coeffs[k] = ring.normal_form(merged)
    return LiftedChernPoly(ring, tuple(coeffs))


def test_lifting_choice_independence():
    b = three_member_building()
    standard = assemble_model_ideal(P1XP1, b)
    perturbed = assemble_model_ideal(P1XP1, b, lift_rel=perturbing_lift)
    assert standard.groups != perturbed.groups
    assert ideal_equal_up_to(standard, perturbed, 3)


def test_a_lift_of_the_wrong_degree_is_refused_at_its_f_base():
    # F(i, A) is t^A times the F base of (G_i, M), so the base carries the
    # degree check for every A: codim G_i - codim M, and never empty
    for constant in (0, 1):
        seen = []

        def lift(g, mlayer, ring, f):
            seen.append((g, mlayer))
            return LiftedChernPoly(ring, (ring.normal_form(pconst(constant, ring.nvars)),))

        with pytest.raises(InvariantViolated, match="F base of member 0 over component None has degree 0, not 2"):
            assemble_model_ideal(P1XP1, three_member_building(), lift_rel=lift)
        assert len(seen) == 1


def counting_lift(seen):
    def lift(g, mlayer, ring, f):
        seen.append((g, mlayer))
        return lift_chern_relative(g, mlayer, ring, f)

    return lift


def f_bases(model):
    """The kept F bases of a Model by pair (G, M) of poset ids, None for
    the torus: one per Chern lift."""
    return {k[1:]: v for k, v in model.assembled.items() if type(k) is tuple and k[0] == "F base"}


def test_a_model_lifts_each_pair_once_across_presentations():
    model = Model(P1XP1, three_member_building())
    first = model_ideal(model)
    pairs = f_bases(model)
    base = model.base
    assert pairs and first.base is base
    strat = stratum_ideal(model, nested_set(members=[0]))
    again = model_ideal(model)
    # the stratum lifts no pair the model had not already lifted
    assert f_bases(model) == pairs and all(f_bases(model)[k] is v for k, v in pairs.items())
    assert strat.base is again.base is base
    assert again.groups == first.groups
    cold = assemble_stratum_ideal(P1XP1, three_member_building(), nested_set(members=[0]))
    assert strat.groups == cold.groups


def test_a_caller_lift_sees_every_pair_after_a_warm_model():
    model = Model(P1XP1, three_member_building())
    model_ideal(model)
    kept = f_bases(model)
    seen = []
    hooked = model_ideal(model, lift_rel=counting_lift(seen))
    # the memo keys pairs by poset element ids, None for the torus
    elements = model.building.poset.elements
    pairs = [(elements[g], torus(2) if m is None else elements[m]) for g, m in kept]
    assert sorted(seen, key=repr) == sorted(pairs, key=repr)  # each pair once
    # and its lifts stay out of the Model's memo
    perturbed = model_ideal(model, lift_rel=perturbing_lift)
    assert f_bases(model) == kept
    assert perturbed.groups != hooked.groups == model_ideal(model).groups


def test_a_cold_model_ideal_hashes_no_fraction(monkeypatch):
    # a Layer's hash is its Fractions' hashes: the memos key by element ids
    f, b = golden_fan_and_building("cube_planes")
    model = Model(f, b)
    for name in ("chern", "fans", "lattice", "layers"):
        for fn in vars(importlib.import_module("wondertoric." + name)).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    calls = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: calls.append(x) or fraction_hash(x))
    assert hash(Fraction(1, 2)) == fraction_hash(Fraction(1, 2)) and len(calls) == 1
    calls.clear()
    hilbert_function(model_ideal(model))
    assert f_bases(model) and not calls, len(calls)


def test_the_lift_memo_is_not_a_constructor_argument():
    model = Model(P1XP1, three_member_building())
    with pytest.raises(TypeError):
        type(model)(model.fan, model.building, assembled={})
    model_ideal(model)
    stratum_ideal(model, nested_set(members=[0]))
    assert model.assembled and "assembled" not in repr(model)
    fresh = type(model)(model.fan, model.building)
    assert fresh == model and fresh.assembled == {}


@functools.lru_cache(maxsize=None)
def golden_fan_and_building(stem):
    """The fan (repaired first if it is not good, as `goodfan --search`
    does) and building set of a golden job."""
    job = load_job(GOLDEN / (stem + ".job.json"))
    poset = job_poset(job)
    f = job.fan
    lats = [e.gamma for e in poset.elements]
    if not validate_good(f, lats).ok:
        f, _ = search_good_fan(f, lats)
    return f, job_building(job, poset)


@functools.lru_cache(maxsize=None)
def cold_stratum(stem, nested):
    f, b = golden_fan_and_building(stem)
    pres = assemble_stratum_ideal(f, b, nested)
    return pres, pres.ring.substituted_relations(), hilbert_function(pres)


# the golden models, among them the strata_sweep curves and the cube planes
GOLDEN_STEMS = sorted(p.name[: -len(".job.json")] for p in GOLDEN.glob("*.job.json"))


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_a_kept_model_assembles_every_stratum_like_a_cold_one(data):
    stem = data.draw(st.sampled_from(GOLDEN_STEMS), label="model")
    f, b = golden_fan_and_building(stem)
    sets = [nested_set(t, r) for t, r in nested_plus_sets(b, f)]
    order = data.draw(st.permutations(sets), label="order")
    model = Model(f, b)
    for nested in order:
        # a model presentation, or a hooked stratum that must keep its
        # lifts and groups out of the Model's memo
        extra = data.draw(st.sampled_from([None, "model", "hooked"]))
        if extra == "model":
            model_ideal(model)
        elif extra == "hooked":
            hook = data.draw(st.sampled_from(sets), label="hooked set")
            stratum_ideal(model, hook, lift_rel=perturbing_lift)
        warm = stratum_ideal(model, nested)
        cold, subbed, hilbert = cold_stratum(stem, nested)
        assert warm.groups == cold.groups
        assert warm.ring.substituted_relations() == subbed
        assert hilbert_function(warm) == hilbert
        assert ideal_equal_up_to(warm, cold, f.rank - stratum_size(warm))


def checked_lift(seen):
    """A lift hook that asserts, through the reference routes, what
    lift_chern_relative and adapted_basis take as given: G lies in M and
    both lattices are saturated.  Then it lifts."""

    def lift(g, mlayer, ring, f):
        assert layer_inclusion(g, mlayer)
        for lat in (g.gamma, mlayer.gamma):
            assert all(d == 1 for d in elementary_divisors(lat.basis))
        seen.append((g, mlayer))
        return lift_chern_relative(g, mlayer, ring, f)

    return lift


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_every_lift_meets_its_precondition_by_construction(stem):
    f, b = golden_fan_and_building(stem)
    model = Model(f, b)
    seen = []
    model_ideal(model, lift_rel=checked_lift(seen))
    for t, r in nested_plus_sets(b, f):
        stratum_ideal(model, nested_set(t, r), lift_rel=checked_lift(seen))
    assert seen


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_every_induced_fan_passes_fan_unchanged(stem):
    # the oracle takes the cones in the kernel of each poset lattice as a
    # smooth complete fan: in kernel coordinates they pass fan() unchanged
    f, b = golden_fan_and_building(stem)
    for e in b.poset.elements:
        g = induced_fan(f, e.gamma)
        assert fan(g.rank, g.rays, g.max_cones) == g
        assert validate_smooth(g).ok and validate_complete(g).ok


def plain(x):
    """A kept provenance value in its JSON form."""
    if isinstance(x, types.MappingProxyType):
        return {k: plain(v) for k, v in x.items()}
    return [plain(v) for v in x] if isinstance(x, tuple) else x


def unreduced_lift(g, mlayer, ring, f):
    """The standard lift with c_v^d - s_v^d added to each coefficient of
    degree d > 0, v the first eliminated generator and s_v its substitution:
    zero in the ring, but written in v, so the F bases need substituting."""
    p = lift_chern_relative(g, mlayer, ring, f)
    v, coeffs = ring.eliminate[0], []
    for k, c in enumerate(x.poly() for x in p.coefficients):
        d = len(p.coefficients) - 1 - k
        if d:
            c = padd(padd(c, {tuple(d * (i == v) for i in range(ring.nvars)): 1}),
                     {e: -x for e, x in ppow(ring.substitutions[v], d, ring.nvars).items()})
        coeffs.append(RingElement(ring, canon_terms(c)))
    return LiftedChernPoly(ring, tuple(coeffs))


def check_f_groups(pres, model, nested):
    got = [(g, plain(prov), t) for g, prov, t in pres.groups if g == "F"]
    assert got == f_groups_reference(model, nested)
    # the substituted relations the assembly hands over are the ring's own
    ring = pres.ring
    fresh = GradedRing(ring.names, ring.relations, ring.eliminate, ring.substitutions)
    assert ring.substituted_relations() == fresh.substituted_relations()
    # t^A times a base written in an eliminated generator substitutes alike
    unreduced = _assemble_with(model, nested, unreduced_lift).ring
    assert unreduced.relations != ring.relations
    assert unreduced.substituted_relations() == ring.substituted_relations()


def _assemble_with(model, nested, lift_rel):
    if nested == nested_set():
        return model_ideal(model, lift_rel=lift_rel)
    return stratum_ideal(model, nested, lift_rel=lift_rel)


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_f_groups_equal_the_per_relation_reference(stem):
    f, b = golden_fan_and_building(stem)
    model = Model(f, b)
    check_f_groups(model_ideal(model), model, nested_set())


def test_f_groups_of_every_curves_stratum_equal_the_reference():
    f, b = golden_fan_and_building("p1xp1_curves")
    model = Model(f, b)
    for t, r in nested_plus_sets(b, f):
        nested = nested_set(t, r)
        check_f_groups(stratum_ideal(model, nested), model, nested)
        # a hooked stratum builds its F bases afresh
        check_f_groups(stratum_ideal(model, nested, lift_rel=lift_chern_relative), model, nested)


def check_f_bases(model):
    """Every F base the Model keeps is the dict-polynomial sum of
    coefficient times shift power, and so is its substitution."""
    elements, pos = model.building.poset.elements, {g: i for i, g in enumerate(model.building.members)}
    bases = f_bases(model)
    assert bases
    for (g, where), got in bases.items():
        mlayer = torus(model.fan.rank) if where is None else elements[where]
        assert got == f_base_reference(model, pos[g], mlayer)


def check_hooked_f_bases(model, nested):
    # a hook's coefficients are written in an eliminated generator: the
    # listed F(i, A) keep them, the ring's substituted relations do not
    pres = _assemble_with(model, nested, unreduced_lift)
    got = [(g, plain(prov), t) for g, prov, t in pres.groups if g == "F"]
    assert got == f_groups_reference(model, nested, unreduced_lift)
    ring = pres.ring
    fresh = GradedRing(ring.names, ring.relations, ring.eliminate, ring.substitutions)
    assert ring.substituted_relations() == fresh.substituted_relations()


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_f_bases_equal_the_dict_polynomial_reference(stem):
    f, b = golden_fan_and_building(stem)
    model = Model(f, b)
    model_ideal(model)
    check_f_bases(model)
    check_hooked_f_bases(model, nested_set())


def test_lifts_that_share_a_completion_share_one_product(monkeypatch):
    # the cube model's 23 Chern lifts have 9 distinct equal-sign completions;
    # the base ring keeps one product per completion, and dies with its Model
    lifts, products = [], []
    monkeypatch.setattr(present, "lift_chern_relative", lambda *args: lifts.append(args) or lift_chern_relative(*args))
    monkeypatch.setattr(
        chern, "product_of_linear_factors", lambda fs, ring: products.append(ring) or product_of_linear_factors(fs, ring)
    )
    f, b = golden_fan_and_building("cube_planes")
    first = Model(f, b)
    model_ideal(first)
    assert (len(lifts), len(products)) == (23, 9)
    assert all(ring is first.base for ring in products)
    elements, pos = b.poset.elements, {g: i for i, g in enumerate(b.members)}
    for (g, where), got in f_bases(first).items():
        mlayer = torus(f.rank) if where is None else elements[where]
        assert got == f_base_reference(first, pos[g], mlayer, base=danilov_ring(f))  # a fresh ring's lift
    kept, products[:] = dict(first.base._lifted), []
    second = Model(f, b)
    model_ideal(second)
    assert len(products) == 9 and all(ring is second.base for ring in products)
    assert second.base is not first.base and first.base._lifted == kept


def test_f_bases_of_every_curves_stratum_equal_the_dict_polynomial_reference():
    f, b = golden_fan_and_building("p1xp1_curves")
    model = Model(f, b)
    for t, r in nested_plus_sets(b, f):
        stratum_ideal(model, nested_set(t, r))
        check_hooked_f_bases(model, nested_set(t, r))
    check_f_bases(model)


def test_a_model_is_freed_by_reference_counting():
    # nothing in the assembly may refer to itself: a cycle through one of
    # its functions would hold a dead Model, or its memo, until a full
    # collection
    f, b = golden_fan_and_building("p1xp1_curves")
    gc.collect()
    gc.disable()
    try:
        model = Model(f, b)
        pres = model_ideal(model)
        hilbert_function(pres)
        hilbert_function(stratum_ideal(model, nested_set(members=[0])))
        presentation_to_dict(pres)
        refs = [weakref.ref(model), weakref.ref(model.assembled["ring"]), weakref.ref(pres.ring)]
        del model, pres
        assert [r() for r in refs] == [None, None, None]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        held = [getattr(x, "__qualname__", "") for x in gc.garbage]
        assert [q for q in held if q.startswith("_assemble.")] == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def filtered_listing(pres, model, nested):
    """The listed relations in document order, less the F(i, A) with a
    redundant member by the filter over every superset choice."""
    irr = irredundant_reference(model, nested)
    return [t for g, prov, t in pres.groups if g != "F" or tuple(prov["others"]) in irr[prov["member"]]]


def check_irredundant(pres, model, nested):
    """The ring holds the filtered listing, and it generates what every
    F(i, A) generates."""
    assert list(pres.ring.relations) == filtered_listing(pres, model, nested)
    every = dataclasses.replace(pres, ring=all_subsets_ring(pres, model, nested))
    assert ideal_equal_up_to(pres, every, pres.fan.rank - stratum_size(pres))


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_the_ring_takes_the_irredundant_f_of_every_model_and_stratum(stem):
    f, b = golden_fan_and_building(stem)
    model = Model(f, b)
    check_irredundant(model_ideal(model), model, nested_set())
    for t, r in nested_plus_sets(b, f):
        nested = nested_set(t, r)
        check_irredundant(stratum_ideal(model, nested), model, nested)


@pytest.mark.parametrize("stem,ring_f,listed_f", [
    ("cube_planes", 32, 79),  # 47 redundant F(i, A)
    ("p1xp1_curves", 20, 20),  # the strata_sweep model: none to drop
    ("skew_good", 10, 10),
])
def test_the_ring_of_a_model_takes_fewer_f_than_its_document_lists(stem, ring_f, listed_f):
    pres = model_ideal(Model(*golden_fan_and_building(stem)))
    others = sum(g != "F" for g, _, _ in pres.groups)
    assert (len(pres.ring.relations) - others, len(pres.groups) - others) == (ring_f, listed_f)


@pytest.mark.parametrize("size,read", [(1, "ring"), (6, "listing")])
def test_the_component_guard_runs_on_every_set_read(monkeypatch, size, read):
    # a meet that reports the component holding the point twice for the
    # first `size` members above it: the walk reads every single member,
    # but never all six (three planes already meet in the point), which
    # only a listing reads
    f, b = golden_fan_and_building("cube_planes")
    ids, incl = b.members, b.poset.inclusion
    (i,) = [p for p in range(b.size) if b.member_layer(p).codim == 3]
    above = [ids[j] for j in range(b.size) if j != i and incl[ids[i]][ids[j]]]
    meet = LayerPoset.meet

    def doubled(self, elements):
        comps = meet(self, elements)
        return comps + comps if sorted(elements) == sorted(above[:size]) else comps

    monkeypatch.setattr(LayerPoset, "meet", doubled)
    guard = pytest.raises(InvariantViolated, match="member %d lies in 2 components" % i)
    if read == "ring":
        with guard:
            model_ideal(Model(f, b))
    else:
        pres = model_ideal(Model(f, b))
        with guard:
            pres.groups


def test_check_builds_no_listing(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a listing was built")

    for fn in (cli._kept_model, cli._kept_building, cli._kept_poset):
        fn.cache_clear()
    monkeypatch.setattr(present, "layer_to_dict", refuse)
    monkeypatch.setattr(present, "_frozen", refuse)
    argv = ["--input", str(GOLDEN / "cube_planes.job.json"), "--output", str(tmp_path / "out")]
    assert cli.main(["check"] + argv) == 0
    # the same kept model lists its relations for a document
    with pytest.raises(AssertionError, match="a listing was built"):
        cli.main(["present"] + argv)


# (P1)^4 and its four coordinate hyperplanes: 15 members.  The references
# above walk every F(i, A) (16,668 of them) or every monomial, so this model
# has its own tests.
RANK4 = GOLDEN / "rank4" / "p1x4_hyperplanes.job.json"


@functools.lru_cache(maxsize=1)
def rank4_model():
    job = load_job(RANK4)
    return Model(job.fan, job_building(job, job_poset(job)))


def test_the_rank4_ring_takes_its_irredundant_f():
    model = rank4_model()
    pres = model_ideal(model)
    kept = filtered_listing(pres, model, nested_set())
    assert list(pres.ring.relations) == kept
    others = sum(g != "F" for g, _, _ in pres.groups)
    assert (len(kept) - others, len(pres.groups) - others) == (193, 16668)


@pytest.mark.parametrize("members,rays", [
    ((0,), ()),  # the point
    ((14,), ()),  # a hyperplane
    ((2, 6), ()),
    ((), (0,)),
    ((0, 8, 12, 14), ()),  # a full flag: a point of the model
])
def test_rank4_strata_have_top_rank_one_and_palindromic_ranks(members, rays):
    model = rank4_model()
    pres = stratum_ideal(model, nested_set(members, rays))
    ranks, torsion = hilbert_function(pres)
    top = 4 - stratum_size(pres)
    assert ranks[top] == 1 and not any(ranks[top + 1 :])
    assert ranks[: top + 1] == ranks[top::-1]
    assert not any(torsion)


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_a_kept_normal_form_is_what_a_fresh_ring_gives(stem):
    f, b = golden_fan_and_building(stem)
    model = Model(f, b)
    model_ideal(model)
    ring, elements = model.base, b.poset.elements
    kept = len(ring._normal)
    assert f_bases(model)
    for g, where in f_bases(model):
        mlayer = torus(f.rank) if where is None else elements[where]
        lift = lift_chern_relative(elements[g], mlayer, ring, f)
        basis, k = equal_sign_adapted_basis(f, elements[g].gamma, mlayer.gamma)
        factors = [divisor_class_raw(v, f, ring.nvars) for v in basis[k:]]
        coeffs = product_of_linear_factors(factors, ring)
        assert len(coeffs) == len(lift.coefficients)
        for c, got in zip(coeffs, lift.coefficients):
            assert ring.normal_form(c) is got
            assert got.terms == danilov_ring(f).normal_form(c).terms
    # lifting again reads every normal form from the ring's memo
    assert len(ring._normal) == kept


def test_a_caller_cannot_change_the_kept_groups():
    f, b = golden_fan_and_building("p1xp1_curves")
    model = Model(f, b)
    point_curve = nested_set(members=[0, 2])
    want = dumps(presentation_to_dict(cold_stratum("p1xp1_curves", point_curve)[0]))
    first = stratum_ideal(model, point_curve)
    name, prov, terms = next(g for g in first.groups if g[0] == "F" and g[1]["others"])
    with pytest.raises(TypeError):
        prov["member"] = 99
    with pytest.raises(TypeError):
        prov["component"]["phi"] = ()
    with pytest.raises(AttributeError):
        prov["others"].append(5)
    doc = presentation_to_dict(first)
    for rel in doc["relations"]:
        rel["provenance"]["member"] = 99
        rel["provenance"].setdefault("others", []).append(5)
        if "component" in rel["provenance"]:
            rel["provenance"]["component"]["phi"].append("1/2")
        rel["poly"].clear()
    doc["relations"].clear()
    assert dumps(presentation_to_dict(stratum_ideal(model, point_curve))) == want


def test_json_document():
    pres = assemble_model_ideal(P1XP1, three_member_building())
    doc = presentation_to_dict(pres)
    assert doc["hilbert"] == [1, 3, 1, 0]
    assert doc["t_vars"] == ["t:0", "t:1", "t:2"]
    assert {r["group"] for r in doc["relations"]} >= {"SR", "linear", "tc", "F"}
    assert doc == presentation_to_dict(pres)
    strat = assemble_stratum_ideal(
        P1XP1, three_member_building(), nested_set(members=[0])
    )
    sdoc = presentation_to_dict(strat)
    assert sdoc["nested"] == {"members": [0], "rays": []}


def test_hilbert_guards_raise():
    def pres(rank, names, relations):
        ring = GradedRing(names, relations)
        return ModelPresentation(types.SimpleNamespace(rank=rank), None, None, ring, tuple)

    # Z[x]/(x^3) has ranks (1, 1, 1), Z[x]/(x) has (1, 0, 0)
    with pytest.raises(InvariantViolated, match="above the top degree"):
        hilbert_function(pres(1, "x", [{(3,): 1}]))
    with pytest.raises(InvariantViolated, match="top degree rank is 0"):
        hilbert_function(pres(1, "x", [{(1,): 1}]))
    # Z[x,y]/(x^2, xy, y^4) has ranks (1, 2, 1, 1, 0)
    with pytest.raises(InvariantViolated, match="not palindromic"):
        hilbert_function(pres(3, "xy", [{(2, 0): 1}, {(1, 1): 1}, {(0, 4): 1}]))
    ranks, _ = hilbert_function(pres(2, "xy", [{(2, 0): 1}, {(0, 2): 1}]))
    assert ranks == (1, 2, 1, 0)


def test_guard_raises_under_python_O():
    """Result guards are raised errors, not asserts, so -O keeps them."""
    script = textwrap.dedent(
        """
        import types
        from wondertoric.cohomology import GradedRing
        from wondertoric.errors import InvariantViolated
        from wondertoric.present import ModelPresentation, hilbert_function

        assert False, "asserts must be off under -O"
        ring = GradedRing("x", [{(3,): 1}])
        pres = ModelPresentation(types.SimpleNamespace(rank=1), None, None, ring, tuple)
        try:
            hilbert_function(pres)
        except InvariantViolated:
            raise SystemExit(0)
        raise SystemExit(5)
        """
    )
    src = str(pathlib.Path(wondertoric.__file__).parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
