"""End-to-end acceptance checks.

Each numbered criterion is a shipped guarantee of the package.  The terminal
summary (see conftest.py) prints one PASS or FAIL line per criterion; a
criterion whose literal target is mathematically unattainable is kept as a
strict xfail with the reason spelled out, so the suite stays honest without
going red.
"""

import itertools
import json
import pathlib
import time

import pytest

from _oracles import (
    ideal_equal_up_to,
    nested_plus_reference,
    restriction_kernel_report,
    restriction_map,
)
from wondertoric.building import building_set, is_nested, is_nested_plus
from wondertoric.chern import LiftedChernPoly, lift_chern_relative
from wondertoric.cli import main as cli_main
from wondertoric.cohomology import danilov_ring, pvar
from wondertoric.errors import NotNested
from wondertoric.fans import (
    fan,
    first_equal_sign_violation,
    rays_in_kernel,
    search_good_fan,
    stellar_subdivide,
    validate_good,
)
from wondertoric.jobs import job_building, job_poset, load_job
from wondertoric.layers import build_layer_poset, layer
from wondertoric.oracle import h_vector, model_betti, verify
from wondertoric.present import (
    assemble_model_ideal,
    assemble_stratum_ideal,
    hilbert_function,
    nested_set,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

P1 = fan(1, ((1,), (-1,)), ((0,), (1,)))
P1XP1 = fan(
    2,
    ((1, 0), (-1, 0), (0, 1), (0, -1)),
    ((0, 2), (0, 3), (1, 2), (1, 3)),
)
P2 = fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))


def strip(vec):
    out = list(vec)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def coordinate_poset():
    # {x=1} and {y=1} on P1 x P1, closed under intersection
    return build_layer_poset([layer([[1, 0]], [0], 2), layer([[0, 1]], [0], 2)])


def skew_poset():
    return build_layer_poset([layer([[1, 1]], [0], 2), layer([[1, -1]], [0], 2)])


def skew_good_fan(poset):
    good, _ = search_good_fan(P1XP1, [e.gamma for e in poset.elements])
    return good


# -- criterion 1: points on the projective line, through the command line ----


@pytest.mark.parametrize(
    "stem", ["p1_one_point", "p1_two_points", "p1_three_points"]
)
def test_criterion_1_p1_points(stem, tmp_path):
    out = tmp_path / "out.json"
    t0 = time.monotonic()
    rc = cli_main(
        ["check", "--input", str(GOLDEN / (stem + ".job.json")), "--output", str(out)]
    )
    elapsed = time.monotonic() - t0
    doc = json.loads(out.read_text())
    assert rc == 0
    assert doc["ok"] is True
    assert doc["display"] == "(1,1)=(1,1)"
    assert elapsed < 1.0


# -- criterion 2: two coordinate curves on P1 x P1 ----------------------------


def test_criterion_2_coordinate_curves():
    t0 = time.monotonic()
    poset = coordinate_poset()
    assert len(poset.elements) == 3
    b = building_set(poset)  # the whole poset
    pres = assemble_model_ideal(P1XP1, b)
    ranks, torsion = hilbert_function(pres)
    betti = model_betti(P1XP1, b)
    assert strip(ranks) == (1, 3, 1)
    assert betti == (1, 3, 1)
    assert all(t == () for t in torsion)
    assert verify(ranks, betti, torsion=torsion).ok
    assert time.monotonic() - t0 < 5.0


# -- criterion 3: the two skew curves {xy=1}, {x/y=1} -------------------------


def test_criterion_3_poset_shape():
    poset = skew_poset()
    codims = sorted(e.codim for e in poset.elements)
    assert codims == [1, 1, 2, 2]  # two curves, two intersection points


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the stated value (1,4,1) is unattainable: a smooth complete fan "
        "compatible with both curve closures must contain the rays through "
        "(1,1), (-1,-1), (1,-1), (-1,1) plus smooth subdivisions between "
        "them, hence at least 8 rays, so the base surface already has "
        "second Betti number at least 6; blowing up the two intersection "
        "points adds two more classes, giving (1,8,1) as the minimum, and "
        "a building set of the points alone is not closed under the "
        "required intersections"
    ),
)
def test_criterion_3_stated_hilbert():
    poset = skew_poset()
    good = skew_good_fan(poset)
    b = building_set(poset)
    pres = assemble_model_ideal(good, b)
    ranks, _ = hilbert_function(pres)
    assert strip(ranks) == (1, 4, 1)
    assert model_betti(good, b) == (1, 4, 1)


def test_criterion_3_attained_hilbert():
    poset = skew_poset()
    good = skew_good_fan(poset)
    b = building_set(poset)
    pres = assemble_model_ideal(good, b)
    ranks, torsion = hilbert_function(pres)
    betti = model_betti(good, b)
    assert strip(ranks) == (1, 8, 1)
    assert betti == (1, 8, 1)
    assert verify(ranks, betti, torsion=torsion).ok


# -- criterion 4: independence of the lifting choices -------------------------


def perturb(scale, needs_ray=None):
    """Lift hook adding `scale` times a vanishing-on-M ray class to the
    degree-one coefficient of each qualifying relative lift.  `needs_ray`
    restricts the change to members whose kernel subspace contains that fan
    ray, so different hooks touch different subsets of the relations."""

    def hook(g, mlayer, ring, f):
        p = lift_chern_relative(g, mlayer, ring, f)
        if mlayer.codim == 0 or len(p.coefficients) == 1:
            return p
        inside = rays_in_kernel(f, mlayer.gamma)
        if needs_ray is not None and needs_ray not in inside:
            return p
        dead = [r for r in range(len(f.rays)) if r not in inside]
        if not dead:
            return p
        k = len(p.coefficients) - 2  # the coefficient of t^(degree - 1)
        merged = dict(p.coefficients[k].poly())
        for e, c in pvar(dead[0], ring.nvars, scale).items():
            merged[e] = merged.get(e, 0) + c
        coeffs = list(p.coefficients)
        coeffs[k] = ring.normal_form(merged)
        return LiftedChernPoly(ring, tuple(coeffs))

    return hook


def test_criterion_4_lifting_independence():
    b = building_set(coordinate_poset())
    standard = assemble_model_ideal(P1XP1, b)
    hooks = [perturb(2), perturb(-3), perturb(2, needs_ray=0)]
    seen = [standard.groups]
    for hook in hooks:
        other = assemble_model_ideal(P1XP1, b, lift_rel=hook)
        assert all(other.groups != g for g in seen)  # genuinely distinct
        assert ideal_equal_up_to(standard, other, 3)
        seen.append(other.groups)
    assert len(seen) == 4


# -- criterion 5: kernels of the restriction maps ------------------------------


def check_restriction_kernels(f, poset):
    ring = danilov_ring(f)
    for el in poset.elements:
        target, rmap = restriction_map(ring, el.gamma, f)
        inside = set(rays_in_kernel(f, el.gamma))
        gens = [
            pvar(r, ring.nvars)
            for r in range(len(f.rays))
            if r not in inside
        ]
        rep = restriction_kernel_report(rmap, gens, f.rank)
        assert rep.ok, (el.gamma.basis, rep.failures)


def test_criterion_5_restriction_kernels_coordinate():
    check_restriction_kernels(P1XP1, coordinate_poset())


def test_criterion_5_restriction_kernels_skew():
    poset = skew_poset()
    check_restriction_kernels(skew_good_fan(poset), poset)


# -- criterion 6: boundary strata ----------------------------------------------


def test_criterion_6_point_stratum():
    b = building_set(coordinate_poset())
    # position 0 is the intersection point (deepest layer first)
    assert b.member_layer(0).codim == 2
    pres = assemble_stratum_ideal(P1XP1, b, nested_set(members=[0]))
    ranks, torsion = hilbert_function(pres)
    assert strip(ranks) == (1, 1)
    assert all(t == () for t in torsion)


def test_criterion_6_empty_set_reproduces_model():
    b = building_set(coordinate_poset())
    model = assemble_model_ideal(P1XP1, b)
    strat = assemble_stratum_ideal(P1XP1, b, nested_set())
    assert strat.groups == model.groups
    assert ideal_equal_up_to(model, strat, 3)


def test_criterion_6_rejects_non_nested():
    b = building_set(coordinate_poset())
    with pytest.raises(NotNested):
        # the two curves without the point separating them
        assemble_stratum_ideal(P1XP1, b, nested_set(members=[1, 2]))
    with pytest.raises(NotNested):
        # opposite boundary divisors never meet
        assemble_stratum_ideal(P1XP1, b, nested_set(rays=[0, 1]))


def test_criterion_6_top_degree_of_every_stratum():
    b = building_set(coordinate_poset())
    n = P1XP1.rank
    checked = 0
    for tsize in range(len(b.members) + 1):
        for t in itertools.combinations(range(len(b.members)), tsize):
            ids = [b.members[p] for p in t]
            for rsize in range(len(P1XP1.rays) + 1):
                for r in itertools.combinations(range(len(P1XP1.rays)), rsize):
                    if not is_nested_plus(ids, r, b, P1XP1):
                        continue
                    pres = assemble_stratum_ideal(
                        P1XP1, b, nested_set(members=t, rays=r)
                    )
                    ranks, _ = hilbert_function(pres)
                    top = n - (len(t) + len(r))
                    assert ranks[top] == 1
                    assert all(x == 0 for x in ranks[top + 1 :])
                    checked += 1
    assert checked == 18


# -- criterion 7: the nested family of the three-member building --------------


def test_criterion_7_nested_family():
    b = building_set(coordinate_poset())
    family = set()
    for size in range(len(b.members) + 1):
        for t in itertools.combinations(range(len(b.members)), size):
            if is_nested([b.members[p] for p in t], b):
                family.add(frozenset(t))
    # positions: 0 the point, 1 and 2 the curves
    want = {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({0, 1}),
        frozenset({0, 2}),
    }
    assert family == want


def test_criterion_7_nested_plus_matches_reference():
    b = building_set(coordinate_poset())
    positions = range(len(b.members))
    rays = range(len(P1XP1.rays))
    combos = 0
    for tsize in range(len(b.members) + 1):
        for t in itertools.combinations(positions, tsize):
            ids = [b.members[p] for p in t]
            for rsize in range(len(P1XP1.rays) + 1):
                for r in itertools.combinations(rays, rsize):
                    got = is_nested_plus(ids, r, b, P1XP1)
                    want = nested_plus_reference(ids, r, b, P1XP1)
                    assert got == want, (t, r)
                    combos += 1
    assert combos == 2 ** (3 + 4)


# -- criterion 8: base rings of the underlying toric varieties ----------------


BLP2 = stellar_subdivide(P2, (0, 1), (1, 1))
FIVE_RAYS = stellar_subdivide(BLP2, (0, 3), (2, 1))


@pytest.mark.parametrize(
    "f",
    [P1, P2, P1XP1, BLP2, FIVE_RAYS],
    ids=["p1", "p2", "p1xp1", "blp2", "five_rays"],
)
def test_criterion_8_base_ring_matches_face_counts(f):
    ring = danilov_ring(f)
    want = h_vector(f.rank, f.faces)
    got = tuple(ring.graded_rank(d) for d in range(f.rank + 1))
    assert got == want
    assert got == got[::-1]
    assert got[-1] == 1
    assert all(ring.graded_torsion(d) == () for d in range(f.rank + 2))


# -- criterion 9: recognizing and repairing good fans --------------------------


def test_criterion_9_coordinate_arrangement_passes():
    lats = [e.gamma for e in coordinate_poset().elements]
    assert validate_good(P1XP1, lats).ok


def test_criterion_9_diagonal_fails_at_the_first_quadrant():
    diag = layer([[1, -1]], [0], 2).gamma
    assert not validate_good(P2, [diag]).ok
    cone, chi, face = first_equal_sign_violation(P2, diag)
    assert cone == (0, 1)
    assert [P2.rays[i] for i in cone] == [(1, 0), (0, 1)]
    assert face == (0, 1)


def test_criterion_9_search_repairs_within_budget():
    diag = layer([[1, -1]], [0], 2).gamma
    good, steps = search_good_fan(P2, [diag], budget=8)
    assert steps <= 8
    assert validate_good(good, [diag]).ok


# -- criterion 10: no torsion anywhere in the golden corpus --------------------


def test_criterion_10_golden_artifacts_torsion_free():
    found = 0
    for path in sorted(GOLDEN.glob("*.json")):
        doc = json.loads(path.read_text())
        if "torsion" not in doc:
            continue
        found += 1
        assert all(t == [] for t in doc["torsion"]), path.name
    assert found >= 6


@pytest.mark.parametrize(
    "stem",
    [
        "p1_one_point",
        "p1_two_points",
        "p1_three_points",
        "p1xp1_coordinate",
        "p1xp1_stratum",
        "skew_good",
    ],
)
def test_criterion_10_recomputed_slices_torsion_free(stem):
    job = load_job(str(GOLDEN / (stem + ".job.json")))
    poset = job_poset(job)
    b = job_building(job, poset)
    if job.nested is not None:
        members, rays = job.nested
        pres = assemble_stratum_ideal(
            job.fan, b, nested_set(members=members, rays=rays)
        )
    else:
        pres = assemble_model_ideal(job.fan, b)
    _, torsion = hilbert_function(pres)
    assert all(t == () for t in torsion)
