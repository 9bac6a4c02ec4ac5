import itertools
import os
import pathlib
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wondertoric
from _oracles import induced_fan
from wondertoric.building import BuildingSet, building_set
from wondertoric.cohomology import danilov_ring
from wondertoric.errors import BudgetExhausted, InvariantViolated, NotGood
from wondertoric.fans import cone_face_compat, fan, primitive, search_good_fan, stellar_subdivide, validate_good
from wondertoric.jobs import job_building, job_poset, load_job
from wondertoric.layers import build_layer_poset, layer, torus
from wondertoric.oracle import _induced_members, _stage_betti, h_vector, keel_step, model_betti, verify
from wondertoric.present import Model, assemble_model_ideal, hilbert_function

P1 = fan(1, ((1,), (-1,)), ((0,), (1,)))
P1XP1 = fan(
    2,
    ((1, 0), (-1, 0), (0, 1), (0, -1)),
    ((0, 2), (0, 3), (1, 2), (1, 3)),
)


def p1_power(n):
    # ray 2i is +e_i, ray 2i+1 is -e_i
    rays = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rays.append(tuple(e))
        rays.append(tuple(-x for x in e))
    cones = tuple(
        tuple(2 * i + s for i, s in enumerate(signs))
        for signs in itertools.product((0, 1), repeat=n)
    )
    return fan(n, tuple(rays), cones)


def skew_poset():
    return build_layer_poset(
        [layer([[1, 1]], [0], 2), layer([[1, -1]], [0], 2)]
    )


def skew_good_fan(poset):
    good, _ = search_good_fan(P1XP1, [e.gamma for e in poset.elements])
    return good


def test_keel_step_identity_in_codimension_one():
    assert keel_step((1, 2, 1), (1,), 1) == (1, 2, 1)


def test_keel_step_point_on_surface():
    assert keel_step((1, 2, 1), (1,), 2) == (1, 3, 1)
    assert keel_step((1, 1, 1), (1,), 2) == (1, 2, 1)


def test_keel_step_threefold_centers():
    # point and line in a threefold with Betti (1,1,1,1) of P^3
    assert keel_step((1, 1, 1, 1), (1,), 3) == (1, 2, 2, 1)
    assert keel_step((1, 1, 1, 1), (1, 1), 2) == (1, 2, 2, 1)


def test_keel_step_rejects_nonpositive_codimension():
    with pytest.raises(ValueError):
        keel_step((1, 1), (1,), 0)


def test_keel_step_euler_bookkeeping():
    # the new Euler characteristic is chi + (d-1) * chi(center); the
    # implementation asserts it, so a quiet pass here is the property
    for b_z in [(1,), (1, 1), (1, 2, 1), (1, 0, 1)]:
        for d in range(1, 4):
            out = keel_step((1, 3, 3, 1), b_z, d)
            assert sum(out) == 8 + (d - 1) * sum(b_z)


def test_model_betti_p1_one_point():
    poset = build_layer_poset([layer([[1]], [0], 1)])
    b = building_set(poset)
    assert model_betti(P1, b) == (1, 1)


def test_model_betti_p1_two_points():
    poset = build_layer_poset([layer([[1]], [0], 1), layer([[1]], ["1/2"], 1)])
    b = building_set(poset)
    # both centers are divisors on the curve, so nothing changes
    assert model_betti(P1, b) == (1, 1)


def test_model_betti_three_member_coordinate_arrangement():
    poset = build_layer_poset(
        [layer([[1, 0]], [0], 2), layer([[0, 1]], [0], 2)]
    )
    b = building_set(poset)
    assert model_betti(P1XP1, b) == (1, 3, 1)


def test_model_betti_matches_presentation_three_member():
    poset = build_layer_poset(
        [layer([[1, 0]], [0], 2), layer([[0, 1]], [0], 2)]
    )
    b = building_set(poset)
    pres = assemble_model_ideal(P1XP1, b)
    ranks, torsion = hilbert_function(pres)
    rep = verify(ranks, model_betti(P1XP1, b), torsion=torsion)
    assert rep.ok


def test_model_betti_skew_needs_good_fan():
    poset = skew_poset()
    b = building_set(poset)
    with pytest.raises(NotGood):
        model_betti(P1XP1, b)


def test_model_betti_skew_on_good_fan():
    poset = skew_poset()
    good = skew_good_fan(poset)
    b = building_set(poset)
    assert model_betti(good, b) == (1, 8, 1)


def test_model_betti_skew_matches_presentation():
    poset = skew_poset()
    good = skew_good_fan(poset)
    b = building_set(poset)
    pres = assemble_model_ideal(good, b)
    ranks, torsion = hilbert_function(pres)
    rep = verify(ranks, model_betti(good, b), torsion=torsion)
    assert rep.ok


def test_model_betti_order_invariance():
    poset = skew_poset()
    good = skew_good_fan(poset)
    points = [i for i, e in enumerate(poset.elements) if e.codim == 2]
    curves = [i for i, e in enumerate(poset.elements) if e.codim == 1]
    results = set()
    for pts in itertools.permutations(points):
        for cvs in itertools.permutations(curves):
            b = BuildingSet(poset, pts + cvs)
            results.add(model_betti(good, b))
    assert results == {(1, 8, 1)}


def test_model_betti_nested_recursion():
    # in (P^1)^4, blow up a torus point, then a surface through it; the
    # surface's own model is a point blowup of P^1 x P^1
    f = p1_power(4)
    surface = layer([[1, 0, 0, 0], [0, 1, 0, 0]], [0, 0], 4)
    point = layer(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [0, 0, 0, 0],
        4,
    )
    poset = build_layer_poset([surface, point])
    b = building_set(poset)
    assert model_betti(f, b) == (1, 6, 10, 6, 1)


def test_model_betti_nested_recursion_matches_presentation_prefix():
    f = p1_power(4)
    surface = layer([[1, 0, 0, 0], [0, 1, 0, 0]], [0, 0], 4)
    point = layer(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [0, 0, 0, 0],
        4,
    )
    poset = build_layer_poset([surface, point])
    b = building_set(poset)
    pres = assemble_model_ideal(f, b)
    ranks, torsion = hilbert_function(pres, max_degree=2)
    assert ranks == (1, 6, 10)
    assert all(not t for t in torsion)


def test_blowup_plan_structure():
    # the top-level blowup sequence: one center per ordered member, each
    # carrying the arrangement the earlier members induce on it
    poset = skew_poset()
    b = building_set(poset)
    ids = b.members
    induced = [_induced_members(poset, ids[:pos], z) for pos, z in enumerate(ids)]
    assert [poset.elements[z].codim for z in ids] == [2, 2, 1, 1]
    # first point sees nothing, second meets the first in nothing
    assert induced[0] == ()
    assert induced[1] == ()
    # each curve contains both points; the other curve meets it in the two
    # points, a disconnected intersection, so it drops out of the induced set
    assert induced[2] == tuple(ids[:2])
    assert induced[3] == tuple(ids[:2])


# --- stage h-vectors from the kernel faces against the induced fans ----------


def kernel_h_vector(f, stage):
    """The oracle's h-vector of the stage before any blowup: the face counts
    of the cones of f in the kernel of the stage lattice."""
    return _stage_betti(f, None, stage, (), {})


def induced_h_vector(f, stage):
    g = induced_fan(f, stage.gamma)
    return h_vector(g.rank, g.faces)


GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_STEMS = sorted(str(p.relative_to(GOLDEN))[: -len(".job.json")] for p in GOLDEN.rglob("*.job.json"))


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_kernel_faces_give_the_induced_fan_h_vector_on_golden_models(stem):
    # every poset lattice of the golden model (its fan repaired first where
    # it is not good, as goodfan --search does), and the graded ranks of the
    # induced fan's ring say the same
    job = load_job(GOLDEN / (stem + ".job.json"))
    poset = job_poset(job)
    lats = [e.gamma for e in poset.elements]
    f = job.fan if validate_good(job.fan, lats).ok else search_good_fan(job.fan, lats)[0]
    Model(f, job_building(job, poset))
    for stage in poset.elements:
        want = kernel_h_vector(f, stage)
        assert want == induced_h_vector(f, stage)
        ring = danilov_ring(induced_fan(f, stage.gamma))
        assert tuple(ring.graded_rank(d) for d in range(len(want))) == want


BASE_FANS = [P1, P1XP1, fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]), p1_power(3)]


@st.composite
def subdivided_fans(draw):
    """A fan of BASE_FANS after up to two stellar subdivisions, each at a
    positive combination (coefficients 1 or 2) of the rays of a nonzero face;
    a coefficient 2 can make a cone singular."""
    f = draw(st.sampled_from(BASE_FANS))
    for _ in range(draw(st.integers(0, 2))):
        face = draw(st.sampled_from(sorted(c for c in f.faces if c)))
        lams = draw(st.lists(st.integers(1, 2), min_size=len(face), max_size=len(face)))
        ray = primitive([sum(l * f.rays[i][j] for l, i in zip(lams, face)) for j in range(f.rank)])
        if ray not in f.rays:
            f = stellar_subdivide(f, face, ray)
    return f


@settings(max_examples=60, deadline=None)
@given(f=subdivided_fans(), data=st.data())
def test_kernel_faces_give_the_induced_fan_h_vector(f, data):
    # one to three hypersurfaces {chi = k/3} for primitive chi of entries in
    # [-1, 1]; a good model when the repair search finds one, else the
    # poset lattices the fan is compatible with
    chars = [c for c in itertools.product((-1, 0, 1), repeat=f.rank) if any(c)]
    chis = data.draw(st.lists(st.sampled_from(chars), min_size=1, max_size=3, unique=True))
    ks = data.draw(st.lists(st.integers(0, 2), min_size=len(chis), max_size=len(chis)))
    poset = build_layer_poset([layer([chi], [Fraction(k, 3)], f.rank) for chi, k in zip(chis, ks)])
    stages = poset.elements
    try:
        f, _ = search_good_fan(f, [e.gamma for e in stages], 16)
    except (BudgetExhausted, NotGood):
        stages = [e for e in stages if cone_face_compat(f, e.gamma).ok]
    else:
        Model(f, building_set(poset))
    for stage in [torus(f.rank), *stages]:
        assert kernel_h_vector(f, stage) == induced_h_vector(f, stage)


def test_verify_pass():
    assert verify((1, 3, 1), (1, 3, 1)).ok
    # trailing zeros on the presentation side are trimmed
    assert verify((1, 3, 1, 0), (1, 3, 1)).ok


def test_verify_mismatch_reports_cohomological_degree():
    rep = verify((1, 3, 1), (1, 2, 1))
    assert not rep.ok
    assert ("mismatch", 2, 3, 2) in rep.failures


def test_verify_empty_fails():
    rep = verify((), ())
    assert not rep.ok


def test_verify_needs_rank_one_ends():
    rep = verify((2, 2), (2, 2))
    assert not rep.ok
    rep = verify((1, 2), (1, 2))
    assert not rep.ok
    assert any(x[0] == "not_palindromic" for x in rep.failures)
    assert any(x[0] == "top_rank" for x in rep.failures)


def test_verify_torsion_fails():
    rep = verify((1, 1), (1, 1), torsion=((), (2,)))
    assert not rep.ok
    assert ("torsion", 2, (2,)) in rep.failures


def test_stage_guard_raises():
    # a center that is the stage itself does not cut it: codimension 0
    poset = build_layer_poset([layer([[1, 0]], [0], 2)])
    with pytest.raises(InvariantViolated, match="does not cut its stage"):
        _stage_betti(P1XP1, poset, poset.elements[0], (0,), {})


def test_stage_guard_raises_under_python_O():
    """The guards are raised errors, not asserts, so -O keeps them."""
    script = textwrap.dedent(
        """
        from wondertoric.errors import InvariantViolated
        from wondertoric.fans import fan
        from wondertoric.layers import build_layer_poset, layer
        from wondertoric.oracle import _stage_betti

        assert False, "asserts must be off under -O"
        f = fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)])
        poset = build_layer_poset([layer([[1, 0]], [0], 2)])
        try:
            _stage_betti(f, poset, poset.elements[0], (0,), {})
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
