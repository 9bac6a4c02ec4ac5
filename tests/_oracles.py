"""Independent reference computations used by several test files.

These deliberately take a different route from the library code they verify:
nestedness in the augmented building set is re-derived from the full
stratified poset of (layer, cone) pairs, ring slices are rebuilt over every
monomial of their degree with every relation as a row, and the member-subset
searches and the poset closure go through every subset and every pair, and
intersections go through the lattice arithmetic of `intersect_layers` rather
than the poset's inclusion table.
The Q/Z, simplex and cone-coordinate kernels are kept here in their
fractions.Fraction form, the greedy fan search without its record of
lattices already repaired or of their signs, the smoothness check by the
Smith form of every cone, the face-compatibility check with one LP per ray,
and the equal-sign searches in the form that pairs a character with every
ray of every cone and builds a Report per candidate.  The fan's incidence
masks are kept as a membership test of every ray in every max cone, the
cones a star replaces as an issubset scan, and the wall criterion as lists
of owner cones per wall.
The Hermite form and the lattice solve are kept as one batch elimination
with a transform matrix, and the toric elimination as Gauss-Jordan over
Fractions.  The echelon engine is kept in its dense-list form, and the
all-monomial slice references run on it.  Standard monomials are grown by
tuple slicing, and the F relations are built one polynomial per (member,
superset choice) from a fresh lift on a fresh base ring, all of them into
one ring; the irredundant superset choices are every choice, filtered.
Each F base is kept as the dict-polynomial sum of coefficient times shift
power, by `pmul` and `ppow`, and the minimal empty antichains (the F0
groups) by the filter over every pair of empty antichains.

The last section keeps checkers that no command runs, so the package does
not ship them: `value_on` and `layer_inclusion` (layer inclusion by lattice
arithmetic), `lift_chern_pair` (P_G, P_M and P_G_rel from one shared
adapted basis), `standard_monomials` and `unpacked` (the monomials a
ring's slice walk grew, as exponent tuples), `full_hnf_rows` and `ideal_equal_up_to` (relation lattices
compared over all monomials), and `RingMap`, `restriction_map`,
`kernel_lattice`, `ideal_slice` and `restriction_kernel_report` (the
restriction onto a layer closure and its kernel, degree by degree), with
what they build on: `kernel_basis` (a Smith-form kernel basis),
`induced_fan` (the fan of the cones in the kernel of a lattice, in the
coordinates of that kernel) and `closure_nonempty_with_orbit`.  The Betti
oracle reads the kernel cones straight off the fan's face set instead.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from wondertoric.chern import (
    divisor_class_raw,
    equal_sign_adapted_basis,
    lift_chern_relative,
    make_lifted,
)
from wondertoric.cohomology import (
    GradedRing,
    RingElement,
    canon_terms,
    danilov_ring,
    from_terms,
    padd,
    pconst,
    pdegree,
    pmul,
    ppow,
    psplit,
    pvar,
)
from wondertoric.building import antichains
from wondertoric.errors import BudgetExhausted, InvariantViolated, NoBasis
from wondertoric.fans import (
    Fan,
    Report,
    cone_face_compat,
    find_equal_sign_basis,
    first_equal_sign_violation,
    pairing,
    primitive,
    rays_in_kernel,
    stellar_subdivide,
)
from wondertoric.lattice import (
    RowEchelon,
    adapted_basis,
    elementary_divisors,
    hermite_normal_form,
    identity,
    qz,
    qz_dot,
    solve_in_lattice,
    smith_normal_form,
    sublattice,
    torsion_frame,
    xgcd,
)
from wondertoric.layers import (
    LayerPoset,
    intersect_layers,
    layer_to_dict,
    torus,
)


def pmul_mono(a, exps, coeff=1):
    return {tuple(x + y for x, y in zip(e, exps)): c * coeff for e, c in a.items()}


def minimal_containing_reference(candidate_ids, poset, lam):
    """Ids of the inclusion-minimal candidate members containing the layer
    lam, by layer inclusion."""
    containing = [
        i for i in candidate_ids if layer_inclusion(lam, poset.elements[i])
    ]
    return sorted(
        i
        for i in containing
        if not any(
            j != i and layer_inclusion(poset.elements[j], poset.elements[i])
            for j in containing
        )
    )


def antichains_reference(ids, poset, start=None, keep=None):
    """The antichain walk carrying component Layers: yields (antichain,
    components), each step intersecting every component with one more
    layer.  start is a list of Layers (default: the whole torus) and keep a
    predicate on Layers."""
    ids = sorted(set(ids))
    incl = poset.inclusion

    def walk(sub, comps, lo):
        for k in range(lo, len(ids)):
            e = ids[k]
            if any(incl[e][j] or incl[j][e] for j in sub):
                continue
            lay = poset.elements[e]
            if comps is None:
                new = [lay]
            else:
                new = [c for old in comps for c in intersect_layers([old, lay])]
            if keep is not None:
                new = [c for c in new if keep(c)]
            yield sub + (e,), new
            if new:
                yield from walk(sub + (e,), new, k + 1)

    return walk((), start, 0)


def is_antichain(ids, poset):
    return not any(
        a != b and poset.inclusion[a][b] for a, b in itertools.permutations(ids, 2)
    )


def cone_of(rays, f):
    """The spanned cone as a sorted tuple, or None if no cone of the fan has
    exactly these rays among its faces."""
    rays = tuple(sorted(rays))
    if not rays:
        return ()
    if any(set(rays) <= set(c) for c in f.max_cones):
        return rays
    return None


def nested_plus_reference(t_ids, ray_indices, building, f):
    """Ground-truth nestedness for layer members plus boundary divisors.

    Works over the mixed poset whose elements are pairs (layer, cone):
    divisors are incomparable with every layer member, so the antichains are
    exactly (layer antichain) x (ray subset).  Each one of size >= 2 must be
    the factor set of a nonempty stratum with additive codimension.
    """
    poset = building.poset
    t_ids = sorted(set(t_ids))
    rays = sorted(set(ray_indices))
    for lk in range(len(t_ids) + 1):
        for lt in itertools.combinations(t_ids, lk):
            if not is_antichain(lt, poset):
                continue
            for rk in range(len(rays) + 1):
                for rt in itertools.combinations(rays, rk):
                    if len(lt) + len(rt) < 2:
                        continue
                    if not witness_exists(lt, rt, building, f):
                        return False
    return True


def witness_exists(layer_part, ray_part, building, f):
    poset = building.poset
    if cone_of(ray_part, f) is None:
        return False
    if not layer_part:
        # the dense layer of the torus: no member contains it
        return True
    comps = intersect_layers([poset.elements[i] for i in layer_part])
    target = sum(poset.elements[i].codim for i in layer_part)
    for lam in comps:
        if lam.codim != target:
            continue
        if minimal_containing_reference(building.members, poset, lam) != list(layer_part):
            continue
        if all(
            pairing(chi, f.rays[r]) == 0
            for r in ray_part
            for chi in lam.gamma.basis
        ):
            return True
    return False


# -- member subsets and the poset, one subset or pair at a time -------------


def well_connected_reference(candidate_ids, poset):
    """validate_well_connected over every subset of the members."""
    ids = sorted(set(candidate_ids))
    member_layers = [poset.elements[i] for i in ids]
    bad = []
    for k in range(2, len(ids) + 1):
        for sub in itertools.combinations(ids, k):
            if not is_antichain(sub, poset):
                continue
            comps = intersect_layers([poset.elements[i] for i in sub])
            if len(comps) <= 1:
                continue
            for c in comps:
                if c not in member_layers:
                    bad.append(("stray_component", sub))
                    break
    return Report(tuple(bad))


def nested_reference(t_ids, building):
    """is_nested over every subset of the candidates."""
    poset = building.poset
    t_ids = sorted(set(t_ids))
    for k in range(2, len(t_ids) + 1):
        for sub in itertools.combinations(t_ids, k):
            if not is_antichain(sub, poset):
                continue
            comps = intersect_layers([poset.elements[i] for i in sub])
            target = sum(poset.elements[i].codim for i in sub)
            if not any(
                lam.codim == target
                and minimal_containing_reference(building.members, poset, lam) == list(sub)
                for lam in comps
            ):
                return False
    return True


def _mixed_empty(positions, nested, member_layers, f):
    lays = [member_layers[p] for p in positions]
    lays += [member_layers[p] for p in nested.members]
    if not lays:
        return False
    comps = intersect_layers(lays)
    if not comps:
        return True
    if not nested.rays:
        return False
    return not any(
        closure_nonempty_with_orbit(k, tuple(nested.rays), f) for k in comps
    )


def f0_reference(f, building, nested):
    """Minimal position sets whose member intersection, cut by the nested
    set's members and ray orbits, is empty: every subset, by size and then
    lexicographically."""
    m = building.size
    member_layers = [building.member_layer(p) for p in range(m)]
    found = []
    for size in range(1, m + 1):
        for a in itertools.combinations(range(m), size):
            if any(set(prev) <= set(a) for prev in found):
                continue
            if _mixed_empty(a, nested, member_layers, f):
                found.append(a)
    return found


def minimal_empty_filter_reference(building, nested, f):
    """present._minimal_empty with its all-pairs filter: every empty
    antichain of the mask walk, then those with no empty proper subset
    among them."""
    poset = building.poset
    start = sum(
        1 << k
        for k, e in enumerate(poset.elements)
        if not any(pairing(chi, f.rays[i]) for i in nested.rays for chi in e.gamma.basis)
    )
    for p in nested.members:
        start &= poset.below[building.members[p]]
    pos = {i: p for p, i in enumerate(building.members)}
    empty = sorted(
        (len(sub), tuple(sorted(pos[i] for i in sub)))
        for sub, mask in antichains(building.members, poset, start)
        if not mask
    )
    return [a for _, a in empty if not any(set(b) < set(a) for _, b in empty)]


def poset_closure_reference(arrangement):
    """build_layer_poset by passes over every ordered pair of the pool, self
    pairs included, until a pass adds nothing."""
    pool = []
    for l in arrangement:
        if l not in pool:
            pool.append(l)
    while True:
        new = []
        for a in pool:
            for b in pool:
                for comp in intersect_layers([a, b]):
                    if comp not in pool and comp not in new:
                        new.append(comp)
        if not new:
            break
        pool.extend(new)
    elements = tuple(sorted(pool, key=lambda l: l.sort_key()))
    incl = tuple(
        tuple(layer_inclusion(a, b) for b in elements) for a in elements
    )
    return LayerPoset(elements, incl)


# -- ring slices over all monomials ----------------------------------------


def full_slice_reference(ring, d):
    """(monomials, index, row echelon) of the degree-d slice with a column
    per monomial in the surviving generators and a row per substituted
    relation, unit monomials included, times every monomial of the
    complementary degree."""
    momos = ring.monomials(d)
    index = {e: k for k, e in enumerate(momos)}
    ech = DenseRowEchelon(len(momos))
    for r in ring.substituted_relations():
        p = from_terms(r)
        e = pdegree(p)
        if e > d:
            continue
        for shift in ring.monomials(d - e):
            row = [0] * len(momos)
            for exp, c in pmul_mono(p, shift).items():
                row[index[exp]] = c
            ech.insert(row)
    return momos, index, ech


class FullSlices:
    """full_slice_reference per degree of one ring, built on first use."""

    def __init__(self, ring):
        self.ring = ring
        self._tables = {}

    def __call__(self, d):
        if d not in self._tables:
            self._tables[d] = full_slice_reference(self.ring, d)
        return self._tables[d]

    def vector_of(self, p, d):
        momos, index, _ = self(d)
        row = [0] * len(momos)
        for e, c in p.items():
            row[index[e]] = c
        return row

    def normal_form(self, p):
        """Frozen terms of the reduced representative of p."""
        out = {}
        for d, part in psplit(self.ring.substitute(p)).items():
            momos, _, ech = self(d)
            for e, c in zip(momos, ech.reduce_vector(self.vector_of(part, d))):
                if c:
                    out[e] = c
        return canon_terms(out)


def standard_monomials_reference(ring, d):
    """GradedRing.standard_monomials in its tuple-slicing form: grow degree d
    from degree d-1 one variable at a time, then keep the monomials that are
    no unit relation and whose quotients by one variable are all standard."""
    units = {r[0][0] for r in ring.substituted_relations() if len(r) == 1 and abs(r[0][1]) == 1}
    if d == 0:
        zero = (0,) * ring.nvars
        return [] if zero in units else [zero]
    prev = set(standard_monomials_reference(ring, d - 1))
    grown = {m[:i] + (m[i] + 1,) + m[i + 1 :] for m in prev for i in ring.surviving}
    out = [
        e
        for e in grown
        if e not in units and all(e[:j] + (k - 1,) + e[j + 1 :] in prev for j, k in enumerate(e) if k)
    ]
    return sorted(out, reverse=True)


def f_base_reference(model, i, mlayer, lift_rel=lift_chern_relative, base=None):
    """The F base of member i over mlayer, by dict polynomials: sum_k
    coeff_k shift_i^k, with shift_i minus the sum of the t_h of the members
    inside G_i, by pmul and ppow on the model generators; as (terms, terms
    of its substitution in the relation-free ring on those generators).
    base defaults to the Model's."""
    f, building = model.fan, model.building
    base = base or model.base
    m, nc = building.size, len(f.rays)
    nvars = nc + m
    ids, incl = building.members, building.poset.inclusion
    shift = {}
    for h in range(m):
        if incl[ids[h]][ids[i]]:
            shift = padd(shift, pvar(nc + h, nvars, -1))
    lift = lift_rel(building.member_layer(i), mlayer, base, f)
    poly = {}
    for k, coeff in enumerate(c.poly() for c in lift.coefficients):
        ext = {e + (0,) * m: c for e, c in coeff.items()}
        poly = padd(poly, pmul(ext, ppow(shift, k, nvars)))
    subst = {v: {e + (0,) * m: c for e, c in p.items()} for v, p in base.substitutions.items()}
    sub = GradedRing(base.names + tuple("t:%d" % p for p in range(m)), (), base.eliminate, subst)
    return canon_terms(poly), canon_terms(sub.substitute(poly))


def f_groups_reference(model, nested, lift_rel=lift_chern_relative):
    """The F groups of a model or stratum presentation, built per (i, A):
    f_base_reference for a fresh lift of (G_i, M) on a fresh base ring,
    times t^A, degree-checked.  As (group, provenance, terms) triples in the
    order of present._assemble, provenance in its JSON form."""
    f, building = model.fan, model.building
    base = danilov_ring(f)
    m, nc = building.size, len(f.rays)
    nvars = nc + m
    ids, incl = building.members, building.poset.inclusion
    out = []
    for i in range(m):
        g_layer, g = building.member_layer(i), ids[i]
        s_i = [p for p in nested.members if ids[p] != g and incl[g][ids[p]]]
        supersets = [j for j in range(m) if ids[j] != g and incl[g][ids[j]]]
        for size in range(len(supersets) + 1):
            for a in itertools.combinations(supersets, size):
                combo = sorted(set(a) | set(s_i))
                if combo:
                    comps = building.poset.meet([ids[j] for j in combo])
                    (where,) = [k for k in comps if incl[g][k]]
                    mlayer = building.poset.elements[where]
                else:
                    mlayer = torus(f.rank)
                poly = from_terms(f_base_reference(model, i, mlayer, lift_rel, base)[0])
                e = [0] * nvars
                for j in a:
                    e[nc + j] += 1
                poly = pmul_mono(poly, tuple(e))
                if pdegree(poly) != g_layer.codim - mlayer.codim + len(a):
                    raise InvariantViolated("F(%d, %r) has degree %d" % (i, list(a), pdegree(poly)))
                prov = {"member": i, "others": list(a), "component": layer_to_dict(mlayer)}
                out.append(("F", prov, canon_terms(poly)))
    return out



def irredundant_reference(model, nested):
    """Per member position i, the sets A of members strictly above G_i
    (sorted tuples) from which no member can be dropped without changing
    the component holding G_i in the meet of A and of the nested members
    above G_i: every superset choice, filtered."""
    building = model.building
    poset, ids = building.poset, building.members
    incl = poset.inclusion
    out = {}
    for i, g in enumerate(ids):
        s_i = [p for p in nested.members if ids[p] != g and incl[g][ids[p]]]
        supersets = [j for j in range(len(ids)) if ids[j] != g and incl[g][ids[j]]]
        where = {}
        for size in range(len(supersets) + 1):
            for a in itertools.combinations(supersets, size):
                combo = sorted(set(a) | set(s_i))
                if combo:
                    (where[a],) = [k for k in poset.meet([ids[j] for j in combo]) if incl[g][k]]
                else:
                    where[a] = None
        out[i] = {a for a in where if all(where[a[:x] + a[x + 1 :]] != where[a] for x in range(len(a)))}
    return out


def all_subsets_ring(pres, model, nested):
    """The ring of a presentation with every F(i, A) among its relations:
    its listed groups of the other families, then f_groups_reference."""
    ring = pres.ring
    rels = [t for g, _, t in pres.groups if g != "F"]
    rels += [t for _, _, t in f_groups_reference(model, nested)]
    return GradedRing(ring.names, rels, ring.eliminate, ring.substitutions)

def restriction_kernel_reference(rmap, kernel_gens, max_degree):
    """restriction_kernel_report computed on full slices of both rings."""
    src = FullSlices(rmap.source)
    tgt = FullSlices(rmap.target)
    bad = []
    for d in range(1, max_degree + 1):
        src_momos, _, src_ech = src(d)
        tgt_momos, _, tgt_ech = tgt(d)
        cols = [
            tgt.vector_of(rmap.target.substitute(rmap.apply({e: 1})), d)
            for e in src_momos
        ]
        rel_rows = tgt_ech.hnf_rows()
        mat = [
            [col[i] for col in cols] + [-r[i] for r in rel_rows]
            for i in range(len(tgt_momos))
        ]
        ker = kernel_basis(mat, len(src_momos) + len(rel_rows))
        got = tuple(hermite_normal_form([row[: len(src_momos)] for row in ker]))
        span = DenseRowEchelon(len(src_momos))
        for row in src_ech.hnf_rows():
            span.insert(row)
        for g in kernel_gens:
            p = rmap.source.substitute(g)
            if not p or pdegree(p) > d:
                continue
            for shift in rmap.source.monomials(d - pdegree(p)):
                span.insert(src.vector_of(pmul_mono(p, shift), d))
        if got != tuple(span.hnf_rows()):
            bad.append(("kernel_mismatch", d))
    return Report(tuple(bad))


# -- batch and dense echelon forms --------------------------------------------


class DenseRowEchelon:
    """lattice.RowEchelon with every row a dense list of width ncols."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}
        self._reduced = True

    @property
    def rank(self):
        return len(self.pivots)

    def insert(self, row):
        row = list(row)
        while True:
            j = next((k for k, x in enumerate(row) if x), None)
            if j is None:
                return
            if j not in self.pivots:
                if row[j] < 0:
                    row = [-x for x in row]
                self.pivots[j] = row
                self._reduced = False
                return
            p = self.pivots[j]
            if row[j] % p[j] == 0:
                q = row[j] // p[j]
                row = [x - q * y for x, y in zip(row, p)]
            else:
                g, a, b = xgcd(p[j], row[j])
                pj, rj = p[j] // g, row[j] // g
                self.pivots[j] = [a * x + b * y for x, y in zip(p, row)]
                row = [-rj * x + pj * y for x, y in zip(p, row)]
                self._reduced = False

    def back_reduce(self):
        if self._reduced:
            return
        cols = sorted(self.pivots)
        for pos in range(len(cols) - 1, -1, -1):
            j = cols[pos]
            for j2 in cols[pos + 1 :]:
                p2 = self.pivots[j2]
                q = self.pivots[j][j2] // p2[j2]
                if q:
                    self.pivots[j] = [
                        x - q * y for x, y in zip(self.pivots[j], p2)
                    ]
        self._reduced = True

    def hnf_rows(self):
        self.back_reduce()
        return [tuple(self.pivots[j]) for j in sorted(self.pivots)]

    def reduce_vector(self, vec):
        self.back_reduce()
        v = list(vec)
        for j in sorted(self.pivots):
            p = self.pivots[j]
            q = v[j] // p[j]
            if q:
                v = [x - q * y for x, y in zip(v, p)]
        return v

    def torsion(self):
        rows = self.hnf_rows()
        if all(row[j] == 1 for row, j in zip(rows, sorted(self.pivots))):
            return ()
        return tuple(d for d in elementary_divisors(rows) if d != 1)



def hermite_normal_form_reference(mat, *, transform=False):
    """lattice.hermite_normal_form as one batch elimination by 2x2
    unimodular row operations; with transform=True also a unimodular U with
    U * mat == [H; zero rows]."""
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for j in range(n):
        piv = next((i for i in range(r, m) if a[i][j]), None)
        if piv is None:
            continue
        for i in range(piv + 1, m):
            if a[i][j] == 0:
                continue
            g, x, y = xgcd(a[piv][j], a[i][j])
            p, q = a[piv][j] // g, a[i][j] // g
            for mat_ in (a, u):
                mat_[piv], mat_[i] = (
                    [x * s + y * t for s, t in zip(mat_[piv], mat_[i])],
                    [-q * s + p * t for s, t in zip(mat_[piv], mat_[i])],
                )
        if a[piv][j] < 0:
            a[piv] = [-x for x in a[piv]]
            u[piv] = [-x for x in u[piv]]
        a[r], a[piv] = a[piv], a[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r):
            q = a[i][j] // a[r][j]
            if q:
                a[i] = [s - q * t for s, t in zip(a[i], a[r])]
                u[i] = [s - q * t for s, t in zip(u[i], u[r])]
        r += 1
    h = tuple(tuple(row) for row in a[:r])
    return (h, tuple(tuple(row) for row in u)) if transform else h


def solve_in_lattice_reference(basis, target):
    """lattice.solve_in_lattice through the batch HNF and its transform:
    divide the target down the HNF rows, then map the coordinates back."""
    basis = [list(map(int, row)) for row in basis]
    t = list(map(int, target))
    if not basis:
        return () if not any(t) else None
    h, u = hermite_normal_form_reference(basis, transform=True)
    if len(h) != len(basis):
        raise ValueError("basis rows are dependent")
    coeffs = [0] * len(h)
    for i, row in enumerate(h):
        j = next(k for k, x in enumerate(row) if x)
        if t[j] % row[j]:
            return None
        coeffs[i] = t[j] // row[j]
        t = [s - coeffs[i] * x for s, x in zip(t, row)]
    if any(t):
        return None
    return tuple(sum(coeffs[i] * u[i][k] for i in range(len(h))) for k in range(len(basis)))


def toric_elimination_reference(f):
    """cohomology.toric_elimination by Gauss-Jordan over Fractions on the
    degree-1 relations, A x_ref = -B x_rest."""
    if not f.max_cones:
        return (), {}
    ref = min(f.max_cones)
    if not ref:
        return (), {}
    n = f.rank
    rest = [i for i in range(len(f.rays)) if i not in set(ref)]
    aug = [[Fraction(f.rays[j][i]) for j in list(ref) + rest] for i in range(n)]
    for col in range(len(ref)):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                aug[i] = [x - aug[i][col] * y for x, y in zip(aug[i], aug[col])]
    subst = {}
    nvars = len(f.rays)
    for pos, var in enumerate(ref):
        p = {}
        for k, r in enumerate(rest):
            val = -aug[pos][len(ref) + k]
            if val.denominator != 1:
                raise InvariantViolated("non-integral elimination: %s" % val)
            if val:
                p[tuple(int(i == r) for i in range(nvars))] = int(val)
        subst[var] = p
    return tuple(ref), subst


# -- Fraction forms of the Q/Z and cone kernels ------------------------------


def solve_torsion_congruences_reference(gens, values, ambient_rank):
    """lattice.solve_torsion_congruences with every Q/Z value a Fraction."""
    values = [qz(v) for v in values]
    if len(gens) != len(values):
        raise ValueError("one value per generator required")
    frame = torsion_frame(gens, ambient_rank)
    if frame.sat.rank == 0:
        return [()] if all(v == 0 for v in values) else []
    u, divisors, v = frame.u, frame.divisors, frame.v
    m, s = len(values), len(divisors)
    w = [qz(sum(Fraction(u[i][j]) * values[j] for j in range(m))) for i in range(m)]
    for i in range(s, m):
        if w[i] != 0:
            return []
    sols = []

    def rec(i, ys):
        if i == s:
            x = tuple(
                qz(sum(Fraction(v[row][col]) * ys[col] for col in range(s)))
                for row in range(s)
            )
            sols.append(x)
            return
        base = w[i] / divisors[i]
        for k in range(divisors[i]):
            rec(i + 1, ys + [qz(base + Fraction(k, divisors[i]))])

    rec(0, [])
    return sorted(set(sols))


def value_on_reference(lay, chi):
    """layers.Layer.value_on summed in Fractions."""
    coords = solve_in_lattice(lay.gamma.basis, chi)
    if coords is None:
        raise ValueError("character not in the layer's lattice: %r" % (chi,))
    return qz(sum(Fraction(c) * v for c, v in zip(coords, lay.phi)))


def layer_phi_reference(gamma_rows, phi, ambient_rank):
    """The canonical phi of layers.layer(gamma_rows, phi, ambient_rank),
    summed in Fractions."""
    rows = [list(map(int, r)) for r in gamma_rows]
    phi = [qz(v) for v in phi]
    lat = sublattice(rows, ambient_rank)
    canon_phi = []
    for h in lat.basis:
        coords = solve_in_lattice(rows, list(h)) if rows else ()
        canon_phi.append(qz(sum(Fraction(c) * v for c, v in zip(coords, phi))))
    return tuple(canon_phi)


def feasible_nonneg_reference(A, b):
    """fans.feasible_nonneg as a phase-1 simplex over Fractions, with the
    same Bland rule."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    rhs = []
    for row, bv in zip(A, b):
        row = [Fraction(x) for x in row]
        bv = Fraction(bv)
        if bv < 0:
            row = [-x for x in row]
            bv = -bv
        rows.append(row)
        rhs.append(bv)
    if m == 0:
        return True
    # tableau columns: n originals + m artificials
    T = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # objective: minimize sum of artificials; reduced costs start from that
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= T[i][j]
    for j in range(n, n + m):
        cost[j] += 1
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return False
        _, pivot_row = best
        piv = T[pivot_row][enter]
        T[pivot_row] = [x / piv for x in T[pivot_row]]
        for i in range(m):
            if i != pivot_row and T[i][enter]:
                coef = T[i][enter]
                T[i] = [x - coef * y for x, y in zip(T[i], T[pivot_row])]
        if cost[enter]:
            coef = cost[enter]
            cost = [x - coef * y for x, y in zip(cost, T[pivot_row])]
        basis[pivot_row] = enter
    return -cost[-1] == 0


def relint_coords_reference(f, cone, vec):
    """Fraction coordinates of vec on the cone's rays by Gauss-Jordan
    elimination over Q, or None if vec is outside their span."""
    rows = [f.rays[i] for i in cone]
    m = len(rows)
    n = f.rank
    aug = [[Fraction(rows[i][j]) for i in range(m)] + [Fraction(vec[j])] for j in range(n)]
    piv_cols = []
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, n) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][col] for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][col]:
                aug[i] = [x - aug[i][col] * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(col)
        r += 1
    for i in range(r, n):
        if aug[i][-1]:
            return None
    coords = [Fraction(0)] * m
    for row_idx, col in enumerate(piv_cols):
        coords[col] = aug[row_idx][-1]
    if r < m:
        raise ValueError("cone rays are dependent")
    return coords


def cone_face_compat_reference(f, lat):
    """fans.cone_face_compat with one LP per outside ray of each cone and
    every pairing computed again per cone."""
    inside = {
        i for i, r in enumerate(f.rays) if all(pairing(chi, r) == 0 for chi in lat.basis)
    }
    bad = []
    for c in f.max_cones:
        outside = [j for j in c if j not in inside]
        if not outside:
            continue
        # violation iff some x = sum lam_j r_j with lam >= 0, lam_j >= 1 for
        # one outside j, pairing zero against every basis character
        A = [[pairing(chi, f.rays[i]) for i in c] for chi in lat.basis]
        for j in outside:
            # substitute lam_j = 1 + mu_j
            b = [-pairing(chi, f.rays[j]) for chi in lat.basis]
            if feasible_nonneg_reference(A, b):
                bad.append(("interior_meets_kernel", c, j))
                break
    return Report(tuple(bad))


def validate_smooth_reference(f):
    """fans.validate_smooth by the Smith form of the rays of every cone."""
    return Report(tuple(
        ("not_smooth", c) for c in f.max_cones
        if c and any(d != 1 for d in elementary_divisors([f.rays[i] for i in c]))
    ))


def validate_complete_reference(f):
    """fans.validate_complete with a list of owner cones per wall and a
    graph search over the walls' owner pairs."""
    if f.rank == 0:
        return Report()
    bad = [("not_full_dimensional", c) for c in f.max_cones if len(c) != f.rank]
    if bad:
        return Report(tuple(bad))
    walls = {}
    for ci, c in enumerate(f.max_cones):
        for drop in c:
            walls.setdefault(tuple(i for i in c if i != drop), []).append(ci)
    bad = [("wall_count", w, len(owners)) for w, owners in sorted(walls.items()) if len(owners) != 2]
    if bad:
        return Report(tuple(bad))
    seen, frontier = {0}, [0]
    while frontier:
        cur = frontier.pop()
        for owners in walls.values():
            if cur in owners:
                frontier += [o for o in owners if o not in seen]
                seen.update(owners)
    if len(seen) != len(f.max_cones):
        return Report((("disconnected", len(seen), len(f.max_cones)),))
    return Report()


def incidence_reference(f):
    """Fan.incidence by testing every ray against every max cone."""
    return tuple(
        sum(1 << k for k, c in enumerate(f.max_cones) if i in c) for i in range(len(f.rays))
    )


def star_cones_reference(f, cone, star):
    """The max cones of stellar_subdivide(f, cone, ray) when the new ray gets
    index star, by an issubset scan over every max cone of f."""
    out = []
    for c in f.max_cones:
        if set(cone).issubset(c):
            out += [tuple(sorted([i for i in c if i != drop] + [star])) for drop in cone]
        else:
            out.append(c)
    return tuple(out)


def search_good_fan_reference(f, lattices, budget=64):
    """fans.search_good_fan searching every lattice again on every new fan."""
    current = f
    steps = 0
    while True:
        pending = None
        for idx, lat in enumerate(lattices):
            if find_equal_sign_basis(current, lat) is None:
                pending = first_equal_sign_violation(current, lat)
                if pending is None:
                    for c in current.max_cones:
                        if any(pairing(chi, current.rays[i]) for chi in lat.basis for i in c):
                            pending = (c, lat.basis[0], c)
                            break
                break
        if pending is None:
            return current, steps
        cone, chi, face = pending
        if steps >= budget:
            rays = ", ".join(str(list(current.rays[i])) for i in cone)
            raise BudgetExhausted(
                "no good fan within %d subdivisions: lattice %d (basis %s) is mixed on"
                " cone %s (rays [%s]) by character %s"
                % (budget, idx, [list(r) for r in lat.basis], list(cone), rays, list(chi))
            )
        total = [sum(current.rays[i][j] for i in face) for j in range(current.rank)]
        current = stellar_subdivide(current, face, primitive(total))
        steps += 1


def equal_sign_check_reference(f, basis):
    """fans.equal_sign_check pairing each character with every ray of
    every cone."""
    bad = []
    for c in f.max_cones:
        for bi, chi in enumerate(basis):
            vals = [pairing(chi, f.rays[i]) for i in c]
            if any(v > 0 for v in vals) and any(v < 0 for v in vals):
                bad.append(("mixed_signs", c, bi))
    return Report(tuple(bad))


def find_equal_sign_basis_reference(f, lat, bound=2):
    """fans.find_equal_sign_basis with coefficients in [0, 1, -1, ...,
    bound, -bound], one Report per candidate."""
    s = lat.rank
    if s == 0:
        return ()
    coeff_pool = [0]
    for v in range(1, bound + 1):
        coeff_pool += [v, -v]
    candidates = []
    for combo in itertools.product(coeff_pool, repeat=s):
        combo = combo[::-1]
        if math.gcd(*combo) != 1:
            continue
        chi = tuple(
            sum(c * row[j] for c, row in zip(combo, lat.basis))
            for j in range(lat.ambient_rank)
        )
        if equal_sign_check_reference(f, [chi]).ok:
            candidates.append((combo, chi))
    for subset in itertools.combinations(range(len(candidates)), s):
        mat = [list(candidates[i][0]) for i in subset]
        h = hermite_normal_form(mat)
        if len(h) == s and all(h[i][i] == 1 for i in range(s)):
            return tuple(candidates[i][1] for i in subset)
    return None


def first_equal_sign_violation_reference(f, lat):
    """fans.first_equal_sign_violation pairing per cone and character."""
    for c in f.max_cones:
        for chi in lat.basis:
            vals = [pairing(chi, f.rays[i]) for i in c]
            if any(v > 0 for v in vals) and any(v < 0 for v in vals):
                face = tuple(i for i, v in zip(c, vals) if v != 0)
                return c, chi, face
    return None


def equal_sign_adapted_basis_reference(f, g_lat, m_lat, bound=2):
    """chern.equal_sign_adapted_basis over the reference searches."""
    if m_lat.rank == 0:
        basis = find_equal_sign_basis_reference(f, g_lat, bound)
        if basis is None:
            raise NoBasis("no equal-sign basis for the layer lattice")
        return basis, 0
    m_basis = find_equal_sign_basis_reference(f, m_lat, bound)
    if m_basis is None:
        raise NoBasis("no equal-sign basis for the larger layer's lattice")
    ab = adapted_basis(g_lat, m_lat)
    k = ab.split_index
    corrected = []
    pool = [0]
    for v in range(1, bound + 1):
        pool += [v, -v]
    for w in ab.vectors[k:]:
        found = None
        for sign in (1, -1):
            for combo in itertools.product(pool, repeat=k):
                cand = tuple(
                    sign * w[j] + sum(c * row[j] for c, row in zip(combo, m_lat.basis))
                    for j in range(len(w))
                )
                if equal_sign_check_reference(f, [cand]).ok:
                    found = cand
                    break
            if found:
                break
        if found is None:
            raise NoBasis("no equal-sign completion within correction bound")
        corrected.append(found)
    return tuple(m_basis) + tuple(corrected), k


# -- references that no command runs -----------------------------------------
# Layer inclusion by lattice arithmetic, the lift of a pair from one shared
# basis, HNFs over all monomials, and the restriction maps with their kernel
# lattices and induced fans: the package computes none of them on its way to
# a presentation.


def kernel_basis(mat, n=None):
    """HNF basis of the integer right kernel {v : mat @ v == 0} as rows."""
    m = len(mat)
    if n is None:
        n = len(mat[0]) if m else 0
    if m == 0:
        return hermite_normal_form(identity(n))
    _, d, v, _ = smith_normal_form(mat)
    rank = sum(1 for i in range(min(m, n)) if d[i][i])
    cols = [[v[i][j] for i in range(n)] for j in range(rank, n)]
    return hermite_normal_form(cols)


def induced_fan(f, lat):
    """Fan induced on the sublattice of vectors annihilated by lat.

    Cones are the cones of f lying inside that subspace, with rays rewritten
    in the canonical basis of the kernel sublattice.  Requires face
    compatibility; raises ValueError otherwise.  Built as a Fan, as
    stellar_subdivide builds one: faces of the simplicial cones of a fan, in
    coordinates of the saturated kernel lattice, keep every invariant that
    fan() checks.  When f is smooth and complete, so is the result.
    """
    compat = cone_face_compat(f, lat)
    if not compat.ok:
        raise ValueError("fan is not compatible with the sublattice: %r" % (compat.failures,))
    if lat.rank == 0:
        return f
    kernel = kernel_basis(lat.basis, lat.ambient_rank)
    inside = rays_in_kernel(f, lat)
    sub_cones = []
    for c in f.max_cones:
        sc = tuple(i for i in c if i in inside)
        if sc not in sub_cones:
            sub_cones.append(sc)
    maximal = [c for c in sub_cones if not any(set(c) < set(d) for d in sub_cones)]
    if maximal == [()]:
        return Fan(0, (), ((),))
    used = sorted({i for c in maximal for i in c})
    new_rays = []
    for i in used:
        y = solve_in_lattice(kernel, f.rays[i])
        if y is None:
            raise InvariantViolated("ray %d is not in the kernel lattice" % i)
        new_rays.append(y)
    renumber = {old: new for new, old in enumerate(used)}
    cones = sorted(tuple(sorted(renumber[i] for i in c)) for c in maximal)
    return Fan(len(kernel), tuple(new_rays), tuple(cones))


def closure_nonempty_with_orbit(lay, cone, f):
    """Whether the closure of the layer meets the orbit of the cone: true iff
    every ray of the cone is annihilated by the layer's lattice."""
    return all(
        pairing(chi, f.rays[i]) == 0 for i in cone for chi in lay.gamma.basis
    )


def value_on(lay, chi):
    """The layer's phi extended linearly to a character of its lattice, by
    the int Q/Z sum lattice.qz_dot."""
    coords = solve_in_lattice(lay.gamma.basis, chi)
    if coords is None:
        raise ValueError("character not in the layer's lattice: %r" % (chi,))
    return qz_dot(coords, lay.phi)


def layer_inclusion(a, b):
    """True iff a is contained in b as subvarieties of the torus."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient ranks differ")
    if any(solve_in_lattice(a.gamma.basis, row) is None for row in b.gamma.basis):
        return False
    return all(value_on(a, row) == v for row, v in zip(b.gamma.basis, b.phi))


def lift_chern_pair(G, M, ring, f):
    """(P_G, P_M, P_G_rel) computed from one shared adapted basis, so the
    factorization P_G = P_M * P_G_rel holds on the nose.  Same precondition
    as chern.lift_chern_relative."""
    basis, k = equal_sign_adapted_basis(f, G.gamma, M.gamma)
    factors = [divisor_class_raw(b, f, ring.nvars) for b in basis]
    p_g = make_lifted(factors, ring)
    p_m = make_lifted(factors[:k], ring)
    p_rel = make_lifted(factors[k:], ring)
    # coefficient-wise identity of the product
    prod = [pconst(0, ring.nvars) for _ in p_g.coefficients]
    for i, a in enumerate(c.poly() for c in p_m.coefficients):
        for j, b in enumerate(c.poly() for c in p_rel.coefficients):
            prod[i + j] = padd(prod[i + j], pmul(a, b))
    for got, want in zip(prod, p_g.coefficients):
        if ring.normal_form(got).terms != want.terms:
            raise InvariantViolated("P_G is not P_M * P_G_rel")
    return p_g, p_m, p_rel


def unpacked(ring, packed):
    """The exponent tuples of a ring's packed monomials."""
    digit = (1 << ring._bits) - 1
    return [tuple(k >> s & digit for s in ring._shifts) for k in packed]


def standard_monomials(ring, d):
    """The degree-d monomials in the surviving generators that no
    unit-monomial relation divides, as exponent tuples, in the order of
    `monomials(d)`: the monomials the ring's degree-d walk grew."""
    ring.slice_table(d)
    return unpacked(ring, ring._walks[d][0])


def full_hnf_rows(ring, d, rows=None):
    """HNF over all of `ring.monomials(d)`, rebuilt from three kinds of row: a
    unit row per non-standard monomial, the row m - NF(m) per monomial m that
    a lower unit lead divides, and `rows` (default: the slice's HNF), which
    live on the slice columns."""
    cols, index, ech = ring.slice_table(d)
    mons, _, _, image = ring._walks[d]
    allmomos = ring.monomials(d)
    pos = {ring._pack(e): j for j, e in enumerate(allmomos)}
    where = [pos[k] for k in cols]
    full = RowEchelon(len(allmomos), ({pos[k]: 1} for k in pos.keys() - set(mons)))
    for m, form in image.items():
        if m not in index:
            full.insert({pos[m]: 1, **{where[j]: -c for j, c in form}})
    for row in ech.hnf_rows() if rows is None else rows:
        full.insert({where[j]: c for j, c in enumerate(row) if c})
    return full.hnf_rows()


def ideal_equal_up_to(pres_a, pres_b, max_degree):
    """Degree-by-degree equality of the relation lattices of two
    presentations on the same generators.  The HNFs are compared over all
    monomials, since the two rings' standard monomials differ when their
    unit-monomial relations do."""
    if pres_a.ring.names != pres_b.ring.names:
        raise ValueError("presentations live on different generators")
    return all(
        full_hnf_rows(pres_a.ring, d) == full_hnf_rows(pres_b.ring, d)
        for d in range(max_degree + 1)
    )


@dataclass(frozen=True)
class RingMap:
    source: GradedRing
    target: GradedRing
    images: tuple  # per source generator: a polynomial in target vars, or None

    def apply(self, p):
        if isinstance(p, RingElement):
            p = p.poly()
        out = {}
        for e, c in p.items():
            term = pconst(c, self.target.nvars)
            dead = False
            for i, k in enumerate(e):
                if not k:
                    continue
                if self.images[i] is None:
                    dead = True
                    break
                term = pmul(term, ppow(self.images[i], k, self.target.nvars))
            if not dead:
                out = padd(out, term)
        return out


def restriction_map(ring, lat, f):
    """Surjection onto the cohomology of the layer closure: c_r keeps its
    class when the ray survives into the induced fan, dies otherwise."""
    target = danilov_ring(induced_fan(f, lat))
    position = {r: k for k, r in enumerate(sorted(rays_in_kernel(f, lat)))}
    images = tuple(
        pvar(position[r], target.nvars) if r in position else None for r in range(len(f.rays))
    )
    return target, RingMap(ring, target, images)


def kernel_lattice(rmap, d):
    """HNF basis of the degree-d part of the full kernel lattice: vectors
    over the source's `monomials(d)` whose image lands in the target
    relation span."""
    src, tgt = rmap.source, rmap.target
    src_momos = src.monomials(d)
    tgt_momos, _, tgt_ech = tgt.slice_table(d)
    cols = [tgt.vector_of(tgt.substitute(rmap.apply({e: 1})), d) for e in src_momos]
    rel_rows = tgt_ech.hnf_rows()
    # kernel of [images | -relations] projected onto the source coordinates
    mat = [
        [col.get(i, 0) for col in cols] + [-r[i] for r in rel_rows]
        for i in range(len(tgt_momos))
    ]
    ker = kernel_basis(mat, len(src_momos) + len(rel_rows))
    return hermite_normal_form([row[: len(src_momos)] for row in ker])


def ideal_slice(ring, extra_gens, d):
    """HNF over `monomials(d)` of the degree-d span of the ring's relations
    plus extra ideal generators (given as polynomials)."""
    ech = ring.slice_table(d)[2]
    span = RowEchelon(ech.ncols, ech.hnf_rows())
    for p in map(ring.substitute, extra_gens):
        if p and pdegree(p) <= d:
            for shift in ring.monomials(d - pdegree(p)):
                span.insert(ring.vector_of(pmul_mono(p, shift), d))
    return tuple(full_hnf_rows(ring, d, span.hnf_rows()))


def restriction_kernel_report(rmap, kernel_gens, max_degree):
    """Check that the stated generators span the kernel of the restriction in
    every degree up to max_degree.  Exact lattice comparison, no ranks."""
    bad = []
    for d in range(1, max_degree + 1):
        if tuple(kernel_lattice(rmap, d)) != ideal_slice(rmap.source, kernel_gens, d):
            bad.append(("kernel_mismatch", d))
    return Report(tuple(bad))
