"""Independent reference computations used by several test files.

These deliberately take a different route from the library code they verify:
nestedness in the augmented building set is re-derived from the full
stratified poset of (layer, cone) pairs, ring slices are rebuilt over every
monomial of their degree with every relation as a row, and the member-subset
searches and the poset closure go through every subset and every pair.
"""

import itertools

from wondertoric.building import minimal_containing
from wondertoric.cohomology import (
    RowEchelon,
    canon_terms,
    from_terms,
    pdegree,
    pmul_mono,
    psplit,
)
from wondertoric.fans import Report, pairing
from wondertoric.lattice import hermite_normal_form, kernel_basis
from wondertoric.layers import (
    LayerPoset,
    closure_nonempty_with_orbit,
    intersect_layers,
    layer_inclusion,
)


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
        if minimal_containing(building.members, poset, lam) != list(layer_part):
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
    return Report(not bad, tuple(bad))


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
                and minimal_containing(building.members, poset, lam) == list(sub)
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
    ech = RowEchelon(len(momos))
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
        span = RowEchelon(len(src_momos))
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
    return Report(not bad, tuple(bad))
