"""Relation ideals of the compactified model and of its boundary strata.

The model ring lives on one generator per fan ray plus one generator t_i per
ordered building-set member.  Four relation families cut it down: the toric
relations of the base, the annihilators t_i c_r, the lifted Chern relations
F(i,A), and the monomials F(0,A) for empty intersections.  Strata get the
same families relative to a nested set, plus degree-one c_r relations for
rays whose divisor misses the stratum.  Only those c_r relations, the F0
monomials and the F relations of a member with nested members above it
depend on the nested set; a Model keeps the rest, substituted, for all.

F(i, A) is t^A times the F base of G_i over `where`, the component holding
G_i in the intersection of the members of A and of the nested members above
G_i.  When dropping j from A keeps `where`, F(i, A) = t_j F(i, A - j), so
the ring takes only the irredundant A, found by a walk that never visits the
others.  A document lists every F(i, A), as the paper's presentation does:
the relation groups of a presentation are built when they are first read.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from types import MappingProxyType

from .building import BuildingSet, antichains, combined_lattice, is_nested_plus
from .chern import lift_chern_relative
from .cohomology import GradedRing, canon_terms, danilov_ring, pdegree, toric_relations
from .errors import InvariantViolated, NotGood, NotNested
from .fans import fan_to_dict, pairing, rays_in_kernel, validate_good
from .layers import layer_to_dict, torus


@dataclass(frozen=True)
class NestedSet:
    members: tuple  # positions into the building order
    rays: tuple  # fan ray indices


def nested_set(members=(), rays=()):
    return NestedSet(
        tuple(sorted(set(int(p) for p in members))),
        tuple(sorted(set(int(r) for r in rays))),
    )


@dataclass(frozen=True)
class ModelPresentation:
    """A ring, whose F relations are the irredundant F(i, A), and the
    relation groups a document lists, built on first read of `groups`."""

    fan: object
    building: BuildingSet
    base: GradedRing
    ring: GradedRing
    listing: object = field(repr=False, compare=False)  # () -> groups

    @functools.cached_property
    def groups(self):
        """(group name, read-only provenance, frozen terms) triples, every
        F(i, A) among them, in document order."""
        return self.listing()


@dataclass(frozen=True)
class StratumPresentation(ModelPresentation):
    nested: NestedSet = nested_set()


def check_model_preconditions(f, building):
    """The model precondition a BuildingSet leaves: the fan must be good for
    every layer of the arrangement.  Raises NotGood."""
    rep = validate_good(f, [e.gamma for e in building.poset.elements])
    if not rep.ok:
        raise NotGood("fan is not good for the arrangement: %r" % (rep.failures,))


@dataclass(frozen=True)
class Model:
    """A fan and a building set that meet the model preconditions: the
    BuildingSet checked itself when it was made, and making a Model checks
    that the fan is good for it (check_model_preconditions, NotGood).
    Functions that take a Model check nothing again.

    A Model also keeps what every presentation of it shares: the base ring,
    built on first use; the F base of each Chern lift, by pair (G, M) of
    poset ids; the `where` of each F(i, A) visited, one memo per member i
    and nested members above G_i; the ring's relations with their
    substituted terms, among them member i's irredundant F(i, A) per nested
    members above G_i; and, once a document asks for them, the listed
    groups, among them every F(i, A), t^A times the F base of its lift.
    Reuse one Model for many presentations."""

    fan: object
    building: BuildingSet
    assembled: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        check_model_preconditions(self.fan, self.building)

    @functools.cached_property
    def base(self):
        """The cohomology ring of the fan's toric variety (danilov_ring)."""
        return danilov_ring(self.fan)


def _dead_rays(f, building, nested):
    """Rays whose divisor misses the stratum: adding the ray to the nested
    set must keep it nested, i.e. the enlarged ray set spans a cone whose
    rays are annihilated by the combined member lattice."""
    t_ids = [building.members[p] for p in nested.members]
    rays = range(len(f.rays))
    perp = rays_in_kernel(f, combined_lattice(t_ids, building)) if t_ids else rays
    spans = lambda r: tuple(sorted({*nested.rays, r})) in f.faces
    return [r for r in rays if r not in perp or not spans(r)]


def _minimal_empty(building, nested, f):
    """Minimal position sets whose member intersection, cut by the nested
    set's members and by the orbit closures of its rays, is empty; by size,
    then lexicographically.  A minimal set is an antichain, and its proper
    subsets are not empty, so one walk over antichains finds them all."""
    poset = building.poset
    # Start from the elements whose closure meets the rays' orbit: an upper
    # set (a larger layer has a smaller lattice), so the walk's masks hold
    # exactly what lies below the components that meet the orbit.
    start = sum(
        1 << k
        for k, e in enumerate(poset.elements)
        if not any(pairing(chi, f.rays[i]) for i in nested.rays for chi in e.gamma.basis)
    )
    for p in nested.members:
        start &= poset.below[building.members[p]]
    # an empty antichain is minimal when each facet, left out of the walk
    # only if empty, meets; one member has only the empty facet, the start
    masks = dict(antichains(building.members, poset, start))
    pos = {i: p for p, i in enumerate(building.members)}
    empty = sorted(
        (len(sub), tuple(sorted(pos[i] for i in sub)))
        for sub, mask in masks.items()
        if not mask and (len(sub) == 1 or all(masks.get(sub[:k] + sub[k + 1 :]) for k in range(len(sub))))
    )
    return [a for _, a in empty]


def _frozen(x):
    """A read-only copy of a provenance value: dicts as read-only views,
    lists as tuples, so no caller can change a kept group."""
    if isinstance(x, dict):
        return MappingProxyType({k: _frozen(v) for k, v in x.items()})
    return tuple(map(_frozen, x)) if isinstance(x, list) else x


def _plain(x):
    """The JSON value of a frozen provenance value: a fresh copy."""
    if isinstance(x, MappingProxyType):
        return {k: _plain(v) for k, v in x.items()}
    return [_plain(v) for v in x] if isinstance(x, tuple) else x


def _irredundant(supersets, where):
    """The sets A of supersets (sorted tuples) from which no member can be
    dropped without changing where(A), by size, then lexicographically.

    A depth-first walk extends A by a later superset while every member
    stays irredundant.  Irredundant sets are closed under subsets: for B
    inside A, where(A) is the component holding G_i of where(B) cut by the
    members of A - B, since the components of an intersection are disjoint,
    so if dropping j keeps where(B), it keeps where(A).  So the walk finds
    every irredundant set and no other."""
    found, stack = [], [((), 0)]
    while stack:
        a, start = stack.pop()
        found.append(a)
        for k in range(start, len(supersets)):
            b = a + (supersets[k],)
            w = where(b)
            if all(where(b[:x] + b[x + 1 :]) != w for x in range(len(b))):
                stack.append((b, k + 1))
    return sorted(found, key=lambda a: (len(a), a))


def _concat(coeffs, powers):
    """sum_k coeffs[k] powers[k], on the c_r then the t_h, as sorted terms."""
    return tuple(sorted((c + t, x * y) for terms, pw in zip(coeffs, powers) for c, x in terms for t, y in pw.items()))


def _assemble(model, nested, lift_rel):
    """The ring of a model or stratum, and a function that lists its
    relation groups for a document.  Both go through the relation families
    in document order; the ring takes the irredundant F(i, A), the listing
    every F(i, A).  The families that do not depend on the nested set, a
    member's F relations per nested members above it, the `where` of each
    F(i, A) and the F base of each lift are built and substituted once per
    Model; a caller's lift_rel gets a fresh memo, so it sees every pair, and
    its listing reads its own F bases."""
    f, building, base = model.fan, model.building, model.base
    memo = model.assembled if lift_rel is None else {}
    lift_rel = lift_rel or lift_chern_relative
    m = building.size
    nc = len(f.rays)
    nvars = nc + m
    n = f.rank
    member_layers = [building.member_layer(p) for p in range(m)]
    poset = building.poset
    ids, incl = building.members, poset.inclusion

    if "ring" not in memo:  # relation-free, on the model generators: substitutes each group
        names = base.names + tuple("t:%d" % p for p in range(m))
        subst = {v: {e + (0,) * m: c for e, c in p.items()} for v, p in base.substitutions.items()}
        memo["ring"] = GradedRing(names, (), base.eliminate, subst)
    sub = memo["ring"]

    def mono(*idx):
        return {tuple(map(idx.count, range(nvars))): 1}

    def relations(groups):  # (name, provenance, poly)s -> (terms, substituted terms)s
        out = []
        for _, _, p in groups:
            t, s = canon_terms(p), canon_terms(sub.substitute(p))
            out.append((t, t if s == t else s))
        return out

    def listed(groups):  # (name, provenance, poly)s -> a document's triples
        return [(g, _frozen(prov), canon_terms(p)) for g, prov, p in groups]

    def kept(key, build):
        if key not in memo:
            memo[key] = tuple(build())
        return memo[key]

    def tc():
        for i in range(m):
            inside = rays_in_kernel(f, member_layers[i].gamma)
            for r in range(nc):
                if r not in inside:
                    yield "tc", {"member": i, "ray": r}, mono(r, nc + i)

    def component(where):  # the layer of a poset id, the torus for None
        return torus(n) if where is None else poset.elements[where]

    def shift_powers(i, count):
        """shift_i^k for k < count on the t_h, shift_i minus the sum of the
        t_h of the members G_h inside G_i: kept per member, grown by a loop."""
        powers = memo.setdefault(("shift", i), [{(0,) * m: 1}])
        inside = [h for h in range(m) if incl[ids[h]][ids[i]]]
        while len(powers) < count:
            power = {}
            for e, c in powers[-1].items():
                for h in inside:
                    x = e[:h] + (e[h] + 1,) + e[h + 1 :]
                    power[x] = power.get(x, 0) - c
            powers.append(power)
        return powers

    def lifted(i, where):
        """sum_k coeff_k shift_i^k for the lift of (G_i, M), M the poset
        element `where` or the torus, as (terms, substituted terms): built,
        degree-checked and substituted once per pair.  A coefficient lives
        on the c_r, shift_i^k on the t_h in degree k, so each product is a
        concatenation of exponents and no two terms meet.  F(i, A) is t^A
        times it, so its degree is |A| more, for every A."""
        g = ids[i]
        # keyed by poset ids, since a Layer would hash its Fractions; no
        # other key starts with "F base"
        key = ("F base", g, where)
        if key not in memo:
            mlayer = component(where)
            coeffs = [c.terms for c in lift_rel(member_layers[i], mlayer, base, f).coefficients]
            powers = shift_powers(i, len(coeffs))
            t = _concat(coeffs, powers)
            have, want = pdegree(e for e, _ in t), member_layers[i].codim - mlayer.codim
            # no F(i, A) may be empty: its degree want + |A| is positive
            if not t or have != want:
                raise InvariantViolated(
                    "F base of member %d over component %r has degree %d, not %d" % (i, where, have, want)
                )
            subbed = [canon_terms(base.substitute(dict(c))) for c in coeffs]
            memo[key] = (t, t if subbed == coeffs else _concat(subbed, powers))
        return memo[key]

    def times(terms, a):  # t^A times canonical terms: adding e keeps their order
        if not a:
            return terms
        e = [0] * nvars
        for j in a:
            e[nc + j] += 1
        return tuple((tuple(map(operator.add, x, e)), c) for x, c in terms)

    def supersets(i):  # members strictly containing G_i
        return [j for j in range(m) if ids[j] != ids[i] and incl[ids[i]][ids[j]]]

    def where_of(i, s_i):
        """where(A) for member i under nested members s_i: the poset id of
        the component holding G_i in the intersection of the members of A
        and s_i, None for the torus.  One memo per (i, s_i), which the ring
        and the listing share."""
        seen = memo.setdefault(("where", i, s_i), {})

        def where(a):
            if a not in seen:
                combo = sorted({*a, *s_i})
                if not combo:
                    seen[a] = None
                else:
                    comps = poset.meet([ids[j] for j in combo])
                    holding = [k for k in comps if incl[ids[i]][k]]
                    if len(holding) != 1:  # components are disjoint
                        raise InvariantViolated(
                            "member %d lies in %d components of %r" % (i, len(holding), combo)
                        )
                    seen[a] = holding[0]
            return seen[a]

        return where

    def f_relations(i, s_i):  # the irredundant F(i, A), for the ring
        where = where_of(i, s_i)
        out = []
        for a in _irredundant(supersets(i), where):
            terms, subbed = lifted(i, where(a))
            t = times(terms, a)
            out.append((t, t if subbed is terms else times(subbed, a)))
        return out

    def f_listed(i, s_i):  # every F(i, A), by size of A, then lexicographically
        where, sup = where_of(i, s_i), supersets(i)
        out = []
        for size in range(len(sup) + 1):
            for a in itertools.combinations(sup, size):
                w = where(a)
                if ("component", w) not in memo:  # one per layer, shared
                    memo["component", w] = _frozen(layer_to_dict(component(w)))
                prov = {"member": i, "others": list(a), "component": memo["component", w]}
                out.append(("F", _frozen(prov), times(lifted(i, w)[0], a)))
        return out

    dead = _dead_rays(f, building, nested)
    empty = _minimal_empty(building, nested, f)
    above = [tuple(p for p in nested.members if ids[p] != ids[i] and incl[ids[i]][ids[p]]) for i in range(m)]

    def families(convert, f_family, kind):
        """Every relation family in document order, through convert, or
        f_family for the F families; the kept ones under memo keys of kind."""
        out = list(kept(("shared", kind), lambda: convert(toric_relations(f, nvars))))
        out += convert(("stratum_c", {"ray": r}, mono(r)) for r in dead)
        out += kept(("tc", kind), lambda: convert(tc()))
        for i in range(m):
            out += kept(("F", kind, i, above[i]), functools.partial(f_family, i, above[i]))
        out += convert(("F0", {"others": list(a)}, mono(*(nc + j for j in a))) for a in empty)
        return out

    pairs = families(relations, f_relations, "ring")
    ring = GradedRing(
        sub.names, [t for t, _ in pairs], sub.eliminate, sub.substitutions,
        substituted=[s for _, s in pairs if s],
    )
    return base, ring, lambda: tuple(families(listed, f_listed, "listed"))


def model_ideal(model, *, lift_rel=None):
    """Presentation of the cohomology of the compactified model."""
    return ModelPresentation(model.fan, model.building, *_assemble(model, nested_set(), lift_rel))


def stratum_ideal(model, nested, *, lift_rel=None):
    """Presentation of the cohomology of the boundary stratum cut out by the
    divisors of a nested set (member positions plus fan rays)."""
    f, building = model.fan, model.building
    for p in nested.members:
        if not 0 <= p < building.size:
            raise ValueError("nested member position out of range: %r" % (p,))
    for r in nested.rays:
        if not 0 <= r < len(f.rays):
            raise ValueError("nested ray index out of range: %r" % (r,))
    ids = [building.members[p] for p in nested.members]
    if not is_nested_plus(ids, nested.rays, building, f):
        raise NotNested("set is not nested: %r" % (nested,))
    return StratumPresentation(f, building, *_assemble(model, nested, lift_rel), nested)


def assemble_model_ideal(f, building, *, lift_rel=None):
    """model_ideal of a fan and building set; Model checks the fan."""
    return model_ideal(Model(f, building), lift_rel=lift_rel)


def assemble_stratum_ideal(f, building, nested, *, lift_rel=None):
    """stratum_ideal of a fan and building set; Model checks the fan."""
    return stratum_ideal(Model(f, building), nested, lift_rel=lift_rel)


def stratum_size(pres):
    if isinstance(pres, StratumPresentation):
        return len(pres.nested.members) + len(pres.nested.rays)
    return 0


def hilbert_function(pres, max_degree=None):
    """Per-degree free ranks of the quotient, with a torsion report.

    The expected top degree (dimension of the model, shrunk by one per
    nested-set element for a stratum) must carry rank one, everything above
    it must vanish, and full models must be palindromic.
    """
    n = pres.fan.rank
    if max_degree is None:
        max_degree = n + 1
    ranks = tuple(pres.ring.graded_rank(d) for d in range(max_degree + 1))
    torsion = tuple(pres.ring.graded_torsion(d) for d in range(max_degree + 1))
    top = n - stratum_size(pres)
    if max_degree >= top:
        if ranks[top] != 1:
            raise InvariantViolated("top degree rank is %d" % ranks[top])
        if any(ranks[top + 1 :]):
            raise InvariantViolated("ranks above the top degree: %r" % (ranks,))
    if stratum_size(pres) == 0 and max_degree >= n:
        if any(ranks[d] != ranks[n - d] for d in range(n + 1)):
            raise InvariantViolated("ranks are not palindromic: %r" % (ranks,))
    return ranks, torsion


def presentation_to_dict(pres, max_degree=None):
    ranks, torsion = hilbert_function(pres, max_degree)
    nc = len(pres.base.names)
    doc = {
        "base_ring": {
            "names": list(pres.base.names),
            "fan": fan_to_dict(pres.fan),
        },
        "t_vars": list(pres.ring.names[nc:]),
        "relations": [
            {
                "group": g,
                "provenance": _plain(prov),
                "poly": [[c, list(e)] for e, c in terms],
            }
            for g, prov, terms in pres.groups
        ],
        "hilbert": list(ranks),
        "torsion": [list(t) for t in torsion],
    }
    if isinstance(pres, StratumPresentation):
        doc["nested"] = {
            "members": list(pres.nested.members),
            "rays": list(pres.nested.rays),
        }
    return doc
