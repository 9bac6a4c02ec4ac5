"""Building sets, well-connectedness, ordering, and nested sets.

Members of a building set are referenced by their index in a LayerPoset.
Transversality is decided by codimension additivity, which is equivalent to
the geometric condition here because all the intersections involved are
clean.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadOrder, CycleDetected, NotBuilding
from .fans import Report, merge_reports, rays_in_kernel
from .layers import LayerPoset


def minimal_containing(candidate_ids, poset, k):
    """Ids of the inclusion-minimal candidate members containing element k."""
    incl = poset.inclusion
    containing = [i for i in candidate_ids if incl[k][i]]
    return sorted(
        i
        for i in containing
        if not any(j != i and incl[j][i] for j in containing)
    )


def validate_building(candidate_ids, poset):
    """Every non-member must be a transversal component of the intersection
    of its minimal containing members."""
    candidate_ids = set(candidate_ids)
    bad = []
    for idx, lam in enumerate(poset.elements):
        if idx in candidate_ids:
            continue
        mins = minimal_containing(candidate_ids, poset, idx)
        if not mins:
            bad.append(("no_containing_member", idx))
            continue
        if idx not in poset.meet(mins):
            bad.append(("not_a_component", idx, tuple(mins)))
            continue
        if lam.codim != sum(poset.elements[i].codim for i in mins):
            bad.append(("not_transversal", idx, tuple(mins)))
    return Report(tuple(bad))


def antichains(ids, poset, start=-1):
    """Depth-first walk over the antichains of the elements `ids`, in
    lexicographic order of their sorted id tuples.

    Yields (antichain, mask): the bitmask of the elements of `start`
    (default: all, i.e. the whole torus) below every element of the
    antichain, whose maximal elements (poset.components) are the components
    of the intersection.  An antichain with an empty mask is yielded but not
    extended, since its supersets stay empty.  Comparable elements never go
    together: they do not change an intersection.
    """
    ids = sorted(set(ids))
    incl, below = poset.inclusion, poset.below

    def walk(sub, mask, lo):
        for k in range(lo, len(ids)):
            e = ids[k]
            if any(incl[e][j] or incl[j][e] for j in sub):
                continue
            new = mask & below[e]
            yield sub + (e,), new
            if new:
                yield from walk(sub + (e,), new, k + 1)

    return walk((), start, 0)


def validate_well_connected(candidate_ids, poset):
    """Intersections of members must be empty, connected, or split into
    components that are themselves members.  Only antichains matter, and
    supersets of an empty intersection are empty.  Failures come by size,
    then lexicographically."""
    ids = set(candidate_ids)
    bad = []
    for sub, mask in antichains(ids, poset):
        comps = poset.components(mask)
        if len(comps) > 1 and not ids.issuperset(comps):
            bad.append(("stray_component", sub))
    bad.sort(key=lambda fl: (len(fl[1]), fl[1]))
    return Report(tuple(bad))


def order_refining_inclusion(member_ids, poset):
    """Topological order by strict inclusion, contained elements first, ties
    broken by element id."""
    ids = sorted(set(member_ids))
    remaining = list(ids)
    ordered = []
    while remaining:
        pick = None
        for i in remaining:
            if not any(
                j != i and poset.inclusion[j][i] for j in remaining
            ):
                pick = i
                break
        if pick is None:
            raise CycleDetected("inclusion relation has a cycle")
        ordered.append(pick)
        remaining.remove(pick)
    return tuple(ordered)


@dataclass(frozen=True)
class BuildingSet:
    """An ordered, well-connected building set of a layer poset.  Making one
    checks it: every non-member is a transversal component of its minimal
    containing members, intersections split only into members, and no member
    is contained in an earlier one.  Raises NotBuilding or BadOrder."""

    poset: LayerPoset
    members: tuple  # ordered element ids, inclusion-refining

    def __post_init__(self):
        poset, ids = self.poset, self.members
        rep = merge_reports(
            validate_building(ids, poset), validate_well_connected(ids, poset)
        )
        if not rep.ok:
            raise NotBuilding("not a well-connected building set: %r" % (rep.failures,))
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                if ids[b] != ids[a] and poset.inclusion[ids[b]][ids[a]]:
                    raise BadOrder("member %d is contained in earlier member %d" % (b, a))

    @property
    def size(self):
        return len(self.members)

    def member_layer(self, pos):
        return self.poset.elements[self.members[pos]]


def building_set(poset, member_ids=None):
    """The BuildingSet of member_ids in an order refining inclusion;
    member_ids defaults to the whole poset (the maximal building set).
    Raises NotBuilding when the members are not one."""
    if member_ids is None:
        member_ids = range(len(poset.elements))
    return BuildingSet(poset, order_refining_inclusion(member_ids, poset))


def is_nested(t_ids, building):
    """Every antichain of size > 1 must be the set of factors of a component
    of its intersection, with additive codimension.  The first antichain
    that is empty or badly factored decides."""
    poset, t_ids = building.poset, set(t_ids)
    if any(i not in building.members for i in t_ids):
        raise ValueError("nested candidates must be building members")
    for sub, mask in antichains(t_ids, poset):
        target = sum(poset.elements[i].codim for i in sub)
        if len(sub) > 1 and not any(
            poset.elements[k].codim == target
            and minimal_containing(building.members, poset, k) == list(sub)
            for k in poset.components(mask)
        ):
            return False
    return True


def combined_lattice(t_ids, building):
    """Saturation of the sum of the member lattices: the common lattice of
    every component of their intersection, which must not be empty."""
    comps = building.poset.meet(t_ids)  # ValueError on an empty member set
    if not comps:
        raise ValueError("members do not meet: %r" % (list(t_ids),))
    return building.poset.elements[comps[0]].gamma


def nested_plus_sets(building, f):
    """Every (positions, rays) pair that is_nested_plus accepts, ordered by
    positions and then by rays, each by size and then lexicographically.

    Nested sets are closed under subsets, so the walk extends nested sets
    only.  Each one pairs with every face of the fan whose rays its combined
    lattice annihilates.
    """
    members, nested = building.members, []

    def walk(t, lo):
        nested.append(t)
        for p in range(lo, len(members)):
            if is_nested([members[q] for q in t + (p,)], building):
                walk(t + (p,), p + 1)

    walk((), 0)
    by_size = lambda s: (len(s), s)
    faces = sorted(f.faces, key=by_size)
    out = []
    for t in sorted(nested, key=by_size):
        ids = [members[p] for p in t]
        perp = rays_in_kernel(f, combined_lattice(ids, building)) if t else None
        out += [(t, r) for r in faces if perp is None or perp.issuperset(r)]
    return out


def is_nested_plus(t_ids, ray_indices, building, f):
    """Nestedness in the augmented building set: layer members plus boundary
    divisors indexed by fan rays.

    True iff the layer part is nested, the rays span a cone of the fan, and
    each ray is annihilated by the combined lattice of the layer part.
    """
    t_ids = sorted(set(t_ids))
    rays = sorted(set(ray_indices))
    if not is_nested(t_ids, building):
        return False
    if tuple(rays) not in f.faces:
        return False
    if t_ids and rays:
        return rays_in_kernel(f, combined_lattice(t_ids, building)).issuperset(rays)
    return True
