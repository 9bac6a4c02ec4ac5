"""Independent Betti numbers for the model via the blowup recursion.

Everything here is additive bookkeeping: start from the h-vector of the base
toric variety, then walk the blowup sequence, adding the shifted Betti
numbers of each center.  Centers are wonderful models of induced
arrangements in their own right, so the computation recurses; no cohomology
rings are ever touched, which is what makes this an oracle for them.

All stages stay in ambient coordinates: the fan of a stage is the set of
cones of the model's fan lying in the kernel of the stage lattice, whose
face counts alone give its h-vector, and the arrangement of a stage is a
set of ambient poset elements.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .building import order_refining_inclusion
from .errors import InvariantViolated
from .fans import Report, rays_in_kernel
from .layers import torus
from .present import Model


def keel_step(b_y, b_z, d):
    """Betti vector of the blowup of Y along a codimension-d center Z."""
    if d < 1:
        raise ValueError("codimension must be positive: %r" % (d,))
    if d == 1:
        return tuple(b_y)
    out = list(b_y)
    for j in range(1, d):
        for k, v in enumerate(b_z):
            idx = k + j
            while len(out) <= idx:
                out.append(0)
            out[idx] += v
    if sum(out) != sum(b_y) + (d - 1) * sum(b_z):  # Euler bookkeeping
        raise InvariantViolated("blowup changed the Euler number: %r" % (out,))
    return tuple(out)


def h_vector(n, faces):
    """h-vector of a simplicial complete fan of rank n from its faces (ray
    index tuples, the empty face included), by the face counts alone."""
    count = Counter(map(len, faces))
    return tuple(
        sum((-1) ** (k - i) * comb(n - i, k - i) * count[i] for i in range(k + 1))
        for k in range(n + 1)
    )


def _induced_members(poset, prefix_ids, z_id):
    """Ordered ambient ids of the arrangement the earlier members induce on
    the center Z: each connected G cap Z other than Z (which cannot happen
    when the order refines inclusion).  A disconnected one is skipped; its
    components are members and re-enter through their own positions."""
    meets = (poset.meet([g, z_id]) for g in prefix_ids)
    return order_refining_inclusion({m[0] for m in meets if len(m) == 1 and m[0] != z_id}, poset)


def _stage_betti(f, poset, stage, member_ids, memo):
    """Betti vector of the stage: the toric variety of the cones of f in the
    kernel of the stage lattice, blown up along the member centers in order.

    Precondition, which Model guarantees: the stage lattice is the torus's
    or a poset element's, and f is good for it, so those cones form a
    smooth complete fan of rank f.rank - lat.rank (face compatibility makes
    them a fan of the kernel) and their face counts give its h-vector."""
    lat = stage.gamma
    key = (stage, tuple(member_ids))  # the ids index the one poset
    if key in memo:
        return memo[key]
    inside = rays_in_kernel(f, lat)
    b = h_vector(f.rank - lat.rank, [c for c in f.faces if inside.issuperset(c)])
    for pos, mid in enumerate(member_ids):
        center = poset.elements[mid]
        d = center.codim - lat.rank
        if d < 1:
            raise InvariantViolated("center %d does not cut its stage" % mid)
        if d == 1:
            continue  # divisorial center: blowup is an isomorphism
        induced = _induced_members(poset, member_ids[:pos], mid)
        b_z = _stage_betti(f, poset, center, induced, memo)
        b = keel_step(b, b_z, d)
    memo[key] = tuple(b)
    return memo[key]


def betti_of(model):
    """Betti vector of a validated Model, one entry per even cohomological
    degree."""
    f, b = model.fan, model.building
    return _stage_betti(f, b.poset, torus(f.rank), tuple(b.members), {})


def model_betti(f, building):
    """betti_of a fan and building set; Model checks the fan."""
    return betti_of(Model(f, building))


def strip_zeros(vec):
    """The vector without its trailing zeros, as a tuple."""
    v = list(vec)
    while v and v[-1] == 0:
        v.pop()
    return tuple(v)


def verify(pres_hilbert, oracle, torsion=()):
    """Compare a presentation's Hilbert vector against the oracle.

    Degrees in failure records are cohomological (twice the vector index)."""
    failures = []
    h = strip_zeros(pres_hilbert)
    o = strip_zeros(oracle)
    if not h or h[0] != 1:
        failures.append(("b0", "hilbert"))
    if not o or o[0] != 1:
        failures.append(("b0", "oracle"))
    if h and o:
        for k in range(max(len(h), len(o))):
            a = h[k] if k < len(h) else 0
            b = o[k] if k < len(o) else 0
            if a != b:
                failures.append(("mismatch", 2 * k, a, b))
        if h == o:
            if h != tuple(reversed(h)):
                failures.append(("not_palindromic", h))
            if h[-1] != 1:
                failures.append(("top_rank", h[-1]))
    for k, t in enumerate(torsion):
        if t:
            failures.append(("torsion", 2 * k, tuple(t)))
    return Report(tuple(failures))
