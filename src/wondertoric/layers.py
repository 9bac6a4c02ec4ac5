"""Toric arrangement layers and their intersection poset.

A layer is a coset-like subvariety of the torus cut out by character
equations: a saturated sublattice gamma of the character lattice plus the
prescribed values phi of those characters, as elements of Q/Z.  phi is stored
on the canonical HNF basis of gamma, so equal layers compare equal.
A layer on a saturated lattice is connected, so where its lattice contains
another's it lies in that layer if its phi restricted there is the other's
phi, and misses it if not; only crossing lattices need a torsion solve.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotSplit
from .lattice import (
    Sublattice,
    is_split_summand,
    qz,
    qz_dot,
    qz_numerators,
    solve_in_lattice,
    solve_torsion_congruences,
    span_rows,
    sublattice,
    torsion_frame,
)


@dataclass(frozen=True)
class Layer:
    gamma: Sublattice
    phi: tuple  # Q/Z value per basis row of gamma

    @property
    def ambient_rank(self):
        return self.gamma.ambient_rank

    @property
    def codim(self):
        return self.gamma.rank

    def sort_key(self):
        return (self.codim, self.gamma.basis, self.phi)


def layer(gamma_rows, phi, ambient_rank):
    """Build a Layer from basis rows and their Q/Z values.

    The rows must be independent.  phi is re-expressed on the canonical HNF
    basis, so any basis of the same lattice with matching values gives the
    same Layer object.
    """
    rows = [list(map(int, r)) for r in gamma_rows]
    phi = [qz(v) for v in phi]
    if len(rows) != len(phi):
        raise ValueError("one phi value per basis row required")
    lat = sublattice(rows, ambient_rank)
    coords = (solve_in_lattice(rows, h) if rows else () for h in lat.basis)
    return Layer(lat, tuple(qz_dot(c, phi) for c in coords))


def torus(ambient_rank):
    """The dense torus itself: the codimension-0 layer."""
    return Layer(span_rows([], ambient_rank), ())


def layer_to_dict(lay):
    return {
        "gamma": [list(r) for r in lay.gamma.basis],
        "phi": [format_qz(v) for v in lay.phi],
    }


def layer_from_dict(doc, ambient_rank):
    """Layer of a job document; gamma entries must be ints and phi values
    strings or ints, so no float or bool is silently converted."""
    for x in (x for row in doc["gamma"] for x in row):
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError("gamma entries must be integers: %r" % (x,))
    for v in doc["phi"]:
        if not isinstance(v, (int, str)) or isinstance(v, bool):
            raise ValueError("phi values must be strings or integers: %r" % (v,))
    return layer(doc["gamma"], [parse_qz(s) for s in doc["phi"]], ambient_rank)


def format_qz(v):
    v = qz(v)
    return "%d/%d" % (v.numerator, v.denominator)


def parse_qz(s):
    return qz(Fraction(s))


def intersect_layers(layers):
    """Connected components of the intersection of the given layers.

    Every component lives on the saturation of the sum of the gammas; the
    components correspond to the consistent torsion extensions of the glued
    character values.  Empty list means empty intersection.
    """
    if not layers:
        raise ValueError("need at least one layer")
    n = layers[0].ambient_rank
    if any(l.ambient_rank != n for l in layers):
        raise ValueError("ambient ranks differ")
    gens = [list(row) for l in layers for row in l.gamma.basis]
    values = [v for l in layers for v in l.phi]
    if not gens:
        return [torus(n)]
    sat = torsion_frame(gens, n).sat
    return [Layer(sat, phi) for phi in solve_torsion_congruences(gens, values, n)]


@dataclass(frozen=True)
class LayerPoset:
    """Layers closed under the components of pairwise, and so of all,
    intersections.  Elements are connected, so the components of a meet of
    elements are the maximal elements below all of them.  Every element's
    lattice is saturated: build_layer_poset refuses an unsaturated input,
    and each intersection lies on a saturation."""

    elements: tuple  # Layers, sorted by (codim, basis, phi)
    inclusion: tuple  # inclusion[i][j] == elements[i] contained in elements[j]
    below: tuple = field(init=False, repr=False, compare=False)  # bit i of below[j]: i in j

    def __post_init__(self):
        n = len(self.elements)
        below = tuple(sum(1 << i for i in range(n) if self.inclusion[i][j]) for j in range(n))
        object.__setattr__(self, "below", below)

    def components(self, mask):
        """Sorted ids of the maximal elements in the bitmask; for the lower
        set of an intersection of elements, its components."""
        ids, covered = [], 0
        while mask:
            bit = mask & -mask
            mask ^= bit
            ids.append(bit.bit_length() - 1)
            covered |= self.below[ids[-1]] & ~bit
        return [i for i in ids if not covered >> i & 1]

    def meet(self, ids):
        """Sorted ids of the components of the intersection of the elements."""
        if not ids:
            raise ValueError("need at least one element")
        mask = -1
        for i in ids:
            mask &= self.below[i]
        return self.components(mask)


def _entry(lay, lattices):
    """lay as a pool element of build_layer_poset: (lay, the id of its lattice
    in lattices, which it joins if new, phi numerators, their denominator)."""
    return (lay, lattices.setdefault(lay.gamma, len(lattices)), *qz_numerators(lay.phi))


def _meet(a, b, coords):
    """intersect_layers([a[0], b[0]]) for _entry values on saturated lattices.
    coords keeps, per pair of lattice ids, the shallower basis on the deeper
    one, or None if they cross: saturated lattices of one rank nest only when
    equal, so only lattices of two ranks are solved."""
    (deep, i, nums, den), (other, j, onums, oden) = (a, b) if a[0].codim >= b[0].codim else (b, a)
    if i == j:  # phi restricts to itself
        return [deep] if (nums, den) == (onums, oden) else []
    if (i, j) not in coords:
        rows = deep.codim > other.codim and [solve_in_lattice(deep.gamma.basis, r) for r in other.gamma.basis]
        coords[i, j] = rows if rows and None not in rows else None
    if coords[i, j] is None:
        return intersect_layers([a[0], b[0]])
    # qz(c . deep phi) == the other's value, cross-multiplied over both denominators
    fits = all(sum(map(operator.mul, c, nums)) % den * oden == v * den for c, v in zip(coords[i, j], onums))
    return [deep] if fits else []


def build_layer_poset(arrangement):
    """Close the arrangement under pairwise component-wise intersection.

    Elements are deduplicated Layers sorted canonically; the ambient torus is
    not included.  A pair with nested (or equal) lattices meets in the
    deeper layer or nowhere, as its phi restricts; only crossing lattices
    run intersect_layers.  Raises ValueError for an empty arrangement or a
    layer with no characters, NotSplit when an input gamma is not saturated.
    """
    if not arrangement:
        raise ValueError("empty arrangement")
    n = arrangement[0].ambient_rank
    for i, l in enumerate(arrangement):
        if not l.codim:
            raise ValueError("layer %d has no characters: it is the whole torus" % i)
        if not is_split_summand(l.gamma):
            raise NotSplit("layer lattice is not saturated: %r" % (l.gamma.basis,))
    lattices, coords = {}, {}  # _entry's ids and _meet's memo, for this build only
    seen = dict.fromkeys(arrangement)
    pool = [_entry(l, lattices) for l in seen]
    inside = []  # (a, b): pool[a] lies in pool[b], a != b
    k = 1
    while k < len(pool):  # semi-naive: each element meets each earlier one once
        for j in range(k):
            comps = _meet(pool[j], pool[k], coords)
            # a is in b exactly when a meets b in a alone, which is in the pool
            if comps == [pool[j][0]]:
                inside.append((j, k))
            elif comps == [pool[k][0]]:
                inside.append((k, j))
            else:
                for comp in comps:
                    if comp not in seen:
                        seen[comp] = None
                        pool.append(_entry(comp, lattices))
        k += 1
    pool = [e[0] for e in pool]
    order = sorted(range(len(pool)), key=lambda i: pool[i].sort_key())
    at = {i: r for r, i in enumerate(order)}
    incl = [[a == b for b in order] for a in order]
    for a, b in inside:
        incl[at[a]][at[b]] = True
    return LayerPoset(tuple(pool[i] for i in order), tuple(map(tuple, incl)))

