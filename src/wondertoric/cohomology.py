"""Integer cohomology of smooth complete toric varieties.

Rings are presented on named degree-2 generators with homogeneous integer
relations.  All graded queries reduce to exact integer linear algebra on one
graded slice at a time: no Groebner machinery, no rational arithmetic in the
quotients.

A slice is indexed by the standard monomials of its degree: the monomials in
the surviving generators that no unit-monomial relation (one term with
coefficient +-1, such as a Stanley-Reisner product) divides.  Z[x] modulo
monomials is free on them, so only the other relations become rows, shifted
by standard monomials, with their non-standard terms dropped.  The HNF over
all monomials is a unit row per non-standard monomial plus the HNF over the
standard ones, so ranks, torsion and `normal_form` are those of the slice
over all monomials.

A slice needs the slices below it.  Its echelon takes the rows of the
relations they kept, shifted, shortest row first, then the own row of each
relation of its degree, in relation order.  A relation whose row leaves the
lattice unchanged lies in the ideal of the earlier ones plus the unit
monomials, and so do its multiples: no slice keeps it, and every slice
spans the lattice of all the relations.

Slice rows are sparse {column: coefficient} dicts that `shifted_rows` builds
from a relation's terms and a shift: each exponent tuple of a slice packs into
one int, so a shifted term's column is one lookup of a sum of two ints.

Polynomials are dicts mapping exponent tuples (one slot per generator) to
integer coefficients; `canon_terms` freezes them for storage.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import InvariantViolated
from .lattice import RowEchelon, solve_in_lattice

# ---------------------------------------------------------------------------
# polynomial helpers


def pconst(c, nvars):
    return {(0,) * nvars: int(c)} if c else {}


def pvar(i, nvars, coeff=1):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): int(coeff)}


def padd(a, b):
    out = dict(a)
    for e, c in b.items():
        c2 = out.get(e, 0) + c
        if c2:
            out[e] = c2
        else:
            out.pop(e, None)
    return out


def pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def pmul_mono(a, exps, coeff=1):
    return {tuple(x + y for x, y in zip(e, exps)): c * coeff for e, c in a.items()}


def ppow(a, k, nvars):
    out = pconst(1, nvars)
    for _ in range(k):
        out = pmul(out, a)
    return out


def pdegree(a):
    degs = {sum(e) for e in a}
    if len(degs) > 1:
        raise ValueError("polynomial is not homogeneous: degrees %r" % sorted(degs))
    return degs.pop() if degs else 0


def psplit(a):
    parts = {}
    for e, c in a.items():
        parts.setdefault(sum(e), {})[e] = c
    return parts


def canon_terms(a):
    return tuple(sorted((e, c) for e, c in a.items() if c))


def from_terms(terms):
    return {tuple(e): int(c) for e, c in terms if c}


# ---------------------------------------------------------------------------
# graded rings


@dataclass(frozen=True)
class RingElement:
    ring: "GradedRing"
    terms: tuple

    def poly(self):
        return from_terms(self.terms)


class GradedRing:
    """Z-algebra on named degree-2 generators modulo homogeneous relations.

    Relations are polynomials or `canon_terms` tuples, kept as they are.
    `eliminate` lists generator indices removed via the degree-1 relations;
    `substitutions` maps each of them to its expression in the surviving
    generators.  `substituted`, when the caller has it, is what
    `substituted_relations` would compute.  Standard monomials and slice
    tables are cached per degree, normal forms per input polynomial.
    """

    def __init__(
        self, names, relations, eliminate=(), substitutions=None, substituted=None
    ):
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.relations = tuple(r if isinstance(r, tuple) else canon_terms(r) for r in relations)
        for r in self.relations:
            pdegree(e for e, _ in r)  # homogeneity check
        self.eliminate = tuple(eliminate)
        self.substitutions = {int(v): dict(p) for v, p in (substitutions or {}).items()}
        if set(self.substitutions) != set(self.eliminate):
            raise InvariantViolated(
                "substitutions %r do not match the eliminated generators %r"
                % (sorted(self.substitutions), sorted(self.eliminate))
            )
        self.surviving = tuple(i for i in range(self.nvars) if i not in set(eliminate))
        self._subbed = None if substituted is None else tuple(substituted)
        self._split = None
        self._standard = {}
        self._tables = {}
        self._kept = []  # the (terms, degree) relations the built slices kept
        self._powers = {}
        self._normal = {}

    # -- substitution ------------------------------------------------------

    def _power(self, var, k):
        key = (var, k)
        if key not in self._powers:
            self._powers[key] = ppow(self.substitutions[var], k, self.nvars)
        return self._powers[key]

    def substitute(self, p):
        """Rewrite a polynomial in the surviving generators only."""
        out = {}
        for e, c in p.items():
            if len(e) != self.nvars:
                raise ValueError("exponent length mismatch")
            base = [0] * self.nvars
            factor = None
            for i, k in enumerate(e):
                if not k:
                    continue
                if i in self.substitutions:
                    piece = self._power(i, k)
                    factor = piece if factor is None else pmul(factor, piece)
                else:
                    base[i] = k
            term = {tuple(base): c}
            if factor is not None:
                term = pmul_mono(factor, tuple(base), c)
            out = padd(out, term)
        return out

    def substituted_relations(self):
        if self._subbed is None:
            subbed = []
            for r in self.relations:
                s = self.substitute(from_terms(r))
                if s:
                    subbed.append(canon_terms(s))
            self._subbed = tuple(subbed)
        return self._subbed

    def _split_relations(self):
        """(exponents of the unit-monomial substituted relations, the other
        substituted relations as (terms, degree) pairs)."""
        if self._split is None:
            units, others = set(), []
            for r in self.substituted_relations():
                if len(r) == 1 and abs(r[0][1]) == 1:
                    units.add(r[0][0])
                else:
                    others.append((r, pdegree(e for e, _ in r)))
            self._split = (frozenset(units), tuple(others))
        return self._split

    # -- graded slices -------------------------------------------------------

    def monomials(self, d):
        """Canonical list of degree-d exponent tuples in surviving vars."""
        out = []
        for combo in itertools.combinations_with_replacement(self.surviving, d):
            e = [0] * self.nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
        return out

    def standard_monomials(self, d):
        """The degree-d monomials in surviving vars that no unit-monomial
        relation divides, in the order of `monomials(d)`.

        The set is closed under taking divisors, so it grows from degree d-1:
        a monomial is standard when it is no unit relation itself and each of
        its quotients by one variable is standard, that is when as many pairs
        (standard m of degree d-1, variable i) reach it as it has variables.
        Exponents pack into ints in base d + 1, first generator most
        significant, so descending int order is the order of `monomials(d)`.
        """
        if d not in self._standard:
            units = self._split_relations()[0]
            if d == 0:
                zero = (0,) * self.nvars
                out = [] if zero in units else [zero]
            else:
                weights = [(d + 1) ** (self.nvars - 1 - i) for i in range(self.nvars)]
                count, via = {}, {}  # packed monomial: pairs reaching it, one of them
                for m in self.standard_monomials(d - 1):
                    packed, support = sum(map(operator.mul, m, weights)), self.nvars - m.count(0)
                    for i in self.surviving:
                        k = packed + weights[i]
                        if k in count:
                            count[k] += 1
                        else:
                            count[k], via[k] = 1, (m, i, support + (not m[i]))
                out = []
                for k in sorted(count, reverse=True):
                    m, i, support = via[k]
                    if count[k] == support and (e := m[:i] + (m[i] + 1,) + m[i + 1 :]) not in units:
                        out.append(e)
            self._standard[d] = out
        return self._standard[d]

    def slice_table(self, d):
        """(standard monomials, their column index, row echelon of the
        degree-d relations over those columns).  Builds the slices below
        first, in degree order, so `_kept` holds what they kept."""
        if d not in self._tables:
            if d:
                self.slice_table(d - 1)
            momos = self.standard_monomials(d)
            ech = RowEchelon(len(momos), sorted(self.shifted_rows(self._kept, d), key=len))
            own = [r for r in self._split_relations()[1] if r[1] == d]
            self._kept += [r for r, row in zip(own, self.shifted_rows(own, d)) if ech.insert(row)]
            self._tables[d] = (momos, {e: k for k, e in enumerate(momos)}, ech)
        return self._tables[d]

    def shifted_rows(self, polys, d):
        """Sparse rows over the degree-d standard monomials: each (terms,
        degree) pair of degree at most d times each standard monomial lifting
        it to degree d, with the terms off the standard columns dropped."""
        # base d + 1: no entry of a degree-d exponent exceeds d, so keys are unique
        weights = [(d + 1) ** i for i in range(self.nvars)]

        def pack(e):
            return sum(map(operator.mul, e, weights))

        cols = {pack(e): k for k, e in enumerate(self.standard_monomials(d))}
        shifts = [[pack(m) for m in self.standard_monomials(d - e)] for e in range(d + 1)]
        for rel, e in polys:
            if e > d:
                continue
            terms = [(pack(m), c) for m, c in rel]
            for shift in shifts[e]:
                yield {k: c for t, c in terms if (k := cols.get(t + shift)) is not None}

    def vector_of(self, p, d):
        """Sparse coefficients of p on the degree-d standard columns."""
        index = self.slice_table(d)[1]
        return {index[e]: c for e, c in p.items() if e in index}

    def normal_form(self, p):
        """Canonical representative: substitute, then reduce each homogeneous
        part against the HNF of its relation slice."""
        if isinstance(p, RingElement):
            p = p.poly()
        key = canon_terms(p)
        if key not in self._normal:
            out = {}
            for d, part in psplit(self.substitute(p)).items():
                momos, _, ech = self.slice_table(d)
                reduced = ech.reduce_vector(self.vector_of(part, d))
                for e, c in zip(momos, reduced):
                    if c:
                        out[e] = c
            self._normal[key] = RingElement(self, canon_terms(out))
        return self._normal[key]

    def graded_rank(self, d):
        momos, _, ech = self.slice_table(d)
        return len(momos) - ech.rank

    def graded_torsion(self, d):
        return self.slice_table(d)[2].torsion()


# ---------------------------------------------------------------------------
# toric constructions


def minimal_nonfaces(f):
    """Inclusion-minimal ray sets spanning no cone; sizes are at most n+1
    since every proper subset of a minimal non-face is a face."""
    faces = f.faces
    out = []
    nrays = len(f.rays)
    for size in range(2, f.rank + 2):
        for s in itertools.combinations(range(nrays), size):
            if s in faces:
                continue
            if all(s[:k] + s[k + 1 :] in faces for k in range(size)):
                out.append(s)
    return tuple(out)


def toric_elimination(f):
    """Eliminate the variables of the lexicographically first max cone using
    the degree-1 relations.  Returns (eliminated indices, substitutions).

    Writing each other ray as r_k = sum_j a_kj ref_j turns the relations
    sum_r r c_r = 0 into c_ref_j = -sum_k a_kj c_k."""
    if not f.max_cones:
        return (), {}
    ref = min(f.max_cones)
    if not ref:
        return (), {}
    basis = [f.rays[j] for j in ref]
    nvars = len(f.rays)
    subst = {var: {} for var in ref}
    for k in range(nvars):
        if k in ref:
            continue
        coords = solve_in_lattice(basis, f.rays[k])
        if coords is None:  # smooth cone: unimodular system
            raise InvariantViolated("non-integral elimination: ray %d" % k)
        e = tuple(int(i == k) for i in range(nvars))
        for var, a in zip(ref, coords):
            if a:
                subst[var][e] = -a
    return tuple(ref), subst


def toric_relations(f, nvars):
    """Relations of the toric variety of f as (group, provenance, poly), on
    nvars generators whose first len(f.rays) are the ray classes c_r: the
    Stanley-Reisner monomial of each minimal non-face, then for each
    coordinate i the linear relation sum_r r_i c_r."""
    for s in minimal_nonfaces(f):
        e = [0] * nvars
        for r in s:
            e[r] += 1
        yield "SR", {"rays": list(s)}, {tuple(e): 1}
    for i in range(f.rank):
        p = {}
        for r, ray in enumerate(f.rays):
            if ray[i]:
                p = padd(p, pvar(r, nvars, ray[i]))
        yield "linear", {"coordinate": i}, p


def danilov_ring(f):
    """Presentation of the integer cohomology of the toric variety of a
    smooth complete fan, on one generator per ray.  Precondition, not
    checked here: the fan is smooth and complete, as the fan of a Model is
    (its goodness check covers both)."""
    nvars = len(f.rays)
    names = tuple("c:%d" % i for i in range(nvars))
    relations = [p for _, _, p in toric_relations(f, nvars)]
    eliminate, subst = toric_elimination(f)
    return GradedRing(names, relations, eliminate, subst)

