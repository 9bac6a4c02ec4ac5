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

A ring packs each monomial once into an int, a digit per generator in a
radix above every degree asked, first generator most significant: descending
int order is the order of `monomials(d)`, and a product is a sum.  Slice
columns, `shifted_rows` and `vector_of` work on packed ints; only normal
forms and `standard_monomials` read exponent tuples.

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

    def __init__(self, names, relations, eliminate=(), substitutions=None, substituted=None):
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
        self._encode(4)
        self._tuples = {}
        self._powers = {}
        self._normal = {}

    def _encode(self, bits):
        """Pack exponents in radix 2**bits, first generator most significant,
        and drop every packed slice: they are rebuilt in the new radix."""
        self._bits = bits
        self._shifts = [bits * (self.nvars - 1 - i) for i in range(self.nvars)]
        self._weights = [1 << s for s in self._shifts]
        self._gens = [(self._weights[i], 1 << i) for i in self.surviving]
        self._standard = []  # per degree: ({packed: column}, support bitmasks)
        self._tables = []
        self._kept = []  # the (terms, degree) relations the built slices kept

    def _pack(self, e):
        return sum(map(operator.mul, e, self._weights))

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
            term, hit = {e: c}, [i for i in self.eliminate if e[i]]
            if hit:
                term = {tuple(0 if i in self.substitutions else k for i, k in enumerate(e)): c}
                for i in hit:
                    term = pmul(term, self._power(i, e[i]))
            for x, c2 in term.items():
                out[x] = out.get(x, 0) + c2
        return {e: c for e, c in out.items() if c}

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

    def _columns(self, d):
        """The degree-d standard monomials, packed, as ({packed: column},
        support bitmasks by column), in the order of `monomials(d)`.

        The set is closed under taking divisors, so it grows from degree d-1:
        a monomial is standard when it is no unit relation itself and each of
        its quotients by one variable is standard, that is when as many pairs
        (standard m of degree d-1, variable i) reach it as its support has
        bits.  The radix exceeds d, so no digit carries, and descending int
        order is the order of `monomials(d)`."""
        if d >> self._bits:
            self._encode(d.bit_length())
        while len(self._standard) <= d:
            e = len(self._standard)
            units = {self._pack(u) for u in self._split_relations()[0] if sum(u) == e}
            if not e:
                self._standard.append(({}, []) if 0 in units else ({0: 0}, [0]))
                continue
            count, masks = {}, {}  # packed monomial: pairs reaching it, its support
            for m, mask in zip(*self._standard[e - 1]):
                for w, bit in self._gens:
                    k = m + w
                    if k in count:
                        count[k] += 1
                    else:
                        count[k], masks[k] = 1, mask | bit
            keep = [k for k in sorted(count, reverse=True) if count[k] == masks[k].bit_count() and k not in units]
            self._standard.append(({k: c for c, k in enumerate(keep)}, [masks[k] for k in keep]))
        return self._standard[d]

    def standard_monomials(self, d):
        """The degree-d monomials in surviving vars that no unit-monomial
        relation divides, as exponent tuples, in the order of `monomials(d)`."""
        if d not in self._tuples:
            cols, digit = self._columns(d)[0], (1 << self._bits) - 1  # in this order: the radix may grow
            self._tuples[d] = [tuple(k >> s & digit for s in self._shifts) for k in cols]
        return self._tuples[d]

    def slice_table(self, d):
        """(packed standard monomials, their column index, row echelon of the
        degree-d relations over those columns).  Builds the slices below
        first, in degree order, so `_kept` holds what they kept."""
        self._columns(d)  # first: widening the radix drops every table
        while len(self._tables) <= d:
            e = len(self._tables)
            cols = self._columns(e)[0]
            ech = RowEchelon(len(cols), sorted(self.shifted_rows(self._kept, e), key=len))
            own = [r for r in self._split_relations()[1] if r[1] == e]
            self._kept += [r for r, row in zip(own, self.shifted_rows(own, e)) if ech.insert(row)]
            self._tables.append((list(cols), cols, ech))
        return self._tables[d]

    def shifted_rows(self, polys, d):
        """Sparse rows over the degree-d standard monomials: each (terms,
        degree) pair of degree at most d times each standard monomial lifting
        it to degree d, with the terms off the standard columns dropped.  A
        shifted term's column is one lookup of a sum of two packed ints."""
        cols = self._columns(d)[0]
        shifts = [self._standard[d - e][0] for e in range(d + 1)]
        for rel, e in polys:
            if e > d:
                continue
            terms = [(self._pack(m), c) for m, c in rel]
            for shift in shifts[e]:
                yield {k: c for t, c in terms if (k := cols.get(t + shift)) is not None}

    def vector_of(self, p, d):
        """Sparse coefficients of p, homogeneous of degree d, on the degree-d
        standard columns."""
        index = self.slice_table(d)[1]
        return {index[k]: c for e, c in p.items() if (k := self._pack(e)) in index}

    def normal_form(self, p):
        """Canonical representative: substitute, then reduce each homogeneous
        part against the HNF of its relation slice."""
        if isinstance(p, RingElement):
            p = p.poly()
        key = canon_terms(p)
        if key not in self._normal:
            out = {}
            for d, part in psplit(self.substitute(p)).items():
                reduced = self.slice_table(d)[2].reduce_vector(self.vector_of(part, d))
                for e, c in zip(self.standard_monomials(d), reduced):
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
        terms = (pvar(r, nvars, ray[i]).popitem() for r, ray in enumerate(f.rays) if ray[i])
        yield "linear", {"coordinate": i}, dict(terms)


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

