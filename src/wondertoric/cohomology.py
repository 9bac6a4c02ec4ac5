"""Integer cohomology of smooth complete toric varieties.

Rings are presented on named degree-2 generators with homogeneous integer
relations.  All graded queries reduce to exact integer linear algebra on one
graded slice at a time, with no rational arithmetic in the quotients.

The standard monomials of a degree are the monomials in the surviving
generators that no unit-monomial relation (one term with coefficient +-1,
such as a Stanley-Reisner product) divides; Z[x] modulo monomials is free on
them.  A unit lead is the pivot, with coefficient 1, of a row in the
echelon of a lower slice.  A degree-d slice has a column per standard
monomial that no unit lead divides.  Every other standard monomial
m = x^b l, l a unit lead, reads as its normal form on those columns: minus
x^b times the other terms of l's row, each in normal form.  The order of
`monomials(d)` is lex, which multiplication keeps, and a row's pivot is its
first column, so those terms come after m and are done first.  The rows
m - NF(m) lie in the ideal and are unitriangular on these monomials, so the
quotient by the relations is Z^columns modulo the normal forms of the
relations, torsion included.  The HNF over all standard monomials has a
pivot 1 on each such m and zeros there in its other rows, which are the
slice's HNF: ranks, torsion and `normal_form` (the normal form, then
reduction by the slice's HNF) are those of the slice over all monomials.
This is a Groebner basis over Z truncated to unit leading coefficients
(Adams-Loustaunau, An Introduction to Groebner Bases, ch. 4).

A slice needs the slices below it.  One walk grows each standard monomial
of its degree once, from its quotient by its last generator, in the order of
`monomials(d)`: m is standard when it is no unit relation and each m / x_a
is standard, and a unit lead divides m when it divides or is some m / x_a.
The echelon takes the rows of the relations the lower slices kept, shifted
by standard monomials and read through the normal forms, zero rows dropped,
shortest row first, then the own row of each relation of its degree, in
relation order.  A relation whose row leaves the lattice unchanged lies in
the ideal of the earlier ones plus the unit monomials, and so do its
multiples: no slice keeps it, and every slice spans the lattice of all the
relations.

A ring packs each monomial once into an int, a digit per generator in a
radix above every degree asked, first generator most significant: descending
int order is the order of `monomials(d)`, a product is a sum and a quotient
a difference.  The walk, the rows and `vector_of` work on packed ints; only
normal forms read exponent tuples.

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
    `substituted_relations` would compute.  Slices are cached per degree,
    normal forms per input polynomial.
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
        self._powers = {}
        self._normal = {}

    def _encode(self, bits):
        """Pack exponents in radix 2**bits, first generator most significant,
        and drop every packed slice, lead and reducer: they are rebuilt in
        the new radix."""
        self._bits = bits
        self._shifts = [bits * (self.nvars - 1 - i) for i in range(self.nvars)]
        self._weights = [1 << s for s in self._shifts]
        self._gens = [self._weights[i] for i in self.surviving]
        self._walks = []  # per degree: (standard monomials, supports, reducers, images)
        self._tables = []
        self._kept = []  # the (packed terms, degree) relations the built slices kept
        self._tails = {}  # unit lead: its row's other terms, negated

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

    def _walk(self, d):
        """The degree-d standard monomials in the order of `monomials(d)`,
        their supports (positions in `_gens`, ascending) and the reducer
        (l, b) of each one that a lower unit lead l divides, b = m / l.

        Each monomial m grows once, from its quotient q by its last generator.
        m is standard when it is no unit relation and each m / x_a, a in its
        support, is; a lower lead divides m when it divides some m / x_a, so
        m takes the reducer of q, else of its first other quotient that has
        one.  The reducers of degree d-1 include its own unit leads."""
        units = self._split_relations()[0]
        if not d:
            return ([], [], {}) if (0,) * self.nvars in units else ([0], [()], {})
        own = {self._pack(u) for u in units if sum(u) == d}
        gens = self._gens
        prev, prev_supports, prev_reducers = self._walks[d - 1][:3]
        standard = set(prev)
        mons, supports, reducers = [], [], {}
        for q, support in zip(prev, prev_supports):
            first, reducer = support[-1] if support else 0, prev_reducers.get(q)
            for p in range(first, len(gens)):
                m = q + gens[p]
                if m in own:
                    continue
                r = None if reducer is None else (reducer[0], reducer[1] + gens[p])
                for a in support:
                    k = m - gens[a]
                    if k not in standard:
                        break
                    if r is None and k in prev_reducers:
                        r = prev_reducers[k]
                        r = (r[0], r[1] + gens[a])
                else:
                    mons.append(m)
                    supports.append(support if p == first and support else support + (p,))
                    if r is not None:
                        reducers[m] = r
        return mons, supports, reducers

    @staticmethod
    def _row(terms, shift, image):
        """The sparse row over the slice columns of the packed terms times the
        packed shift, each term read through `image`: a column as itself, a
        reducible monomial as its normal form, a non-standard one not at all."""
        row = {}
        for t, c in terms:
            for j, a in image.get(t + shift, ()):
                row[j] = row.get(j, 0) + c * a
        return {j: c for j, c in row.items() if c}

    def slice_table(self, d):
        """(packed columns, their column index, row echelon of the degree-d
        relations over those columns).  Builds the slices below first, in
        degree order, so the leads, reducers and `_kept` of the lower
        degrees are there."""
        if d >> self._bits:
            self._encode(d.bit_length())
        while len(self._tables) <= d:
            e = len(self._tables)
            mons, supports, reducers = self._walk(e)
            cols = [k for k in mons if k not in reducers]
            index = {k: j for j, k in enumerate(cols)}
            # a column reads as itself; a reducible monomial x^b l as minus x^b
            # times l's tail, in normal form, whose terms are all smaller
            image = {k: ((j, 1),) for k, j in index.items()}
            for m in reversed(mons):
                if m in reducers:
                    lead, b = reducers[m]
                    image[m] = tuple(self._row(self._tails[lead], b, image).items())
            self._walks.append((mons, supports, reducers, image))
            rows = (self._row(t, s, image) for t, k in self._kept for s in self._walks[e - k][0])
            ech = RowEchelon(len(cols), sorted(filter(None, rows), key=len))
            for rel, k in self._split_relations()[1]:
                if k == e:
                    terms = [(self._pack(m), c) for m, c in rel]
                    if ech.insert(self._row(terms, 0, image)):
                        self._kept.append((terms, k))
            for j, row in ech.pivots.items():
                if row[j] == 1:  # a unit lead for the degrees above
                    lead = cols[j]
                    self._tails[lead] = [(cols[i], -c) for i, c in row.items() if i != j]
                    reducers[lead] = (lead, 0)
            self._tables.append((cols, index, ech))
        return self._tables[d]

    def vector_of(self, p, d):
        """Sparse coefficients of p, homogeneous of degree d, on the degree-d
        slice columns, each reducible monomial read as its normal form."""
        self.slice_table(d)
        return self._row([(self._pack(e), c) for e, c in p.items()], 0, self._walks[d][3])

    def normal_form(self, p):
        """Canonical representative: substitute, then reduce each homogeneous
        part against the HNF of its relation slice."""
        if isinstance(p, RingElement):
            p = p.poly()
        key = canon_terms(p)
        if key not in self._normal:
            out = {}
            for d, part in psplit(self.substitute(p)).items():
                cols, _, ech = self.slice_table(d)
                reduced = ech.reduce_vector(self.vector_of(part, d))
                digit = (1 << self._bits) - 1  # after slice_table: the radix may grow
                for k, c in zip(cols, reduced):
                    if c:
                        out[tuple(k >> s & digit for s in self._shifts)] = c
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

