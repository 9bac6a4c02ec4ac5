"""Explicit liftings of Chern polynomials of normal bundles of layer closures.

Everything is built from one formula: the divisor class of a character beta
is -sum_r min(0, <beta, r>) c_r.  Products of (t + class) factors over an
equal-sign adapted basis give the absolute and relative lifted polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvariantViolated, NoBasis, NotContained
from .fans import equal_sign_check, find_equal_sign_basis, pairing
from .cohomology import GradedRing, RingElement, padd, pconst, pmul
from .lattice import adapted_basis
from .layers import layer_inclusion


def divisor_class_raw(beta, f, nvars):
    p = {}
    for r, ray in enumerate(f.rays):
        v = min(0, pairing(beta, ray))
        if v:
            e = [0] * nvars
            e[r] = 1
            p[tuple(e)] = -v
    return p


def divisor_class(beta, ring, f):
    """Class of the closure of the character's kernel-translate divisor."""
    return ring.normal_form(divisor_class_raw(beta, f, ring.nvars))


@dataclass(frozen=True)
class LiftedChernPoly:
    ring: GradedRing
    coefficients: tuple  # RingElement per power of t, constant term first

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def coeff_polys(self):
        return [c.poly() for c in self.coefficients]

    def constant_term(self):
        return self.coefficients[0]


def product_of_linear_factors(factors, ring):
    """Coefficient list (constant first) of prod_j (t + a_j)."""
    coeffs = [pconst(1, ring.nvars)]
    for a in factors:
        new = []
        for i in range(len(coeffs) + 1):
            term = {}
            if i > 0:
                term = padd(term, coeffs[i - 1])
            if i < len(coeffs):
                term = padd(term, pmul(a, coeffs[i]))
            new.append(term)
        coeffs = new
    return coeffs


def make_lifted(factors, ring):
    coeffs = product_of_linear_factors(factors, ring)
    return LiftedChernPoly(ring, tuple(ring.normal_form(c) for c in coeffs))


def equal_sign_adapted_basis(f, g_lat, m_lat, bound=2):
    """Equal-sign basis of g_lat whose first k vectors span m_lat.

    The m part comes from the plain equal-sign search; the completion is the
    HNF-adapted one, each vector corrected by small multiples of the m part
    (and a sign) when it fails the sign condition.  Raises NoBasis when no
    correction within the bound works.
    """
    if m_lat.rank == 0:
        basis = find_equal_sign_basis(f, g_lat, bound)
        if basis is None:
            raise NoBasis("no equal-sign basis for the layer lattice")
        return basis, 0
    m_basis = find_equal_sign_basis(f, m_lat, bound)
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
                if equal_sign_check(f, [cand]).ok:
                    found = cand
                    break
            if found:
                break
        if found is None:
            raise NoBasis("no equal-sign completion within correction bound")
        corrected.append(found)
    return tuple(m_basis) + tuple(corrected), k


def lift_chern_absolute(G, ring, f, bound=2):
    """Monic degree-codim(G) polynomial lifting the Chern polynomial of the
    normal bundle of the closure of G; constant term is the dual class."""
    basis = find_equal_sign_basis(f, G.gamma, bound)
    if basis is None:
        raise NoBasis("no equal-sign basis for the layer lattice")
    factors = [divisor_class_raw(b, f, ring.nvars) for b in basis]
    return make_lifted(factors, ring)


def lift_chern_relative(G, M, ring, f, bound=2):
    """Relative version for a pair G inside M; degree codim(G) - codim(M)."""
    if not layer_inclusion(G, M):
        raise NotContained("relative lifting needs nested layers")
    basis, k = equal_sign_adapted_basis(f, G.gamma, M.gamma, bound)
    factors = [divisor_class_raw(b, f, ring.nvars) for b in basis[k:]]
    return make_lifted(factors, ring)


def lift_chern_pair(G, M, ring, f, bound=2):
    """(P_G, P_M, P_G_rel) computed from one shared adapted basis, so the
    factorization P_G = P_M * P_G_rel holds on the nose."""
    if not layer_inclusion(G, M):
        raise NotContained("relative lifting needs nested layers")
    basis, k = equal_sign_adapted_basis(f, G.gamma, M.gamma, bound)
    factors = [divisor_class_raw(b, f, ring.nvars) for b in basis]
    p_g = make_lifted(factors, ring)
    p_m = make_lifted(factors[:k], ring)
    p_rel = make_lifted(factors[k:], ring)
    # coefficient-wise identity of the product
    prod = [pconst(0, ring.nvars) for _ in range(p_g.degree + 1)]
    for i, a in enumerate(p_m.coeff_polys()):
        for j, b in enumerate(p_rel.coeff_polys()):
            prod[i + j] = padd(prod[i + j], pmul(a, b))
    for got, want in zip(prod, p_g.coefficients):
        if ring.normal_form(got).terms != want.terms:
            raise InvariantViolated("P_G is not P_M * P_G_rel")
    return p_g, p_m, p_rel
