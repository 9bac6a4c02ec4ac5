"""Explicit liftings of Chern polynomials of normal bundles of layer closures.

Everything is built from one formula: the divisor class of a character beta
is -sum_r min(0, <beta, r>) c_r.  Products of (t + class) factors over an
equal-sign adapted basis give the absolute and relative lifted polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NoBasis
from .fans import COEFF_ORDER, find_equal_sign_basis, one_signed, pairing
from .cohomology import GradedRing, padd, pconst, pmul
from .lattice import adapted_basis


def divisor_class_raw(beta, f, nvars):
    """Class of the closure of the character's kernel-translate divisor, as
    a polynomial on nvars generators, not reduced in any ring."""
    p = {}
    for r, ray in enumerate(f.rays):
        v = min(0, pairing(beta, ray))
        if v:
            e = [0] * nvars
            e[r] = 1
            p[tuple(e)] = -v
    return p


@dataclass(frozen=True)
class LiftedChernPoly:
    ring: GradedRing
    coefficients: tuple  # RingElement per power of t, constant term first


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


def equal_sign_adapted_basis(f, g_lat, m_lat):
    """Equal-sign basis of g_lat whose first k vectors span m_lat.

    The m part comes from the plain equal-sign search; the completion is the
    HNF-adapted one, each vector corrected by a sign and by combinations of
    the m part with coefficients in COEFF_ORDER when it fails the sign
    condition.  Raises NoBasis when no such correction works.  The lattices
    meet the precondition of lattice.adapted_basis, which is not checked.
    """
    if m_lat.rank == 0:
        basis = find_equal_sign_basis(f, g_lat)
        if basis is None:
            raise NoBasis("no equal-sign basis for the layer lattice")
        return basis, 0
    m_basis = find_equal_sign_basis(f, m_lat)
    if m_basis is None:
        raise NoBasis("no equal-sign basis for the larger layer's lattice")
    ab = adapted_basis(g_lat, m_lat)
    k = ab.split_index
    corrected = []
    for w in ab.vectors[k:]:
        cands = (
            tuple(
                sign * w[j] + sum(c * row[j] for c, row in zip(combo, m_lat.basis))
                for j in range(len(w))
            )
            for sign in (1, -1)
            for combo in itertools.product(COEFF_ORDER, repeat=k)
        )
        found = next((cand for cand in cands if one_signed(f, cand)), None)
        if found is None:
            raise NoBasis("no equal-sign completion within correction bound")
        corrected.append(found)
    return tuple(m_basis) + tuple(corrected), k


def lift_chern_relative(G, M, ring, f):
    """Monic degree codim(G) - codim(M) polynomial lifting the Chern
    polynomial of the normal bundle of the closure of G in that of M.  With
    M the torus it is the absolute lift, whose constant term is the dual
    class of G.

    Precondition, not checked here: G lies in M, and both are elements of
    one LayerPoset (so their lattices are saturated) or M is the torus."""
    basis, k = equal_sign_adapted_basis(f, G.gamma, M.gamma)
    factors = [divisor_class_raw(b, f, ring.nvars) for b in basis[k:]]
    return make_lifted(factors, ring)

