"""Factorization of a Mahler operator into first-order pieces.

An operator with rational exponents factors as a(z) * L_k ... L_1, one layer
L_j per slope (ascending), each layer a product of r_j factors
(z**nu_j phi - c) h(z)**-1 with h tangent to the identity.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonRationalExponent, PlanMismatch, UnknownLeadingTerm, VerificationError
from .hahn import HahnSeries, _exp, forward_solve, hs_mul_sums
from .operator import MahlerOperator


@dataclass(frozen=True)
class FirstOrderFactor:
    """The factor (z**nu phi - c) h**-1."""

    nu: Fraction
    c: Fraction
    h: HahnSeries

    def to_json(self):
        return {"nu": str(self.nu), "c": str(self.c), "h": self.h.to_json()}


@dataclass(frozen=True)
class Factorization:
    """L = a * L_k ... L_1; layers[j] lists the factors of L_{j+1} in peel order.

    Within a layer the composed operator is factor[r-1] * ... * factor[0].
    """

    p: int
    a: HahnSeries
    layers: tuple

    def all_factors(self):
        return [f for layer in self.layers for f in layer]

    def to_json(self):
        return {"a": self.a.to_json(),
                "layers": [[f.to_json() for f in layer] for layer in self.layers]}


def slope_zero_unit_solution(M, c, ceiling):
    """Tangent-to-identity h with sum_i c**i a_i phi_p**i(h) = 0.

    Requires the smallest slope of M to be 0 and c to be a root of the
    slope-0 characteristic polynomial (PlanMismatch otherwise).  A strict
    forward solve: the coefficient of z**gamma depends only on exponents
    < gamma.  With v0 = val a_0, each term v z**e of a_i with
    v0 < e < ceiling + v0 is the tap (e - v0, p**i, v c**i), read straight
    off the coefficients.  The identity is checked once, by the peel in
    factor_operator.
    """
    p = M.p
    c = Fraction(c)
    v0 = M.coeffs[0].val()
    cap = Fraction(ceiling)
    for ai in M.coeffs:
        if ai.is_zero() and ai.mask.empty:
            raise UnknownLeadingTerm("coefficient with no certified region")
        if ai.val_bound()[0] < v0:
            raise PlanMismatch("smallest slope is not zero")
        gap = ai.mask.first_gap() - v0
        if gap < cap:
            cap = gap
    heads = [ai.coeff_at(v0) * c ** i for i, ai in enumerate(M.coeffs)]
    if sum(heads):
        raise PlanMismatch("%s is not a root of the slope-zero characteristic polynomial" % c)
    taps = [(Fraction(0), p ** i, heads[i]) for i in range(1, len(heads)) if heads[i]]
    top = cap + v0
    for i, ai in enumerate(M.coeffs):
        terms = ai.terms[bisect_right(ai.terms, v0, key=_exp):bisect_left(ai.terms, top, key=_exp)]
        ci, k = c ** i, p ** i
        taps += [(e - v0, k, v * ci) for e, v in terms]
    return forward_solve(Fraction(1), heads[0], taps, cap)


def factor_operator(L, ceiling, plan):
    """Peel first-order right factors slope by slope; certifies each peel.

    The slopes and exponents come from the FrobeniusPlan: layer j gauges by
    nu_j and peels each exponent c of entries[j], smallest first, m times.
    Each peel checks that the gauged remainder has slope 0 with chi(c) = 0
    (PlanMismatch otherwise), solves for the unit h and divides with no
    inverse, Mg h = Q (phi - c) + r.  One `hs_mul_sums` call forms each
    b_i = a_i phi**i(h) once and folds every t_k = sum_(i >= k) c**(i-k) b_i
    on integers: r = t_0, the peel's one certificate, must be certified zero
    (VerificationError otherwise), and Q has the coefficients t_1, ..., t_n.
    """
    if sum(m for entry in plan.entries for _, m, _ in entry) < L.order:
        raise NonRationalExponent("some slope has no rational exponent left to factor out")
    p = L.p
    a0 = L.coeffs[0]
    va0, ca0 = a0.val(), a0.cld()
    M = L
    layers = []
    for j, (nu, entry) in enumerate(zip(plan.nus, plan.entries)):
        Mg = M.gauge_theta(-nu)
        layer = []
        for c, m, _ in entry:
            for _ in range(m):
                h = slope_zero_unit_solution(Mg, c, ceiling)
                n = Mg.order
                t = hs_mul_sums(p, list(enumerate(Mg.coeffs)), [h],
                                {k: [(c ** (i - k), i, 0) for i in range(k, n + 1)]
                                 for k in range(n + 1)})
                if not t[0].is_zero() or t[0].mask.empty:
                    raise VerificationError("layer %d, peel %d, c = %s: sum_i c**i a_i phi**i(h) "
                                            "is not certified zero" % (j + 1, len(layer) + 1, c))
                layer.append(FirstOrderFactor(nu, c, h))
                Mg = MahlerOperator(p, [t[k] for k in range(1, n + 1)])
        M = Mg.gauge_theta(nu)
        layers.append(tuple(layer))
    if M.order:
        raise PlanMismatch("an order-%d remainder is left after the plan's slopes" % M.order)
    fact = Factorization(p, M.coeffs[0], tuple(layers))
    if fact.a.val() != va0:
        raise VerificationError("val of the order-0 leftover differs from val a_0")
    if fact.a.cld() * math.prod(-f.c for f in fact.all_factors()) != ca0:
        raise VerificationError("cld invariant of the factorization fails")
    return fact


def factor_reconstruct(fact, ceiling):
    """Compose a * L_k ... L_1 back into a single operator."""
    p = fact.p
    M = MahlerOperator(p, [fact.a])
    for layer in reversed(fact.layers):
        for f in reversed(layer):
            hinv = f.h.invert(ceiling)
            B = MahlerOperator(p, [hinv.scale(-f.c), hinv.mal(1, p).shift(f.nu)])
            M = M * B
    return M
