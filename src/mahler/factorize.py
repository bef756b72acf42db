"""Factorization of a Mahler operator into first-order pieces.

An operator with rational exponents factors as a(z) * L_k ... L_1, one layer
L_j per slope (ascending), each layer a product of r_j factors
(z**nu_j phi - c) h(z)**-1 with h tangent to the identity.
"""
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .errors import (NonRationalExponent, PlanMismatch, Record, UnknownLeadingTerm,
                     VerificationError, ZeroSeries)
from .hahn import (_FULL, NEG, _exp, _fold, _grid, _grid_product, _iv_diff, _numerators, _series,
                   _shifted, forward_solve)
from .operator import MahlerOperator


class FirstOrderFactor(Record):
    """The factor (z**nu phi - c) h**-1: nu and c Fractions, h a HahnSeries."""

    __slots__ = ("nu", "c", "h")

    def to_json(self):
        return {"nu": str(self.nu), "c": str(self.c), "h": self.h.to_json()}


class Factorization(Record):
    """L = a * L_k ... L_1; layers[j] lists the factors of L_{j+1} in peel order.

    Within a layer the composed operator is factor[r-1] * ... * factor[0].
    """

    __slots__ = ("p", "a", "layers")

    def all_factors(self):
        return [f for layer in self.layers for f in layer]

    def to_json(self):
        return {"a": self.a.to_json(),
                "layers": [[f.to_json() for f in layer] for layer in self.layers]}


def slope_zero_unit_solution(M, c, ceiling):
    """Tangent-to-identity h with sum_i c**i a_i phi_p**i(h) = 0.

    Requires the smallest slope of M to be 0 and c to be a root of the
    slope-0 characteristic polynomial (PlanMismatch otherwise).  The
    coefficients and the ceiling go on one lattice (1/D)Z, where
    `_unit_solution` solves as it does for factor_operator."""
    cap = Fraction(ceiling)
    D = math.lcm(_grid(M.coeffs), cap.denominator)
    return _unit_solution(M.p, D, [_numerators(a, D) for a in M.coeffs], c,
                          cap.numerator * (D // cap.denominator))[0]


def _unit_solution(p, M, coeffs, c, top):
    """(h, its (region, terms, den)) for the operator with coefficients a_i
    given as `_numerators` on (1/M)Z, at the ceiling top/M.

    A strict forward solve: the coefficient of z**gamma depends only on
    exponents < gamma.  With V0 = M val a_0 and cut the smaller of top and
    every M first gap of a_i less V0, each term N z**(E/M) of a_i with
    V0 < E < cut + V0 is the tap (E - V0, p**i, N s_i), read straight off
    the integers: with c = a/b, n the order, q the lcm of the dens and
    den_i that of a_i, s_i = a**i b**(n-i) q/den_i applies c**i and clears
    every denominator.  The heads, the numerators at V0 times s_i, must
    sum to 0.  The identity is checked once, by the peel in factor_operator.
    """
    c = Fraction(c)
    region0, terms0, _ = coeffs[0]
    if not terms0:
        raise ZeroSeries("valuation of a series with no certified terms")
    V0 = terms0[0][0]
    if V0 >= region0[0][1]:
        raise UnknownLeadingTerm("leading term at %s is not certified" % Fraction(V0, M))
    cut = top
    for region, terms, _ in coeffs:
        if not region:
            raise UnknownLeadingTerm("coefficient with no certified region")
        gap = region[0][1]
        if min(terms[0][0], gap) < V0 if terms else gap < V0:
            raise PlanMismatch("smallest slope is not zero")
        cut = min(cut, gap - V0)
    n = len(coeffs) - 1
    q = math.lcm(*(den for _, _, den in coeffs))
    scales = [c.numerator ** i * c.denominator ** (n - i) * (q // den)
              for i, (_, _, den) in enumerate(coeffs)]
    heads = []
    for (region, terms, _), s in zip(coeffs, scales):
        if region[0][1] == V0:
            raise UnknownLeadingTerm("coefficient at %s is not certified" % Fraction(V0, M))
        heads.append(terms[0][1] * s if terms and terms[0][0] == V0 else 0)
    if sum(heads):
        raise PlanMismatch("%s is not a root of the slope-zero characteristic polynomial" % c)
    taps = [(0, p ** i, heads[i]) for i in range(1, n + 1) if heads[i]]
    for i, ((_, terms, _), s) in enumerate(zip(coeffs, scales)):
        k = p ** i
        taps += [(E - V0, k, N * s) for E, N in
                 terms[bisect_right(terms, V0, key=_exp):bisect_left(terms, cut + V0, key=_exp)]]
    unit = ([(NEG, cut)], *forward_solve(1, heads[0], taps, cut))
    return _series(M, unit), unit


def _peel(p, coeffs, unit, c):
    """[t_0, ..., t_n], each a (region, terms, den) on one lattice, for the
    a_i and the unit h given as `_unit_solution` and `_numerators` give
    them: t_k = sum_(i >= k) c**(i-k) b_i with b_i = a_i phi_p**i(h).  Each
    b_i is one `_grid_product`, with h's uncertified complement taken once
    for all of them, and Horner's rule folds t_k = b_k + c t_(k+1)
    (`_fold`)."""
    unc = _iv_diff(_FULL, unit[0])
    t = [_grid_product(a, unit, p ** i, _iv_diff(_FULL, a[0]), unc)
         for i, a in enumerate(coeffs)]
    t[-1] = _fold([(1, t[-1])])
    for k in range(len(t) - 2, -1, -1):
        t[k] = _fold([(1, t[k]), (c, t[k + 1])])
    return t


def factor_operator(L, ceiling, plan):
    """Peel first-order right factors slope by slope; certifies each peel.

    The slopes and exponents come from the FrobeniusPlan: layer j gauges by
    nu_j and peels each exponent c of entries[j], smallest first, m times.
    Everything runs on one lattice (1/M)Z, M clearing L's exponents and
    finite mask endpoints, the ceiling and every nu_j/(p-1): the
    coefficients are put there once (`_numerators`), and the gauge by
    theta_(-+nu_j) adds the integer -+M nu_j (p**i - 1)/(p - 1) to the
    exponents and region of a_i.  Each peel checks that the gauged
    remainder has slope 0 with chi(c) = 0 (PlanMismatch otherwise), solves
    for the unit h (`_unit_solution`) and divides with no inverse,
    Mg h = Q (phi - c) + r (`_peel`): r = t_0, the peel's one certificate,
    must be certified zero (VerificationError otherwise), and Q has the
    coefficients t_1, ..., t_n.  Only each h and the leftover a become
    series.
    """
    if sum(m for entry in plan.entries for _, m, _ in entry) < L.order:
        raise NonRationalExponent("some slope has no rational exponent left to factor out")
    p = L.p
    a0 = L.coeffs[0]
    va0, ca0 = a0.val(), a0.cld()
    cap = Fraction(ceiling)
    thetas = [Fraction(nu, p - 1) for nu in plan.nus]
    M = math.lcm(_grid(L.coeffs), cap.denominator, *(t.denominator for t in thetas))
    top = cap.numerator * (M // cap.denominator)
    coeffs = [_numerators(a, M) for a in L.coeffs]
    layers, gauge = [], 0
    for j, (nu, theta, entry) in enumerate(zip(plan.nus, thetas, plan.entries)):
        shift = int(theta * M)  # exact, as M clears theta's denominator
        coeffs = [_shifted(a, (gauge - shift) * (p ** i - 1)) for i, a in enumerate(coeffs)]
        gauge = shift
        layer = []
        for c, m, _ in entry:
            for _ in range(m):
                h, unit = _unit_solution(p, M, coeffs, c, top)
                t = _peel(p, coeffs, unit, c)
                if t[0][1] or not t[0][0]:  # r has a term, or an empty region
                    raise VerificationError("layer %d, peel %d, c = %s: sum_i c**i a_i phi**i(h) "
                                            "is not certified zero" % (j + 1, len(layer) + 1, c))
                layer.append(FirstOrderFactor(nu, c, h))
                coeffs = t[1:]
        layers.append(tuple(layer))
    if len(coeffs) > 1:
        raise PlanMismatch("an order-%d remainder is left after the plan's slopes"
                           % (len(coeffs) - 1))
    fact = Factorization(p, _series(M, coeffs[0]) if L.order else a0, tuple(layers))
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
