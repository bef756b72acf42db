"""Operators in phi: application, twisted product, right division, gauges."""
import random
from fractions import Fraction

import pytest

from conftest import (apply_brute, eq_on_mask, gauge_exp, gauge_exp_param, gauge_theta, gauge_unit,
                      lam, rand_operator, rand_series, support)
from mahler.errors import ZeroDivisor
from mahler.fields import RatFun
from mahler.hahn import hs, monomial, one, zero
from mahler.operator import MahlerOperator, phi_minus
from mahler.testing import rand_tangent_unit


def test_order_and_trailing_zero_normalization():
    L = MahlerOperator(2, [one(), zero(), zero()])
    assert L.order == 0
    M = MahlerOperator(2, [one(), one(), zero()])
    assert M.order == 1
    with pytest.raises(ValueError):
        MahlerOperator(1, [one()])


def test_apply_matches_direct_sum():
    rng = random.Random(3)
    for _ in range(40):
        L = rand_operator(rng)
        f = rand_series(rng)
        got = L.apply(f)
        assert dict(got.terms) == apply_brute(L, f)


def test_apply_respects_twist():
    # phi(z) = z^p, so (phi . f)(z) = f(z^p)
    L = MahlerOperator(3, [zero(), one()])
    f = hs([(Fraction(1, 2), 5), (2, -1)])
    assert L.apply(f).terms == ((Fraction(3, 2), Fraction(5)), (Fraction(6), Fraction(-1)))


def test_product_is_composition():
    rng = random.Random(5)
    for _ in range(25):
        A = rand_operator(rng, max_order=2)
        B = rand_operator(rng, max_order=2, ps=(A.p,))
        f = rand_series(rng, terms=3)
        lhs = (A * B).apply(f)
        rhs = A.apply(B.apply(f))
        assert dict(lhs.terms) == dict(rhs.terms)


def test_product_twist_on_monomial_coefficients():
    # (z^e phi) (z^f phi) = z^(e + p f) phi^2
    p = 2
    e, f = Fraction(3), Fraction(-1, 2)
    A = MahlerOperator(p, [zero(), monomial(e)])
    B = MahlerOperator(p, [zero(), monomial(f)])
    C = A * B
    assert C.order == 2
    assert C.coeffs[2].terms == ((e + p * f, Fraction(1)),)


def test_product_associativity():
    rng = random.Random(9)
    for _ in range(10):
        A = rand_operator(rng, max_order=2, ps=(2,))
        B = rand_operator(rng, max_order=2, ps=(2,))
        C = rand_operator(rng, max_order=2, ps=(2,))
        lhs, rhs = (A * B) * C, A * (B * C)
        assert lhs.order == rhs.order
        for x, y in zip(lhs.coeffs, rhs.coeffs):
            assert dict(x.terms) == dict(y.terms)


def test_right_divide_recovers_quotient_and_remainder():
    rng = random.Random(13)
    for _ in range(20):
        p = 2
        B = MahlerOperator(p, [rand_series(rng, terms=2),
                               rand_tangent_unit(rng, terms=2)])
        Q0 = MahlerOperator(p, [rand_series(rng, terms=2),
                                rand_series(rng, terms=2)])
        R0 = MahlerOperator(p, [rand_series(rng, terms=2)])
        QB = Q0 * B
        A = MahlerOperator(p, (QB.coeffs[0] + R0.coeffs[0],) + QB.coeffs[1:])
        Q, R = A.right_divide(B, 12)
        assert Q.order == Q0.order and R.order == 0
        for x, y in zip(Q.coeffs, Q0.coeffs):
            eq, common = eq_on_mask(x, y)
            assert eq and not common.empty
        eq, common = eq_on_mask(R.coeffs[0], R0.coeffs[0])
        assert eq and not common.empty


def test_right_divide_by_short_operator():
    p = 2
    A = MahlerOperator(p, [one()])
    B = MahlerOperator(p, [one(), one()])
    Q, R = A.right_divide(B, 8)
    assert Q.order == 0 and Q.coeffs[0].is_exact_zero()
    assert R.coeffs[0] == A.coeffs[0]
    with pytest.raises(ZeroDivisor):
        A.right_divide(MahlerOperator(p, [zero()]), 8)


def test_gauge_theta_shifts_each_coefficient():
    L = MahlerOperator(2, [monomial(0), monomial(0), monomial(0)])
    mu = Fraction(3)
    G = gauge_theta(L, mu)
    assert [support(c)[0] for c in G.coeffs] == [Fraction(0), Fraction(3), Fraction(9)]
    G2 = gauge_theta(gauge_theta(L, Fraction(1, 2)), Fraction(5, 2))
    for x, y in zip(G2.coeffs, G.coeffs):
        assert x == y


def test_gauge_theta_is_conjugation():
    rng = random.Random(17)
    L = rand_operator(rng, max_order=2, ps=(2,))
    mu = Fraction(4)
    theta = monomial(mu / (L.p - 1))
    f = rand_series(rng, terms=3, lo=0)
    lhs = gauge_theta(L, mu).apply(f)
    rhs = (L.apply(theta * f)).shift(-mu / (L.p - 1))
    assert dict(lhs.terms) == dict(rhs.terms)


def test_gauge_exp_scales_and_inverts():
    rng = random.Random(19)
    L = rand_operator(rng, max_order=3)
    c = Fraction(5, 3)
    G = gauge_exp(L, c)
    for i, (x, y) in enumerate(zip(G.coeffs, L.coeffs)):
        assert dict(x.terms) == {e: v * c ** i for e, v in y.terms}
    back = gauge_exp(G, 1 / c)
    for x, y in zip(back.coeffs, L.coeffs):
        assert x == y


def test_gauge_exp_param_lifts_with_lambda_powers():
    L = MahlerOperator(2, [monomial(0, 2), monomial(0, 3), monomial(0, 5)])
    G = gauge_exp_param(L)
    assert G.coeffs[0].terms[0][1] == RatFun.const(2)
    assert G.coeffs[1].terms[0][1] == 3 * lam
    assert G.coeffs[2].terms[0][1] == 5 * lam ** 2


def test_gauge_unit_is_conjugation():
    rng = random.Random(23)
    for _ in range(8):
        L = rand_operator(rng, max_order=2, ps=(2, 3))
        g = rand_tangent_unit(rng, terms=3)
        ceiling = Fraction(14)
        f = rand_series(rng, terms=3)
        lhs = gauge_unit(L, g, ceiling).apply(f)
        rhs = g.invert(ceiling) * L.apply(g * f)
        eq, common = eq_on_mask(lhs, rhs)
        assert eq and not common.empty


def test_phi_minus():
    B = phi_minus(2, Fraction(3), nu=Fraction(1, 2))
    assert B.order == 1
    assert B.coeffs[0].terms == ((Fraction(0), Fraction(-3)),)
    assert B.coeffs[1].terms == ((Fraction(1, 2), Fraction(1)),)
