"""First-order factorization: unit solutions, peeling, reconstruction."""
import importlib
import random
import sys
from fractions import Fraction

import pytest

from conftest import (eq_on_mask, gauge_exp, ladder_operator, rand_operator,
                      reference_factor_operator)
from test_cli import EXAMPLE
from mahler.cli import elaborate, parse_spec
from mahler.errors import (MahlerError, NonRationalExponent, PlanMismatch, UnknownLeadingTerm,
                           VerificationError)
from mahler.hahn import HahnSeries, Mask, hs, monomial, one, zero
from mahler.newton import FrobeniusPlan, analyze, frobenius_plan
from mahler.operator import MahlerOperator, phi_minus
from mahler.factorize import factor_operator, factor_reconstruct, slope_zero_unit_solution
from mahler.testing import rand_factored_operator, rand_tangent_unit


def test_unit_solution_for_a_single_factor():
    rng = random.Random(61)
    for p in (2, 3):
        for _ in range(10):
            h = rand_tangent_unit(rng, terms=4)
            c = Fraction(rng.choice((1, -1, 2, 3, -2)))
            hinv = h.invert(20)
            M = MahlerOperator(p, [hinv.scale(-c), hinv.mal(1, p)])
            got = slope_zero_unit_solution(M, c, 12)
            eq, common = eq_on_mask(got, h)
            assert eq and not common.empty
            assert got.coeff_at(0) == 1


def test_unit_solution_annihilates_under_exp_gauge():
    rng = random.Random(67)
    for _ in range(10):
        L, fact = rand_factored_operator(rng, Fraction(6), max_order=2)
        p = L.p
        sigma0 = analyze(L).slopes[0][0]
        Lg = L.gauge_theta(-(p - 1) * sigma0)
        c = fact.layers[0][0].c
        h = slope_zero_unit_solution(Lg, c, 5)
        res = gauge_exp(Lg, c).apply(h)
        assert res.is_zero() and not res.mask.empty
        assert h.coeff_at(0) == 1


def test_unit_solution_rejects_non_roots():
    L = phi_minus(2, 1)
    with pytest.raises(PlanMismatch):
        slope_zero_unit_solution(L, Fraction(5), 8)
    M = MahlerOperator(2, [monomial(1), one()])
    with pytest.raises(PlanMismatch):
        # smallest slope is not zero
        slope_zero_unit_solution(M, Fraction(-1), 8)


def test_factor_first_order():
    fact = factor_operator(phi_minus(2, 1), 10)
    assert len(fact.layers) == 1 and len(fact.layers[0]) == 1
    f = fact.layers[0][0]
    assert f.nu == 0 and f.c == 1
    assert f.h.terms == ((Fraction(0), Fraction(1)),)
    assert fact.a.val() == 0 and fact.a.cld() == 1


def test_factor_ladder_operators():
    for p, nu in ((2, -2), (3, -3)):
        L = ladder_operator(p, nu)
        fact = factor_operator(L, 12)
        assert [len(layer) for layer in fact.layers] == [1, 1]
        first, second = fact.layers[0][0], fact.layers[1][0]
        assert (first.nu, first.c) == (0, 1)
        assert (second.nu, second.c) == (-Fraction(nu), 1)
        assert first.h.terms == ((Fraction(0), Fraction(1)),)
        h = hs([(0, 1), (-Fraction(nu) / (p - 1), 1)])
        eq, common = eq_on_mask(second.h, h)
        assert eq and not common.empty
        assert fact.a.val() == nu
        assert fact.a.cld() * (-first.c) * (-second.c) == L.coeffs[0].cld()


def test_factor_matches_construction():
    rng = random.Random(71)
    for _ in range(25):
        L, built = rand_factored_operator(rng, Fraction(4))
        fact = factor_operator(L, 4)
        assert [len(layer) for layer in fact.layers] == \
            [len(layer) for layer in built.layers]
        for got, exp in zip(fact.layers, built.layers):
            assert got[0].nu == exp[0].nu
            assert sorted(f.c for f in got) == sorted(f.c for f in exp)


def test_factor_reconstruct_round_trip():
    rng = random.Random(73)
    for _ in range(15):
        L, _ = rand_factored_operator(rng, Fraction(4))
        fact = factor_operator(L, 4)
        M = factor_reconstruct(fact, 4)
        assert M.order == L.order
        for x, y in zip(M.coeffs, L.coeffs):
            eq, common = eq_on_mask(x, y)
            assert eq and not common.empty


def test_factor_cld_and_val_invariants():
    rng = random.Random(79)
    for _ in range(15):
        L, _ = rand_factored_operator(rng, Fraction(4))
        fact = factor_operator(L, 4)
        assert fact.a.val() == L.coeffs[0].val()
        prod = Fraction(1)
        for f in fact.all_factors():
            prod *= -f.c
        assert fact.a.cld() * prod == L.coeffs[0].cld()
        plan = frobenius_plan(L)
        assert tuple(layer[0].nu for layer in fact.layers) == plan.nus


def test_factor_detects_plan_mismatch():
    L = ladder_operator(2, -2)
    wrong = frobenius_plan(L.gauge_theta(2))
    with pytest.raises(PlanMismatch):
        factor_operator(L, 10, wrong)


def test_factor_rejects_irrational_exponents():
    L = MahlerOperator(2, [one(), zero(), one()])
    nd = analyze(L)
    assert not nd.full and nd.residuals[0].degree == 2
    with pytest.raises(NonRationalExponent):
        factor_operator(L, 8)


def test_layer_json_round_trip():
    from mahler.factorize import FirstOrderFactor
    f = FirstOrderFactor(Fraction(2), Fraction(-1, 3), hs([(0, 1), (1, 4)]))
    assert FirstOrderFactor.from_json(f.to_json()) == f


def test_factor_with_a_plan_never_analyzes(monkeypatch):
    rng = random.Random(83)
    cases = [(L, frobenius_plan(L)) for L, _ in
             (rand_factored_operator(rng, Fraction(4)) for _ in range(5))]

    def boom(L):
        raise AssertionError("analyze called although a plan was supplied")
    # patch the submodule, where factor_operator looks analyze up
    monkeypatch.setattr(importlib.import_module("mahler.factorize"), "analyze", boom)
    for L, plan in cases:
        fact = factor_operator(L, 4, plan)
        assert sum(len(layer) for layer in fact.layers) == L.order


def test_factor_without_a_plan_equals_factor_with_one():
    rng = random.Random(89)
    for _ in range(15):
        L, _ = rand_factored_operator(rng, Fraction(4))
        assert factor_operator(L, 4).to_json() == \
            factor_operator(L, 4, frobenius_plan(L)).to_json()


def test_factor_rejects_a_plan_short_of_the_order():
    L = MahlerOperator(2, [one(), zero(), one()])
    plan = frobenius_plan(L)
    assert sum(m for entry in plan.entries for _, m, _ in entry) < L.order
    with pytest.raises(NonRationalExponent):
        factor_operator(L, 8, plan)


def test_factor_rejects_a_plan_that_leaves_a_remainder():
    L = ladder_operator(2, -2)
    plan = frobenius_plan(L)
    short = FrobeniusPlan(plan.p, plan.val_a0, plan.nus[:1], plan.entries)
    with pytest.raises(PlanMismatch):
        factor_operator(L, 10, short)


def _factor_cases():
    rng = random.Random(2026)
    # the criterion-3 suite draws its operators from this stream
    for _ in range(60):
        L, _ = rand_factored_operator(rng, Fraction(3))
        yield L, Fraction(3)
    rng = random.Random(97)
    for ceiling in (Fraction(3), Fraction(6), Fraction(13, 2)):
        for _ in range(40):
            L, _ = rand_factored_operator(rng, ceiling)
            yield L, ceiling
    yield elaborate(parse_spec(EXAMPLE), 8), Fraction(8)
    for p, nu in ((2, -2), (3, -3)):
        yield ladder_operator(p, nu), Fraction(8)


def test_synthetic_division_peel_equals_right_division():
    n = 0
    for L, ceiling in _factor_cases():
        assert factor_operator(L, ceiling).to_json() == \
            reference_factor_operator(L, ceiling).to_json()
        n += 1
    assert n == 183


def test_synthetic_division_peel_raises_like_right_division():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(100):
        L = rand_operator(rng)
        try:
            want = reference_factor_operator(L, 3).to_json()
        except MahlerError as exc:
            want = type(exc)
        try:
            got = factor_operator(L, 3).to_json()
        except MahlerError as exc:
            got = type(exc)
        assert got == want
        outcomes.add(want if isinstance(want, type) else "ok")
    assert "ok" in outcomes and NonRationalExponent in outcomes


def test_peel_rejects_a_corrupted_unit_solution(monkeypatch):
    module = sys.modules["mahler.factorize"]
    solve = module.forward_solve

    def corrupted(one_, lead, taps, cap):
        # one extra certified term below the cap
        return solve(one_, lead, taps, cap) + monomial(cap / 7, Fraction(1, 3))
    rng = random.Random(101)
    cases = [rand_factored_operator(rng, Fraction(4))[0] for _ in range(10)]
    cases.append(ladder_operator(2, -2))
    monkeypatch.setattr(module, "forward_solve", corrupted)
    for L in cases:
        c = frobenius_plan(L).entries[0][0][0]
        with pytest.raises(VerificationError) as exc:
            factor_operator(L, 4)
        assert str(exc.value) == ("layer 1, peel 1, c = %s: sum_i c**i a_i phi**i(h) "
                                  "is not certified zero" % c)


def test_unit_solution_rejects_a_coefficient_with_no_certified_region():
    M = MahlerOperator(2, [one(), HahnSeries((), Mask(())), one().scale(-1)])
    with pytest.raises(UnknownLeadingTerm, match="coefficient with no certified region"):
        slope_zero_unit_solution(M, 1, 8)


@pytest.mark.parametrize("corrupt, message", [
    (lambda a: a.shift(1), "val of the order-0 leftover differs from val a_0"),
    (lambda a: a.scale(2), "cld invariant of the factorization fails"),
])
def test_factor_operator_checks_the_order0_leftover(monkeypatch, corrupt, message):
    """Both checks hold by construction, so only a corrupted leftover a
    (the last remainder of the peels) reaches them."""
    module = sys.modules["mahler.factorize"]
    real = module.Factorization
    monkeypatch.setattr(module, "Factorization",
                        lambda p, a, layers: real(p, corrupt(a), layers))
    with pytest.raises(VerificationError, match=message):
        factor_operator(ladder_operator(2, -2), 6)
