"""First-order factorization: unit solutions, peeling, reconstruction."""
import importlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (count_calls, eq_on_mask, forget, gauge_exp, gauge_theta, ladder_operator,
                      phi_minus, plan_of, rand_operator, reference_factor_operator,
                      reference_peel)
from test_cli import EXAMPLE
from mahler.cli import elaborate, parse_spec
from mahler.errors import (MahlerError, NonRationalExponent, PlanMismatch, UnknownLeadingTerm,
                           VerificationError)
from mahler.hahn import HahnSeries, Mask, _series, hs, monomial, one, zero
from mahler.newton import FrobeniusPlan, analyze
from mahler.operator import MahlerOperator
from mahler.factorize import (Factorization, FirstOrderFactor, factor_operator,
                              factor_reconstruct, slope_zero_unit_solution)
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
        Lg = gauge_theta(L, -(p - 1) * sigma0)
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
    L = phi_minus(2, 1)
    fact = factor_operator(L, 10, plan_of(L))
    assert len(fact.layers) == 1 and len(fact.layers[0]) == 1
    f = fact.layers[0][0]
    assert f.nu == 0 and f.c == 1
    assert f.h.terms == ((Fraction(0), Fraction(1)),)
    assert fact.a.val() == 0 and fact.a.cld() == 1


def test_factor_ladder_operators():
    for p, nu in ((2, -2), (3, -3)):
        L = ladder_operator(p, nu)
        fact = factor_operator(L, 12, plan_of(L))
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
        fact = factor_operator(L, 4, plan_of(L))
        assert [len(layer) for layer in fact.layers] == \
            [len(layer) for layer in built.layers]
        for got, exp in zip(fact.layers, built.layers):
            assert got[0].nu == exp[0].nu
            assert sorted(f.c for f in got) == sorted(f.c for f in exp)


def test_factor_reconstruct_round_trip():
    rng = random.Random(73)
    for _ in range(15):
        L, _ = rand_factored_operator(rng, Fraction(4))
        fact = factor_operator(L, 4, plan_of(L))
        M = factor_reconstruct(fact, 4)
        assert M.order == L.order
        for x, y in zip(M.coeffs, L.coeffs):
            eq, common = eq_on_mask(x, y)
            assert eq and not common.empty


def test_factor_cld_and_val_invariants():
    rng = random.Random(79)
    for _ in range(15):
        L, _ = rand_factored_operator(rng, Fraction(4))
        fact = factor_operator(L, 4, plan_of(L))
        assert fact.a.val() == L.coeffs[0].val()
        prod = Fraction(1)
        for f in fact.all_factors():
            prod *= -f.c
        assert fact.a.cld() * prod == L.coeffs[0].cld()
        plan = plan_of(L)
        assert tuple(layer[0].nu for layer in fact.layers) == plan.nus


def test_factor_detects_plan_mismatch():
    L = ladder_operator(2, -2)
    wrong = plan_of(gauge_theta(L, 2))
    with pytest.raises(PlanMismatch):
        factor_operator(L, 10, wrong)


def test_factor_rejects_irrational_exponents():
    L = MahlerOperator(2, [one(), zero(), one()])
    nd = analyze(L)
    assert not nd.full and nd.residuals[0].degree == 2
    with pytest.raises(NonRationalExponent):
        factor_operator(L, 8, plan_of(L))


def test_factor_with_a_plan_never_analyzes(monkeypatch):
    rng = random.Random(83)
    cases = [(L, plan_of(L)) for L, _ in
             (rand_factored_operator(rng, Fraction(4)) for _ in range(5))]

    def boom(L):
        raise AssertionError("analyze called although a plan was supplied")
    # patch the submodule that defines analyze
    monkeypatch.setattr(importlib.import_module("mahler.newton"), "analyze", boom)
    for L, plan in cases:
        fact = factor_operator(L, 4, plan)
        assert sum(len(layer) for layer in fact.layers) == L.order


def test_factor_rejects_a_plan_short_of_the_order():
    L = MahlerOperator(2, [one(), zero(), one()])
    plan = plan_of(L)
    assert sum(m for entry in plan.entries for _, m, _ in entry) < L.order
    with pytest.raises(NonRationalExponent):
        factor_operator(L, 8, plan)


def test_factor_rejects_a_plan_that_leaves_a_remainder():
    L = ladder_operator(2, -2)
    plan = plan_of(L)
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
        assert factor_operator(L, ceiling, plan_of(L)).to_json() == \
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
            got = factor_operator(L, 3, plan_of(L)).to_json()
        except MahlerError as exc:
            got = type(exc)
        assert got == want
        outcomes.add(want if isinstance(want, type) else "ok")
    assert "ok" in outcomes and NonRationalExponent in outcomes


def _holed(rng, L):
    """L with one or two holes punched by forget in about half of its
    coefficient masks, inside the window a ceiling of 4 certifies."""
    coeffs = []
    for a in L.coeffs:
        if a.terms and rng.random() < 0.5:
            cut = a.terms[0][0] + Fraction(rng.randint(1, 12), rng.choice((2, 3, 5)))
            for _ in range(rng.randint(1, 2)):
                width = Fraction(rng.randint(1, 3), rng.choice((2, L.p ** 2, 7)))
                a = forget(a, cut, cut + width)
                cut += width + Fraction(rng.randint(1, 4), 3)
        coeffs.append(a)
    return MahlerOperator(L.p, coeffs)


def _peel_cases():
    """(L, ceiling): the 200 criterion-3 operators, 150 random factored
    operators with holed coefficient masks, phi**2 - 1 (an exact-zero
    interior coefficient), an exponent of multiplicity 2 and exponents
    with denominators."""
    rng = random.Random(2026)
    for _ in range(200):
        yield rand_factored_operator(rng, Fraction(3))[0], Fraction(3)
    rng = random.Random(7)
    for _ in range(150):
        yield _holed(rng, rand_factored_operator(rng, 4)[0]), Fraction(4)
    yield MahlerOperator(2, [one().scale(-1), zero(), one()]), Fraction(6)
    rng = random.Random(17)
    for p, cs in ((3, (1, 1)), (2, (Fraction(2, 3), Fraction(-1, 2), 3))):
        layer = tuple(FirstOrderFactor(Fraction(0), Fraction(c), rand_tangent_unit(rng))
                      for c in cs)
        yield factor_reconstruct(Factorization(p, one(), (layer,)), 6), Fraction(6)


def test_peel_equals_reference_on_gapped_inputs(monkeypatch):
    """Every peel's remainder and the quotient it passes on, masks included,
    equal the Horner fold of reference_mul products.  The peel works on
    (region, terms, den) triples; the test builds them into series on the
    lattice that the unit solution of the same peel was given."""
    module = sys.modules["mahler.factorize"]
    solve, peel = module._unit_solution, module._peel
    last, seen = [], Counter()

    def recording_solve(p, M, coeffs, c, top):
        h, unit = solve(p, M, coeffs, c, top)
        last[:] = [M, h]
        return h, unit

    def checked_peel(p, coeffs, unit, c):
        t = peel(p, coeffs, unit, c)
        M, h = last
        Mg = MahlerOperator(p, [_series(M, a) for a in coeffs])
        want = reference_peel(Mg, h, c)
        assert _series(M, t[0]) == want[0]
        seen["peel"] += 1
        # the quotient passed on to the next peel
        assert [_series(M, q) for q in t[1:]] == want[1:]
        seen["quotient"] += 1
        if any(len(a.mask.extended) > 1 for a in Mg.coeffs):
            seen["gapped"] += 1
        if any(a.is_exact_zero() for a in Mg.coeffs[1:-1]):
            seen["zero interior"] += 1
        if c.denominator > 1:
            seen["c with a denominator"] += 1
        return t
    monkeypatch.setattr(module, "_unit_solution", recording_solve)
    monkeypatch.setattr(module, "_peel", checked_peel)
    for L, ceiling in _peel_cases():
        plan = plan_of(L)
        factor_operator(L, ceiling, plan)
        if any(m >= 2 for entry in plan.entries for _, m, _ in entry):
            seen["repeated exponent"] += 1
    assert seen.keys() == {"peel", "quotient", "gapped", "zero interior",
                           "c with a denominator", "repeated exponent"}
    assert seen["quotient"] == seen["peel"]


def test_peel_rejects_a_corrupted_unit_solution(monkeypatch):
    module = sys.modules["mahler.factorize"]
    solve = module.forward_solve

    def corrupted(one_, lead, taps, cut):
        # one extra certified term below the cut: 1/3 added to w_g
        terms, den = solve(one_, lead, taps, cut)
        w = {g: 3 * N for g, N in terms}
        g = max(1, cut // 7)
        w[g] = w.get(g, 0) + den
        return sorted((g, N) for g, N in w.items() if N), 3 * den
    rng = random.Random(101)
    cases = [rand_factored_operator(rng, Fraction(4))[0] for _ in range(10)]
    cases.append(ladder_operator(2, -2))
    monkeypatch.setattr(module, "forward_solve", corrupted)
    for L in cases:
        plan = plan_of(L)
        c = plan.entries[0][0][0]
        with pytest.raises(VerificationError) as exc:
            factor_operator(L, 4, plan)
        assert str(exc.value) == ("layer 1, peel 1, c = %s: sum_i c**i a_i phi**i(h) "
                                  "is not certified zero" % c)


def test_factor_operator_stays_on_one_lattice(monkeypatch):
    """factor_operator puts L on one lattice once and builds a series only
    for each unit h and for the leftover a: per call no HahnSeries.shift,
    no hs_mul_sums, and one _series (the one series builder) per peel plus
    one.  The README example at precision 8 and the first 60 criterion-3
    operators."""
    hahn = sys.modules["mahler.hahn"]
    cases = [(elaborate(parse_spec(EXAMPLE), 8), Fraction(8))]
    rng = random.Random(2026)
    cases += [(rand_factored_operator(rng, Fraction(3))[0], Fraction(3)) for _ in range(60)]
    plans = [plan_of(L) for L, _ in cases]
    calls = Counter()
    monkeypatch.setattr(HahnSeries, "shift",
                        count_calls(monkeypatch, calls, HahnSeries.shift, "shift"))
    for name in ("hs_mul_sums", "_series"):
        count_calls(monkeypatch, calls, getattr(hahn, name), name)
    peels = 0
    for (L, ceiling), plan in zip(cases, plans):
        calls.clear()
        fact = factor_operator(L, ceiling, plan)
        n = len(fact.all_factors())
        assert calls == Counter({"_series": n + 1}), calls
        peels += n
    assert peels > 100


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
    L = ladder_operator(2, -2)
    with pytest.raises(VerificationError, match=message):
        factor_operator(L, 6, plan_of(L))
