"""End-to-end acceptance suite.

Each criterion is one test that prints one summary line (visible with -s):

    ACCEPTANCE <criterion>  PASS|FAIL  (elapsed, limit if timed)

All comparisons are exact rational equality.  Criteria with a stated time
budget also assert the wall-clock bound.
"""
import random
import time
from fractions import Fraction

from conftest import (canon, eq_on_mask, gauge_exp, gauge_theta, gauge_unit, ladder_g1_terms,
                      ladder_g2_terms, ladder_operator, lam, lift, order1_coeff_oracle,
                      rand_operator, rand_param_series, rand_series, reference_apply,
                      reference_pole_order, series_dict_on_mask, subst_scale)
from mahler.factorize import factor_operator, factor_reconstruct
from mahler.fields import Poly, RatFun
from mahler.frobenius import frobenius_basis, solve_order1_param
from mahler.hahn import monomial
from mahler.newton import analyze, frobenius_plan
from mahler.operator import MahlerOperator
from mahler.testing import rand_factored_operator, rand_rational, rand_tangent_unit

LADDERS = ((2, -2), (3, -3))


def _stamp(name, t0, limit=None):
    dt = time.perf_counter() - t0
    if limit is None:
        print("ACCEPTANCE %-22s PASS (%.2fs)" % (name, dt))
    else:
        ok = dt < limit
        print("ACCEPTANCE %-22s %s (%.2fs / limit %gs)" %
              (name, "PASS" if ok else "FAIL", dt, limit))
        assert ok, "%s exceeded its %gs budget (%.2fs)" % (name, limit, dt)


def test_criterion_1_newton_golden():
    t0 = time.perf_counter()
    for p, nu in LADDERS:
        L = ladder_operator(p, nu)
        nd = analyze(L)
        assert nd.slopes == ((Fraction(0), 1),
                             (Fraction(-nu, (p - 1) * p), 1))
        assert [canon(chi) for chi in nd.charpolys] == [Poly((-1, 1))] * 2
        assert nd.exponents == (((Fraction(1), 1),), ((Fraction(1), 1),))
        assert nd.full
        plan = frobenius_plan(L, nd)
        assert plan.lookup(0, Fraction(1)) == (1, 0)
        assert plan.lookup(1, Fraction(1)) == (1, 1)
        assert plan.nus == (Fraction(0), Fraction(-nu))
    _stamp("1 newton golden", t0, 1)


def test_criterion_2_closed_forms():
    t0 = time.perf_counter()
    depth = 8
    for p, nu in LADDERS:
        L = ladder_operator(p, nu)
        out = frobenius_basis(L, 8, depth, verify=True)
        assert not out.partial and out.verification["ok"]
        b1, b2 = out.blocks
        assert series_dict_on_mask(b1.g, ladder_g1_terms(p, nu, 8))
        assert series_dict_on_mask(b2.g, ladder_g2_terms(p, nu, -12))
        if p == 2:
            assert b2.g.coeff_at(Fraction(-1, 2)) == (lam - 1) / lam ** 2
        (y1,) = b1.solutions
        assert len(y1.parts) == 1
        assert y1.part(Fraction(1), 0).terms == ((Fraction(0), Fraction(-1)),)
        assert y1.part(Fraction(1), 0).mask.certifies(0)
        (y2,) = b2.solutions
        assert y2.part(Fraction(1), 1).terms == ((Fraction(0), Fraction(1)),)
        ladder = y2.part(Fraction(1), 0)
        expect = {Fraction(nu) * Fraction(p) ** k / (p - 1): Fraction(1)
                  for k in range(-1, -depth - 1, -1)}
        assert dict(ladder.terms) == expect
        assert ladder.mask.certifies(max(expect))
    _stamp("2 closed forms", t0, 2)


def test_criterion_3_residual_suite():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    for _ in range(200):
        L, _ = rand_factored_operator(rng, Fraction(3))
        out = frobenius_basis(L, 3, 2, verify=True)
        assert not out.partial
        assert len(out.solutions) == L.order
        rep = out.verification
        assert rep["ok"]
        assert all(e["residual_zero"] for e in rep["solutions"])
        assert rep["independence"]["ok"]
    _stamp("3 residual suite", t0, 60)


def test_criterion_4_gauge_lemmas():
    t0 = time.perf_counter()
    rng = random.Random(2027)
    for _ in range(100):
        L = rand_operator(rng)
        nd = analyze(L)
        mu = rand_rational(rng, lo=-4, hi=4, max_den=3)
        ndt = analyze(gauge_theta(L, mu))
        shift = Fraction(mu) / (L.p - 1)
        assert [(m + shift, r) for m, r in nd.slopes] == list(ndt.slopes)
        assert nd.charpolys == ndt.charpolys
        assert nd.exponents == ndt.exponents

        c = rand_rational(rng, lo=-3, hi=3, max_den=2, nonzero=True)
        nde = analyze(gauge_exp(L, c))
        assert nd.slopes == nde.slopes
        for chi, chig in zip(nd.charpolys, nde.charpolys):
            assert canon(chig) == canon(subst_scale(chi, c))
        for exps, expsg in zip(nd.exponents, nde.exponents):
            assert sorted((e / c, m) for e, m in exps) == sorted(expsg)

        g = rand_tangent_unit(rng, terms=3)
        ndu = analyze(gauge_unit(L, g, Fraction(25)))
        assert nd.slopes == ndu.slopes
        assert nd.charpolys == ndu.charpolys
        assert nd.exponents == ndu.exponents

        # composite with (phi - c) h^-1 after making the slopes nonnegative
        p = L.p
        Lpos = gauge_theta(L, -(p - 1) * nd.slopes[0][0])
        ndp = analyze(Lpos)
        h = rand_tangent_unit(rng, terms=3)
        B = MahlerOperator(p, [h.invert(30).scale(-c), h.invert(30).mal(1, p)])
        comp = analyze(Lpos * B)
        assert [m for m, _ in comp.slopes] == \
            sorted({Fraction(0)} | {m / p for m, _ in ndp.slopes})
        old = dict(ndp.slopes)
        chi_of = dict(zip([m for m, _ in ndp.slopes], ndp.charpolys))
        for (m, r), chig in zip(comp.slopes, comp.charpolys):
            if m == 0:
                assert r == old.get(Fraction(0), 0) + 1
                base = chi_of.get(Fraction(0), Poly.const(1))
                assert canon(chig) == canon(base * Poly((-c, 1)))
            else:
                assert r == old[m * p]
                assert canon(chig) == canon(chi_of[m * p])
    _stamp("4 gauge lemmas", t0)


def _order1_instance(rng):
    p = rng.choice((2, 3))
    mu = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
    c = rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                    Fraction(-3), Fraction(2, 3)))
    g = rand_param_series(rng) if rng.random() < 0.7 else lift(rand_series(rng))
    return p, mu, c, g


def test_criterion_5_order1_oracle():
    t0 = time.perf_counter()
    rng = random.Random(2028)
    cs = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
          Fraction(-3), Fraction(2, 3))
    for _ in range(200):
        p, mu, c, g = _order1_instance(rng)
        f = solve_order1_param(p, mu, c, g, 6, 5)
        star = Fraction(mu) / (p - 1)
        for e, v in f.terms:
            if f.mask.certifies(e):
                assert v == order1_coeff_oracle(p, mu, c, g, e)
        for e in (star, star + Fraction(1, 2), Fraction(-4)):
            if f.mask.certifies(e) and e not in dict(f.terms):
                assert order1_coeff_oracle(p, mu, c, g, e) == 0
        A = MahlerOperator(p, [monomial(0, RatFun.const(-c)),
                               monomial(-mu, lam)])
        eq, common = eq_on_mask(reference_apply(A, f), g)
        assert eq and not common.empty
        rho = {cc: max((reference_pole_order(r, cc) for _, r in g.terms), default=0)
               for cc in cs}
        for _, r in f.terms:
            assert reference_pole_order(r, c) <= rho[c] + 1
            for cc in cs:
                if cc != c:
                    assert reference_pole_order(r, cc) <= rho[cc]
    _stamp("5 order-1 oracle", t0)


def _factorization_invariants(L, ceiling):
    nd = analyze(L)
    plan = frobenius_plan(L, nd)
    fact = factor_operator(L, ceiling, plan)
    a0 = L.coeffs[0]
    assert fact.a.val() == a0.val()
    prod = Fraction(1)
    for layer in fact.layers:
        for f in layer:
            prod *= -f.c
    assert fact.a.cld() * prod == a0.cld()
    assert tuple(layer[0].nu for layer in fact.layers) == plan.nus
    p = L.p
    mus = [m for m, _ in nd.slopes]
    rs = [r for _, r in nd.slopes]
    for j, nu in enumerate(plan.nus):
        acc = mus[0]
        for i in range(1, j + 1):
            acc += Fraction(p) ** sum(rs[:i]) * (mus[i] - mus[i - 1])
        assert nu == (p - 1) * acc
    R = factor_reconstruct(fact, ceiling)
    assert R.order == L.order
    for mine, theirs in zip(R.coeffs, L.coeffs):
        eq, common = eq_on_mask(mine, theirs)
        assert eq and not common.empty


def test_criterion_6_factorization():
    t0 = time.perf_counter()
    for p, nu in LADDERS:
        _factorization_invariants(ladder_operator(p, nu), Fraction(8))
    rng = random.Random(2029)
    for _ in range(200):
        L, _ = rand_factored_operator(rng, Fraction(3))
        _factorization_invariants(L, Fraction(3))
    _stamp("6 factorization", t0)


def _parts_stable(y_lo, y_hi):
    keys = sorted({(c, u) for c, u, _ in y_lo.parts} |
                  {(c, u) for c, u, _ in y_hi.parts})
    for c, u in keys:
        a = y_lo.part(c, u)
        b = y_hi.part(c, u)
        if a is None or b is None:
            present = a if a is not None else b
            assert all(not present.mask.certifies(e) or v == 0
                       for e, v in present.terms)
            continue
        eq, common = eq_on_mask(a, b)
        assert eq and not common.empty


def _bases_stable(lo, hi):
    assert len(lo.blocks) == len(hi.blocks)
    for bl, bh in zip(lo.blocks, hi.blocks):
        assert (bl.j, bl.c, bl.s, bl.m) == (bh.j, bh.c, bh.s, bh.m)
        eq, common = eq_on_mask(bl.g, bh.g)
        assert eq and not common.empty
        for yl, yh in zip(bl.solutions, bh.solutions):
            _parts_stable(yl, yh)


def test_criterion_7_refinement_stability():
    t0 = time.perf_counter()
    for p, nu in LADDERS:
        L = ladder_operator(p, nu, ceiling=Fraction(40))
        _bases_stable(frobenius_basis(L, 8, 8, verify=True),
                      frobenius_basis(L, 16, 16, verify=True))
    rng = random.Random(2030)
    for _ in range(20):
        L, _ = rand_factored_operator(rng, Fraction(6))
        _bases_stable(frobenius_basis(L, 3, 2, verify=True), frobenius_basis(L, 6, 4, verify=True))
    rng = random.Random(2031)
    for _ in range(20):
        p, mu, c, g = _order1_instance(rng)
        f_lo = solve_order1_param(p, mu, c, g, 6, 5)
        f_hi = solve_order1_param(p, mu, c, g, 12, 10)
        eq, common = eq_on_mask(f_lo, f_hi)
        assert eq and not common.empty
    _stamp("7 refinement", t0)
