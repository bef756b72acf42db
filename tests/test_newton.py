"""Newton polygon, slopes, characteristic polynomials, exponents, plan,
and their behavior under the three gauge transforms and right composition."""
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (QPoly, canon, count_calls, forget, gauge_exp, gauge_theta, gauge_unit,
                      hull_walk, ladder_operator, phi_minus, rand_operator, reference_char_poly,
                      subst_scale)
from test_cli import EXAMPLE
from mahler import newton
from mahler.cli import elaborate, parse_spec
from mahler.errors import (InsufficientPrecision, PlanMismatch, UnknownLeadingTerm,
                           VerificationError, ZeroSeries)
from mahler.fields import Poly
from mahler.hahn import POS, HahnSeries, Mask, hs, monomial, one, zero
from mahler.newton import analyze, char_poly, frobenius_plan, newton_polygon, slopes_of
from mahler.operator import MahlerOperator
from mahler.testing import rand_factored_operator, rand_rational, rand_tangent_unit


def test_first_order_data():
    L = phi_minus(2, 1)
    nd = analyze(L)
    assert nd.vertices == ((0, Fraction(1), Fraction(0)), (1, Fraction(2), Fraction(0)))
    assert nd.slopes == ((Fraction(0), 1),)
    assert nd.charpolys[0] == Poly((-1, 1))
    assert nd.exponents == (((Fraction(1), 1),),)
    assert nd.residuals[0].degree == 0
    assert nd.full


@pytest.mark.parametrize("chi, degree", [(Poly((1, 2, 3)), 2), (Poly((0, 1)), 1)])
def test_analyze_rejects_a_characteristic_polynomial_it_cannot_use(monkeypatch, chi, degree):
    """A chi of the wrong degree, or one with a zero constant term, is a typed
    error naming the slope, the degree and r, also under python -O."""
    monkeypatch.setattr(newton, "char_poly", lambda L, mu: chi)
    with pytest.raises(VerificationError, match=r"slope 0 has degree %d; expected r = 1 "
                       % degree):
        analyze(phi_minus(2, 1))


def test_two_slope_ladder_data():
    L = ladder_operator(2, -2)
    nd = analyze(L)
    assert nd.vertices == ((0, Fraction(1), Fraction(-2)),
                           (1, Fraction(2), Fraction(-2)),
                           (2, Fraction(4), Fraction(0)))
    assert nd.slopes == ((Fraction(0), 1), (Fraction(1), 1))
    assert nd.charpolys == (Poly((1, -1)), Poly((-1, 1)))
    assert [canon(chi) for chi in nd.charpolys] == [Poly((-1, 1))] * 2
    assert nd.exponents == (((Fraction(1), 1),), ((Fraction(1), 1),))

    M = ladder_operator(3, -3)
    ndm = analyze(M)
    assert ndm.slopes == ((Fraction(0), 1), (Fraction(1, 2), 1))
    assert ndm.exponents == nd.exponents


def test_plan_values():
    L = ladder_operator(2, -2)
    plan = frobenius_plan(L, analyze(L))
    assert plan.val_a0 == -2
    assert plan.nus == (Fraction(0), Fraction(2))
    assert plan.entries == (((Fraction(1), 1, 0),), ((Fraction(1), 1, 1),))
    assert plan.lookup(0, Fraction(1)) == (1, 0)
    assert plan.lookup(1, Fraction(1)) == (1, 1)
    with pytest.raises(PlanMismatch, match="^c = 2 is not an exponent of slope j = 0$"):
        plan.lookup(0, Fraction(2))

    M = ladder_operator(3, -3)
    planm = frobenius_plan(M, analyze(M))
    assert planm.nus == (Fraction(0), Fraction(3))


def test_plan_nu_formula():
    rng = random.Random(31)
    for _ in range(40):
        L = rand_operator(rng)
        nd = analyze(L)
        plan = frobenius_plan(L, nd)
        p = L.p
        mus = [mu for mu, _ in nd.slopes]
        rs = [r for _, r in nd.slopes]
        for j, nu in enumerate(plan.nus):
            acc = mus[0]
            for i in range(1, j + 1):
                acc += Fraction(p) ** sum(rs[:i]) * (mus[i] - mus[i - 1])
            assert nu == (p - 1) * acc
        # s_{c,j} accumulates multiplicities of the same c at lower slopes
        seen = {}
        for entry in plan.entries:
            for c, m, s in entry:
                assert s == seen.get(c, 0)
                seen[c] = seen.get(c, 0) + m


def test_polygon_matches_hull_walk():
    rng = random.Random(37)
    for _ in range(150):
        L = rand_operator(rng)
        verts = newton_polygon(L)
        pts = [(i, Fraction(L.p) ** i, ai.val())
               for i, ai in enumerate(L.coeffs) if not ai.is_exact_zero()]
        assert verts == hull_walk(pts)
        assert verts[0][0] == 0 and verts[-1][0] == L.order
        sl = slopes_of(verts)
        assert all(a < b for (a, _), (b, _) in zip(sl, sl[1:]))
        assert sum(r for _, r in sl) == L.order


def test_polygon_rejects_uncertified_boundary_coefficients():
    with pytest.raises(ZeroSeries):
        newton_polygon(MahlerOperator(2, [zero(), one()]))
    # trailing exact zeros are trimmed at construction, so the polygon of
    # [1, 0] is the degenerate single-vertex polygon of the order-0 operator
    trimmed = MahlerOperator(2, [one(), zero()])
    assert trimmed.order == 0
    assert newton_polygon(trimmed) == ((0, Fraction(1), Fraction(0)),)
    # a_0 or a_n with no certified leading term may be decided at a higher
    # precision, also when its stored terms lie beyond its first mask gap
    island = forget(hs([(0, 1), (2, 1)]), -1, 1)
    for coeffs, i, note in (([forget(zero(), 3, POS), one()], 0, "has its first gap at 3"),
                            ([one(), HahnSeries((), Mask(()))], 1, "is empty"),
                            ([island, one()], 0, "has its first gap at -1"),
                            ([one(), island], 1, "has its first gap at -1"),
                            ([hs({5: 1}, mask=[(0, 1), (4, 6)]), one()], 0,
                             "has its first gap at 1")):
        with pytest.raises(InsufficientPrecision, match="^a_%d has no certified leading term: "
                           "its mask %s; raise the precision$" % (i, note)):
            newton_polygon(MahlerOperator(2, coeffs))


def test_polygon_interior_floor_rules():
    # an interior coefficient with no certified terms is fine while its
    # lowest possible valuation stays on or above the hull
    a1_high = HahnSeries((), Mask(((Fraction(5), Fraction(10)),)))
    L = MahlerOperator(2, [one(), a1_high, one()])
    assert newton_polygon(L) == ((0, Fraction(1), Fraction(0)), (2, Fraction(4), Fraction(0)))
    # otherwise a higher precision may decide it
    a1_low = HahnSeries((), Mask(((Fraction(-5), Fraction(-3)),)))
    with pytest.raises(InsufficientPrecision, match="^coefficient 1 might dip below the "
                       "certified polygon: its mask has its first gap at -3; raise the "
                       "precision$"):
        newton_polygon(MahlerOperator(2, [one(), a1_low, one()]))
    a1_empty = HahnSeries((), Mask(()))
    with pytest.raises(InsufficientPrecision, match="^coefficient 1 might dip below the "
                       "certified polygon: its mask is empty; raise the precision$"):
        newton_polygon(MahlerOperator(2, [one(), a1_empty, one()]))
    # stored terms beyond the first gap leave the leading term uncertified:
    # the floor rules apply to the gap, as without those terms
    for island, bare in ((hs({5: 1}, mask=[(0, 1), (4, 6)]), hs({}, mask=[(0, 1)])),
                         (forget(hs([(3, 1)]), 1, 2), forget(zero(), 1, POS))):
        L, M = (MahlerOperator(2, [one(), a1, one()]) for a1 in (island, bare))
        assert newton_polygon(L) == newton_polygon(M) == ((0, Fraction(1), Fraction(0)),
                                                          (2, Fraction(4), Fraction(0)))
        assert analyze(L).charpolys == analyze(M).charpolys == (Poly((1, 0, 1)),)
    island = hs({5: 1}, mask=[(-3, -2), (4, 6)])
    with pytest.raises(InsufficientPrecision, match="^coefficient 1 might dip below the "
                       "certified polygon: its mask has its first gap at -2; raise the "
                       "precision$"):
        newton_polygon(MahlerOperator(2, [one(), island, one()]))


def test_char_poly_canonical_form():
    # chi keeps raw coefficient values and strips the power-of-X factor
    L = MahlerOperator(2, [monomial(0, 2), monomial(0, -3), monomial(1, 9)])
    chi = char_poly(L, Fraction(0))
    assert chi == Poly((2, -3))
    M = MahlerOperator(2, [monomial(1), monomial(0), monomial(0)])
    chi0 = char_poly(M, Fraction(-1))
    assert chi0.coeffs[0] != 0


def _corpus():
    """The 200 operators of the corpus workload (criterion-3 seed 2026)."""
    rng = random.Random(2026)
    return [rand_factored_operator(rng, Fraction(3))[0] for _ in range(200)]


def test_char_poly_equals_the_gauged_reference():
    """char_poly, read off L in place, equals chi read off the gauged
    operator on every slope: the corpus operators, rand_operator draws and
    an interior floor above the edge.  With the floor on the edge both
    raise, the reference UnknownLeadingTerm and char_poly
    InsufficientPrecision naming i, a_i's own exponent and the slope."""
    rng = random.Random(61)
    cases = _corpus() + [rand_operator(rng) for _ in range(60)]
    floor = lambda gap: forget(zero(), Fraction(gap), POS)
    # p = 2, a_2 = z**24: slope 8, whose edge passes a_1 at exponent 8
    cases.append(MahlerOperator(2, [one(), floor(9), monomial(24)]))
    slopes = 0
    for L in cases:
        for mu, _ in slopes_of(newton_polygon(L)):
            assert char_poly(L, mu) == reference_char_poly(L, mu)
            slopes += 1
    assert slopes > 300
    assert char_poly(cases[-1], Fraction(8)) == Poly((1, 0, 1))
    L = MahlerOperator(2, [one(), floor(8), monomial(24)])
    assert slopes_of(newton_polygon(L)) == ((Fraction(8), 2),)
    with pytest.raises(UnknownLeadingTerm, match="^coefficient at 0 is not certified$"):
        reference_char_poly(L, Fraction(8))
    with pytest.raises(InsufficientPrecision, match="^coefficient of a_1 at exponent 8, on the "
                       "Newton edge of slope 8, is not certified$"):
        char_poly(L, Fraction(8))


def test_analyze_builds_no_series(monkeypatch):
    """analyze reads every coefficient in place: per call no
    HahnSeries.shift and no _series (the one series builder).  The README
    example at precision 8 and the corpus operators."""
    hahn = sys.modules["mahler.hahn"]
    cases = [elaborate(parse_spec(EXAMPLE), 8)] + _corpus()
    calls = Counter()
    monkeypatch.setattr(HahnSeries, "shift",
                        count_calls(monkeypatch, calls, HahnSeries.shift, "shift"))
    count_calls(monkeypatch, calls, hahn._series, "_series")
    slopes = 0
    for L in cases:
        slopes += len(analyze(L).slopes)
        assert not calls, calls
    assert slopes > 250


def test_analyze_requires_chi_degree_equal_multiplicity():
    rng = random.Random(41)
    for _ in range(40):
        L = rand_operator(rng)
        nd = analyze(L)
        for (mu, r), chi, exps, res in zip(nd.slopes, nd.charpolys, nd.exponents,
                                           nd.residuals):
            assert chi.degree == r
            assert chi.coeffs[0] != 0
            assert sum(m for _, m in exps) + res.degree == r
            assert all(c != 0 for c, _ in exps)


def test_gauge_theta_shifts_slopes_keeps_chi():
    rng = random.Random(43)
    for _ in range(30):
        L = rand_operator(rng)
        mu = rand_rational(rng, lo=-4, hi=4, max_den=3)
        nd = analyze(L)
        ndg = analyze(gauge_theta(L, mu))
        shift = Fraction(mu) / (L.p - 1)
        assert [(m + shift, r) for m, r in nd.slopes] == list(ndg.slopes)
        assert nd.charpolys == ndg.charpolys
        assert nd.exponents == ndg.exponents


def test_gauge_exp_keeps_slopes_scales_exponents():
    rng = random.Random(47)
    for _ in range(30):
        L = rand_operator(rng)
        c = rand_rational(rng, lo=-3, hi=3, max_den=2, nonzero=True)
        nd = analyze(L)
        ndg = analyze(gauge_exp(L, c))
        assert nd.slopes == ndg.slopes
        for chi, chig in zip(nd.charpolys, ndg.charpolys):
            assert canon(chig) == canon(subst_scale(chi, c))
        for exps, expsg in zip(nd.exponents, ndg.exponents):
            assert sorted((e / c, m) for e, m in exps) == sorted(expsg)


def test_gauge_unit_keeps_everything():
    rng = random.Random(53)
    for _ in range(20):
        L = rand_operator(rng, max_order=3)
        g = rand_tangent_unit(rng, terms=3)
        nd = analyze(L)
        ndg = analyze(gauge_unit(L, g, Fraction(25)))
        assert nd.slopes == ndg.slopes
        assert nd.charpolys == ndg.charpolys
        assert nd.exponents == ndg.exponents


def test_composition_with_first_order_factor():
    # right-composing with (phi - c) h^-1 divides the slopes by p, adds the
    # slope 0, bumps its multiplicity by one and multiplies its chi by (X - c)
    rng = random.Random(59)
    for _ in range(20):
        L0 = rand_operator(rng, max_order=2)
        p = L0.p
        nd0 = analyze(L0)
        # normalize so the smallest slope is 0 (nonnegative slope set)
        L = gauge_theta(L0, -(p - 1) * nd0.slopes[0][0])
        nd = analyze(L)
        c = rand_rational(rng, lo=-3, hi=3, max_den=2, nonzero=True)
        h = rand_tangent_unit(rng, terms=3)
        hinv = h.invert(30)
        B = MahlerOperator(p, [hinv.scale(-c), hinv.mal(1, p)])
        comp = analyze(L * B)
        expect_slopes = sorted({Fraction(0)} | {m / p for m, _ in nd.slopes})
        assert [m for m, _ in comp.slopes] == expect_slopes
        old = dict(nd.slopes)
        for m, r in comp.slopes:
            if m == 0:
                assert r == old.get(Fraction(0), 0) + 1
            else:
                assert r == old[m * p]
        chi_of = dict(zip([m for m, _ in nd.slopes], nd.charpolys))
        for (m, _), chig in zip(comp.slopes, comp.charpolys):
            if m == 0:
                base = chi_of.get(Fraction(0), QPoly((1,)))
                assert canon(chig) == canon(base * QPoly((-c, 1)))
            else:
                assert canon(chig) == canon(chi_of[m * p])


def test_composition_when_zero_was_not_a_slope():
    p = 2
    L = MahlerOperator(p, [monomial(0), monomial(1)])
    nd = analyze(L)
    assert all(m > 0 for m, _ in nd.slopes)
    B = MahlerOperator(p, [monomial(0, -3), one()])
    comp = analyze(L * B)
    assert [m for m, _ in comp.slopes] == [Fraction(0), Fraction(1, 2)]
    assert canon(comp.charpolys[0]) == Poly((-3, 1))
