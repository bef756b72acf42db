"""Parametric order-1 solver, triangular solve, specialization, verification."""
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (QLam, QPoly, cap, count_calls, d_lambda, eq_on_mask, ev_c, forget,
                      gcj_residual_mask, ladder_g1_terms, ladder_g2_terms, ladder_operator, lam,
                      lift, order1_coeff_oracle, phi_minus, pipeline_mask, rand_exponent,
                      rand_operator, rand_param_series, rand_pole_series, rand_series, rebind,
                      reference_add, reference_apply, reference_apply_to_solution,
                      reference_numerators, reference_pole_order, reference_solve_gcj,
                      reference_solve_order1_param, reference_specialize, reference_sum, replace,
                      restrict, same_lattice_form, series_dict_on_mask, solve_order1_lam)
from mahler.cli import elaborate, parse_spec
from mahler.errors import MahlerError, PlanMismatch, PoleAtEvaluationPoint, VerificationError
from mahler.fields import Poly, RatFun
from mahler.hahn import NEG, POS, HahnSeries, hs, monomial, one, zero
from mahler.newton import analyze, frobenius_plan
from mahler.operator import MahlerOperator
from mahler.factorize import factor_operator
from mahler import factorize, fields, frobenius, hahn
from mahler.frobenius import (SolutionObject, apply_to_solution, check_gcj,
                              expected_gcj_cld, frobenius_basis, solve_gcj, solve_slope,
                              solve_order1_param, specialize_solutions,
                              verify_independence)
from mahler.testing import rand_factored_operator


def test_lift_ev_d():
    f = hs([(0, 2), (1, -3)])
    F = lift(f)
    assert all(isinstance(c, RatFun) for _, c in F.terms)
    G = F.map_coeffs(lambda r: r * lam ** 2)
    assert ev_c(G, 2).terms == ((Fraction(0), Fraction(8)), (Fraction(1), Fraction(-12)))
    assert d_lambda(G).coeff_at(0) == 4 * lam
    assert d_lambda(F).is_zero()


def test_order1_constant_rhs():
    f = solve_order1_param(2, 0, Fraction(3), one(), 8, 6)
    assert f.terms == ((Fraction(0), 1 / (lam - 3)),)
    assert f.mask.ivs == ((Fraction(0), Fraction(8)),)


def test_order1_positive_monomial():
    f = solve_order1_param(2, 0, Fraction(2), monomial(3), 40, 6)
    expect = {Fraction(3) * 2 ** k: -(lam ** k) / Fraction(2) ** (k + 1)
              for k in range(4)}
    assert dict(f.terms) == expect
    assert f.mask.ivs == ((Fraction(3), Fraction(40)),)


def test_order1_negative_monomial_records_gap():
    depth = 4
    f = solve_order1_param(2, 0, Fraction(2), monomial(-3), 8, depth)
    expect = {Fraction(-3, 2 ** k): Fraction(2) ** (k - 1) / lam ** k
              for k in range(1, depth + 1)}
    assert dict(f.terms) == expect
    hole = Fraction(-3, 2 ** (depth + 1))
    assert not f.mask.certifies(hole)
    assert f.mask.certifies(0) and f.mask.certifies(-3)


def test_order1_exact_zero_rhs():
    assert solve_order1_param(3, Fraction(1, 2), Fraction(2), zero(), 8, 4).is_exact_zero()
    with pytest.raises(PlanMismatch):
        solve_order1_param(2, 0, Fraction(0), one(), 8, 4)


def test_order1_shifted_fixed_point():
    # mu = p - 1 puts the fixed point at exponent 1
    f = solve_order1_param(2, 1, Fraction(5), monomial(1, 7), 9, 4)
    assert f.coeff_at(1) == 7 / (lam - 5)


def test_order1_agrees_with_orbit_recursion_oracle():
    rng = random.Random(89)
    for _ in range(120):
        p = rng.choice((2, 3))
        mu = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        c = rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                        Fraction(-3), Fraction(2, 3)))
        g = rand_param_series(rng) if rng.random() < 0.7 else lift(rand_series(rng))
        f = solve_order1_lam(p, mu, c, g, 6, 5)
        star = Fraction(mu) / (p - 1)
        for e, v in f.terms:
            if f.mask.certifies(e):
                assert v == order1_coeff_oracle(p, mu, c, g, e)
        for e in (star, star - 1, star + Fraction(1, 2), Fraction(-5), Fraction(2)):
            if f.mask.certifies(e) and e not in dict(f.terms):
                assert order1_coeff_oracle(p, mu, c, g, e) == 0


def _order1_cases():
    """Seeded (p, mu, c, g, ceiling, depth) for the order-1 solver, with g
    over Q or Q(lambda) in every mask shape the solver distinguishes."""
    rng = random.Random(7411)
    cs = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3),
          Fraction(2, 3))
    eps = Fraction(1, 1000)
    for i in range(480):
        p = rng.choice((2, 3))
        mu = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        star = mu / (p - 1)   # exponent 0 of the twisted frame
        base = rng.choice(("param", "lifted", "rational", "zero"))
        if base == "param":
            g = rand_param_series(rng)
        elif base == "lifted":
            g = lift(rand_series(rng))
        elif base == "rational":
            g = rand_series(rng)
        else:
            g = zero()
        if rng.random() < 0.4 and base != "zero":
            value = rand_param_series(rng).terms[0][1] if base == "param" \
                else Fraction(rng.randint(1, 5), rng.randint(1, 3))
            g = reference_add(g, monomial(star, value if base != "lifted" else QLam(value)))
        a = star + Fraction(rng.randint(-6, 8), rng.randint(1, 3))
        b = a + Fraction(rng.randint(1, 4), rng.randint(1, 2))
        shape = i % 8
        if shape == 1:
            g = cap(g, a)
        elif shape == 2:
            g = forget(g, a, b)
        elif shape == 3:
            top = b + Fraction(rng.randint(1, 3))
            g = forget(forget(g, a, b), top, top + Fraction(rng.randint(1, 3), 2))
        elif shape == 4:
            g = forget(g, star - Fraction(rng.randint(0, 3), 2), star + eps)
        elif shape == 5:
            g = restrict(g, star + eps, POS) if rng.random() < 0.5 \
                else restrict(g, NEG, star + rng.choice((0, eps)))
        elif shape == 6:
            g = forget(g, NEG, POS)
        yield (p, mu, rng.choice(cs), g, Fraction(rng.randint(2, 8)), rng.randint(1, 5))
    # A second stream, so the draws above stay as they are: ceilings a/b with
    # b <= 5 (b = 5 is coprime to p and to every exponent's denominator, as
    # the ceiling + nu/(p-1) the pipeline passes may be), depths 1..6 and the
    # pipeline's mask shapes.
    rng = random.Random(7412)
    for _ in range(240):
        p = rng.choice((2, 3))
        mu = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        g = rand_param_series(rng) if rng.random() < 0.5 else rand_series(rng)
        if rng.random() < 0.4:
            g = reference_add(g, monomial(mu / (p - 1), Fraction(rng.randint(1, 5), rng.randint(1, 3))))
        if rng.random() < 0.6:
            g = pipeline_mask(rng, g, p)[1]
        ceiling = Fraction(rng.randint(1, 30), rng.randint(1, 5))
        yield (p, mu, rng.choice(cs), g, ceiling, rng.randint(1, 6))
    # A third stream with poles: coefficients over powers of lambda, of
    # lambda - c for the solve's own c and of lambda - c' for another c'.
    rng = random.Random(7413)
    for _ in range(240):
        p = rng.choice((2, 3))
        mu = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        c, other = rng.sample(cs, 2)
        roots = rng.choice(((Fraction(0),), (c,), (other,), (Fraction(0), c, other)))
        g = rand_pole_series(rng, roots)
        if rng.random() < 0.4:
            g = reference_add(g, monomial(mu / (p - 1),
                                          rand_pole_series(rng, roots, terms=1).terms[0][1]))
        if rng.random() < 0.5:
            g = pipeline_mask(rng, g, p)[1]
        ceiling = Fraction(rng.randint(1, 30), rng.randint(1, 5))
        yield (p, mu, c, g, ceiling, rng.randint(1, 6))


def test_order1_matches_reference_solver():
    """The order-1 solve equals the interval-list oracle bit for bit: terms,
    masks and the stored lower end of each mask's first interval.  A g over
    Q runs through solve_order1_param, whose solve equals the tests'
    Q(lambda) adapter's on g lifted; a g over Q(lambda) through the
    adapter."""
    seen = set()
    for p, mu, c, g, ceiling, depth in _order1_cases():
        cap = ceiling - mu / (p - 1)
        over_q = all(type(r) is Fraction for _, r in g.terms)
        solve = solve_order1_param if over_q else solve_order1_lam
        got = solve(p, mu, c, g, ceiling, depth)
        want = reference_solve_order1_param(p, mu, c, g, ceiling, depth)
        assert got == want
        assert got.to_json() == want.to_json()
        if over_q:
            lifted = solve_order1_lam(p, mu, c, lift(g), ceiling, depth)
            assert got == lifted and got.to_json() == lifted.to_json()
            seen |= {"g over Q"} if g.terms else set()
        for _, r in g.terms:
            if isinstance(r, RatFun) and r.den.degree:
                at_c, at_0 = reference_pole_order(r, c), reference_pole_order(r, 0)
                seen |= {"den lambda**k"} if at_0 else set()
                seen |= {"pole at c"} if at_c else set()
                seen |= {"pole at c' != c"} if r.den.degree > at_c + at_0 else set()
        G = g.shift(-mu / (p - 1))
        if g.is_exact_zero():
            seen.add("exact zero")
        elif G.mask.empty:
            seen.add("empty mask")
        elif not G.mask.certifies(0):
            seen.add("0 uncertified")
        else:
            g0 = G.coeff_at(0)
            seen.add("g0 " + ("zero" if not g0 else "RatFun" if isinstance(g0, RatFun)
                              else "Fraction"))
            if all(e <= 0 for e, _ in G.terms) and G.mask.next_gap(Fraction(0)) == POS:
                seen.add("fp = +inf")
            fp = min([e for e, _ in G.terms if e > 0] + [G.mask.next_gap(Fraction(0))])
            if cap <= fp < POS:
                seen.add("no positive image")
        if depth == 1 and not G.mask.empty and G.val_bound()[0] < 0:
            seen.add("forget band at depth 1")
        ends = [e for e, _ in G.terms] + [x for iv in G.mask.ivs for x in iv if x != POS]
        if (cap * math.lcm(*(x.denominator for x in ends)) * p ** (depth + 1)).denominator > 1:
            seen.add("ceiling off the lattice")
        if len(G.mask.ivs) >= 2:
            seen.add("islands")
        exact = G.mask.extended == [(NEG, POS)]
        if exact and G.terms and all(e > 0 for e, _ in G.terms):
            seen.add("exact positive-only")
        if G.terms and all(e < 0 for e, _ in G.terms):
            seen.add("negative-only")
    assert seen == {"exact zero", "empty mask", "0 uncertified", "g0 zero",
                    "g0 Fraction", "g0 RatFun", "fp = +inf", "islands",
                    "exact positive-only", "negative-only", "g over Q",
                    "no positive image", "forget band at depth 1", "ceiling off the lattice",
                    "den lambda**k", "pole at c", "pole at c' != c"}


def test_order1_back_substitution():
    rng = random.Random(97)
    for _ in range(60):
        p = rng.choice((2, 3))
        mu = Fraction(rng.randint(-2, 2))
        c = rng.choice((Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(3)))
        g = rand_param_series(rng)
        f = solve_order1_lam(p, mu, c, g, 6, 5)
        A = MahlerOperator(p, [monomial(0, QLam(-c)),
                               monomial(-mu, lam)])
        res = reference_apply(A, f)
        eq, common = eq_on_mask(res, g)
        assert eq and not common.empty


def test_order1_pole_orders_grow_by_at_most_one():
    """Polynomial coefficients (rho = 0 everywhere), then, from a second
    stream, coefficients with poles at the solve's own c and at another c'
    (rho > 0)."""
    rng = random.Random(101)
    cs = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))
    poles = Counter()
    for i in range(80):
        if i == 40:
            rng = random.Random(102)
        p = rng.choice((2, 3))
        mu = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
        c = rng.choice(cs)
        g = rand_param_series(rng) if i < 40 else rand_pole_series(rng, rng.sample(cs, 2))
        rho = {cc: max((reference_pole_order(r, cc) for _, r in g.terms), default=0)
               for cc in cs}
        f = solve_order1_lam(p, mu, c, g, 6, 5)
        for _, r in f.terms:
            assert reference_pole_order(r, c) <= rho[c] + 1
            for cc in cs:
                if cc != c:
                    assert reference_pole_order(r, cc) <= rho[cc]
        poles["rho > 0 at c"] += rho[c] > 0
        poles["rho > 0 at c' != c"] += any(rho[cc] for cc in cs if cc != c)
    assert poles["rho > 0 at c"] >= 10 and poles["rho > 0 at c' != c"] >= 10


def test_gcj_closed_forms_on_ladder_operators():
    for p, nu in ((2, -2), (3, -3)):
        L = ladder_operator(p, nu)
        nd = analyze(L)
        plan = frobenius_plan(L, nd)
        fact = factor_operator(L, 6, plan)
        g1 = solve_gcj(L, plan, fact, Fraction(1), 0, 6, 6)
        check_gcj(L, plan, fact, Fraction(1), 0, nd.slopes[0][0], g1)
        assert not gcj_residual_mask(L, plan, Fraction(1), 0, g1).empty
        assert series_dict_on_mask(g1, ladder_g1_terms(p, nu, 6))
        g2 = solve_gcj(L, plan, fact, Fraction(1), 1, 6, 6)
        check_gcj(L, plan, fact, Fraction(1), 1, nd.slopes[1][0], g2)
        assert not gcj_residual_mask(L, plan, Fraction(1), 1, g2).empty
        assert series_dict_on_mask(g2, ladder_g2_terms(p, nu, -10))
        assert g2.cld() == expected_gcj_cld(L, plan, fact, Fraction(1), 1)
        for _, r in g2.terms:
            assert reference_pole_order(r, 1) == 0


def _readme_operator(precision):
    return elaborate(parse_spec("p = 2\n"
                                "a[0] = z^(-2) / (1 + z^2)\n"
                                "a[1] = -(1 / (1 + z^4) + z^(-2))\n"
                                "a[2] = 1 / (1 + z^4)\n"), Fraction(precision))


def _slope_cases():
    """(L, ceiling, depth, slopes to check): the first 60 criterion-3
    operators, every slope with two or more exponents of 120 random factored
    operators, both ladders, the README example, and the 200 operators of
    seed 5 at ceilings 1/3 and 1, where many a g has a stored mask head
    whose lo is not a term's exponent (at ceilings -1 and 0 none of them
    factors)."""
    rng = random.Random(2026)
    for _ in range(60):
        yield rand_factored_operator(rng, Fraction(3))[0], 3, 2, None
    rng = random.Random(1000)
    for i in range(120):
        ceiling = (Fraction(3), Fraction(6), Fraction(13, 2))[i % 3]
        yield rand_factored_operator(rng, ceiling)[0], ceiling, 3, 2
    for L in (ladder_operator(2, -2), ladder_operator(3, -3), _readme_operator(8)):
        yield L, 8, 8, None
    rng = random.Random(5)
    ops = [rand_factored_operator(rng, Fraction(3))[0] for _ in range(200)]
    for ceiling in (Fraction(1, 3), Fraction(1)):
        for L in ops:
            yield L, ceiling, 3, None


def test_solve_slope_equals_one_solve_per_exponent(monkeypatch):
    """Bit for bit the oracle's separate solve per exponent.  A g whose
    stored mask head has a lo below its first term (or no term) got that lo
    from `_series`' rule for the frame the series is built in."""
    rhs = []
    real = frobenius._order1
    monkeypatch.setattr(frobenius, "_order1",
                        lambda p, c, part, *args: rhs.append((part, args[-1]))
                        or real(p, c, part, *args))
    seen = set()
    for L, ceiling, depth, min_exps in _slope_cases():
        nd = analyze(L)
        plan = frobenius_plan(L, nd)
        fact = factor_operator(L, ceiling, plan)
        for j, entry in enumerate(plan.entries):
            if min_exps and len(entry) < min_exps:
                continue
            del rhs[:]
            gs = solve_slope(L, plan, fact, j, ceiling, depth)
            # the chain starts from integer numerators carrying prod_c (lambda - c)**m_c
            chi = math.prod((QPoly((-c, 1)) ** m for c, m, _ in entry), start=QPoly((1,)))
            (_, terms, _), lifts = rhs[0]
            for _, X in terms:
                quo, rest = divmod(Poly(X.cs), chi)
                assert X.o == 0 and all(type(v) is int for v in X.cs)
                assert not rest and quo.degree == 0
            # the lifts made on the way: one factor lambda - c each
            seen |= {"lift"} if lifts else set()
            seen |= {"lift at c = a/b, b > 1"} if any(r.denominator > 1 for r in lifts) else set()
            assert list(gs) == [c for c, _, _ in entry]
            for c, m, s in entry:
                want = reference_solve_gcj(L, plan, fact, c, j, ceiling, depth)
                assert gs[c] == want
                assert gs[c].to_json() == want.to_json()
                seen |= {"m >= 2"} if m >= 2 else set()
                seen |= {"s >= 1"} if s >= 1 else set()
                head = gs[c].mask.ivs[:1]
                if head and not (gs[c].terms and gs[c].terms[0][0] == head[0][0]):
                    seen.add("head lo from the frame")
            if len(entry) >= 2:
                seen.add("several exponents")
    assert seen == {"m >= 2", "s >= 1", "several exponents", "head lo from the frame", "lift",
                    "lift at c = a/b, b > 1"}


def test_order1_solver_divides_by_lambda_minus_c_without_gcd(monkeypatch):
    """The exponent-0 numerator is divided by b*lambda - a (c = a/b) on
    integers, after a lift of the right-hand side when it does not divide:
    on the first 60 criterion-3 operators the order-1 kernel (`_order1`)
    makes more than 100 such divisions and lifts, and `solve_slope` runs no
    poly_gcd and builds no RatFun outside its exit reducer (`lam_ratfun`),
    which builds each reduced coefficient with no gcd."""
    inside = Counter()
    gcds, built, divisions, lifts = [], [], [], []

    def nested(key, real):
        def call(*args):
            inside[key] += 1
            try:
                return real(*args)
            finally:
                inside[key] -= 1
        return call

    def outside_reducer(real):
        def call(*args):
            if inside["slope"] and not inside["reducer"]:
                built.append(args)
            return real(*args)
        return call

    def order1(p, c, g, top, depth, made):
        n = len(made)
        try:
            return real_order1(p, c, g, top, depth, made)
        finally:
            lifts.extend(made[n:])
    real_gcd, real_divide, real_order1 = fields.poly_gcd, fields.LamPoly.over_linear, \
        frobenius._order1
    monkeypatch.setattr(frobenius, "solve_slope", nested("slope", frobenius.solve_slope))
    monkeypatch.setattr(frobenius, "lam_ratfun", nested("reducer", frobenius.lam_ratfun))
    monkeypatch.setattr(frobenius, "_order1", nested("order1", order1))
    rebind(monkeypatch, fields._reduced, outside_reducer(fields._reduced))
    monkeypatch.setattr(fields, "poly_gcd", lambda *args: (
        inside["slope"] and gcds.append(args)) or real_gcd(*args))
    monkeypatch.setattr(fields.LamPoly, "over_linear", lambda X, a, b: (
        inside["order1"] and divisions.append(X)) or real_divide(X, a, b))
    for L, ceiling, depth, _ in itertools.islice(_slope_cases(), 60):
        plan = frobenius_plan(L, analyze(L))
        fact = factor_operator(L, ceiling, plan)
        for j in range(len(plan.entries)):
            frobenius.solve_slope(L, plan, fact, j, ceiling, depth)
    assert len(divisions) + len(lifts) > 100 and lifts
    assert not gcds
    assert not built


def test_every_q_lambda_product_has_a_scalar_operand(monkeypatch):
    """Every value over Q(lambda) that the library makes comes from the exit
    reducer `lam_ratfun`, with no gcd: no RatFun is built (`_reduced`, its
    one constructor) outside the reducer, so no two RatFuns are ever
    multiplied, and every coefficient is the very RatFun the reducer
    returned.  frobenius_basis, verification included, on the ladders, the
    README example and the 200 corpus operators: the reducer runs once per
    coefficient of each g_{c,j} and once per closed form
    (`expected_gcj_cld`) that check_gcj compares the leading coefficient of
    g with.  solve_order1_param on the order-1 cases over Q: once per
    coefficient of the solution.  A coefficient over Q(lambda), the tests'
    or the library's, raises a MahlerError."""
    cases = [(ladder_operator(2, -2), 8, 8), (ladder_operator(3, -3), 8, 8),
             (_readme_operator(8), 8, 8)]
    rng = random.Random(2026)
    cases += [(rand_factored_operator(rng, Fraction(3))[0], 3, 2) for _ in range(200)]
    inside, outside, reduced = [0], [], []
    real_reducer, real_reduced = fields.lam_ratfun, fields._reduced

    def reducer(*args):
        inside[0] += 1
        try:
            reduced.append(real_reducer(*args))
        finally:
            inside[0] -= 1
        return reduced[-1]

    def constructor(num, den):
        if not inside[0]:
            outside.append((num, den))
        return real_reduced(num, den)
    rebind(monkeypatch, real_reducer, reducer)
    rebind(monkeypatch, real_reduced, constructor)

    def made_by_the_reducer(f):
        ids = {id(r) for r in reduced}
        return all(id(r) in ids for _, r in f.terms)
    coefficients = blocks = 0
    for L, ceiling, depth in cases:
        out = frobenius_basis(L, ceiling, depth, verify=True)
        assert out.verification["ok"]
        coefficients += sum(len(block.g.terms) for block in out.blocks)
        blocks += len(out.blocks)
        assert all(made_by_the_reducer(block.g) for block in out.blocks)
    assert blocks > 300 and len(reduced) == coefficients + blocks
    solves = 0
    for p, mu, c, g, ceiling, depth in _order1_cases():
        if g.terms and all(type(r) is Fraction for _, r in g.terms):
            del reduced[:]
            f = solve_order1_param(p, mu, c, g, ceiling, depth)
            assert len(reduced) == len(f.terms) and made_by_the_reducer(f)
            solves += bool(f.terms)
    assert solves > 100
    assert not outside
    f = solve_order1_param(2, 0, 3, one(), 8, 6)
    for g, name in ((lift(one()), "QLam"), (rand_param_series(random.Random(5)), "QLam"),
                    (f, "RatFun")):
        with pytest.raises(MahlerError, match="^the Hahn kernel runs over Q; got a %s "
                           "coefficient$" % name):
            solve_order1_param(2, 0, 2, g, 8, 6)


def test_expected_gcj_cld_equals_the_closed_form_by_field_operators():
    """The closed form that check_gcj compares the leading coefficient of
    g_{c,j} with, one exit-reducer call (`expected_gcj_cld`), equals
    n/d lambda**(-R) (lambda - c)**(s+m) / prod_f (lambda - f.c) built in
    the tests' full-reduction field: f over the factors of layer j, R the
    number of factors below it and n/d the product of -f.c over the layers
    up to j over the leading coefficient of a_0.  Every (c, j) block of the
    README example, the p = 2 and p = 3 ladders and the 200 criterion-3
    operators."""
    cases = [(ladder_operator(2, -2), 8), (ladder_operator(3, -3), 8), (_readme_operator(8), 8)]
    rng = random.Random(2026)
    cases += [(rand_factored_operator(rng, Fraction(3))[0], 3) for _ in range(200)]
    seen, blocks = set(), 0
    for L, ceiling in cases:
        plan = frobenius_plan(L, analyze(L))
        fact = factor_operator(L, ceiling, plan)
        for j, entry in enumerate(plan.entries):
            R = sum(len(layer) for layer in fact.layers[:j])
            nd = math.prod(-f.c for layer in fact.layers[: j + 1] for f in layer)
            nd /= L.coeffs[0].cld()
            for c, m, s in entry:
                want = QLam(nd) * lam ** (-R) * (lam - c) ** (s + m)
                for f in fact.layers[j]:
                    want = want / (lam - f.c)
                got = expected_gcj_cld(L, plan, fact, c, j)
                assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
                blocks += 1
                seen |= {"R > 0"} if R else set()
                seen |= {"s > 0"} if s else set()
                seen |= {"m > 1"} if m > 1 else set()
                seen |= {"several factors"} if len(fact.layers[j]) > 1 else set()
    assert blocks > 300
    assert seen == {"R > 0", "s > 0", "m > 1", "several factors"}


def test_order1_kernels_build_no_intermediate_series(monkeypatch):
    """Both first-order kernels read their inputs in place: each call of the
    order-1 kernel (`frobenius._order1`) whose g is not an exact zero is one
    `_fold` with no HahnSeries.mal or hs_sum, and the unit solution
    (`factorize._unit_solution`) takes no shifted or scaled copy.  The
    README example and the first 60 criterion-3 operators, verify on."""
    cases = [(_readme_operator(8), 8, 8)]
    rng = random.Random(2026)
    cases += [(rand_factored_operator(rng, Fraction(3))[0], 3, 2) for _ in range(60)]
    open_calls, done = [], []

    def kernel(name, real):
        def call(*args):
            open_calls.append(Counter())
            try:
                return real(*args)
            finally:
                done.append((name, args, open_calls.pop()))
        return call

    def counted(name, real):
        def call(*args):
            if open_calls:
                open_calls[-1][name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(frobenius, "_order1", kernel("order1", frobenius._order1))
    monkeypatch.setattr(factorize, "_unit_solution", kernel("unit", factorize._unit_solution))
    for module in (frobenius, hahn):
        monkeypatch.setattr(module, "_fold", counted("_fold", hahn._fold))
    monkeypatch.setattr(hahn, "hs_sum", counted("hs_sum", hahn.hs_sum))
    for name in ("mal", "shift", "scale"):
        monkeypatch.setattr(HahnSeries, name, counted(name, getattr(HahnSeries, name)))
    for L, ceiling, depth in cases:
        assert frobenius_basis(L, ceiling, depth, verify=True).verification["ok"]
    solves = [c for name, args, c in done
              if name == "order1" and not (args[2][0] == hahn._FULL and not args[2][1])]
    units = [c for name, _, c in done if name == "unit"]
    assert len(solves) > 100 and len(units) > 60
    assert all(c["_fold"] == 1 and not c["mal"] and not c["hs_sum"] for c in solves)
    assert all(not c["shift"] and not c["scale"] for c in units)


def test_solve_slope_stays_on_one_lattice(monkeypatch):
    """solve_slope puts its right-hand side on one lattice once and builds a
    series only for the inverse of a and for the final x, each once in its
    final frame: per call no hs_mul, hs_mul_sums or solve_order1_param, at
    most two series builds (_series, one outside HahnSeries.invert), no HahnSeries.shift at all, and outside invert no
    HahnSeries.mal and no map_coeffs but the final x's map to each g_{c,j}.
    Counted through every binding in the loaded mahler modules, on the
    README example at precision 8 and the first 60 criterion-3 operators."""
    cases = [(_readme_operator(8), 8, 8)]
    rng = random.Random(2026)
    cases += [(rand_factored_operator(rng, Fraction(3))[0], 3, 2) for _ in range(60)]
    solved = []
    for L, ceiling, depth in cases:
        plan = frobenius_plan(L, analyze(L))
        solved.append((L, plan, factor_operator(L, ceiling, plan), ceiling, depth))
    calls, built, methods, inverting = Counter(), [], [], []
    for fn, name in ((hahn.hs_mul, "hs_mul"), (hahn.hs_mul_sums, "hs_mul_sums"),
                     (frobenius.solve_order1_param, "solve_order1_param")):
        count_calls(monkeypatch, calls, fn, name)
    real_invert = HahnSeries.invert
    real_build = hahn._series

    def build(*args):
        built.append((bool(inverting), real_build(*args)))
        return built[-1][1]
    rebind(monkeypatch, real_build, build)

    def invert(f, ceiling):
        inverting.append(f)
        try:
            return real_invert(f, ceiling)
        finally:
            inverting.pop()
    monkeypatch.setattr(HahnSeries, "invert", invert)
    for name in ("shift", "map_coeffs", "mal"):
        def method(f, *args, name=name, real=getattr(HahnSeries, name)):
            out = real(f, *args)
            if not inverting or name == "shift":
                methods.append((name, f, out))
            return out
        monkeypatch.setattr(HahnSeries, name, method)
    slopes = 0
    for L, plan, fact, ceiling, depth in solved:
        for j, entry in enumerate(plan.entries):
            calls.clear()
            del built[:], methods[:]
            gs = solve_slope(L, plan, fact, j, ceiling, depth)
            assert not calls, calls
            outside = [x for inside, x in built if not inside]
            assert len(built) <= 2 and len(outside) == 1
            assert [(name, f) for name, f, _ in methods] == \
                [("map_coeffs", outside[0])] * len(entry)
            assert [g for _, _, g in methods] == list(gs.values())
            slopes += 1
    assert slopes > 80


def test_each_series_goes_onto_a_lattice_from_its_fractions_once(monkeypatch):
    """While the README example and the first 60 criterion-3 operators are
    solved with verify on, no series reaches `_numerators` twice with no
    lattice form kept (each finds it from its Fractions at most once).
    Afterwards every kept form, those `_series` filled included, still
    equals a fresh `reference_numerators` (no reader changed one), and a
    copy with no form kept compares and hashes equal."""
    cases = [(_readme_operator(8), 8, 8)]
    rng = random.Random(2026)
    cases += [(rand_factored_operator(rng, Fraction(3))[0], 3, 2) for _ in range(60)]
    fresh, kept = Counter(), []
    real_numerators, real_series = hahn._numerators, hahn._series

    def numerators(f, M):
        if f._lat is None:
            fresh[id(f)] += 1
        kept.append(f)
        return real_numerators(f, M)

    def series(*args):
        kept.append(real_series(*args))
        return kept[-1]
    rebind(monkeypatch, real_numerators, numerators)
    rebind(monkeypatch, real_series, series)
    for L, ceiling, depth in cases:
        assert frobenius_basis(L, ceiling, depth, verify=True).verification["ok"]
    assert len(fresh) > 100 and max(fresh.values()) == 1
    forms = 0
    for f in {id(f): f for f in kept}.values():
        if f._lat is None:
            continue
        M0, form = f._lat
        same_lattice_form(form, reference_numerators(f, M0))
        twin = HahnSeries(f.terms, f.mask)
        assert twin == f and f == twin and hash(twin) == hash(f)
        assert twin.to_json() == f.to_json()
        forms += 1
    assert forms > 600


def test_check_gcj_rejects_wrong_leading_coefficient():
    L = ladder_operator(2, -2)
    nd = analyze(L)
    plan = frobenius_plan(L, nd)
    fact = factor_operator(L, 6, plan)
    g = solve_gcj(L, plan, fact, Fraction(1), 0, 6, 6)
    bad = g.scale(QLam(2))
    with pytest.raises(VerificationError):
        check_gcj(L, plan, fact, Fraction(1), 0, nd.slopes[0][0], bad)


def test_specialize_leibniz_rule():
    c = Fraction(3)
    a = Fraction(1, 2)
    g = monomial(a, lam ** 2)
    sols = specialize_solutions(2, g, c, 1, 2)
    y0, y1 = sols
    assert y0.part(c, 0).terms == ((a, Fraction(6)),)
    assert y0.part(c, 1).terms == ((a, Fraction(9)),)
    assert y1.part(c, 0).terms == ((a, Fraction(2)),)
    assert y1.part(c, 1).terms == ((a, Fraction(12)),)
    assert y1.part(c, 2).terms == ((a, Fraction(18)),)


def test_specialize_drops_exact_zero_parts():
    c = Fraction(2)
    g = monomial(0, (lam - 2) ** 2)
    (y,) = specialize_solutions(2, g, c, 0, 1)
    assert y.parts == ()
    assert y.certified_zero()


def _assert_specialize_matches_reference(p, g, c, s, m_count):
    try:
        ref = reference_specialize(p, g, c, s, m_count)
    except PoleAtEvaluationPoint:
        with pytest.raises(PoleAtEvaluationPoint):
            specialize_solutions(p, g, c, s, m_count)
        return False
    got = specialize_solutions(p, g, c, s, m_count)
    assert got == ref
    assert [y.to_json() for y in got] == [y.to_json() for y in ref]
    return True


def test_specialize_matches_reference_on_every_gcj():
    readme = elaborate(parse_spec("p = 2\n"
                                  "a[0] = z^(-2) / (1 + z^2)\n"
                                  "a[1] = -(1 / (1 + z^4) + z^(-2))\n"
                                  "a[2] = 1 / (1 + z^4)\n"), Fraction(8))
    seen = 0
    for L in (ladder_operator(2, -2), ladder_operator(3, -3), readme):
        nd = analyze(L)
        plan = frobenius_plan(L, nd)
        fact = factor_operator(L, 8, plan)
        for j, exps in enumerate(nd.exponents):
            for c, m in exps:
                _, s = plan.lookup(j, c)
                g = solve_gcj(L, plan, fact, c, j, 8, 8)
                for m_count in range(m, 4):
                    assert _assert_specialize_matches_reference(L.p, g, c, s, m_count)
                seen += 1
    assert seen == 6


def test_specialize_matches_reference_on_random_series():
    rng = random.Random(4242)
    poles = 0
    for _ in range(240):
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        g = rand_param_series(rng, terms=4, deg=3).map_coeffs(
            lambda r: r / (lam ** rng.randint(0, 3) * (lam - a) ** rng.randint(0, 3)))
        if rng.random() < 0.4:
            g = cap(g, Fraction(rng.randint(-2, 3)))
        c = rng.choice((a, Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(3)))
        s, m_count = rng.randint(0, 2), rng.randint(1, 3)
        poles += not _assert_specialize_matches_reference(2, g, c, s, m_count)
    assert 20 <= poles <= 200


def test_apply_to_solution_single_step():
    c = Fraction(4)
    L = phi_minus(2, c)
    y = SolutionObject(2, ((c, 1, one()),))
    res = apply_to_solution(L, y)
    assert res.parts == ((c, 0, one()),)


def test_phi_power_binomial_action_matches_iteration():
    rng = random.Random(83)
    p = 2
    c = Fraction(2)
    Phi = MahlerOperator(p, [zero(), one()])
    y = SolutionObject(p, tuple((c, u, rand_series(rng, 2)) for u in range(3)))
    stepped = y
    for _ in range(3):
        stepped = apply_to_solution(Phi, stepped)
    direct = apply_to_solution(MahlerOperator(p, [zero(), zero(), zero(), one()]), y)
    assert stepped.parts == direct.parts


def test_basis_for_double_exponent():
    L = phi_minus(2, 1) * phi_minus(2, 1)
    out = frobenius_basis(L, 8, 6, verify=True)
    assert not out.partial and out.verification["ok"]
    (block,) = out.blocks
    assert (block.c, block.m, block.s) == (Fraction(1), 2, 0)
    y1, y2 = block.solutions
    assert y1.parts == ((Fraction(1), 0, cap(one(), 8)),) or \
        y1.part(Fraction(1), 0).coeff_at(0) == 1
    assert y2.part(Fraction(1), 1).coeff_at(0) == 1
    part0 = y2.part(Fraction(1), 0)
    assert part0 is None or part0.is_zero()


def test_independence_passes_and_detects_duplicates():
    L = phi_minus(2, 1) * phi_minus(2, 1)
    out = frobenius_basis(L, 8, 6, verify=True)
    assert verify_independence(out)["ok"]
    (block,) = out.blocks
    y1, y2 = block.solutions
    for dup in ((y1, y1), (y2, y2)):
        bad_block = replace(block, solutions=dup)
        bad = replace(out, blocks=(bad_block,))
        rep = verify_independence(bad)
        assert not rep["ok"]
        assert any(not d["ok"] for d in rep["solutions"])


def test_residual_detects_corrupted_solution():
    L = phi_minus(2, 1) * phi_minus(2, 1)
    y_bad = SolutionObject(2, ((Fraction(1), 0, hs([(0, 1), (1, 1)])),))
    res = apply_to_solution(L, y_bad)
    assert not res.certified_zero()
    assert any(not fs.is_zero() for _, _, fs in res.parts)


def _rand_residual_case(rng):
    """A random operator and a random l-expansion.  Coefficients and parts
    mostly get masks of the pipeline's kinds (`pipeline_mask`: off-lattice
    endpoints, several gaps, empty); now and then a coefficient is an exact
    monomial or, inside, the exact zero, a part is missing or keeps its mask
    but no terms, and c = 0."""
    L = rand_operator(rng)
    p = L.p
    coeffs = []
    for i, a in enumerate(L.coeffs):
        kind = rng.choice(("gapped", "gapped", "exact", "monomial", "zero"))
        if kind == "zero" and 0 < i < L.order:
            a = zero()
        elif kind == "monomial":
            a = monomial(rand_exponent(rng), Fraction(rng.choice((-3, 1, 2)), 2))
        elif kind == "gapped":
            a = pipeline_mask(rng, a, p)[1]
        coeffs.append(a)
    c = rng.choice((Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(3), Fraction(0)))
    parts = []
    for u in range(rng.randint(1, 4)):
        if rng.random() < 0.2:
            continue
        f = rand_series(rng, 6)
        if rng.random() < 0.8:
            f = pipeline_mask(rng, f, p)[1]
        if rng.random() < 0.15:
            f = HahnSeries((), f.mask)  # no terms, the mask kept
        parts.append((c, u, f))
    return MahlerOperator(p, coeffs), SolutionObject(p, tuple(parts))


def test_residual_equals_reference_on_the_criterion3_basis():
    """Every solution of the 200 criterion-3 operators."""
    rng = random.Random(2026)
    count = 0
    for _ in range(200):
        L, _ = rand_factored_operator(rng, Fraction(3))
        for sol in frobenius_basis(L, 3, 2, verify=False).solutions:
            assert apply_to_solution(L, sol) == reference_apply_to_solution(L, sol)
            count += 1
    assert count > 300


def test_residual_equals_reference_on_gapped_random_solutions():
    rng = random.Random(181)
    seen = set()
    for _ in range(400):
        L, y = _rand_residual_case(rng)
        assert apply_to_solution(L, y) == reference_apply_to_solution(L, y)
        for _, _, f in y.parts:
            if len(f.mask.ivs) >= 3:
                seen.add("gapped")
            D = math.lcm(*(e.denominator for e, _ in f.terms))
            if any(x != POS and (x * D).denominator > 1 for iv in f.mask.ivs for x in iv):
                seen.add("off-lattice")
            if f.mask.empty:
                seen.add("empty")
            elif not f.terms:
                seen.add("no terms")
        if any(a.is_exact_zero() for a in L.coeffs[1:-1]):
            seen.add("zero interior")
    assert seen == {"gapped", "off-lattice", "empty", "no terms", "zero interior"}


@pytest.mark.parametrize("case", ["zero interior", "empty part", "single contribution",
                                  "single monomial contribution", "zero weight"])
def test_residual_equals_reference_on_edge_cases(case):
    """An exact-zero a_1; a part with an empty mask; keys fed by one product
    only (part u = 0 absent, so (c, 0) is reached from u = 1 alone), through
    the general product and through an exact monomial; c = 0, whose weights
    c**(i-t) vanish for t < i."""
    f = cap(forget(hs([(Fraction(-1, 3), 2), (0, -1), (Fraction(5, 2), Fraction(3, 7))]),
                   Fraction(1, 5), Fraction(4, 5)), Fraction(29, 8))
    a = cap(hs([(0, 1), (Fraction(1, 2), -2), (3, 1)]), Fraction(17, 4))
    c = Fraction(2)
    if case == "zero interior":
        L, parts = MahlerOperator(2, [a, zero(), a.shift(1)]), [(c, 0, f), (c, 1, f)]
    elif case == "empty part":
        L, parts = MahlerOperator(3, [a, a]), [(c, 0, f), (c, 1, forget(f, NEG, POS))]
    elif case == "single contribution":
        L, parts = MahlerOperator(2, [a, a.shift(-1)]), [(c, 1, f)]
    elif case == "single monomial contribution":
        # the stored lower end -4 lies below the support: hs_mul's shortcut
        # keeps it, where a product built from the region would not
        part = hs([(1, 2), (2, 3)], mask=[(-4, Fraction(5, 2)), (3, 4)])
        L, parts = MahlerOperator(2, [a, monomial(Fraction(1, 3), 5)]), [(c, 1, part)]
    else:
        L, parts = MahlerOperator(2, [a, a, a]), [(Fraction(0), 0, f), (Fraction(0), 2, f)]
    y = SolutionObject(L.p, tuple(parts))
    res = apply_to_solution(L, y)
    assert res == reference_apply_to_solution(L, y)
    assert res.parts


def test_ladder_basis_report():
    for p, nu in ((2, -2), (3, -3)):
        L = ladder_operator(p, nu)
        out = frobenius_basis(L, 8, 8, verify=True)
        assert not out.partial
        rep = out.verification
        assert rep["ok"] and not rep["partial"]
        assert len(rep["solutions"]) == 2 == L.order
        for entry in rep["solutions"]:
            assert entry["residual_zero"]
            assert set(entry) == {"c", "j", "m", "residual_zero", "residual_masks"}
        assert rep["independence"]["ok"]
        assert [b.j for b in out.blocks] == [0, 1]


def test_ladder_second_solution_shape():
    depth = 8
    L = ladder_operator(2, -2)
    out = frobenius_basis(L, 8, depth, verify=True)
    y2 = out.blocks[1].solutions[0]
    ladder = y2.part(Fraction(1), 0)
    expect = {Fraction(-2) * Fraction(2) ** k: Fraction(1)
              for k in range(-1, -depth - 1, -1)}
    assert dict(ladder.terms) == expect
    assert ladder.mask.certifies(Fraction(-1, 2 ** (depth - 1)))
    assert not ladder.mask.certifies(Fraction(-1, 2 ** depth))
    assert ladder.mask.certifies(0) and ladder.coeff_at(0) == 0
    ell = y2.part(Fraction(1), 1)
    assert ell.terms == ((Fraction(0), Fraction(1)),)


def test_partial_basis_for_irrational_exponents():
    L = MahlerOperator(2, [one(), zero(), one()])
    out = frobenius_basis(L, 6, 4, verify=True)
    assert out.partial and out.blocks == () and out.factorization is None
    assert out.verification == {"ok": False, "partial": True,
                                "reason": "non-rational exponents"}
    assert out.solutions == []


def test_random_factored_bases_verify():
    rng = random.Random(103)
    for _ in range(20):
        L, _ = rand_factored_operator(rng, Fraction(3))
        out = frobenius_basis(L, 3, 2, verify=True)
        assert not out.partial
        assert out.verification["ok"]
        assert len(out.solutions) == L.order


def test_output_json_shape():
    out = frobenius_basis(phi_minus(2, 1), 6, 4, verify=True)
    data = out.to_json()
    assert set(data) == {"p", "newton", "plan", "factorization", "blocks",
                         "partial", "verification"}
    block = data["blocks"][0]
    assert set(block) == {"j", "mu", "c", "s", "m", "g", "solutions"}
    sol = block["solutions"][0]
    assert sol[0]["c"] == "1"
    assert sol[0]["terms"][0]["u"] == 0
    series = sol[0]["terms"][0]["series"]
    assert set(series) == {"terms", "mask"}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_generic_operators_fail_only_with_mahler_errors(seed):
    """frobenius_basis returns or raises a MahlerError, never anything else."""
    L = rand_operator(random.Random(seed))
    try:
        frobenius_basis(L, 3, 2, verify=True)
    except MahlerError:
        pass


def _ladder_parts():
    L = ladder_operator(2, -2)
    nd = analyze(L)
    plan = frobenius_plan(L, nd)
    fact = factor_operator(L, 6, plan)
    return L, nd, plan, fact, solve_gcj(L, plan, fact, Fraction(1), 0, 6, 6)


def test_gcj_calls_reject_a_c_that_is_not_an_exponent(monkeypatch):
    """solve_gcj and expected_gcj_cld name j and c in a PlanMismatch when c
    is not an exponent of slope j, and solve_gcj raises before any solve."""
    L = elaborate(parse_spec("p = 2\na[0] = -1\na[1] = 1 - z\n"), Fraction(8))  # Thue-Morse
    plan = frobenius_plan(L, analyze(L))
    fact = factor_operator(L, 8, plan)
    assert [c for c, _, _ in plan.entries[0]] == [1]
    monkeypatch.setattr(frobenius, "solve_slope", None)  # calling it would raise a TypeError
    message = "^c = 5 is not an exponent of slope j = 0$"
    with pytest.raises(PlanMismatch, match=message):
        solve_gcj(L, plan, fact, 5, 0, 8, 4)
    with pytest.raises(PlanMismatch, match=message):
        expected_gcj_cld(L, plan, fact, 5, 0)


@pytest.mark.parametrize("j", [1, -1])
def test_gcj_calls_reject_a_slope_index_out_of_range(j):
    """Every call that takes a slope index j names j and the slope count in a
    PlanMismatch when j is not one, a negative j included (it does not pick
    a slope from the end)."""
    L = elaborate(parse_spec("p = 2\na[0] = 1 - z\na[1] = -1\n"), Fraction(8))
    plan = frobenius_plan(L, analyze(L))
    fact = factor_operator(L, 8, plan)
    assert len(plan.entries) == 1
    message = r"^j = %d is not a slope index \(the plan's slope count is 1\)$" % j
    for call in (lambda: solve_gcj(L, plan, fact, 1, j, 8, 4),
                 lambda: expected_gcj_cld(L, plan, fact, 1, j),
                 lambda: solve_slope(L, plan, fact, j, 8, 4),
                 lambda: plan.lookup(j, Fraction(1)),
                 lambda: plan.entry(j)):
        with pytest.raises(PlanMismatch, match=message):
            call()


def test_frobenius_basis_pole_error_names_j_and_the_first_offending_exponent(monkeypatch):
    """A g_{c,j} with a pole at lambda = c fails in specialization, with and
    without verify, naming j and the exponent of its first polar term."""
    L, _, _, _, g = _ladder_parts()
    # 1/(lambda - 1) and 3/(lambda - 1) from the exit reducer, one den tuple
    dens = {}
    pole, pole3 = (fields.lam_ratfun(fields.LamPoly(0, (k,)), 1, [(Fraction(1), -1)], dens)
                   for k in (1, 3))
    assert pole == 1 / (lam - 1) and pole3 == 3 / (lam - 1)
    # g has terms at 0, 2 and 4 below its cap 6: the first polar term comes
    # after a pole-free one and shares its den with a later one
    polar = reference_sum((g, monomial(3, pole), monomial(5, pole3)))
    assert [e for e, _ in polar.terms] == [0, 2, 3, 4, 5]
    assert polar.terms[2][1].den.coeffs is polar.terms[4][1].den.coeffs
    cases = ((polar, r"coefficient of z\^3 in g_\{c,j\} for j = 0 has a pole at lambda = 1$"),
             (reference_add(g, monomial(g.val() + 1, pole)), "pole at lambda = 1"))
    real = frobenius.solve_slope
    for bad, message in cases:
        def solve_slope(L, plan, fact, j, ceiling, depth, bad=bad):
            gs = real(L, plan, fact, j, ceiling, depth)
            if j == 0:
                gs[Fraction(1)] = bad
            return gs
        monkeypatch.setattr(frobenius, "solve_slope", solve_slope)
        for verify in (True, False):
            with pytest.raises(VerificationError, match=message):
                frobenius_basis(L, 6, 6, verify=verify)


def test_verified_readme_block_takes_one_den_jet_per_denominator(monkeypatch):
    """At precision and depth 32 the README example's second g has 462
    terms on 33 denominators, 1 and lambda .. lambda**32, each held in one tuple
    that the solver's products share.  `specialize_solutions` takes one den
    jet per tuple, whose constant term is also the pole test, and
    `check_gcj` takes none."""
    L = _readme_operator(32)
    nd = analyze(L)
    plan = frobenius_plan(L, nd)
    fact = factor_operator(L, 32, plan)
    c, j = Fraction(1), 1
    m, s = plan.lookup(j, c)
    g = solve_gcj(L, plan, fact, c, j, 32, 32)
    assert len(g.terms) == 462
    assert {r.den for _, r in g.terms} == {lam.num ** k for k in range(33)}
    calls = []
    real = fields._den_jet
    monkeypatch.setattr(fields, "_den_jet", lambda *args: calls.append(args) or real(*args))
    check_gcj(L, plan, fact, c, j, nd.slopes[j][0], g)
    assert not calls
    (y,) = specialize_solutions(L.p, g, c, s, m)
    assert len(calls) == 33 and len({id(args[0]) for args in calls}) == 33
    assert y.part(c, 0).terms


def test_solve_slope_rejects_a_factorization_with_other_layers():
    L, _, plan, fact, _ = _ladder_parts()
    short = replace(fact, layers=fact.layers[:1])
    with pytest.raises(PlanMismatch, match="factorization layers do not match the plan"):
        solve_slope(L, plan, short, 0, 6, 6)


def test_check_gcj_rejects_wrong_valuation():
    """A g certified zero, or certified zero up to a first mask gap above
    -mu (not a precision shortfall), fails the check like a wrong val."""
    L, nd, plan, fact, g = _ladder_parts()
    mu = nd.slopes[0][0]
    gapped = forget(restrict(g, 3, POS), 1, 2)
    assert gapped.terms[0][0] == 4 and gapped.val_bound() == (1, False)
    for bad, found in ((g.shift(1), "1"), (zero(), "inf: g is certified zero"),
                       (gapped, "at least 1, the first gap of its mask")):
        with pytest.raises(VerificationError, match="^val of g is %s, expected 0$" % found):
            check_gcj(L, plan, fact, Fraction(1), 0, mu, bad)


def test_gcj_residual_mask_rejects_a_wrong_solution():
    L, _, plan, _, g = _ladder_parts()
    bad = reference_add(g, monomial(g.val() + 1, QLam(1)))
    with pytest.raises(VerificationError, match="defining equation residual is nonzero"):
        gcj_residual_mask(L, plan, Fraction(1), 0, bad)


def test_frobenius_basis_counts_its_solutions(monkeypatch):
    """One solution per unit of multiplicity holds by construction, so only
    a specialization that loses one reaches the count check."""
    real = frobenius.specialize_solutions
    monkeypatch.setattr(frobenius, "specialize_solutions", lambda *args: real(*args)[1:])
    with pytest.raises(VerificationError, match="built 0 solutions for an order-2 operator"):
        frobenius_basis(ladder_operator(2, -2), 6, 6, verify=True)


# SHA-256 over the outputs of `_digest_runs`, in order
BASIS_DIGEST = "702b4c5ea454793279eb3868ed492fcceb3c734d0eec737d128ed6b97bf2b35f"


def _digest_runs():
    """(L, ceiling, depth) for 680 runs: 200 criterion-3 operators, 60 random
    factored operators from a fresh seed at each of three ceilings, and 300
    generic operators, many of which end in a typed error."""
    rng = random.Random(2026)
    for _ in range(200):
        yield rand_factored_operator(rng, Fraction(3))[0], Fraction(3), 2
    for ceiling in (Fraction(3), Fraction(6), Fraction(13, 2)):
        rng = random.Random(1000)
        for _ in range(60):
            yield rand_factored_operator(rng, ceiling)[0], ceiling, 3
    rng = random.Random(11)
    for _ in range(300):
        yield rand_operator(rng), Fraction(3), 2


def test_basis_outputs_match_the_recorded_digest():
    """Every output of `frobenius_basis` on `_digest_runs` -- the JSON report
    (`json.dumps(..., sort_keys=True)`) or, for a typed error, the error
    type's name -- is bit-identical to the recorded one.  A change that means
    to alter outputs updates BASIS_DIGEST and declares both values in
    CHANGES.md."""
    digest, n = hashlib.sha256(), 0
    for L, ceiling, depth in _digest_runs():
        try:
            out = json.dumps(frobenius_basis(L, ceiling, depth, verify=True).to_json(),
                             sort_keys=True)
        except MahlerError as exc:
            out = type(exc).__name__
        digest.update(out.encode())
        n += 1
    assert n == 680
    assert digest.hexdigest() == BASIS_DIGEST
