"""Exact scalar layer: rationals, dense polynomials, rational functions."""
import math
import random
from fractions import Fraction

import pytest

from conftest import (QLam, QPoly, derivative, eval_at, lam, poly_eval,
                      reference_divide_out_root, reference_pole_order, reference_taylor,
                      reference_taylor_head)
from mahler import fields
from mahler.errors import DivisionByZero, PoleAtEvaluationPoint
from mahler.fields import Poly, RatFun, poly_gcd, poly_str, rational_roots
from mahler.testing import rand_rational


def test_poly_construction_normalizes():
    assert Poly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert Poly(()).degree == -1
    assert not Poly((0, 0))
    assert Poly((5,)).coeffs == (Fraction(5),)
    assert QPoly(()) == 0 and QPoly((5,)) == 5 and QPoly((5,)) != Fraction(5, 2)


def test_poly_ring_identities():
    """The tests' Q[lambda]."""
    x = QPoly((0, 1))
    assert (x - 1) * (x + 1) == x ** 2 - 1
    assert (x + 2) ** 3 == x ** 3 + 6 * x ** 2 + 12 * x + 8
    p = 3 * x ** 4 - x + Fraction(1, 2)
    assert p + (-p) == Poly(())
    assert p - p == Poly(())
    assert (p * (x - 5)).degree == 5


def test_poly_eq_compares_degrees_before_coefficients(monkeypatch):
    """Poly's == compares lengths first; the tests' QPoly reads a scalar as
    a constant and compares through it."""
    x = QPoly((0, 1))
    powers = [Poly((x ** n).coeffs) for n in (31, 32)]
    calls = []
    real_eq = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda a, b: calls.append(b) or real_eq(a, b))
    # unequal degrees, also through the scalar coercion: no coefficient compared
    unequal = [(x ** 31, x ** 32), (x ** 32, x ** 31), (x + 1, 1), (QPoly(()), x),
               (QPoly((3,)), 0), (QPoly(()), Fraction(2)), tuple(powers), (Poly(()), powers[0])]
    for a, b in unequal:
        assert not a == b and a != b
    assert not calls
    # the library's Poly compares only with a Poly
    assert Poly((3,)) != 3 and not Poly(()) == 0
    equal = [(x ** 32, x ** 32), (x + Fraction(1, 2), x + Fraction(1, 2)), (QPoly((3,)), 3),
             (QPoly((Fraction(2, 3),)), Fraction(2, 3)), (QPoly(()), 0), (Poly((0, 0)), Poly(())),
             (powers[1], x ** 32), (x ** 32, powers[1])]
    for a, b in equal:
        assert a == b and not a != b
    # equal degrees with different coefficients compare coefficients
    assert x ** 2 + 1 != x ** 2 + 2 and QPoly((3,)) != 4 and 2 * x != x
    assert calls


def test_poly_divmod():
    x = QPoly((0, 1))
    a = x ** 3 - 2 * x + 4
    b = x - 1
    quo, rem = divmod(a, b)
    assert quo * b + rem == a
    assert rem.degree <= 0
    assert rem == Poly((poly_eval(a, 1),))
    assert a // b == quo and a % b == rem
    with pytest.raises(DivisionByZero):
        divmod(a, Poly(()))
    # sparse and non-monic operands against the coefficient definitions
    rng = random.Random(37)
    rand_poly = lambda: QPoly([rng.choice((0, 0, 1, -2, Fraction(3, 4)))
                               for _ in range(rng.randint(1, 7))])
    for _ in range(300):
        a, b = rand_poly(), rand_poly() or QPoly((Fraction(-2, 3),))
        conv = [sum((a.coeffs[i] * b.coeffs[k - i] for i in range(len(a.coeffs))
                     if 0 <= k - i < len(b.coeffs)), Fraction(0))
                for k in range(len(a.coeffs) + len(b.coeffs) - 1)]
        assert a * b == Poly(conv)
        quo, rem = divmod(a, b)
        assert quo * b + rem == a and rem.degree < b.degree


def test_poly_eval_derivative_monic_shift():
    x = QPoly((0, 1))
    p = 2 * x ** 2 - 3 * x + 1
    assert poly_eval(p, Fraction(1, 2)) == 0
    assert p.derivative() == 4 * x - 3
    assert p.monic() == x ** 2 - Fraction(3, 2) * x + Fraction(1, 2)
    assert p.shift(2) == 2 * x ** 4 - 3 * x ** 3 + x ** 2
    assert QPoly(()).shift(3) == Poly(())


def test_poly_gcd_and_str():
    x = QPoly((0, 1))
    g = poly_gcd((x - 1) * (x + 2), (x - 1) * (x - 3))
    assert g == x - 1
    assert poly_str(x ** 2 - x, "X") == "X^2 - X"
    assert poly_str(-x + 1, "X") == "-X + 1"
    assert poly_str(Poly(()), "X") == "0"


def test_ratfun_reduction_and_normalization():
    """The constructor of the tests' Q(lambda) reduces and makes den monic."""
    x = QPoly((0, 1))
    r = QLam(x ** 2 - 1, x - 1)
    assert r.den == 1
    assert r.num == x + 1
    r2 = QLam(2 * x, 2 * x - 2)
    assert r2.den.coeffs[-1] == 1
    assert r2 == QLam(x, x - 1)
    assert QLam(Poly(()), x).num == Poly(())
    with pytest.raises(DivisionByZero):
        QLam(x, Poly(()))


def test_ratfun_field_identities():
    """The tests' Q(lambda) is a field, and its values equal the library's
    reduced RatFuns of the same value."""
    a = (lam ** 2 + 1) / (lam - 2)
    b = (lam - 7) / (lam ** 3 + lam + 1)
    assert a * b / b == a
    assert a + b - b == a
    assert a + 0 == a == 0 + a
    assert a / a == 1
    assert a - a == QLam(0)
    assert 1 / lam == lam ** -1
    assert lam ** -2 == QLam(1, QPoly((0, 1)) ** 2)
    with pytest.raises(DivisionByZero):
        a / QLam(0)
    with pytest.raises(DivisionByZero):
        QLam(0) ** -1
    r = fields.lam_ratfun(fields.LamPoly(0, (1, 0, 1)), 1, [(Fraction(2), -1)], {})
    assert type(r) is RatFun and r == a and a == r and hash(r) == hash(a)
    assert r != b and {r: 1}[a] == 1


def _full_reduction(num, den):
    """(num, den) coefficient tuples of num/den reduced by one gcd of the
    whole pair and made monic in the denominator."""
    if not num:
        return (), (Fraction(1),)
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    lead = den.coeffs[-1]
    return tuple(a / lead for a in num.coeffs), tuple(a / lead for a in den.coeffs)


def test_ratfun_arithmetic_matches_full_reduction():
    """Sums, differences, products, quotients and powers of the tests'
    Q(lambda), products by a scalar (an int or Fraction, either side)
    included, against one full reduction of the unreduced pair."""
    rng = random.Random(31)
    x = QPoly((0, 1))
    factors = [x, x - 1, x + 2, x - Fraction(1, 2), 2 * x + 3, x ** 2 + 1,
               x ** 2 + 2, x ** 3 + x + 1, x ** 3 - 2]
    rand_poly = lambda d: QPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                 for _ in range(rng.randint(1, d + 1))])

    def rand_den():
        den = QPoly((rng.choice((1, 2, Fraction(-1, 3))),))
        for f in rng.sample(factors, rng.randint(0, 2)):
            den = den * f ** rng.randint(1, 2)
        return den

    def rand_rat(den):
        num = rand_poly(2) or QPoly((1,))
        if rng.random() < 0.3:
            num = num * rng.choice(factors)  # may cancel against den
        return QLam(num, den)

    kinds = set()
    for _ in range(500):
        kind = rng.choice(("equal", "coprime", "shared", "non-split", "const", "a - a"))
        if kind == "equal":
            d = rand_den()
            a, b = rand_rat(d), rand_rat(d)
        elif kind == "coprime":
            fa, fb = rng.sample(factors, 2)
            a, b = rand_rat(fa ** rng.randint(1, 2)), rand_rat(fb * rng.randint(1, 3))
        elif kind == "shared":
            common, fa, fb = rng.sample(factors, 3)
            a, b = rand_rat(common * fa), rand_rat(common ** 2 * fb)
        elif kind == "non-split":
            a = rand_rat(rand_den() * (x ** 3 + x + 1))
            b = rand_rat((x ** 2 + 2) * rng.choice(factors))
        elif kind == "const":
            a = QLam(rand_rational(rng))
            b = rand_rat(rand_den()) if rng.random() < 0.5 else QLam(rand_rational(rng))
        else:
            a = rand_rat(rand_den())
            b = a
        if rng.random() < 0.5:
            a, b = b, a
        kinds.add(kind)
        n1, d1, n2, d2 = a.num, a.den, b.num, b.den
        cases = [(a + b, n1 * d2 + n2 * d1, d1 * d2),
                 (a - b, n1 * d2 - n2 * d1, d1 * d2),
                 (a * b, n1 * n2, d1 * d2)]
        w = rng.choice((0, 1, -1, Fraction(-2, 3), Fraction(5, 2)))
        cases += [(a * w, n1 * w, d1), (w * a, n1 * w, d1)]
        if b:
            cases.append((a / b, n1 * d2, d1 * n2))
        for n in range(-3, 4):
            if n < 0 and not a:
                with pytest.raises(DivisionByZero):
                    a ** n
            elif n < 0:
                cases.append((a ** n, d1 ** -n, n1 ** -n))
            else:
                cases.append((a ** n, n1 ** n, d1 ** n))
        for got, num, den in cases:
            assert (got.num.coeffs, got.den.coeffs) == _full_reduction(num, den)
    assert len(kinds) == 6


def test_poly_arithmetic_results_are_normalized():
    """The library's results (negation, derivative, monic multiple and
    division) skip the public constructor's coercion but are stripped like
    it, and so are the tests' ring operations: cancelled leading terms drop
    the degree."""
    rng = random.Random(17)
    x = QPoly((0, 1))
    for _ in range(200):
        a = QPoly([rand_rational(rng) for _ in range(rng.randint(0, 5))])
        b = QPoly([rand_rational(rng) for _ in range(rng.randint(0, 5))])
        results = [a + b, a - b, a - a, -a, Poly.__neg__(a), a * b, a * rand_rational(rng),
                   a.derivative(), a.monic(), a.shift(rng.randint(0, 3)), (a + x ** 5) - x ** 5]
        if b:
            results += list(divmod(a, b))
        for r in results:
            assert r.coeffs == Poly(r.coeffs).coeffs
            assert all(type(c) is Fraction for c in r.coeffs)
    assert ((x ** 2 + x) - x ** 2).degree == 1


def _lam_power(a, k):
    """a*lambda**k through the tests' full-reduction constructor."""
    x = QPoly((0, 1))
    if k >= 0:
        return QLam(a * x ** k)
    return QLam(a, x ** -k)


def test_integer_lambda_polynomials_match_the_ratfun_constructor(monkeypatch):
    """The helpers behind the triangular solve's coefficients: exact division
    by b*lambda - a and its divisibility test, the lift (times
    b*lambda - a), and the exit reducer `lam_ratfun`, whose num and den
    equal those of one full reduction in the tests' Q(lambda), with one
    den tuple per distinct den and no gcd.  Roots c = a/b with b <= 5 of
    either sign, numerators with and without the root, integers of about
    10**30 and lambda-offsets of both signs."""
    rng = random.Random(3031)
    x = QPoly((0, 1))

    def rand_root():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))

    def rand_ints(big):
        size = 10 ** 30 if big else 9
        cs = [rng.randint(-size, size) for _ in range(rng.randint(1, 4))]
        cs[0] = cs[0] or 1
        cs[-1] = cs[-1] or -1
        return cs
    cases, seen = [], set()
    for _ in range(600):
        roots = []
        while len(roots) < 3:
            r = rand_root()
            if r not in roots:
                roots.append(r)
        c = roots[0]
        a, b = c.numerator, c.denominator
        big = rng.random() < 0.3
        X = fields.LamPoly(rng.randint(-3, 3), tuple(rand_ints(big)))
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 2)):
                X = X.times_linear(a, b)
        q = rng.randint(1, 10 ** 30 if big else 12)
        powers = sorted((r, rng.choice((-3, -2, -1, 1, 2))) for r in rng.sample(roots, 2))
        cases.append((X, c, q, powers))
        seen |= {"b > 1"} if b > 1 else set()
        seen |= {"c < 0"} if c < 0 else set()
        seen |= {"10**30"} if big else set()
        seen |= {"o < 0" if X.o < 0 else "o > 0" if X.o > 0 else "o = 0"}
    calls = []
    real_gcd = fields.poly_gcd
    monkeypatch.setattr(fields, "poly_gcd", lambda *args: calls.append(args) or real_gcd(*args))
    dens, tuples = {}, {}
    for X, c, q, powers in cases:
        a, b = c.numerator, c.denominator
        P = QPoly(X.cs)
        lin = QPoly((-a, b))
        lifted = X.times_linear(a, b)
        assert lifted.o == X.o and Poly(lifted.cs) == P * lin
        assert lifted.cs[0] and lifted.cs[-1]
        quo = X.over_linear(a, b)
        divides = not (P % lin)
        assert (quo is not None) == divides
        seen.add("root divides" if divides else "root does not divide")
        if divides:
            assert quo.o == X.o and QPoly(quo.cs) * lin == P
            assert all(type(v) is int for v in quo.cs)
        assert lifted.over_linear(a, b).cs == X.cs
        del calls[:]
        got = fields.lam_ratfun(X, q, powers, dens)
        assert not calls
        num, den = P * Fraction(1, q) * x ** max(X.o, 0), x ** max(-X.o, 0)
        for r, k in powers:
            if k > 0:
                num = num * (x - r) ** k
            else:
                den = den * (x - r) ** -k
        want = QLam(num, den)
        assert type(got) is RatFun
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
        tuples.setdefault(got.den.coeffs, set()).add(id(got.den.coeffs))
        if got.den.degree < den.degree:
            seen.add("root cancelled")
        if got.den.degree > 0:
            seen.add("den left")
    assert all(len(ids) == 1 for ids in tuples.values()) and len(tuples) > 100
    assert seen == {"b > 1", "c < 0", "10**30", "o < 0", "o = 0", "o > 0", "root divides",
                    "root does not divide", "root cancelled", "den left"}


def _num_den(x):
    x = x if isinstance(x, RatFun) else QLam(x)
    return x.num.coeffs, x.den.coeffs


def test_ratfun_sums_equal_one_full_reduction():
    """A left fold of + in the tests' Q(lambda) gives the reduced fraction
    that one gcd of the sum over the product of all denominators gives."""
    rng = random.Random(59)
    dens = [QLam(1), lam - 1, (lam - 1) ** 2, lam * (lam + 2), lam + 2, lam ** 2 + 1]
    kinds = set()
    for case in range(400):
        constant = case >= 300
        values = []
        for _ in range(rng.randint(1, 7)):
            if rng.random() < 0.2:
                values.append(rand_rational(rng))
            else:
                num = QLam(QPoly([rand_rational(rng) for _ in range(rng.randint(1, 3))]))
                values.append(num if constant else num / rng.choice(dens))
        kind = "constant" if constant else rng.choice(("plain", "cancel", "partial"))
        if kind == "cancel" or (constant and rng.random() < 0.5):
            values += [-v for v in values]
            rng.shuffle(values)
        elif kind == "partial":
            # an equal-denominator pair whose summed numerator shares a
            # factor with the denominator
            values += [1 / (lam - 1) ** 2, (lam - 2) / (lam - 1) ** 2]
        pairs = [(v.num, v.den) if isinstance(v, RatFun) else (QPoly((v,)), QPoly((1,)))
                 for v in values]
        num, den = QPoly(), QPoly((1,))
        for i, (n, _) in enumerate(pairs):
            for k, (_, d) in enumerate(pairs):
                n = n if k == i else n * d
            num = num + n
        for _, d in pairs:
            den = den * d
        want = _num_den(QLam(num, den))
        assert _num_den(sum(values[1:], values[0])) == want
        if kind == "cancel":
            assert want == ((), (1,))
        kinds.add(kind)
    assert kinds == {"plain", "cancel", "partial", "constant"}


def _sympy_num_den(sympy, X, expr):
    """(num, den) coefficient tuples, ascending, of sympy.cancel(expr) made
    monic in the denominator."""
    num, den = (sympy.Poly(part, X, domain="QQ") for part in sympy.fraction(sympy.cancel(expr)))
    lead = den.LC()
    return tuple(tuple(Fraction(int(c.p), int(c.q)) for c in
                       (v / lead for v in reversed(part.all_coeffs()))) if part else ()
                 for part in (num, den))


def test_field_oracle_matches_sympy_cancel():
    """The tests' Q(lambda), checked by an independent implementation: over
    200 seeded random expressions (+, -, *, / and integer powers, of either
    sign, of polynomials in lambda, with linear factors lambda - r shared
    between operands so that poles and cancellations occur), its num and
    den equal those of sympy.cancel, made monic in the denominator."""
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")
    rng = random.Random(3601)
    roots = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2))

    def leaf():
        cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        value, expr = QLam(QPoly(cs)), sum(sympy.Rational(c.numerator, c.denominator) * X ** i
                                            for i, c in enumerate(cs))
        for r in rng.sample(roots, rng.randint(0, 2)):
            value, expr = value * (lam - r), expr * (X - sympy.Rational(r.numerator, r.denominator))
        return value, expr

    def draw(depth):
        if not depth or rng.random() < 0.25:
            return leaf()
        (a, ea), (b, eb) = draw(depth - 1), draw(depth - 1)
        op = rng.choice("+-*/^")
        if op == "+":
            return a + b, ea + eb
        if op == "-":
            return a - b, ea - eb
        if op == "*":
            return a * b, ea * eb
        if op == "/" and b:
            return a / b, ea / eb
        n = rng.randint(-2, 2) if a else rng.randint(0, 2)
        return a ** n, ea ** n
    kinds = set()
    for _ in range(200):
        value, expr = draw(3)
        assert (value.num.coeffs, value.den.coeffs) == _sympy_num_den(sympy, X, expr)
        kinds |= {"pole" if value.den.degree > 0 else "polynomial"}
        kinds |= {"zero"} if not value else set()
    assert kinds == {"pole", "polynomial", "zero"}


def test_ratfun_eval_derivative_subst():
    f = 1 / (lam - 1)
    assert eval_at(f, 3) == Fraction(1, 2)
    with pytest.raises(PoleAtEvaluationPoint):
        eval_at(f, 1)
    assert derivative(f) == -1 / (lam - 1) ** 2
    quot = derivative(lam ** 2 / (lam + 5))
    expect = (2 * lam * (lam + 5) - lam ** 2) / (lam + 5) ** 2
    assert quot == expect


def jet(f, c, n):
    """R_0..R_{n-1} of f at lambda = c, from the batched kernel."""
    return fields.taylor_table([f], c, [(1, n)])[0][0]


def test_taylor_of_monomials_is_binomial():
    for c in (Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5)):
        for i in range(6):
            got = jet(lam ** i, c, 8)
            assert got == [math.comb(i, k) * c ** (i - k) if k <= i else 0 for k in range(8)]


def test_taylor_of_pole_powers_matches_closed_form():
    for a in (Fraction(0), Fraction(1), Fraction(-3, 2)):
        for c in (Fraction(2), Fraction(-1, 3)):
            for j in range(1, 5):
                got = jet(1 / (lam - a) ** j, c, 6)
                assert got == [(-1) ** k * math.comb(j + k - 1, k) * (c - a) ** (-j - k)
                               for k in range(6)]


def test_taylor_head_is_value_and_pole_raises():
    rng = random.Random(29)
    rand_poly = lambda: QPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                               for _ in range(rng.randint(1, 5))])
    poles = 0
    for _ in range(200):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        den = rand_poly() or QPoly((1,))
        if rng.random() < 0.3:
            den = den * QPoly((-c, 1))
        f = QLam(rand_poly(), den)
        try:
            value = eval_at(f, c)
        except PoleAtEvaluationPoint:
            with pytest.raises(PoleAtEvaluationPoint):
                jet(f, c, 3)
            with pytest.raises(PoleAtEvaluationPoint):
                jet(f, c, 0)
            poles += 1
            continue
        assert jet(f, c, 1) == [value]
        assert jet(f, c, 0) == []
    assert poles >= 20
    with pytest.raises(PoleAtEvaluationPoint):
        jet((lam + 1) / (lam - 2) ** 2, 2, 3)


_HORNER_POINTS = (Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(7, 5), Fraction(-13, 4))


def _horner_cases(rng, count):
    """(cs, c, j): a polynomial of degree 0..40 with coefficients of mixed
    and large denominators, divisible by (x - c)**j for j = 0..4, and c one
    of _HORNER_POINTS or (every third case) a random rational."""
    coeff = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
             lambda: Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 20)),
             lambda: Fraction(rng.randint(-3, 3)))
    for i in range(count):
        if i % 3:
            c = _HORNER_POINTS[i % 5]
        else:
            c = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        d = rng.randint(0, 40)
        j = rng.randint(0, min(4, d))
        kinds = rng.sample(coeff, rng.randint(1, 3))
        base = QPoly([rng.choice(kinds)() for _ in range(d - j)] + [Fraction(rng.randint(1, 5))])
        yield (base * QPoly((-c, 1)) ** j).coeffs, c, j


def test_integer_horner_kernels_match_fraction_reference():
    rng = random.Random(97)
    seen = set()
    for cs, c, j in _horner_cases(rng, 500):
        d = len(cs) - 1
        n = rng.randint(1, d + 3)
        ints, q = fields._taylor_ints(cs, c.numerator, c.denominator, n)
        assert all(type(v) is int for v in ints + [q])
        got = [Fraction(v * c.denominator ** k, q) for k, v in enumerate(ints)]
        assert got == reference_taylor_head(cs, c, n)
        for k in {0, j, rng.randint(0, d + 1)}:
            quo, jj = fields._divide_out_root(cs, c, k)
            want, wj = reference_divide_out_root(cs, c, k)
            assert (list(quo), jj) == (list(want), wj)
            assert all(type(v) is Fraction for v in quo)
        f = QLam(1, Poly(cs))
        assert (_pole_index([f], c) == 0) == (reference_pole_order(f, c) > 0)
        seen |= {"j = %d" % j, "n > degree" if n > d else "n <= degree"}
        seen |= {"c = %s" % c} if c in _HORNER_POINTS else set()
        seen |= {"large denominators"} if any(v.denominator > 10 ** 6 for v in cs) else set()
    assert len(seen) == 13
    c = Fraction(2, 3)
    for n in (1, 4):   # the zero polynomial
        assert fields._taylor_ints((), 2, 3, n) == ([0] * n, 1)
        assert reference_taylor_head((), c, n) == [0] * n
        assert fields._divide_out_root((), c, n) == ([], n)


def _pole_index(rs, c):
    """Index that `taylor_table` reports for its first polar term, or None."""
    try:
        fields.taylor_table(rs, c, [])
    except PoleAtEvaluationPoint as exc:
        return exc.index
    return None


def _taylor_table_case(rng):
    """(rs, c, rows): up to three denominators, each shared as one tuple by
    several terms and, for some, also held equal in a distinct tuple; c with
    b > 1 or negative; numerators with coefficients up to 10**30; n up to 5;
    now and then a den that vanishes at c."""
    c = rng.choice((Fraction(0), Fraction(3), Fraction(-2), Fraction(2, 3), Fraction(-7, 5),
                    Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(2, 10 ** 4))))
    coeff = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
             lambda: Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 20)))
    rand_poly = lambda d: QPoly([rng.choice(coeff)() for _ in range(d)] + [Fraction(1)])
    dens = []
    for _ in range(rng.randint(1, 3)):
        d = rand_poly(rng.randint(0, 6))
        if rng.random() < 0.06:
            d = d * QPoly((-c, 1)) ** rng.randint(1, 2)
        dens.append(d)
    rs = []
    for _ in range(rng.randint(1, 8)):
        d = rng.choice(dens)
        if rng.random() < 0.3:
            d = QPoly(d.coeffs)   # equal value, distinct tuple
        r = QLam(rand_poly(rng.randint(0, 6)) * rng.choice(coeff)(), d)
        # d is monic: a reduced den equal to it shares its tuple, as in the
        # library's exit reducer
        rs.append(fields._reduced(r.num, d) if r.den == d else r)
    n = rng.randint(1, 5)
    rows = [(math.factorial(t), t + 1) for t in range(max(0, n - 3), n)]
    rows += [(rng.randint(-10 ** 6, 10 ** 6), rng.randint(0, n)) for _ in range(rng.randint(0, 2))]
    return rs, c, rows


def test_taylor_table_matches_reference_per_coefficient():
    rng = random.Random(2424)
    seen = set()
    for _ in range(300):
        rs, c, rows = _taylor_table_case(rng)
        n = max(m for _, m in rows)
        try:
            ref = [reference_taylor(r, c, n) for r in rs]
        except PoleAtEvaluationPoint as exc:
            with pytest.raises(PoleAtEvaluationPoint) as got:
                fields.taylor_table(rs, c, rows)
            assert str(got.value) == str(exc) == "pole at lambda = %s" % c
            first = next(i for i, r in enumerate(rs) if reference_pole_order(r, c) > 0)
            assert got.value.index == _pole_index(rs, c) == first
            seen.add("pole")
            continue
        got = fields.taylor_table(rs, c, rows)
        assert got == [[[w * R[k] for k in range(m)] for w, m in rows] for R in ref]
        assert all(type(v) is Fraction for table in got for row in table for v in row)
        ids = {id(r.den.coeffs) for r in rs}
        seen |= {"n = %d" % n}
        seen |= {"shared tuple"} if len(ids) < len(rs) else set()
        seen |= {"equal dens in distinct tuples"} if len({r.den for r in rs}) < len(ids) else set()
        seen |= {"b > 1"} if c.denominator > 1 else set()
        seen |= {"negative c"} if c < 0 else set()
        seen |= {"10**30"} if any(abs(v.numerator) > 10 ** 25 for r in rs
                                  for v in r.num.coeffs) else set()
    assert len(seen) == 11


def test_ratfun_power_of_lambda_monomial_matches_repeated_product():
    for a in (1, -1, Fraction(-2, 3), Fraction(5, 2)):
        for k in range(-40, 41):
            f = _lam_power(a, k)
            for n in range(-5, 6):
                want = QLam(1)
                for _ in range(abs(n)):
                    want = want * f
                want = want if n >= 0 else 1 / want
                got = f ** n
                assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)


def test_taylor_table_reports_the_index_of_the_first_polar_term():
    f = (lam + 1) / ((lam - 2) ** 3 * (lam + 4))
    rs = [QLam(7), lam ** 2 / (lam - 5), f, 3 * f, 1 / (lam + 4)]
    assert _pole_index(rs, 2) == 2
    assert _pole_index(rs, -4) == 2
    assert _pole_index(rs, 5) == 1
    assert _pole_index(rs, Fraction(1, 3)) is None
    assert _pole_index([QLam(7)], 0) is None   # a constant den has no root
    assert _pole_index([], 2) is None
    with pytest.raises(PoleAtEvaluationPoint, match="^pole at lambda = 2$") as got:
        fields.taylor_table(rs, 2, [(1, 3)])
    assert got.value.index == 2


def test_rational_roots():
    x = QPoly((0, 1))
    p = (x - 1) ** 2 * (x + 3) * (x ** 2 + 1)
    roots, residual = rational_roots(p)
    assert roots == [(Fraction(-3), 1), (Fraction(1), 2)]
    assert residual.monic() == x ** 2 + 1
    roots2, residual2 = rational_roots(x ** 2 + 1)
    assert roots2 == [] and residual2.degree == 2
    roots3, residual3 = rational_roots(2 * x - 3)
    assert roots3 == [(Fraction(3, 2), 1)] and residual3.degree == 0
    with pytest.raises(DivisionByZero):
        rational_roots(Poly(()))


def test_rational_roots_large_coefficients_zero_and_repeats():
    x = QPoly((0, 1))
    big = (1000000007 * x - 998244353) * (3 * x + 1) * (x ** 2 + 1)
    roots, residual = rational_roots(big)
    assert roots == [(Fraction(-1, 3), 1), (Fraction(998244353, 1000000007), 1)]
    assert residual == 3000000021 * (x ** 2 + 1)
    roots, residual = rational_roots(x ** 3 * (x - 2))
    assert roots == [(Fraction(0), 3), (Fraction(2), 1)] and residual == Poly((1,))
    assert rational_roots(Poly((Fraction(-5, 2),))) == ([], Poly((Fraction(-5, 2),)))
    rep = (2 * x - 1) ** 3 * (x + 4) ** 2 * (x ** 2 - 2)
    roots, residual = rational_roots(rep)
    assert roots == [(Fraction(-4), 2), (Fraction(1, 2), 3)]
    assert residual == 8 * (x ** 2 - 2)


def _random_root_product(rng):
    """A random product of rational linear factors and irreducible quadratics."""
    x = QPoly((0, 1))
    lim = rng.choice((9, 99, 10 ** 10))
    p = QPoly((Fraction(rng.randint(1, 9), rng.randint(1, 9)),))
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.6:
            p = p * (rng.randint(1, lim) * x + rng.randint(-lim, lim))
        else:
            a, b, c = rng.randint(1, lim), rng.randint(-lim, lim), rng.randint(-lim, lim)
            disc = b * b - 4 * a * c
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                c = b * b // (4 * a) + 1     # makes disc < 0
            p = p * (a * x ** 2 + b * x + c)
    return p


def test_rational_roots_match_sympy_ground_roots():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2026)
    X = sympy.Symbol("x")
    for _ in range(500):
        p = _random_root_product(rng)
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                         for c in reversed(p.coeffs)], X, domain="QQ")
        expect = sorted((Fraction(int(r.p), int(r.q)), int(m))
                        for r, m in sp.ground_roots().items())
        roots, residual = rational_roots(p)
        assert roots == expect
        back = residual
        for r, m in roots:
            back = back * QPoly((-r, 1)) ** m
        assert back == p
