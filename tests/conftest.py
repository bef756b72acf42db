"""Shared reference operators, random instances, independent oracles and
the test-only tools (gauge transforms, masked comparison, evaluation in
lambda) that the library itself never calls.

Every oracle here recomputes its answer from first principles (dictionary
convolutions, orbit recursions, direct hull walks, explicit double sums) so
that the library is never checked against itself.
"""
import heapq
import math
import sys
from fractions import Fraction
from itertools import zip_longest

from mahler.errors import (DivisionByZero, InsufficientPrecision, MahlerError,
                           NonRationalExponent, PlanMismatch, PoleAtEvaluationPoint,
                           UnknownLeadingTerm, VerificationError, ZeroDivisor, ZeroSeries)
from mahler.factorize import Factorization, FirstOrderFactor
from mahler.fields import Poly, RatFun, _lam_poly, lam_ratfun, poly_gcd
from mahler.frobenius import _order1, _solution
from mahler.hahn import (_FULL, NEG, POS, HahnSeries, Mask, _grid, _iv_diff, _iv_inter,
                         _iv_norm, _on_lattice, _series, _shifted, forward_solve, hs, hs_mul,
                         hs_sum, monomial, one, zero)
from mahler.newton import analyze, frobenius_plan
from mahler.operator import MahlerOperator
from mahler.testing import rand_rational


# ---------------------------------------------------------------------------
# The ring Q[lambda] and the field Q(lambda) that the oracles compute in.  The
# library has neither: it builds every value over Q(lambda) through its exit
# reducer `fields.lam_ratfun`, and its Poly only divides.


def _qpoly(x):
    """x as a QPoly: a Poly by its coefficients, a scalar as a constant."""
    if isinstance(x, QPoly):
        return x
    return QPoly(x.coeffs if isinstance(x, Poly) else (x,))


class QPoly(Poly):
    """Q[lambda] of the tests: the library's Poly with + - * ** and shift,
    on coefficient lists, a scalar operand read as a constant."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return Poly.__eq__(self, _qpoly(other))

    __hash__ = Poly.__hash__

    def __neg__(self):
        return QPoly([-a for a in self.coeffs])

    def __add__(self, other):
        return QPoly([a + b for a, b in zip_longest(self.coeffs, _qpoly(other).coeffs,
                                                    fillvalue=0)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_qpoly(other)

    def __rsub__(self, other):
        return _qpoly(other) - self

    def __mul__(self, other):
        b = _qpoly(other).coeffs
        out = [Fraction(0)] * max(len(self.coeffs) + len(b) - 1, 0)
        nz = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in nz:
                    out[i + j] += x * y
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = QPoly((1,))
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k):
        """Multiply by lambda**k."""
        return QPoly((0,) * k + self.coeffs) if self else self


def _qlam(x):
    """x as a QLam: a RatFun by its num and den, a Poly or a scalar over 1."""
    if isinstance(x, QLam):
        return x
    if isinstance(x, RatFun):
        return QLam(x.num, x.den)
    return QLam(x)


class QLam(RatFun):
    """Q(lambda) of the tests, the oracle for every value over Q(lambda)
    that the library makes.  Each operation forms the unreduced num/den
    and reduces it once: both divided by their `poly_gcd`, and den made
    monic; there is no shortcut.  An operand that is a library RatFun, a
    Poly or a scalar is read as its value, and a QLam equals the RatFun of
    the same value."""

    __slots__ = ()

    def __init__(self, num, den=1):
        num, den = _qpoly(num), _qpoly(den)
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        g = poly_gcd(num, den)
        num, den = num // g, den // g
        lead = den.coeffs[-1]
        self.num = QPoly([a / lead for a in num.coeffs])
        self.den = QPoly([a / lead for a in den.coeffs])

    def __eq__(self, other):
        if not isinstance(other, (RatFun, Poly, int, Fraction)):
            return NotImplemented
        other = _qlam(other)
        return self.num == other.num and self.den == other.den

    __hash__ = RatFun.__hash__

    def __neg__(self):
        return QLam(-self.num, self.den)

    def __add__(self, other):
        o = _qlam(other)
        return QLam(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_qlam(other)

    def __rsub__(self, other):
        return _qlam(other) - self

    def __mul__(self, other):
        o = _qlam(other)
        return QLam(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _qlam(other)
        return QLam(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return _qlam(other) / self

    def __pow__(self, n):
        num, den = (self.num, self.den) if n >= 0 else (self.den, self.num)
        return QLam(num ** abs(n), den ** abs(n))


lam = QLam(QPoly((0, 1)))


def phi_minus(p, c, nu=0):
    """The operator z**nu * phi - c."""
    return MahlerOperator(p, [one().scale(Fraction(-c)), monomial(Fraction(nu))])


def solve_order1_lam(p, mu, c, g, ceiling, depth):
    """frobenius.solve_order1_param for a g over Q(lambda), a coefficient
    over Q read as a constant: the same solve by the library's kernel
    (`frobenius._order1`), with g's coefficients over the product D of
    their distinct dens as LamPolys over one integer q, and each
    coefficient of the solution out through the exit reducer `lam_ratfun`,
    then multiplied by 1/D in the tests' field.  Not an oracle: it runs the
    kernel on the Q(lambda) right-hand sides of the tests, where
    reference_solve_order1_param and order1_coeff_oracle check it."""
    c = Fraction(c)
    if not c:
        raise PlanMismatch("c = 0 is not an exponent of an order-1 factor")
    if g.is_exact_zero():
        return g
    shift = Fraction(mu) / (p - 1)
    cap = Fraction(ceiling) - shift
    M = math.lcm(_grid([g]), shift.denominator, cap.denominator)
    ext, terms = _on_lattice(g.map_coeffs(_qlam), M)
    D = math.prod(dict.fromkeys(r.den for _, r in terms), start=QPoly((1,)))
    nums = [(E, (r.num * (D // r.den)).coeffs) for E, r in terms]
    q = math.lcm(*(a.denominator for _, cs in nums for a in cs))
    part = ext, [(E, _lam_poly(0, [a.numerator * (q // a.denominator) for a in cs]))
                 for E, cs in nums], q
    lifts = []
    ext, terms, den = _order1(p, c, _shifted(part, -int(shift * M)), int(cap * M), depth, lifts)
    q = den * math.prod(r.denominator for r in lifts)
    powers, dens, inv = [(r, -1) for r in lifts], {}, QLam(1, D)
    M *= p ** (depth + 1)
    return _series(M, (ext, [(E, lam_ratfun(X, q, powers, dens) * inv) for E, X in terms], 1),
                   int(shift * M))


def replace(record, **changes):
    """A copy of the immutable record with the given fields changed, the
    others as in record (the record's fields are its class's __slots__)."""
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    fields.update(changes)
    return type(record)(**fields)


def rebind(monkeypatch, fn, wrapper):
    """Put wrapper in place of fn in every binding of fn in the loaded
    mahler modules."""
    for mod in [m for key, m in sys.modules.items() if key.startswith("mahler.")]:
        for key, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, key, wrapper)
    return wrapper


def count_calls(monkeypatch, calls, fn, name):
    """Count the calls of fn in `calls[name]`, through every binding of fn
    in the loaded mahler modules."""
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return rebind(monkeypatch, fn, counted)


def lift(f):
    """Reinterpret a series over Q as a series over Q(lambda)."""
    return f.map_coeffs(_qlam)


def forget(f, lo, hi):
    """f with certification given up on [lo, hi), which an empty [lo, hi)
    leaves as it is: how tests punch holes in masks."""
    return reference_build(f.terms, _iv_diff(f.mask.extended, [(lo, hi)] if lo < hi else []))


def cap(f, bound):
    """f with everything at or above `bound` forgotten (truncation, not
    restriction)."""
    return reference_build(f.terms, _iv_inter(f.mask.extended, [(NEG, bound)]))


def restrict(f, lo, hi):
    """The restriction of f to [lo, hi): zero outside it by fiat."""
    return reference_build([(e, c) for e, c in f.terms if lo <= e < hi],
                           _iv_diff(_FULL, _iv_diff([(lo, hi)], f.mask.extended)))


def rand_exponent(rng, lo=-3, hi=6, max_den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_series(rng, terms=4, lo=-3, hi=6):
    """Exact finitely supported series, never zero."""
    support = {rand_exponent(rng, lo, hi) for _ in range(rng.randint(1, terms))}
    return hs(sorted((e, rand_rational(rng, nonzero=True)) for e in support))


def rand_operator(rng, max_order=3, terms=3, ps=(2, 3, 5)):
    """Generic operator with exact coefficients and a_0, a_n nonzero."""
    n = rng.randint(1, max_order)
    return MahlerOperator(rng.choice(ps),
                          [rand_series(rng, terms) for _ in range(n + 1)])


def rand_param_series(rng, terms=3, deg=2, lo=-3, hi=3):
    """Exact finitely supported series with polynomial-in-lambda coefficients."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        e = rand_exponent(rng, lo, hi)
        cs = [rand_rational(rng, -3, 3, 2) for _ in range(rng.randint(1, deg + 1))]
        if not any(cs):
            cs[0] = Fraction(1)
        out[e] = QLam(QPoly(cs))
    return hs(sorted(out.items()))


def rand_pole_series(rng, roots, terms=3, deg=2, lo=-3, hi=3):
    """Exact finitely supported series whose coefficients are polynomials in
    lambda over a product of powers 0..2 of lambda - r for r in roots (a
    root 0 gives powers of lambda), reduced in the tests' field."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        e = rand_exponent(rng, lo, hi)
        num = QPoly([rand_rational(rng, -3, 3, 2) for _ in range(rng.randint(1, deg + 1))])
        den = QPoly((1,))
        for r in roots:
            den = den * QPoly((-r, 1)) ** rng.randint(0, 2)
        out[e] = QLam(num or 1, den)
    return hs(sorted(out.items()))


def pipeline_mask(rng, f, p):
    """f with a mask of one of the kinds the pipeline makes, endpoints off
    the lattice of f's exponents: capped at a ceiling minus nu/(p-1),
    holed from a forget bound vb * p**(-depth-1), holed several times with
    its +inf ray kept, or emptied."""
    lo = f.terms[0][0]
    kind = rng.choice(("ceiling", "forget bound", "gaps and ray", "empty"))
    if kind == "ceiling":
        nu = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        return kind, cap(f, Fraction(rng.randint(0, 8)) - nu / (p - 1))
    if kind == "forget bound":
        b = (lo - 1) * Fraction(p) ** (-rng.randint(2, 8) - 1)
        return kind, forget(f, b, max(b + Fraction(1, 2), Fraction(0)))
    if kind == "gaps and ray":
        cut = lo + Fraction(rng.randint(0, 3), rng.choice((5, 7, 13)))
        for _ in range(rng.randint(2, 4)):
            width = Fraction(rng.randint(1, 3), rng.choice((2, p ** 3, 11)))
            f = forget(f, cut, cut + width)
            cut += width + Fraction(rng.randint(1, 4), rng.choice((3, p ** 2)))
        return kind, f
    return kind, forget(f, NEG, lo + 1)


def support(f):
    """The exponents of the stored terms."""
    return tuple(e for e, _ in f.terms)


def eq_on_mask(f, g):
    """(equal, common): whether f and g agree at every exponent both
    certify, and the mask of that common region."""
    common = reference_build((), _iv_inter(f.mask.extended, g.mask.extended)).mask
    a, b = dict(f.terms), dict(g.terms)
    equal = all(a.get(e, 0) == b.get(e, 0)
                for e in set(a) | set(b) if common.certifies(e))
    return equal, common


def poly_eval(poly, c):
    """Value at x = c by Horner's rule in Fraction arithmetic."""
    acc = Fraction(0)
    for a in reversed(poly.coeffs):
        acc = acc * c + a
    return acc


def eval_at(r, c):
    """Value of a reduced rational function at lambda = c, as num(c)/den(c);
    raises PoleAtEvaluationPoint where den(c) = 0."""
    c = Fraction(c)
    den = poly_eval(r.den, c)
    if not den:
        raise PoleAtEvaluationPoint("pole at lambda = %s" % c)
    return poly_eval(r.num, c) / den


def derivative(r):
    """d/dlambda of a rational function, by the quotient rule."""
    r = _qlam(r)
    return QLam(r.num.derivative() * r.den - r.num * r.den.derivative(), r.den * r.den)


def gauge_theta(L, mu):
    """Conjugate by theta_mu = z**(mu/(p-1)): a_i picks up z**(mu*(p^i-1)/(p-1)).

    The library gauges on integer lattices and reads chi in place; this is
    the reference for both (`reference_char_poly`, the gauge lemmas and
    `reference_factor_operator`)."""
    p = L.p
    mu = Fraction(mu)
    return MahlerOperator(p, [ai.shift(mu * (p ** i - 1) / (p - 1))
                              for i, ai in enumerate(L.coeffs)])


def reference_char_poly(L, mu):
    """chi of L at slope mu read off the gauged operator
    gauge_theta(L, -(p-1) mu): each coefficient at the least valuation,
    the X**v factor stripped.  Oracle for newton.char_poly, which reads L
    in place."""
    M = gauge_theta(L, -(L.p - 1) * Fraction(mu))
    v = min(bi.val() for bi in M.coeffs if not bi.is_zero())
    cs = [Fraction(bi.coeff_at(v)) for bi in M.coeffs]
    shift = next(k for k, c in enumerate(cs) if c)
    return Poly(cs[shift:])


def gauge_exp(L, c):
    """Conjugate by e_c: a_i -> c**i a_i."""
    c = Fraction(c)
    return MahlerOperator(L.p, [ai.scale(c ** i) for i, ai in enumerate(L.coeffs)])


def gauge_exp_param(L):
    """Conjugate by e_lambda: coefficients lifted to Q(lambda), a_i -> lambda**i a_i."""
    out = []
    for i, ai in enumerate(L.coeffs):
        li = lam ** i
        out.append(ai.map_coeffs(lambda c, li=li: li * c))
    return MahlerOperator(L.p, out)


def gauge_unit(L, g, ceiling):
    """Conjugate by a unit series g of valuation 0: a_i -> a_i phi^i(g) / g."""
    ginv = g.invert(ceiling)
    return MahlerOperator(L.p, [hs_mul(hs_mul(ai, g.mal(i, L.p)), ginv)
                                for i, ai in enumerate(L.coeffs)])


def gcj_residual_mask(L, plan, c, j, g):
    """Check L^[e_lambda](g) against its closed form; returns the certified mask."""
    c = Fraction(c)
    m, s = plan.lookup(j, c)
    lead = (lam - c) ** (s + m)
    rhs = monomial(plan.val_a0 - plan.nus[j] / (L.p - 1), lead)
    res = reference_add(reference_apply(gauge_exp_param(L), g), -rhs)
    if not res.is_zero():
        raise VerificationError("defining equation residual is nonzero")
    return res.mask


def ladder_operator(p, nu, ceiling=Fraction(30)):
    """Order-2 operator (phi - z^nu) h^-1 (phi - 1) with h = 1 + z^(-nu/(p-1)).

    For nu < 0 it has slopes 0 and -nu/((p-1)p), exponent 1 at both, and its
    second basis solution carries an accumulation ladder, so it exercises
    every branch of the solver.  Expanded: a2 = phi(h^-1), a0 = z^nu h^-1,
    a1 = -(a2 + a0).
    """
    nu = Fraction(nu)
    h = hs([(0, 1), (-nu / (p - 1), 1)])
    hinv = h.invert(ceiling)
    a2 = hinv.mal(1, p)
    a0 = hinv.shift(nu)
    return MahlerOperator(p, [a0, -(a2 + a0), a2])


def brute_conv(f, g):
    """Dictionary convolution of the stored terms, no mask logic at all."""
    out = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: v for e, v in out.items() if v}


def _iv_contains(ivs, x):
    for lo, hi in ivs:
        if lo <= x < hi:
            return True
    return False


def reference_grid(series):
    """Smallest M with every exponent and finite mask endpoint of the given
    series in (1/M)Z, read off their Fractions (infinite endpoints are
    floats).  Oracle for hahn._grid, which reads each series' own lattice
    once."""
    return math.lcm(*{e.denominator for f in series for e, _ in f.terms},
                    *{x.denominator for f in series for iv in f.mask.ivs for x in iv
                      if type(x) is Fraction})


def reference_numerators(f, M):
    """(region, terms, den) of f over Q on (1/M)Z read off its Fractions:
    the extended certified region and the terms with every exponent and
    finite endpoint x as the integer M*x, and each coefficient as an
    integer numerator over the lcm den of their denominators.  Oracle for
    hahn._numerators, which reads a series' kept lattice form."""
    def at(x):
        if type(x) is float:
            return x
        assert (x * M).denominator == 1, (x, M)
        return int(x * M)
    den = math.lcm(*(c.denominator for _, c in f.terms))
    return ([(at(lo), at(hi)) for lo, hi in f.mask.extended],
            [(at(e), int(c * den)) for e, c in f.terms], den)


def same_lattice_form(got, want):
    """Two (region, terms, den) of one series on one lattice agree: the
    region, the exponents and every value N/den."""
    (r1, t1, d1), (r2, t2, d2) = got, want
    assert list(r1) == list(r2)
    assert [E for E, _ in t1] == [E for E, _ in t2]
    assert [Fraction(N, d1) for _, N in t1] == [Fraction(N, d2) for _, N in t2]


def reference_series(M, part, d=0):
    """hahn._series(M, part, d) the way it was first built: the Fractions
    of the unshifted series through reference_build, then HahnSeries.shift
    by d/M, which moves the stored mask head read off the unshifted
    frame."""
    ext, terms, den = part
    at = lambda x: x if type(x) is float else Fraction(x, M)
    return reference_build([(Fraction(E, M), Fraction(S, den) if type(S) is int else S)
                            for E, S in terms],
                           [(at(lo), at(hi)) for lo, hi in ext]).shift(Fraction(d, M))


def reference_build(terms, ext):
    """Canonical series from (exp, coeff) pairs and an extended certified set.

    The head interval of `ext` must reach down to -inf: the stored mask's
    no-support-below guarantee is only deducible when some ray (-inf, hi) is
    certified.  The head is converted to the stored [lo, hi) form with lo at
    the lowest retained exponent (the choice of lo is arbitrary below the
    support, any value keeps the same certified region).  An `ext` with a
    finite head carries a claim the mask cannot represent, so everything is
    conservatively dropped.

    Oracle for hahn._series, which builds every canonical series (hs,
    zero, monomial and the kernels' results), on terms inside a normalized
    `ext`: a linear membership scan per term and a second normalization
    inside Mask."""
    ext = _iv_norm(ext)
    if not ext or ext[0][0] != NEG:
        return HahnSeries((), Mask(()))
    tl = sorted((e, c) for e, c in terms if c and _iv_contains(ext, e))
    _, hi0 = ext[0]
    below = [e for e, _ in tl if e < hi0]
    if below:
        lo0 = below[0]
    elif hi0 > 0:
        lo0 = Fraction(0)
    else:
        lo0 = hi0 - 1
    ext[0] = (lo0, hi0)
    return HahnSeries(tuple(tl), Mask(ext))


def reference_add(f, g):
    """Sum of two series by one dict merge and one build: the left fold of
    this is the oracle for hahn.hs_sum."""
    ext = _iv_inter(f.mask.extended, g.mask.extended)
    acc = dict(f.terms)
    for e, c in g.terms:
        s = acc.get(e)
        acc[e] = c if s is None else s + c
    return reference_build(acc.items(), ext)


def reference_sum(series):
    """The left fold of reference_add over a sequence of series, in any
    coefficient ring (hahn.hs_sum runs over Q only): the exact zero when it
    is empty, its one series as it is."""
    series = list(series)
    out = series[0] if series else zero()
    for f in series[1:]:
        out = reference_add(out, f)
    return out


def reference_apply(L, f):
    """L(f) as MahlerOperator.apply forms it, from the exact zero, in any
    coefficient ring: the products by reference_mul, summed by
    reference_sum."""
    return reference_sum([zero()] + [reference_mul(ai, f.mal(i, L.p))
                                     for i, ai in enumerate(L.coeffs) if not ai.is_exact_zero()])


def reference_pollution(unc, g):
    """Product regions reachable from uncertified exponents in `unc` paired
    with the stored support of g, one region per pair."""
    return [(lo + e, _add_inf(hi, e)) for lo, hi in unc for e, _ in g.terms]


def _add_inf(a, b):
    if a == POS or b == POS:
        return POS
    return a + b


def reference_mul(f, g):
    """Product forming every pair of stored terms before the mask drops any.

    Same mask rule as hs_mul; only the product loop is unbounded."""
    fe, ge = f.mask.extended, g.mask.extended
    if not fe or not ge:
        return reference_build((), ())
    if (not f.terms and fe == _FULL) or (not g.terms and ge == _FULL):
        return reference_build((), _FULL)
    if len(f.terms) == 1 and fe == _FULL:
        return g.shift(f.terms[0][0]).scale(f.terms[0][1])
    if len(g.terms) == 1 and ge == _FULL:
        return f.shift(g.terms[0][0]).scale(g.terms[0][1])
    acc = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e, v = e1 + e2, c1 * c2
            acc[e] = acc[e] + v if e in acc else v
    unc_f, unc_g = _iv_diff(_FULL, fe), _iv_diff(_FULL, ge)
    poll = reference_pollution(unc_f, g) + reference_pollution(unc_g, f)
    if unc_f and unc_g:
        poll.append((unc_f[0][0] + unc_g[0][0], POS))
    return reference_build(acc.items(), _iv_diff(_FULL, _iv_norm(poll)))


def reference_forward_solve(one, lead, taps, cap):
    """Series w, exact on (-inf, cap), with w_0 = one and

        lead * w_g + sum over taps (e, k, a) of a * w_((g - e)/k) = 0

    at every g > 0.  Every tap must move forward (e >= 0, k >= 1,
    not both e = 0 and k = 1), so w is supported on the closure of {0} under
    g -> k*g + e and each w_g depends only on smaller exponents.  Exponents
    are settled in increasing order from a heap; a settled nonzero w_g
    scatters its contributions to the exponents it reaches below cap.

    Oracle for hahn.forward_solve: the same recursion on Fraction exponents,
    each value formed by its coefficients' own arithmetic and divided by
    lead as it settles.  forward_solve runs on the integers of the taps'
    lattice instead, and over Q its values are integer numerators over
    powers of the scaled lead, which come out over one den."""
    rows = {}
    for e, k, a in taps:
        if e < 0 or k < 1 or (not e and k == 1):
            raise MahlerError("tap (%s, %s) does not move the recursion forward" % (e, k))
        rows.setdefault(k, []).append((e, a))
    rows = [(k, sorted(row, key=lambda t: t[0])) for k, row in rows.items()]
    inv = 1 / lead
    w, pending, heap = {}, {}, []
    g, v = Fraction(0), one
    while True:
        if v:
            w[g] = v
            for k, row in rows:
                base = k * g
                for e, a in row:
                    t = base + e
                    if t >= cap:
                        break
                    s = pending.get(t)
                    if s is not None:
                        pending[t] = s + a * v
                    elif t != g:  # t == g only for e = 0 taps at the base g = 0
                        pending[t] = a * v
                        heapq.heappush(heap, t)
        if not heap:
            return reference_build(w.items(), [(NEG, cap)])
        g = heapq.heappop(heap)
        v = -pending.pop(g) * inv


def rational_forward_solve(one, lead, taps, cap):
    """hahn.forward_solve stated on rationals, as reference_forward_solve
    takes its cases: the exponents go on the taps' lattice (1/D)Z, lead and
    the tap coefficients over the lcm Q of their denominators (ell = Q*lead),
    the cap becomes ceil(cap*D), and the terms are built into a series exact
    on (-inf, cap).  Checks that the numerators come over the lcm of the
    values' reduced denominators.  Over Q(lambda) a MahlerError, as the
    kernel runs on integers only."""
    for c in (one, lead, *(a for _, _, a in taps)):
        if type(c) is not Fraction:
            raise MahlerError("the forward recursion runs over Q; got a %s coefficient"
                              % type(c).__name__)
    D = math.lcm(*(e.denominator for e, _, _ in taps))
    Q = math.lcm(lead.denominator, *(a.denominator for _, _, a in taps))
    terms, den = forward_solve(one, int(lead * Q),
                               [(int(e * D), k, int(a * Q)) for e, k, a in taps],
                               math.ceil(cap * D))
    values = [Fraction(N, den) for _, N in terms]
    assert den == math.lcm(*(v.denominator for v in values))
    return reference_build([(Fraction(g, D), v) for (g, _), v in zip(terms, values)], [(NEG, cap)])


def geometric_invert(f, ceiling):
    """Inverse as the geometric series c**-1 z**-v sum_m (-t)**m with
    f = c z**v (1 + t), each power a full product capped at the ceiling.
    The exact zero raises ZeroDivisor, any other series with no certified
    leading term InsufficientPrecision."""
    try:
        v = f.val()
    except (ZeroSeries, UnknownLeadingTerm):
        if f.is_exact_zero():
            raise ZeroDivisor("cannot invert a series with no certified nonzero term")
        raise InsufficientPrecision("cannot invert: leading term not certified")
    c = f.terms[0][1]
    inv_c = 1 / c
    if len(f.terms) == 1 and f.mask.extended == _FULL:
        return reference_build([(-v, inv_c)], _FULL)
    one = reference_build([(Fraction(0), c * inv_c)], _FULL)
    t = reference_add(f.shift(-v).scale(inv_c), -one)
    bound = Fraction(ceiling) - v
    fp = t.val_bound()[0]
    assert fp > 0
    total, power, m = one, one, 0
    while m * fp <= bound:
        m += 1
        power = cap(reference_mul(power, -t), bound)
        total = reference_add(total, power)
        if power.is_exact_zero():
            break
    return cap(total, bound).shift(-v).scale(inv_c)


def reference_unit_solution(M, c, ceiling):
    """The unit solution checked by its own residual M^[e_c](h), as the
    first factoring code did."""
    p = M.p
    c = Fraction(c)
    v0 = M.coeffs[0].val()
    bs = [ai.shift(-v0).scale(c ** i) for i, ai in enumerate(M.coeffs)]
    cap = Fraction(ceiling)
    for bi in bs:
        if bi.is_zero() and bi.mask.empty:
            raise UnknownLeadingTerm("coefficient with no certified region")
        if bi.val_bound()[0] < 0:
            raise PlanMismatch("smallest slope is not zero")
        gap = bi.mask.first_gap()
        if gap < cap:
            cap = gap
    heads = [bi.coeff_at(Fraction(0)) for bi in bs]
    b00 = heads[0]
    if not b00:
        raise PlanMismatch("slope-zero edge does not start at the order-0 vertex")
    if sum(heads):
        raise PlanMismatch("%s is not a root of the slope-zero characteristic polynomial" % c)
    taps = [(Fraction(0), p ** i, heads[i]) for i in range(1, len(bs)) if heads[i]]
    taps += [(e, p ** i, v) for i, bi in enumerate(bs) for e, v in bi.terms if 0 < e < cap]
    h = reference_forward_solve(Fraction(1), b00, taps, cap)
    residual = gauge_exp(M, c).apply(h)
    if not residual.is_zero() or residual.mask.empty:
        raise VerificationError("unit solution does not annihilate the operator")
    return h


def _reference_right_divide(A, B, lead_inverse):
    """Euclidean division A = Q * B + R given the inverse of B's leading
    coefficient; every product of the schoolbook step is formed."""
    p = A.p
    bcs = list(B.coeffs)
    s = len(bcs) - 1
    work = list(A.coeffs)
    quo = [zero()] * (len(work) - s)
    for d in range(len(work) - 1, s - 1, -1):
        cd = work[d]
        if cd.is_exact_zero():
            continue
        qd = hs_mul(cd, lead_inverse.mal(d - s, p))
        quo[d - s] = qd
        for j, bj in enumerate(bcs):
            work[d - s + j] = work[d - s + j] - hs_mul(qd, bj.mal(d - s, p))
    return MahlerOperator(p, quo), MahlerOperator(p, work[:s])


def reference_peel(Mg, h, c):
    """[r, q_1, ..., q_n] of one peel Mg h = Q (phi - c) + r, by Horner's
    rule on t_i = a_i phi**i(h) with every product from reference_mul.

    Oracle for the peel in factorize.factor_operator."""
    p = Mg.p
    # Horner in place: t = [r, q_0, ..., q_(n-1)] from t_i = a_i phi**i(h)
    t = [reference_mul(ai, h.mal(i, p)) for i, ai in enumerate(Mg.coeffs)]
    for k in range(len(t) - 2, -1, -1):
        t[k] = t[k] + t[k + 1].scale(c)
    return t


def plan_of(L):
    """The FrobeniusPlan of L, from one analyze(L)."""
    return frobenius_plan(L, analyze(L))


def reference_factor_operator(L, ceiling, plan=None):
    """Factorization by inverting each h and right-dividing by
    (phi - c) h**-1, with the remainder and the unit solution's residual
    both checked."""
    if plan is None:
        plan = frobenius_plan(L, analyze(L))
    if sum(m for entry in plan.entries for _, m, _ in entry) < L.order:
        raise NonRationalExponent("some slope has no rational exponent left to factor out")
    p = L.p
    a0 = L.coeffs[0]
    va0, ca0 = a0.val(), a0.cld()
    M = L
    layers = []
    for nu, entry in zip(plan.nus, plan.entries):
        Mg = gauge_theta(M, -nu)
        layer = []
        for c, m, _ in entry:
            for _ in range(m):
                h = reference_unit_solution(Mg, c, ceiling)
                hinv = h.invert(ceiling)
                B = MahlerOperator(p, [hinv.scale(-c), hinv.mal(1, p)])
                Q, R = _reference_right_divide(Mg, B, h.mal(1, p))
                for rc in R.coeffs:
                    if not rc.is_zero() or rc.mask.empty:
                        raise VerificationError("nonzero remainder when dividing out a factor")
                layer.append(FirstOrderFactor(nu, c, h))
                Mg = Q
        M = gauge_theta(Mg, nu)
        layers.append(tuple(layer))
    if M.order:
        raise PlanMismatch("an order-%d remainder is left after the plan's slopes" % M.order)
    fact = Factorization(p, M.coeffs[0], tuple(layers))
    if fact.a.val() != va0:
        raise VerificationError("val of the order-0 leftover differs from val a_0")
    prod = Fraction(1)
    for f in fact.all_factors():
        prod *= -f.c
    if fact.a.cld() * prod != ca0:
        raise VerificationError("cld invariant of the factorization fails")
    return fact


def reference_solve_gcj(L, plan, fact, c, j, ceiling, depth):
    """Parametric series g with L(g e_lambda) = z**(val a_0 - nu_j/(p-1)) (lambda-c)**(s+m) e_lambda.

    Solves the triangular system through every layer of the factorization,
    top slope first; within a layer the factors are undone right-to-left
    (solve, then multiply by the unit h).

    Oracle for frobenius.solve_slope: one solve per exponent c, with
    right-hand side (lambda - c)**m, where solve_slope shares one solve
    among the exponents of a slope."""
    p = L.p
    c = Fraction(c)
    m, s = plan.lookup(j, c)
    if len(fact.layers) != len(plan.nus):
        raise PlanMismatch("factorization layers do not match the plan")
    nuj = plan.nus[j]
    ceil2 = Fraction(ceiling) + max(Fraction(0), nuj / (p - 1))
    lamc = lam - c
    x = lift(fact.a.invert(ceil2).shift(plan.val_a0)).scale(lamc ** m)
    for i in reversed(range(len(fact.layers))):
        mu = nuj - fact.layers[i][0].nu
        for f in reversed(fact.layers[i]):
            x = solve_order1_lam(p, mu, f.c, x, ceil2, depth)
            x = reference_mul(lift(f.h), x)
    return x.shift(-nuj / (p - 1)).scale(lamc ** s)


def _first_uncertified_above(ext, start):
    t = start
    for lo, hi in ext:
        if hi <= t:
            continue
        if lo > t:
            break
        t = hi
    return t


def reference_solve_order1_param(p, mu, c, g, ceiling, depth):
    """The unique f over Q(lambda) with (z**(-mu) lambda phi_p - c) f = g.

    In the frame twisted by z**(mu/(p-1)) the right-hand side splits at
    exponent 0; the negative part is summed over phi**k, k = -1..-depth
    (leaving a recorded mask gap just below 0 for the dropped tail), the
    exponent-0 coefficient is divided by lambda - c, and the positive part is
    summed over phi**k, k >= 0 until the terms leave the requested ceiling.

    Oracle for frobenius.solve_order1_param: the same sums as series
    operations (restrict, mal, reference_sum, forget, cap), with the positive part
    built from a hand-made interval list and every special case on its own
    branch, where the solver folds integer pieces on one lattice once."""
    c = Fraction(c)
    if not c:
        # chi has a nonzero constant term, so 0 is never an exponent
        raise PlanMismatch("c = 0 is not an exponent of an order-1 factor")
    if g.is_exact_zero():
        return g
    shift = Fraction(mu) / (p - 1)
    top = Fraction(ceiling) - shift
    G = g.shift(-shift)

    low = restrict(G, NEG, Fraction(0))
    if low.is_exact_zero():
        um = low
    elif low.mask.empty:
        um = HahnSeries((), Mask(()))
    else:
        vb = low.val_bound()[0]
        um = reference_sum(low.mal(k, p).scale(c ** (-k - 1) * lam ** k)
                    for k in range(-1, -depth - 1, -1))
        um = forget(um, vb * Fraction(p) ** (-depth - 1), Fraction(0))

    if G.mask.certifies(0):
        g0 = G.coeff_at(Fraction(0))
        u0 = monomial(0, _qlam(g0) / (lam - c)) if g0 else zero()
    else:
        u0 = reference_build((), [(NEG, Fraction(0))])

    pos_terms = [(e, r) for e, r in G.terms if e > 0]
    fp = _first_uncertified_above(G.mask.extended, Fraction(0))
    if pos_terms and pos_terms[0][0] < fp:
        fp = pos_terms[0][0]
    if fp == POS:
        up = zero()
    elif fp <= 0:
        up = reference_build((), [(NEG, Fraction(0))])
    else:
        ext = [(NEG, fp)] + _iv_inter(G.mask.extended, [(fp, POS)])
        high = reference_build(pos_terms, ext)
        pieces, k = [], 0
        while p ** k * fp < top:
            pieces.append(high.mal(k, p).scale(c ** (-k - 1) * lam ** k))
            k += 1
        up = cap(reference_sum(pieces), top)

    u = reference_sum((um, u0, -up))
    return cap(u, top).shift(shift)


def reference_taylor_head(cs, c, n):
    """Coefficients of h**0..h**(n-1) in sum cs[i] x**i at x = c + h: each
    round of synthetic division by x - c yields one as its remainder.

    Oracle for fields._taylor_head: the same rounds in Fraction arithmetic,
    where the library runs them on integers."""
    out = []
    for _ in range(n):
        acc, quo = Fraction(0), []
        for a in reversed(cs):
            acc = acc * c + a
            quo.append(acc)
        out.append(acc)
        cs = quo[-2::-1]
    return out


def reference_taylor(r, c, n):
    """First n Taylor coefficients R_0..R_{n-1} of a reduced r = num/den at
    lambda = c: the first n coefficients of num(c + h) and den(c + h)
    (`reference_taylor_head`), then a truncated power-series division.
    Raises PoleAtEvaluationPoint when den(c) = 0, also for n = 0, which
    returns [].

    Oracle for fields.taylor_table, one coefficient at a time in Fraction
    arithmetic (the library's earlier `RatFun.taylor`)."""
    c = Fraction(c)
    dj = reference_taylor_head(r.den.coeffs, c, max(n, 1))
    if not dj[0]:
        raise PoleAtEvaluationPoint("pole at lambda = %s" % c)
    nj = reference_taylor_head(r.num.coeffs, c, n)
    out = []
    for k in range(n):
        acc = nj[k]
        for i in range(1, k + 1):
            acc -= dj[i] * out[k - i]
        out.append(acc / dj[0])
    return out


def reference_divide_out_root(cs, c, k):
    """(cs / (x - c)**j, j) for the largest j <= k with (x - c)**j dividing
    the polynomial cs (ascending coefficients, c != 0), by synthetic division.

    Oracle for fields._divide_out_root, in Fraction arithmetic."""
    j = 0
    while j < k:
        acc, quo = 0, []
        for a in reversed(cs):
            acc = acc * c + a
            quo.append(acc)
        if acc:
            break
        cs = quo[-2::-1]
        j += 1
    return cs, j


def reference_pole_order(f, c):
    """Multiplicity of (lambda - c) in the denominator of a reduced f.

    By evaluation and Poly division; the library itself only tests whether
    a den vanishes at c (the constant term of `fields._den_jet`)."""
    c = Fraction(c)
    n, den = 0, f.den
    while den.degree > 0 and not poly_eval(den, c):
        den = den // Poly((-c, Fraction(1)))
        n += 1
    return n


def ev_c(f, c):
    """Evaluate every coefficient at lambda = c."""
    return f.map_coeffs(lambda r: eval_at(r, c))


def d_lambda(f):
    """Differentiate every coefficient with respect to lambda."""
    return f.map_coeffs(derivative)


def reference_specialize(p, g, c, s, m_count):
    """Solutions ev_c(d_lambda**(s+m)(g e_lambda)) for m = 0..m_count-1,
    expanded by the Leibniz rule on the l_{c,u} symbols.

    Each derivative is built in full as a rational function and evaluated."""
    c = Fraction(c)
    derivs = [g]
    for _ in range(s + m_count - 1):
        derivs.append(d_lambda(derivs[-1]))
    out = []
    for m in range(m_count):
        t = s + m
        parts = {}
        for u in range(t + 1):
            w = Fraction(math.factorial(u) * math.comb(t, u))
            parts[(c, u)] = ev_c(derivs[t - u], c).scale(w)
        out.append(_solution(p, parts))
    return out


def reference_apply_to_solution(L, y):
    """Apply the operator to an l-expansion, using
    phi_p**i(l_{c,u}) = sum_t binom(i,t) c**(i-t) l_{c,u-t}.

    Oracle for frobenius.apply_to_solution: the library's earlier fold, one
    product per (i, part), scaled per key and summed by hs_sum, with the
    products formed by reference_mul."""
    p = L.p
    acc = {}
    for i, ai in enumerate(L.coeffs):
        if ai.is_exact_zero():
            continue
        for c, u, fs in y.parts:
            moved = reference_mul(ai, fs.mal(i, p))
            for t in range(min(i, u) + 1):
                w = math.comb(i, t) * c ** (i - t)
                acc.setdefault((c, u - t), []).append(moved.scale(w))
    return _solution(p, {key: hs_sum(pieces) for key, pieces in acc.items()})


def apply_brute(L, f):
    """True coefficients of L(f) for exactly known inputs, as a dict."""
    out = {}
    for i, ai in enumerate(L.coeffs):
        q = Fraction(L.p) ** i
        for e1, c1 in ai.terms:
            for e2, c2 in f.terms:
                e = e1 + q * e2
                out[e] = out.get(e, 0) + c1 * c2
    return {e: v for e, v in out.items() if v}


def hull_walk(points):
    """Lower convex hull by repeated minimal-slope steps.

    `points` are (index, x, y) with x strictly increasing; on slope ties the
    farthest point wins, so collinear interior points are dropped.
    """
    pts = sorted(points, key=lambda t: t[1])
    out = [pts[0]]
    while out[-1] != pts[-1]:
        _, x0, y0 = out[-1]
        best, best_sl = None, None
        for cand in pts:
            if cand[1] <= x0:
                continue
            sl = (cand[2] - y0) / Fraction(cand[1] - x0)
            if best is None or sl < best_sl or (sl == best_sl and cand[1] > best[1]):
                best, best_sl = cand, sl
        out.append(best)
    return tuple(out)


def order1_coeff_oracle(p, mu, c, g, gamma):
    """Coefficient at z**gamma of the f solving (z**-mu lambda phi - c) f = g.

    Works directly from the coefficient relation
        lambda * f((gamma + mu)/p) = g(gamma) + c * f(gamma):
    below the fixed point mu/(p-1) the value unrolls downward along the orbit
    gamma -> p*gamma - mu, above it upward along gamma -> (gamma + mu)/p, and
    at the fixed point a single division by lambda - c remains.  Both
    unrollings terminate because a Hahn solution cannot support an infinite
    descending orbit, so f vanishes once the orbit leaves the support of g.
    Exact for finitely supported g.
    """
    mu, c = Fraction(mu), Fraction(c)
    star = mu / (p - 1)
    gd = {}
    for e, v in g.terms:
        gd[e] = _qlam(v)
    out = QLam(0)
    if gamma == star:
        return gd[star] / (lam - c) if star in gd else out
    if gamma < star:
        lows = [e for e in gd if e < star]
        if not lows:
            return out
        floor_e = min(lows)
        src, k = p * gamma - mu, 1
        while src >= floor_e:
            if src in gd:
                out = out + gd[src] * c ** (k - 1) / lam ** k
            src, k = p * src - mu, k + 1
        return out
    highs = [e for e in gd if e > star]
    if not highs:
        return out
    floor_e = min(highs)
    t, k = gamma, 0
    while t >= floor_e:
        if t in gd:
            out = out - gd[t] * lam ** k / c ** (k + 1)
        t, k = (t + mu) / p, k + 1
    return out


def ladder_g1_terms(p, nu, cap):
    """Closed form of the first parametric right-hand side solution:

        -1 + (lam-1) [ sum_{j>=0,k>=1} lam^(j+k) z^(p^j nu (1-p^k)/(p-1))
                       + sum_{l>=0} (l+1) lam^l z^(-nu p^l/(p-1)) ]

    collected as {exponent: QLam} over exponents below `cap` (nu < 0)."""
    nu, cap = Fraction(nu), Fraction(cap)
    lm1 = lam - 1
    acc = {Fraction(0): QLam(-1)}
    j = 0
    while Fraction(p) ** j * (-nu) < cap:
        base = Fraction(p) ** j * nu / (p - 1)
        k = 1
        while True:
            e = base * (1 - Fraction(p) ** k)
            if e >= cap:
                break
            acc[e] = acc.get(e, QLam(0)) + lm1 * lam ** (j + k)
            k += 1
        j += 1
    l = 0
    while -nu * Fraction(p) ** l / (p - 1) < cap:
        e = -nu * Fraction(p) ** l / (p - 1)
        acc[e] = acc.get(e, QLam(0)) + lm1 * (l + 1) * lam ** l
        l += 1
    return {e: v for e, v in acc.items() if v}


def ladder_g2_terms(p, nu, kmin):
    """Closed form of the second parametric right-hand side solution:

        1 + (lam-1) sum_{k<=-1} lam^k z^(p^k nu/(p-1)),

    with the ladder truncated at k = kmin."""
    nu = Fraction(nu)
    acc = {Fraction(0): QLam(1)}
    for k in range(-1, kmin - 1, -1):
        acc[Fraction(p) ** k * nu / (p - 1)] = (lam - 1) * lam ** k
    return acc


def canon(poly):
    """Polynomial normalized modulo scalars (and X-powers are pre-stripped)."""
    return poly.monic()


def subst_scale(poly, c):
    """poly(c*X)."""
    c = Fraction(c)
    return Poly(tuple(a * c ** i for i, a in enumerate(poly.coeffs)))


def series_dict_on_mask(f, expected, extra=()):
    """True when f agrees with the {exp: coeff} dict at every certified point.

    Checks both directions: stored terms against the dict, and dict entries
    (plus any `extra` probe exponents) against coeff_at.
    """
    zero = 0
    for e, v in f.terms:
        if f.mask.certifies(e) and expected.get(e, zero) != v:
            return False
    for e in list(expected) + list(extra):
        e = Fraction(e)
        if f.mask.certifies(e) and f.coeff_at(e) != expected.get(e, zero):
            return False
    return True
