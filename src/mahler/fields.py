"""Exact scalar arithmetic: rationals, dense polynomials over Q, rational
functions in the parameter lambda, and the integer Laurent polynomials in
lambda that the triangular solve carries them as."""
import math
from fractions import Fraction

from .errors import DivisionByZero, PoleAtEvaluationPoint


class Poly:
    """Dense univariate polynomial over Q, coefficients by ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((Fraction(c),))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        # tuple == has no length shortcut: it would walk a common prefix
        a, b = self.coeffs, other.coeffs
        return len(a) == len(b) and a == b

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return _poly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.const(-Fraction(other)))

    def __rsub__(self, other):
        return Poly.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            co = Fraction(other)
            return _poly(tuple(c * co for c in self.coeffs))
        if not self or not other:
            return _ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        nz = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nz:
                    out[i + j] += a * b
        return _poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out, base = Poly.const(1), self
        for _ in range(n):
            out = out * base
        return out

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        if not other:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return _ZERO, self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        # the leading term cancels exactly, so only the lower ones update rem
        low = [(j, b) for j, b in enumerate(other.coeffs[:-1]) if b]
        monic = lead == 1
        for k in range(dq, -1, -1):
            c = rem[k + other.degree]
            if not monic:
                c /= lead
            quo[k] = c
            if c:
                for j, b in low:
                    rem[k + j] -= c * b
        return _poly(quo), _poly(rem[: other.degree])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return _poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def monic(self):
        if not self:
            return self
        lead = self.coeffs[-1]
        return _poly(tuple(c / lead for c in self.coeffs))

    def shift(self, k):
        """Multiply by x**k."""
        if not self:
            return self
        return _poly((Fraction(0),) * k + self.coeffs)

    def __str__(self):
        return poly_str(self, "λ")

    __repr__ = __str__


def _poly(cs):
    """Poly from Fractions produced by Poly arithmetic: trailing zeros are
    stripped, no coefficient is coerced (the public constructor does both)."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    out = object.__new__(Poly)
    out.coeffs = tuple(cs[:n])
    return out


def poly_gcd(a, b):
    while b:
        a, b = b, a % b
    return a.monic()


def poly_str(p, var):
    if not p:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if not c:
            continue
        if i == 0:
            term = str(c)
        else:
            xi = var if i == 1 else "%s^%d" % (var, i)
            term = xi if c == 1 else ("-" + xi if c == -1 else "%s*%s" % (c, xi))
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


class RatFun:
    """Rational function num/den over Q, kept reduced with monic denominator.

    A reduced fraction with a monic denominator is unique, so equal values
    have identical num and den.  There is one reduction, the public
    constructor's: it divides out gcd(num, den) (no gcd when den is
    constant) and makes den monic.  Every product of two RatFuns and every
    sum forms the unreduced num/den and passes it through the constructor,
    but r + 0 and 0 + r are r (0 seeds the folds of the tests' reference
    sums and products over Q(lambda)).  The reciprocal
    den/num of a reduced fraction is reduced and only made monic, and so is
    a positive power, so a negative power runs no gcd and a quotient (a
    product by the reciprocal) at most one.  A product by a scalar (an int
    or Fraction) only scales the num, and no gcd runs.  The triangular
    solve carries its coefficients as `LamPoly`s: every RatFun that
    `frobenius_basis` makes, its closed-form check included, comes from the
    exit reducer `lam_ratfun`, with no gcd.

    Taylor coefficients at lambda = c are not a method: `taylor_table`
    takes those of many RatFuns at once, on integers, with one den jet per
    denominator, whose constant term is the pole test.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = _ONE if den is None else (den if isinstance(den, Poly) else Poly.const(den))
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            self.num, self.den = _ZERO, _ONE
            return
        if den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        lead = den.coeffs[-1]
        if lead != 1:
            num, den = num * (1 / lead), den * (1 / lead)
        self.num, self.den = num, den

    @classmethod
    def const(cls, c):
        return _reduced(Poly.const(c), _ONE)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return _reduced(-self.num, self.den)

    def __add__(self, other):
        if type(other) is int and not other:
            return self
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self.num, self.den, -other.num, other.den)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is int or type(other) is Fraction:
            return _reduced(self.num * other, self.den) if other else _reduced(_ZERO, _ONE)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise DivisionByZero("division by zero rational function")
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            if not self.num:
                raise DivisionByZero("inverse of zero")
            return self._reciprocal() ** (-n)
        return _reduced(self.num ** n, self.den ** n)

    def _reciprocal(self):
        """1/self for a nonzero self: den/num is reduced already, so it only
        needs a monic den, and no gcd runs."""
        inv = 1 / self.num.coeffs[-1]
        return _reduced(self.den * inv, self.num * inv)

    def __str__(self):
        ns = poly_str(self.num, "λ")
        if self.den.degree == 0:
            return ns
        if self.num.degree > 0:
            ns = "(%s)" % ns
        return "%s/(%s)" % (ns, poly_str(self.den, "λ"))

    __repr__ = __str__


def _int_lattice(cs, b):
    """(M, L) for the polynomial P = sum cs[i] x**i of degree d: L is the lcm
    of the coefficient denominators, so cs = N/L with integers N_i, and M
    lists M_i = N_i * b**(d - i) from the top down.  Then
    L * b**d * P(x) = Q(b*x) for the integer polynomial Q = sum M_i y**i."""
    L = math.lcm(*(a.denominator for a in cs))
    M, w = [], 1
    for a in reversed(cs):
        M.append(a.numerator * (L // a.denominator) * w)
        w *= b
    return M, L


def _taylor_ints(cs, a, b, n):
    """(S, q) with sum cs[i] x**i = sum_k S_k (b*h)**k / q at x = a/b + h,
    for the integers S_0..S_{n-1} and q.

    An integer Taylor shift: with L * b**d * P(x) = Q(b*x) (`_int_lattice`),
    P(a/b + h) = Q(a + b*h) / (L * b**d).  Round k of integer synthetic
    division of Q by y - a leaves the remainder S_k, the y**k coefficient
    of Q(a + y), and q = L * b**d."""
    top, L = _int_lattice(cs, b)
    out = []
    for k in range(min(n, len(top))):
        acc = top[0]
        for i in range(1, len(top) - k):
            acc = top[i] = acc * a + top[i]
        out.append(acc)
    return out + [0] * (n - len(out)), L * b ** max(len(cs) - 1, 0)


def _den_jet(cs, a, b, n):
    """None when the polynomial D = sum cs[i] x**i vanishes at c = a/b, else
    (W, Z, B), the first n >= 1 terms of 1/D(c + h) on integers:
    1/D(c + h) = sum_k W_k B_k h**k / Z_(k+1), with Z_i = S_0**i.

    With D(c + h) = S(b*h) / q (`_taylor_ints`), the series 1/S(y) has the
    coefficients W_k / S_0**(k+1) for the integers W_0 = 1 and
    W_k = -sum_{i=1..k} S_i S_0**(i-1) W_(k-i); B_k = q * b**k."""
    S, q = _taylor_ints(cs, a, b, n)
    s0 = S[0]
    if not s0:
        return None
    W, Z, B = [1], [1, s0], [q]
    for k in range(1, n):
        W.append(-sum(S[i] * Z[i - 1] * W[k - i] for i in range(1, k + 1)))
        Z.append(Z[k] * s0)
        B.append(B[-1] * b)
    return W, Z, B


def taylor_table(rs, c, rows):
    """For each reduced rational function r in rs, the list
    [[w * R_k for k in range(n)] for w, n in rows] of Fractions, with R_k the
    h**k coefficient of r(c + h) and each w an integer.  Raises
    PoleAtEvaluationPoint when some den vanishes at c, also for empty rows,
    with the index in rs of the first such r: a den jet's constant term is
    the pole test, and the groups are met in the order of rs.

    The terms are grouped by the identity of their den's coefficient tuple,
    a key that hashes no coefficient (each group holds its tuple, so no id
    is reused within the call); equal dens in distinct tuples only make
    separate groups.  Each group takes one den jet and inverse series
    (`_den_jet`).  Each numerator is Taylor-shifted on integers
    (`_taylor_ints`), num(c + h) = sum T_i (b*h)**i / q_N, so that
    R_k = sum_{i<=k} T_i Z_i W_(k-i) * B_k / (q_N Z_(k+1)), and each output
    coefficient is one Fraction with its weight w folded in.
    """
    c = Fraction(c)
    a, b = c.numerator, c.denominator
    n = max([1] + [k for _, k in rows])
    groups, out = {}, []
    for pos, r in enumerate(rs):
        dcs = r.den.coeffs
        group = groups.get(id(dcs))
        if group is None:
            group = groups[id(dcs)] = (dcs, _den_jet(dcs, a, b, n))
        jet = group[1]
        if jet is None:
            raise PoleAtEvaluationPoint("pole at lambda = %s" % c, pos)
        W, Z, B = jet
        T, qn = _taylor_ints(r.num.coeffs, a, b, n)
        TZ = [t * z for t, z in zip(T, Z)]
        nums = [sum(TZ[i] * W[k - i] for i in range(k + 1)) * B[k] for k in range(n)]
        dens = [qn * Z[k + 1] for k in range(n)]
        out.append([[Fraction(w * nums[k], dens[k]) for k in range(m)] for w, m in rows])
    return out


class LamPoly:
    """Integer Laurent polynomial lambda**o * sum cs[i] lambda**i, with
    cs[0] and cs[-1] nonzero; zero has no cs.

    It is how the triangular solve (`frobenius.solve_slope`) carries a
    Q(lambda) coefficient: over an integer den and a product of known
    linear factors b*lambda - a, both shared by every coefficient of its
    running solution, so that no gcd runs until the exit (`lam_ratfun`).
    0 + X is X (0 seeds the folds), + adds and * by a nonzero int scales."""

    __slots__ = ("o", "cs")

    def __init__(self, o, cs):
        self.o, self.cs = o, cs

    def __bool__(self):
        return bool(self.cs)

    def __add__(self, other):
        if type(other) is int:
            return self
        if self.o > other.o:
            self, other = other, self
        cs, off = list(self.cs), other.o - self.o
        cs += [0] * (off + len(other.cs) - len(cs))
        for i, v in enumerate(other.cs, off):
            cs[i] += v
        return _lam_poly(self.o, cs)

    __radd__ = __add__

    def __mul__(self, k):
        return self if k == 1 else LamPoly(self.o, tuple([k * v for v in self.cs]))

    __rmul__ = __mul__

    def times_linear(self, a, b):
        """self * (b*lambda - a) for a nonzero a."""
        return LamPoly(self.o, _times_linear(self.cs, a, b))

    def over_linear(self, a, b):
        """self / (b*lambda - a) when b*lambda - a divides it, else None."""
        quo = _linear_quotient(self.cs, a, b)
        return None if quo is None else LamPoly(self.o, tuple(quo))


def _lam_poly(o, cs):
    """LamPoly lambda**o * sum cs[i] lambda**i, zeros at both ends stripped."""
    i, n = 0, len(cs)
    while n and not cs[n - 1]:
        n -= 1
    while i < n and not cs[i]:
        i += 1
    return LamPoly(o + i, tuple(cs[i:n]))


def _times_linear(cs, a, b):
    """Coefficients of (b*x - a) * sum cs[i] x**i, on integers."""
    return (-a * cs[0], *(b * u - a * v for u, v in zip(cs, cs[1:])), b * cs[-1])


def _linear_quotient(cs, a, b):
    """The integer coefficients of P / (b*x - a), for P = sum cs[i] x**i
    with integer cs and coprime a, b > 0, when b*x - a divides P, else
    None.  By Gauss's lemma the quotient of an integer P by the primitive
    b*x - a is an integer polynomial, so each step of synthetic division
    from the top, Q_(i-1) = (P_i + a Q_i) / b, is exact on integers or
    shows that b*x - a does not divide P; the last step checks
    P_0 + a Q_0 = 0."""
    quo, q = [0] * (len(cs) - 1), 0
    for i in range(len(cs) - 1, 0, -1):
        q = cs[i] + a * q
        if b != 1:
            q, rest = divmod(q, b)
            if rest:
                return None
        quo[i - 1] = q
    return None if cs and cs[0] + a * q else quo


def lam_ratfun(X, q, powers, dens):
    """The reduced RatFun X / q * prod (lambda - r)**k over (r, k) in powers,
    for a nonzero LamPoly X, a positive integer q and distinct nonzero
    rational roots r, sorted, with nonzero k of either sign.

    Each r = a/b is a root of the integer b*lambda - a: a factor with k < 0
    is divided out of the numerator by exact integer division
    (`_linear_quotient`, scale times b) as often as it goes, up to -k times,
    and what is left goes to the den; one with k > 0 multiplies the
    numerator (scale over b).  lambda**o goes to the numerator (o > 0) or
    the den.  The den then is a product of powers of lambda and of distinct
    lambda - r that divide no numerator, so num/den is reduced, with no gcd.
    dens maps each den's root powers to its one monic Poly, built on
    integers as prod (b*lambda - a)**k over its leading coefficient, so
    equal dens share one coefficient tuple; each coefficient of num and den
    is one Fraction."""
    cs, sn, sd, left = X.cs, 1, q, []
    for r, k in powers:
        a, b = r.numerator, r.denominator
        while k < 0:
            quo = _linear_quotient(cs, a, b)
            if quo is None:
                break
            cs, sn, k = quo, sn * b, k + 1
        if k < 0:
            left.append((r, -k))
        for _ in range(k):
            cs, sd = _times_linear(cs, a, b), sd * b
    o = X.o
    key = (tuple(left), max(-o, 0))
    den = dens.get(key)
    if den is None:
        d = (1,)
        for r, k in left:
            for _ in range(k):
                d = _times_linear(d, r.numerator, r.denominator)
        den = dens[key] = _poly((Fraction(0),) * key[1] + tuple(Fraction(v, d[-1]) for v in d))
    g = math.gcd(sn, sd)
    sn, sd = sn // g, sd // g
    num = [Fraction(v * sn, sd) for v in cs]
    return _reduced(_poly([Fraction(0)] * o + num if o > 0 else num), den)


_ZERO = Poly()
_ONE = Poly.const(1)


def _reduced(num, den):
    """RatFun from a num/den pair the caller guarantees reduced, den monic."""
    out = object.__new__(RatFun)
    out.num, out.den = num, den
    return out


def _divide_out_root(cs, c, k):
    """(cs / (x - c)**j, j) for the largest j <= k with (x - c)**j dividing
    the polynomial P = sum cs[i] x**i (ascending coefficients).  With
    P = N/L on integers (`_int_lattice`) and c = a/b, each division is an
    exact one by b*x - a (`_linear_quotient`), and the integer quotient Q of
    j of them gives P / (x - c)**j = b**j Q / L."""
    a, b = c.numerator, c.denominator
    N, L = _int_lattice(cs, 1)
    N.reverse()
    j = 0
    while j < k and (quo := _linear_quotient(N, a, b)) is not None:
        N, j = quo, j + 1
    return ([Fraction(b ** j * m, L) for m in N], j) if j else (cs, 0)


def _add(n1, d1, n2, d2):
    """n1/d1 + n2/d2 over the common denominator, reduced by the
    constructor (one gcd when that denominator is not constant)."""
    if d1 == d2:
        return RatFun(n1 + n2, d1)
    return RatFun(n1 * d2 + n2 * d1, d1 * d2)


def _coerce(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, Poly):
        return RatFun(x)
    if isinstance(x, (int, Fraction)):
        return RatFun.const(x)
    return NotImplemented


def _primitive(p):
    """Coefficients of the positive rational multiple of p that is a primitive
    integer polynomial (ascending degree)."""
    ints = _int_lattice(p.coeffs, 1)[0][::-1]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _int_eval(cs, x):
    v = 0
    for c in reversed(cs):
        v = v * x + c
    return v


def _sign_changes(chain, x):
    """Sign changes of the Sturm chain at the integer x, zeros skipped."""
    n, last = 0, 0
    for cs in chain:
        v = _int_eval(cs, x)
        if v:
            if last and (v > 0) != (last > 0):
                n += 1
            last = v
    return n


def rational_roots(p):
    """All rational roots of p with multiplicities, plus the rootless residual.

    Returns ([(root, mult), ...] sorted by root, residual Poly).  The
    square-free part, made a primitive integer polynomial with leading
    coefficient a, becomes monic under y = a*x; its integer roots a*r are
    isolated by bisecting integer intervals inside the Cauchy bound with a
    Sturm chain, so no integer is ever factored.  Each root's multiplicity
    is the number of exact integer divisions by b*x - a, r = a/b, that go
    (`_divide_out_root`), which also yields the residual.
    """
    if not p:
        raise DivisionByZero("rational_roots of the zero polynomial")
    found = []
    if p.degree > 0:
        f = _primitive(p // poly_gcd(p, p.derivative()))
        if f[-1] < 0:
            f = [-c for c in f]
        a, n = f[-1], len(f) - 1
        g = [c * a ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]
        chain = [g]
        prev = Poly(g)
        cur = prev.derivative()
        while cur:
            chain.append(_primitive(cur))
            prev, cur = cur, -(prev % cur)
        bound = a + max(abs(c) for c in f[:-1])
        stack = [(-bound, bound, _sign_changes(chain, -bound), _sign_changes(chain, bound))]
        while stack:
            lo, hi, vlo, vhi = stack.pop()
            if vlo == vhi:
                continue
            if hi - lo == 1:
                if not _int_eval(g, hi):
                    found.append(Fraction(hi, a))
                continue
            mid = (lo + hi) // 2
            vmid = _sign_changes(chain, mid)
            stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    roots, cs = [], p.coeffs
    for r in sorted(found):
        cs, m = _divide_out_root(cs, r, len(cs) - 1)
        roots.append((r, m))
    return roots, _poly(cs)
