"""Newton polygon, slopes, characteristic polynomials, admissible exponents
and the induction plan used by the solver."""
from collections import Counter
from fractions import Fraction

from .errors import InsufficientPrecision, PlanMismatch, Record, VerificationError, ZeroSeries
from .fields import Poly, rational_roots
from .hahn import POS, _mask_note


class NewtonData(Record):
    """Full combinatorial analysis of an operator."""

    __slots__ = (
        "p",
        "vertices",          # ((alpha_j, p**alpha_j, val a_{alpha_j}), ...)
        "slopes",            # ((mu_j, r_j), ...) with mu strictly increasing
        "charpolys",         # canonical chi per slope (Poly, nonzero constant term)
        "exponents",         # per slope: ((c, m), ...) sorted by c
        "residuals",         # per slope: rootless residual factor of chi
    )

    @property
    def full(self):
        """True when every slope has all its exponents rational."""
        return all(res.degree <= 0 for res in self.residuals)

    def to_json(self):
        return {
            "vertices": [{"i": a, "x": str(x), "y": str(y)} for a, x, y in self.vertices],
            "slopes": [{"mu": str(mu), "r": r} for mu, r in self.slopes],
            "charpolys": [[str(c) for c in chi.coeffs] for chi in self.charpolys],
            "exponents": [[{"c": str(c), "m": m} for c, m in exps] for exps in self.exponents],
            "residuals": [[str(c) for c in res.coeffs] for res in self.residuals],
        }


class FrobeniusPlan(Record):
    """Per-slope gauge twists nu_j and per-exponent offsets s_{c,j}."""

    __slots__ = (
        "p",
        "val_a0",            # a Fraction
        "nus",               # nu_j per slope
        "entries",           # per slope: ((c, m, s), ...)
    )

    def entry(self, j):
        """((c, m, s), ...) of slope j; PlanMismatch when j is not a slope index."""
        if not 0 <= j < len(self.entries):
            raise PlanMismatch("j = %s is not a slope index (the plan's slope count is %d)"
                               % (j, len(self.entries)))
        return self.entries[j]

    def lookup(self, j, c):
        """(m, s) of the exponent c of slope j; PlanMismatch when either is not one."""
        for cc, m, s in self.entry(j):
            if cc == c:
                return m, s
        raise PlanMismatch("c = %s is not an exponent of slope j = %s" % (c, j))

    def to_json(self):
        return {
            "val_a0": str(self.val_a0),
            "slopes": [{"nu": str(nu),
                        "exponents": [{"c": str(c), "m": m, "s": s} for c, m, s in entry]}
                       for nu, entry in zip(self.nus, self.entries)],
        }


def _coeff_vals(L):
    """Certified valuations of the nonzero coefficients, requiring a_0, a_n != 0.

    Returns (points, floors): points carry certified (index, val); floors carry
    (index, series) for interior coefficients with no certified leading term
    (`val_bound` not exact), stored terms beyond the first mask gap or not.
    An a_0 or a_n with none, not the exact zero (ZeroSeries), raises
    InsufficientPrecision.
    """
    pts, floors = [], []
    for i, ai in enumerate(L.coeffs):
        v, exact = ai.val_bound()
        if exact and v == POS:
            if i in (0, L.order):
                raise ZeroSeries("operator needs certified nonzero a_0 and a_n")
        elif exact:
            pts.append((i, v))
        elif i in (0, L.order):
            raise InsufficientPrecision("a_%d has no certified leading term: its mask %s; "
                                        "raise the precision" % (i, _mask_note(ai)))
        else:
            floors.append((i, ai))
    return pts, floors


def newton_polygon(L):
    """Vertices of the lower boundary of the Newton polygon.

    Returns ((alpha_j, p**alpha_j, val a_{alpha_j}), ...) with alpha_0 = 0.
    An interior coefficient with no certified leading term (no stored terms
    below its first mask gap) is tolerated only when even that gap stays on
    or above the hull, else it raises InsufficientPrecision.
    """
    p = L.p
    certain, floors = _coeff_vals(L)
    pts = [(Fraction(p ** i), v, i) for i, v in certain]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1, _), (x2, y2, _) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) <= (pt[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(pt)
    for i, ai in floors:
        if ai.mask.empty or _below_hull(hull, Fraction(p ** i), ai.mask.first_gap()):
            raise InsufficientPrecision("coefficient %d might dip below the certified polygon: "
                                        "its mask %s; raise the precision" % (i, _mask_note(ai)))
    return tuple((i, x, y) for x, y, i in hull)


def _below_hull(hull, x, y):
    for (x1, y1, _), (x2, y2, _) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return (y - y1) * (x2 - x1) < (x - x1) * (y2 - y1)
    return False


def slopes_of(vertices):
    out = []
    for (a0, x0, y0), (a1, x1, y1) in zip(vertices, vertices[1:]):
        out.append(((y1 - y0) / (x1 - x0), a1 - a0))
    return tuple(out)


def char_poly(L, mu):
    """Canonical characteristic polynomial of L at slope mu, read off L in
    place: with v the least val a_i - mu (p**i - 1), its X**i coefficient
    is a_i's at v + mu (p**i - 1), on the Newton edge (conjugating by
    z**(-mu) would move it to v); an uncertified one, which a higher
    precision certifies, raises InsufficientPrecision naming i, that
    exponent and mu.  The X**v factor is stripped; coefficients keep their
    raw values (no scalar normalization)."""
    p, mu = L.p, Fraction(mu)
    at = [(ai, mu * (p ** i - 1)) for i, ai in enumerate(L.coeffs)]
    v = min(b - t for ai, t in at for b, exact in (ai.val_bound(),) if exact)
    for i, (ai, t) in enumerate(at):
        if not ai.mask.certifies(v + t):
            raise InsufficientPrecision("coefficient of a_%d at exponent %s, on the Newton "
                                        "edge of slope %s, is not certified" % (i, v + t, mu))
    cs = [Fraction(ai.coeff_at(v + t)) for ai, t in at]
    shift = next(k for k, c in enumerate(cs) if c)
    return Poly(cs[shift:])


def analyze(L):
    """Newton polygon, slopes, characteristic polynomials and exponents of L."""
    vertices = newton_polygon(L)
    slopes = slopes_of(vertices)
    charpolys, exponents, residuals = [], [], []
    for mu, r in slopes:
        chi = char_poly(L, mu)
        if chi.degree != r or not chi.coeffs[0]:
            raise VerificationError(
                "characteristic polynomial at slope %s has degree %d; expected "
                "r = %d with a nonzero constant term" % (mu, chi.degree, r))
        roots, residual = rational_roots(chi)
        exponents.append(tuple((c, m) for c, m in roots))
        charpolys.append(chi)
        residuals.append(residual)
    return NewtonData(L.p, vertices, slopes, tuple(charpolys), tuple(exponents),
                      tuple(residuals))


def frobenius_plan(L, nd):
    """Gauge twists nu_j and offsets s_{c,j} driving the solution construction,
    from the NewtonData nd = analyze(L)."""
    p = L.p
    # nu_j = nu_(j-1) + (p-1) p**(r_0 + ... + r_(j-1)) (mu_j - mu_(j-1)), from nu = mu = 0
    nus, nu, prev, weight = [], 0, 0, 1
    for mu, r in nd.slopes:
        nu += (p - 1) * weight * (mu - prev)
        nus.append(nu)
        prev, weight = mu, weight * p ** r
    # s_{c,j}: the multiplicity of c over the slopes below j
    seen, entries = Counter(), []
    for exps in nd.exponents:
        entries.append(tuple((c, m, seen[c]) for c, m in exps))
        seen.update(dict(exps))
    return FrobeniusPlan(p, L.coeffs[0].val(), tuple(nus), tuple(entries))
