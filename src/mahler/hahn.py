"""Truncated Hahn series over Q.

A series is stored as finitely many (exponent, coefficient) terms together
with a guarantee mask: a finite list of disjoint half-open intervals
[lo, hi) of rational exponents.  Inside the mask the stored coefficients are
exact; outside it nothing is claimed.  A nonempty mask additionally
guarantees that the true series has no support below the mask's smallest
lower endpoint, so the region certified by a series is really
(-inf, hi_0) united with the later intervals.  All mask propagation below is
conservative: results may certify less than mathematically possible, never
more.

Sums, products and inversion run over Q only (a MahlerError otherwise); a
series over Q(lambda), as the g_{c,j} of the triangular solve, is only
stored, shifted, scaled, mapped, negated and written out.

Instances are immutable by convention and safe to share.  Two private
slots, which equality, hashing and JSON ignore, keep a series' own lattice
(`_grid`) and, over Q, its lattice form (`_numerators`), each found once.
"""
import heapq
import math
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter

from .errors import (InsufficientPrecision, MahlerError, UnknownLeadingTerm, ZeroDivisor,
                     ZeroSeries)
from .fields import LamPoly, _lam_poly

NEG = float("-inf")
POS = float("inf")
_exp = itemgetter(0)  # the exponent of an (exp, coeff) term


# ---------------------------------------------------------------------------
# interval-list algebra; intervals are (lo, hi) half-open pairs, lo < hi,
# endpoints rational except for the +-inf sentinels.  A normalized region is
# sorted with a gap between intervals; _iv_inter and _iv_diff keep it so.


def _iv_norm(ivs):
    ivs = sorted((lo, hi) for lo, hi in ivs if lo < hi)
    out = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _iv_inter(a, b):
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _iv_diff(a, b):
    out = []
    for lo, hi in a:
        cur = lo
        for blo, bhi in b:
            if bhi <= cur or blo >= hi:
                continue
            if blo > cur:
                out.append((cur, blo))
            cur = max(cur, bhi)
            if cur >= hi:
                break
        if cur < hi:
            out.append((cur, hi))
    return out


class Mask:
    """Certification mask: disjoint sorted half-open intervals of exponents."""

    __slots__ = ("ivs",)

    def __init__(self, ivs=()):
        norm = []
        for lo, hi in _iv_norm(ivs):
            if lo == NEG:
                raise ValueError("stored mask intervals need a rational lower endpoint")
            norm.append((_rat(lo), hi if hi == POS else _rat(hi)))
        self.ivs = tuple(norm)

    @classmethod
    def _of(cls, ivs):
        """Mask from intervals already disjoint, sorted, merged and rational."""
        out = object.__new__(cls)
        out.ivs = tuple(ivs)
        return out

    @property
    def empty(self):
        return not self.ivs

    @property
    def extended(self):
        """Certified region including the implicit no-support-below guarantee."""
        if not self.ivs:
            return []
        return [(NEG, self.ivs[0][1])] + list(self.ivs[1:])

    def certifies(self, x):
        """Whether x is certified: the next gap at or above x is not x itself."""
        return self.next_gap(x) != x

    def first_gap(self):
        """First exponent above which (and at which) nothing is certified."""
        return self.ivs[0][1]

    def next_gap(self, x):
        """Smallest exponent t >= x that is not certified (x itself when x
        is uncertified, +inf when everything from x up is)."""
        return _next_gap(self.extended, x)

    def __eq__(self, other):
        return isinstance(other, Mask) and self.ivs == other.ivs

    def __hash__(self):
        return hash(self.ivs)

    def __repr__(self):
        if not self.ivs:
            return "Mask(empty)"
        return "Mask(%s)" % " ".join(
            "[%s,%s)" % (lo, "inf" if hi == POS else hi) for lo, hi in self.ivs)

    def to_json(self):
        return [{"lo": str(lo), "hi": "inf" if hi == POS else str(hi)} for lo, hi in self.ivs]


_FULL = [(NEG, POS)]
_EMPTY = Mask(())


def _next_gap(ext, x):
    """Smallest t >= x outside the normalized extended region ext."""
    t = x
    for lo, hi in ext:
        if hi <= t:
            continue
        if lo > t:
            break
        t = hi
    return t


def _kept(tl, ext):
    """The terms of tl (sorted by distinct exponents) whose exponents lie in
    the normalized region ext: one sweep over the intervals in order, each
    bisecting the exponents left after the previous one."""
    kept, i, n = [], 0, len(tl)
    for lo, hi in ext:
        if i == n:
            break
        if lo != NEG:
            i = bisect_left(tl, lo, i, key=_exp)
        j = n if hi == POS else bisect_left(tl, hi, i, key=_exp)
        kept += tl[i:j]
        i = j
    return kept


def _mask_note(f):
    """How f's mask leaves its leading term uncertified, f not the exact zero."""
    return "is empty" if f.mask.empty else "has its first gap at %s" % f.mask.first_gap()


def _rat(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class HahnSeries:
    """Certified truncation of a Hahn series; its ring operations run over Q."""

    __slots__ = ("terms", "mask", "_M", "_lat")

    def __init__(self, terms, mask):
        self.terms = terms
        self.mask = mask
        self._M = self._lat = None  # own lattice; (M0, numerators on (1/M0)Z)

    # -- queries ------------------------------------------------------------

    def is_zero(self):
        """No certified nonzero coefficient (the truncation looks like 0)."""
        return not self.terms

    def is_exact_zero(self):
        return not self.terms and self.mask.extended == _FULL

    def val(self):
        """Valuation; requires a certified leading term."""
        if not self.terms:
            raise ZeroSeries("valuation of a series with no certified terms")
        e = self.terms[0][0]
        if self.mask.empty or e >= self.mask.first_gap():
            raise UnknownLeadingTerm("leading term at %s is not certified" % e)
        return e

    def cld(self):
        self.val()
        return self.terms[0][1]

    def val_bound(self):
        """(bound, exact): the smallest exponent where the true series might
        be nonzero, and whether it is the certified valuation."""
        if self.mask.empty:
            return NEG, False
        gap = self.mask.first_gap()
        if self.terms:
            e = self.terms[0][0]
            return (e, True) if e < gap else (gap, False)
        return (POS, True) if gap == POS else (gap, False)

    def coeff_at(self, e):
        """Certified coefficient at exponent e (0 when certified absent)."""
        if not self.mask.certifies(e):
            raise UnknownLeadingTerm("coefficient at %s is not certified" % e)
        for ee, c in self.terms:
            if ee == e:
                return c
            if ee > e:
                break
        return 0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        return hs_sum((self, other))

    def __neg__(self):
        return HahnSeries(tuple((e, -c) for e, c in self.terms), self.mask)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return hs_mul(self, other)

    def scale(self, a):
        """Multiply every coefficient by the scalar a."""
        if not a:
            return zero()
        return HahnSeries(tuple((e, c * a) for e, c in self.terms), self.mask)

    def map_coeffs(self, fn):
        """Apply fn to every coefficient, dropping zero images; mask unchanged."""
        return HahnSeries(tuple((e, v) for e, c in self.terms for v in (fn(c),) if v),
                          self.mask)

    def shift(self, d):
        """Multiply by the monomial z**d."""
        if not d:
            return self
        d = Fraction(d)
        return HahnSeries(tuple((e + d, c) for e, c in self.terms),
                          Mask._of([(lo + d, POS if hi == POS else hi + d)
                                    for lo, hi in self.mask.ivs]))

    def mal(self, k, p):
        """Apply the Mahler automorphism phi_p**k: z -> z**(p**k)."""
        if not k:
            return self
        s = Fraction(p) ** k
        return HahnSeries(tuple((e * s, c) for e, c in self.terms),
                          Mask._of([(lo * s, POS if hi == POS else hi * s)
                                    for lo, hi in self.mask.ivs]))

    def invert(self, ceiling):
        """Multiplicative inverse, certified on (-inf, min(ceiling, first gap) - 2v).

        With v the valuation and c the leading coefficient, the inverse is
        z**-v w for the forward solution w of c w_0 = 1 and
        c w_g + sum_(e > 0) f_(v+e) w_(g-e) = 0.  Nothing above the window is
        certified: islands of this series' mask beyond its first gap carry no
        certificate into the inverse.  Inversion is over Q only (over
        Q(lambda) a MahlerError, exact monomials included).  The exact zero
        raises ZeroDivisor, an uncertified leading term InsufficientPrecision.
        An exact monomial inverts exactly; any other series' numerators on
        its own lattice (`_numerators`), refined to hold the window's top,
        give forward_solve's integer taps and lead, the leading numerator;
        the inverse is built once, in its final frame (`_series`).
        """
        v, exact = self.val_bound()
        if not exact:
            raise InsufficientPrecision("cannot invert a series with no certified leading "
                                        "term: its mask %s; raise the precision"
                                        % _mask_note(self))
        if v == POS:
            raise ZeroDivisor("cannot invert a series with no certified nonzero term")
        _over_q(self.terms)
        if len(self.terms) == 1 and self.mask.extended == _FULL:
            return monomial(-v, 1 / self.terms[0][1])
        cap = min(Fraction(ceiling), self.mask.first_gap()) - v
        M = math.lcm(_grid([self]), cap.denominator)
        _, ((V, lead), *rest), den = _numerators(self, M)
        cut = cap.numerator * (M // cap.denominator)
        w = forward_solve(Fraction(den, lead), lead, [(E - V, 1, N) for E, N in rest], cut)
        return _series(M, ([(NEG, cut)], *w), -V)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, HahnSeries) and self.terms == other.terms
                and self.mask == other.mask)

    def __hash__(self):
        return hash((self.terms, self.mask))

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            body = " + ".join("(%s)*z^(%s)" % (c, e) for e, c in self.terms)
        return "%s  %r" % (body, self.mask)

    def to_json(self):
        return {"terms": [{"exp": str(e), "coeff": str(c)} for e, c in self.terms],
                "mask": self.mask.to_json()}


def hs(terms=(), mask=None):
    """Build a series from a dict or pair list (int coefficients become
    Fractions, coefficients at equal exponents are added); mask None means
    exactly known, built by `_series` on the exponents' own lattice."""
    acc = {}
    for e, c in terms.items() if isinstance(terms, dict) else terms:
        e, c = Fraction(e), Fraction(c) if isinstance(c, int) else c
        acc[e] = acc[e] + c if e in acc else c
    items = sorted(((e, c) for e, c in acc.items() if c), key=_exp)
    if mask is None:
        M = math.lcm(*(e.denominator for e, _ in items))
        return _series(M, (_FULL, [(e.numerator * (M // e.denominator), c) for e, c in items], 1))
    if not isinstance(mask, Mask):
        mask = Mask(mask)
    for e, _ in items:
        if not mask.certifies(e):
            raise ValueError("term at %s lies outside the mask" % e)
    return HahnSeries(tuple(items), mask)


def zero():
    return hs()


def one():
    return monomial(0)


def monomial(e, c=Fraction(1)):
    return hs(((e, c),))


def hs_sum(series):
    """Sum of a sequence of series over Q, equal to the left fold of +
    (masks included) but built once: the series' numerators on one lattice
    (`_numerators`) make one `_fold`.  An empty sequence sums to the exact
    zero, and a single series is returned as it is."""
    series = tuple(series)
    if len(series) < 2:
        return series[0] if series else zero()
    M = _grid(series)
    return _series(M, _fold([(1, _numerators(f, M)) for f in series]))


def forward_solve(one, lead, taps, cut):
    """The terms of the series w below cut as (terms, den), terms the pairs
    (g, N) with w_g = N/den, by increasing g, where w_0 = one and

        lead * w_g + sum over taps (e, k, a) of a * w_((g - e)/k) = 0

    at every g > 0, on integers: the exponents e, the cut, lead and every
    tap coefficient a are integers, one is an int or a Fraction.  Callers
    put their exponents on one lattice (1/M)Z and clear the denominators of
    lead and the a, which the recursion, homogeneous in them, ignores.
    Every tap must move forward (e >= 0, k >= 1, not both e = 0 and k = 1),
    so w is supported on the closure of {0} under g -> k*g + e and each w_g
    depends only on smaller exponents.  Exponents are settled in increasing
    order from a heap; a settled nonzero w_g scatters its contributions to
    the exponents it reaches below the cut.

    The values run fraction-free, as in Bareiss's elimination: lead and
    the a are negated if need be so that ell = |lead| > 0.  A settled w_g
    is stored unreduced as an integer W over od * ell**d: od is the
    denominator of one and d the depth of g, one more than the largest
    depth summed into g; when ell = 1 every depth stays 0 and no power of
    ell is formed.  A pending sum is a pair (S, d), and a contribution of
    another depth meets it after one side is multiplied by a power of ell.
    The values come out as integer numerators over one den, the lcm of
    their reduced denominators: over D = od * ell**dmax, dmax the largest
    depth, w_g has the numerator N_g = W * ell**(dmax - d), and den is
    D / gcd(D, every N_g), found by the one gcd.  No terms come out as
    ([], 1).
    """
    rows = {}
    for e, k, a in taps:
        if e < 0 or k < 1 or (not e and k == 1):
            raise MahlerError("tap (%s, %s) does not move the recursion forward" % (e, k))
        rows.setdefault(k, []).append((e, a))
    if cut <= 0:
        return [], 1
    sign = -1 if lead < 0 else 1
    ell = sign * lead
    rows = [(k, sorted(((e, sign * a) for e, a in row), key=itemgetter(0)))
            for k, row in rows.items()]
    step = int(ell != 1)
    powers = [1]

    def power(n):
        while len(powers) <= n:
            powers.append(powers[-1] * ell)
        return powers[n]

    w, pending, heap = [], {}, []
    g, W, d = 0, one.numerator, 0
    while True:
        if W:
            w.append((g, W, d))
            for k, row in rows:
                base = k * g
                for e, A in row:
                    t = base + e
                    if t >= cut:
                        break
                    s = pending.get(t)
                    if s is None:
                        if t != g:  # t == g only for e = 0 taps at the base g = 0
                            pending[t] = (A * W, d)
                            heapq.heappush(heap, t)
                        continue
                    S, ds = s
                    if ds == d:
                        pending[t] = (S + A * W, d)
                    elif ds > d:
                        pending[t] = (S + A * W * power(ds - d), ds)
                    else:
                        pending[t] = (S * power(d - ds) + A * W, d)
        if not heap:
            break
        g = heapq.heappop(heap)
        S, d = pending.pop(g)
        W, d = -S, d + step
    dmax = max((d for _, _, d in w), default=0)
    D = one.denominator * power(dmax)
    nums = [(g, W * power(dmax - d)) for g, W, d in w]
    q = math.gcd(D, *(N for _, N in nums))
    return [(g, N // q) for g, N in nums], D // q


def hs_mul(f, g):
    """Product over Q: the one-product case of `hs_mul_sums`.  A
    coefficient of f*g is certified unless it can receive a contribution
    involving an uncertified coefficient (`_mul_region`).  Pairs at or
    above the top of the certified region are never formed."""
    return hs_mul_sums(1, [(0, f)], [g], {0: [(1, 0, 0)]})[0]


def hs_mul_sums(p, fs, gs, sums):
    """{key: sum of w * f_n * phi_p**k_n(g_m) over the (w, n, m) in sums[key]},
    with (k_n, f_n) = fs[n], g_m = gs[m], every series over Q and w
    rational; equal, masks included, to hs_sum of
    hs_mul(f_n, g_m.mal(k_n, p)).scale(w).

    Everything runs on one lattice (1/M)Z, M clearing the denominators of
    every exponent and finite mask endpoint, so phi_p**k multiplies integers
    by p**k.  Each product is formed once: its region, from each factor's
    uncertified complement (taken once per series), and its convolution
    of numerators (`_grid_product`).  Per key, the regions are intersected
    and the weighted sums folded over one common denominator (`_fold`).  A
    key with a single product takes the shortcuts of `_mul_shortcut` first."""
    M = _grid([f for _, f in fs] + gs)
    f_grid = [_numerators(f, M) for _, f in fs]
    g_grid = [_numerators(g, M) for g in gs]
    f_unc = [_iv_diff(_FULL, f[0]) for f in f_grid]
    g_unc = [_iv_diff(_FULL, g[0]) for g in g_grid]
    products, out = {}, {}
    for key, ws in sums.items():
        if len(ws) == 1 and ws[0][0]:
            w, n, m = ws[0]
            (k, f), g = fs[n], gs[m]
            short = _mul_shortcut(f, g.mal(k, p))
            if short is not None:
                out[key] = short if w == 1 else short.scale(w)
                continue
        pieces = []
        for w, n, m in ws:
            if not w:
                continue  # a zero multiple is the exact zero
            prod = products.get((n, m))
            if prod is None:
                prod = products[n, m] = _grid_product(f_grid[n], g_grid[m], p ** fs[n][0],
                                                       f_unc[n], g_unc[m])
            pieces.append((w, prod))
        out[key] = _series(M, _fold(pieces))
    return out


def _mul_shortcut(f, g):
    """f*g when a factor has an empty mask (certifies nothing), is an exact
    zero, or is an exact monomial (shifts and scales the other, whose stored
    mask is kept); None otherwise."""
    fe, ge = f.mask.extended, g.mask.extended
    if not fe or not ge:
        return HahnSeries((), _EMPTY)
    if (not f.terms and fe == _FULL) or (not g.terms and ge == _FULL):
        return zero()
    if len(f.terms) == 1 and fe == _FULL:
        return g.shift(f.terms[0][0]).scale(f.terms[0][1])
    if len(g.terms) == 1 and ge == _FULL:
        return f.shift(g.terms[0][0]).scale(g.terms[0][1])
    return None


def _grid(series):
    """Smallest M with every exponent and finite mask endpoint of the given
    series in (1/M)Z: the lcm of each series' own lattice, found once per
    series (finite endpoints are Fractions, infinite ones floats)."""
    for f in series:
        if f._M is None:
            f._M = math.lcm(*{e.denominator for e, _ in f.terms},
                            *{x.denominator for iv in f.mask.ivs for x in iv
                              if type(x) is Fraction})
    return math.lcm(*(f._M for f in series))


def _mul_region(unc_f, fi, unc_g, gi):
    """Extended certified region of a product, from the uncertified
    complements of its factors' extended regions and their terms (sorted by
    exponent), exponents and endpoints all on one lattice: every exponent
    but those that can receive a contribution involving an uncertified
    coefficient.  Those are the finite gaps of one factor shifted by each
    exponent of the other, its final ray (lo, +inf) shifted by the other's
    least exponent, and, when both factors have one, the ray from the sum
    of their first uncertified exponents.  A factor with an empty mask
    (everything uncertified) certifies nothing."""
    if unc_f == _FULL or unc_g == _FULL:
        return []
    poll = []
    for unc, terms in ((unc_f, gi), (unc_g, fi)):
        if unc and terms:
            poll += [(lo + E, hi + E) for lo, hi in unc if hi != POS for E, _ in terms]
            if unc[-1][1] == POS:
                poll.append((unc[-1][0] + terms[0][0], POS))
    if unc_f and unc_g:
        poll.append((unc_f[0][0] + unc_g[0][0], POS))
    return _iv_diff(_FULL, _iv_norm(poll))


def _grid_product(f, g, s, unc_f, unc_g):
    """(region, sums, den) of f times g with g's exponents multiplied by s,
    for f and g given by _numerators on one lattice, and unc_f and unc_g the
    complements `_iv_diff(_FULL, region)` of their regions, which callers
    take once per series however many products it enters.  sums holds the
    pairs (E, S) with S*den the sum of N1 * N2 over the pairs of terms
    (E1, N1) of f and (E2, N2) of g with E = E1 + E2 below the top of the
    region, and den the product of the dens: S is an integer
    (`_convolve`), or a LamPoly when g's numerators are (`_lam_product`)."""
    _, fi, fden = f
    _, gi, gden = g
    if s != 1:
        unc_g = [(lo * s, hi * s) for lo, hi in unc_g]
        gi = [(E * s, N) for E, N in gi]
    ext = _mul_region(unc_f, fi, unc_g, gi)
    top = ext[-1][1] if ext else NEG
    if gi and type(gi[0][1]) is LamPoly:
        return ext, _lam_product(fi, gi, top), fden * gden
    return ext, _convolve(fi, gi, top).items(), fden * gden


def _convolve(fi, gi, top):
    """{E: sum of N1*N2} over the pairs of integer terms (E1, N1) of fi and
    (E2, N2) of gi, both sorted by exponent, with E = E1 + E2 < top."""
    g_exps = [E for E, _ in gi]
    acc = {}
    for E1, N1 in fi:
        n = len(gi) if top == POS else bisect_left(g_exps, top - E1)
        if not n:
            break
        for E2, N2 in gi[:n]:
            E = E1 + E2
            acc[E] = acc.get(E, 0) + N1 * N2
    return acc


def _lam_product(ints, lams, top):
    """The sums of `_grid_product` of integers by LamPolys: (E, X) with X
    the sum of N * Y over the pairs of terms (E1, N) and (E2, Y) with
    E = E1 + E2 < top, as integer lambda**k slices, one `_convolve` each,
    and no object per pair.  A sum that cancels is the zero LamPoly."""
    if len(ints) == 1:
        [(E1, N)] = ints
        return [(E1 + E2, Y * N) for E2, Y in lams if E1 + E2 < top]
    lo = min(Y.o for _, Y in lams)
    slices = [[] for _ in range(max(Y.o - lo + len(Y.cs) for _, Y in lams))]
    for E, Y in lams:
        for k, a in enumerate(Y.cs, Y.o - lo):
            if a:
                slices[k].append((E, a))
    rows = {}
    for k, sl in enumerate(slices):
        for E, S in _convolve(ints, sl, top).items():
            row = rows.get(E)
            if row is None:
                row = rows[E] = [0] * len(slices)
            row[k] = S
    return [(E, _lam_poly(lo, row)) for E, row in rows.items()]


def _fold(pieces):
    """(region, terms, den) of the sum of w * part over the (w, part) in
    pieces, each part a (region, sums, den) on one lattice as `_numerators`,
    `_grid_product`, the order-1 solver, the peel or `_fold` itself give
    it: the regions intersected, and the sums scaled to one common
    denominator den and folded per exponent from the integer 0 by the
    numerators' own +.  terms holds the nonzero sums inside the region,
    sorted by exponent.  No pieces make the exact zero."""
    ext = _FULL
    for _, (region, _, _) in pieces:
        ext = _iv_inter(ext, region)
    if not ext:
        return ext, [], 1
    den = math.lcm(*(w.denominator * d for w, (_, _, d) in pieces))
    acc = {}
    for w, (_, sums, d) in pieces:
        k = w.numerator * (den // (w.denominator * d))
        for E, s in sums:
            acc[E] = acc.get(E, 0) + (s if k == 1 else k * s)
    return ext, [(E, S) for E, S in _kept(sorted(acc.items()), ext) if S], den


def _series(M, part, d=0):
    """z**(d/M) times the series of a (region, terms, den) on (1/M)Z, for an
    integer d: the one builder of a series.  The region is normalized and
    only read; the terms are sorted by distinct exponents, nonzero and
    inside it.  A sum S becomes Fraction(S, den) for an integer S; any
    other S (a Fraction, RatFun or LamPoly) comes with den 1 and is kept.
    The mask's no-support-below guarantee needs a certified ray (-inf, hi)
    as the region's head, so a finite head drops everything.  The head
    becomes the stored [lo, hi), read off the unshifted frame: lo is the
    least exponent if below hi, else 0 if hi > 0, else hi - 1.  A series
    over Q keeps the shifted triple as its lattice form, and its own
    lattice, M // gcd of M and every exponent and endpoint (`_numerators`,
    `_grid`)."""
    ext, terms, den = part
    if not ext or ext[0][0] != NEG:
        return HahnSeries((), _EMPTY)
    hi0 = ext[0][1]
    lo0 = terms[0][0] if terms and terms[0][0] < hi0 else 0 if hi0 > 0 else hi0 - M
    ext, terms, _ = _shifted((ext, terms, den), d)
    lo0 += d
    f = HahnSeries(tuple((Fraction(E, M), Fraction(S, den) if type(S) is int else S)
                         for E, S in terms),
                   Mask._of([(Fraction(lo, M), hi if hi == POS else Fraction(hi, M))
                             for lo, hi in ((lo0, ext[0][1]), *ext[1:])]))
    if not terms or type(terms[0][1]) is int:
        f._lat = M, (tuple(ext), tuple(terms), den)
        f._M = M // math.gcd(M, lo0, *(E for E, _ in terms),
                             *(x for iv in ext for x in iv if type(x) is int))
    return f


def _shifted(part, d):
    """The (region, terms, den) of z**(d/M) times the series of part, both
    on (1/M)Z: part itself when d is 0."""
    if not d:
        return part
    region, terms, den = part
    return [(lo + d, hi + d) for lo, hi in region], [(E + d, N) for E, N in terms], den


def _on_lattice(f, M):
    """(region, terms) of f on the lattice (1/M)Z: the extended certified
    region and the terms with every exponent and finite (Fraction) endpoint
    x replaced by the integer M*x, coefficients kept."""
    return ([(lo if type(lo) is float else lo.numerator * (M // lo.denominator),
              hi if type(hi) is float else hi.numerator * (M // hi.denominator))
             for lo, hi in f.mask.extended],
            [(e.numerator * (M // e.denominator), c) for e, c in f.terms])


def _numerators(f, M):
    """(region, terms, den) of f over Q on the lattice (1/M)Z, a multiple of
    f's own, as `_on_lattice`, with the coefficients as integer numerators
    over one den: f's kept lattice form on (1/M0)Z, whose tuples every
    reader shares, rescaled by M/M0 (exact, as M and M0 are multiples of
    f's own lattice).  A series with none finds it from its Fractions on
    (1/M)Z, where a coefficient that is not a Fraction raises a MahlerError
    (`_over_q`)."""
    if f._lat is None:
        _over_q(f.terms)
        ext, terms = _on_lattice(f, M)
        den = math.lcm(*{c.denominator for _, c in f.terms})
        f._lat = M, (tuple(ext), tuple((E, c.numerator * (den // c.denominator))
                                       for E, c in terms), den)
    M0, part = f._lat
    if M0 == M:
        return part
    g = math.gcd(M, M0)
    a, b = M // g, M0 // g
    region, terms, den = part
    at = lambda x: x if type(x) is float else x * a // b
    return [(at(lo), at(hi)) for lo, hi in region], [(E * a // b, N) for E, N in terms], den


def _over_q(terms):
    """Raise a MahlerError unless every coefficient of terms is a Fraction."""
    bad = next((c for _, c in terms if type(c) is not Fraction), None)
    if bad is not None:
        raise MahlerError("the Hahn kernel runs over Q; got a %s coefficient"
                          % type(bad).__name__)
