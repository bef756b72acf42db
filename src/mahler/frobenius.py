"""Construction of a full basis of solutions.

The parametric order-1 solver (`_order1`) works on lattice triples whose
Q(lambda) coefficients are integer Laurent polynomials in lambda
(`fields.LamPoly`) over one integer den and a product of known factors
b*lambda - a; the triangular solve (`solve_slope`) chains it and the
products by each unit h through the factorization once per slope j, on one
lattice, with right-hand side prod_c (lambda - c)**m_c over the slope's
exponents (chi_j up to a constant factor when the basis is full), and reads
every g_{c,j} off that one solution, the only series the chain builds, with
one exit reducer (`fields.lam_ratfun`) per coefficient: the only place
where its coefficients become reduced rational functions.  Specialization
(differentiate in lambda and evaluate at c, both read off the Taylor
coefficients at lambda = c, with one den jet per distinct denominator of g,
not one per coefficient; the jets' constant terms certify that g is regular
at c) turns each g_{c,j} into solutions written on the symbols l_{c,u}
(with e_c = l_{c,0}) that obey phi_p(l_{c,u}) = c*l_{c,u} + l_{c,u-1}.
"""
import math
from collections import Counter
from fractions import Fraction

from .errors import (InsufficientPrecision, PlanMismatch, PoleAtEvaluationPoint, Record,
                     VerificationError)
from .factorize import factor_operator
from .fields import LamPoly, lam_ratfun, taylor_table
from .hahn import (_FULL, NEG, POS, HahnSeries, _fold, _grid, _grid_product, _iv_diff,
                   _mask_note, _next_gap, _numerators, _series, _shifted, hs_mul_sums)
from .newton import analyze, frobenius_plan


def solve_order1_param(p, mu, c, g, ceiling, depth):
    """The unique f over Q(lambda) with (z**(-mu) lambda phi_p - c) f = g,
    for a g over Q; a coefficient over Q(lambda) raises a MahlerError.

    The solve of `_order1`, on the lattice (1/M)Z with M clearing g's
    exponents and finite mask endpoints, the ceiling and mu/(p-1): g's
    integer numerators over one den (`_numerators`) go there in the frame
    twisted by z**(mu/(p-1)), as constant LamPolys; each coefficient of the
    solution leaves through `solve_slope`'s exit reducer (`lam_ratfun`),
    and the solution becomes a series in that frame, built shifted back.
    """
    c = Fraction(c)
    if not c:
        # chi has a nonzero constant term, so 0 is never an exponent
        raise PlanMismatch("c = 0 is not an exponent of an order-1 factor")
    if g.is_exact_zero():
        return g
    shift = Fraction(mu) / (p - 1)
    cap = Fraction(ceiling) - shift
    M = math.lcm(_grid([g]), shift.denominator, cap.denominator)
    ext, terms, den = _numerators(g, M)
    part = ext, [(E, LamPoly(0, (N,))) for E, N in terms], den
    lifts = []
    ext, terms, den = _order1(p, c, _shifted(part, -int(shift * M)), int(cap * M), depth, lifts)
    q = den * math.prod(r.denominator for r in lifts)
    powers, dens = [(r, -1) for r in lifts], {}
    M *= p ** (depth + 1)
    return _series(M, (ext, [(E, lam_ratfun(X, q, powers, dens)) for E, X in terms], 1),
                   int(shift * M))


def _order1(p, c, g, top, depth, lifts):
    """(region, terms, den) on (1/(M p**(depth+1)))Z of the solution f of
    (lambda phi_p - c) f = g, for g a (region, terms, den) with LamPoly
    numerators on (1/M)Z and the ceiling top/M, all in the frame twisted
    by z**(mu/(p-1)) where the operator of `solve_order1_param` takes this
    form.  An exact zero passes through unchanged.  The numerators of f are
    LamPolys over den and over the same product of factors b*lambda - a as
    g's, unless g is lifted (below): then that product takes one more
    factor, for c = a/b, and c is appended to lifts.

    The right-hand side splits into three parts:
      - the negative part, summed over phi**k for k = -1..-depth (leaving a
        recorded mask gap just below 0 for the dropped tail);
      - the exponent-0 coefficient, divided by lambda - c; when 0 is not
        certified nothing from 0 up is, and the solution stops there;
      - the positive part from fp up, summed over phi**k for k >= 0 until
        the terms leave the ceiling.  fp is the first positive exponent or
        the region's next gap above 0, whichever is smaller: nothing lies
        strictly between 0 and fp.

    On the refined lattice phi**k multiplies g's integers by
    p**(depth+1+k) >= p, and the dropped tail's bound vb p**(-depth-1) is
    the integer vb itself.  Each image c**(-k-1) lambda**k phi**k of a part
    (negated for the positive part) is a piece with weight c**(-k-1) whose
    numerators are g's with o moved by k.  The exponent-0 numerator P,
    over lambda - c = (b*lambda - a)/b, is the piece b * P/(b*lambda - a)
    when b*lambda - a divides P on integers; when it does not, and the
    ceiling is above 0, so that the term is kept, every numerator of g is
    first multiplied by b*lambda - a (the lift), which leaves P itself.
    These pieces and the regions alone of the dropped tail, of the
    uncertified ray below 0 and of the ceiling make one `_fold`, which
    intersects the regions and adds the terms; images at or above the
    ceiling are never formed.  A g whose region reaches down to -inf gives
    an f whose region does too.
    """
    ext, terms, den = g
    if not terms and ext == _FULL:
        return g
    cut = top * p ** (depth + 1)  # the ceiling on the refined lattice

    def image(region, part, k, w):
        """The piece of w lambda**k phi**k of the part (region, terms)."""
        s = p ** (depth + 1 + k)
        at = lambda x: x if type(x) is float else x * s
        return w, ([(at(lo), at(hi)) for lo, hi in region],
                   [(F, LamPoly(X.o + k, X.cs)) for E, X in part for F in (E * s,) if F < cut],
                   den)

    pieces = [(1, ([(NEG, cut)], (), 1))]
    # the least exponent where g might be nonzero, as HahnSeries.val_bound
    vb = min(terms[0][0] if terms else POS, ext[0][1]) if ext else NEG
    fp = min(next((E for E, _ in terms if E > 0), POS), _next_gap(ext, 0))
    if fp and cut > 0:
        P = next((X for E, X in terms if not E), None)
        a, b = c.numerator, c.denominator
        quo = P and P.over_linear(a, b)
        if P and quo is None:
            terms = [(E, X.times_linear(a, b)) for E, X in terms]
            lifts.append(c)
            quo = P
        if quo:
            pieces.append((b, (_FULL, [(0, quo)], den)))
    if vb < 0:
        # the negative part is zero by fiat from 0 up
        low = _iv_diff(_FULL, _iv_diff([(NEG, 0)], ext))
        neg = [(E, X) for E, X in terms if E < 0]
        pieces += [image(low, neg, k, c ** (-k - 1)) for k in range(-1, -depth - 1, -1)]
        pieces.append((1, (_iv_diff(_FULL, [(vb, 0)]), (), 1)))  # the dropped tail
    if not fp:
        pieces.append((1, ([(NEG, 0)], (), 1)))
    else:
        # the positive part is zero by fiat below fp
        high = _iv_diff(_FULL, _iv_diff([(fp, POS)], ext))
        pos = [(E, X) for E, X in terms if E > 0]
        k = 0
        while p ** k * fp < top:
            pieces.append(image(high, pos, k, -c ** (-k - 1)))
            k += 1
    return _fold(pieces)


def solve_slope(L, plan, fact, j, ceiling, depth):
    """{c: g_{c,j}} for every exponent c of slope j, from one triangular solve.

    g_{c,j} is the parametric series g with
    L(g e_lambda) = z**(val a_0 - nu_j/(p-1)) (lambda-c)**(s+m) e_lambda.
    The system is solved once through every layer of the factorization,
    top slope first; within a layer the factors are undone right-to-left
    (solve, then multiply by the unit h).  Its right-hand side carries
    chi = prod_c (lambda - c)**m_c over the slope's exponents, which cancels
    the poles the layer-j factors put at each c.  Every step is
    Q(lambda)-linear and its mask ignores the coefficient values, so the
    solution for (lambda - c)**m alone is this one divided by
    chi / (lambda - c)**m; g_{c,j} is that times (lambda - c)**s, and as
    reduced fractions with monic denominators are unique, it is the same
    series a separate solve per c would give.

    The chain runs on one lattice (1/M)Z, M clearing the exponents and
    finite mask endpoints of the right-hand side and of every h, the
    ceiling, nu_j/(p-1) and each layer's twist mu_i/(p-1), and passes
    (region, terms, den) triples: each solve (`_order1`) refines M by
    p**(depth+1), moving to a layer's twisted frame adds an integer, and
    each product by h is one `_grid_product` and one `_fold` (both commute
    with the twist).  Only x becomes a series, once, in its final frame:
    untwisted as the last product leaves it, where `_series` reads the
    stored mask head off, and shifted by -nu_j/(p-1).

    The coefficients of x are LamPolys X over one integer q and the
    factors b*lambda - a of the lifts (`_order1`) made on the way, that is
    X / (q' prod_r (lambda - r)) with q' = q prod_r b; they start as chi's
    integer form prod_c (b*lambda - a)**m_c times the numerators of
    a's inverse.  Per c the exit reducer (`lam_ratfun`) applies the net
    root powers (lambda - c)**s, (lambda - c')**(-m_c') and (lambda - r)**-1
    per lift to each X / q', with one den tuple per distinct den for all
    of the slope's g.
    """
    p = L.p
    if len(fact.layers) != len(plan.nus):
        raise PlanMismatch("factorization layers do not match the plan")
    entry = plan.entry(j)
    nuj = plan.nus[j]
    shift = nuj / (p - 1)
    ceil2 = Fraction(ceiling) + max(Fraction(0), shift)
    inv = fact.a.invert(ceil2)
    thetas = [(nuj - layer[0].nu) / (p - 1) for layer in fact.layers]
    M = math.lcm(_grid([inv] + [f.h for f in fact.all_factors()]), plan.val_a0.denominator,
                 ceil2.denominator, shift.denominator, *(t.denominator for t in thetas))
    R = p ** (depth + 1)
    # chi on integers: prod_c (b*lambda - a)**m_c = chi * prod_c b**m_c
    chi, q = LamPoly(0, (1,)), 1
    for c, m, _ in entry:
        for _ in range(m):
            chi, q = chi.times_linear(c.numerator, c.denominator), q * c.denominator
    ext, terms, den = _numerators(inv, M)
    # x is z**(-d/M) times the series it stands for
    x, d = (ext, [(E, chi * N) for E, N in terms], den * q), int(plan.val_a0 * M)
    lifts = []
    for theta, layer in reversed(list(zip(thetas, fact.layers))):
        twist = int(theta * M)
        x, d = _shifted(x, d - twist), twist
        top = int(ceil2 * M) - twist
        for f in reversed(layer):
            x = _order1(p, f.c, x, top, depth, lifts)
            M, d, top = M * R, d * R, top * R
            h = _numerators(f.h, M)
            x = _fold([(1, _grid_product(h, x, 1, _iv_diff(_FULL, h[0]),
                                         _iv_diff(_FULL, x[0])))])
    ext, terms, den = _shifted(x, d)
    x = _series(M, (ext, terms, 1), -int(shift * M))
    q = den * math.prod(r.denominator for r in lifts)
    out, dens = {}, {}
    for c, _, s in entry:
        net = Counter({cc: -mm for cc, mm, _ in entry if cc != c})
        net[c] += s
        net.subtract(lifts)
        powers = sorted((r, k) for r, k in net.items() if k)
        out[c] = x.map_coeffs(lambda X, powers=powers: lam_ratfun(X, q, powers, dens))
    return out


def solve_gcj(L, plan, fact, c, j, ceiling, depth):
    """The g_{c,j} of solve_slope for one exponent c of slope j; a c that
    is not one raises PlanMismatch before any solve."""
    c = Fraction(c)
    plan.lookup(j, c)
    return solve_slope(L, plan, fact, j, ceiling, depth)[c]


def expected_gcj_cld(L, plan, fact, c, j):
    """Closed form for the leading coefficient of g_{c,j}:
    lambda**(-R) n/d (lambda - c)**(s+m) / prod_f (lambda - f.c), f over
    the factors of layer j, R the number of factors below it and n/d the
    product of -f.c up to layer j over cld a_0, by `lam_ratfun`."""
    m, s = plan.lookup(j, c)
    nd = math.prod(-f.c for layer in fact.layers[: j + 1] for f in layer) / L.coeffs[0].cld()
    powers = Counter({Fraction(c): s + m})
    powers.subtract(f.c for f in fact.layers[j])
    R = sum(len(layer) for layer in fact.layers[:j])
    return lam_ratfun(LamPoly(-R, (nd.numerator,)), nd.denominator,
                      sorted((r, k) for r, k in powers.items() if k), {})


def check_gcj(L, plan, fact, c, j, mu, g):
    """Certified invariants of g_{c,j}: valuation and leading coefficient.

    The defining residual of g is not checked here: --verify checks the
    residual of every specialized solution.  Regularity at lambda = c is
    certified by the specialization itself (`taylor_table`).  A g whose
    leading term the ceiling leaves uncertified, with its first mask gap at
    or below -mu, raises InsufficientPrecision; one certified zero, or zero
    up to a first gap above -mu, fails the check."""
    c = Fraction(c)
    bound, exact = g.val_bound()
    if not exact and bound <= -mu:
        raise InsufficientPrecision(
            "g_{c,j} for c = %s, j = %d has no certified leading term: its mask %s, "
            "not above the expected valuation %s; raise the precision"
            % (c, j, _mask_note(g), -mu))
    if bound != -mu:
        found = (("inf: g is certified zero" if bound == POS else bound) if exact
                 else "at least %s, the first gap of its mask" % bound)
        raise VerificationError("val of g is %s, expected %s" % (found, -mu))
    if g.cld() != expected_gcj_cld(L, plan, fact, c, j):
        raise VerificationError("leading coefficient of g disagrees with the closed form")


class SolutionObject(Record):
    """Element sum f_{c,u}(z) l_{c,u} of the solution module."""

    __slots__ = (
        "p",
        "parts",  # ((c, u, HahnSeries over Q), ...) sorted by (c, u)
    )

    def part(self, c, u):
        for cc, uu, fs in self.parts:
            if cc == c and uu == u:
                return fs
        return None

    def certified_zero(self):
        """Every part vanishes and is certified somewhere."""
        return all(fs.is_zero() and not fs.mask.empty for _, _, fs in self.parts)

    def to_json(self):
        by_c = {}
        for c, u, fs in self.parts:
            by_c.setdefault(c, []).append({"u": u, "series": fs.to_json()})
        return [{"c": str(c), "terms": entries} for c, entries in sorted(by_c.items())]


def _solution(p, parts):
    kept = tuple((c, u, fs) for (c, u), fs in sorted(parts.items())
                 if not fs.is_exact_zero())
    return SolutionObject(p, kept)


def specialize_solutions(p, g, c, s, m_count):
    """Solutions ev_c(d_lambda**(s+m)(g e_lambda)) for m = 0..m_count-1,
    expanded by the Leibniz rule on the l_{c,u} symbols.

    The part of solution t = s+m at l_{c,u} is binom(t,u) u! times the
    (t-u)-th lambda-derivative of g at c, that is t! R_{t-u} with R_k the
    k-th Taylor coefficient at lambda = c.  One `taylor_table` call gives
    every t! R_k of every coefficient of g, with one den jet per distinct
    denominator; each part keeps g's mask.
    """
    c = Fraction(c)
    ts = range(s, s + m_count)
    table = taylor_table([r for _, r in g.terms], c, [(math.factorial(t), t + 1) for t in ts])
    out = []
    for m, t in enumerate(ts):
        out.append(_solution(p, {(c, u): HahnSeries(
            tuple((e, v) for (e, _), row in zip(g.terms, table) for v in (row[m][t - u],) if v),
            g.mask) for u in range(t + 1)}))
    return out


def apply_to_solution(L, y):
    """Apply the operator to an l-expansion, using
    phi_p**i(l_{c,u}) = sum_t binom(i,t) c**(i-t) l_{c,u-t}.

    The part of L(y) at l_{c,v} is the sum over i, t of
    binom(i,t) c**(i-t) a_i phi_p**i(f_{c,v+t}).  `hs_mul_sums` forms each
    product a_i phi_p**i(f) once, for every key it feeds, and folds each
    key's weighted products on integers."""
    coeffs = [(i, ai) for i, ai in enumerate(L.coeffs) if not ai.is_exact_zero()]
    sums = {}
    for n, (i, _) in enumerate(coeffs):
        for m, (c, u, _) in enumerate(y.parts):
            for t in range(min(i, u) + 1):
                sums.setdefault((c, u - t), []).append((math.comb(i, t) * c ** (i - t), n, m))
    return _solution(L.p, hs_mul_sums(L.p, coeffs, [fs for _, _, fs in y.parts], sums))


class ExponentBlock(Record):
    """Everything attached to one exponent c of one slope mu_j."""

    __slots__ = (
        "j",
        "mu",
        "c",
        "s",
        "m",
        "g",                   # a HahnSeries, coefficients in Q(lambda)
        "solutions",
    )

    def to_json(self):
        return {"j": self.j, "mu": str(self.mu), "c": str(self.c),
                "s": self.s, "m": self.m, "g": self.g.to_json(),
                "solutions": [sol.to_json() for sol in self.solutions]}


class FrobeniusOutput(Record):
    __slots__ = (
        "p",
        "newton",
        "plan",
        "factorization",         # None when the basis is partial
        "blocks",
        "partial",
        "verification",          # a dict
    )

    @property
    def solutions(self):
        return [sol for block in self.blocks for sol in block.solutions]

    def to_json(self):
        return {
            "p": self.p,
            "newton": self.newton.to_json(),
            "plan": self.plan.to_json(),
            "factorization": None if self.factorization is None
            else self.factorization.to_json(),
            "blocks": [b.to_json() for b in self.blocks],
            "partial": self.partial,
            "verification": self.verification,
        }


def verify_independence(out):
    """Triangular valuation pattern of the parts across (j, m), per exponent.

    For the solution indexed (c, j, m): parts below m must have valuation
    lower bound >= -mu_j, the part at m must have certified valuation exactly
    -mu_j, parts above m must stay strictly above -mu_j.
    """
    details = []
    for block in out.blocks:
        for m, sol in enumerate(block.solutions):
            target = -block.mu
            ok = True
            for u in range(block.s + m + 1):
                fs = sol.part(block.c, u)
                bound, exact = (POS, True) if fs is None else fs.val_bound()
                if u < m:
                    good = bound >= target
                elif u == m:
                    good = exact and bound == target
                else:
                    good = bound > target
                ok = ok and good
            details.append({"c": str(block.c), "j": block.j, "m": m, "ok": ok})
    return {"ok": all(d["ok"] for d in details), "solutions": details}


def frobenius_basis(L, ceiling, depth, verify):
    """Newton analysis, factorization, triangular solve and specialization.

    Returns a FrobeniusOutput; when some characteristic polynomial has
    non-rational roots no solutions are constructed and the output is
    flagged partial.
    """
    p = L.p
    nd = analyze(L)
    plan = frobenius_plan(L, nd)
    if not nd.full:
        report = {"ok": False, "partial": True, "reason": "non-rational exponents"}
        return FrobeniusOutput(p, nd, plan, None, (), True, report)
    fact = factor_operator(L, ceiling, plan)
    blocks = []
    for j, entry in enumerate(plan.entries):
        mu = nd.slopes[j][0]
        gs = solve_slope(L, plan, fact, j, ceiling, depth)
        for c, m, s in entry:
            g = gs[c]
            if verify:
                check_gcj(L, plan, fact, c, j, mu, g)
            try:
                sols = specialize_solutions(p, g, c, s, m)
            except PoleAtEvaluationPoint as exc:
                raise VerificationError(
                    "coefficient of z^%s in g_{c,j} for j = %d has a pole at lambda = %s"
                    % (g.terms[exc.index][0], j, c)) from exc
            blocks.append(ExponentBlock(j, mu, c, s, m, g, tuple(sols)))
    # ok is None when the checks were skipped: only a run can claim success
    report = {"ok": True if verify else None, "partial": False, "solutions": []}
    out = FrobeniusOutput(p, nd, plan, fact, tuple(blocks), False, report)
    if len(out.solutions) != L.order:
        raise VerificationError("built %d solutions for an order-%d operator"
                                % (len(out.solutions), L.order))
    if verify:
        for block in out.blocks:
            for m, sol in enumerate(block.solutions):
                res = apply_to_solution(L, sol)
                good = res.certified_zero()
                report["solutions"].append({
                    "c": str(block.c), "j": block.j, "m": m,
                    "residual_zero": bool(good),
                    "residual_masks": [
                        {"c": str(c), "u": u, "mask": fs.mask.to_json()}
                        for c, u, fs in res.parts],
                })
                report["ok"] = report["ok"] and good
        indep = verify_independence(out)
        report["independence"] = indep
        report["ok"] = report["ok"] and indep["ok"]
    return out
