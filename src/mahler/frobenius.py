"""Construction of a full basis of solutions.

The parametric order-1 solver works over Q(lambda)-coefficient series; the
triangular solve (`solve_slope`) chains it through the factorization once
per slope j, with right-hand side prod_c (lambda - c)**m_c over the slope's
exponents (chi_j up to a constant factor when the basis is full), and reads
every g_{c,j} off that one solution; specialization (differentiate in lambda
and evaluate at c, both read off the Taylor coefficients at lambda = c,
with one den jet per distinct denominator of g, not one per coefficient;
the jets' constant terms certify that g is regular at c) turns each
g_{c,j} into solutions written on the symbols l_{c,u} (with e_c = l_{c,0})
that obey phi_p(l_{c,u}) = c*l_{c,u} + l_{c,u-1}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (InsufficientPrecision, PlanMismatch, PoleAtEvaluationPoint,
                     VerificationError)
from .factorize import factor_operator
from .fields import RatFun, taylor_table
from .hahn import (_FULL, NEG, POS, HahnSeries, _grid, _iv_diff, _next_gap, _numerators,
                   _weighted_sum, hs_mul, hs_mul_sums)
from .newton import analyze, frobenius_plan


def solve_order1_param(p, mu, c, g, ceiling, depth):
    """The unique f over Q(lambda) with (z**(-mu) lambda phi_p - c) f = g;
    a g over Q is read as a series over Q(lambda).

    In the frame twisted by z**(mu/(p-1)) the right-hand side splits into
    three parts:
      - the negative part, summed over phi**k for k = -1..-depth (leaving a
        recorded mask gap just below 0 for the dropped tail);
      - the exponent-0 coefficient, divided by lambda - c; when 0 is not
        certified nothing from 0 up is, and the solution stops there;
      - the positive part from fp up, summed over phi**k for k >= 0 until
        the terms leave the requested ceiling.  fp is the first positive
        exponent or the mask's next gap above 0, whichever is smaller:
        nothing lies strictly between 0 and fp.

    Every exponent and mask endpoint runs on one lattice (1/M)Z: M clears
    the twisted g's exponents and endpoints times p**(depth+1), and the
    ceiling, so phi**k multiplies the integers by p**k and, for k < 0,
    divides them exactly, as it does the dropped tail's bound
    vb * p**(-depth-1).  Each image c**(-k-1) lambda**k phi**k of a part
    (negated for the positive part), the exponent-0 term, and the regions
    alone of the dropped tail, of the uncertified ray below 0 and of the
    ceiling are pieces of one `_weighted_sum`, which intersects the regions
    and adds the terms; images at or above the ceiling are never formed.
    """
    c = Fraction(c)
    if not c:
        # chi has a nonzero constant term, so 0 is never an exponent
        raise PlanMismatch("c = 0 is not an exponent of an order-1 factor")
    if g.is_exact_zero():
        return g
    shift = Fraction(mu) / (p - 1)
    cap = Fraction(ceiling) - shift
    G = g.shift(-shift).map_coeffs(lambda r: r if isinstance(r, RatFun) else RatFun.const(r))
    M = math.lcm(_grid([G]) * p ** (depth + 1), cap.denominator)
    ext, terms, _ = _numerators(G, M)
    top = cap.numerator * (M // cap.denominator)

    def piece(region, part=()):
        return 1, (region, part, 1)

    def image(region, part, k, a):
        """The piece of a lambda**k phi**k of the part (region, terms)."""
        s, t = (p ** k, 1) if k >= 0 else (1, p ** -k)
        at = lambda x: x if type(x) is float else x * s // t
        return piece([(at(lo), at(hi)) for lo, hi in region],
                     [(F, r.mul_lam_power(a, k)) for E, r in part for F in (at(E),) if F < top])

    pieces = [piece([(NEG, top)])]
    vb = G.val_bound()[0]
    if vb < 0:
        # the negative part is zero by fiat from 0 up
        low = _iv_diff(_FULL, _iv_diff([(NEG, 0)], ext))
        neg = [(E, r) for E, r in terms if E < 0]
        pieces += [image(low, neg, k, c ** (-k - 1)) for k in range(-1, -depth - 1, -1)]
        if vb != NEG:
            vb = vb.numerator * (M // vb.denominator) // p ** (depth + 1)
        pieces.append(piece(_iv_diff(_FULL, [(vb, 0)])))  # the dropped tail
    pos = [(E, r) for E, r in terms if E > 0]
    fp = min(pos[0][0] if pos else POS, _next_gap(ext, 0))
    if not fp:
        pieces.append(piece([(NEG, 0)]))
    else:
        pieces.append(piece(_FULL, [(0, r.mul_root_power(c, -1)) for E, r in terms if not E]))
        # the positive part is zero by fiat below fp
        high = _iv_diff(_FULL, _iv_diff([(fp, POS)], ext))
        k = 0
        while p ** k * fp < top:
            pieces.append(image(high, pos, k, -c ** (-k - 1)))
            k += 1
    return _weighted_sum(M, pieces).shift(shift)


def solve_slope(L, plan, fact, j, ceiling, depth):
    """{c: g_{c,j}} for every exponent c of slope j, from one triangular solve.

    g_{c,j} is the parametric series g with
    L(g e_lambda) = z**(val a_0 - nu_j/(p-1)) (lambda-c)**(s+m) e_lambda.
    The system is solved once through every layer of the factorization, top
    slope first; within a layer the factors are undone right-to-left (solve,
    then multiply by the unit h).  Its right-hand side carries
    chi = prod_c (lambda - c)**m_c over the slope's exponents, which cancels
    the poles the layer-j factors put at each c.  Every step is
    Q(lambda)-linear and its mask ignores the coefficient values, so the
    solution for (lambda - c)**m alone is this one divided by
    chi / (lambda - c)**m; g_{c,j} is that times (lambda - c)**s, and as
    reduced fractions with monic denominators are unique, it is the same
    series a separate solve per c would give.
    """
    p = L.p
    if len(fact.layers) != len(plan.nus):
        raise PlanMismatch("factorization layers do not match the plan")
    entry = plan.entries[j]
    nuj = plan.nus[j]
    ceil2 = Fraction(ceiling) + max(Fraction(0), nuj / (p - 1))
    chi = _mul_root_powers(RatFun.const(1), [(c, m) for c, m, _ in entry])
    x = fact.a.invert(ceil2).shift(plan.val_a0).scale(chi)
    for i in reversed(range(len(fact.layers))):
        mu = nuj - fact.layers[i][0].nu
        for f in reversed(fact.layers[i]):
            x = solve_order1_param(p, mu, f.c, x, ceil2, depth)
            x = hs_mul(f.h, x)
    x = x.shift(-nuj / (p - 1))
    out = {}
    for c, _, s in entry:
        powers = [(cc, -mm) for cc, mm, _ in entry if cc != c] + [(c, s)]
        out[c] = x.map_coeffs(lambda r, powers=powers: _mul_root_powers(r, powers))
    return out


def _mul_root_powers(r, powers):
    """r times (lambda - c)**k for every (c, k) in powers."""
    for c, k in powers:
        r = r.mul_root_power(c, k)
    return r


def solve_gcj(L, plan, fact, c, j, ceiling, depth):
    """The g_{c,j} of solve_slope for one exponent c of slope j."""
    return solve_slope(L, plan, fact, j, ceiling, depth)[Fraction(c)]


def expected_gcj_cld(L, plan, fact, c, j):
    """Closed form for the leading coefficient of g_{c,j}:
    lambda**(-R) const (lambda - c)**(s+m) / prod_f (lambda - f.c), f over
    the factors of layer j and R the number of factors below it."""
    m, s = plan.lookup(j, c)
    rs = [len(layer) for layer in fact.layers]
    num = math.prod(-f.c for layer in fact.layers[: j + 1] for f in layer)
    expect = RatFun.const(1).mul_lam_power(num / L.coeffs[0].cld(), -sum(rs[:j]))
    return _mul_root_powers(expect, [(Fraction(c), s + m)]
                            + [(f.c, -1) for f in fact.layers[j]])


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
        gap = "is empty" if g.mask.empty else "has its first gap at %s" % bound
        raise InsufficientPrecision(
            "g_{c,j} for c = %s, j = %d has no certified leading term: its mask %s, "
            "not above the expected valuation %s; raise the precision"
            % (c, j, gap, -mu))
    if bound != -mu:
        found = (("inf: g is certified zero" if bound == POS else bound) if exact
                 else "at least %s, the first gap of its mask" % bound)
        raise VerificationError("val of g is %s, expected %s" % (found, -mu))
    if g.cld() != expected_gcj_cld(L, plan, fact, c, j):
        raise VerificationError("leading coefficient of g disagrees with the closed form")


@dataclass(frozen=True)
class SolutionObject:
    """Element sum f_{c,u}(z) l_{c,u} of the solution module."""

    p: int
    parts: tuple  # ((c, u, HahnSeries over Q), ...) sorted by (c, u)

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


@dataclass(frozen=True)
class ExponentBlock:
    """Everything attached to one exponent c of one slope mu_j."""

    j: int
    mu: Fraction
    c: Fraction
    s: int
    m: int
    g: HahnSeries          # coefficients in Q(lambda)
    solutions: tuple

    def to_json(self):
        return {"j": self.j, "mu": str(self.mu), "c": str(self.c),
                "s": self.s, "m": self.m, "g": self.g.to_json(),
                "solutions": [sol.to_json() for sol in self.solutions]}


@dataclass(frozen=True)
class FrobeniusOutput:
    p: int
    newton: object
    plan: object
    factorization: object    # None when the basis is partial
    blocks: tuple
    partial: bool
    verification: dict

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
