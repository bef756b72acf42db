"""Truncated Hahn series: mask algebra, ring operations, inversion."""
import math
import random
from fractions import Fraction

import pytest

from conftest import (_iv_contains, brute_conv, cap, eq_on_mask, forget, geometric_invert,
                      ladder_operator, lam, pipeline_mask, rand_param_series, rand_series,
                      rational_forward_solve, rebind, reference_add, reference_build,
                      reference_forward_solve, reference_grid, reference_mul, reference_numerators,
                      reference_series, reference_sum, restrict, same_lattice_form, support)
from test_cli import EXAMPLE
from mahler import factorize, frobenius, hahn
from mahler.cli import elaborate, parse_spec
from mahler.errors import (InsufficientPrecision, MahlerError, UnknownLeadingTerm, ZeroDivisor,
                           ZeroSeries)
from mahler.fields import Poly, RatFun
from mahler.frobenius import frobenius_basis
from mahler.hahn import (_FULL, NEG, POS, HahnSeries, Mask, _grid, _iv_diff, _series,
                         _iv_inter, _iv_norm, _numerators, forward_solve, hs, hs_mul,
                         hs_mul_sums, hs_sum, monomial, one, zero)
from mahler.testing import rand_factored_operator, rand_rational


def _iv_shift(ivs, d):
    return [(lo + d, hi + d) for lo, hi in ivs]


def _iv_scale(ivs, s):
    return [(NEG if lo == NEG else lo * s, POS if hi == POS else hi * s) for lo, hi in ivs]


def rand_masked(rng, f):
    """f exact, capped (one interval), holed (several) or with an empty mask."""
    lo = f.terms[0][0]
    cut = lo + Fraction(rng.randint(0, 8), rng.randint(1, 3))
    kind = rng.choice(("exact", "cap", "hole", "hole", "holes", "empty"))
    if kind == "cap":
        return cap(f, cut)
    if kind == "hole":
        return forget(f, cut, cut + Fraction(rng.randint(1, 4), rng.randint(1, 2)))
    if kind == "holes":
        return forget(forget(f, cut, cut + Fraction(1, 2)), cut + 1, cut + 2)
    if kind == "empty":
        return forget(f, NEG, cut)
    return f


def kernel_or_error(run, want, *series):
    """run(), a sum or product of the given series by the kernel: equal to
    the reference want, coefficient types included, when every coefficient
    is a Fraction; otherwise it raises the kernel's MahlerError, since sums
    and products run over Q only.  Returns whether it ran."""
    if any(type(c) is not Fraction for f in series for _, c in f.terms):
        with pytest.raises(MahlerError, match="runs over Q"):
            run()
        return False
    got = run()
    assert got == want
    assert [type(c) for _, c in got.terms] == [type(c) for _, c in want.terms]
    return True


def test_hs_basic_construction():
    f = hs([(0, 1), (2, 1), (2, 2), (1, 0)])
    assert f.terms == ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(3)))
    assert f.mask.ivs == ((Fraction(0), POS),)
    g = hs({Fraction(1, 2): Fraction(5)})
    assert support(g) == (Fraction(1, 2),)
    assert zero().is_exact_zero() and zero().is_zero()
    assert one().terms == ((Fraction(0), Fraction(1)),)
    assert monomial(Fraction(-3, 2), 4).terms == ((Fraction(-3, 2), Fraction(4)),)


def test_integer_coefficients_become_fractions():
    for f in (hs([(0, 3), (1, -2)]), hs({2: 7}), monomial(0, 5), monomial(1, 2)):
        for _, c in f.terms:
            assert isinstance(c, Fraction)
    inv = hs([(0, 2), (1, 3)]).invert(6)
    for _, c in inv.terms:
        assert isinstance(c, Fraction)


def test_explicit_mask_validation():
    f = hs([(0, 1)], mask=[(0, 5)])
    assert f.mask.ivs == ((Fraction(0), Fraction(5)),)
    with pytest.raises(ValueError):
        hs([(7, 1)], mask=[(0, 5)])
    with pytest.raises(ValueError):
        Mask([(NEG, 3)])
    with pytest.raises(ValueError, match="rational lower endpoint"):
        hs([(1, 1)], mask=[(NEG, 3)])


def test_mask_normalization_and_queries():
    m = Mask([(3, 5), (0, 2), (2, 3)])
    assert m.ivs == ((Fraction(0), Fraction(5)),)
    m2 = Mask([(0, 1), (4, POS)])
    assert m2.extended == [(NEG, Fraction(1)), (Fraction(4), POS)]
    assert m2.certifies(-100) and m2.certifies(Fraction(1, 2)) and m2.certifies(7)
    assert not m2.certifies(1) and not m2.certifies(3)
    assert m2.ivs == ((Fraction(0), Fraction(1)), (Fraction(4), POS)) and m2.first_gap() == 1
    assert Mask(()).empty
    assert Mask([(2, 2)]).empty


@pytest.mark.parametrize("ivs, x, gap", [
    # x inside the head, at or below its stored lower end: the head's end
    ([(-1, 2), (3, 5), (7, POS)], Fraction(0), 2),
    ([(-1, 2), (3, 5), (7, POS)], Fraction(-9), 2),
    # x at or inside a gap: x itself
    ([(-1, 2), (3, 5), (7, POS)], Fraction(2), 2),
    ([(-1, 2), (3, 5), (7, POS)], Fraction(5, 2), Fraction(5, 2)),
    # x on an island's lower end, or inside it: that island's end
    ([(-1, 2), (3, 5), (7, POS)], Fraction(3), 5),
    ([(-1, 2), (3, 5), (7, POS)], Fraction(9, 2), 5),
    # an island that reaches +inf
    ([(-1, 2), (3, 5), (7, POS)], Fraction(7), POS),
    # touching islands merge, so the walk runs through both
    ([(0, 1), (2, 3), (3, 4)], Fraction(2), 4),
    ([(0, 1), (2, 3), (3, 4)], Fraction(0), 1),
    # an empty mask certifies nothing
    ([], Fraction(5), 5),
    ([], Fraction(0), 0),
])
def test_mask_next_gap(ivs, x, gap):
    m = Mask(ivs)
    got = m.next_gap(x)
    assert got == gap
    assert not m.certifies(got)
    # everything from x up to the gap is certified
    assert all(m.certifies(t) for t in (x, (x + got) / 2) if t < got)


def test_val_family():
    f = hs([(-2, 5), (1, 3)])
    assert f.val() == -2 and f.cld() == 5
    assert f.val_bound() == (Fraction(-2), True)
    assert f.val_bound()[0] == -2
    with pytest.raises(ZeroSeries):
        zero().val()
    g = forget(hs([(3, 1)], mask=[(3, 10)]), 0, 4)
    assert g.terms == ()
    # below 0 is still certified zero by the original head, so the first
    # exponent that could carry a nonzero coefficient is 0
    assert g.val_bound() == (Fraction(0), False)
    empty = HahnSeries((), Mask(()))
    assert empty.val_bound() == (NEG, False)
    assert empty.val_bound()[0] == NEG
    assert zero().val_bound() == (POS, True)


def test_val_of_uncertified_leading_term():
    f = forget(hs([(0, 1), (2, 1)]), -1, 1)
    assert f.terms == ((Fraction(2), Fraction(1)),)
    with pytest.raises(UnknownLeadingTerm):
        f.val()


def test_coeff_at():
    f = forget(hs([(0, 1), (2, 5)]), 3, 4)
    assert f.coeff_at(0) == 1 and f.coeff_at(2) == 5
    assert f.coeff_at(1) == 0 and f.coeff_at(-17) == 0
    with pytest.raises(UnknownLeadingTerm):
        f.coeff_at(Fraction(7, 2))


def test_add_and_neg():
    f = hs([(0, 1), (1, 2)])
    g = hs([(1, -2), (3, 7)])
    s = f + g
    assert dict(s.terms) == {Fraction(0): 1, Fraction(3): 7}
    assert (f - f).is_exact_zero()
    assert (-f).terms == ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(-2)))
    fa = forget(f, 5, 9)
    assert (fa + g).mask.ivs == ((Fraction(0), Fraction(5)), (Fraction(9), POS))


def test_shift_scale_mal():
    f = hs([(1, 2), (3, -1)], mask=[(1, 6)])
    assert support(f.shift(Fraction(1, 2))) == (Fraction(3, 2), Fraction(7, 2))
    assert f.shift(Fraction(1, 2)).mask.ivs == ((Fraction(3, 2), Fraction(13, 2)),)
    assert f.scale(3).terms == ((Fraction(1), Fraction(6)), (Fraction(3), Fraction(-3)))
    assert f.scale(0).is_exact_zero()
    # inf + d would convert d to a float, which overflows past 2**1024
    far = Fraction(10) ** 400
    assert one().shift(far).mask.ivs == ((far, POS),) == one().shift(1).mal(1, far).mask.ivs
    m = f.mal(2, 2)
    assert support(m) == (Fraction(4), Fraction(12)) and m.mask.ivs == ((4, 24),)
    back = f.mal(-1, 2)
    assert support(back) == (Fraction(1, 2), Fraction(3, 2))
    assert back.mask.ivs == ((Fraction(1, 2), Fraction(3)),)


def holed(rng, f, n):
    """f with n random holes forgotten (n + 1 mask intervals at most), or
    with an empty mask when n < 0."""
    if n < 0:
        return forget(f, NEG, Fraction(rng.randint(2, 9)))
    for _ in range(n):
        lo = Fraction(rng.randint(-6, 18), rng.choice((1, 2, 3)))
        f = forget(f, lo, lo + Fraction(rng.randint(1, 3), 2))
    return f


@pytest.mark.parametrize("ring", ["Q", "Q(lambda)", "mixed"])
def test_hs_sum_equals_left_fold(ring):
    """hs_sum against the left fold of reference_add, coefficient types
    included (`kernel_or_error`: over Q(lambda) the kernel raises).  In the
    mixed ring each part is drawn over Q, with every coefficient's
    denominator a multiple of 7 or 11, or over Q(lambda)."""
    rng = random.Random(71 + len(ring))
    dens = (RatFun.const(1), lam - 1, (lam - 1) ** 2, lam * (lam + 2))
    q_series, q_scalar = (lambda: rand_series(rng, 5)), (lambda: rand_rational(rng, nonzero=True))
    param_series = lambda: rand_param_series(rng, 5).map_coeffs(lambda r: r / rng.choice(dens))
    param_scalar = lambda: RatFun.const(rand_rational(rng, nonzero=True)) / rng.choice(dens)
    if ring == "Q":
        series_of, scalar = q_series, q_scalar
    elif ring == "Q(lambda)":
        series_of, scalar = param_series, param_scalar
    else:
        series_of = lambda: (q_series().scale(Fraction(1, rng.choice((7, 11))))
                             if rng.random() < 0.5 else param_series())
        scalar = lambda: q_scalar() if rng.random() < 0.5 else param_scalar()
    seen = set()
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(2, 5)):
            f = parts[-1].scale(scalar()) if parts and rng.random() < 0.3 else series_of()
            f = holed(rng, f, rng.randint(-1, 4))
            if rng.random() < 0.3:
                f = cap(f, Fraction(rng.randint(-2, 8)))
            parts.append(f)
            seen.add(len(f.mask.ivs))
        cancel = rng.random() < 0.25
        if cancel:
            parts += [-f for f in parts]
            rng.shuffle(parts)
        want = reference_sum(parts)
        if kernel_or_error(lambda: hs_sum(parts), want, *parts):
            assert hs_sum(iter(parts)) == want
        if cancel and not want.terms and want.mask.ivs:
            seen.add("full cancellation")
        if len({type(c) for f in parts for _, c in f.terms}) > 1:
            seen.add("both rings")
    assert seen >= {0, 1, 2, 3, 4, 5, "full cancellation"}
    assert ("both rings" in seen) == (ring == "mixed")
    f = holed(rng, series_of(), 2).shift(Fraction(1, 3))
    assert hs_sum([f]) is f
    assert hs_sum([]).is_exact_zero()
    kernel_or_error(lambda: f + zero(), reference_add(f, zero()), f)
    kernel_or_error(lambda: f - f, reference_add(f, -f), f)


def test_order_preserving_maps_equal_renormalized_masks():
    rng = random.Random(73)
    for _ in range(200):
        f = holed(rng, rand_series(rng, 5), rng.randint(-1, 4))
        d = Fraction(rng.randint(-7, 7), rng.choice((1, 2, 5)))
        assert f.shift(d).mask == Mask(_iv_shift(f.mask.ivs, d))
        k, p = rng.randint(-2, 2), rng.choice((2, 3))
        assert f.mal(k, p).mask == Mask(_iv_scale(f.mask.ivs, Fraction(p) ** k))
        lo = Fraction(rng.randint(-4, 8), 2)
        hi = lo + Fraction(rng.randint(1, 6), 2)
        assert cap(f, hi) == reference_build(f.terms, _iv_inter(f.mask.extended, [(NEG, hi)]))
        assert forget(f, lo, hi) == reference_build(f.terms, _iv_diff(f.mask.extended, [(lo, hi)]))
        inside = [(e, c) for e, c in f.terms if lo <= e < hi]
        assert restrict(f, lo, hi) == reference_build(
            inside, _iv_inter(f.mask.extended, [(lo, hi)]) + [(NEG, lo), (hi, POS)])


def test_map_coeffs_drops_zero_images():
    f = hs([(0, 2), (1, 3)])
    g = f.map_coeffs(lambda c: c - 2 if c == 2 else c)
    assert g.terms == ((Fraction(1), Fraction(3)),)
    assert g.mask == f.mask


def test_cap_forget_restrict():
    f = hs([(0, 1), (2, 3), (5, 7)])
    c = cap(f, 4)
    assert support(c) == (Fraction(0), Fraction(2))
    assert c.mask.ivs == ((Fraction(0), Fraction(4)),)
    h = forget(f, 1, 3)
    assert support(h) == (Fraction(0), Fraction(5))
    assert forget(f, 3, 3) == f and forget(f, 3, 1) == f  # an empty [lo, hi) forgets nothing
    assert not h.mask.certifies(2) and h.mask.certifies(4)
    r = restrict(f, 1, 4)
    assert support(r) == (Fraction(2),)
    assert r.coeff_at(100) == 0 and r.coeff_at(-100) == 0
    assert r.coeff_at(2) == 3
    low = restrict(f, NEG, 1)
    assert support(low) == (Fraction(0),) and low.coeff_at(3) == 0


def test_restrict_of_empty_mask():
    got = restrict(HahnSeries((), Mask(())), 0, 1)
    # nothing was certified inside [0,1), but outside it the restriction is
    # zero by definition, so both rays stay certified
    assert got.mask.certifies(-5) and got.mask.certifies(2)
    assert not got.mask.certifies(Fraction(1, 2))


def _normalized(ivs):
    return (all(lo < hi for lo, hi in ivs)
            and all(a[1] < b[0] for a, b in zip(ivs, ivs[1:])))


def _rand_region(rng):
    """Normalized region: up to four intervals on a half-integer grid, the
    first possibly from -inf and the last possibly to +inf."""
    ends = [Fraction(x, 2) for x in sorted(rng.sample(range(-8, 9), 2 * rng.randint(0, 4)))]
    if ends and rng.random() < 0.4:
        ends[0] = NEG
    if ends and rng.random() < 0.4:
        ends[-1] = POS
    return list(zip(ends[::2], ends[1::2]))


def test_inter_and_diff_of_normalized_regions_are_normalized():
    rng = random.Random(2718)
    probes = [NEG, POS] + [Fraction(x, 4) for x in range(-17, 18)]  # every end and midpoint
    seen = set()
    for _ in range(3000):
        a, b = _rand_region(rng), _rand_region(rng)
        for op, member in ((_iv_inter, lambda x: _iv_contains(a, x) and _iv_contains(b, x)),
                           (_iv_diff, lambda x: _iv_contains(a, x) and not _iv_contains(b, x))):
            out = op(a, b)
            assert _normalized(out), (op.__name__, a, b, out)
            assert all(_iv_contains(out, x) == member(x) for x in probes)
            seen |= {"-inf end"} if out and out[0][0] == NEG else set()
            seen |= {"+inf end"} if out and out[-1][1] == POS else set()
            seen |= {"several intervals"} if len(out) > 1 else set()
    assert seen == {"-inf end", "+inf end", "several intervals"}


def test_series_reads_its_region_and_never_writes_it(monkeypatch):
    """_series reads its normalized region in place, and hs, zero, one and
    monomial build through it: an exactly known series' stored head starts
    at its least exponent, or at 0 with no term."""
    want = reference_build([(Fraction(1), Fraction(2)), (Fraction(7, 2), Fraction(5))],
                           [(NEG, Fraction(3)), (Fraction(4), POS)])
    exact = reference_build([(Fraction(-1, 2), Fraction(2)), (Fraction(1, 3), Fraction(1))], _FULL)

    def no_norm(ivs):
        raise AssertionError("region renormalized")
    monkeypatch.setattr(hahn, "_iv_norm", no_norm)
    ext = [(NEG, 6), (8, POS)]  # (-inf, 3) and [4, inf) on (1/2)Z
    f = _series(2, (ext, [(2, 2)], 1))
    assert ext == [(NEG, 6), (8, POS)]
    assert f.terms == ((Fraction(1), Fraction(2)),)
    assert f.mask.ivs == ((Fraction(1), Fraction(3)), (Fraction(4), POS))
    assert f == want
    assert zero().mask.ivs == ((Fraction(0), POS),)
    assert _FULL == [(NEG, POS)] and zero().is_exact_zero()
    assert monomial(-2, 0) == zero() and one().mask.ivs == ((Fraction(0), POS),)
    assert monomial(Fraction(-5, 2), 3).mask.ivs == ((Fraction(-5, 2), POS),)
    assert hs({Fraction(1, 3): 1, Fraction(-1, 2): 2, 1: 0}) == exact


def test_every_built_region_is_normalized(monkeypatch):
    """No region is renormalized inside the module, so every region that
    reaches _series must already be normalized, and so must every region
    the peels of factor_operator and the triangular solve of solve_slope
    fold and pass on without building a series.  No term is dropped there
    either: the terms of every part reaching _series are sorted by distinct
    exponents, nonzero and inside its region.  Checked while solving the
    ladders and the README example at precision 32 and the first 60
    criterion-3 operators, and while hs, zero and monomial build."""
    regions = []
    real_fold, real_series = factorize._fold, hahn._series

    def checked_series(M, part, *d):
        ext, terms, _ = part
        regions.append(ext)
        assert _normalized(ext), ext
        exps = [E for E, _ in terms]
        assert exps == sorted(set(exps)), exps
        assert all(S for _, S in terms) and all(_iv_contains(ext, E) for E in exps), part
        return real_series(M, part, *d)

    def checked_fold(pieces):
        part = real_fold(pieces)
        regions.append(part[0])
        assert _normalized(part[0]), part[0]
        return part
    for module in (factorize, frobenius):
        monkeypatch.setattr(module, "_fold", checked_fold)
    cases = [(L, 32, 32) for L in (ladder_operator(2, -2), ladder_operator(3, -3),
                                   elaborate(parse_spec(EXAMPLE), 32))]
    rng = random.Random(2026)
    cases += [(rand_factored_operator(rng, Fraction(3))[0], 3, 2) for _ in range(60)]
    rebind(monkeypatch, real_series, checked_series)
    for L, ceiling, depth in cases:
        assert frobenius_basis(L, ceiling, depth, verify=True).verification["ok"]
    n = len(regions)
    assert n > 1000
    built = [zero(), monomial(Fraction(-3, 2), 5), hs({2: 1, Fraction(1, 3): -1, 0: 0})]
    assert len(regions) == n + len(built)


def test_mul_matches_brute_convolution_inside_mask():
    rng = random.Random(7)
    for _ in range(60):
        f_full = rand_series(rng)
        g_full = rand_series(rng)
        true = brute_conv(f_full, g_full)
        a, b = sorted(rng.sample(range(-2, 7), 2))
        f = forget(f_full, a, b) if rng.random() < 0.7 else f_full
        c, d = sorted(rng.sample(range(-2, 7), 2))
        g = forget(g_full, c, d) if rng.random() < 0.7 else g_full
        prod = f * g
        for e, v in prod.terms:
            if prod.mask.certifies(e):
                assert true.get(e, 0) == v
        for e in true:
            if prod.mask.certifies(e):
                assert prod.coeff_at(e) == true[e]


def test_mul_equals_unbounded_reference():
    rng = random.Random(23)
    masks = set()
    for _ in range(300):
        f, g = (rand_masked(rng, (rand_series if rng.random() < 0.7 else rand_param_series)(rng))
                for _ in range(2))
        want = reference_mul(f, g)
        if kernel_or_error(lambda: hs_mul(f, g), want, f, g):
            masks.add(len(want.mask.ivs))
    assert {0, 1, 2} <= masks
    # operands with three to five mask intervals, sometimes also capped
    masks = set()
    for _ in range(200):
        f, g = (rand_islands(rng, (rand_series if rng.random() < 0.7 else rand_param_series)(rng))
                for _ in range(2))
        assert len(f.mask.ivs) >= 3 or f.mask.empty
        want = reference_mul(f, g)
        if kernel_or_error(lambda: hs_mul(f, g), want, f, g):
            masks.add(len(want.mask.ivs))
    assert max(masks) >= 3


@pytest.mark.parametrize("ring", ["Q", "Q(lambda)"])
def test_mul_region_on_pipeline_masks_equals_reference(ring):
    """The product region, computed on integers after scaling exponents and
    mask endpoints by one common denominator, equals the Fraction oracle's
    (terms and stored masks both) when the endpoints lie off the terms'
    lattice.  Over Q(lambda) the same draws raise (`kernel_or_error`)."""
    rng = random.Random(29 + len(ring))
    make = rand_series if ring == "Q" else rand_param_series
    seen = set()
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        kind_f, f = pipeline_mask(rng, make(rng), p)
        kind_g, g = pipeline_mask(rng, make(rng), p)
        kernel_or_error(lambda: hs_mul(f, g), reference_mul(f, g), f, g)
        seen |= {kind_f, kind_g}
        for h in (f, g):
            D = math.lcm(*(e.denominator for e, _ in h.terms))
            if any(x != POS and (x * D).denominator > 1 for iv in h.mask.ivs for x in iv):
                seen.add("off-lattice")
            if len(h.mask.ivs) >= 3 and h.mask.ivs[-1][1] == POS:
                seen.add("several gaps, +inf ray")
    assert seen == {"ceiling", "forget bound", "gaps and ray", "empty", "off-lattice",
                    "several gaps, +inf ray"}


def rand_islands(rng, f):
    """f with two to four holes punched above its lowest exponent."""
    cut = f.terms[0][0] + Fraction(rng.randint(0, 4), rng.randint(1, 3))
    for _ in range(rng.randint(2, 4)):
        width = Fraction(rng.randint(1, 3), rng.randint(2, 4))
        f = forget(f, cut, cut + width)
        cut += width + Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return cap(f, cut + rng.randint(1, 3)) if rng.random() < 0.3 else f


def test_build_matches_reference():
    """_series against reference_build on random regions on (1/2)Z, with the
    terms inside them given as Fractions, Q(lambda) values or integer
    numerators over one den, and hs and monomial of the same terms against
    reference_build on the full line; mask endpoint types included."""
    rng = random.Random(41)
    grid = [Fraction(k, 2) for k in range(-6, 13)]
    at = lambda x: x if type(x) is float else int(2 * x)
    types = lambda f: [tuple(map(type, iv)) for iv in f.mask.ivs]
    shapes = set()
    for _ in range(600):
        terms = {}
        for e in rng.sample(grid, rng.randint(0, 8)):
            # zero coefficients, Fractions and Q(lambda) coefficients
            r = rng.random()
            terms[e] = (Fraction(0) if r < 0.2 else rand_rational(rng, nonzero=True)
                        if r < 0.7 else rand_param_series(rng, terms=1).terms[0][1])
        ext = []
        for _ in range(rng.randint(0, 5)):
            lo, hi = sorted(rng.sample(grid, 2))
            if rng.random() < 0.3:
                lo, hi = int(lo), int(hi) + 1  # integer endpoints
            ext.append((lo, hi))
        if ext and rng.random() < 0.7:
            ext[0] = (NEG, ext[0][1])  # usual head; otherwise a finite head
        if ext and rng.random() < 0.3:
            ext.append((ext[-1][0], POS))
        rng.shuffle(ext)
        want = reference_build(list(terms.items()), list(ext))
        region = _iv_norm(ext)
        inside = sorted((e, c) for e, c in terms.items() if c and _iv_contains(region, e))
        parts = [([(at(lo), at(hi)) for lo, hi in region], [(at(e), c) for e, c in inside], 1)]
        if all(type(c) is Fraction for _, c in inside):
            den = math.lcm(*(c.denominator for _, c in inside))
            parts.append((parts[0][0], [(at(e), int(c * den)) for e, c in inside], den))
            shapes.add("numerators")
        for part in parts:
            got = _series(2, part)
            assert got == want and types(got) == types(want)
        exact = reference_build(list(terms.items()), _FULL)
        assert hs(terms) == exact and types(hs(terms)) == types(exact)
        for e, c in terms.items():
            assert monomial(e, c) == reference_build([(e, c)], _FULL)
        shapes.add(min(len(got.mask.ivs), 3))
        if not ext:
            shapes.add("empty ext")
        elif min(lo for lo, _ in ext) != NEG:
            shapes.add("finite head")
        if any(e in iv for e in terms for iv in ext):
            shapes.add("term on an endpoint")
        if not all(terms.values()):
            shapes.add("zero coefficient")
    assert {0, 1, 2, 3, "empty ext", "finite head", "term on an endpoint",
            "zero coefficient", "numerators"} <= shapes


def test_mul_of_exact_series_is_exact():
    f = hs([(0, 1), (Fraction(1, 2), -3)])
    g = hs([(-1, 2), (1, 5)])
    prod = f * g
    assert dict(prod.terms) == brute_conv(f, g)
    assert prod.mask.first_gap() == POS


def test_mul_keeps_certified_island_beyond_a_gap():
    # sparse exact factor: no support in (0, 2), so the island [0, ...) of the
    # other factor survives multiplication by its constant term
    h = hs([(0, 1), (2, 1)])
    w = hs([(-1, 1), (Fraction(-1, 2), 1)], mask=[(-1, Fraction(-1, 4)), (0, 6)])
    prod = w * h
    assert prod.mask.certifies(0) and prod.mask.certifies(1)
    assert not prod.mask.certifies(Fraction(-1, 8))
    assert not prod.mask.certifies(Fraction(15, 8))
    assert prod.coeff_at(0) == 0 and prod.coeff_at(1) == 1


def test_mul_monomial_fast_path_keeps_masks():
    f = hs([(1, 3)], mask=[(1, 4)])
    m = monomial(Fraction(1, 2), 2)
    prod = f * m
    assert prod.terms == ((Fraction(3, 2), Fraction(6)),)
    assert prod.mask.ivs == ((Fraction(3, 2), Fraction(9, 2)),)
    assert (f * zero()).is_exact_zero()


def test_q_lambda_operands_raise_a_mahler_error():
    """Sums, products and inversion run over Q only: over Q(lambda), and
    with operands over Q and Q(lambda) or a series holding both, each
    raises a MahlerError (never a TypeError or AttributeError), also on
    the shortcuts for an exact monomial and for an operand with an empty
    mask.  The container operations still take Q(lambda) coefficients."""
    P = hs([(0, lam), (Fraction(1, 2), 1 / (lam - 1))])
    Q = hs([(0, 2), (1, Fraction(-1, 3))])
    mixed = hs([(0, Fraction(1, 2)), (1, lam + 1)])
    monomial_P = monomial(Fraction(1, 3), lam)
    empty = forget(Q, NEG, 1)
    operands = [P, monomial_P, cap(P, 1), mixed]
    pairs = [(f, g) for f in operands for g in (P, Q, empty)]
    pairs += [(g, f) for f in operands for g in (Q, empty)]
    assert empty.mask.empty and not empty.terms
    ops = (hs_mul,
           lambda f, g: hs_mul_sums(2, [(0, f), (1, f)], [g],
                                    {0: [(1, 0, 0)], 1: [(Fraction(1, 2), 1, 0)]}),
           lambda f, g: hs_sum([f, g]),
           lambda f, g: hs_sum([Q, f, g]),
           lambda f, g: f + g,
           lambda f, g: f - g,
           lambda f, g: f * g)
    for op in ops:
        for f, g in pairs:
            with pytest.raises(MahlerError, match="runs over Q; got a RatFun coefficient"):
                op(f, g)
    for f in (P, monomial_P, cap(P, 1), mixed):
        with pytest.raises(MahlerError, match="runs over Q; got a RatFun coefficient"):
            f.invert(3)
    # an exact zero has no coefficient: it sums and multiplies as over Q
    assert hs_sum([zero(), zero()]).is_exact_zero() and (zero() * Q).is_exact_zero()
    # the container operations
    third = Fraction(1, 3)
    assert P.shift(third).terms == ((third, lam), (Fraction(5, 6), 1 / (lam - 1)))
    assert P.scale(lam).terms == ((0, lam ** 2), (Fraction(1, 2), lam / (lam - 1)))
    assert P.scale(Fraction(2)).terms == ((0, 2 * lam), (Fraction(1, 2), 2 / (lam - 1)))
    assert P.mal(1, 3).terms == ((0, lam), (Fraction(3, 2), 1 / (lam - 1)))
    assert P.map_coeffs(lambda r: r * (lam - 1)).terms == ((0, lam * (lam - 1)),
                                                           (Fraction(1, 2), RatFun.const(1)))
    assert (-P).terms == ((0, -lam), (Fraction(1, 2), -1 / (lam - 1)))
    assert all(f.mask == P.mask for f in (-P, P.scale(lam), P.map_coeffs(lambda r: r)))
    assert P.to_json()["terms"] == [{"exp": "0", "coeff": str(lam)},
                                    {"exp": "1/2", "coeff": str(1 / (lam - 1))}]
    assert hs({0: lam, Fraction(1, 2): 1 / (lam - 1)}) == P
    assert P.val() == 0 and P.cld() == lam and P.coeff_at(Fraction(1, 2)) == 1 / (lam - 1)


def test_invert_multiplies_back_to_one():
    rng = random.Random(11)
    for _ in range(25):
        f = rand_series(rng)
        finv = f.invert(10)
        prod = f * finv
        eq, common = eq_on_mask(prod, one())
        assert eq and not common.empty
        assert prod.coeff_at(0) == 1
    g = hs([(0, 2), (3, 1), (Fraction(7, 2), -5)])
    ginv = g.invert(9)
    assert (g * ginv).coeff_at(Fraction(13, 4)) == 0


def test_invert_matches_geometric_oracle():
    """Equal to the geometric series on a one-interval mask; with several
    intervals, equal to its head and never certifying more.  Over
    Q(lambda) every series the oracle can invert, exact monomials included,
    raises a MahlerError, since inversion runs over Q only."""
    rng = random.Random(31)
    islands = params = 0
    for _ in range(300):
        over_q = rng.random() < 0.7
        exact = rand_series(rng) if over_q else rand_param_series(rng, deg=1)
        f = rand_masked(rng, exact)
        ceiling = exact.terms[0][0] + rng.randint(-1, 8)
        try:
            want = geometric_invert(f, ceiling)
        except (ZeroDivisor, InsufficientPrecision) as exc:
            with pytest.raises(type(exc)):
                f.invert(ceiling)
            continue
        if not over_q:
            with pytest.raises(MahlerError, match="runs over Q"):
                f.invert(ceiling)
            params += 1
            continue
        got = f.invert(ceiling)
        if len(f.mask.ivs) == 1:
            assert got == want
        else:
            gap = want.mask.first_gap()
            assert got.terms == tuple(t for t in want.terms if t[0] < gap)
            assert got.mask.extended == [(NEG, gap)]
            assert not _iv_diff(got.mask.extended, want.mask.extended)
            islands += got != want
    assert islands and params


def test_invert_monomial_is_exact():
    f = monomial(Fraction(-3, 2), Fraction(2, 5))
    finv = f.invert(4)
    assert finv.terms == ((Fraction(3, 2), Fraction(5, 2)),)
    assert finv.is_exact_zero() is False
    assert finv.mask.first_gap() == POS


def test_invert_shifts_certified_window_by_valuation():
    f = hs([(2, 1), (3, 1)])
    finv = f.invert(6)
    assert finv.val() == -2 and finv.cld() == 1
    assert finv.mask.certifies(Fraction(3, 2))


def test_invert_rejects_uncertified_leading_term():
    """The exact zero has no inverse; a series whose leading term its mask
    leaves uncertified may have one at a higher precision, which the
    message asks for, naming the first gap or the empty mask."""
    with pytest.raises(ZeroDivisor):
        zero().invert(5)
    f = forget(hs([(0, 1), (2, 1)]), -1, 1)
    with pytest.raises(InsufficientPrecision, match="^cannot invert a series with no certified "
                       "leading term: its mask has its first gap at -1; raise the precision$"):
        f.invert(5)
    for g, note in ((cap(zero(), 3), "has its first gap at 3"),
                    (HahnSeries((), Mask(())), "is empty")):
        with pytest.raises(InsufficientPrecision, match="its mask %s;" % note):
            g.invert(5)


def test_eq_on_mask():
    f = hs([(0, 1), (2, 5)])
    g = cap(hs([(0, 1), (2, 5), (9, 1)]), 8)
    eq, common = eq_on_mask(f, g)
    assert eq and common.first_gap() == 8
    h = hs([(0, 1), (2, 4)])
    eq2, _ = eq_on_mask(f, h)
    assert not eq2
    eq3, _ = eq_on_mask(f, forget(h, 2, 3))
    assert eq3


def test_forward_solve_geometric_series():
    # (1 - z) w = 1
    w = rational_forward_solve(Fraction(1), Fraction(1), [(Fraction(1), 1, Fraction(-1))], Fraction(10))
    assert w.terms == tuple((Fraction(i), Fraction(1)) for i in range(10))
    assert w.mask.extended == [(NEG, Fraction(10))]
    # nothing below the cut, or a zero start: no terms, over den 1
    assert forward_solve(1, 1, [(1, 1, -1)], 0) == ([], 1)
    assert forward_solve(Fraction(0), 3, [(1, 1, -1)], 10) == ([], 1)


def test_forward_solve_satisfies_recursion_on_closure():
    rng = random.Random(5)
    for _ in range(60):
        taps = []
        for _ in range(rng.randint(1, 4)):
            k = rng.choice((1, 2, 3))
            e = Fraction(rng.randint(k == 1, 6), rng.randint(1, 3))
            taps.append((e, k, rand_rational(rng, nonzero=True)))
        one_, lead = rand_rational(rng, nonzero=True), rand_rational(rng, nonzero=True)
        cap = Fraction(rng.randint(1, 12), 2)
        w = rational_forward_solve(one_, lead, taps, cap)
        assert w.mask.extended == [(NEG, cap)]
        got = dict(w.terms)
        closure, todo = {Fraction(0)}, [Fraction(0)]
        while todo:
            g = todo.pop()
            for e, k, _ in taps:
                t = k * g + e
                if t < cap and t not in closure:
                    closure.add(t)
                    todo.append(t)
        assert got[Fraction(0)] == one_ and set(got) <= closure
        for g in closure - {0}:
            total = lead * got.get(g, 0)
            for e, k, a in taps:
                total += a * got.get((g - e) / k, 0)
            assert total == 0


@pytest.mark.parametrize("tap", [(Fraction(0), 1, Fraction(2)), (Fraction(-1), 2, Fraction(1))])
def test_forward_solve_rejects_a_tap_that_does_not_move_forward(tap):
    with pytest.raises(MahlerError):
        rational_forward_solve(Fraction(1), Fraction(1), [(Fraction(1), 1, Fraction(1)), tap], Fraction(3))


# ---------------------------------------------------------------------------
# the integer-lattice kernel against its Fraction-exponent oracles

FINE_LATTICES = [13, 3 * 2 ** 32]


def rand_ratfun(rng):
    """Nonzero element of Q(lambda) over one of a few denominators, some
    sharing factors, so that sums meet equal and unequal denominators."""
    num = RatFun(Poly([rand_rational(rng, -3, 3, 2) for _ in range(rng.randint(1, 3))]))
    den = rng.choice((RatFun.const(1), RatFun.const(1), lam - 1, lam + 2, lam * (lam - 1),
                      lam ** 2 + 1))
    return (num or RatFun.const(1)) / den


COEFFS = {"Q": lambda rng: rand_rational(rng, nonzero=True), "Q(lambda)": rand_ratfun}


def lattice_series(rng, D, coeff, n):
    """n terms at exponents a + b/D (a small integer, 0 <= b < 4): on the
    lattice (1/D)Z, with many pairs meeting at each product exponent."""
    grid = [a + Fraction(b, D) for a in range(-2, 4) for b in range(4)]
    return hs([(e, coeff(rng)) for e in rng.sample(grid, n)])


def cap_kind(rng, f, D):
    """f exact (its products can reach a POS top), capped at an off-lattice
    rational, or capped 1/(2D) above one of its exponents, so that a product
    top t has t*D = E + 1/2 with E the sum of a pair that must be formed.
    A one-term f stays an exact monomial (the product's shortcut) or is
    capped above its exponent."""
    if len(f.terms) == 1:
        if rng.random() < 0.5:
            return "monomial", f
        return "capped monomial", cap(f, f.terms[0][0] + Fraction(rng.randint(1, 30), 7))
    kind = rng.choice(("exact", "off-lattice", "half-step"))
    if kind == "off-lattice":
        return kind, cap(f, Fraction(rng.randint(-10, 30), 7))
    if kind == "half-step":
        return kind, cap(f, rng.choice(f.terms[1:])[0] + Fraction(1, 2 * D))
    return kind, f


def q_coeff(rng):
    """Nonzero rational whose denominator is > 1."""
    c = rand_rational(rng, nonzero=True)
    return c if c.denominator > 1 else c + Fraction(1, rng.choice((2, 3, 7)))


def mixed_coeff(rng):
    """A RatFun, or one time in five a Fraction (as a term of a mixed sum)."""
    return q_coeff(rng) if rng.random() < 0.2 else rand_ratfun(rng)


RINGS = sorted(COEFFS) + ["mixed"]


@pytest.mark.parametrize("D", FINE_LATTICES)
@pytest.mark.parametrize("ring", RINGS)
def test_mul_on_fine_lattice_equals_reference(D, ring):
    """hs_mul against reference_mul, coefficient types included, over Q;
    over Q(lambda) the same draws raise (`kernel_or_error`).  In the mixed
    ring each draw pairs a factor over Q, every denominator > 1, with one
    whose coefficients are RatFuns or, one in five, Fractions, in random
    order; either factor may be an exact monomial there, and the kernel
    raises before its shortcut."""
    rng = random.Random(D % 997 + len(ring))
    seen = set()
    for _ in range(120):
        if ring == "mixed":
            f = lattice_series(rng, D, q_coeff, rng.randint(1, 8))
            g = lattice_series(rng, D, mixed_coeff, rng.randint(1, 8))
            if rng.random() < 0.5:
                f, g = g, f
        else:
            f = lattice_series(rng, D, COEFFS[ring], rng.randint(2, 8))
            g = lattice_series(rng, D, COEFFS[ring], rng.randint(2, 8))
        kind_f, f = cap_kind(rng, f, D)
        kind_g, g = cap_kind(rng, g, D)
        want = reference_mul(f, g)
        kernel_or_error(lambda: hs_mul(f, g), want, f, g)
        top = want.mask.ivs[-1][1] if want.mask.ivs else None
        if top == POS:
            seen.add("POS top")
        elif top is not None and (top * D).denominator != 1:
            seen.add("off-lattice top")
        seen |= {kind_f, kind_g}
    kinds = {"POS top", "off-lattice top", "exact", "off-lattice", "half-step"}
    if ring == "mixed":
        kinds |= {"monomial", "capped monomial"}
    assert seen == kinds


def cancelling_pair(rng, n):
    """Coefficients (cs, rs) with cs over Q, every denominator > 1, and
    each r = c * u for one u over Q(lambda): u a RatFun, or a rational
    stored as a Fraction in some terms and as a RatFun in others, so that
    a product's sums meet over one D, or over the Fractions and D = 1."""
    cs = [q_coeff(rng) for _ in range(n)]
    if rng.random() < 0.5:
        u = rand_ratfun(rng)
        return cs, [c * u for c in cs], "D = 1" if u.den.degree == 0 else "D > 1"
    u = q_coeff(rng)
    rs = [c * u if rng.random() < 0.5 else RatFun.const(c * u) for c in cs]
    return cs, rs, "Fractions and D = 1" if len({type(r) for r in rs}) == 2 else "one ring"


@pytest.mark.parametrize("D", FINE_LATTICES)
@pytest.mark.parametrize("ring", RINGS)
def test_mul_drops_coefficient_sums_that_cancel(D, ring):
    """f(z) f(-z) on the variable z**(1/D): every odd coefficient is a sum of
    pairs that cancels to 0 and must not be stored.  In the mixed ring the
    product is f(z) times u f(-z), f over Q and u over Q(lambda) (see
    cancelling_pair), in random order.  Over Q the kernel equals the
    reference; with a RatFun coefficient it raises (`kernel_or_error`), and
    the reference's product still drops every cancelled sum."""
    rng = random.Random(D % 991 + len(ring))
    seen = set()
    for _ in range(30):
        n = rng.randint(2, 7)
        if ring == "mixed":
            cs, rs, kind = cancelling_pair(rng, n)
            seen.add(kind)
        else:
            cs = rs = [COEFFS[ring](rng) for _ in range(n)]
        base = Fraction(rng.randint(-2, 2))
        f = hs([(base + Fraction(i, D), c) for i, c in enumerate(cs)])
        g = hs([(base + Fraction(i, D), c if i % 2 == 0 else -c) for i, c in enumerate(rs)])
        if rng.random() < 0.5:
            g = cap(g, base + Fraction(2 * n - 1, 2 * D))
        if ring == "mixed" and rng.random() < 0.5:
            f, g = g, f
        prod = reference_mul(f, g)
        kernel_or_error(lambda: hs_mul(f, g), prod, f, g)
        assert all(c for _, c in prod.terms)
        assert all(((e - 2 * base) * D) % 2 == 0 for e, _ in prod.terms)
        assert prod.terms
    if ring == "mixed":
        assert {"D = 1", "D > 1", "Fractions and D = 1"} <= seen


def rand_taps(rng, p, D, ring):
    """One to four forward taps with k in {1, p, p**2} and exponents on (1/D)Z:
    0 (for k > 1) or a + b/D with a >= 1, so that the closure of {0} below
    a small cap stays small even on a fine lattice."""
    taps = []
    for _ in range(rng.randint(1, 4)):
        k = rng.choice((1, p, p * p))
        if k > 1 and rng.random() < 0.3:
            e = Fraction(0)
        else:
            e = Fraction(rng.randint(1, 3)) + Fraction(rng.randint(0, 2), D)
        taps.append((e, k, COEFFS[ring](rng)))
    return taps


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("ring", sorted(COEFFS))
def test_forward_solve_equals_reference(p, ring):
    """Over Q, equal to the oracle at a cap on or off the lattice; over
    Q(lambda), a MahlerError."""
    rng = random.Random(50 * p + len(ring))
    seen = set()
    for _ in range(60):
        D = rng.choice([1] + FINE_LATTICES)
        taps = rand_taps(rng, p, D, ring)
        one_, lead = COEFFS[ring](rng), COEFFS[ring](rng)
        seen |= {k for _, k, _ in taps}
        if ring != "Q":
            with pytest.raises(MahlerError, match="runs over Q"):
                rational_forward_solve(one_, lead, taps, Fraction(7))
            continue
        want = reference_forward_solve(one_, lead, taps, Fraction(7))
        if rng.random() < 0.5 and len(want.terms) > 1:
            # 1/(2D) above a reachable exponent: ceil keeps it, floor would not
            cap = rng.choice(want.terms[1:])[0] + Fraction(1, 2 * D)
            seen.add("half-step")
        else:
            cap = Fraction(rng.randint(1, 45), 7)
            seen.add("off-lattice")
        got = rational_forward_solve(one_, lead, taps, cap)
        assert got == reference_forward_solve(one_, lead, taps, cap)
    assert {1, p, p * p} <= seen
    if ring == "Q":
        assert {"half-step", "off-lattice"} <= seen


def fraction_free_events(taps, cap, w):
    """The meetings of the integer recursion on Q, read off a solution w:
    each exponent t below cap receives the depths of its sources in the
    order they settle (depth 0 at exponent 0, else one more than the
    deepest source).  "deeper later" and "shallower later" mark a pending
    sum that meets a contribution deeper or shallower than itself, and
    "cancel" an exponent that receives contributions but settles to 0."""
    depth, received, events = {}, {}, set()
    for g, _ in w.terms:
        depth[g] = 1 + max(received[g]) if g else 0
        for e, k, _ in taps:
            t = k * g + e
            if t < cap and t != g:
                received.setdefault(t, []).append(depth[g])
    for t, ds in received.items():
        for i in range(1, len(ds)):
            top = max(ds[:i])
            if ds[i] != top:
                events.add("deeper later" if ds[i] > top else "shallower later")
        if t not in depth:
            events.add("cancel")
    return events


def test_forward_solve_fraction_free_equals_reference():
    """forward_solve over Q runs on integer numerators over powers of the
    scaled lead ell = Q*lead (Q clearing the denominators of lead and taps);
    every term, the mask and each coefficient's type match the oracle for
    ell = 1, ell = -1 and ell not a unit, across meetings of unequal depth,
    cancelling sums, a start with a denominator and both kinds of cap."""
    rng = random.Random(16)
    seen = set()
    for _ in range(300):
        D = rng.choice((1, 3))
        integral = rng.random() < 0.4

        def coeff():
            if integral:
                return Fraction(rng.choice((-3, -2, -1, 1, 2)))
            return rand_rational(rng, nonzero=True)

        taps = [(e, k, coeff()) for e, k, _ in rand_taps(rng, 2, D, "Q")]
        if rng.random() < 0.3:
            # from exponent 0 both taps reach e, and their terms cancel there
            e, k, a = rng.choice(taps)
            taps.append((e, rng.choice((1, 2, 4)) if e else k, -a))
        if rng.random() < 0.3:
            # exponent 2s + b can hear from b (depth 1) after 2s (depth 2)
            step = Fraction(rng.randint(1, D), D)
            far = 2 * step + Fraction(rng.randint(1, D), D)
            taps += [(e, 1, coeff()) for e in (step, 2 * step, far)]
        lead = rng.choice((Fraction(1), Fraction(-1), coeff()))
        one_ = rng.choice((Fraction(1), rand_rational(rng, nonzero=True)))
        want = reference_forward_solve(one_, lead, taps, Fraction(7))
        if rng.random() < 0.5 and len(want.terms) > 1:
            cap = rng.choice(want.terms[1:])[0] + Fraction(1, 2 * D)
            seen.add("half-step")
        else:
            cap = Fraction(rng.randint(1, 45), 7)
            seen.add("off-lattice")
        got = rational_forward_solve(one_, lead, taps, cap)
        want = reference_forward_solve(one_, lead, taps, cap)
        assert got.terms == want.terms and got.mask == want.mask
        assert all(type(c) is Fraction for _, c in got.terms)
        ell = int(lead * math.lcm(lead.denominator, *(a.denominator for _, _, a in taps)))
        seen.add("ell = %d" % ell if ell in (1, -1) else "ell other")
        if one_.denominator != 1:
            seen.add("one with a denominator")
        events = fraction_free_events(taps, cap, got)
        seen |= events if ell not in (1, -1) else events & {"cancel"}
    assert seen == {"ell = 1", "ell = -1", "ell other", "deeper later", "shallower later",
                    "cancel", "one with a denominator", "half-step", "off-lattice"}


def check_lattice_forms(f):
    """_grid([f]) is reference_grid's, and f's numerators at 1, 2, 3 and 6
    times it are reference_numerators', read through f (whatever lattice
    form it keeps) and through uncached copies whose forms are found on
    the smallest or the largest of those lattices first."""
    M = reference_grid([f])
    assert _grid([f]) == M
    for order in ((1, 2, 3, 6), (6, 3, 2, 1)):
        copy = HahnSeries(f.terms, f.mask)
        for k in order:
            want = reference_numerators(f, k * M)
            same_lattice_form(_numerators(f, k * M), want)
            same_lattice_form(_numerators(copy, k * M), want)


def test_lattice_forms_match_the_references(monkeypatch):
    """Random series with holed or capped masks, their sums, products and
    inverses; `_series(M, part, d)` of random capped series, whose mask
    head may hold no term on either side of 0, against `reference_series`
    and HahnSeries.shift; and every series `_series` builds while solving
    the ladders, the README example and the first 20 criterion-3
    operators (the unit solutions h, the leftovers a, their inverses, the
    triangular solve's x and the residuals), against `reference_series`.
    The lattice and numerators of each match `check_lattice_forms`; an x
    over Q(lambda) keeps no form, so only its lattice is compared."""
    rng = random.Random(331)
    for _ in range(150):
        f = holed(rng, rand_series(rng, 5), rng.randint(-1, 3))
        g = rand_series(rng, 5)
        if rng.random() < 0.5:
            g = cap(g, Fraction(rng.randint(-2, 12), rng.choice((1, 2, 5))))
        for h in (f, g, hs_sum([f, g]), hs_mul(f, g), rand_series(rng).invert(Fraction(7, 3))):
            check_lattice_forms(h)
    heads = set()
    for _ in range(300):
        f = cap(holed(rng, rand_series(rng, 5), rng.randint(0, 2)),
                Fraction(rng.randint(-8, 12), rng.choice((1, 2, 3))))
        M = reference_grid([f]) * rng.choice((1, 2, 5))
        d = rng.randint(-3 * M, 3 * M)
        if not f.mask.empty:
            hi = f.mask.first_gap()
            heads.add("term" if f.terms and f.terms[0][0] < hi else "hi > 0" if hi > 0 else
                      "hi <= 0")
        part = reference_numerators(f, M)
        built = hahn._series(M, part, d)
        assert built == reference_series(M, part, d) == f.shift(Fraction(d, M))
        check_lattice_forms(built)
    assert heads == {"term", "hi > 0", "hi <= 0"}
    built, real = [], hahn._series

    def series(*args):
        built.append((args, real(*args)))
        return built[-1][1]
    rebind(monkeypatch, real, series)
    cases = [(L, 32, 32) for L in (ladder_operator(2, -2), ladder_operator(3, -3),
                                   elaborate(parse_spec(EXAMPLE), 32))]
    rng = random.Random(2026)
    cases += [(rand_factored_operator(rng, Fraction(3))[0], 3, 2) for _ in range(20)]
    for L, ceiling, depth in cases:
        assert frobenius_basis(L, ceiling, depth, verify=True).verification["ok"]
    kinds = set()
    for args, f in built:
        assert f == reference_series(*args)
        over_q = not f.terms or type(f.terms[0][1]) is Fraction
        kinds.add((over_q, len(args) > 2 and bool(args[2])))
        if over_q:
            check_lattice_forms(f)
        else:
            assert _grid([f]) == reference_grid([f])
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert len(built) > 400
