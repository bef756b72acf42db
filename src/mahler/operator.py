"""Mahler operators: noncommutative polynomials in phi_p with Hahn-series
coefficients, phi_p acting by z -> z**p.  No gauge transform is a method."""
from .errors import ZeroDivisor
from .hahn import hs_mul, hs_sum, zero

_Z = zero()


class MahlerOperator:
    """sum_i a_i phi**i acting on series as sum_i a_i * phi**i(f).

    Coefficients are HahnSeries; only nonnegative powers of phi are stored.
    Interior coefficients may be zero; analysis entry points additionally
    require certified nonzero a_0 and a_n.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        if p < 2:
            raise ValueError("radix must be >= 2")
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_exact_zero():
            coeffs.pop()
        self.p = p
        self.coeffs = tuple(coeffs) if coeffs else (_Z,)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def apply(self, f):
        # the sum starts from the exact zero, so a lone product is rebuilt
        # into canonical form too
        return hs_sum([_Z] + [hs_mul(ai, f.mal(i, self.p)) for i, ai in enumerate(self.coeffs)
                              if not ai.is_exact_zero()])

    def __mul__(self, other):
        """Operator composition (self after other), with the Mahler twist."""
        p = self.p
        n = self.order + other.order
        out = [_Z] * (n + 1)
        for i, ai in enumerate(self.coeffs):
            if ai.is_exact_zero():
                continue
            for j, bj in enumerate(other.coeffs):
                if bj.is_exact_zero():
                    continue
                out[i + j] = out[i + j] + hs_mul(ai, bj.mal(i, p))
        return MahlerOperator(p, out)

    def right_divide(self, other, ceiling):
        """Euclidean division self = Q * other + R with order(R) < order(other).

        The divisor's leading coefficient is inverted at `ceiling`.
        """
        p = self.p
        bcs = other.coeffs  # ends in an exact zero only for the zero operator
        if bcs[-1].is_exact_zero():
            raise ZeroDivisor("right division by the zero operator")
        s = len(bcs) - 1
        btop_inv = bcs[-1].invert(ceiling)
        work = list(self.coeffs)
        qlen = len(work) - 1 - s
        if qlen < 0:
            return MahlerOperator(p, [_Z]), self
        quo = [_Z] * (qlen + 1)
        for d in range(len(work) - 1, s - 1, -1):
            cd = work[d]
            if cd.is_exact_zero():
                continue
            qd = hs_mul(cd, btop_inv.mal(d - s, p))
            quo[d - s] = qd
            for j in range(s):
                work[d - s + j] = work[d - s + j] - hs_mul(qd, bcs[j].mal(d - s, p))
        rem = work[:s] if s else [_Z]
        return MahlerOperator(p, quo), MahlerOperator(p, rem)

    def __repr__(self):
        parts = []
        for i in range(self.order, -1, -1):
            if not self.coeffs[i].is_zero() or i == 0:
                parts.append("[%r]*phi^%d" % (self.coeffs[i], i))
        return " + ".join(parts)

