"""Random factored operators for the CLI self-test and the benchmark corpus."""
from fractions import Fraction

from .factorize import Factorization, FirstOrderFactor, factor_reconstruct
from .hahn import hs


def rand_rational(rng, lo=-6, hi=6, max_den=4, nonzero=False):
    while True:
        q = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if q or not nonzero:
            return q


def rand_tangent_unit(rng, terms=5):
    """1 plus a finitely supported tail of positive exponents."""
    t = {Fraction(0): Fraction(1)}
    for _ in range(rng.randint(0, terms - 1)):
        e = Fraction(rng.randint(1, 8), rng.randint(1, 3))
        t[e] = rand_rational(rng, nonzero=True)
    return hs(sorted(t.items()))


_CS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3),
       Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]


def rand_factored_operator(rng, ceiling, max_order=4):
    """Operator built as a * product of (z^nu phi - c) h^-1 factors.

    The slope data is drawn so that the Newton polygon of the product has
    the prescribed slopes: distinct ascending mu_j, nu_j from the exponent
    ladder recursion; p is 2 or 3 and each unit h has up to five terms.
    Returns (operator, factorization).
    """
    p = rng.choice((2, 3))
    n = rng.choice([1, 1, 2, 2, 3, max_order])
    sizes = []
    left = n
    while left:
        r = rng.randint(1, left)
        sizes.append(r)
        left -= r
    mu = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
    nus = [(p - 1) * mu]
    acc = mu
    weight = 1
    for r in sizes[:-1]:
        weight *= p ** r
        acc += weight * Fraction(rng.randint(1, 2), rng.choice([1, 2]))
        nus.append((p - 1) * acc)
    layers = []
    for j, r in enumerate(sizes):
        layers.append(tuple(
            FirstOrderFactor(nus[j], rng.choice(_CS), rand_tangent_unit(rng))
            for _ in range(r)))
    a = rand_tangent_unit(rng, 3).scale(rand_rational(rng, nonzero=True))
    a = a.shift(Fraction(rng.randint(-1, 1)))
    fact = Factorization(p, a, tuple(layers))
    return factor_reconstruct(fact, ceiling), fact
