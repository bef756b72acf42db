"""Classic Mahler functions as independent oracles.

Each equation below has a power-series solution whose coefficients come from
a combinatorial definition that no mahler code computes.  The CLI run (at
precision 64, depth 4, with --verify --json) must verify, and its
power-series solution, divided by its constant term, must equal the
definition for every n < 64 with the mask [0, 64).
"""
import json
from fractions import Fraction

import pytest

from mahler.cli import main

PRECISION = 64


def thue_morse(n):
    """(-1)**(binary digit sum of n)."""
    return (-1) ** bin(n).count("1")


def stern(n):
    """s(n + 1), with s(0) = 0, s(1) = 1, s(2m) = s(m), s(2m+1) = s(m) + s(m+1)."""
    s = [0, 1]
    for m in range(2, n + 2):
        s.append(s[m // 2] if m % 2 == 0 else s[m // 2] + s[m // 2 + 1])
    return s[n + 1]


def rudin_shapiro(n):
    """(-1)**(number of, possibly overlapping, blocks 11 in binary n)."""
    return (-1) ** bin(n & (n >> 1)).count("1")


def thue_morse_3(n):
    """Coefficient of z**n in the product of (1 - z**(3**k)) over k >= 0,
    expanded by integer polynomial multiplication below z**PRECISION."""
    poly, k = [1] + [0] * (PRECISION - 1), 1
    while k < PRECISION:
        poly = [c - (poly[i - k] if i >= k else 0) for i, c in enumerate(poly)]
        k *= 3
    return poly[n]


CLASSICS = {
    "thue-morse": ("p = 2\na[0] = -1\na[1] = 1 - z\n", thue_morse),
    "stern": ("p = 2\na[0] = -1\na[1] = 1 + z + z^2\n", stern),
    "rudin-shapiro": ("p = 2\na[0] = -1\na[1] = 1 - z\na[2] = 2*z\n", rudin_shapiro),
    "thue-morse-3": ("p = 3\na[0] = -1\na[1] = 1 - z\n", thue_morse_3),
}


@pytest.mark.parametrize("name", sorted(CLASSICS))
def test_power_series_solution_equals_its_definition(name, tmp_path, capsys):
    text, coeff = CLASSICS[name]
    f = tmp_path / "eq.txt"
    f.write_text(text)
    rc = main([str(f), "--precision", str(PRECISION), "--depth", "4", "--verify", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["verification"]["ok"] is True
    # the power-series solution: one part, exponent c = 1, no logarithm
    sols = [sol for block in data["blocks"] for sol in block["solutions"]
            if [part["c"] for part in sol] == ["1"]]
    assert len(sols) == 1 and [t["u"] for t in sols[0][0]["terms"]] == [0]
    series = sols[0][0]["terms"][0]["series"]
    terms = {Fraction(t["exp"]): Fraction(t["coeff"]) for t in series["terms"]}
    assert set(terms) <= set(range(PRECISION))
    assert [terms.get(n, 0) / terms[0] for n in range(PRECISION)] == \
        [coeff(n) for n in range(PRECISION)]
    assert series["mask"] == [{"lo": "0", "hi": str(PRECISION)}]
