"""Classic Mahler functions as independent oracles.

Each equation below has a power-series solution whose coefficients come from
a combinatorial definition that no mahler code computes.  The CLI run (at
precision 64, depth 4, with --verify --json) must verify, and its
power-series solution, divided by its constant term, must equal the
definition for every n < 64 with the mask [0, 64).  Thue-Morse and Stern are
checked the same way at precision 1024.  The homogenized Fredholm equation
is checked on the exponents its masks certify.
"""
import json
import math
from fractions import Fraction
from pathlib import Path

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


def run_cli(text, tmp_path, capsys, precision=PRECISION):
    """The --verify --json report of the CLI at the precision, depth 4; it
    must exit 0 and verify."""
    f = tmp_path / "eq.txt"
    f.write_text(text)
    rc = main([str(f), "--precision", str(precision), "--depth", "4", "--verify", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["verification"]["ok"] is True
    return data


def test_readme_thue_morse_example_prints_its_line(tmp_path, capsys):
    """README's worked example: the solution line it quotes is the one the
    CLI prints at precision 16, and the run verifies."""
    f = tmp_path / "thue-morse.txt"
    f.write_text(CLASSICS["thue-morse"][0])
    assert main([str(f), "--precision", "16", "--verify"]) == 0
    out = capsys.readouterr().out.splitlines()
    [line] = [line for line in out if line.startswith("y[")]
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert line in readme.read_text(encoding="utf-8").splitlines()
    assert "verification: ok" in out


def assert_power_series_solution(data, coeff, precision):
    """The report's power-series solution, divided by its constant term,
    equals coeff(n) for every n < precision, with the mask [0, precision)."""
    # the power-series solution: one part, exponent c = 1, no logarithm
    sols = [sol for block in data["blocks"] for sol in block["solutions"]
            if [part["c"] for part in sol] == ["1"]]
    assert len(sols) == 1 and [t["u"] for t in sols[0][0]["terms"]] == [0]
    series = sols[0][0]["terms"][0]["series"]
    terms = {Fraction(t["exp"]): Fraction(t["coeff"]) for t in series["terms"]}
    assert set(terms) <= set(range(precision))
    assert [terms.get(n, 0) / terms[0] for n in range(precision)] == \
        [coeff(n) for n in range(precision)]
    assert series["mask"] == [{"lo": "0", "hi": str(precision)}]


@pytest.mark.parametrize("name", sorted(CLASSICS))
def test_power_series_solution_equals_its_definition(name, tmp_path, capsys):
    text, coeff = CLASSICS[name]
    assert_power_series_solution(run_cli(text, tmp_path, capsys), coeff, PRECISION)


@pytest.mark.parametrize("name", ["stern", "thue-morse"])
def test_power_series_solution_at_precision_1024(name, tmp_path, capsys):
    """The sparse high-precision regime, where most of the time goes to the
    product of the unit h over Q by the solution over Q(lambda)."""
    text, coeff = CLASSICS[name]
    assert_power_series_solution(run_cli(text, tmp_path, capsys, 1024), coeff, 1024)


def certifies(mask, x):
    """Whether a JSON mask certifies the exponent x: below the end of its
    first interval (no support lies below that interval) or inside a later
    one."""
    ivs = [(Fraction(iv["lo"]), math.inf if iv["hi"] == "inf" else Fraction(iv["hi"]))
           for iv in mask]
    return bool(ivs) and (x < ivs[0][1] or any(lo <= x < hi for lo, hi in ivs[1:]))


def certified_terms(series):
    """{exponent: coefficient} of a JSON series on its certified exponents."""
    terms = {Fraction(t["exp"]): Fraction(t["coeff"]) for t in series["terms"]}
    return {e: c for e, c in terms.items() if certifies(series["mask"], e)}


def test_fredholm_solutions_on_their_certified_exponents(tmp_path, capsys):
    """F = sum of z**(2**k) over k >= 0 satisfies phi F - F = -z, so
    phi**2 F - (1 + z) phi F + z F = 0, whose solutions are F (up to a
    constant factor) and the constant 1.  Only certified exponents are
    compared, so wider masks keep the test valid."""
    data = run_cli("p = 2\na[0] = z\na[1] = -(1 + z)\na[2] = 1\n", tmp_path, capsys)
    sols = [sol for block in data["blocks"] for sol in block["solutions"]]
    assert len(sols) == 2 and all([part["c"] for part in sol] == ["1"] for sol in sols)
    parts = [{t["u"]: t["series"] for t in sol[0]["terms"]} for sol in sols]
    fred = [p for p in parts if min(certified_terms(p[0]), default=None) == 1]
    const = [p for p in parts if p not in fred]
    assert len(fred) == 1 and len(const) == 1
    # the solution of valuation 1, divided by its z**1 coefficient, is F
    series = fred[0][0]
    terms = certified_terms(series)
    assert all(certifies(series["mask"], n) for n in range(PRECISION))
    assert {e: c / terms[1] for e, c in terms.items() if e < PRECISION} == \
        {Fraction(2) ** k: 1 for k in range(6)}
    # the other is the constant 1 on l[1,0], with no l[1,1] term
    low, log = const[0][0], const[0].get(1)
    assert certified_terms(low) == {0: 1}
    assert all(certifies(low["mask"], n) for n in range(PRECISION - 1))
    assert log is None or certified_terms(log) == {}
