"""Input language, elaboration, pipeline driver and command entry point."""
import errno
import hashlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import mahler
from conftest import eq_on_mask, lam, reference_add, replace
from mahler.cli import elaborate, expr_str, main, parse_spec, render_pretty, run_pipeline
from mahler.errors import (InsufficientPrecision, MahlerError, NonRationalExponentLiteral,
                           ParseError, ZeroDivisor, VerificationError)
from mahler.frobenius import SolutionObject
from mahler.hahn import hs, hs_mul, monomial, one

EXAMPLE = (
    "p = 2\n"
    "a[0] = z^(-2) / (1 + z^2)\n"
    "a[1] = -(1 / (1 + z^4) + z^(-2))\n"
    "a[2] = 1 / (1 + z^4)\n"
)

PHI_MINUS_ONE = "p = 2\na[0] = -1\na[1] = 1\n"
# valid, but precision 3 or 6 leaves the leading term of g_{1/2,0} uncertified
LOW_PRECISION = "p = 2\na[0] = -z^6\na[1] = 2*z^(-1)\na[2] = z^(-1)/2 - 3/4\n"
IRRATIONAL = "p = 2\na[0] = 1\na[2] = 1\n"
DENSE = "p = 2\na[0] = 1/(1+z^(1/13))\na[1] = -1\n"
SRC = os.path.dirname(os.path.dirname(os.path.abspath(mahler.__file__)))
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_parse_example_and_round_trip():
    spec = parse_spec(EXAMPLE)
    assert spec.p == 2 and spec.order == 2
    assert all(e is not None for e in spec.coeffs)
    printed = "p = %d\n" % spec.p + "".join(
        "a[%d] = %s\n" % (i, expr_str(e)) for i, e in enumerate(spec.coeffs) if e is not None)
    assert printed == EXAMPLE
    assert parse_spec(printed) == spec


def test_parse_layout_freedom():
    text = (
        "# an order-2 equation\n"
        "p=2\n"
        "\n"
        "a[2] = 1/(1+z^4)\n"
        "a[0] = z^-2/(1+z^2)   # bare negative exponent\n"
        "a[1] = -(1/(1+z^4)+z^(-2))\n"
    )
    assert parse_spec(text) == parse_spec(EXAMPLE)


def test_parse_error_position():
    with pytest.raises(ParseError) as ei:
        parse_spec("p = 2\na[0] = z^^2\na[1] = 1\n")
    assert (ei.value.line, ei.value.col) == (2, 10)
    assert "line 2, col 10" in str(ei.value)


@pytest.mark.parametrize("text", [
    "a[0] = 1\na[1] = z\n",
    "p = 1\na[0] = 1\na[1] = z\n",
    "p = 2\n",
    "p = 2\na[0] = 1\n",
    "p = 2\na[1] = z\n",
    "p = 2\na[0] = 0\na[1] = z\n",
    "p = 2\na[0] = 1\na[0] = 2\na[1] = z\n",
    "p = 2\nq = 3\na[0] = 1\na[1] = z\n",
    "p = 2\na[0] = y\na[1] = 1\n",
    "p = 2\na[0] = 1 +\na[1] = z\n",
    "p = 2\na[0] = z^(3/0)\na[1] = 1\n",
])
def test_parse_rejections(text):
    with pytest.raises(ParseError):
        parse_spec(text)


@pytest.mark.parametrize("bad", ["z^(z)", "z^(1+1)", "z^(1/2/3)"])
def test_non_rational_exponent_literals(bad):
    with pytest.raises(NonRationalExponentLiteral):
        parse_spec("p = 2\na[0] = %s\na[1] = 1\n" % bad)


def test_exponent_forms_elaborate_exactly():
    spec = parse_spec("p = 2\na[0] = z^(-1/2)\na[1] = z^3 * z^-2\n")
    L = elaborate(spec, 8)
    assert L.coeffs[0] == monomial(Fraction(-1, 2))
    assert L.coeffs[1] == monomial(1)


def test_expr_str_keeps_structure():
    spec = parse_spec("p = 2\na[0] = -(-1)\na[1] = 1 - (2 - 3) * z\n")
    assert spec.coeffs[0] == (("num", Fraction(1)), ("neg", None), ("neg", None))
    assert expr_str(spec.coeffs[0]) == "-(-1)"
    e = spec.coeffs[1]
    assert e == (("num", Fraction(1)), ("num", Fraction(2)), ("num", Fraction(3)), ("-", None),
                 ("z", Fraction(1)), ("*", None), ("-", None))
    assert expr_str(e) == "1 - (2 - 3) * z"


def test_elaborate_inverts_series():
    spec = parse_spec("p = 2\na[0] = (1 + z) / (1 + z)\na[1] = 1 / (1 + z^2)\n")
    L = elaborate(spec, 8)
    eq, common = eq_on_mask(L.coeffs[0], one())
    assert eq and common.certifies(0) and common.certifies(7)
    back = hs_mul(L.coeffs[1], hs([(0, 1), (2, 1)]))
    eq, common = eq_on_mask(back, one())
    assert eq and not common.empty


def test_elaborate_division_by_zero():
    spec = parse_spec("p = 2\na[0] = 1 / 0\na[1] = z\n")
    with pytest.raises(ZeroDivisor):
        elaborate(spec, 8)


def test_pipeline_on_example():
    report, code, out = run_pipeline(parse_spec(EXAMPLE), Fraction(8), 8,
                                     verify=True)
    assert code == 0 and not out.partial
    assert list(report) == ["spec", "p", "newton", "plan", "factorization",
                            "blocks", "partial", "verification"]
    assert report["spec"]["coefficients"] == [
        "z^(-2) / (1 + z^2)",
        "-(1 / (1 + z^4) + z^(-2))",
        "1 / (1 + z^4)",
    ]
    assert report["newton"]["slopes"] == [{"mu": "0", "r": 1},
                                          {"mu": "1", "r": 1}]
    assert report["plan"] == {
        "val_a0": "-2",
        "slopes": [{"nu": "0", "exponents": [{"c": "1", "m": 1, "s": 0}]},
                   {"nu": "2", "exponents": [{"c": "1", "m": 1, "s": 1}]}],
    }
    assert len(report["blocks"]) == 2
    assert report["verification"]["ok"] is True


def test_pipeline_first_order():
    report, code, out = run_pipeline(parse_spec(PHI_MINUS_ONE), Fraction(8), 8, verify=True)
    assert code == 0 and len(out.solutions) == 1
    (block,) = report["blocks"]
    (sol,) = block["solutions"]
    assert sol[0]["c"] == "1"
    assert sol[0]["terms"][0]["u"] == 0
    series = sol[0]["terms"][0]["series"]
    assert series["terms"] == [{"exp": "0", "coeff": "1"}]
    assert series["mask"] == [{"lo": "0", "hi": "8"}]


def test_pipeline_partial():
    report, code, out = run_pipeline(parse_spec(IRRATIONAL), Fraction(8), 8, verify=False)
    assert code == 3 and report["partial"] is True
    assert report["blocks"] == []
    assert report["verification"]["reason"] == "non-rational exponents"
    assert "PARTIAL BASIS" in render_pretty(out)


def test_main_json_file(tmp_path, capsys):
    f = tmp_path / "eq.txt"
    f.write_text(EXAMPLE)
    rc = main([str(f), "--json", "--verify"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verification"]["ok"] is True
    assert data["spec"]["p"] == 2


def test_main_precision_flag(tmp_path, capsys):
    f = tmp_path / "eq.txt"
    f.write_text(PHI_MINUS_ONE)
    rc = main([str(f), "--precision", "4", "--depth", "4", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    series = data["blocks"][0]["solutions"][0][0]["terms"][0]["series"]
    assert series["mask"] == [{"lo": "0", "hi": "4"}]


def test_main_pretty_report(tmp_path, capsys):
    f = tmp_path / "eq.txt"
    f.write_text(EXAMPLE)
    rc = main(["analyze", str(f), "--verify"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "Newton vertices:" in text
    assert "slope mu_1 = 0 (mult 1)" in text
    assert "slope mu_2 = 1 (mult 1)" in text
    assert "chi = " in text
    assert "y[c=1, j=1, m=0]" in text
    assert "residual check: ok" in text
    assert "independence check: ok" in text
    assert "verification: ok" in text


def test_main_without_verify_reports_unverified(tmp_path, capsys):
    f = tmp_path / "eq.txt"
    f.write_text(PHI_MINUS_ONE)
    assert main([str(f)]) == 0
    assert "verification: not verified" in capsys.readouterr().out


def test_main_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(PHI_MINUS_ONE))
    assert main(["analyze", "-"]) == 0
    assert "y[c=1" in capsys.readouterr().out


def test_main_stdin_bytes_are_decoded_as_a_file_is(monkeypatch, capsys):
    """stdin's byte buffer goes through the same UTF-8 decode as a file, so a
    bad byte gets one diagnosis whatever error handler stdin was opened with."""
    bad = b"p = 2\na[0] = 1\na[1] = \xff\n"
    for data, code in ((PHI_MINUS_ONE.encode(), 0), (bad, 2)):
        for errors in ("strict", "surrogateescape"):
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
            monkeypatch.setattr("sys.stdin", stdin)
            assert main(["analyze", "-"]) == code
            out, err = capsys.readouterr()
            if code:
                assert (out, err) == ("", "error [ParseError]: line 3, col 8: "
                                          "input is not UTF-8 text\n")
            else:
                assert "y[c=1" in out


def test_main_partial_exit_code(tmp_path, capsys):
    f = tmp_path / "eq.txt"
    f.write_text(IRRATIONAL)
    rc = main([str(f)])
    assert rc == 3
    assert "PARTIAL BASIS" in capsys.readouterr().out


def test_main_input_error_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("p = 2\na[0] = z^^2\na[1] = 1\n")
    assert main([str(bad)]) == 2
    assert "error [ParseError]" in capsys.readouterr().err
    assert main([str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()
    assert main([str(bad), "--json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["error"]["type"] == "ParseError"
    assert data["error"]["line"] == 2


@pytest.mark.parametrize("text, line, col, message", [
    ("p = 2\na[0] = 1 $ z\na[1] = 1\n", 2, 10, "unexpected character '$'"),
    ("p = 2 3\na[0] = 1\na[1] = 1\n", 1, 7, "expected EOL, found '3'"),
    ("p = 2\n3 = 1\na[1] = 1\n", 2, 1, "expected 'p = ...' or 'a[i] = ...'"),
    ("p = 1\na[0] = 1\na[1] = z\n", 1, 5, "p must be an integer >= 2"),
    # digits that str.isdigit accepts and int() does not read
    ("p = 2\na[0] = 1 + \u00b2\na[1] = 1\n", 2, 12,
     "invalid literal for int() with base 10: '\u00b2'"),
    ("p = 2\na[0] = %s\na[1] = 1\n" % ("7" * 5000), 2, 8, "Exceeds the limit (4300 digits)"),
    # checked once every key is read: a zero end points at its own key, a
    # missing a[0] at the a[n] key, and order 0 at the a[0] key
    ("p = 2\na[0] = 0\na[1] = z\n", 2, 1, "a[0] and a[1] must be present and nonzero"),
    ("p = 2\na[0] = 1\n  a[3] = 0\n", 3, 3, "a[0] and a[3] must be present and nonzero"),
    ("p = 2\na[1] = z\n  a[3] = 1\n", 3, 3, "a[0] and a[3] must be present and nonzero"),
    ("p = 2\na[0] = 5\n", 2, 1, "the equation must have order at least 1"),
    # errors of the whole input have no position
    ("a[0] = 1\na[1] = 1\n", None, None, "missing 'p = ...' line"),
    ("p = 2\n", None, None, "no coefficients given"),
], ids=["character", "token", "key", "radix", "digit", "digit count", "zero a[0]",
        "zero a[n]", "missing a[0]", "order 0", "missing p", "no coefficients"])
def test_main_reports_parse_errors_at_their_position(tmp_path, capsys, text, line, col, message):
    f = tmp_path / "eq.txt"
    f.write_text(text, encoding="utf-8")
    assert main([str(f)]) == 2
    err = capsys.readouterr().err
    if line is None:
        assert err == "error [ParseError]: %s\n" % message
    else:
        assert err.startswith("error [ParseError]: line %d, col %d: " % (line, col))
        assert message in err
    assert main([str(f), "--json"]) == 2
    info = json.loads(capsys.readouterr().out)["error"]
    assert (info["type"], info["line"], info["col"]) == ("ParseError", line, col)
    assert message in info["message"]


def test_main_rejects_a_coefficient_that_cancels_to_uncertified(tmp_path, capsys):
    """a_0 cancels below every ceiling: the program cannot tell it from a
    coefficient whose first term lies above the ceiling, so it reports too
    low a precision (exit 4), naming the first gap of its mask."""
    f = tmp_path / "eq.txt"
    f.write_text("p = 2\na[0] = 1/(1+z) - 1/(1+z)\na[1] = 1\n")
    message = "a_0 has no certified leading term: its mask has its first gap at 8; " \
              "raise the precision"
    assert main([str(f)]) == 4
    assert capsys.readouterr().err == "error [InsufficientPrecision]: %s\n" % message
    assert main([str(f), "--json"]) == 4
    info = json.loads(capsys.readouterr().out)["error"]
    assert info == {"type": "InsufficientPrecision", "message": message}


@pytest.mark.parametrize("text, message", [
    ("a[1] = 1/(z-z^2)",
     "a_1 has no certified leading term: its mask has its first gap at -1"),
    ("a[1] = 1/(1/(z-z^2))",
     "cannot invert a series with no certified leading term: its mask has its first gap at -1"),
    ("a[1] = 1/(z-z^2)\na[2] = 1",
     "coefficient 1 might dip below the certified polygon: its mask has its first gap at -1"),
], ids=["a_n", "inverse", "interior floor"])
def test_main_reports_valid_input_at_too_low_a_precision(tmp_path, capsys, text, message):
    """Valid input whose coefficient looks like 0 below the ceiling exits 4
    (too low a precision) at precision 1, in text and JSON, and solves at
    precision 3; an exact zero a_0 or a_n, or a division by one, is invalid
    input (exit 2)."""
    f = tmp_path / "eq.txt"
    f.write_text("p = 2\na[0] = 1\n%s\n" % text)
    message += "; raise the precision"
    assert main([str(f), "--precision", "1", "--depth", "3", "--verify"]) == 4
    assert capsys.readouterr() == ("", "error [InsufficientPrecision]: %s\n" % message)
    assert main([str(f), "--precision", "1", "--depth", "3", "--verify", "--json"]) == 4
    info = json.loads(capsys.readouterr().out)["error"]
    assert info == {"type": "InsufficientPrecision", "message": message}
    assert main([str(f), "--precision", "3", "--depth", "3", "--verify", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["ok"] is True
    for bad, kind in (("a[0] = 1/0\na[1] = 1", "ZeroDivisor"),
                      ("a[0] = 1\na[1] = z - z", "ZeroSeries")):
        f.write_text("p = 2\n%s\n" % bad)
        for precision in ("1", "3"):
            assert main([str(f), "--precision", precision]) == 2
            assert capsys.readouterr().err.startswith("error [%s]" % kind)


def test_main_names_an_uncertified_coefficient_on_a_newton_edge(tmp_path, capsys):
    """a_1 cancels to a floor whose mask stops at exponent 8, on the edge of
    slope 8: the error names a_1's own exponent, not its position 0 in the
    gauged frame.  The input is valid and precision 9 certifies the
    coefficient, so it is reported as too low a precision (exit 4)."""
    f = tmp_path / "eq.txt"
    f.write_text("p = 2\na[0] = 1\na[1] = 1/(1+z) - 1/(1+z)\na[2] = z^24\n")
    message = "coefficient of a_1 at exponent 8, on the Newton edge of slope 8, is not certified"
    assert main([str(f), "--precision", "8"]) == 4
    assert capsys.readouterr() == ("", "error [InsufficientPrecision]: %s\n" % message)
    assert main([str(f), "--precision", "8", "--json"]) == 4
    info = json.loads(capsys.readouterr().out)["error"]
    assert info == {"type": "InsufficientPrecision", "message": message}


@pytest.mark.parametrize("top", ["1 - 1", "0*z", "z - z"])
def test_main_rejects_a_top_coefficient_that_cancels_to_zero(tmp_path, capsys, top):
    f = tmp_path / "eq.txt"
    f.write_text("p = 2\na[0] = 1\na[1] = %s\n" % top)
    assert main([str(f), "--verify"]) == 2
    assert capsys.readouterr() == ("", "error [ZeroSeries]: a[1] is the exact zero\n")
    assert main([str(f), "--verify", "--json"]) == 2
    info = json.loads(capsys.readouterr().out)["error"]
    assert info == {"type": "ZeroSeries", "message": "a[1] is the exact zero"}


@pytest.mark.parametrize("data, position", [
    (None, None),
    ("directory", None),
    (b"p = 2\na[0] = 1\na[1] = \xff\n", (3, 8)),
    # columns count characters, and \r\n is one line break
    ("p = 2\r\na[0] = 1 # \u00e9\r\n\u00e9 ".encode() + b"\xfe\n", (3, 3)),
], ids=["missing", "directory", "not utf-8", "not utf-8 after crlf and multibyte"])
def test_main_reports_unreadable_input_with_its_full_message(tmp_path, capsys, data, position):
    path = tmp_path / "eq.txt"
    if data is None:
        want = ("FileNotFoundError", "[Errno %d] %s: %r"
                % (errno.ENOENT, os.strerror(errno.ENOENT), str(path)))
    elif data == "directory":
        path.mkdir()
        want = ("IsADirectoryError", "[Errno %d] %s: %r"
                % (errno.EISDIR, os.strerror(errno.EISDIR), str(path)))
    else:
        path.write_bytes(data)
        want = ("ParseError", "input is not UTF-8 text")
    assert main([str(path)]) == 2
    prefix = "line %d, col %d: " % position if position else ""
    assert capsys.readouterr() == ("", "error [%s]: %s%s\n" % (want[0], prefix, want[1]))
    assert main([str(path), "--json"]) == 2
    info = json.loads(capsys.readouterr().out)["error"]
    if position:
        assert (info.pop("line"), info.pop("col")) == position
    assert info == {"type": want[0], "message": want[1]}


def _str_digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_main_renders_integers_beyond_the_str_digit_limit(tmp_path, capsys):
    """The tokenizer reads a 3,000-digit literal; its square has 6,000 digits,
    more than str() converts by default, and is reported exactly."""
    digits = "7" * 3000
    f = tmp_path / "eq.txt"
    f.write_text("p = 2\na[0] = %s * %s\na[1] = 1\n" % (digits, digits))
    limit = _str_digit_limit()
    assert main([str(f), "--verify", "--json"]) == 0
    assert _str_digit_limit() == limit
    report = json.loads(capsys.readouterr().out)
    assert report["verification"]["ok"] is True
    assert main([str(f), "--verify"]) == 0
    assert _str_digit_limit() == limit
    text = capsys.readouterr().out
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    set_limit(0)
    try:
        square = str(int(digits) ** 2)
    finally:
        set_limit(limit)
    assert report["newton"]["charpolys"][0][0] == square
    assert "chi = X + %s;" % square in text


def test_long_sum_verifies_and_round_trips(tmp_path, capsys):
    """A 2,000-term chain is evaluated and printed without recursing down it."""
    f = tmp_path / "eq.txt"
    f.write_text("p = 2\na[0] = %s\na[1] = 1\n" % " + ".join(["z"] * 2000))
    assert main([str(f), "--verify", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verification"]["ok"] is True
    text = report["spec"]["coefficients"][0]
    assert text == " + ".join(["z"] * 2000)
    again = parse_spec("p = 2\na[0] = %s\na[1] = 1\n" % text)
    assert expr_str(again.coeffs[0]) == text
    assert elaborate(again, 8).coeffs[0] == monomial(1, 2000)


def test_deep_nesting_parses(tmp_path, capsys):
    """5,000 parentheses around z parse, verify and print as z."""
    f = tmp_path / "eq.txt"
    f.write_text("p = 2\na[0] = %sz%s\na[1] = 1\n" % ("(" * 5000, ")" * 5000))
    assert main([str(f), "--verify", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verification"]["ok"] is True
    assert report["spec"]["coefficients"][0] == "z"


@pytest.mark.parametrize("n", [985, 3000])
def test_long_unary_minus_chain_verifies(tmp_path, capsys, n):
    """n leading minus signs are one loop in the parser, the evaluator and
    the printer; no depth limit applies to them."""
    text = "p = 2\na[0] = %sz\na[1] = 1\n" % ("-" * n)
    f = tmp_path / "eq.txt"
    f.write_text(text)
    assert main([str(f), "--verify", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verification"]["ok"] is True
    spec = parse_spec(text)
    assert elaborate(spec, 8).coeffs[0] == monomial(1, (-1) ** n)
    printed = report["spec"]["coefficients"][0]
    assert printed == "-(" * (n - 1) + "-z" + ")" * (n - 1)
    assert parse_spec("p = 2\na[0] = %s\na[1] = 1\n" % printed) == spec


def test_p_given_twice_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "eq.txt"
    f.write_text("p = 2\na[0] = 1\na[1] = 1\np = 3\n")
    assert main([str(f)]) == 2
    assert capsys.readouterr() == ("", "error [ParseError]: line 4, col 1: p given twice\n")
    assert main([str(f), "--json"]) == 2
    info = json.loads(capsys.readouterr().out)["error"]
    assert info == {"type": "ParseError", "message": "p given twice",
                    "line": 4, "col": 1}


_ATOMS = ["0", "1", "3", "12", "z", "z^2", "z^-1", "z^(1/2)", "z^(-3/2)"]


def _random_expr(rng, depth=0):
    """Random expression text; unary chains and parenthesis nests are strings
    of up to 3,000 signs, so this generator itself recurses at most 4 deep."""
    r = rng.random()
    if depth == 4 or r < 0.3:
        return rng.choice(_ATOMS)
    n = rng.choice([1, 2, 3, rng.randint(4, 3000)])
    if r < 0.5:
        return "-" * n + _random_expr(rng, depth + 1)
    if r < 0.7:
        return "(" * n + _random_expr(rng, depth + 1) + ")" * n
    return "%s %s %s" % (_random_expr(rng, depth + 1), rng.choice("+-*/"),
                         _random_expr(rng, depth + 1))


def _coeffs_or_error(spec):
    try:
        return elaborate(spec, 4).coeffs
    except MahlerError as exc:
        return type(exc).__name__


def test_printed_programs_are_a_fixpoint():
    """The printed text of a random program parses back to that program and
    prints identically, and both elaborate to the same operator."""
    rng = random.Random(14)
    deep = 0
    for _ in range(150):
        text = "p = 2\na[0] = 1\na[1] = %s\na[2] = 1\n" % _random_expr(rng)
        deep += "-" * 500 in text or "(" * 500 in text
        spec = parse_spec(text)
        printed = expr_str(spec.coeffs[1])
        again = parse_spec("p = 2\na[0] = 1\na[1] = %s\na[2] = 1\n" % printed)
        assert again == spec
        assert expr_str(again.coeffs[1]) == printed
        assert _coeffs_or_error(again) == _coeffs_or_error(spec)
    assert deep >= 20


def test_main_reports_a_failed_residual_check(tmp_path, capsys, monkeypatch):
    """A residual that is certified but nonzero fails --verify with code 1."""
    def nonzero_residual(L, y):
        return SolutionObject(L.p, ((Fraction(1), 0, one()),))
    monkeypatch.setattr("mahler.frobenius.apply_to_solution", nonzero_residual)
    f = tmp_path / "eq.txt"
    f.write_text(PHI_MINUS_ONE)
    assert main([str(f), "--verify"]) == 1
    text = capsys.readouterr().out
    assert "residual check: FAILED (1)\n" in text
    assert text.endswith("verification: not verified\n")
    assert main([str(f), "--verify", "--json"]) == 1
    ver = json.loads(capsys.readouterr().out)["verification"]
    assert ver["ok"] is False and ver["solutions"][0]["residual_zero"] is False


def test_main_reports_a_pole_of_g_as_a_failed_check_in_both_modes(tmp_path, capsys, monkeypatch):
    """A g_{c,j} with a pole at lambda = c exits 1, with or without --verify:
    it is a solver fault, not invalid input."""
    real = mahler.frobenius.solve_slope
    pole = 1 / (lam - 1)

    def polar(L, plan, fact, j, ceiling, depth):
        gs = real(L, plan, fact, j, ceiling, depth)
        return {c: reference_add(g, monomial(g.val() + 1, pole)) if c == 1 else g
                for c, g in gs.items()}
    monkeypatch.setattr("mahler.frobenius.solve_slope", polar)
    f = tmp_path / "eq.txt"
    f.write_text(EXAMPLE)
    message = "coefficient of z^1 in g_{c,j} for j = 0 has a pole at lambda = 1"
    for flags in ([], ["--verify"]):
        assert main([str(f)] + flags) == 1
        assert capsys.readouterr().err == "error [VerificationError]: %s\n" % message
        assert main([str(f), "--json"] + flags) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": {"type": "VerificationError", "message": message}}


def test_selftest_reports_failures(capsys, monkeypatch):
    """Of every three instances the first raises and the second is partial."""
    real = mahler.cli.frobenius_basis
    calls = []

    def flaky(L, ceiling, depth, verify):
        calls.append(L)
        if len(calls) % 3 == 1:
            raise InsufficientPrecision("ceiling too low")
        out = real(L, ceiling, depth, verify=verify)
        return replace(out, partial=True) if len(calls) % 3 == 2 else out
    monkeypatch.setattr("mahler.cli.frobenius_basis", flaky)
    assert main(["selftest", "--seed", "7", "--count", "3"]) == 1
    assert capsys.readouterr().out == (
        "instance   0: FAILED (InsufficientPrecision: ceiling too low)\n"
        "instance   1: FAILED\n"
        "instance   2: ok\n"
        "1/3 passed\n")
    assert main(["selftest", "--seed", "7", "--count", "3", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data == {"seed": 7, "count": 3, "failures": 2,
                    "results": ["FAILED (InsufficientPrecision: ceiling too low)",
                                "FAILED", "ok"]}


def test_readme_examples_run(tmp_path, capsys):
    """The README's Library block and its equation file run as printed."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```(\w*)\n(.*?)^```$", fh.read(), re.M | re.S)
    [library] = [body for lang, body in blocks if lang == "python"]
    [equation] = [body for lang, body in blocks if body.startswith("p = ")]
    names = {}
    exec(library, names)
    assert names["out"].verification["ok"]
    f = tmp_path / "equation.txt"
    f.write_text(equation)
    assert main([str(f), "--verify"]) == 0
    assert "verification: ok" in capsys.readouterr().out
    assert main([str(f), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["spec"]["p"] == 2


def _resolves(name):
    for obj in (mahler, mahler.MahlerOperator):
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def test_readme_entry_points_resolve():
    """Every backticked name in the README's list of lower-level entry
    points is an attribute of `mahler` or of `MahlerOperator`, or a module."""
    with open(README, encoding="utf-8") as fh:
        entries = fh.read().split("Lower-level entry points:\n\n", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`([A-Za-z_][\w.]*)`", entries)
    assert "solve_slope" in names
    assert [name for name in names if not _resolves(name)] == []


@pytest.mark.parametrize("precision, digest", [
    ("16", "3bf09d23559cada1fb5654a1706528a2de6937c68259dbc5862dea8f84ed3c87"),
    ("32", "aebe639061f76c35e60602f60bacf39c4a61c832cf5492417d374a22a799f2cf"),
])
def test_dense_report_matches_the_recorded_digest(tmp_path, capsys, precision, digest):
    """The dense equation above the benchmark's precisions (depth 8,
    --verify --json): its report is byte-identical to the one recorded when
    the forward recursion still ran on Fractions."""
    f = tmp_path / "eq.txt"
    f.write_text(DENSE)
    assert main([str(f), "--precision", precision, "--depth", "8", "--verify", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


THUE_MORSE = "p = 2\na[0] = -1\na[1] = 1 - z\n"


def test_thue_morse_report_matches_the_recorded_digest(tmp_path, capsys):
    """Thue-Morse at precision 256, depth 4, --verify --json: its report is
    byte-identical to the one recorded when the product of the unit h over
    Q by the solution over Q(lambda) still folded RatFuns pair by pair."""
    f = tmp_path / "eq.txt"
    f.write_text(THUE_MORSE)
    assert main([str(f), "--precision", "256", "--depth", "4", "--verify", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "21fc0b0774578aa04cbc4c6b63c73d39891dc54ec9881ba53620059ba9ed3a57"


# the p = 2 and p = 3 ladders (phi - z^nu) h^-1 (phi - 1) of the benchmark
LADDER_P2 = ("p = 2\na[0] = z^(-2) / (1 + z^(2))\n"
             "a[1] = -(1 / (1 + z^(4)) + z^(-2) / (1 + z^(2)))\na[2] = 1 / (1 + z^(4))\n")
LADDER_P3 = ("p = 3\na[0] = z^(-3) / (1 + z^(3/2))\n"
             "a[1] = -(1 / (1 + z^(9/2)) + z^(-3) / (1 + z^(3/2)))\na[2] = 1 / (1 + z^(9/2))\n")


@pytest.mark.parametrize("text, digest", [
    (EXAMPLE, "1d3d3ed43420349fcf3f549b936819d197c5fbc38a75ebf3b1e054abda33860d"),
    (LADDER_P2, "31c3d28f46c0d1fd66b43b848761274605efbb777d1c3420efff9934b4c17233"),
    (LADDER_P3, "554f0d5b73819ef054f55b4f477fc5cb9bbd130b902b4637ac7da234a765cf87"),
], ids=["readme", "ladder p2", "ladder p3"])
def test_ladder_report_matches_the_recorded_digest(tmp_path, capsys, text, digest):
    """The README example and the ladders at precision and depth 32 with
    --verify --json: each report, residual masks included, is byte-identical
    to the one recorded when the residual was still folded on Fractions."""
    f = tmp_path / "eq.txt"
    f.write_text(text)
    assert main([str(f), "--precision", "32", "--depth", "32", "--verify", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_main_verification_failure_code(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise VerificationError("residual is not certified zero")
    monkeypatch.setattr("mahler.cli.run_pipeline", boom)
    f = tmp_path / "eq.txt"
    f.write_text(PHI_MINUS_ONE)
    assert main([str(f)]) == 1
    assert "error [VerificationError]" in capsys.readouterr().err


def test_main_insufficient_precision_code(tmp_path, capsys):
    f = tmp_path / "eq.txt"
    f.write_text(LOW_PRECISION)
    assert main([str(f), "--precision", "3", "--verify"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error [InsufficientPrecision]: g_{c,j} for c = 1/2, j = 0 "
                          "has no certified leading term: its mask has its first gap "
                          "at 11/2, not above the expected valuation 7")
    assert main([str(f), "--precision", "3", "--verify", "--json"]) == 4
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "InsufficientPrecision"
    # a first gap exactly at the expected valuation certifies nothing there either
    assert main([str(f), "--precision", "6", "--verify"]) == 4
    assert "first gap at 7, not above the expected valuation 7" in capsys.readouterr().err
    assert main([str(f), "--precision", "12", "--verify"]) == 0
    assert "verification: ok" in capsys.readouterr().out


def test_selftest(capsys):
    assert main(["selftest", "--seed", "7", "--count", "3"]) == 0
    assert "3/3 passed" in capsys.readouterr().out
    assert main(["selftest", "--seed", "7", "--count", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["failures"] == 0 and len(data["results"]) == 3


@pytest.mark.parametrize("flags", [
    ["--depth", "-3"],
    ["--depth", "0", "--verify"],
    ["--depth", "2.5"],
    ["--precision", "0"],
    ["--precision", "-2"],
    ["--precision", "1/0"],
    ["--precision", "abc"],
    ["selftest", "--count", "-3"],
    ["selftest", "--count", "0"],
    ["selftest", "--count", "2.5"],
])
def test_main_rejects_bad_precision_and_depth(tmp_path, capsys, flags):
    if flags[0] == "selftest":
        argv, flag = flags, flags[1]
    else:
        f = tmp_path / "eq.txt"
        f.write_text(PHI_MINUS_ONE)
        argv, flag = [str(f)] + flags, flags[0]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument %s:" % flag in capsys.readouterr().err


def _fresh_python(tmp_path, *args):
    f = tmp_path / "eq.txt"
    f.write_text(EXAMPLE)
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args, str(f)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_main_exits_2_quietly_when_stdout_is_closed(tmp_path, flags):
    """A reader that closes stdout before the report is written: exit 2, as
    for any other OSError, with no traceback and no "Exception ignored"
    line on stderr."""
    f = tmp_path / "eq.txt"
    f.write_text(EXAMPLE)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "mahler", str(f), *flags], stdout=w,
                              stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
                              text=True, timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (2, "")


def test_verified_run_does_not_load_sympy(tmp_path):
    code = ("import sys, mahler.cli\n"
            "assert mahler.cli.main(['analyze', sys.argv[1], '--verify']) == 0\n"
            "print('loaded' if 'sympy' in sys.modules else 'not loaded')\n")
    proc = _fresh_python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "not loaded"


def test_python_dash_m_mahler(tmp_path):
    proc = _fresh_python(tmp_path, "-m", "mahler", "--verify")
    assert proc.returncode == 0, proc.stderr
    assert "verification: ok" in proc.stdout


def test_public_api_is_exactly_all():
    names = {}
    exec("from mahler import *", names)
    del names["__builtins__"]
    assert set(names) == set(mahler.__all__) and len(mahler.__all__) == len(set(mahler.__all__))
    assert all(names[n] is getattr(mahler, n) for n in mahler.__all__)
    # every public binding that is not a submodule is exported
    public = {n for n, v in vars(mahler).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(mahler.__all__)
    assert mahler.factorize is sys.modules["mahler.factorize"]
    assert isinstance(mahler.factorize, types.ModuleType)
