"""Command-line front end: input language, pipeline driver, reporters.

Input files are key/value lines:

    p = 2
    a[0] = z^(-2) / (1 + z^2)
    a[1] = -(1/(1+z^4) + z^(-2))
    a[2] = 1/(1+z^4)

Expressions use +, -, *, /, unary -, parentheses, integer literals and
powers of z; exponents of z are bare integers or parenthesized rationals.
Each coefficient is kept as a postfix program, so parsing, evaluating and
printing are loops over a stack and no nesting depth makes them recurse.
"""
import contextlib
import os
import sys
from fractions import Fraction

from .errors import (InsufficientPrecision, MahlerError, NonRationalExponentLiteral,
                     ParseError, PlanMismatch, Record, VerificationError, ZeroSeries)
from .fields import poly_str
from .frobenius import frobenius_basis
from .hahn import POS, hs_mul, monomial, zero
from .operator import MahlerOperator

# exit code by error type, the first match wins; any other error exits 2
_EXIT_CODES = ((VerificationError, 1), (PlanMismatch, 1), (InsufficientPrecision, 4))


# ---------------------------------------------------------------------------
# postfix programs
#
# A coefficient is a tuple of (kind, value) steps: ("num", q) pushes the
# rational q, ("z", e) pushes z^e, ("neg", None) negates the top operand and
# (op, None) for an op in _PREC combines the top two.


# binary precedence: `_Parser.expr` pops by it and `expr_str` parenthesizes by it
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_NEG = max(_PREC.values()) + 1  # unary minus binds above every binary operator


def expr_str(prog):
    """Canonical text; parse_spec reads it back to the same program.  An
    operand is parenthesized when it binds looser than its place allows:
    the left one of level P below P, the right one at or below P, the
    argument of a negation unless it is a literal.  The program is read
    backwards, so each operand's place is known before the operand, and the
    text comes out last piece first."""
    pieces, todo, steps = [], [0], reversed(prog)
    while todo:  # a piece of text, or the lowest level the next operand takes bare
        task = todo.pop()
        if isinstance(task, str):
            pieces.append(task)
            continue
        kind, v = next(steps)
        if kind == "num":
            pieces.append(str(v))
        elif kind == "z":
            pieces.append("z" if v == 1 else "z^%d" % v if v.denominator == 1 and v >= 0
                          else "z^(%s)" % v)
        else:
            level = _PREC.get(kind, _NEG)
            if level < task:
                pieces.append(")")
                todo.append("(")
            todo += ["-", _NEG + 1] if kind == "neg" else [level, " %s " % kind, level + 1]
    return "".join(reversed(pieces))


# ---------------------------------------------------------------------------
# tokenizer / parser


def _tokens(text):
    out = []
    lines = text.splitlines()
    for ln, line in enumerate(lines, 1):
        i = 0
        while i < len(line):
            ch = line[i]
            if ch in " \t":
                i += 1
            elif ch == "#":
                break
            elif ch.isdigit():
                j = i
                while j < len(line) and line[j].isdigit():
                    j += 1
                try:
                    value = int(line[i:j])
                except ValueError as exc:  # a digit int() does not read, or too many
                    raise ParseError(str(exc), ln, i + 1) from None
                out.append(("INT", value, ln, i + 1))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(line) and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                out.append(("NAME", line[i:j], ln, i + 1))
                i = j
            elif ch in "+-*/^()[]=":
                out.append((ch, ch, ln, i + 1))
                i += 1
            else:
                raise ParseError("unexpected character %r" % ch, ln, i + 1)
        out.append(("EOL", "", ln, len(line) + 1))
    out.append(("EOF", "", len(lines) + 1, 1))
    return out


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def cur(self):
        return self.toks[self.i]

    def eat(self, kind):
        k, v, ln, col = self.cur()
        if k != kind:
            raise ParseError("expected %s, found %r" % (kind, str(v) or k), ln, col)
        self.i += 1
        return v, ln, col

    def expr(self):
        """Shunting-yard: the postfix program of one expression, read in one
        loop.  The operator stack holds (level, step); `(` sits at level 0,
        so no binary operator pops past it."""
        out, ops, depth = [], [], 0
        while True:
            k = self.cur()[0]
            while k in ("-", "("):  # operand position: prefixes, then a literal
                ops.append((_NEG, ("neg", None)) if k == "-" else (0, None))
                depth += k == "("
                self.i += 1
                k = self.cur()[0]
            out.append(self.atom())
            k = self.cur()[0]
            while k not in _PREC:  # operator position: close groups, or stop
                if not depth:
                    out.extend(step for _, step in reversed(ops))
                    return tuple(out)
                self.eat(")")
                while ops[-1][0]:
                    out.append(ops.pop()[1])
                ops.pop()
                depth -= 1
                k = self.cur()[0]
            while ops and ops[-1][0] >= _PREC[k]:
                out.append(ops.pop()[1])
            ops.append((_PREC[k], (k, None)))
            self.i += 1

    def atom(self):
        k, v, ln, col = self.cur()
        if k == "INT":
            self.i += 1
            return ("num", Fraction(v))
        if k == "NAME" and v == "z":
            self.i += 1
            if self.cur()[0] == "^":
                self.i += 1
                return ("z", self.exponent())
            return ("z", Fraction(1))
        raise ParseError("expected a number, 'z', or '('", ln, col)

    def exponent(self):
        k, v, ln, col = self.cur()
        if k == "INT":
            self.i += 1
            return Fraction(v)
        if k == "-":
            self.i += 1
            return -Fraction(self.eat("INT")[0])
        if k == "(":
            self.i += 1
            sign = 1
            if self.cur()[0] == "-":
                sign = -1
                self.i += 1
            if self.cur()[0] == "INT":
                num, den = self.eat("INT")[0], 1
                if self.cur()[0] == "/":
                    self.i += 1
                    den = self.eat("INT")[0]
                    if not den:
                        raise ParseError("zero denominator in exponent", ln, col)
                if self.cur()[0] == ")":
                    self.i += 1
                    return Fraction(sign * num, den)
            raise NonRationalExponentLiteral(
                "exponent of z must be a rational literal", *self.cur()[2:])
        raise ParseError(
            "exponent of z must be an integer or a parenthesized rational", ln, col)


class EquationSpec(Record):
    """Parsed input: radix and one postfix program (see `expr_str`) per
    coefficient (None = absent)."""

    __slots__ = ("p", "coeffs")

    @property
    def order(self):
        return len(self.coeffs) - 1


def parse_spec(text):
    toks = _tokens(text)
    P = _Parser(toks)
    p = None
    coeffs, keys = {}, {}  # keys: where each a[i] is given
    while P.cur()[0] != "EOF":
        if P.cur()[0] == "EOL":
            P.i += 1
            continue
        k, v, ln, col = P.cur()
        if k != "NAME":
            raise ParseError("expected 'p = ...' or 'a[i] = ...'", ln, col)
        if v == "p":
            P.i += 1
            P.eat("=")
            if p is not None:
                raise ParseError("p given twice", ln, col)
            p, pln, pcol = P.eat("INT")
            if p < 2:
                raise ParseError("p must be an integer >= 2", pln, pcol)
            P.eat("EOL")
        elif v == "a":
            P.i += 1
            P.eat("[")
            idx = P.eat("INT")[0]
            P.eat("]")
            P.eat("=")
            if idx in coeffs:
                raise ParseError("a[%d] given twice" % idx, ln, col)
            coeffs[idx] = P.expr()
            keys[idx] = ln, col
            P.eat("EOL")
        else:
            raise ParseError("unknown key %r" % v, ln, col)
    if p is None:
        raise ParseError("missing 'p = ...' line")
    if not coeffs:
        raise ParseError("no coefficients given")
    n = max(coeffs)
    if n < 1:
        raise ParseError("the equation must have order at least 1", *keys[0])
    for end in (0, n):
        e = coeffs.get(end)
        if e is None or e == (("num", 0),):
            # a missing a[0] is reported at the a[n] key
            raise ParseError("a[0] and a[%d] must be present and nonzero" % n,
                             *keys[end if e is not None else n])
    return EquationSpec(p, tuple(coeffs.get(i) for i in range(n + 1)))


# ---------------------------------------------------------------------------
# elaboration


def _eval_expr(prog, ceiling):
    """Series of a postfix program, by one stack loop."""
    stack = []
    for kind, v in prog:
        if kind == "num":
            stack.append(monomial(0, v))
        elif kind == "z":
            stack.append(monomial(v, Fraction(1)))
        elif kind == "neg":
            stack.append(stack.pop().scale(Fraction(-1)))
        else:
            rhs = stack.pop()
            acc = stack.pop()
            if kind in "*/":
                stack.append(hs_mul(acc, rhs if kind == "*" else rhs.invert(ceiling)))
            else:
                stack.append(acc + rhs if kind == "+" else acc - rhs)
    return stack[0]


def elaborate(spec, ceiling):
    """Evaluate the coefficient expressions to series at the given ceiling;
    ZeroSeries when the top one is the exact zero (the order would drop)."""
    ceiling = Fraction(ceiling)
    L = MahlerOperator(spec.p, [zero() if e is None else _eval_expr(e, ceiling)
                                for e in spec.coeffs])
    if L.order < spec.order:
        raise ZeroSeries("a[%d] is the exact zero" % spec.order)
    return L


@contextlib.contextmanager
def _long_ints():
    """No int-to-str digit limit inside the block (Python 3.10.7 and later
    have one): exact output may hold integers of any size."""
    limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    limit(0)
    try:
        yield
    finally:
        limit(old)


@_long_ints()
def run_pipeline(spec, precision, depth, verify):
    """Parse result -> operator -> full analysis; returns
    (report, exit code, FrobeniusOutput)."""
    L = elaborate(spec, precision)
    out = frobenius_basis(L, Fraction(precision), depth, verify=verify)
    report = {"spec": {"p": spec.p,
                       "coefficients": [None if e is None else expr_str(e)
                                        for e in spec.coeffs]}}
    report.update(out.to_json())
    if out.partial:
        code = 3
    elif verify and not out.verification.get("ok", False):
        code = 1
    else:
        code = 0
    return report, code, out


# ---------------------------------------------------------------------------
# reporters


def _fmt_series(fs, limit=8):
    bits = []
    for e, c in fs.terms[:limit]:
        bits.append(str(c) if not e else "%s*z^(%s)" % (c, e))
    if len(fs.terms) > limit:
        bits.append("...")
    gap = fs.mask.first_gap() if not fs.mask.empty else None
    if gap is not None and gap != POS:
        bits.append("O(z^(%s))" % gap)
    return " + ".join(bits) if bits else ("0" if not fs.mask.empty else "(nothing certified)")


@_long_ints()
def render_pretty(out):
    nd = out.newton
    lines = []
    lines.append("p = %d, order %d" % (out.p, sum(r for _, r in nd.slopes)))
    lines.append("Newton vertices: " + ", ".join(
        "(p^%d, %s)" % (i, y) for i, x, y in nd.vertices))
    for j, (mu, r) in enumerate(nd.slopes):
        chi = nd.charpolys[j]
        exps = ", ".join("%s (mult %d)" % (c, m) for c, m in nd.exponents[j]) or "none"
        line = "slope mu_%d = %s (mult %d): chi = %s; rational exponents: %s" % (
            j + 1, mu, r, poly_str(chi, "X"), exps)
        if nd.residuals[j].degree > 0:
            line += "; non-rational part: %s" % poly_str(nd.residuals[j], "X")
        lines.append(line)
    lines.append("plan: nu = [%s]" % ", ".join(str(nu) for nu in out.plan.nus))
    if out.partial:
        lines.append("PARTIAL BASIS: some exponents are not rational; "
                     "no solutions constructed.")
        return "\n".join(lines) + "\n"
    for j, layer in enumerate(out.factorization.layers):
        lines.append("factor layer %d (nu = %s): c = %s" % (
            j + 1, layer[0].nu, ", ".join(str(f.c) for f in layer)))
    for block in out.blocks:
        for m, sol in enumerate(block.solutions):
            parts = "  +  ".join(
                "[%s] * l[%s,%d]" % (_fmt_series(fs), c, u) for c, u, fs in sol.parts)
            lines.append("y[c=%s, j=%d, m=%d] = %s" % (
                block.c, block.j + 1, m, parts or "0"))
    ver = out.verification
    if "solutions" in ver and ver["solutions"]:
        bad = [s for s in ver["solutions"] if not s["residual_zero"]]
        lines.append("residual check: %s" % ("ok" if not bad else "FAILED (%d)" % len(bad)))
    if "independence" in ver:
        lines.append("independence check: %s" % ("ok" if ver["independence"]["ok"] else "FAILED"))
    lines.append("verification: %s" % ("ok" if ver.get("ok") else "not verified"))
    return "\n".join(lines) + "\n"


def _diagnostic(exc, as_json):
    info = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError):  # the position goes in keys of its own
        info.update(message=exc.args[0], line=exc.line, col=exc.col)
    if as_json:
        import json
        print(json.dumps({"error": info}, indent=2))
    else:
        print("error [%s]: %s" % (info["type"], exc), file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def _positive_rational(text):
    import argparse
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected a rational such as 8 or 17/2, got %r" % text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive, got %s" % text)
    return value


def _positive_int(text):
    import argparse
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def cmd_analyze(args):
    if args.file == "-":  # a text stream with no byte buffer is read as text
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        with open(args.file, "rb") as fh:
            data = fh.read()
    try:
        text = data if isinstance(data, str) else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # line and column of the first bad byte, counted as _tokens counts
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError("input is not UTF-8 text", len(lines), len(lines[-1])) from None
    spec = parse_spec(text)
    report, code, out = run_pipeline(spec, args.precision, args.depth, args.verify)
    if args.as_json:
        import json
        print(json.dumps(report, indent=2))
    else:
        sys.stdout.write(render_pretty(out))
    return code


def cmd_selftest(args):
    import json
    import random

    from .testing import rand_factored_operator

    rng = random.Random(args.seed)
    results = []
    bad = 0
    for k in range(args.count):
        status = "ok"
        try:
            L, _ = rand_factored_operator(rng, ceiling=Fraction(3))
            out = frobenius_basis(L, Fraction(3), 2, verify=True)
            if out.partial or not out.verification.get("ok", False):
                status = "FAILED"
        except MahlerError as exc:
            status = "FAILED (%s: %s)" % (type(exc).__name__, exc)
        if status != "ok":
            bad += 1
        results.append(status)
        if not args.as_json:
            print("instance %3d: %s" % (k, status))
    if args.as_json:
        print(json.dumps({"seed": args.seed, "count": args.count,
                          "failures": bad, "results": results}, indent=2))
    else:
        print("%d/%d passed" % (args.count - bad, args.count))
    return 0 if not bad else 1


def main(argv=None):
    import argparse
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in ("analyze", "selftest", "-h", "--help"):
        argv.insert(0, "analyze")
    ap = argparse.ArgumentParser(
        prog="mahler",
        description="Newton polygon, factorization and solution basis "
                    "of linear Mahler equations over Hahn series.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    pa = sub.add_parser("analyze", help="analyze an equation file ('-' = stdin)")
    pa.add_argument("file", nargs="?", default="-")
    pa.add_argument("--precision", type=_positive_rational, default="8",
                    help="exponent ceiling, a positive rational (default 8)")
    pa.add_argument("--depth", type=_positive_int, default=8,
                    help="geometric-sum depth for the order-1 solver (default 8)")
    pa.add_argument("--verify", action="store_true",
                    help="run the certified residual and independence checks")
    pa.add_argument("--json", dest="as_json", action="store_true")
    ps = sub.add_parser("selftest", help="random end-to-end self-test")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--count", type=_positive_int, default=20,
                    help="number of random operators, at least 1 (default 20)")
    ps.add_argument("--json", dest="as_json", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.cmd == "analyze":
            return cmd_analyze(args)
        return cmd_selftest(args)
    except BrokenPipeError:
        # the reader closed stdout: a diagnostic there would fail again, and
        # so would the flush at exit, so stdout goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (MahlerError, ValueError, ZeroDivisionError, OSError) as exc:
        _diagnostic(exc, args.as_json)
        return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), 2)


if __name__ == "__main__":
    sys.exit(main())
