"""Span tracer that wraps mahler's public functions from outside the package.

`Tracer.install()` replaces every binding of a traced function in every
loaded `mahler` module (a name imported with `from .x import y` is bound in
each importing module, so each binding is replaced) and wraps the traced
methods on their classes.  `Tracer.uninstall()` puts every original back.
Nothing in `src/mahler` is edited.

Each call records a span (name, start, end, parent) in memory; `summary()`
turns the spans of one round into per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import Counter
from time import perf_counter


def _hs_mul_counts(args, result, counts):
    f, g = args[0], args[1]
    counts["hahn.hs_mul.pairs"] += len(f.terms) * len(g.terms)
    counts["hahn.hs_mul.terms_out"] += len(result.terms)


def _invert_counts(args, result, counts):
    counts["hahn.invert.terms_out"] += len(result.terms)


def _unit_counts(args, result, counts):
    counts["factorize.slope_zero_unit_solution.terms_out"] += len(result.terms)


def _coeff_bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _g_counts(args, result, counts):
    counts["frobenius.g.terms"] += len(result.terms)
    bits = deg = 0
    for _, r in result.terms:
        for poly in (r.num, r.den):
            deg = max(deg, poly.degree)
            bits = max([bits] + [_coeff_bits(c) for c in poly.coeffs])
    counts["frobenius.g.max_coeff_bits"] = max(counts["frobenius.g.max_coeff_bits"], bits)
    counts["frobenius.g.max_lambda_degree"] = max(
        counts["frobenius.g.max_lambda_degree"], deg)


def targets():
    """(owner, attribute, span name, count hook) for everything traced.

    Owners that are modules get every binding of the function replaced;
    owners that are classes get the method replaced on the class.
    """
    # import_module, not `from mahler import ...`: the package attribute
    # `mahler.factorize` is the function alias, not the submodule
    cli, factorize, fields, frobenius, hahn, newton, operator = (
        importlib.import_module("mahler." + name) for name in
        ("cli", "factorize", "fields", "frobenius", "hahn", "newton", "operator"))
    return [
        (hahn, "hs_mul", "hahn.hs_mul", _hs_mul_counts),
        (hahn.HahnSeries, "invert", "hahn.invert", _invert_counts),
        (fields, "rational_roots", "fields.rational_roots", None),
        (newton, "analyze", "newton.analyze", None),
        (factorize, "factor_operator", "factorize.factor_operator", None),
        (factorize, "slope_zero_unit_solution", "factorize.slope_zero_unit_solution",
         _unit_counts),
        (operator.MahlerOperator, "right_divide", "operator.right_divide", None),
        (operator.MahlerOperator, "apply", "operator.apply", None),
        (frobenius, "solve_gcj", "frobenius.solve_gcj", _g_counts),
        (frobenius, "solve_order1_param", "frobenius.solve_order1_param", None),
        (frobenius, "specialize_solutions", "frobenius.specialize_solutions", None),
        (frobenius, "check_gcj", "frobenius.verify", None),
        (frobenius, "apply_to_solution", "frobenius.verify", None),
        (frobenius, "verify_independence", "frobenius.verify", None),
        (frobenius.FrobeniusOutput, "to_json", "cli.render", None),
        (cli, "parse_spec", "cli.parse_spec", None),
        (cli, "elaborate", "cli.elaborate", None),
    ]


def mahler_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mahler" or name.startswith("mahler."))]


class Tracer:
    """Records spans while enabled; install() and uninstall() swap bindings."""

    def __init__(self):
        self.enabled = False
        self.spans = []          # (name, start, end, parent index, outermost)
        self.counts = Counter()
        self._stack = []
        self._active = Counter()
        self._saved = []         # (owner, attribute, original)
        self.originals = []

    # -- bindings -------------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = mahler_modules()
        for owner, attr, name, hook in targets():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, hook)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            self.originals.append(original)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        self.originals = []

    def _wrap(self, name, fn, hook):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            outermost = not active[name]
            active[name] += 1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                spans[idx] = (name, start, end, stack[-1] if stack else None, outermost)
            counts[name + ".calls"] += 1
            if hook is not None:
                hook(args, result, counts)
            return result

        return traced

    # -- spans from the benchmark itself --------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of the given name (used for json.dumps)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    # -- aggregation ----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def summary(self, wall_s):
        """Self and total time per span name, plus the trace accounting.

        Self time is a span's duration minus the durations of its direct
        children; total time sums the outermost span of each name, so a name
        nested in itself is not counted twice.  `wall_s` is the traced wall
        time of the round: self times plus the time outside every span must
        add up to it.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s, total_s = Counter(), Counter()
        roots = 0.0
        for i, (name, start, end, parent, outermost) in enumerate(self.spans):
            dur = end - start
            self_s[name] += dur - child[i]
            if outermost:
                total_s[name] += dur
            if parent is None:
                roots += dur
        unwrapped = wall_s - roots
        balance = sum(self_s.values()) + unwrapped - wall_s
        return {"self_s": self_s, "total_s": total_s, "unwrapped_s": unwrapped,
                "balanced": math.isclose(balance, 0.0, abs_tol=1e-6 * max(wall_s, 1.0))}
