"""Inputs, solve calls and output checks of the three workloads.

Every call into mahler goes through a module attribute at call time
(`cli.parse_spec`, not a name captured at import), so the tracer's
wrappers see it.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

CRITERION3_SEED = 2026
CORPUS_SIZE = 200

DENSE_TEXT = "p = 2\na[0] = 1/(1+z^(1/13))\na[1] = -1\n"
DENSE_PRECISIONS = (2, 4, 6)
DENSE_DEPTH = 8

# The README example verbatim; its a[1] lacks the 1/(1+z^2) of the p = 2
# ladder, so it gets the digest check but not the ladder closed form.
README_TEXT = ("p = 2\n"
               "a[0] = z^(-2) / (1 + z^2)\n"
               "a[1] = -(1 / (1 + z^4) + z^(-2))\n"
               "a[2] = 1 / (1 + z^4)\n")


def ladder_text(p, nu):
    """(phi - z^nu) h^-1 (phi - 1) with h = 1 + z^(-nu/(p-1)), expanded."""
    e = Fraction(-nu, p - 1)
    h = "(1 + z^(%s))" % e
    hp = "(1 + z^(%s))" % (e * p)
    return ("p = %d\n"
            "a[0] = z^(%d) / %s\n"
            "a[1] = -(1 / %s + z^(%d) / %s)\n"
            "a[2] = 1 / %s\n") % (p, nu, h, hp, nu, h, hp)


LADDER_PRECISION = 32
LADDER_DEPTH = 32

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass
class Instance:
    """One solve: an operator (corpus) or an equation text (dense, ladder)."""

    name: str
    operator: object = None
    factorization: object = None   # the generating factorization of a corpus operator
    text: str = None
    precision: int = None
    depth: int = None
    ladder: tuple = None           # (p, nu) when the closed form applies
    digest: str = None             # recorded SHA-256 of the canonical report


def canonical_digest(report):
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _corpus_set(seed):
    from mahler.testing import rand_factored_operator
    rng = random.Random(seed)
    return [rand_factored_operator(rng, Fraction(3)) for _ in range(CORPUS_SIZE)]


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def build(workload, seed, digests):
    """The timed instances of a workload, in an order drawn from `seed`.

    `digests` maps instance names to the recorded report digests (an empty
    dict builds the instances without the digest check).  The timed set does
    not depend on the seed: the cost of a fresh set of 200 random operators
    varies by about 20% from seed to seed, more than any regression bound
    could absorb.  On `corpus` the seed also draws `seed_set(seed)`.
    """
    if workload == "corpus":
        timed = [Instance("corpus-%03d" % k, operator=L, factorization=f,
                          digest=digests.get("corpus-%03d" % k))
                 for k, (L, f) in enumerate(_corpus_set(CRITERION3_SEED))]
    elif workload == "dense":
        timed = [Instance("dense-prec%d" % prec, text=DENSE_TEXT, precision=prec,
                          depth=DENSE_DEPTH, digest=digests.get("dense-prec%d" % prec))
                 for prec in DENSE_PRECISIONS]
    elif workload == "ladder":
        cases = [("readme", README_TEXT, None),
                 ("ladder-p2", ladder_text(2, -2), (2, -2)),
                 ("ladder-p3", ladder_text(3, -3), (3, -3))]
        timed = [Instance(name, text=text, precision=LADDER_PRECISION, depth=LADDER_DEPTH,
                          ladder=ladder, digest=digests.get(name))
                 for name, text, ladder in cases]
    else:
        raise ValueError("unknown workload %r" % workload)
    random.Random(seed).shuffle(timed)
    return timed


def seed_set(seed):
    """The 200 operators of `random.Random(seed)`, checked but not timed.

    Empty for the criterion-3 seed, whose operators are the timed set.
    """
    if seed == CRITERION3_SEED:
        return []
    return [Instance("seed%d-%03d" % (seed, k), operator=L, factorization=f)
            for k, (L, f) in enumerate(_corpus_set(seed))]


# ---------------------------------------------------------------------------
# solving


def solve(inst, tracer=None):
    """The user-visible call for one instance; returns what check() needs."""
    if inst.operator is not None:
        frobenius = importlib.import_module("mahler.frobenius")
        out = frobenius.frobenius_basis(inst.operator, 3, 2, verify=True)
        return out, None, 0
    cli = importlib.import_module("mahler.cli")
    spec = cli.parse_spec(inst.text)
    report, code, out = cli.run_pipeline(spec, Fraction(inst.precision), inst.depth,
                                         verify=True)
    if tracer is None:
        json.dumps(report, indent=2)
    else:
        tracer.call("cli.render", json.dumps, report, indent=2)
    return out, report, code


def check(inst, result):
    """Names of the checks the output fails (empty when it is correct)."""
    out, report, code = result
    bad = []
    if code != 0:
        bad.append("exit code %d" % code)
    if out.partial:
        bad.append("partial")
    if not out.verification.get("ok"):
        bad.append("verification")
    if inst.factorization is not None:
        for j, layer in enumerate(inst.factorization.layers):
            got = sorted(c for c, m in out.newton.exponents[j] for _ in range(m))
            if got != sorted(f.c for f in layer):
                bad.append("exponents of slope %d" % j)
    if inst.ladder is not None and not _ladder_closed_form(out, *inst.ladder, inst.depth):
        bad.append("ladder closed form")
    if inst.digest is not None:
        got = canonical_digest(out.to_json() if report is None else report)
        if got != inst.digest:
            bad.append("digest")
    return bad


def _ladder_closed_form(out, p, nu, depth):
    """l_{1,0} part of the second solution = sum_{k=-1..-depth} z^(nu p^k/(p-1))."""
    blocks = [b for b in out.blocks if b.j == 1]
    if len(blocks) != 1 or len(blocks[0].solutions) != 1:
        return False
    part = blocks[0].solutions[0].part(Fraction(1), 0)
    expect = {Fraction(nu) * Fraction(p) ** k / (p - 1): Fraction(1)
              for k in range(-1, -depth - 1, -1)}
    return (part is not None and dict(part.terms) == expect
            and part.mask.certifies(max(expect)))
