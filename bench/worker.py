"""One benchmark process: set up mahler, do one job, print one JSON line.

    python3 bench/worker.py setup
    python3 bench/worker.py seedset --seed 7
    python3 bench/worker.py round --workload dense --seed 7
    python3 bench/worker.py trace --workload ladder --seed 7 --seconds 35

Set-up (`import mahler` plus one warm-up `analyze`) is timed first, before
the benchmark imports anything else, so every process gives one set-up
sample.  `bench/run.py` starts this file; run it directly only to debug.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def set_up():
    """Seconds for `import mahler` and the warm-up analysis of a fixed operator.

    The warm-up pulls in the lazy imports of the first analysis (the
    `sympy` import behind `fields.rational_roots`).
    """
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import mahler
    mahler.analyze(mahler.MahlerOperator(2, [mahler.hs([(0, 2)]), mahler.hs([(0, -1)])]))
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(mahler.__file__).startswith(SRC + os.sep):
        raise SystemExit("mahler was not imported from %s" % SRC)
    return elapsed


SETUP_S = set_up()

import argparse  # noqa: E402  (after the timed set-up on purpose)
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PER_LAYER = [
    # (metric, unit); names ending in self_s/total_s are span times, the
    # rest are counts kept by the tracer or derived below
    ("hahn.hs_mul.calls", "count"),
    ("hahn.hs_mul.self_s", "s"),
    ("hahn.hs_mul.pairs", "count"),
    ("hahn.hs_mul.terms_out", "count"),
    ("hahn.hs_mul.pairs_per_term", "1"),
    ("hahn.invert.calls", "count"),
    ("hahn.invert.total_s", "s"),
    ("hahn.invert.terms_out", "count"),
    ("fields.rational_roots.calls", "count"),
    ("fields.rational_roots.self_s", "s"),
    ("newton.analyze.calls", "count"),
    ("newton.analyze.total_s", "s"),
    ("factorize.factor_operator.total_s", "s"),
    ("factorize.slope_zero_unit_solution.self_s", "s"),
    ("factorize.slope_zero_unit_solution.terms_out", "count"),
    ("operator.right_divide.total_s", "s"),
    ("operator.apply.total_s", "s"),
    ("frobenius.solve_gcj.total_s", "s"),
    ("frobenius.solve_order1_param.self_s", "s"),
    ("frobenius.specialize_solutions.self_s", "s"),
    ("frobenius.verify.total_s", "s"),
    ("frobenius.g.terms", "count"),
    ("frobenius.g.max_coeff_bits", "bits"),
    ("frobenius.g.max_lambda_degree", "count"),
    ("cli.parse_spec.self_s", "s"),
    ("cli.elaborate.total_s", "s"),
    ("cli.render.total_s", "s"),
    ("trace.overhead", "1"),
    ("trace.unwrapped_s", "s"),
    ("growth_exp", "1"),
]


REF_EVERY_S = 1.0    # seconds of solving between two runs of the reference loop


def reference_s():
    """Seconds for a fixed pure-Python loop of exact-rational and dict work.

    `run.py` scales every time by the reference time of the same process,
    so that the metrics do not follow the speed of a shared host.
    """
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 40000):
        acc += Fraction(i % 97, i % 89 + 1)
        seen[i % 1000] = acc
    return time.perf_counter() - t0


def run_round(instances, tracer=None):
    """Solve every instance once; returns (seconds, reference seconds, failures).

    Only the solve call is timed; the output checks run between solves with
    the tracer off.  The reference loop runs before the first instance and
    again once REF_EVERY_S seconds of solving have passed (and after the
    last instance); each instance gets the mean of the two reference times
    around it.
    """
    times, refs, failed = [], [], []
    ref = reference_s()
    since = 0.0
    for k, inst in enumerate(instances):
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        result = workloads.solve(inst, tracer)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        since += times[-1]
        if since >= REF_EVERY_S or k == len(instances) - 1:
            after = reference_s()
            refs += [(ref + after) / 2] * (k + 1 - len(refs))
            ref, since = after, 0.0
        bad = workloads.check(inst, result)
        if bad:
            failed.append("%s: %s" % (inst.name, ", ".join(bad)))
    return times, refs, failed


def layer_metrics(tracer, wall_s):
    """Per-layer values of one traced round, and whether its accounting holds."""
    summary = tracer.summary(wall_s)
    out = {}
    for name, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind in ("self_s", "total_s"):
            out[name] = summary[kind][span]
        else:
            out[name] = tracer.counts[name]
    pairs, terms = out["hahn.hs_mul.pairs"], out["hahn.hs_mul.terms_out"]
    out["hahn.hs_mul.pairs_per_term"] = pairs / terms if terms else 0.0
    out["trace.unwrapped_s"] = summary["unwrapped_s"]
    return out, summary["balanced"]


def growth_exponent(instances, rounds):
    """Least-squares slope of ln(time) against ln(precision), per-instance medians."""
    pts = {}
    for times in rounds:
        for inst, t in zip(instances, times):
            pts.setdefault(inst.precision, []).append(t)
    xs = [math.log(p) for p in pts]
    ys = [math.log(statistics.median(v)) for v in pts.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "seedset", "round", "trace"),
                    help="setup: time set-up only; seedset: check the corpus seed's "
                         "operators; round: one timed round; trace: traced run")
    ap.add_argument("--workload", choices=("corpus", "dense", "ladder"))
    ap.add_argument("--seed", type=int, default=workloads.CRITERION3_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    args = ap.parse_args()
    result = {"setup_s": SETUP_S, "attempted": 0, "failures": []}
    # the reference right after set-up scales the set-up time
    result["ref_s"] = reference_s()
    if args.mode == "seedset":
        for inst in workloads.seed_set(args.seed):
            bad = workloads.check(inst, workloads.solve(inst))
            if bad:
                result["failures"].append("%s: %s" % (inst.name, ", ".join(bad)))
            result["attempted"] += 1
    elif args.mode != "setup":
        if args.workload is None:
            ap.error("--workload is required")
        timed = workloads.build(args.workload, args.seed, workloads.load_digests())
        missing = [inst.name for inst in timed if inst.digest is None]
        if missing:
            raise SystemExit("no recorded digest for %s" % ", ".join(missing))
        if args.mode == "round":
            times, refs, result["failures"] = run_round(timed)
            result["attempted"] = len(timed)
            result["times"] = {inst.name: [t, r] for inst, t, r in zip(timed, times, refs)}
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        else:
            result.update(traced_run(args, timed))
    print(json.dumps(result))
    return 0


def traced_run(args, timed):
    """Untraced and traced rounds in turn until `args.seconds` is used up.

    Span times are wall seconds; `trace.overhead` and `growth_exp` use round
    times divided by the reference time around them, as `run.py` does.
    """
    tracer = tracing.Tracer()
    plain, traced, layers, failures = [], [], [], []
    balanced = True
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        times, refs, failed = run_round(timed)
        plain.append([t / r for t, r in zip(times, refs)])
        failures += failed
        tracer.install()
        try:
            tracer.reset()
            times, refs, failed = run_round(timed, tracer)
        finally:
            tracer.uninstall()
        traced.append([t / r for t, r in zip(times, refs)])
        failures += failed
        values, ok = layer_metrics(tracer, sum(times))
        layers.append(values)
        balanced = balanced and ok
        lap = time.perf_counter() - t0
        if time.perf_counter() - start + lap > args.seconds:
            break

    # counts repeat exactly (checked below); times take the median over rounds
    metrics = {name: statistics.median(v[name] for v in layers)
               if isinstance(value, float) else value for name, value in layers[0].items()}
    metrics["trace.overhead"] = (sum(statistics.median(ts) for ts in zip(*traced))
                                 / sum(statistics.median(ts) for ts in zip(*plain)) - 1.0)
    metrics["growth_exp"] = growth_exponent(timed, plain) if args.workload == "dense" else 0.0
    problems = []
    if not balanced:
        problems.append("span self times do not add up to the round")
    if any(_counts(v) != _counts(layers[0]) for v in layers):
        problems.append("counts differ between traced rounds")
    _write_trace(args, tracer, metrics)
    return {"attempted": 2 * len(plain) * len(timed), "failures": failures,
            "rounds": len(plain), "metrics": metrics, "units": dict(PER_LAYER),
            "problems": problems}


def _counts(values):
    return {k: v for k, v in values.items() if isinstance(v, int)}


def _write_trace(args, tracer, metrics):
    """Spans of the last traced round and the metrics, under bench/out/."""
    out_dir = os.path.join(ROOT, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "metrics": metrics,
                   "spans": [list(s[:4]) for s in tracer.spans]}, fh)


if __name__ == "__main__":
    sys.exit(main())
