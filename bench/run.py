"""mahler benchmark: one workload per call, in fresh single-threaded processes.

    python3 bench/run.py --workload corpus --seed 2026 --seconds 35 --trace 0

Run from the root of a checkout; mahler is imported from its `src/`.  With
`--trace 0` it prints the end-to-end metrics, with `--trace 1` the per-layer
metrics of a traced run.  Every metric is printed as `name = value unit`,
and the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See bench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

DEADLINE_S = 170.0       # the whole command must end within 180 s
MIN_SETUPS = 5           # set-up samples per run, topped up by set-up-only processes
REF_NOMINAL_S = 0.1      # reference-loop time of the nominal host; never change it


def _child(argv, deadline):
    """Run the worker with `argv`; returns the JSON object on its last line."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, WORKER] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker %s exited with code %d" % (" ".join(argv), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline):
    """Timed rounds, one per fresh process, until --seconds is used up.

    On a shared host the speed of a process drifts by up to a factor of two
    over minutes.  Each process therefore times a fixed reference loop
    (`worker.reference_s`) after set-up and about every second between
    instances, and every time is reported at the nominal host speed:
    measured * REF_NOMINAL_S / the reference time around it.  Each round
    runs in its own process; each metric is computed per round and reported
    as its median over the rounds.
    """
    job = ["--workload", args.workload, "--seed", str(args.seed)]
    runs = []
    if args.workload == "corpus":
        runs.append(_child(["seedset", "--seed", str(args.seed)], deadline))
    rounds = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        rounds.append(_child(["round"] + job, deadline))
        lap = time.monotonic() - t0
        if time.monotonic() - start + lap > args.seconds:
            break
    runs += rounds
    while len(runs) < MIN_SETUPS:
        runs.append(_child(["setup"], deadline))

    def at(seconds, ref):
        return seconds * REF_NOMINAL_S / ref

    # each metric is taken per round, then its median over the rounds
    scaled = [sorted(at(*r["times"][name]) for name in r["times"]) for r in rounds]
    metrics = {
        "setup_s": statistics.median(at(r["setup_s"], r["ref_s"]) for r in runs),
        "solve_s": statistics.median(sum(times) for times in scaled),
        "latency_p50_s": statistics.median(statistics.median(times) for times in scaled),
        "latency_p95_s": statistics.median(
            statistics.quantiles(times, n=20, method="inclusive")[-1] for times in scaled),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    wall_setup_s = statistics.median(r["setup_s"] for r in runs)
    wall_solve_s = statistics.median(sum(t for t, _ in r["times"].values()) for r in rounds)
    units = {"setup_s": "s", "solve_s": "s", "latency_p50_s": "s", "latency_p95_s": "s",
             "peak_rss_mb": "MB"}
    speed = REF_NOMINAL_S / statistics.median(r["ref_s"] for r in runs)
    summary = ("%d rounds in fresh processes, %d set-up samples; host speed %.3g of nominal "
               "(unscaled: setup %.4g s, solve %.4g s)"
               % (len(rounds), len(runs), speed, wall_setup_s, wall_solve_s))
    return {"metrics": metrics, "units": units,
            "attempted": sum(r["attempted"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]], "problems": [],
            "summary": summary}


def traced(args, deadline):
    """One process alternating untraced and traced rounds."""
    res = _child(["trace", "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)], deadline)
    res["summary"] = "%d untraced and %d traced rounds" % (res["rounds"], res["rounds"])
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "dense", "ladder"))
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mahler", "__init__.py")):
        raise SystemExit("src/mahler not found under %s" % ROOT)
    deadline = time.monotonic() + DEADLINE_S
    try:
        res = (traced if args.trace else end_to_end)(args, deadline)
    except subprocess.TimeoutExpired:
        raise SystemExit("the %s run did not finish within %g s" % (args.workload, DEADLINE_S))

    metrics, units = res["metrics"], res["units"]
    attempted, failed = res["attempted"], len(res["failures"])
    for line in res["failures"] + res["problems"]:
        print("FAILED %s" % line)
    print("%s seed %d: %s; %d instances attempted, %d failed, fail_ratio = %.6g 1"
          % (args.workload, args.seed, res["summary"], attempted, failed, failed / attempted))
    for name, unit in units.items():
        print("%-48s = %.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": not res["failures"] and not res["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
