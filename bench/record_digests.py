"""Write bench/digests.json: the SHA-256 of every timed instance's report.

    python3 bench/record_digests.py

The digests pin the exact outputs (terms, masks, verification verdicts) of
the commit they were recorded on; the benchmark counts any instance whose
report differs as failed.  Re-record only when a change is meant to alter
outputs, and say so in that change.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    digests = {}
    for workload in ("corpus", "dense", "ladder"):
        timed = workloads.build(workload, workloads.CRITERION3_SEED, {})
        for inst in sorted(timed, key=lambda inst: inst.name):
            out, report, code = workloads.solve(inst)
            bad = workloads.check(inst, (out, report, code))
            if bad:
                raise SystemExit("%s fails its checks: %s" % (inst.name, ", ".join(bad)))
            digests[inst.name] = workloads.canonical_digest(
                out.to_json() if report is None else report)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d digests written to %s" % (len(digests), workloads.DIGESTS_PATH))


if __name__ == "__main__":
    main()
