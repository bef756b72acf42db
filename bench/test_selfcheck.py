"""Self-checks of the benchmark: tracer coverage, count anchors, bare checkout.

    python3 -m pytest bench/test_selfcheck.py -q

Takes about a minute: two traced corpus runs are made in fresh processes.
"""
import importlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("cli", "errors", "factorize", "fields", "frobenius", "hahn", "newton",
           "operator", "testing")

# Counts of one round of the criterion-3 corpus (seed 2026) at the seed commit.
ANCHORS = {"newton.analyze.calls": 908,
           "fields.rational_roots.calls": 1244,
           "hahn.hs_mul.calls": 8945,
           "hahn.hs_mul.pairs": 125361,
           "hahn.hs_mul.terms_out": 34674}


def _bindings():
    """Every (owner, name) -> value binding in mahler's modules and traced classes."""
    for name in MODULES:
        importlib.import_module("mahler." + name)
    out = {}
    for mod in tracing.mahler_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
    for owner, attr, _, _ in tracing.targets():
        if isinstance(owner, type):
            out[(owner.__qualname__, attr)] = owner.__dict__[attr]
    return out


def test_install_wraps_every_binding_and_uninstall_restores():
    before = _bindings()
    tr = tracing.Tracer()
    tr.install()
    try:
        during = _bindings()
        originals = tr.originals
        stale = [key for key, value in during.items()
                 if any(value is orig for orig in originals)]
        assert not stale, "unwrapped originals still bound: %s" % stale
        for module in ("mahler.hahn", "mahler.operator", "mahler.frobenius", "mahler.cli"):
            assert hasattr(during[(module, "hs_mul")], "__wrapped__")
        for module in ("mahler.newton", "mahler.factorize", "mahler.frobenius"):
            assert hasattr(during[(module, "analyze")], "__wrapped__")
        for module in ("mahler.fields", "mahler.newton"):
            assert hasattr(during[(module, "rational_roots")], "__wrapped__")
        for module in ("mahler.factorize", "mahler.frobenius"):
            assert hasattr(during[(module, "factor_operator")], "__wrapped__")
    finally:
        tr.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed, "bindings not restored: %s" % changed


def test_traced_outputs_equal_untraced():
    digests = workloads.load_digests()
    timed = workloads.build("ladder", workloads.CRITERION3_SEED, digests)
    corpus = workloads.build("corpus", workloads.CRITERION3_SEED, digests)
    instances = [i for i in timed if i.name != "readme"] + corpus[:20]
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.enabled = True
        traced = [workloads.solve(inst, tr) for inst in instances]
        tr.enabled = False
    finally:
        tr.uninstall()
    assert tr.counts["hahn.hs_mul.calls"] > 0
    for inst, result in zip(instances, traced):
        assert workloads.check(inst, result) == [], inst.name
        assert workloads.check(inst, workloads.solve(inst)) == [], inst.name


def _traced_corpus_run():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "corpus", "--seed", "2026",
                           "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_counts_repeat_and_match_anchors():
    first, second = _traced_corpus_run(), _traced_corpus_run()
    assert first == second
    for name, value in ANCHORS.items():
        assert first[name] == value, name


def test_fails_without_the_program():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ladder",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
