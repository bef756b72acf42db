"""The benchmark's own output check, run on every instance of its three
workloads: exit code, a full basis, verification, the exponents of each
corpus operator, the ladder closed form and the recorded report digest.

bench/workloads.py is loaded from its file, as test_imports loads
bench/tracer.py; nothing under bench/ changes."""
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while the class is built
    with mock.patch.dict(sys.modules, workloads=module):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["corpus", "dense", "ladder"])
def test_every_workload_instance_passes_the_bench_check(workloads, workload):
    digests = workloads.load_digests()
    instances = workloads.build(workload, workloads.CRITERION3_SEED, digests)
    assert instances and all(inst.digest is not None for inst in instances)
    for inst in instances:
        assert workloads.check(inst, workloads.solve(inst)) == [], inst.name
