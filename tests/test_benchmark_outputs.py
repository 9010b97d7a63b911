"""The benchmark's outputs at tier 1: two input sets of each fingerprinted
workload of ``perfbench/workloads.py`` give the values recorded in
``perfbench/reference.json``, so a change that moves a contact-set count
or a quadrature sum fails here, not first in a benchmark run.  Both files
are only read."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import ellipticlab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("workloads", module)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_outputs_match_the_reference(workload, seed, tmp_path):
    # the tasks of a field run in order, as in a benchmark pass: a later
    # task reads an earlier one's output
    refs = REFERENCE[workload][str(seed % workloads.N_INPUTS)]
    bad = []
    for task in workloads.WORKLOADS[workload](ellipticlab, seed,
                                              str(tmp_path)):
        fingerprint = task.inspect(task.call())
        bad += [f"{task.label}: {b}" for b in
                workloads.matches(fingerprint, refs.get(task.label, {}))]
    assert bad == []
