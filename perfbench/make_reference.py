"""Record the reference outputs that run.py checks every task against.

Run at the commit whose outputs are the reference, from the repository
root:

    python3 perfbench/make_reference.py

It runs each workload's task list once for every input set, one process
per usable core, and writes the fingerprints to
``perfbench/reference.json``.  Only a change that is meant to alter the
outputs re-records them, and says so.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import tempfile

from run import HERE, OUT, setup
from workloads import N_INPUTS


def record(job: tuple[str, int]) -> tuple[str, int, dict]:
    workload, index = job
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        tasks, _ = setup(workload, index, tmpdir)
        fingerprints = {}
        for task in tasks:
            fp = task.inspect(task.call())
            if fp:
                fingerprints[task.label] = fp
    return workload, index, fingerprints


def main() -> None:
    # verify-suites is checked on its verdicts alone and has no reference
    jobs = [(w, i) for w in ("envelope-fields", "analysis-kernels")
            for i in range(N_INPUTS)]
    cores = len(os.sched_getaffinity(0))
    with multiprocessing.get_context("spawn").Pool(cores) as pool:
        results = pool.map(record, jobs)
    table: dict = {}
    for workload, index, fps in results:
        table.setdefault(workload, {})[str(index)] = fps
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
