"""Byte stability: every benchmark job, run in-process, against the digests
and certificate checks of perfbench/golden.json.

The job lists, inputs and checks are perfbench's own (workloads.py and
golden.py), loaded from their files and only read; the inputs are written
under the test's tmp_path, not the harness's work directory.
"""

import contextlib
import importlib.util
import io
import os

import pytest

import negder
from conftest import ROOT
from negder import cli

PERFBENCH = os.path.join(ROOT, "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
golden = load("golden")
GOLDEN = golden.load(os.path.join(PERFBENCH, "golden.json"))


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_every_job_matches_its_golden_output(workload, tmp_path):
    jobs = workloads.job_list(workload, negder)
    paths = workloads.write_inputs(jobs, negder, str(tmp_path))
    checker = golden.Checker(negder, GOLDEN, paths)
    problems = []
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(workloads.argv(job, paths))
        problem = checker.check(job, rc, out.getvalue(), None)
        if problem:
            problems.append(f"{job.key}: {problem}")
    assert jobs and problems == []
