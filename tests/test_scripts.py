"""The survey scripts: subprocess smoke runs, and the one-sweep contract
of the corpus survey; and the benchmark harness's own self-test."""

import importlib.util
import os
import subprocess
import sys

import pytest

from conftest import ROOT, src_env
from negder import check_class_h, corpus


def run_script(name, *args):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_corpus_survey_runs():
    lines = run_script("corpus_survey.py", "--torus", "3", "s3", "cp2", "t2")
    assert lines[0].split() == ["name", "dim", "top", "class", "H", "first",
                                "fail", "rigidity", "(S=3)"]
    assert lines[2].split() == ["s3", "2", "3", "fails", "-3", "open", "at", "level", "3"]
    assert lines[3].split() == ["cp2", "3", "4", "in", "class", "H", "-", "established"]
    assert lines[4].split() == ["t2", "4", "2", "fails", "-1", "open", "at", "level", "1"]


def test_derivation_census_runs():
    lines = run_script("derivation_census.py", "--negative-only", "s3")
    assert lines[0] == "s3 (dim 2, top degree 3)"
    assert [line.split() for line in lines[1:5]] == [
        ["dim", "Der_-3", "=", "1"], ["dim", "Der_-2", "=", "0"],
        ["dim", "Der_-1", "=", "0"], ["dim", "Der_0", "=", "1"]]


@pytest.fixture
def survey():
    spec = importlib.util.spec_from_file_location(
        "corpus_survey", os.path.join(ROOT, "scripts", "corpus_survey.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survey_row_sweeps_each_degree_once(survey, space_calls):
    for name in corpus.names():
        sweep = len(check_class_h(corpus.load(name)).dimensions)
        del space_calls[:]
        survey.survey_row(name, 3)
        assert len(space_calls) == len(set(space_calls)) == sweep, name


def test_benchmark_harness_self_test_passes():
    # perfbench patches and counts names in src, so a change there that
    # breaks the harness fails here, not only when the benchmark runs
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                          capture_output=True, text=True, env=src_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
