"""The survey scripts: subprocess smoke runs, and the one-sweep contract
of the corpus survey; and the benchmark harness's own self-test."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from conftest import ROOT, flag_manifold, load_script, src_env
from negder import check_class_h, corpus, parse_structure_constants


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


@pytest.mark.parametrize("rank", ["1_0", "٣", " 2 "])
def test_corpus_survey_reads_the_torus_rank_as_the_file_grammar_does(rank):
    # int() would read each of these; the command line's integer options do not
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "corpus_survey.py"),
                           "--torus", rank, "s3"], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 2
    assert "--torus" in proc.stderr and proc.stdout == ""


def test_derivation_census_runs():
    lines = run_script("derivation_census.py", "--negative-only", "s3")
    assert lines[0] == "s3 (dim 2, top degree 3)"
    assert [line.split() for line in lines[1:5]] == [
        ["dim", "Der_-3", "=", "1"], ["dim", "Der_-2", "=", "0"],
        ["dim", "Der_-1", "=", "0"], ["dim", "Der_0", "=", "1"]]


@pytest.mark.parametrize("script", ["corpus_survey.py", "derivation_census.py"])
def test_scripts_reject_an_unknown_example_as_a_usage_error(script):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), "s3", "nosuch"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: unknown example 'nosuch'" in proc.stderr
    assert "Traceback" not in proc.stderr


LONG = 100_000
LETTERS, DIGITS = "x" * LONG, "1" * LONG


def cut(token):
    return f"'{token[:40]}'... ({LONG} characters)"


@pytest.mark.parametrize("script, args, quoted", [
    ("corpus_survey.py", [LETTERS], f"unknown example {cut(LETTERS)}"),
    ("derivation_census.py", [LETTERS], f"unknown example {cut(LETTERS)}"),
    ("corpus_survey.py", ["--torus", LETTERS],
     f"argument --torus: invalid integer value: {cut(LETTERS)}"),
    ("corpus_survey.py", ["--torus", DIGITS],
     f"argument --torus: invalid integer value: {cut(DIGITS)} has more digits than the "
     "int-string limit"),
    ("flag_manifold.py", [LETTERS], f"argument n: invalid integer value: {cut(LETTERS)}"),
    ("flag_manifold.py", [DIGITS],
     f"argument n: invalid integer value: {cut(DIGITS)} has more digits than the int-string "
     "limit"),
    *((script, ["--help=" + LETTERS], f"ignored explicit argument {cut(LETTERS)}")
      for script in ("corpus_survey.py", "derivation_census.py", "flag_manifold.py"))],
    ids=["survey example", "census example", "torus letters", "torus digits", "N letters",
         "N digits", "survey help", "census help", "flag manifold help"])
def test_a_long_argument_gives_one_short_error_line(script, args, quoted):
    # the scripts' parsers are the command line's: a long token shows as
    # its first 40 characters and its length, in argparse's messages too
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    last = proc.stderr.splitlines(keepends=True)[-1]
    assert len(last.encode()) <= 300, last[:300]
    assert quoted in last, last


@pytest.mark.parametrize("n", [3, 4, 5])
def test_flag_manifolds_are_valid_and_in_class_h(n):
    # H*(Fl_n) has the n! standard monomials as its basis, is generated by
    # x2..xn, and has no nonzero negative-degree derivation
    fl = flag_manifold(n)
    assert fl.dim == math.factorial(n)
    assert fl.validate() == []
    assert fl.generator_indices[0] == fl.unit
    assert sorted(fl.labels[g] for g in fl.generator_indices[1:]) == [
        f"x{k}" for k in range(2, n + 1)]
    verdict = check_class_h(fl)
    assert verdict.in_class and verdict.complete and verdict.connectivity_ok


def test_flag_manifold_script_prints_a_table_negder_accepts(tmp_path):
    text = "\n".join(run_script("flag_manifold.py", "4")) + "\n"
    assert parse_structure_constants(text) == flag_manifold(4)
    target = tmp_path / "fl4.alg"
    target.write_text(text)
    for command in ("validate", "check-h"):
        proc = subprocess.run([sys.executable, "-m", "negder", command, str(target), "--json"],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, (command, proc.stdout + proc.stderr)


@pytest.mark.parametrize("n, digest", [
    ("4", "967e20482bf730664eb5c39229300b71dfef31135525b201b5d6fb92ce40da54"),
    ("5", "8b863e7b6f8779eaff986a0dc60472fb14863847c9c80bbbb7fb14ee05e23b95"),
    ("6", "b48018466579a1a5000be3f074aca646682c9e7ec9ef2c29d896718ef90e16f6"),
])
def test_flag_manifold_script_prints_the_pinned_tables(n, digest):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "flag_manifold.py"), n],
                          capture_output=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_building_fl5_leaves_nothing_for_the_cycle_collector():
    # the reducer's memo is a plain dict that dies with the build.  A young
    # collection finds cycles as a full one does, without emptying the free
    # lists, whose blocks would read as freed memory
    script = (
        "import gc, importlib.util, json, sys, tracemalloc\n"
        "gc.disable()\n"
        "spec = importlib.util.spec_from_file_location('flag_manifold', sys.argv[1])\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "gc.collect()\n"
        "tracemalloc.start()\n"
        "built = module.flag_manifold(5)\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "found = gc.collect(0)\n"
        "print(json.dumps([found, before, tracemalloc.get_traced_memory()[0]]))\n")
    proc = subprocess.run([sys.executable, "-c", script,
                           os.path.join(ROOT, "scripts", "flag_manifold.py")],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    found, before, after = json.loads(proc.stdout)
    assert found == 0
    assert after >= before, f"the collector freed {before - after} B"


@pytest.mark.parametrize("n", [" 4 ", "٤", "0_4", "0", "7"])
def test_flag_manifold_script_refuses_a_bad_or_too_large_n(n):
    # int() reads the first three; Fl_7 needs at least 1 587 600 table
    # entries, over MAX_TABLE_ENTRIES, and is refused before its basis
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "flag_manifold.py"), n],
                          capture_output=True, text=True, env=src_env(), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == "" and "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.fixture
def survey():
    return load_script("corpus_survey")


def test_survey_row_sweeps_each_degree_once(survey, space_calls):
    for name in corpus.names():
        del space_calls[:]
        check_class_h(corpus.load(name))
        sweep = list(space_calls)
        del space_calls[:]
        survey.survey_row(name, 3)
        assert space_calls == sweep and len(set(sweep)) == len(sweep), name


def test_bench_pairs_compares_a_checkout_with_itself():
    lines = run_script("bench_pairs.py", ROOT, ROOT, "--workloads", "kernel",
                       "--pairs", "1", "--seconds", "0.01")
    names = ("setup_s", "pass_s", "slowest_job_s", "job_p50_ms", "peak_rss_mb", "ok_frac")
    runs, summary, claims = lines[:2], lines[2:8], lines[8:]
    assert [line.split(":")[0] for line in runs] == [
        "kernel pair 1 seed 1 parent", "kernel pair 1 seed 1 change"]
    assert all("correct=True" in line and "pass_s=" in line for line in runs)
    assert [line.split(":")[0] for line in summary] == [f"kernel {name}" for name in names]
    assert all(" pairs won " in line for line in summary)
    assert [line.split(":")[0] for line in claims] == [
        f"kernel {name} claim rule" for name in names]


def test_bench_pairs_runs_from_the_first_seed_and_states_the_claim_rule(
        monkeypatch, capsys):
    # the parent's pass_s is 1.00..1.09 and the change's 0.9 but in pair 10,
    # so the change wins 9 of 10 pairs, its median 0.145 lower against a
    # parent quartile spread of 0.055; every other metric ties in every pair
    bench = load_script("bench_pairs")
    runs = []

    def fake_run(checkout, workload, seed, seconds):
        runs.append((checkout, seed))
        pair = seed - 11
        parent = checkout == "PARENT"
        pass_s = 1 + pair / 100 if parent else 1.1 if pair == 9 else 0.9
        values = dict(setup_s=0.03, pass_s=pass_s, slowest_job_s=0.002, job_p50_ms=2,
                      peak_rss_mb=25, ok_frac=1)
        return {"correct": True, "metrics": {k: {"value": v} for k, v in values.items()}}

    monkeypatch.setattr(bench, "run", fake_run)
    assert bench.main(["PARENT", ROOT, "--workloads", "kernel", "--first-seed", "11",
                       "--seconds", "1"]) == 0
    assert [seed for _, seed in runs] == [s for s in range(11, 21) for _ in "ab"]
    assert [side for side, _ in runs[:4]] == ["PARENT", ROOT, ROOT, "PARENT"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("kernel pair 1 seed 11 parent: ")
    claims = {line.split(" claim rule: ")[0]: line.split(" claim rule: ")[1].split()[0]
              for line in lines if " claim rule: " in line}
    assert claims == {"kernel pass_s": "holds", **{f"kernel {name}": "fails" for name in (
        "setup_s", "slowest_job_s", "job_p50_ms", "peak_rss_mb", "ok_frac")}}
    # the rule itself: nine tenths of the pairs, and a move past the spread
    assert bench.claim_holds(9, 10, 1.0, 0.8, 0.1, "lower")
    assert not bench.claim_holds(8, 10, 1.0, 0.8, 0.1, "lower")
    assert not bench.claim_holds(10, 10, 1.0, 0.95, 0.1, "lower")
    assert not bench.claim_holds(10, 10, 1.0, 1.2, 0.1, "lower")
    assert bench.claim_holds(10, 10, 1.0, 1.2, 0.1, "higher")


def test_benchmark_harness_self_test_passes():
    # perfbench patches and counts names in src, so a change there that
    # breaks the harness fails here, not only when the benchmark runs
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                          capture_output=True, text=True, env=src_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


CODE_LINES_FIXTURE = '''"""Module docstring,
on two lines."""
# a comment

import os  # trailing comment


def f(x):
    """Function docstring."""
    # another comment
    text = """not a
docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    def g(self):
        "one-line docstring"
        "a second string is code"
        return None
'''


def test_code_lines_counts_tokens_but_not_comments_docstrings_or_blanks(tmp_path):
    # code: import, def f, the two lines of text, the two of return, class,
    # def g, the second string and its return
    counted, empty = tmp_path / "counted.py", tmp_path / "empty.py"
    counted.write_text(CODE_LINES_FIXTURE)
    empty.write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert run_script("code_lines.py", str(counted), str(empty)) == [
        f"    10  {counted}", f"     0  {empty}", "    10  total"]
