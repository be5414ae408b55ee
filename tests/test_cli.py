import argparse
import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cap_memory, exhaustive_validate, presentations, projective_space,
                      src_env, torus)
from negder import GradedAlgebra, cli, corpus, serialize_structure_constants
from negder.cli import run
from negder.fileformats import PRESENTATION, AlgebraFile, detect_format


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def broken_table(tmp_path):
    # an explicit transpose with the wrong sign: parses, fails validation
    text = serialize_structure_constants(torus(2))
    target = tmp_path / "broken.alg"
    target.write_text(text + "i1 i2 = -1*i1*i2\n")
    return str(target)


# --- exit codes and text output ---

def test_check_h_accepts_class_members(capsys):
    code, out, _ = invoke(capsys, "check-h", corpus.path("cp2"))
    assert code == 0
    assert "in class H" in out
    assert "degrees checked -1..-4" in out


def test_check_h_rejects_odd_sphere_with_certificate(capsys):
    code, out, _ = invoke(capsys, "check-h", corpus.path("s3"))
    assert code == 1
    assert "not in class H" in out
    assert "degree -3: theta(x) = 1" in out


def test_check_h_flags_connectivity_on_torus(capsys):
    code, out, _ = invoke(capsys, "check-h", corpus.path("t2"))
    assert code == 1
    assert "not in class H" in out
    assert "connectivity check failed" in out


def test_check_h_degree_cap_limits_the_sweep(capsys):
    code, out, _ = invoke(capsys, "check-h", corpus.path("s3"),
                          "--max-degree", "2")
    assert code == 0
    assert "degrees checked -1..-2" in out


def test_check_h_degree_cap_beyond_the_top_degree(capsys):
    code, out, _ = invoke(capsys, "check-h", corpus.path("cp2"),
                          "--max-degree", "10")
    assert code == 0
    assert "in class H" in out
    assert "degrees checked -1..-4 (top degree 4)" in out


def test_check_h_capped_sweep_reads_undecided(capsys):
    # S^3 has a degree -3 derivation, so a sweep stopping at -2 decides
    # nothing; the exit code and the JSON stay as for a full sweep
    code, out, _ = invoke(capsys, "check-h", corpus.path("s3"),
                          "--max-degree", "2")
    assert code == 0
    assert "class H undecided" in out
    assert "in class H" not in out
    assert "degrees checked -1..-2 (top degree 3)" in out
    code, out, _ = invoke(capsys, "check-h", corpus.path("s3"),
                          "--max-degree", "0")
    assert "class H undecided" in out
    assert "degrees checked: none (top degree 3)" in out
    # a failed connectivity check decides membership, capped sweep or not
    code, out, _ = invoke(capsys, "check-h", corpus.path("t2"),
                          "--max-degree", "0")
    assert code == 1
    assert "undecided" not in out
    assert "no negative-degree derivations" in out
    assert "connectivity check failed" in out
    code, out, _ = invoke(capsys, "check-h", corpus.path("s3"),
                          "--max-degree", "2", "--json")
    assert set(json.loads(out)) == {"command", "file", "in_class",
                                    "connectivity_ok", "degrees", "certificate"}


def test_check_h_negative_max_degree_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "check-h", corpus.path("s3"),
                            "--max-degree", "-1")
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def test_derivations_exit_reflects_dimension(capsys):
    code, out, _ = invoke(capsys, "derivations", corpus.path("cp2"),
                          "--degree", "-2")
    assert code == 0
    assert "dimension 0" in out
    code, out, _ = invoke(capsys, "derivations", corpus.path("s3"),
                          "--degree", "-3")
    assert code == 1
    assert "dimension 1" in out
    assert "theta(x) = 1" in out


def test_char_prints_degrees_and_basis(capsys):
    code, out, _ = invoke(capsys, "char", corpus.path("cp2"), "--rank", "3")
    assert code == 0
    assert "degrees: 4" in out
    assert "dimension: 1" in out
    assert "degree 4: x^2" in out


def test_char_rank_must_be_positive(capsys):
    code, _, err = invoke(capsys, "char", corpus.path("cp2"), "--rank", "0")
    assert code == 2
    assert "error:" in err


def test_rigidity_establishes_projective_plane(capsys):
    code, out, _ = invoke(capsys, "rigidity", corpus.path("cp2"), "--torus", "2")
    assert code == 0
    assert out.strip() == "level 1: dim 0; level 2: dim 0; established"


def test_rigidity_fails_on_odd_sphere(capsys):
    code, out, _ = invoke(capsys, "rigidity", corpus.path("s3"), "--torus", "3")
    assert code == 1
    assert "not established at level 3" in out
    assert "certificate: lambda(x) = 1" in out


def test_rigidity_rank_must_be_nonnegative(capsys):
    code, _, err = invoke(capsys, "rigidity", corpus.path("s3"), "--torus", "-1")
    assert code == 2
    assert "error:" in err


def test_validate_accepts_every_bundled_example(capsys):
    for name in corpus.names():
        code, out, _ = invoke(capsys, "validate", corpus.path(name))
        assert code == 0
        assert out.strip() == "valid"


def test_validate_reports_axiom_violations(capsys, broken_table):
    code, out, _ = invoke(capsys, "validate", broken_table)
    assert code == 1
    assert "commut" in out


def test_other_commands_treat_invalid_tables_as_input_errors(capsys, broken_table):
    code, _, err = invoke(capsys, "check-h", broken_table)
    assert code == 2
    assert "error:" in err


def test_duplicate_unit_line_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "two_units.alg"
    target.write_text(serialize_structure_constants(torus(2)) + "unit: i1\n")
    code, out, err = invoke(capsys, "validate", str(target))
    assert code == 2
    assert out == ""
    assert "duplicate unit" in err and "line " in err


@pytest.mark.parametrize("rhs, side", [("+2*x^2", "before"), ("2*x^2 +", "after"),
                                       ("1*x^2 + + 1*x^2", "after")])
def test_an_empty_term_next_to_a_plus_is_an_input_error(capsys, tmp_path, rhs, side):
    # "+" separates terms, so a coefficient in a product line carries at
    # most a minus sign
    text = serialize_structure_constants(projective_space(2))
    target = tmp_path / "plus.alg"
    target.write_text(text.replace("x x = 1*x^2", f"x x = {rhs}"))
    code, out, err = invoke(capsys, "validate", str(target))
    assert code == 2
    assert out == ""
    line = text.splitlines().index("x x = 1*x^2") + 1
    assert (f"line {line}: the term {side} a '+' is empty; "
            "a coefficient carries at most a minus sign") in err


def test_missing_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = invoke(capsys, "validate", str(tmp_path / "nope.alg"))
    assert code == 2
    assert "error:" in err


def test_unparseable_file_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("widget x degree 2\n")
    code, _, err = invoke(capsys, "validate", str(bad))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text, line, token", [
    ("generator x degree 1_0\n", 1, "1_0"),
    ("generator x degree \u0663\n", 1, "\u0663"),
    ("generator x degree 2 truncate 1_0\n", 1, "1_0"),
    ("generator x degree 2 truncate \uff13\n", 1, "\uff13"),
    ("basis:\n1 0\nx \u0662\nunit: 1\nproducts:\n1 1 = 1*1\n1 x = 1*x\n", 3, "\u0662"),
    ("basis:\n1 0_0\nunit: 1\nproducts:\n1 1 = 1*1\n", 2, "0_0"),
])
def test_integers_outside_the_ascii_grammar_exit_2(capsys, tmp_path, text, line, token):
    # int() alone reads each of these, and each file used to validate
    bad = tmp_path / "bad.alg"
    bad.write_text(text, encoding="utf-8")
    code, out, err = invoke(capsys, "validate", str(bad))
    assert (code, out) == (2, "")
    assert f"line {line}: " in err and f"must be an integer, got {token!r}" in err


def test_integers_of_the_ascii_grammar_parse(capsys, tmp_path):
    good = tmp_path / "good.alg"
    good.write_text("generator x degree +2 truncate 03\n")
    assert invoke(capsys, "validate", str(good))[:2] == (0, "valid\n")


@pytest.mark.parametrize("command, option, plain, signed", [
    ("check-h", "--max-degree", "2", "+02"), ("derivations", "--degree", "-3", "-03"),
    ("char", "--rank", "5", "+5"), ("rigidity", "--torus", "0", "-0")])
def test_integer_options_follow_the_file_grammar(capsys, command, option, plain, signed):
    s3 = corpus.path("s3")
    want = invoke(capsys, command, s3, option, plain, "--json")
    assert want[0] in (0, 1)
    assert invoke(capsys, command, s3, f"{option}={signed}", "--json") == want
    for text in ("1_0", "٣", " 2 ", "2.0", "0x1"):
        code, out, err = invoke(capsys, command, s3, f"{option}={text}")
        assert (code, out) == (2, "")
        assert f"invalid integer value: {text!r}" in err


def test_argparse_failures_map_to_exit_2(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2
    assert invoke(capsys, "derivations", corpus.path("cp2"))[0] == 2
    assert invoke(capsys)[0] == 2


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_errors_map_to_exit_2(capsys, monkeypatch, error):
    # exit 1 means the property fails, so running out of memory or
    # recursion depth is an exit-2 error, not a verdict
    def exhausted(self):
        raise error()

    monkeypatch.setattr(AlgebraFile, "build", exhausted)
    code, out, err = invoke(capsys, "check-h", corpus.path("cp2"), "--json")
    assert code == 2
    assert out == ""
    assert err == f"error: out of resources ({error.__name__})\n"


# Source that breaks one self-check, run with setattr as given: the
# certificate guard finds a defect in the t3 certificate, or the kernel
# solve of cp2 at degree -2 loses its one pivot, so its kernel vector
# fails a row.  Both leave the answer unknown, which is exit 4, not 1.
SELF_CHECK_FAILURES = {
    "certificate guard": ("t3", """
from negder import derivations
setattr(derivations, "_defects",
        lambda a, m, left: iter([((a.unit, a.unit), {a.unit: 1})]))
"""),
    "kernel check": ("cp2", """
from negder import linalg
eliminate = linalg._eliminate
def lose_a_pivot(rows, ncols=None):
    pivots = eliminate(rows, ncols)
    if ncols is not None and pivots:  # a kernel solve, not an echelon
        pivots.pop(min(pivots))
    return pivots
setattr(linalg, "_eliminate", lose_a_pivot)
"""),
}


@pytest.mark.parametrize("check", sorted(SELF_CHECK_FAILURES))
def test_a_failed_self_check_exits_4(capsys, monkeypatch, check):
    name, source = SELF_CHECK_FAILURES[check]
    argv = ["check-h", corpus.path(name), "--json"]
    exec(source, {"setattr": monkeypatch.setattr})
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # the checks raise rather than assert, so -O keeps them
    main = source + "import sys\nfrom negder.cli import run\nsys.exit(run(sys.argv[1:]))\n"
    proc = subprocess.run([sys.executable, "-O", "-c", main, *argv],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", err)


# Presentations whose tables would exceed MAX_TABLE_ENTRIES.  The third
# and fourth counts have more digits than int() may print: the budget check
# stops at the first generator over the limit and never prints them.  The
# last input is 10.7 MB, of which the parse reads twelve lines.
OVER_THE_BUDGET = [
    ["generator x degree 2 truncate 100000"],
    [f"generator e{k} degree 1" for k in range(30)],
    [f"generator e{k} degree 1" for k in range(20_000)],
    ["generator x degree 2 truncate " + "9" * 4000],
    [f"generator e{k} degree 1" for k in range(400_000)],
]


def run_capped(*argv):
    """(seconds, completed process) of negder argv in a memory-capped child."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "negder", *argv],
                          capture_output=True, text=True, env=src_env(),
                          preexec_fn=cap_memory, timeout=60)
    return time.perf_counter() - start, proc


@pytest.mark.parametrize("lines", OVER_THE_BUDGET)
def test_presentations_over_the_budget_exit_2_quickly(tmp_path, lines):
    target = tmp_path / "huge.alg"
    target.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "negder", "check-h", str(target)],
                          capture_output=True, text=True, env=src_env(),
                          preexec_fn=cap_memory, timeout=30)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "over the limit of" in proc.stderr


def test_the_budget_check_raises_under_python_O(tmp_path):
    # a check written as an assert would be gone under -O, and the child
    # would try to build 3**30 entries
    target = tmp_path / "t30.alg"
    target.write_text("\n".join(OVER_THE_BUDGET[1]) + "\n")
    proc = subprocess.run([sys.executable, "-O", "-m", "negder", "check-h", str(target)],
                          capture_output=True, text=True, env=src_env(),
                          preexec_fn=cap_memory, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: line 12: the presentation needs a table of at least "
                           "531441 entries, over the limit of 250000\n")


@pytest.mark.parametrize("lines", OVER_THE_BUDGET)
def test_char_on_a_presentation_over_the_budget_exits_2_quickly(tmp_path, lines):
    # char builds no table, but the budget still bounds the basis
    target = tmp_path / "huge.alg"
    target.write_text("\n".join(lines) + "\n")
    seconds, proc = run_capped("char", str(target), "--rank", "4")
    assert seconds < 1.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "over the limit of" in proc.stderr


def test_the_one_line_cp399_presentation_validates_quickly(tmp_path):
    # 45 bytes that build an 80 200-entry table: associativity is decided
    # on the generator row alone, not on all 400 rows
    target = tmp_path / "cp399.alg"
    target.write_text("generator x degree 2 truncate 400\n")
    seconds, proc = run_capped("validate", str(target))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "valid\n"
    assert seconds < 3.0, f"{seconds:.2f} s"


@pytest.mark.parametrize("coefficient", ["1e10000000", "1e3000000"])
def test_a_coefficient_with_an_exponent_exits_2_quickly(tmp_path, coefficient):
    # Fraction() reads 1e10000000, and builds a ten-million-digit integer
    target = tmp_path / "exponent.alg"
    target.write_text(f"basis:\n1 0\nunit: 1\nproducts:\n1 1 = {coefficient}*1\n")
    seconds, proc = run_capped("validate", str(target))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"line 5: bad coefficient '{coefficient}'" in proc.stderr
    assert seconds < 3.0, f"{seconds:.2f} s"


def test_a_huge_generator_degree_solves_quickly(tmp_path):
    # the solver walks the degrees that occur, not every integer up to
    # the top degree: theta(x) = 1 is the one derivation of S^n at -n
    n = 10**12 + 1
    target = tmp_path / "sphere.alg"
    target.write_text(f"generator x degree {n}\n")
    seconds, proc = run_capped("derivations", str(target), "--degree", str(-n))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "dimension 1\nbasis map 1:\n  theta(x) = 1\n"
    assert seconds < 3.0, f"{seconds:.2f} s"


def test_a_wide_table_of_unit_products_validates_quickly(tmp_path):
    # 20 001 basis elements and only the unit products: the validator and
    # the parser cost time in proportion to the table plus dim, not dim^2,
    # and check-h reads only the Leibniz rows of the first generator's
    # pairs, which reach full rank, not one row set per pair of generators
    n = 20_001
    lines = ["basis:", "1 0", *(f"x{k} 2" for k in range(1, n)),
             "unit: 1", "products:", "1 1 = 1*1", *(f"1 x{k} = 1*x{k}" for k in range(1, n))]
    target = tmp_path / "wide.alg"
    target.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "negder", "validate", str(target)],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert time.perf_counter() - start < 10.0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "valid\n"
    proc = subprocess.run([sys.executable, "-m", "negder", "check-h", str(target), "--json"],
                          capture_output=True, text=True, env=src_env(),
                          preexec_fn=cap_memory, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["in_class"] is True


def test_the_validator_survives_optimized_mode(tmp_path):
    # one product of the T^4 table doubled: the generator pass finds it
    # and the full pass lists every violation, with or without -O
    text = serialize_structure_constants(torus(4))
    assert "\ni2 i1 = -1*i1*i2\n" in text
    target = tmp_path / "t4_doubled.alg"
    target.write_text(text.replace("\ni2 i1 = -1*i1*i2\n", "\ni2 i1 = -2*i1*i2\n"))
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "negder", "validate",
                               str(target), "--json"],
                              capture_output=True, text=True, env=src_env(), timeout=60)
        assert proc.returncode == 1, proc.stderr
        outputs.append(json.loads(proc.stdout))
    plain, optimized = outputs
    assert optimized == plain
    assert plain["valid"] is False
    t4 = torus(4)
    products = dict(t4.products)
    i1, i2 = t4.labels.index("i1"), t4.labels.index("i2")
    for key in ((i1, i2), (i2, i1)):
        products[key] = {k: 2 * c for k, c in t4.products[key].items()}
    bad = GradedAlgebra(t4.labels, t4.degrees, t4.unit, products)
    assert plain["violations"] == exhaustive_validate(bad) != []
    assert all(v.startswith("associativity: ") for v in plain["violations"])


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0
    assert invoke(capsys, "check-h", "--help")[0] == 0


# --- building the parser ---

def test_a_named_subcommand_builds_its_parser_alone(capsys, monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: made.append(self) or init(
                            self, *args, **kwargs))
    assert invoke(capsys, "check-h", corpus.path("cp2"), "--json")[0] == 0
    assert [p.prog for p in made] == ["negder check-h"]
    made.clear()
    assert invoke(capsys, "--help")[0] == 0
    assert len(made) == 1 + len(cli._COMMANDS)


def equivalence_argv(tmp_path):
    cp2, s3, missing = corpus.path("cp2"), corpus.path("s3"), str(tmp_path / "missing.alg")
    yield from ([], ["-h"], ["--help"], ["--he"], ["--json"], ["--json", "check-h", cp2],
                ["-x"], ["frobnicate"], ["check"], ["Check-h", cp2], ["--", "check-h", cp2])
    options = {"validate": [], "check-h": ["--max-degree", "2"], "derivations": ["--degree", "-3"],
               "char": ["--rank", "2"], "rigidity": ["--torus", "1"]}
    for name, extra in options.items():
        yield from ([name], [name, "-h"], [name, "--help"], [name, s3, *extra],
                    [name, s3, *extra, "--json"], [name, s3, *extra, "--js"],
                    [name, missing, *extra], [name, s3, *extra, "extra"],
                    [name, s3, *extra, "--bogus"], [name, s3, *extra, "--json=1"],
                    [name, s3, *extra, "--", "x"], [name, "--json", *extra])
        if extra:
            option, value = extra
            yield from ([name, s3], [name, s3, option], [name, s3, option, "two"],
                        [name, s3, option, "1_0"], [name, s3, f"{option}={value}"],
                        [name, s3, option[:5], value], [name, s3, option, "-0"],
                        [name, cp2, option, value, option, value])
    yield from (["examples"], ["examples", "-h"], ["examples", "list"], ["examples", "list", "--json"],
                ["examples", "show", "cp2"], ["examples", "show"], ["examples", "show", "nope"],
                ["examples", "bogus"], ["examples", "list", "a", "b"], ["examples", "--j", "list"])


def full_parser_run(argv):
    """(exit code, stdout, stderr) of argv read by the full parser alone,
    then answered by the handler as run answers it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli._dispatch(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            code = 0 if exc.code in (0, None) else 2
    return code, out.getvalue(), err.getvalue()


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_a_subcommand_parser_answers_as_the_full_parser(tmp_path):
    s3 = corpus.path("s3")
    leftovers = (["check-h", s3, "--bogus", "-h"], ["check-h", "a", "b"],
                 ["validate", "a", "b", "--json"], ["rigidity", s3, "--torus", "1", "--torus"],
                 ["derivations", s3, "--degree", "-1", "--", "--json"])
    for argv in [*equivalence_argv(tmp_path), *leftovers]:
        assert run_captured(argv) == full_parser_run(argv), argv


def command_lines():
    """Command lines of subcommand names, help, --json and its prefix,
    each option with a good and a bad value, --, a real file, a missing
    file and stray words, most of them led by a subcommand name."""
    words = [["-h"], ["--json"], ["--js"], ["--"], ["s3"], ["missing"], ["x"], ["list"],
             ["show"], ["cp2"], ["--bogus"], ["--max-degree", "2"], ["--max-degree", "two"],
             ["--degree", "-1"], ["--degree", "1_0"], ["--rank", "2"], ["--rank", "0"],
             ["--torus", "1"], ["--torus", "-1"], ["--degree"], ["--rank"]]
    heads = [*([name] for name in cli._COMMANDS), ["-h"], ["--json"], ["frobnicate"], []]
    return st.tuples(st.sampled_from(heads), st.lists(st.sampled_from(words), max_size=5)).map(
        lambda drawn: drawn[0] + [w for group in drawn[1] for w in group])


@given(command_lines())
@settings(max_examples=300, deadline=None)
def test_random_command_lines_answer_as_the_full_parser(tmp_path_factory, argv):
    files = {"s3": corpus.path("s3"), "missing": str(tmp_path_factory.getbasetemp() / "missing.alg")}
    argv = [files.get(word, word) for word in argv]
    assert run_captured(argv) == full_parser_run(argv), argv


def test_run_can_be_reused_in_one_process(capsys, tmp_path):
    # every later run answers as the same run did first: a cap, a usage
    # error or a help text leaves nothing behind for the next call
    cp2 = corpus.path("cp2")
    correct = ("check-h", cp2, "--json")
    sequence = [(("check-h", cp2, "--max-degree", "2"), 0), (correct, 0),
                (("check-h", cp2, "--max-degree", "two"), 2),
                (("check-h", cp2, "--frobnicate"), 2),
                (("check-h", str(tmp_path / "missing.alg")), 2), (("-h",), 0)]
    first = {}
    for argv, code in sequence * 2:
        for args in (argv, correct):
            result = invoke(capsys, *args)[:2]
            assert first.setdefault(args, result) == result, args
        assert first[argv][0] == code
    assert first[correct][0] == 0
    assert json.loads(first[correct][1])["degrees"][-1]["degree"] == -4


# --- the examples subcommand ---

def test_examples_list_names_everything(capsys):
    code, out, _ = invoke(capsys, "examples", "list")
    assert code == 0
    for name in corpus.names():
        assert f"{name}: " in out


def test_examples_show_prints_the_file(capsys):
    code, out, _ = invoke(capsys, "examples", "show", "s3")
    assert code == 0
    assert "generator x degree 3" in out


def test_examples_show_requires_a_known_name(capsys):
    assert invoke(capsys, "examples", "show")[0] == 2
    assert invoke(capsys, "examples", "show", "nope")[0] == 2


# --- JSON output ---

def test_json_documents_parse_and_are_stable(capsys):
    matrix = [
        ("validate", corpus.path("cp2")),
        ("check-h", corpus.path("s5")),
        ("derivations", corpus.path("t3"), "--degree", "-1"),
        ("char", corpus.path("cp4"), "--rank", "5"),
        ("rigidity", corpus.path("cp1xcp1"), "--torus", "2"),
        ("examples", "list"),
    ]
    for argv in matrix:
        first = invoke(capsys, *argv, "--json")
        second = invoke(capsys, *argv, "--json")
        assert first == second
        doc = json.loads(first[1])
        assert doc["command"] == argv[0].replace("examples", "examples")


def test_json_rationals_are_exact_strings(capsys):
    _, out, _ = invoke(capsys, "derivations", corpus.path("s3"),
                       "--degree", "-3", "--json")
    doc = json.loads(out)
    assert doc["basis"][0]["blocks"][0]["matrix"] == [["1"]]


def test_json_certificate_round_trips(capsys):
    code, out, _ = invoke(capsys, "check-h", corpus.path("s7"), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["certificate"]["degree"] == -7
    assert doc["in_class"] is False
    assert doc["connectivity_ok"] is True


def test_json_output_renders_no_text(capsys, monkeypatch):
    jobs = [("derivations", corpus.path("t3"), "--degree", "-1", "--json"),
            ("check-h", corpus.path("s3"), "--json"),
            ("rigidity", corpus.path("s3"), "--torus", "3", "--json")]
    before = [invoke(capsys, *argv) for argv in jobs]
    assert [code for code, _, _ in before] == [1, 1, 1]

    def no_text(*args, **kwargs):
        raise AssertionError("text rendered for a --json run")

    monkeypatch.setattr(cli, "_map_lines", no_text)
    assert [invoke(capsys, *argv) for argv in jobs] == before
    with pytest.raises(AssertionError, match="text rendered"):
        run(["check-h", corpus.path("s3")])


def test_json_bytes_survive_hash_seed_changes():
    argv = [sys.executable, "-m", "negder", "check-h", corpus.path("cp2xs4"),
            "--json"]
    outputs = set()
    for seed in ("0", "1", "31337"):
        proc = subprocess.run(argv, capture_output=True,
                              env=src_env(PYTHONHASHSEED=seed))
        assert proc.returncode == 0
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# --- char reads the basis alone ---

def char_json(path, rank):
    """(exit code, stdout) of `char --json`, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["char", str(path), "--rank", str(rank), "--json"])
    return code, out.getvalue()


def assert_char_is_the_built_char(path, monkeypatch):
    """char on path gives the same bytes as char over the built algebra,
    at every rank up to the top degree and beyond."""
    ranks = range(1, 12)
    table_free = [char_json(path, rank) for rank in ranks]
    with monkeypatch.context() as patch:
        patch.setattr(AlgebraFile, "basis", AlgebraFile.build)
        built = [char_json(path, rank) for rank in ranks]
    assert table_free == built
    assert {code for code, _ in table_free} == {0}


def test_char_on_the_corpus_presentations_is_the_built_char(monkeypatch):
    names = [n for n in corpus.names() if detect_format(corpus.text(n)) == PRESENTATION]
    assert len(names) == 12
    for name in names:
        assert_char_is_the_built_char(corpus.path(name), monkeypatch)


@given(presentations())
@settings(max_examples=40, deadline=None)
def test_char_on_random_presentations_is_the_built_char(tmp_path_factory, p):
    lines = [f"name {p.name}"] + [f"generator {g.symbol} degree {g.degree} truncate "
                                  f"{g.truncation}" for g in p.generators]
    target = tmp_path_factory.mktemp("char") / "random.alg"
    target.write_text("\n".join(lines) + "\n")
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_char_is_the_built_char(target, monkeypatch)


def test_char_on_a_presentation_builds_no_algebra(monkeypatch):
    built = []
    init = GradedAlgebra.__init__
    monkeypatch.setattr(GradedAlgebra, "__init__",
                        lambda self, *args, **kwargs: built.append(args)
                        or init(self, *args, **kwargs))
    code, out = char_json(corpus.path("cp2xs4"), 4)
    assert code == 0 and json.loads(out)["basis"] == [{"degree": 4, "labels": ["y", "x^2"]}]
    assert built == []
    # a table is parsed and validated, as before
    assert char_json(corpus.path("t2"), 2)[0] == 0
    assert len(built) == 1
