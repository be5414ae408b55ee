"""Numbers written as text are read in one place, fileformats: the library
takes an int for an index, degree or rank and an int or a Fraction for a
value, and the integer options of the command line go through the file
grammar's reader.  The table below runs in a ``python -O`` child, so every
check must raise rather than assert; run as a script, this file is that
child and prints one JSON report."""

import contextlib
import io
import json
import subprocess
import sys
import time

from conftest import identity_map, projective_space, src_env
from negder import (Element, Generator, GradedAlgebra, GradedBasis, GradedLinearMap,
                    KunnethModel, LambdaFamily, Presentation, ProofTrace,
                    build_monomial_algebra, char_subspace, check_class_h, corpus,
                    derivation_space, leibniz_system, monomial_basis, nullspace_basis,
                    prove_rigidity, torus_exterior)
from negder.cli import run
from negder.linalg import dot, echelon, mat_vec, rank_fraction_free, rref
from negder.rigidity import level_cap

# an exponent that Fraction() reads at a cost that grows with it, an
# underscore and a non-ASCII digit that int() reads, a float and a bool
HOSTILE = ["1e10000000", "1_0", "٣", 2.5, True]
# what int() reads but the file grammar does not
HOSTILE_OPTIONS = ["-3_0", "٣", " 2 "]


def library_entries():
    """(name, call) for every public entry that takes a number or an index;
    call(v) passes v there, with every other argument valid."""
    cp2 = projective_space(2)
    ident = identity_map(cp2)
    model = KunnethModel(cp2, 1)
    theta = GradedLinearMap.from_images(cp2, -2, {1: cp2.basis_element(0)})
    fam = LambdaFamily(2, {(1, 2): theta})
    verdict = check_class_h(cp2)
    return [
        ("Element key", lambda v: Element({v: 1})),
        ("Element value", lambda v: Element({0: v})),
        ("Element scalar", lambda v: Element({0: 1}) * v),
        ("GradedBasis degree", lambda v: GradedBasis(["1", "x"], [0, v], 0)),
        ("GradedBasis unit", lambda v: GradedBasis(["1"], [0], v)),
        ("GradedAlgebra key", lambda v: GradedAlgebra(["1"], [0], 0, {(v, 0): {0: 1}})),
        ("GradedAlgebra term index", lambda v: GradedAlgebra(["1"], [0], 0, {(0, 0): {v: 1}})),
        ("GradedAlgebra value", lambda v: GradedAlgebra(["1"], [0], 0, {(0, 0): {0: v}})),
        ("GradedAlgebra pairs key",
         lambda v: GradedAlgebra(["1"], [0], 0, iter([((v, 0), {0: 1})]))),
        ("GradedAlgebra pairs term index",
         lambda v: GradedAlgebra(["1"], [0], 0, iter([((0, 0), {v: 1})]))),
        ("GradedAlgebra pairs value",
         lambda v: GradedAlgebra(["1"], [0], 0, iter([((0, 0), {0: v})]))),
        ("graded_piece", lambda v: cp2.graded_piece(v)),
        ("basis_element", lambda v: cp2.basis_element(v)),
        ("generator degree",
         lambda v: build_monomial_algebra(Presentation("p", (Generator("x", v),)))),
        ("generator truncation",
         lambda v: monomial_basis(Presentation("p", (Generator("x", 2, v),)))),
        ("GradedLinearMap shift", lambda v: GradedLinearMap(v)),
        ("GradedLinearMap block degree", lambda v: GradedLinearMap(0, {v: [[1]]})),
        ("GradedLinearMap entry", lambda v: GradedLinearMap(0, {2: [[v]]})),
        ("image", lambda v: ident.image(cp2, v)),
        ("from_images shift", lambda v: GradedLinearMap.from_images(cp2, v, {})),
        ("from_images index", lambda v: GradedLinearMap.from_images(cp2, 0, {v: Element()})),
        ("derivation_space", lambda v: derivation_space(cp2, v)),
        ("leibniz_system", lambda v: leibniz_system(cp2, v)),
        ("check_class_h", lambda v: check_class_h(cp2, v)),
        ("torus_exterior", lambda v: torus_exterior(v)),
        ("KunnethModel", lambda v: KunnethModel(cp2, v)),
        ("total_index base index", lambda v: model.total_index(v, ())),
        ("total_index coordinate", lambda v: model.total_index(0, (v,))),
        ("split_index", lambda v: model.split_index(v)),
        ("LambdaFamily torus rank", lambda v: LambdaFamily(v)),
        ("LambdaFamily coordinate", lambda v: LambdaFamily(2, {(1, v): theta})),
        ("component", lambda v: fam.component((v,))),
        ("char_subspace", lambda v: char_subspace(cp2, v)),
        ("level_cap", lambda v: level_cap(cp2, v)),
        ("prove_rigidity", lambda v: prove_rigidity(cp2, v)),
        ("ProofTrace.from_verdict", lambda v: ProofTrace.from_verdict(cp2, verdict, v)),
        ("echelon value", lambda v: echelon([{0: v}])),
        ("nullspace_basis value", lambda v: nullspace_basis([{0: v}], ncols=1)),
        ("nullspace_basis column", lambda v: nullspace_basis([{v: 1}], ncols=2)),
        ("nullspace_basis ncols", lambda v: nullspace_basis([[1]], ncols=v)),
        ("rref", lambda v: rref([[v]])),
        ("rank_fraction_free", lambda v: rank_fraction_free([[v, 1]])),
        ("dot row", lambda v: dot([v], [1])),
        ("dot vector", lambda v: dot([1], [v])),
        ("mat_vec matrix", lambda v: mat_vec([[v]], [1])),
        ("mat_vec vector", lambda v: mat_vec([[1]], [v])),
    ]


def option_cases():
    """argv for every integer option of the command line, given each of
    HOSTILE_OPTIONS."""
    cp2 = corpus.path("cp2")
    return [[command, cp2, f"{option}={v}"]
            for command, option in (("check-h", "--max-degree"), ("derivations", "--degree"),
                                    ("char", "--rank"), ("rigidity", "--torus"))
            for v in HOSTILE_OPTIONS]


def main():
    failures = []
    slowest = (0.0, None)
    calls = 0
    for name, call in library_entries():
        for v in HOSTILE:
            calls += 1
            start = time.perf_counter()
            try:
                call(v)
            except ValueError:
                pass
            except Exception as exc:
                failures.append(f"{name} {v!r}: {type(exc).__name__}: {exc}")
            else:
                failures.append(f"{name} {v!r}: no error")
            slowest = max(slowest, (time.perf_counter() - start, f"{name} {v!r}"))
    for argv in option_cases():
        calls += 1
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        if code != 2:
            failures.append(f"{' '.join(argv)}: exit {code}")
    print(json.dumps({"optimized": not __debug__, "calls": calls,
                      "failures": failures, "slowest": slowest}))


def test_hostile_numbers_raise_value_error_at_once_in_optimized_mode():
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-O", __file__], capture_output=True,
                          text=True, env=src_env(), timeout=30)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["optimized"]
    assert report["calls"] == len(HOSTILE) * len(library_entries()) + len(option_cases())
    assert report["failures"] == []
    # Element({0: "1e10000000"}) alone used to take 14 s
    assert report["slowest"][0] < 0.5, report["slowest"]
    assert elapsed < 10


if __name__ == "__main__":
    main()
