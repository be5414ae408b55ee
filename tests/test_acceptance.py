"""Acceptance suite.

Each test exercises one promised behavior end to end and prints exactly one
line, ``ACCEPTANCE <n> (<slug>): PASS`` or ``... FAIL``, so a transcript of
``pytest -s tests/test_acceptance.py`` doubles as a sign-off sheet.  All
arithmetic in the package is exact, so every comparison below is equality;
the only tolerance that appears is the wall-clock budget in criterion 1.
"""

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import src_env
from negder import (GradedAlgebra, KunnethModel, LambdaFamily, Generator, Presentation,
                    build_monomial_algebra, char_subspace, check_class_h,
                    corpus, derivation_space, is_derivation,
                    multiplicativity_residual, prove_rigidity)
from negder.cli import run
from negder.derivations import leibniz_system
from negder.linalg import nullspace_basis, rank_fraction_free, rref

CLASS_MEMBERS = ["cp1", "cp2", "cp3", "cp4", "s2", "s4", "s6",
                 "cp1xcp1", "cp2xs4"]
FAILING_SPHERES = {"s3": -3, "s5": -5, "s7": -7}


@contextlib.contextmanager
def criterion(number, slug):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({slug}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({slug}): PASS")


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_01_class_members_decided_quickly():
    with criterion(1, "class membership in under a second"):
        for name in CLASS_MEMBERS:
            started = time.perf_counter()
            code, out, _ = cli(["check-h", corpus.path(name)])
            elapsed = time.perf_counter() - started
            assert code == 0, name
            assert "in class H" in out, name
            assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"


def test_02_failure_certificates_are_exact_derivations():
    with criterion(2, "failure certificates verify exactly"):
        for name, expected_degree in FAILING_SPHERES.items():
            verdict = check_class_h(corpus.load(name))
            assert not verdict.in_class, name
            degree, cert = verdict.certificate
            assert degree == expected_degree, name
            assert cert.shift == expected_degree, name
            assert not cert.is_zero(), name
            assert is_derivation(corpus.load(name), cert) == [], name
            code, out, _ = cli(["check-h", corpus.path(name)])
            assert code == 1 and f"degree {expected_degree}:" in out, name


def test_03_characteristic_subspace_degrees():
    with criterion(3, "characteristic subspace degrees"):
        cp2 = corpus.load("cp2")
        assert char_subspace(cp2, 2).degrees == (2,)
        assert char_subspace(cp2, 3).degrees == (4,)
        assert char_subspace(cp2, 4).degrees == (4,)
        char = char_subspace(corpus.load("cp4"), 5)
        assert char.degrees == (4, 8)
        assert char.dimension == 2


def test_04_rigidity_prover_traces():
    with criterion(4, "rigidity prover verdicts"):
        cp2 = corpus.load("cp2")
        for s in range(1, 5):
            trace = prove_rigidity(cp2, s)
            assert trace.established and trace.failed_level is None
            assert [r.dimension for r in trace.levels] == [0] * min(s, 4)
        trace = prove_rigidity(corpus.load("s3"), 3)
        assert not trace.established
        assert trace.failed_level == 3
        assert [r.dimension for r in trace.levels] == [0, 0, 1]
        assert is_derivation(corpus.load("s3"), trace.levels[-1].certificate) == []


def test_05_pullback_families_are_multiplicative():
    with criterion(5, "pullback families multiply correctly"):
        for name in corpus.names():
            base = corpus.load(name)
            model = KunnethModel(base, 2)
            trivial = LambdaFamily(2)
            assert not trivial.components, name
            assert multiplicativity_residual(model, trivial) == [], name
            line_model = KunnethModel(base, 1)
            for d in range(-base.top_degree, 0):
                space = derivation_space(base, d)
                if space and d % 2 == 0:
                    raise AssertionError(
                        f"{name}: unexpected even-degree derivations at {d}")
                for theta in space:
                    fam = LambdaFamily(1, {(1,): theta})
                    assert multiplicativity_residual(line_model, fam) == [], \
                        (name, d)


def test_06_independent_rank_cross_checks():
    with criterion(6, "two elimination pipelines agree"):
        for name in corpus.names():
            alg = corpus.load(name)
            for d in range(-alg.top_degree, 1):
                rows, unknowns = leibniz_system(alg, d)
                kernel = nullspace_basis(rows, ncols=len(unknowns))
                assert len(kernel) == len(unknowns) - rank_fraction_free(rows)
                assert len(kernel) == len(derivation_space(alg, d))
        rng = random.Random(20260823)
        for _ in range(1000):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(ncols)] for _ in range(nrows)]
            assert rref(matrix)[1] == rank_fraction_free(matrix)


def test_07_randomized_presentations_validate():
    with criterion(7, "random builder output passes validation"):
        rng = random.Random(1729)
        produced = 0
        while produced < 30:
            count = rng.randint(1, 3)
            gens = []
            for symbol in "abc"[:count]:
                degree = rng.randint(1, 8)
                trunc = 2 if degree % 2 else rng.choice([2, 3, 4])
                gens.append(Generator(symbol, degree, trunc))
            alg = build_monomial_algebra(
                Presentation(f"random-{produced}", tuple(gens)))
            if alg.dim > 36:
                continue
            assert alg.validate() == [], [g.symbol for g in gens]
            produced += 1
        # the validator also has to catch seeded corruptions
        cp2 = corpus.load("cp2")
        products = dict(cp2.products)
        products[(1, 1)] = {1: Fraction(1)}
        degree_bad = GradedAlgebra(cp2.labels, cp2.degrees, cp2.unit, products)
        assert any("degree additivity" in v for v in degree_bad.validate())
        odd = build_monomial_algebra(
            Presentation("ab", (Generator("a", 3), Generator("b", 5))))
        ia, ib, iab = (odd.labels.index(s) for s in ("a", "b", "a*b"))
        products = dict(odd.products)
        products[(ib, ia)] = {iab: Fraction(1)}
        sign_bad = GradedAlgebra(odd.labels, odd.degrees, odd.unit, products)
        assert any("graded commutativity" in v for v in sign_bad.validate())


def test_08_json_output_is_deterministic():
    with criterion(8, "byte-identical JSON reruns"):
        for name in corpus.names():
            path = corpus.path(name)
            matrix = [
                ["validate", path, "--json"],
                ["check-h", path, "--json"],
                ["derivations", path, "--degree", "-1", "--json"],
                ["char", path, "--rank", "3", "--json"],
                ["rigidity", path, "--torus", "2", "--json"],
                ["examples", "show", name, "--json"],
            ]
            for argv in matrix:
                first, second = cli(argv), cli(argv)
                assert first == second, (name, argv[0])
                json.loads(first[1])
        outputs = set()
        for seed in ("0", "1", "20260823"):
            proc = subprocess.run(
                [sys.executable, "-m", "negder", "rigidity",
                 corpus.path("cp2xs4"), "--torus", "3", "--json"],
                capture_output=True, env=src_env(PYTHONHASHSEED=seed))
            assert proc.returncode == 0
            outputs.add(proc.stdout)
        assert len(outputs) == 1
