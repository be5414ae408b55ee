"""Committed mutants: each row changes one fragment of one module's source
and names the check that must catch it.

The mutated source is executed into a fresh module object, so the package
itself is never touched.  Each row asserts that its fragment occurs
exactly once in the source, so a refactor that moves it fails the row
loudly rather than leaving a mutant that no longer mutates.  The check
must pass on an unchanged copy of the module and fail on the mutant.
"""

import contextlib
import errno
import inspect
import io
import json
import os
import sys
import types
from typing import NamedTuple
from unittest import mock

import pytest

from conftest import (ROOT, cp2_with_x_squared_x, echelon_generators, exhaustive_validate,
                      generator_pair_space, load_script, projective_space, rebased_cp2xs4,
                      rebuilt, rref_kernel, sphere, torus)
from negder import (Generator, Presentation, algebra, build_monomial_algebra, cli, corpus,
                    derivation_space, derivations, fileformats, leibniz_system, linalg,
                    serialize_structure_constants)

golden = load_script("golden", "perfbench")


def mutant(module, fragment, replacement):
    """module with its one occurrence of fragment replaced, as a new module
    object whose relative imports read the package."""
    source = inspect.getsource(module)
    assert source.count(fragment) == 1, fragment
    mutated = types.ModuleType(module.__name__ + "_mutant")
    mutated.__package__ = "negder"
    # @dataclass looks its class's module up in sys.modules
    sys.modules[mutated.__name__] = mutated
    try:
        exec(compile(source.replace(fragment, replacement), module.__file__, "exec"),
             mutated.__dict__)
    finally:
        del sys.modules[mutated.__name__]
    return mutated


def tensor_of_circles_is_valid(m):
    assert m.tensor(torus(1), torus(1)).validate() == []


def exterior_presentation_is_valid(m):
    gens = (Generator("i1", 1, 2), Generator("i2", 1, 2))
    assert m.build_monomial_algebra(Presentation("T2", gens)).validate() == []


def serialized_exterior_table_parses(m):
    t2 = torus(2)
    assert m.parse_structure_constants(serialize_structure_constants(t2)) == t2


def validate_finds_what_the_oracle_finds(m):
    # CP4 with x * x^2 = x^2 * x = 2 x^3: the degrees, units and mirrors
    # hold, and only associativity on the generator x fails
    cp4 = projective_space(4)
    products = {key: dict(terms) for key, terms in cp4.products.items()}
    products[1, 2] = products[2, 1] = {3: 2}
    bad = m.GradedAlgebra(cp4.labels, cp4.degrees, cp4.unit, products)
    violations = bad.validate()
    assert len(violations) == 2 and violations == exhaustive_validate(bad)


def degree_violation_is_found(m):
    bad = cp2_with_x_squared_x(m.GradedAlgebra)
    violations = bad.validate()
    assert violations and violations == exhaustive_validate(bad)


def unknown_product_label_is_named(m):
    text = "basis:\n1 0\nx 2\nunit: 1\nproducts:\n1 1 = 1*1\n1 y = 1*x\n"
    try:
        m.parse_structure_constants(text)
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
    else:
        message = None
    assert message == "ParseError: line 7: unknown basis label 'y'"


def odd_spaces_match_the_oracle(m):
    # T4 at -1 and T3 x S3 at -3 carry theta through expansions such as
    # i1 * (i2 * i3), whose two factors differ in parity; each input alone
    # catches a sign read off the wrong factor
    gens = (*(Generator(f"i{k}", 1, 2) for k in (1, 2, 3)), Generator("y", 3, 2))
    t3xs3 = build_monomial_algebra(Presentation("T3xS3", gens))
    for a, d in ((torus(4), -1), (t3xs3, -3)):
        # the mutant's maps are of its own class, so compare what they hold
        blocks = [(theta.shift, theta.blocks) for theta in m.derivation_space(a, d)]
        assert blocks == [(theta.shift, theta.blocks) for theta in generator_pair_space(a, d)]


def certificate_is_the_first_canonical_map(m):
    # T4 fails at -1 with 4 maps, T3 x S3 at -1 with 6 and S3 at -3 with 1
    gens = (*(Generator(f"i{k}", 1, 2) for k in (1, 2, 3)), Generator("y", 3, 2))
    for a in (torus(4), build_monomial_algebra(Presentation("T3xS3", gens)), sphere(3)):
        d, theta = m.check_class_h(a).certificate
        first = derivation_space(a, d)[0]
        assert (theta.shift, theta.blocks) == (first.shift, first.blocks)


def built_elimination_is_the_echelon(m):
    # the table rebuilt through the package's constructor runs the echelon
    gens = (*(Generator(f"i{k}", 1, 2) for k in (1, 2, 3)), Generator("y", 3, 2))
    a = m.build_monomial_algebra(Presentation("T3xS3", gens))
    assert a._elimination == rebuilt(a)._elimination


def rebased_expansions_give_the_oracle_space(m):
    # the mutant's algebra, solved by the package's derivation_space
    a = rebased_cp2xs4(m.GradedAlgebra)
    assert a.validate() == []
    blocks = [(theta.shift, theta.blocks) for theta in derivation_space(a, 0)]
    assert blocks == [(theta.shift, theta.blocks) for theta in generator_pair_space(a, 0)]


def rebased_space_is_the_dense_kernel(m):
    # at degree 0 the solver's kernel vectors are {1: 1} and {2: 1, 0: 1/2},
    # so a carry that drops a value other than 1 moves the space away from
    # the kernel read off dense rref of the all-pairs system
    a = rebased_cp2xs4()
    rows, unknowns = leibniz_system(a, 0)
    space = [[theta.image(a, i).coeff(t) for i, t in unknowns]
             for theta in m.derivation_space(a, 0)]
    assert space == rref_kernel(rows, len(unknowns))


def caret_symbol_is_refused(m):
    # parse_presentation reads its generators through the mutant's checker
    with mock.patch.object(fileformats, "check_generator", m.check_generator):
        try:
            fileformats.parse_presentation("generator x^2 degree 2\n")
        except fileformats.ParseError as exc:
            message = str(exc)
        else:
            message = None
    assert message == "line 1: illegal generator symbol 'x^2'"


def table_key_outside_the_basis_is_refused(m):
    # the key (1, -1) would read degrees[-1] and pass for x * x
    try:
        m.GradedAlgebra(["1", "x"], [0, 2], 0, {(0, 0): {0: 1}, (1, -1): {1: 1}})
    except ValueError as exc:
        message = str(exc)
    else:
        message = None
    assert message == "table key (1, -1) names -1, outside 0..1"


def basis_with_a_negative_degree_is_refused(m):
    try:
        m.GradedBasis(["1", "x"], [0, -2], 0)
    except ValueError as exc:
        message = str(exc)
    else:
        message = None
    assert message == "basis label 'x' has negative degree -2"


def degree_zero_joins_the_generators(m):
    # Q x Q (x) CP2: the idempotent e (x) 1 of degree 0 is a generator
    qxq = m.GradedAlgebra(["1", "e"], [0, 0], 0, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                                  (1, 0): {1: 1}, (1, 1): {1: 1}})
    a = m.tensor(qxq, projective_space(2))
    assert a.generator_indices == echelon_generators(a)


def products_are_read_only(m):
    # neither a key nor a term can be changed through products
    a = m.GradedAlgebra(["1"], [0], 0, {(0, 0): {0: 1}})
    with contextlib.suppress(TypeError):
        del a.products[(0, 0)]
    with contextlib.suppress(TypeError, KeyError):
        a.products[(0, 0)][0] = 2
    assert a._table == {(0, 0): {0: 1}}


def validate_hands_out_a_fresh_list(m):
    # a verdict with a violation, which a caller's edit must not change
    bad = cp2_with_x_squared_x(m.GradedAlgebra)
    bad.validate().clear()
    assert bad.validate() == exhaustive_validate(bad) != []


def message_of(call):
    """The message of the ValueError that call raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def non_mapping_is_named(m):
    assert (message_of(lambda: m._terms(5, "Element key"))
            == "a mapping {Element key: coefficient} is needed, not 5")


def non_iterable_system_is_named(m):
    assert (message_of(lambda: m.nullspace_basis(5, 1))
            == "the system must be an iterable of rows, not 5")


def long_value_is_cut(m):
    assert (message_of(lambda: m._items(tuple(range(100_000)), "a mapping is needed"))
            == "a mapping is needed, not (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1... "
               "(688890 characters)")


def huge_int_is_named_by_its_size(m):
    assert (message_of(lambda: m._iterated(10**5000, "rows must be an iterable"))
            == "rows must be an iterable, not <int of 16610 bits>")


def answer(call, argv):
    """(exit code, stdout, stderr) of call(argv), an exit as run maps it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = 0 if exc.code in (0, None) else 2
    return code, out.getvalue(), err.getvalue()


def leftovers_answer_as_the_full_parser(m):
    s3 = corpus.path("s3")
    for argv in (["check-h", s3, "--bogus", "-h"], ["check-h", "a", "b"],
                 ["validate", "a", "b", "--json"], ["rigidity", s3, "--torus", "1", "--torus"],
                 ["derivations", s3, "--degree", "-1", "--", "--json"]):
        assert answer(m.run, argv) == answer(
            lambda argv: m._dispatch(m.build_parser().parse_args(argv)), argv), argv


def kernel_of_a_chain_is_exact(m):
    assert m.nullspace_basis([[1, 1, 0], [0, 1, 1]], 3) == [{0: 1, 1: -1, 2: 1}]


def sphere_derivation_has_no_defect(m):
    s3 = sphere(3)
    (theta,) = derivation_space(s3, -3)
    assert m.is_derivation(s3, theta) == []


def long_command_is_quoted_short(m):
    code, out, err = answer(m.run, ["x" * 100_000])
    assert (code, out) == (2, "") and len(err) < 300
    assert f"invalid choice: '{'x' * 40}'... (100000 characters) (choose from" in err


def long_token_inside_a_longer_is_cut_once(m):
    # "x" * 41 shows thousands of times inside the ambiguous option
    code, out, err = answer(m.run, ["check-h", "a", "x" * 41, "--=" + "x" * 100_000])
    assert (code, out) == (2, "") and len(err) < 300


def long_path_is_quoted_short(m):
    # no file system takes a name this long, so open fails with ENAMETOOLONG
    code, out, err = answer(m.run, ["check-h", "x" * 100_000])
    strerror = os.strerror(errno.ENAMETOOLONG)
    assert (code, out, err) == (2, "", f"error: [Errno {errno.ENAMETOOLONG}] {strerror}: "
                                       f"'{'x' * 40}'... (100000 characters)\n")


def check_h_json_matches_its_golden_digest(m):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = m.run(["check-h", corpus.path("s3"), "--json"])
    pinned = golden.load(os.path.join(ROOT, "perfbench", "golden.json"))["check-h s3"]
    assert (code, golden.digest(json.loads(out.getvalue()))) == (pinned["exit"], pinned["sha256"])


def report_keys_are_sorted(m):
    doc = {"shift": -1, "blocks": [{"source_degree": 1, "matrix": [["1", "-1/2"]]}]}
    assert m._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


class Row(NamedTuple):
    module: types.ModuleType
    fragment: str
    replacement: str
    check: object
    raises: object = AssertionError  # or the name of the mutant's own class


ROWS = {
    "tensor Koszul sign": Row(
        algebra, "sign = -1 if (b.degrees[j1] * a.degrees[i2]) % 2 else 1", "sign = 1",
        tensor_of_circles_is_valid),
    "Koszul sign masks": Row(
        algebra, "(letters[j] & up).bit_count() & 1", "0", exterior_presentation_is_valid),
    "builder's expansion coefficient negated": Row(
        algebra, "{(g, y): table[g, y][x]}", "{(g, y): -table[g, y][x]}",
        built_elimination_is_the_echelon),
    "parser's odd mirror": Row(
        fileformats, "if degrees[i] & degrees[j] & 1:", "if False:",
        serialized_exterior_table_parses, "ValidationError"),
    "validate compares a mirror without its sign": Row(
        algebra, "_mirror(terms, degrees[i] & degrees[j] & 1)", "_mirror(terms, 0)",
        exterior_presentation_is_valid),
    "degree fact only for mixed entries": Row(
        algebra, "facts[entry] != degrees[i] + degrees[j]", "facts[entry] is None",
        degree_violation_is_found),
    "product line with an unknown label let through": Row(
        fileformats, "if None in key:", "if False:", unknown_product_label_is_named),
    "validate skips a generator": Row(
        algebra, "self._associativity(set(range(dim)) - reached - {u})",
        "self._associativity(sorted(set(range(dim)) - reached - {u})[:-1])",
        validate_finds_what_the_oracle_finds),
    "reached rule without its degree test": Row(
        algebra, "len(terms) == 1 and degrees[i] > 0 and degrees[j] > 0", "len(terms) == 1",
        validate_finds_what_the_oracle_finds),
    "elimination drops the unit terms": Row(
        algebra, "{(unit, c): -x for c, x in row.items() if c < dim and c != p}", "{}",
        rebased_expansions_give_the_oracle_space),
    "constructor without its key range test": Row(
        algebra, "if not (0 <= i < dim and 0 <= j < dim):", "if False:",
        table_key_outside_the_basis_is_refused),
    "basis without its degree test": Row(
        algebra, "if d < 0:", "if False:", basis_with_a_negative_degree_is_refused),
    "generators leave out degree 0": Row(
        algebra, "i != unit", "degrees[i] > 0", degree_zero_joins_the_generators),
    "products left writable": Row(
        algebra, "_Products(table)", "table", products_are_read_only),
    "products hands out the raw entry": Row(
        algebra, "MappingProxyType(self._table[key])", "self._table[key]",
        products_are_read_only),
    "validate hands out its cached list": Row(
        algebra, "list(self._violations)", "self._violations", validate_hands_out_a_fresh_list),
    "check_generator without the ^ rule": Row(
        algebra, 'or "^" in symbol', "", caret_symbol_is_refused),
    "carry sign from the second factor": Row(
        derivations, "_sign(d * degrees[i])", "_sign(d * degrees[j])",
        odd_spaces_match_the_oracle),
    "_eliminate skips a pivot clear": Row(
        linalg, "_subtract(prow, prow.pop(p), r, p)", "prow.pop(p)",
        kernel_of_a_chain_is_exact, ArithmeticError),
    "carry without the kernel coefficient": Row(
        derivations, "x * v[c]", "x", rebased_space_is_the_dense_kernel),
    "certificate from the last canonical row": Row(
        derivations, "theta = next(maps)", "*_, theta = maps",
        certificate_is_the_first_canonical_map),
    "_defects sign": Row(
        derivations, "sign = _sign(m.shift * a.degrees[i])", "sign = 1",
        sphere_derivation_has_no_defect),
    "report without its command": Row(
        cli, 'doc["command"] = args.command', "pass", check_h_json_matches_its_golden_digest),
    "mapping reader lets a non-mapping through": Row(
        linalg, 'raise ValueError(f"{message}, not {_quote(mapping)}") from None',
        "return {}.items()", non_mapping_is_named),
    "iterable reader lets a non-iterable through": Row(
        linalg, 'raise ValueError(f"{message}, not {_quote(values)}") from None',
        "return iter(())", non_iterable_system_is_named),
    "quote shows a long repr whole": Row(
        linalg, 'f"{text[:_QUOTE_CAP]}... ({len(text)} characters)"', "text", long_value_is_cut),
    "quote lets an int past the limit through": Row(
        linalg, """    try:
        text = repr(value)
    except ValueError:
        bits = f" of {value.bit_length()} bits" if isinstance(value, int) else ""
        return f"<{type(value).__name__}{bits}>"
""", "    text = repr(value)\n", huge_int_is_named_by_its_size),
    "keys left unsorted": Row(cli, "for key in sorted(value)", "for key in value",
                              report_keys_are_sorted),
    "file error echoes the whole path": Row(
        cli, "_quote(exc.filename)", "repr(exc.filename)", long_path_is_quoted_short),
    "error() shows a long token whole": Row(
        cli, "message.replace(form, _quote(shown))", "message", long_command_is_quoted_short),
    "error() cuts a shorter suffix than it found": Row(
        cli, "max(len(shown), _QUOTE_CAP)", "_QUOTE_CAP", long_token_inside_a_longer_is_cut_once),
    "run without its leftovers rule": Row(
        cli, "if command is None or rest:", "if command is None:",
        leftovers_answer_as_the_full_parser),
}


@pytest.mark.parametrize("name", ROWS)
def test_the_check_catches_the_mutant(name):
    row = ROWS[name]
    # the control is a copy made the same way, so a check that a copy
    # fails for another reason (its own classes, say) cannot pass the row
    row.check(mutant(row.module, row.fragment, row.fragment))
    mutated = mutant(row.module, row.fragment, row.replacement)
    raises = getattr(mutated, row.raises) if isinstance(row.raises, str) else row.raises
    with pytest.raises(raises):
        row.check(mutated)
