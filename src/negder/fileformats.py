"""Text formats for algebra files.

Two formats share the .alg suffix and are told apart by their first
meaningful line.  '#' starts a comment anywhere, blank lines are ignored.

Presentation format (first directive is name or generator):

    name CP2
    generator x degree 2 truncate 3

Odd-degree generators may omit the truncation, which defaults to 2 (it is
also the only legal value for them); even-degree generators default to 2
as well.  algebra.check_generator checks each generator as its line is
read, for the symbol rules, duplicate symbols and the table budget; the
first violation is a ParseError naming its line, and no later line is
read.  Integers, here, in the basis section and in the options of the
command line, are read by integer alone.

Structure-constant format (first directive is basis:):

    basis:
    1 0
    x 2
    unit: 1
    products:
    1 1 = 1*1
    1 x = 1*x

Coefficients are exact rationals: at most a minus sign, ASCII digits, and
an optional "/" and ASCII digits for a denominator, as in 3, -1 or -3/4;
spaces may stand before the "*".  "+" separates terms, so "+2*x" is an
empty term before a "+".  Anything else (1.5, 1e3, 1_000, 0x1) is a
ParseError, so a coefficient costs time in proportion to its text.  A
product line may name a pair in either order.  A pair given in one order
only gets its transposed entry from graded commutativity; a pair given in
both orders keeps both lines, and validation cross-checks them; the
serializer writes both lines, an absent entry as 0, when the two orders
disagree, so a corrupt table reads back as it was.  Omitted
pairs are zero.  A parsed table is validated before use and rejected with
the full violation list if any axiom fails.

Each distinct right-hand side and coefficient text is read once; the lines
that share a right-hand side, and a transposed pair filled in from it (or
one negated copy), share one entry dict, which the constructor normalizes
once.  The serializer walks the table's keys, so both directions cost time
in proportion to the table plus dim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Generator, GradedAlgebra, Presentation, _legal_label,
                      build_monomial_algebra, check_generator, monomial_basis)
from .linalg import _fold

_INTEGER = re.compile(r"[+-]?[0-9]+")
_COEFFICIENT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

# _split_lines splits text a piece at a time: each piece but the last runs
# _CHUNK characters and on to the first line break from there.  Every
# bundled and benchmark file is one piece.
_CHUNK = 1 << 16
# The line breaks of str.splitlines, "\r\n" tried first, so that a cut
# never parts it.
_BREAK = re.compile(r"\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")

PRESENTATION = "presentation"
STRUCTURE_CONSTANTS = "structure_constants"


class ParseError(ValueError):
    def __init__(self, line_no, message):
        prefix = f"line {line_no}: " if line_no else ""
        super().__init__(prefix + message)
        self.line_no = line_no


class ValidationError(ValueError):
    """A structurally parseable table that breaks the algebra axioms."""

    def __init__(self, violations):
        super().__init__("\n".join(violations))
        self.violations = list(violations)


def _split_lines(text):
    """The lines of text.splitlines(keepends=True), split one piece at a
    time, so a reader that stops early splits little of a long text.  Each
    piece ends right after the first line break at or past _CHUNK
    characters from its start, or at the end of the text, so no line runs
    from one piece into the next."""
    start = 0
    while start < len(text):
        cut = _BREAK.search(text, start + _CHUNK)
        end = cut.end() if cut else len(text)
        yield from text[start:end].splitlines(keepends=True)
        start = end


def _meaningful_lines(text):
    # str.strip() also removes the line break that _split_lines keeps
    for line_no, raw in enumerate(_split_lines(text), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield line_no, line


def detect_format(text):
    for line_no, line in _meaningful_lines(text):
        head = line.split()[0]
        if head in ("name", "generator"):
            return PRESENTATION
        if head in ("basis:", "unit:", "products:"):
            return STRUCTURE_CONSTANTS
        raise ParseError(line_no, f"unrecognized directive {head!r}")
    raise ParseError(0, "empty input")


def integer(text):
    """The int that text writes as [+-]?[0-9]+, or ValueError: int() alone
    would also read 1_0, non-ASCII digits such as ٣ and surrounding spaces."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _int(token, line_no, what):
    try:
        return integer(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


def parse_presentation(text):
    name = ""
    gens = []
    seen, entries = set(), 1
    for line_no, line in _meaningful_lines(text):
        words = line.split()
        if words[0] == "name":
            if len(words) < 2:
                raise ParseError(line_no, "name needs a value")
            name = " ".join(words[1:])
        elif words[0] == "generator":
            if len(words) not in (4, 6) or words[2] != "degree":
                raise ParseError(
                    line_no,
                    "expected: generator <symbol> degree <n> [truncate <m>]")
            symbol = words[1]
            degree = _int(words[3], line_no, "degree")
            truncation = 2
            if len(words) == 6:
                if words[4] != "truncate":
                    raise ParseError(line_no, f"expected 'truncate', got {words[4]!r}")
                truncation = _int(words[5], line_no, "truncation")
            gens.append(Generator(symbol, degree, truncation))
            try:
                entries = check_generator(gens[-1], seen, entries)
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
        else:
            raise ParseError(line_no, f"unknown directive {words[0]!r}")
    return Presentation(name, tuple(gens))


def _coefficient(text, line_no, coeffs):
    """The value of a coefficient text by linalg._fold: an optional sign,
    ASCII digits and an optional /digits denominator, with spaces after it.
    In a product line, split at "+" first, it carries at most a minus sign.
    Fraction() alone would also read 1.5, 1_0 and 1e9999999, the last at a
    cost that grows with the exponent.  coeffs maps each text read so far
    to its value, so a distinct text is checked and converted once."""
    coeff = coeffs.get(text)
    if coeff is None:
        if not _COEFFICIENT.fullmatch(text.rstrip()):
            raise ParseError(line_no, f"bad coefficient {text!r}")
        try:
            coeff = coeffs[text] = _fold(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ParseError(line_no, f"bad coefficient {text!r}") from None
    return coeff


def _parse_terms(rhs, line_no, label_index, coeffs):
    """The terms {k: coefficient} of a right-hand side; coeffs is the
    cache of _coefficient, shared by the lines of a table."""
    if rhs.strip() == "0":
        return {}
    terms = {}
    for n, part in enumerate(rhs.split("+")):
        part = part.strip()
        if not part:
            raise ParseError(line_no, f"the term {'after' if n else 'before'} a '+' is "
                                      "empty; a coefficient carries at most a minus sign")
        if "*" not in part:
            raise ParseError(line_no, f"expected <coeff>*<label>, got {part!r}")
        coeff_text, label = part.split("*", 1)
        coeff = _coefficient(coeff_text, line_no, coeffs)
        if label not in label_index:
            raise ParseError(line_no, f"unknown basis label {label!r}")
        k = label_index[label]
        terms[k] = terms[k] + coeff if k in terms else coeff
    return terms


def parse_structure_constants(text):
    alg = _read_table(text)
    violations = alg.validate()
    if violations:
        raise ValidationError(violations)
    return alg


def _read_table(text):
    """The GradedAlgebra a structure-constant text writes, not yet
    validated; the lines and caches it reads them through die with this
    call, before the validator's own index is built."""
    labels = []
    degrees = []
    label_index = {}
    unit_label = None
    product_lines = []
    section = None
    for line_no, line in _meaningful_lines(text):
        if line == "basis:":
            section = "basis"
            continue
        if line == "products:":
            section = "products"
            continue
        if line.startswith("unit:"):
            if unit_label is not None:
                raise ParseError(line_no, "duplicate unit line")
            unit_label = line[len("unit:"):].strip()
            if not unit_label:
                raise ParseError(line_no, "unit needs a basis label")
            continue
        if section == "basis":
            words = line.split()
            if len(words) != 2:
                raise ParseError(line_no, "expected: <label> <degree>")
            label, degree = words[0], _int(words[1], line_no, "degree")
            if not _legal_label(label):
                raise ParseError(line_no, f"illegal basis label {label!r}")
            if label in label_index:
                raise ParseError(line_no, f"duplicate basis label {label!r}")
            if degree < 0:
                raise ParseError(line_no, "degrees must be nonnegative")
            label_index[label] = len(labels)
            labels.append(label)
            degrees.append(degree)
        elif section == "products":
            if "=" not in line:
                raise ParseError(line_no, "expected: <i> <j> = <coeff>*<k> [+ ...]")
            left, rhs = line.split("=", 1)
            words = left.split()
            if len(words) != 2:
                raise ParseError(line_no, "expected two basis labels before '='")
            product_lines.append((line_no, words[0], words[1], rhs))
        else:
            raise ParseError(line_no, "line outside any section")
    if not labels:
        raise ParseError(0, "no basis section")
    if unit_label is None:
        raise ParseError(0, "no unit line")
    if unit_label not in label_index:
        raise ParseError(0, f"unit label {unit_label!r} is not in the basis")
    products = {}
    parsed = {}  # right-hand side text -> its terms, shared by its lines
    coeffs = {}  # coefficient text -> its value, as _coefficient reads it
    for line_no, il, jl, rhs in product_lines:
        key = (label_index.get(il), label_index.get(jl))
        if None in key:
            raise ParseError(line_no, f"unknown basis label {il if key[0] is None else jl!r}")
        if key in products:
            raise ParseError(line_no, f"duplicate product line for {il} {jl}")
        terms = parsed.get(rhs)
        if terms is None:
            terms = parsed[rhs] = _parse_terms(rhs, line_no, label_index, coeffs)
        products[key] = terms
    # Fill in the transposed pairs by graded commutativity: the entry
    # itself, or its negation, made once per entry.
    negated = {}  # id of a parsed entry (kept alive by parsed) -> negation
    for (i, j), terms in sorted(products.items()):
        if (j, i) not in products:
            if (degrees[i] * degrees[j]) % 2:
                if id(terms) not in negated:
                    negated[id(terms)] = {k: -c for k, c in terms.items()}
                terms = negated[id(terms)]
            products[(j, i)] = terms
    return GradedAlgebra(labels, degrees, label_index[unit_label], products)


def serialize_structure_constants(a):
    """Canonical structure-constant text: basis in index order, then the
    unit, then each nonzero product with i <= j, terms ordered by index.
    When P[j,i] is not the graded-commutative mirror of P[i,j], the line
    j i follows the line i j, and an absent entry of the two is written
    as 0, so the parser infers neither; a valid table has no such pair.
    parse(serialize(a)) reproduces basis order, degrees, unit and table,
    and so the violations of a corrupt one.  What the format cannot carry
    raises ValueError before any text is made: the first basis label its
    parser rejects or that repeats, the first negative degree, or else an
    index outside the basis, named as validate()'s first "basis index"
    violation names it."""
    labels, degrees, table = a.labels, a.degrees, a.products
    dim = len(labels)
    seen = set()
    for label, d in zip(labels, degrees):
        if not _legal_label(label):
            raise ValueError(f"illegal basis label {label!r}: the structure-constant "
                             "format cannot carry it")
        if label in seen:
            raise ValueError(f"duplicate basis label {label!r}")
        seen.add(label)
        if d < 0:
            raise ValueError(f"basis label {label!r} has negative degree {d}: the "
                             "structure-constant format cannot carry it")
    bad = [(i, j) for (i, j), terms in table.items()
           if not (0 <= i < dim and 0 <= j < dim and all(0 <= k < dim for k in terms))]
    if bad:
        i, j = min(bad)
        x = min(x for x in (i, j, *table[i, j]) if not 0 <= x < dim)
        raise ValueError(f"basis index: table entry ({i}, {j}) names {x}, "
                         f"outside 0..{dim - 1}")
    lines = ["basis:"]
    for label, d in zip(labels, degrees):
        lines.append(f"{label} {d}")
    lines.append(f"unit: {labels[a.unit]}")
    lines.append("products:")
    empty = {}

    def line(i, j, terms):
        body = " + ".join(f"{c}*{labels[k]}" for k, c in sorted(terms.items())) or "0"
        lines.append(f"{labels[i]} {labels[j]} = {body}")

    for i, j in sorted({(i, j) if i <= j else (j, i) for i, j in table}):
        terms = table.get((i, j), empty)
        mirror = table.get((j, i), empty)
        if i != j and mirror != ({k: -c for k, c in terms.items()}
                                 if degrees[i] & degrees[j] & 1 else terms):
            line(i, j, terms)
            line(j, i, mirror)
        elif terms:
            line(i, j, terms)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AlgebraFile:
    """An algebra source text together with its detected format."""

    format: str
    payload: str

    def build(self):
        if self.format == PRESENTATION:
            return build_monomial_algebra(parse_presentation(self.payload))
        if self.format == STRUCTURE_CONSTANTS:
            return parse_structure_constants(self.payload)
        raise ValueError(f"unknown format {self.format!r}")

    def basis(self):
        """The graded basis alone, for what reads only labels and degrees:
        monomial_basis for a presentation, with no table built; a table
        file is parsed and validated as by build."""
        if self.format == PRESENTATION:
            return monomial_basis(parse_presentation(self.payload))
        return self.build()


def load_algebra_text(text):
    """Detect the format, parse, build, and (for tables) validate."""
    return AlgebraFile(detect_format(text), text).build()
