"""Command line interface.

Exit codes follow one convention across subcommands: 0 the queried
property holds, 1 it fails (with a certificate or violation list on
stdout), 2 usage or input errors, or a run out of memory or recursion
depth, 4 a self-check of the computation failed (an ArithmeticError),
so there is no answer; the message of 2 or 4 goes to stderr.  With
--json the stdout payload is a stable machine-readable document;
rationals are always serialized as exact "p/q" strings.  Integer options
are read by fileformats.integer, as the integers of a file are: 1_0, ٣
or " 2 " is a usage error, whose message quotes the token as a file's
messages do, through linalg._quote, as is the path in the message of
an OSError.

Every parser of a negder command line, the scripts' included, is a
_Parser, under one rule: its error(), the one exit of every argparse
message, shows through _quote the longest suffix of a token that the
parse read, of more than 40 characters, that the message shows.  Each
token argparse shows, whole or as the value of an option, is such a
suffix.  So a long token shows as its first 40 characters and its
length, in an invalid choice, an argument left over, an ignored
explicit argument or any other argparse message; a token of at most 40
characters shows as argparse wrote it, since _quote of such a str is
its repr.

Each subcommand is listed once, in _COMMANDS: its handler, help text,
whether it reads an algebra file, and its arguments.  A handler takes
(args, source), source being the AlgebraFile of a subcommand that reads
one and None otherwise, and returns (doc, lines, code): its JSON
document, its text lines (a list, or a generator, so --json renders no
text) and its exit code; it prints nothing.  _dispatch is the one place
that prints a report: it loads the file, adds "command" and, where a
file is read, "file" to the document, prints it or the lines, and maps
errors to exit codes.  _dumps renders the --json document in a few
joins, byte for byte as json.dumps(doc, indent=2, sort_keys=True) writes
it, which the oracle tests of tests/test_cli.py check; json.dumps runs
its pure-Python encoder for any indent.

build_parser reads _COMMANDS, and one helper adds a subcommand's
arguments to the full parser and to the subcommand's own.  run builds a
parser anew on every call, with no cache: when the command line starts
with a subcommand name, that subcommand's parser alone (1
ArgumentParser, where the full parser makes 7; building them is most of
a call on a small algebra), and the full parser otherwise or when
arguments are left over, so help, usage and error text are the same
either way.
"""

import argparse
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from json.encoder import encode_basestring_ascii as _ascii

from . import corpus
from .derivations import check_class_h, derivation_space
from .fileformats import AlgebraFile, ValidationError, detect_format, integer, over_limit
from .linalg import _QUOTE_CAP, _quote
from .rigidity import char_subspace, prove_rigidity


def _load(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return AlgebraFile(detect_format(text), text)


def _forms(text):
    """text as a message may show it: its repr, itself, and the inside of
    its repr in its own quotes and in single quotes.  The inside of the
    repr of a suffix of text, in given quotes, ends the inside of text's
    in the same quotes."""
    return repr(text), text, repr(text)[1:-1], repr(text + '"')[1:-2]


class _Parser(argparse.ArgumentParser):
    """argparse.ArgumentParser under one rule: error(), the one exit of
    every argparse message, finds the longest suffix of more than
    _QUOTE_CAP characters of any token that parse_known_args read which
    the message shows, in any of its _forms, and shows it through _quote.
    Every token that argparse shows, whole, as the value of a
    --option=value token or as what follows a run of single-dash flags,
    is such a suffix, and an argparse message shows at most one.  The
    _quote of a shorter token is its repr, so its message is argparse's
    own.  parse_args names the arguments left over through _quote, and
    add_subparsers makes its subparsers of this class."""

    _tokens = ()

    def parse_known_args(self, args=None, namespace=None):
        self._tokens = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(self._tokens, namespace)

    def parse_args(self, args=None, namespace=None):
        args, rest = self.parse_known_args(args, namespace)
        if rest:  # each quoted here: error() quotes one suffix, the longest
            super().error("unrecognized arguments: " + " ".join(map(_quote, rest)))
        return args

    def error(self, message):
        # every suffix of token[k:] shows where token[k:] does, so k is
        # bisected; and only a token longer than the suffix found can show
        # a longer one, so the longest tokens go first and the search reads
        # the command line about log2 of its length times over
        shown = ""
        for token in sorted(set(self._tokens), key=len, reverse=True):
            cut = len(token) - max(len(shown), _QUOTE_CAP)
            start = bisect_left(range(cut), True, key=lambda k: any(
                form in message for form in _forms(token[k:])[1:]))
            shown = token[start:] if start < cut else shown
        for form in _forms(shown) if shown else ():
            message = message.replace(form, _quote(shown))
        super().error(message)


def _integer_option(text):
    """integer(text), for an integer option.  argparse replaces the message
    of a ValueError with its own, but prints an ArgumentTypeError's as it
    is: so this raises one with argparse's words, "invalid integer value:
    'x'", the token quoted through _quote, and named with the int-string
    limit when only that limit stops it."""
    try:
        return integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer value: {over_limit(text) or _quote(text)}") from None


def _dumps(value, indent="\n"):
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, but
    that its lines after the first start with indent, a line break and
    spaces: a list of strs in one join, a str through the escaper that
    json.dumps uses.  A report holds only dicts with str keys, lists, strs,
    ints, bools and None; anything else raises TypeError."""
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = indent + "  "
        try:
            body = f",{inner}".join(map(_ascii, value))
        except TypeError:  # an item that is not a str
            body = f",{inner}".join([_dumps(item, inner) for item in value])
        return f"[{inner}{body}{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"a report's keys are strs, not {type(key).__name__}")
        body = f",{inner}".join([f"{_ascii(key)}: {_dumps(value[key], inner)}"
                                 for key in sorted(value)])
        return f"{{{inner}{body}{indent}}}"
    if isinstance(value, str):
        return _ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError("a report holds dicts, lists, strs, ints, bools and None, "
                    f"not {type(value).__name__}")


def _piece_labels(algebra):
    """The labels of the graded piece of a degree, as a function of the
    degree that reads each piece once: one per report, so that every map
    of the report shares the lists."""
    return cache(lambda n: [algebra.labels[i] for i in algebra.graded_piece(n)])


def _map_doc(labels, m):
    blocks = []
    for n in sorted(m.blocks):
        blocks.append({
            "source_degree": n,
            "target_degree": n + m.shift,
            "source_basis": labels(n),
            "target_basis": labels(n + m.shift),
            "matrix": [[str(x) for x in row] for row in m.blocks[n]],
        })
    return {"shift": m.shift, "blocks": blocks}


def _map_lines(algebra, m, symbol="theta"):
    lines = []
    for n in sorted(m.blocks):
        for i in algebra.graded_piece(n):
            img = m.image(algebra, i)
            if img:
                lines.append(f"{symbol}({algebra.labels[i]}) = "
                             f"{algebra.format_element(img)}")
    return lines


def _cmd_validate(args, source):
    try:
        violations = source.build().validate()
    except ValidationError as exc:
        violations = exc.violations
    doc = {"format": source.format, "valid": not violations, "violations": violations}
    return doc, violations or ["valid"], 0 if not violations else 1


def _cmd_check_h(args, source):
    alg = source.build()
    verdict = check_class_h(alg, args.max_degree)
    checked = sorted(verdict.dimensions, reverse=True)
    doc = {
        "in_class": verdict.in_class,
        "connectivity_ok": verdict.connectivity_ok,
        "degrees": [{"degree": d, "dimension": verdict.dimensions[d]} for d in checked],
        "certificate": None,
    }
    ok = verdict.in_class and verdict.connectivity_ok
    if not verdict.in_class:
        d, cert = verdict.certificate
        doc["certificate"] = {"degree": d, "map": _map_doc(_piece_labels(alg), cert)}

    def text():
        if verdict.in_class:
            yield ("no negative-degree derivations" if not ok else
                   "in class H" if verdict.complete else "class H undecided")
            span = f" {checked[0]}..{checked[-1]}" if checked else ": none"
            yield f"degrees checked{span} (top degree {alg.top_degree})"
        else:
            yield "not in class H"
            yield f"degree {d}: " + "; ".join(_map_lines(alg, cert))
        if not verdict.connectivity_ok:
            yield ("connectivity check failed: needs one-dimensional degree 0 "
                   "and empty degree 1")

    return doc, text(), 0 if ok else 1


def _cmd_derivations(args, source):
    alg = source.build()
    space = derivation_space(alg, args.degree)
    labels = _piece_labels(alg)
    doc = {"degree": args.degree, "dimension": len(space),
           "basis": [_map_doc(labels, m) for m in space]}

    def text():
        yield f"dimension {len(space)}"
        for idx, m in enumerate(space, start=1):
            yield f"basis map {idx}:"
            yield from ("  " + t for t in _map_lines(alg, m))

    return doc, text(), 0 if not space else 1


def _cmd_char(args, source):
    basis = source.basis()
    char = char_subspace(basis, args.rank)
    labels = {n: [basis.labels[i] for i in char.basis_indices[n]] for n in char.degrees}
    doc = {"rank": char.rank, "degrees": list(char.degrees), "dimension": char.dimension,
           "basis": [{"degree": n, "labels": labels[n]} for n in char.degrees]}
    lines = [f"degrees: {', '.join(map(str, char.degrees))}",
             f"dimension: {char.dimension}"]
    lines.extend(f"degree {n}: " + (", ".join(labels[n]) or "(empty)")
                 for n in char.degrees)
    return doc, lines, 0


def _cmd_rigidity(args, source):
    alg = source.build()
    trace = prove_rigidity(alg, args.torus)
    labels = _piece_labels(alg)
    doc = {"torus_rank": trace.torus_rank, "level_cap": trace.level_cap,
           "levels": [{"level": rec.level, "dimension": rec.dimension,
                       "certificate": (_map_doc(labels, rec.certificate)
                                       if rec.certificate else None)}
                      for rec in trace.levels],
           "established": trace.established,
           "failed_level": trace.failed_level}

    def text():
        parts = [f"level {rec.level}: dim {rec.dimension}" for rec in trace.levels]
        parts.append("established" if trace.established
                     else f"not established at level {trace.failed_level}")
        yield "; ".join(parts)
        if not trace.established:
            cert = trace.levels[-1].certificate
            yield "certificate: " + "; ".join(_map_lines(alg, cert, symbol="lambda"))

    return doc, text(), 0 if trace.established else 1


def _cmd_examples(args, source):
    if args.action == "list":
        if args.name is not None:
            raise ValueError("examples list takes no name")
        doc = {"names": corpus.names(),
               "descriptions": {n: corpus.entry(n).description for n in corpus.names()}}
        return doc, [f"{n}: {corpus.entry(n).description}" for n in corpus.names()], 0
    if not args.name:
        raise ValueError("examples show needs a name")
    try:
        payload = corpus.text(args.name)
    except KeyError as exc:
        raise ValueError(exc.args[0])
    return {"name": args.name, "text": payload}, payload.splitlines(), 0


@dataclass(frozen=True)
class _Command:
    """One subcommand: its handler, its help text, whether it reads an
    algebra file, and its further arguments as (name, add_argument
    keywords) pairs, in the order they are added."""

    handler: object
    help: str
    takes_file: bool = True
    arguments: tuple = ()


_COMMANDS = {
    "validate": _Command(_cmd_validate, "parse an algebra file and check every axiom"),
    "check-h": _Command(
        _cmd_check_h, "decide class H: no nonzero negative-degree derivations",
        arguments=(("--max-degree", dict(
            type=_integer_option, default=None, metavar="D",
            help="sweep derivation degrees -1..-D (default: top degree)")),)),
    "derivations": _Command(
        _cmd_derivations, "compute the space of derivations of one degree",
        arguments=(("--degree", dict(
            type=_integer_option, required=True, metavar="D",
            help="degree shift of the derivations (may be negative)")),)),
    "char": _Command(
        _cmd_char, "characteristic subspace for a bundle rank",
        arguments=(("--rank", dict(type=_integer_option, required=True, metavar="K",
                                   help="bundle rank, K >= 1")),)),
    "rigidity": _Command(
        _cmd_rigidity, "run the level-by-level splitting-rigidity proof",
        arguments=(("--torus", dict(type=_integer_option, required=True, metavar="S",
                                    help="torus rank of the product")),)),
    "examples": _Command(
        _cmd_examples, "list or print the bundled algebra files", takes_file=False,
        arguments=(("action", dict(choices=["list", "show"])),
                   ("name", dict(nargs="?", help="example name (for show)")))),
}


def _add_arguments(parser, spec):
    """Add the arguments of the subcommand spec to its parser."""
    if spec.takes_file:
        parser.add_argument("file", help="algebra file (presentation or structure constants)")
    parser.add_argument("--json", action="store_true", help="emit a stable JSON document")
    for arg, options in spec.arguments:
        parser.add_argument(arg, **options)


def build_parser(command=None):
    """The argparse parser with every subcommand, or the parser of the one
    named command alone (KeyError if there is none), as the full parser's
    add_parser makes it, with args.command set to its name.  The named
    parser reads the rest of a command line that starts with that name
    as the full parser's subparser reads it."""
    if command is not None:
        spec = _COMMANDS[command]
        parser = _Parser(prog=f"negder {command}")
        parser.set_defaults(command=command)
        _add_arguments(parser, spec)
        return parser
    parser = _Parser(
        prog="negder",
        description="Exact-rational checks for graded-commutative algebras: "
                    "negative-degree derivations, class-H membership, "
                    "characteristic subspaces, torus splitting rigidity.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, spec in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=spec.help), spec)
    return parser


def run(argv):
    """Run one command line (None: sys.argv[1:]) and return its exit code.
    When the first argument names a subcommand, only that subcommand's
    parser is built, and it reads the rest of the line.  The full parser
    reads the whole line when that leaves arguments over, so that it
    names them, and for anything else (help, no arguments, an unknown
    command, a leading option), so every message is its own."""
    argv = sys.argv[1:] if argv is None else list(argv)
    first = argv[0] if argv else None
    command = first if isinstance(first, str) and first in _COMMANDS else None
    try:
        if command is not None:
            args, rest = build_parser(command).parse_known_args(argv[1:])
        if command is None or rest:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    return _dispatch(args)


def _dispatch(args):
    """Run the handler of the parsed command line args on the algebra
    file it reads, if any, print its report (see the module docstring)
    and return its exit code, mapping the errors it raises to exit codes
    2 and 4."""
    spec = _COMMANDS[args.command]
    try:
        doc, lines, code = spec.handler(args, _load(args.file) if spec.takes_file else None)
        doc["command"] = args.command
        if spec.takes_file:
            doc["file"] = args.file
        if args.json:
            print(_dumps(doc))
        else:
            for line in lines:
                print(line)
        return code
    except (OSError, ValueError) as exc:
        if isinstance(exc, OSError) and isinstance(exc.filename, str):
            # str(exc) holds the whole path, however long
            exc = f"[Errno {exc.errno}] {exc.strerror}: {_quote(exc.filename)}"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        # exit 1 would claim that the property fails
        print(f"error: out of resources ({type(exc).__name__})", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main():
    sys.exit(run(sys.argv[1:]))
