"""Command line interface.

Exit codes follow one convention across subcommands: 0 the queried
property holds, 1 it fails (with a certificate or violation list on
stdout), 2 usage or input errors, or a run out of memory or recursion
depth, 4 a self-check of the computation failed (an ArithmeticError),
so there is no answer; the message of 2 or 4 goes to stderr.  With
--json the stdout payload is a stable machine-readable document;
rationals are always serialized as exact "p/q" strings.  Integer options
are read by fileformats.integer, as the integers of a file are: 1_0, ٣
or " 2 " is a usage error.

Each subcommand is listed once, in _COMMANDS: its handler, help text,
whether it reads an algebra file, and its arguments.  build_parser reads
that table, and one helper adds a subcommand's arguments to the full
parser and to the subcommand's own.  run builds a parser anew on every
call, with no cache: when the command line starts with a subcommand
name, that subcommand's parser alone (1 ArgumentParser, where the full
parser makes 7; building them is most of a call on a small algebra),
and the full parser otherwise or when arguments are left over, so help,
usage and error text are the same either way.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from . import corpus
from .derivations import check_class_h, derivation_space
from .fileformats import AlgebraFile, ParseError, ValidationError, detect_format, integer
from .rigidity import char_subspace, prove_rigidity


def _emit(args, doc, lines):
    """Print doc as JSON under --json, else lines; lines may be a
    generator, which then builds the text only when it is printed."""
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return AlgebraFile(detect_format(text), text)


def _map_doc(algebra, m):
    blocks = []
    for n in sorted(m.blocks):
        mat = m.blocks[n]
        blocks.append({
            "source_degree": n,
            "target_degree": n + m.shift,
            "source_basis": [algebra.labels[i] for i in algebra.graded_piece(n)],
            "target_basis": [algebra.labels[i] for i in algebra.graded_piece(n + m.shift)],
            "matrix": [[str(x) for x in row] for row in mat],
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


def _cmd_validate(args):
    algebra_file = _load(args.file)
    try:
        alg = algebra_file.build()
        violations = alg.validate()
    except ValidationError as exc:
        violations = exc.violations
    doc = {"command": args.command, "file": args.file,
           "format": algebra_file.format,
           "valid": not violations, "violations": violations}
    lines = ["valid"] if not violations else violations
    _emit(args, doc, lines)
    return 0 if not violations else 1


def _cmd_check_h(args):
    alg = _load(args.file).build()
    verdict = check_class_h(alg, args.max_degree)
    checked = sorted(verdict.dimensions, reverse=True)
    doc = {
        "command": args.command,
        "file": args.file,
        "in_class": verdict.in_class,
        "connectivity_ok": verdict.connectivity_ok,
        "degrees": [{"degree": d, "dimension": verdict.dimensions[d]} for d in checked],
        "certificate": None,
    }
    ok = verdict.in_class and verdict.connectivity_ok
    if not verdict.in_class:
        d, cert = verdict.certificate
        doc["certificate"] = {"degree": d, "map": _map_doc(alg, cert)}

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

    _emit(args, doc, text())
    return 0 if ok else 1


def _cmd_derivations(args):
    alg = _load(args.file).build()
    space = derivation_space(alg, args.degree)
    doc = {"command": args.command, "file": args.file, "degree": args.degree,
           "dimension": len(space), "basis": [_map_doc(alg, m) for m in space]}

    def text():
        yield f"dimension {len(space)}"
        for idx, m in enumerate(space, start=1):
            yield f"basis map {idx}:"
            yield from ("  " + t for t in _map_lines(alg, m))

    _emit(args, doc, text())
    return 0 if not space else 1


def _cmd_char(args):
    basis = _load(args.file).basis()
    char = char_subspace(basis, args.rank)
    labels = {n: [basis.labels[i] for i in char.basis_indices[n]] for n in char.degrees}
    doc = {"command": args.command, "file": args.file, "rank": char.rank,
           "degrees": list(char.degrees), "dimension": char.dimension,
           "basis": [{"degree": n, "labels": labels[n]} for n in char.degrees]}
    lines = [f"degrees: {', '.join(map(str, char.degrees))}",
             f"dimension: {char.dimension}"]
    lines.extend(f"degree {n}: " + (", ".join(labels[n]) or "(empty)")
                 for n in char.degrees)
    _emit(args, doc, lines)
    return 0


def _cmd_rigidity(args):
    alg = _load(args.file).build()
    trace = prove_rigidity(alg, args.torus)
    doc = {"command": args.command, "file": args.file,
           "torus_rank": trace.torus_rank, "level_cap": trace.level_cap,
           "levels": [{"level": rec.level, "dimension": rec.dimension,
                       "certificate": (_map_doc(alg, rec.certificate)
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

    _emit(args, doc, text())
    return 0 if trace.established else 1


def _cmd_examples(args):
    if args.action == "list":
        doc = {"command": args.command, "names": corpus.names(),
               "descriptions": {n: corpus.entry(n).description for n in corpus.names()}}
        lines = [f"{n}: {corpus.entry(n).description}" for n in corpus.names()]
        _emit(args, doc, lines)
        return 0
    if not args.name:
        print("error: examples show needs a name", file=sys.stderr)
        return 2
    try:
        payload = corpus.text(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    doc = {"command": args.command, "name": args.name, "text": payload}
    _emit(args, doc, payload.splitlines())
    return 0


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
            type=integer, default=None, metavar="D",
            help="sweep derivation degrees -1..-D (default: top degree)")),)),
    "derivations": _Command(
        _cmd_derivations, "compute the space of derivations of one degree",
        arguments=(("--degree", dict(
            type=integer, required=True, metavar="D",
            help="degree shift of the derivations (may be negative)")),)),
    "char": _Command(
        _cmd_char, "characteristic subspace for a bundle rank",
        arguments=(("--rank", dict(type=integer, required=True, metavar="K",
                                   help="bundle rank, K >= 1")),)),
    "rigidity": _Command(
        _cmd_rigidity, "run the level-by-level splitting-rigidity proof",
        arguments=(("--torus", dict(type=integer, required=True, metavar="S",
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
        parser = argparse.ArgumentParser(prog=f"negder {command}")
        parser.set_defaults(command=command)
        _add_arguments(parser, spec)
        return parser
    parser = argparse.ArgumentParser(
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
    """Run the handler of the parsed command line args and return its exit
    code, mapping the errors it raises to exit codes 2 and 4."""
    try:
        return _COMMANDS[args.command].handler(args)
    except (OSError, ParseError, ValidationError, ValueError) as exc:
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
