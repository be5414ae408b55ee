#!/usr/bin/env python3
"""Survey the bundled examples: size, class-H verdict, and the outcome of
the splitting-rigidity prover at a chosen torus rank.

    python3 scripts/corpus_survey.py
    python3 scripts/corpus_survey.py --torus 5 s3 s5 t2
"""

from negder import ProofTrace, check_class_h, corpus
from negder.cli import _integer_option, _Parser
from negder.linalg import _quote


def survey_row(name, torus_rank):
    """One table row; the class-H and rigidity columns share one sweep."""
    alg = corpus.load(name)
    verdict = check_class_h(alg)
    if verdict.in_class and verdict.connectivity_ok:
        membership = "in class H"
        first_failure = "-"
    elif verdict.in_class:
        membership = "not connected"
        first_failure = "-"
    else:
        membership = "fails"
        first_failure = str(verdict.certificate[0])
    trace = ProofTrace.from_verdict(alg, verdict, torus_rank)
    rigidity = ("established" if trace.established
                else f"open at level {trace.failed_level}")
    return (name, str(alg.dim), str(alg.top_degree), membership,
            first_failure, rigidity)


def main():
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", default=None,
                        help="examples to survey (default: all)")
    parser.add_argument("--torus", type=_integer_option, default=3, metavar="S",
                        help="torus rank for the rigidity column (default 3)")
    args = parser.parse_args()
    for name in args.names:
        if name not in corpus.names():
            parser.error(f"unknown example {_quote(name)}; "
                         f"choose from {', '.join(corpus.names())}")
    names = args.names or corpus.names()

    header = ("name", "dim", "top", "class H", "first fail",
              f"rigidity (S={args.torus})")
    rows = [header] + [survey_row(name, args.torus) for name in names]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for idx, row in enumerate(rows):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            print("  ".join("-" * w for w in widths))


if __name__ == "__main__":
    main()
