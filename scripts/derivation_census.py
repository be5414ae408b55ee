#!/usr/bin/env python3
"""Tabulate dim Der_d for the bundled examples across all degree shifts
that can act nontrivially, negative through positive.

    python3 scripts/derivation_census.py
    python3 scripts/derivation_census.py --negative-only s3 t3
"""

import argparse

from negder import corpus, derivation_space


def census(name, negative_only):
    alg = corpus.load(name)
    top = alg.top_degree
    degrees = range(-top, 1 if negative_only else top + 1)
    dims = {d: len(derivation_space(alg, d)) for d in degrees}
    return alg, dims


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", default=None,
                        help="examples to tabulate (default: all)")
    parser.add_argument("--negative-only", action="store_true",
                        help="stop the sweep at degree 0")
    parser.add_argument("--nonzero-only", action="store_true",
                        help="print only degrees with dim > 0")
    args = parser.parse_args()
    for name in args.names:
        if name not in corpus.names():
            parser.error(f"unknown example {name!r}; choose from {', '.join(corpus.names())}")

    for name in args.names or corpus.names():
        alg, dims = census(name, args.negative_only)
        print(f"{name} (dim {alg.dim}, top degree {alg.top_degree})")
        shown = 0
        for d, dim in sorted(dims.items()):
            if args.nonzero_only and not dim:
                continue
            print(f"  dim Der_{d:<3} = {dim}")
            shown += 1
        if not shown:
            print("  (all listed degrees are zero)")
        print()


if __name__ == "__main__":
    main()
