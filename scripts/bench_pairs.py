#!/usr/bin/env python3
"""Compare the benchmark of two checkouts in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workloads kernel \\
        --pairs 10 --seconds 15 --first-seed 11

For each workload and each pair p = 1..pairs, runs `perfbench/run.py
--workload W --seed s --seconds S --trace 0`, s = first seed + p - 1
(first seed 1 by default), once in each checkout, each run in its own
child process started in that checkout, the parent first in odd pairs
and the change first in even ones.  A claim can so be checked on seeds
that were not used while the change was written.  The workloads, the
end-to-end metrics with their directions and bounds, and the default
seconds are read from CHANGE_DIR/BENCHMARK.json.

Prints every run, then for each workload and metric: both medians, the
change of the medians, the parent's quartile spread, the pairs the change
won (strictly better than the parent in the same pair) and the bound.
Then, for each metric, whether the rule for claiming a gain holds: the
change won at least nine tenths of the pairs, and its median moved the
better way by more than the parent's quartile spread.  Exits 1 if a run
fails or is not correct, 0 otherwise.  Stdlib only; the runs write only
what perfbench/run.py writes inside its own checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    """The result object of one perfbench run in checkout, or None with the
    reason printed if the run fails."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        print(f"  run failed in {checkout} (exit {proc.returncode}): "
              f"{proc.stderr.strip()[-500:]}")
        return None
    return json.loads(lines[-1])


def spread(values):
    """Interquartile range of values, 0 for fewer than two."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def claim_holds(won, pairs, before, after, iqr, better):
    """Whether a gain may be claimed: the change won at least nine tenths
    of the pairs, ties counting for neither side, and its median moved
    from the parent's the better way by more than the parent's quartile
    spread."""
    moved = before - after if better == "lower" else after - before
    return 10 * won >= 9 * pairs and moved > iqr


def percent(part, whole):
    return f"{100 * part / whole:+.1f}%" if whole else "n/a"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", help="default: every one declared")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="default: the declared run_seconds")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair; pair p runs seed N + p - 1")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    ok = True
    for workload in workloads:
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        won = {m["name"]: 0 for m in metrics}
        for pair in range(1, args.pairs + 1):
            seed = args.first_seed + pair - 1
            order = ["parent", "change"] if pair % 2 else ["change", "parent"]
            results = {}
            for side in order:
                result = run(sides[side], workload, seed, seconds)
                if result is None or not result["correct"]:
                    ok = False
                if result is None:
                    continue
                results[side] = result
                shown = " ".join(f"{name}={v['value']:.6g}"
                                 for name, v in result["metrics"].items())
                print(f"{workload} pair {pair} seed {seed} {side}: "
                      f"correct={result['correct']} {shown}")
            if len(results) < 2:
                continue
            for m in metrics:
                name = m["name"]
                a = results["parent"]["metrics"][name]["value"]
                b = results["change"]["metrics"][name]["value"]
                values["parent"][name].append(a)
                values["change"][name].append(b)
                won[name] += b < a if m["better"] == "lower" else b > a
        claims = []
        for m in metrics:
            name = m["name"]
            parent, change = values["parent"][name], values["change"][name]
            if not parent:
                print(f"{workload} {name}: no complete pair")
                continue
            before, after = statistics.median(parent), statistics.median(change)
            iqr = spread(parent)
            print(f"{workload} {name}: parent median {before:.6g}, change median "
                  f"{after:.6g} ({percent(after - before, before)}), parent quartile "
                  f"spread {iqr:.6g} ({percent(iqr, before).lstrip('+')}), pairs won "
                  f"{won[name]}/{len(parent)}, bound {100 * m['bound']:.0f}%"
                  f" ({m['better']} is better)")
            holds = claim_holds(won[name], len(parent), before, after, iqr, m["better"])
            claims.append(f"{workload} {name} claim rule: {'holds' if holds else 'fails'} "
                          f"(pairs won {won[name]}/{len(parent)}, at least nine tenths "
                          f"needed; median move {after - before:+.6g} against a parent "
                          f"quartile spread of {iqr:.6g})")
        for line in claims:
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
