#!/usr/bin/env python3
"""Self-test of the benchmark harness on a tiny job subset.

    python3 perfbench/selftest.py

Checks that the metric names and units in run.py match BENCHMARK.json, that
every metric prints with its unit in both modes, that a corrupted golden
digest is counted as a failure, and that the trace reproduces the two
findings recorded in BENCHMARK.json.  Exits 1 on the first failed check.
"""

import json
import os
import sys

import golden
import run
import spans

TINY = {"validate t2", "check-h s3", "derivations s3 --degree -3",
        "rigidity cp2 --torus 3", "char cp2xs4 --rank 5"}


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def tiny(job):
    return job.key in TINY


def main():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check(declared == run.END_TO_END, "end-to-end names and units match BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(declared == run.PER_LAYER, "per-layer names and units match BENCHMARK.json")

    for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        result = json.loads(json.dumps(run.measure("corpus", 1, 0.01, trace, select=tiny)))
        metrics = result["metrics"]
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"trace={int(trace)}: tiny subset runs and verifies")
        check({k: v["unit"] for k, v in metrics.items()} == units
              and all(isinstance(v["value"], (int, float)) for v in metrics.values()),
              f"trace={int(trace)}: every metric prints with its unit")

    corrupted = dict(golden.load(run.GOLDEN))
    corrupted["check-h s3"] = dict(corrupted["check-h s3"], sha256="0" * 64)
    with open(os.devnull, "w") as devnull:
        result = run.measure("corpus", 1, 0.01, False, select=tiny,
                             golden_jobs=corrupted, log=devnull)
    check(result["failed"] > 0 and not result["correct"]
          and result["metrics"]["ok_frac"]["value"] < 1,
          "a corrupted golden digest counts as a failed job")

    result = run.measure("corpus", 1, 0.01, True, select=lambda j: j.key == "validate t2")
    calls = result["metrics"]["algebra.validate_calls"]["value"]
    check(calls == 2, f"finding: validate on a table calls validate() twice (got {calls})")

    negder = sys.modules["negder"]
    t5 = negder.build_monomial_algebra(negder.Presentation(
        "T5", tuple(negder.Generator(f"i{j}", 1, 2) for j in range(1, 6))))
    counts = spans.system_counts(*negder.leibniz_system(t5, -1))
    share = counts["derivations.zero_rows"] / counts["derivations.rows"]
    check(counts["derivations.rows"] == 5005 and counts["derivations.cols"] == 210
          and 0.31 <= share <= 0.33,
          f"finding: T5 degree -1 system is 5005 x 210 with {share:.1%} zero rows")


if __name__ == "__main__":
    main()
