#!/usr/bin/env python3
"""Pin the golden outputs: run every job of every workload once and write
its exit code and stdout digest to golden.json.  Refuses to pin an output
whose certificates fail is_derivation.

    python3 perfbench/make_golden.py

Run it only on a commit whose outputs are known to be right; the digests
are what every later benchmark run is checked against.
"""

import json
import sys

import golden
import run
import workloads


def main():
    table = {}
    for workload in sorted(workloads.WHY):
        negder, jobs, paths = run.set_up(workload, lambda job: True)
        checker = golden.Checker(negder, {}, paths)
        for job in jobs:
            rc, stdout, error = run.run_job(negder.cli, workloads.argv(job, paths))
            if error is not None:
                sys.exit(f"{job.key}: raised {error!r}")
            doc = json.loads(stdout)
            problem = checker.certificate_problem(job, doc)
            if problem:
                sys.exit(f"{job.key}: {problem}")
            table[job.key] = {"exit": rc, "sha256": golden.digest(doc)}
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"jobs": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(table)} jobs in {run.GOLDEN}")


if __name__ == "__main__":
    main()
