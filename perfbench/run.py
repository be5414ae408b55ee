#!/usr/bin/env python3
"""negder benchmark: run `negder.cli.run(argv)` in-process over a fixed
job list and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 15 --trace 0

Load model: one process per run, one thread, a closed loop with a single
client; each job starts when the previous one returns.  A pass runs every
job of the workload once, in an order drawn from --seed; passes repeat
until --seconds of pass time have been measured.  Every job's exit code
and stdout are checked against golden.json after its pass, outside the
timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes under the span wrappers of spans.py, prints the
per-layer metrics, and writes the spans to _work/spans-<workload>.jsonl.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

import golden
import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "_work")
GOLDEN = os.path.join(HERE, "golden.json")

# Set-up is repeated and its median reported, so one slow import or disk
# write does not decide setup_s.
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "pass_s": "s", "slowest_job_s": "s",
              "job_p50_ms": "ms", "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER = {
    "cli.render_s": "s",
    "fileformats.parse_s": "s", "fileformats.bytes": "B",
    "algebra.build_s": "s", "algebra.table_entries": "count",
    "algebra.validate_s": "s", "algebra.validate_calls": "count",
    "derivations.assemble_s": "s", "derivations.systems": "count",
    "derivations.rows": "count", "derivations.cols": "count",
    "derivations.nnz": "count", "derivations.zero_rows": "count",
    "derivations.distinct_rows": "count", "derivations.reshape_s": "s",
    "derivations.kernel_dim": "count", "derivations.self_s": "s",
    "linalg.rref_s": "s", "linalg.selfcheck_s": "s", "linalg.calls": "count",
    "linalg.rank": "count", "linalg.pivot_yield": "ratio", "linalg.self_s": "s",
    "rigidity.prove_s": "s", "rigidity.levels": "count",
    "trace.pass_s": "s", "trace.overhead_frac": "ratio",
}


def import_negder():
    """Fresh import of the package from the checkout's src tree."""
    for name in [m for m in sys.modules if m == "negder" or m.startswith("negder.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    negder = importlib.import_module("negder")
    importlib.import_module("negder.cli")
    if os.path.dirname(os.path.abspath(negder.__file__)) != os.path.join(SRC, "negder"):
        raise ImportError(f"negder imported from {negder.__file__}, not {SRC}")
    return negder


def run_job(cli, argv):
    """(exit code, stdout, exception) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # a raising job is a failed job, not a crash
        error = exc
    return rc, out.getvalue(), error


def set_up(workload, select):
    negder = import_negder()
    jobs = [j for j in workloads.job_list(workload, negder) if select(j)]
    paths = workloads.write_inputs(jobs, negder, WORK)
    run_job(negder.cli, workloads.argv(jobs[0], paths))
    return negder, jobs, paths


def run_pass(negder, order, paths, tracer=None, first_job_id=0):
    """Run every job once.  Returns [(job, start, end, exit code, stdout,
    exception)] with perf_counter times."""
    results = []
    for n, job in enumerate(order):
        if tracer:
            tracer.job = first_job_id + n
        start = time.perf_counter()
        rc, stdout, error = run_job(negder.cli, workloads.argv(job, paths))
        results.append((job, start, time.perf_counter(), rc, stdout, error))
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(workload, seed, seconds, trace, select=lambda job: True,
            golden_jobs=None, log=sys.stderr):
    """Run one benchmark measurement and return the result object."""
    if golden_jobs is None:
        golden_jobs = golden.load(GOLDEN)
    rng = random.Random(seed)
    setups = []        # (start, end)
    passes = []        # (traced, [(job, start, end)])
    layer_passes = []  # (index into passes, span metrics)
    counts = None
    attempted = failed = 0
    with speed.Sampler() as sampler:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            negder, jobs, paths = set_up(workload, select)
            setups.append((start, time.perf_counter()))
        checker = golden.Checker(negder, golden_jobs, paths)
        tracer = spans.Tracer()
        measured = 0.0
        while measured < seconds or len(passes) < (2 if trace else 1):
            order = list(jobs)
            rng.shuffle(order)
            traced = trace and len(passes) % 2 == 1
            if traced:
                lo = len(tracer.spans)
                tracer.install(keep=counts is None)
                try:
                    results = run_pass(negder, order, paths, tracer, attempted)
                finally:
                    tracer.uninstall()
                layer_passes.append((len(passes), spans.pass_metrics(
                    tracer.spans, lo, len(tracer.spans))))
                if counts is None:
                    counts = spans.count_metrics(tracer.observed)
                tracer.observed = []
            else:
                results = run_pass(negder, order, paths)
            passes.append((traced, [r[:3] for r in results]))
            measured += results[-1][2] - results[0][1]
            for job, _start, _end, rc, stdout, error in results:
                attempted += 1
                problem = checker.check(job, rc, stdout, error)
                if problem:
                    failed += 1
                    print(f"FAILED {job.key}: {problem}", file=log)

    def refs(index):
        return [sampler.reference(s, e) for _job, s, e in passes[index][1]]

    def wall(index):
        jobs_run = passes[index][1]
        return jobs_run[-1][2] - jobs_run[0][1]

    untraced = [i for i, (traced, _) in enumerate(passes) if not traced]
    pass_s = [sum(refs(i)) for i in untraced]
    if trace:
        tracer.write(os.path.join(WORK, f"spans-{workload}.jsonl"))
        traced_pass_s, scaled = [], []
        for index, times in layer_passes:
            ref = sum(refs(index))
            traced_pass_s.append(ref)
            # Span times include probes; scale them like the whole pass.
            scaled.append({k: v * ref / wall(index) if k.endswith("_s") else v
                           for k, v in times.items()})
        # Times are medians over traced passes; counts repeat exactly from
        # pass to pass and come from the first one.
        values = {name: (statistics.median(p[name] for p in scaled)
                         if name.endswith("_s") else value)
                  for name, value in scaled[0].items()}
        values.update(counts)
        values["trace.pass_s"] = statistics.median(traced_pass_s)
        values["trace.overhead_frac"] = (statistics.median(traced_pass_s)
                                         / statistics.median(pass_s) - 1)
        units = PER_LAYER
    else:
        job_refs = [refs(i) for i in untraced]
        q1, q3 = quartiles(pass_s)
        print(f"pass_s: median {statistics.median(pass_s):.4f} s, quartiles "
              f"{q1:.4f}..{q3:.4f} s over {len(pass_s)} passes of {len(jobs)} "
              f"jobs; raw wall median {statistics.median(map(wall, untraced)):.4f} s")
        values = {
            "setup_s": statistics.median(sampler.reference(s, e) for s, e in setups),
            "pass_s": statistics.median(pass_s),
            "slowest_job_s": statistics.median(max(r) for r in job_refs),
            "job_p50_ms": 1000 * statistics.median(x for r in job_refs for x in r),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "negder", "__init__.py")):
        print(f"error: no negder source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
