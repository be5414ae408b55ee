"""Job lists and input files for the negder benchmark.

A job is one `negder` command line run in-process through `negder.cli.run`.
Every job passes `--json`, so its stdout can be compared against the pinned
digests in golden.json.  Inputs that are not bundled examples are generated
from presentations at set-up time and written to the work directory.

Each workload stresses a different part of the pipeline (parse -> build ->
validate -> Leibniz assembly -> exact elimination -> kernel check ->
reshape -> report); WHY says which, and what a change should do to it.
"""

import os
from dataclasses import dataclass

WHY = {
    "corpus": (
        "All 15 bundled examples under validate, check-h, char, rigidity and "
        "every negative derivation degree: 125 small jobs per pass. Linalg and "
        "the validator do almost nothing, so per-call overhead and set-up cost "
        "moved into each call show here; a solver or validator change should "
        "leave it unchanged."),
    "kernel": (
        "T4 and T3xS3 (presentations, so no validator runs) at derivation "
        "degree -1: rank-deficient Leibniz systems with nonempty kernels, so "
        "dense elimination, the A.v = 0 self-check and from_images reshaping "
        "all run and dominate the pass."),
    "membership": (
        "CP2xCP2xCP1 under check-h and rigidity (the 10-degree sweep runs "
        "twice), CP3xCP3 under check-h and cp2xs4 under both: every kernel "
        "is empty and every degree is swept. A faster kernel extraction shows "
        "nothing here; a shared sweep does."),
    "load": (
        "T5 and T6 structure-constant tables (validate, char) and a one-line "
        "CP399 presentation that builds an 80 200-entry table: parse, build "
        "and validate only, no Leibniz system. A solver change should leave "
        "it unchanged."),
}


def _torus(s):
    return [(f"i{j}", 1, 2) for j in range(1, s + 1)]


# name -> (format, generators as (symbol, degree, truncation)).  Tables are
# built with build_monomial_algebra and written with
# serialize_structure_constants; presentations are written as generator lines.
GENERATED = {
    "t3xs3": ("presentation", _torus(3) + [("y", 3, 2)]),
    "t4": ("presentation", _torus(4)),
    "t5_table": ("table", _torus(5)),
    "t6_table": ("table", _torus(6)),
    "cp2xcp2xcp1": ("presentation", [("x", 2, 3), ("y", 2, 3), ("z", 2, 2)]),
    "cp3xcp3": ("presentation", [("x", 2, 4), ("y", 2, 4)]),
    "cp399": ("presentation", [("x", 2, 400)]),
}


@dataclass(frozen=True)
class Job:
    """One command line; `source` names a bundled example or a generated
    input, and `args` follow the file argument."""

    command: str
    source: str
    args: tuple = ()

    @property
    def key(self):
        return " ".join((self.command, self.source) + self.args)


def _corpus_jobs(negder):
    jobs = []
    for name in negder.corpus.names():
        jobs += [Job("validate", name), Job("check-h", name),
                 Job("char", name, ("--rank", "5")),
                 Job("rigidity", name, ("--torus", "3"))]
        top = negder.corpus.load(name).top_degree
        jobs += [Job("derivations", name, ("--degree", str(-k)))
                 for k in range(1, top + 1)]
    return jobs


def job_list(workload, negder):
    """Jobs of one pass in their unshuffled order; the first is the
    warm-up job run during set-up.  Passes hold an odd number of jobs so
    that job_p50_ms falls inside one job's times, not between two."""
    if workload == "corpus":
        return _corpus_jobs(negder)
    if workload == "kernel":
        return [Job("derivations", "t3xs3", ("--degree", "-1")),
                Job("check-h", "t4"),
                Job("derivations", "t4", ("--degree", "-1"))]
    if workload == "membership":
        return [Job("rigidity", "cp2xs4", ("--torus", "4")),
                Job("check-h", "cp2xs4"),
                Job("check-h", "cp2xcp2xcp1"),
                Job("rigidity", "cp2xcp2xcp1", ("--torus", "10")),
                Job("check-h", "cp3xcp3")]
    if workload == "load":
        return [Job("validate", "t5_table"),
                Job("char", "t6_table", ("--rank", "4")),
                Job("char", "cp399", ("--rank", "4"))]
    raise ValueError(f"unknown workload {workload!r}")


def presentation_text(name, gens):
    lines = [f"name {name}"]
    lines += [f"generator {s} degree {d} truncate {t}" for s, d, t in gens]
    return "\n".join(lines) + "\n"


def write_inputs(jobs, negder, work_dir):
    """Generate every non-bundled input the jobs name; returns
    {source: path} for all sources, bundled ones included."""
    os.makedirs(work_dir, exist_ok=True)
    paths = {}
    for source in sorted({job.source for job in jobs}):
        if source not in GENERATED:
            paths[source] = negder.corpus.path(source)
            continue
        fmt, gens = GENERATED[source]
        if fmt == "table":
            pres = negder.Presentation(
                source, tuple(negder.Generator(*g) for g in gens))
            text = negder.serialize_structure_constants(
                negder.build_monomial_algebra(pres))
        else:
            text = presentation_text(source, gens)
        path = os.path.join(work_dir, source + ".alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[source] = path
    return paths


def argv(job, paths):
    return [job.command, paths[job.source], *job.args, "--json"]
