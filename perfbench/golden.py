"""Correctness checks on job outputs.

golden.json pins, per job key, the exit code and the SHA-256 of the job's
`--json` stdout with the `file` field dropped (paths differ between
checkouts).  Independently of the digests, every derivation the output
offers as a certificate is rebuilt from the JSON and checked with
`is_derivation` against the algebra loaded from the job's input file.
"""

import hashlib
import json
from fractions import Fraction


def digest(doc):
    doc = dict(doc)
    doc.pop("file", None)
    text = json.dumps(doc, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def certificates(doc):
    """Map documents the output presents as nonzero derivations."""
    if doc["command"] == "check-h" and doc["certificate"]:
        return [doc["certificate"]["map"]]
    if doc["command"] == "derivations":
        return list(doc["basis"])
    if doc["command"] == "rigidity":
        return [lvl["certificate"] for lvl in doc["levels"] if lvl["certificate"]]
    return []


class Checker:
    """Checks job results against the golden table.  Certificates are
    checked once per input and distinct output."""

    def __init__(self, negder, golden, paths):
        self.negder = negder
        self.golden = golden
        self.paths = paths
        self._algebras = {}
        self._certified = set()

    def algebra(self, source):
        if source not in self._algebras:
            with open(self.paths[source], encoding="utf-8") as fh:
                self._algebras[source] = self.negder.load_algebra_text(fh.read())
        return self._algebras[source]

    def certificate_problem(self, job, doc):
        alg = self.algebra(job.source)
        for map_doc in certificates(doc):
            blocks = {}
            for block in map_doc["blocks"]:
                n = block["source_degree"]
                src = [alg.labels[i] for i in alg.graded_piece(n)]
                tgt = [alg.labels[i] for i in alg.graded_piece(n + map_doc["shift"])]
                if block["source_basis"] != src or block["target_basis"] != tgt:
                    return f"certificate block at degree {n} has the wrong basis"
                blocks[n] = [[Fraction(x) for x in row] for row in block["matrix"]]
            m = self.negder.GradedLinearMap(map_doc["shift"], blocks)
            if m.is_zero():
                return "certificate is the zero map"
            if self.negder.is_derivation(alg, m):
                return "certificate violates the Leibniz law"
        return None

    def check(self, job, rc, stdout, error):
        """None if the result is correct, else the reason it is not."""
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        want = self.golden.get(job.key)
        if want is None:
            return "no golden entry"
        if rc != want["exit"]:
            return f"exit code {rc}, expected {want['exit']}"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        got = digest(doc)
        if got != want["sha256"]:
            return "stdout differs from the golden output"
        if (job.source, got) not in self._certified:
            problem = self.certificate_problem(job, doc)
            if problem:
                return problem
            self._certified.add((job.source, got))
        return None
