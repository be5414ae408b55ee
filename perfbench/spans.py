"""Span tracing of the negder layers from outside the package.

Tracer.install() replaces the public functions of each module with
wrappers that record one span per call: [name, start, end, parent span
index, job id].  A function is patched in every module that calls it,
because `from .x import f` binds the name in the caller.  Span names are
`<layer>.<function>`, and the layer is the module the function lives in.

Counts (rows, nonzeros, rank, table entries, ...) are read from the
arguments and return values that wrappers keep, after the traced pass, so
counting costs nothing inside any span.
"""

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name) for module-level functions.
FUNCTIONS = [
    ("negder.cli", "run", "cli.run"),
    ("negder.cli", "detect_format", "fileformats.detect_format"),
    ("negder.cli", "check_class_h", "derivations.check_class_h"),
    ("negder.cli", "derivation_space", "derivations.derivation_space"),
    ("negder.cli", "char_subspace", "rigidity.char_subspace"),
    ("negder.cli", "prove_rigidity", "rigidity.prove_rigidity"),
    ("negder.fileformats", "parse_presentation", "fileformats.parse_presentation"),
    ("negder.fileformats", "parse_structure_constants",
     "fileformats.parse_structure_constants"),
    ("negder.fileformats", "build_monomial_algebra", "algebra.build_monomial_algebra"),
    ("negder.rigidity", "build_monomial_algebra", "algebra.build_monomial_algebra"),
    ("negder.rigidity", "tensor", "algebra.tensor"),
    ("negder.rigidity", "derivation_space", "derivations.derivation_space"),
    ("negder.derivations", "derivation_space", "derivations.derivation_space"),
    ("negder.derivations", "leibniz_system", "derivations.leibniz_system"),
    ("negder.derivations", "nullspace_basis", "linalg.nullspace_basis"),
    ("negder.linalg", "rref", "linalg.rref"),
    ("negder.linalg", "mat_vec", "linalg.mat_vec"),
]

# (module, class, method, span name) for methods and classmethods.
METHODS = [
    ("negder.fileformats", "AlgebraFile", "build", "fileformats.AlgebraFile.build"),
    ("negder.algebra", "GradedAlgebra", "__init__", "algebra.GradedAlgebra"),
    ("negder.algebra", "GradedAlgebra", "validate", "algebra.validate"),
    ("negder.derivations", "GradedLinearMap", "from_images",
     "derivations.from_images"),
]

# Spans whose arguments and result are kept for counting.
OBSERVED = {"linalg.rref", "linalg.nullspace_basis", "derivations.leibniz_system",
            "algebra.GradedAlgebra", "fileformats.AlgebraFile.build",
            "rigidity.prove_rigidity"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.observed = []
        self.job = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, keep):
        spans, stack, observed = self.spans, self._stack, self.observed
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                observed.append((name, args, result))
            return result

        return wrapper

    def install(self, keep):
        """Patch every traced name; keep=True also retains the arguments
        and results of OBSERVED spans for counting."""
        self.observed = []
        for mod, attr, name in FUNCTIONS:
            module = sys.modules[mod]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, keep and name in OBSERVED))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            kept = keep and name in OBSERVED
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, original.__func__, kept)))
            else:
                setattr(cls, attr, self._wrap(name, original, kept))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def pass_metrics(spans, lo, hi):
    """Time and call-count metrics of the spans recorded in [lo, hi), which
    must hold whole span trees (one traced pass)."""
    child = defaultdict(float)
    for name, start, end, parent, _job in spans[lo:hi]:
        if parent is not None:
            child[parent] += end - start
    total = defaultdict(float)
    own = defaultdict(float)
    layer_own = defaultdict(float)
    calls = defaultdict(int)
    for idx in range(lo, hi):
        name, start, end, _parent, _job = spans[idx]
        total[name] += end - start
        own[name] += end - start - child[idx]
        layer_own[name.split(".", 1)[0]] += end - start - child[idx]
        calls[name] += 1
    return {
        "cli.render_s": own["cli.run"],
        "fileformats.parse_s": layer_own["fileformats"],
        "algebra.build_s": (own["algebra.build_monomial_algebra"]
                            + own["algebra.tensor"] + own["algebra.GradedAlgebra"]),
        "algebra.validate_s": total["algebra.validate"],
        "algebra.validate_calls": calls["algebra.validate"],
        "derivations.assemble_s": total["derivations.leibniz_system"],
        "derivations.systems": calls["derivations.leibniz_system"],
        "derivations.reshape_s": total["derivations.from_images"],
        "derivations.self_s": layer_own["derivations"],
        "linalg.rref_s": total["linalg.rref"],
        "linalg.selfcheck_s": total["linalg.mat_vec"],
        "linalg.calls": calls["linalg.nullspace_basis"],
        "linalg.self_s": layer_own["linalg"],
        "rigidity.prove_s": total["rigidity.prove_rigidity"],
    }


def system_counts(rows, unknowns):
    """Shape and content of one Leibniz system (rows, unknowns)."""
    nnz = zero = 0
    distinct = set()
    for row in rows:
        support = tuple((c, x) for c, x in enumerate(row) if x)
        nnz += len(support)
        zero += not support
        distinct.add(support)
    return {"derivations.rows": len(rows), "derivations.cols": len(unknowns),
            "derivations.nnz": nnz, "derivations.zero_rows": zero,
            "derivations.distinct_rows": len(distinct)}


def count_metrics(observed):
    """Counts read from the arguments and results kept by install(keep=True)."""
    out = dict.fromkeys([
        "derivations.rows", "derivations.cols", "derivations.nnz",
        "derivations.zero_rows", "derivations.distinct_rows",
        "derivations.kernel_dim", "linalg.rank", "algebra.table_entries",
        "fileformats.bytes", "rigidity.levels"], 0)
    rref_rows = 0
    for name, args, result in observed:
        if name == "derivations.leibniz_system":
            for key, value in system_counts(*result).items():
                out[key] += value
        elif name == "linalg.nullspace_basis":
            out["derivations.kernel_dim"] += len(result)
        elif name == "linalg.rref":
            rref_rows += len(args[0])
            out["linalg.rank"] += result[1]
        elif name == "algebra.GradedAlgebra":
            out["algebra.table_entries"] += len(args[0].products)
        elif name == "fileformats.AlgebraFile.build":
            out["fileformats.bytes"] += len(args[0].payload.encode("utf-8"))
        elif name == "rigidity.prove_rigidity":
            out["rigidity.levels"] += len(result.levels)
    out["linalg.pivot_yield"] = out["linalg.rank"] / rref_rows if rref_rows else 0.0
    return out
