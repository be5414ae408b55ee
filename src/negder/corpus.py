"""Bundled example algebras.

Small cohomology rings that exercise both file formats and both verdicts:
projective spaces and even spheres land in class H, odd spheres and tori
do not.  The torus entries ship as structure-constant tables, everything
else as presentations.
"""

from dataclasses import dataclass
from importlib import resources

from .fileformats import load_algebra_text
from .linalg import _quote


@dataclass(frozen=True)
class CorpusEntry:
    description: str
    in_class: bool
    first_failure: int | None  # least negative degree with derivations
    simply_connected: bool


_ENTRIES = {
    "cp1": CorpusEntry("complex projective line: Q[x]/(x^2), |x| = 2", True, None, True),
    "cp2": CorpusEntry("complex projective plane: Q[x]/(x^3), |x| = 2", True, None, True),
    "cp3": CorpusEntry("complex projective 3-space: Q[x]/(x^4), |x| = 2", True, None, True),
    "cp4": CorpusEntry("complex projective 4-space: Q[x]/(x^5), |x| = 2", True, None, True),
    "s2": CorpusEntry("2-sphere: Q[x]/(x^2), |x| = 2", True, None, True),
    "s3": CorpusEntry("3-sphere: exterior on one degree-3 class", False, -3, True),
    "s4": CorpusEntry("4-sphere: Q[x]/(x^2), |x| = 4", True, None, True),
    "s5": CorpusEntry("5-sphere: exterior on one degree-5 class", False, -5, True),
    "s6": CorpusEntry("6-sphere: Q[x]/(x^2), |x| = 6", True, None, True),
    "s7": CorpusEntry("7-sphere: exterior on one degree-7 class", False, -7, True),
    "t1": CorpusEntry("circle: exterior table on one degree-1 class", False, -1, False),
    "t2": CorpusEntry("2-torus: exterior table on two degree-1 classes", False, -1, False),
    "t3": CorpusEntry("3-torus: exterior table on three degree-1 classes", False, -1, False),
    "cp1xcp1": CorpusEntry("product of two projective lines", True, None, True),
    "cp2xs4": CorpusEntry("product of the projective plane and the 4-sphere", True, None, True),
}


def names():
    return sorted(_ENTRIES)


def entry(name):
    if name not in _ENTRIES:
        raise KeyError(f"unknown example {_quote(name)}")
    return _ENTRIES[name]


def text(name):
    entry(name)
    return resources.files(__package__).joinpath("corpus", f"{name}.alg").read_text()


def path(name):
    """Filesystem path of a bundled file (the package is a plain directory)."""
    entry(name)
    return str(resources.files(__package__).joinpath("corpus", f"{name}.alg"))


def load(name):
    return load_algebra_text(text(name))
