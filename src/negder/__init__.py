"""Exact-rational toolkit for graded-commutative algebras over Q:
negative-degree derivation spaces, class-H membership with certificates,
characteristic subspaces, and a level-by-level torus splitting-rigidity
prover."""

from . import corpus
from .algebra import (Element, Generator, GradedAlgebra, GradedBasis, Presentation,
                      build_monomial_algebra, monomial_basis, tensor)
from .derivations import (ClassHVerdict, GradedLinearMap, check_class_h,
                          derivation_space, is_derivation, leibniz_system)
from .fileformats import (AlgebraFile, ParseError, ValidationError,
                          detect_format, load_algebra_text,
                          parse_presentation, parse_structure_constants,
                          serialize_structure_constants)
from .linalg import nullspace_basis, rank_fraction_free, rref
from .rigidity import (CharSubspace, KunnethModel, LambdaFamily, LevelRecord,
                       ProofTrace, Violation, char_subspace,
                       multiplicativity_residual, prove_rigidity,
                       pullback_expand, torus_exterior)

__version__ = "0.1.0"

__all__ = [
    "AlgebraFile", "CharSubspace", "ClassHVerdict", "Element", "Generator",
    "GradedAlgebra", "GradedBasis", "GradedLinearMap", "KunnethModel",
    "LambdaFamily", "LevelRecord", "ParseError", "Presentation", "ProofTrace",
    "ValidationError", "Violation", "build_monomial_algebra", "char_subspace",
    "check_class_h", "corpus", "derivation_space", "detect_format",
    "is_derivation", "leibniz_system", "load_algebra_text", "monomial_basis",
    "multiplicativity_residual", "nullspace_basis", "parse_presentation",
    "parse_structure_constants", "prove_rigidity", "pullback_expand",
    "rank_fraction_free", "rref", "serialize_structure_constants", "tensor",
    "torus_exterior",
]
