"""Polynomial root finding built from the four field operations.

No square roots, no transcendental functions: complex magnitudes are
taxicab norms, descent directions for even-order stationary structure
come from exact powers of (1 + i/k)^2, and every analytic ingredient
(norm inequalities, direction signs, step certificates) can be checked
in exact rational arithmetic.  The float backend shares the same
algorithm and is what the practical solver runs on; its descent round and
polish run on builtin ``complex`` (+ and x, and in the Newton step a
division by the real |P'(z)|^2) with the same bits as ``ComplexScalar``.
"""

from .scalars import (
    ComplexScalar,
    NormProductVerdict,
    Scalar,
    check_norm_product,
    product_bounds_hold,
)
from .poly import NonFiniteObjectiveError, Polynomial, ShiftDecomposition
from .estermann import (
    BinomialTable,
    DirectionCandidate,
    candidate_set,
    estermann_zeta,
    pick_descent_direction,
    verify_lemma_direct,
    verify_lemma_termwise,
)
from .solver import (
    ConvergenceError,
    DescentStep,
    DescentTrace,
    RootResult,
    SolveError,
    SolverConfig,
    certified_decrease_bound,
    descend_to_root,
    find_all_roots,
    positive_nth_root,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexScalar",
    "Scalar",
    "NormProductVerdict",
    "check_norm_product",
    "product_bounds_hold",
    "NonFiniteObjectiveError",
    "Polynomial",
    "ShiftDecomposition",
    "BinomialTable",
    "DirectionCandidate",
    "candidate_set",
    "estermann_zeta",
    "pick_descent_direction",
    "verify_lemma_direct",
    "verify_lemma_termwise",
    "SolverConfig",
    "DescentStep",
    "DescentTrace",
    "RootResult",
    "ConvergenceError",
    "SolveError",
    "certified_decrease_bound",
    "descend_to_root",
    "find_all_roots",
    "positive_nth_root",
    "__version__",
]
