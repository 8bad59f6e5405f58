"""Dominant eigenpairs of dual number matrices.

Dual numbers a_s + a_d*eps (eps**2 = 0) extend to vectors and matrices by
parts. When the standard part of a square dual matrix is irreducible
nonnegative, a positive dominant eigenvalue with a positive eigenvector
exists and is computed here by a shifted Collatz minimax iteration, with
dense-spectrum and finite-difference oracles for independent checking.
"""

from .dual import DualNumber, format_dual, magnitude, parse_dual
from .errors import (
    BadSpec,
    DimensionMismatch,
    DivisionUndefined,
    DualPerronError,
    NoPositivePerronVector,
    NonPositiveIterate,
    NonPositiveVector,
    NotSquare,
    RankDeficient,
    SingularStandardPart,
    StructureViolation,
    TooLarge,
    ZeroVector,
)
from .generators import EXAMPLE_IDS, ExampleSpec, XorShift64Star, generate, jordan_block
from .linalg import (
    DualMatrix,
    DualVector,
    frn_norm,
    inverse,
    is_unit,
    load_matrix,
    matmul,
    matvec,
    normalize,
    save_matrix,
    vec_norm2,
)
from .oracle import (
    SpectrumReport,
    dual_part_at,
    fd_check,
    lambda_d_oracle,
    spectral_radius,
    spectrum,
)
from .solver import (
    Flag,
    PerronResult,
    SolverConfig,
    TraceRecord,
    eigen_residual,
    minimax_ratios,
    row_sum_bounds,
    solve,
    solve_dual_part,
)
from .structure import StructureReport, classify, wielandt_check

__version__ = "0.1.0"

__all__ = [
    "DualNumber",
    "magnitude",
    "format_dual",
    "parse_dual",
    "DualVector",
    "DualMatrix",
    "vec_norm2",
    "normalize",
    "matvec",
    "matmul",
    "inverse",
    "frn_norm",
    "is_unit",
    "save_matrix",
    "load_matrix",
    "StructureReport",
    "classify",
    "wielandt_check",
    "Flag",
    "SolverConfig",
    "PerronResult",
    "TraceRecord",
    "solve",
    "solve_dual_part",
    "row_sum_bounds",
    "minimax_ratios",
    "eigen_residual",
    "SpectrumReport",
    "spectrum",
    "spectral_radius",
    "lambda_d_oracle",
    "fd_check",
    "dual_part_at",
    "ExampleSpec",
    "XorShift64Star",
    "generate",
    "jordan_block",
    "EXAMPLE_IDS",
    "DualPerronError",
    "DivisionUndefined",
    "ZeroVector",
    "DimensionMismatch",
    "SingularStandardPart",
    "NotSquare",
    "TooLarge",
    "StructureViolation",
    "NonPositiveIterate",
    "NonPositiveVector",
    "RankDeficient",
    "NoPositivePerronVector",
    "BadSpec",
    "__version__",
]
