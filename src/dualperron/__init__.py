"""Dominant eigenpairs of dual number matrices.

Dual numbers a_s + a_d*eps (eps**2 = 0) extend to vectors and matrices by
parts. When the standard part of a square dual matrix is irreducible
nonnegative, a positive dominant eigenvalue with a positive eigenvector
exists and is computed here by a shifted Collatz minimax iteration, with
dense-spectrum and finite-difference oracles for independent checking.

Each module's ``__all__`` is its public surface; the package root
republishes every one of them.
"""

from . import dual, errors, generators, linalg, oracle, solver, structure
from .dual import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .structure import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*dual.__all__, *linalg.__all__, *structure.__all__, *solver.__all__, *oracle.__all__,
           *generators.__all__, *errors.__all__, "__version__"]
