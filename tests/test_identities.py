"""Exact identities of the dual eigenpair, checked at sizes no oracle reaches.

The eigenpair of A = A_s + A_d*eps obeys identities that need no
eigensolver and hold at any n:

- P A P^T has A's eigenvalue, with the eigenvector permuted;
- A_s + (alpha*A_d)*eps has (lambda_s, alpha*lambda_d), with A's x_s;
- A_s + (A_d + c*A_s)*eps, which is (1 + c*eps) A, has (lambda_s, lambda_d + c*lambda_s);
- A^T has A's eigenvalue.

``lambda_d_oracle`` stops at n = 200 and ``solve_dual_part`` is O(n^3);
these run ex51/ex53 up to n = 2000 and ex52/ex54 up to n = 1000.

Bounds, in units of lambda. A solve that stops at flag 1 or 2 promises
each part of its lambda to within ``slack = delta*||A||_FR``, with delta
= delta1 at flag 1 and max(delta1, delta2) at flag 2: the slack term of
``oracle.verify``'s lambda_s and lambda_d tests. Its other term, 1e-6*s_d
for lambda_d, covers the oracle's own eigenvector formula, and no oracle
runs here. The identity's prediction from A's solve carries the sum of
its coefficients' magnitudes times A's slack, and the transformed solve
its own slack, so each part of lambda must agree to within their sum;
failures print the error and the bound as multiples of
``|lambda| = hypot(lambda_s, lambda_d)``. The transformed solve's
eigenvector, mapped back by the identity, must be one of A within
``solve``'s residual promise, doubled for the product's rounding in
another order. Step counts are not asserted.

Each identity sees only errors it is not linear in: a lambda_d off by a
factor 1 + e passes alpha*A_d exactly, and a lambda_d off by e*lambda_s
passes A_d + c*A_s. Solves at delta1 = 1e-10 as well as at the default
1e-8 make the bound small beside c*e*lambda_s for e = 1e-6 on every input
(on ex53, ||A||_FR reaches 7*lambda_s).
"""

import math

import numpy as np
import pytest

from dualperron import (
    DualMatrix,
    DualNumber,
    DualVector,
    ExampleSpec,
    Flag,
    SolverConfig,
    eigen_residual,
    frn_norm,
    generate,
    solve,
)
from dualperron.solver import RESIDUAL_RTOL

CASES = ([(ex, n) for ex in ("ex51", "ex53") for n in (16, 200, 2000)]
         + [(ex, n) for ex in ("ex52", "ex54") for n in (16, 200, 1000)])
DELTA1 = (SolverConfig.delta1, 1e-10)
ALPHA = 0.5
C = 0.1


@pytest.fixture(scope="module", params=[(ex, n, d) for ex, n in CASES for d in DELTA1],
                ids=lambda p: "{}-{}-{:g}".format(*p))
def base(request):
    """A generated input, the config its solves use, and A's own solve."""
    ex, n, delta1 = request.param
    A = generate(ExampleSpec(ex, n=n))
    config = SolverConfig(delta1=delta1)
    return A, config, solve(A, config)


def _slack(A, config, result) -> float:
    """What the stop promised each part of lambda: ``oracle.verify``'s slack."""
    strict = result.flag == Flag.CONVERGED_STANDARD
    return (max(config.delta1, config.delta2) if strict else config.delta1) * frn_norm(A)


def _solve_transformed(A, config, result, B, predict, coefficients):
    """Solve B and check its lambda against ``predict`` (lambda_s, lambda_d),
    linear in A's lambda with coefficient magnitudes ``coefficients`` per part."""
    out = solve(B, config)
    slack, slack_b = _slack(A, config, result), _slack(B, config, out)
    lam = result.eigenvalue
    mag = math.hypot(lam.standard, lam.dual)
    got = (out.eigenvalue.standard, out.eigenvalue.dual)
    for part, g, w, c in zip("sd", got, predict(lam.standard, lam.dual), coefficients):
        err, bound = abs(g - w), slack_b + c * slack
        assert err <= bound, f"lambda_{part} off by {err / mag:.2e}, bound {bound / mag:.2e}"
    return out


def test_permutation_similarity(base):
    A, config, result = base
    p = np.random.default_rng(A.n).permutation(A.n)
    B = DualMatrix(A.standard[np.ix_(p, p)], A.dual[np.ix_(p, p)])
    out = _solve_transformed(A, config, result, B, lambda s, d: (s, d), (1.0, 1.0))
    back = np.argsort(p)  # B's eigenvector is x[p]
    x = DualVector(out.eigenvector.standard[back], out.eigenvector.dual[back])
    assert eigen_residual(A, out.eigenvalue, x) <= 2 * RESIDUAL_RTOL * frn_norm(A)


def test_dual_part_multiple(base):
    A, config, result = base
    B = DualMatrix(A.standard, ALPHA * A.dual)
    out = _solve_transformed(A, config, result, B, lambda s, d: (s, ALPHA * d), (1.0, ALPHA))
    # (x_s, x_d/alpha) is A's eigenvector, for (lambda_s, lambda_d/alpha)
    lam, x = out.eigenvalue, out.eigenvector
    residual = eigen_residual(A, DualNumber(lam.standard, lam.dual / ALPHA),
                              DualVector(x.standard, x.dual / ALPHA))
    assert residual <= 2 * RESIDUAL_RTOL * frn_norm(B) / ALPHA


def test_dual_scalar_multiple(base):
    A, config, result = base
    B = DualMatrix(A.standard, A.dual + C * A.standard)
    _solve_transformed(A, config, result, B, lambda s, d: (s, d + C * s), (1.0, 1.0 + C))


def test_transpose(base):
    A, config, result = base
    B = DualMatrix(A.standard.T.copy(), A.dual.T.copy())
    _solve_transformed(A, config, result, B, lambda s, d: (s, d), (1.0, 1.0))
