#!/usr/bin/env python3
"""Tour of dual scalar and dual vector/matrix arithmetic.

A dual number a = a_s + a_d*eps carries an infinitesimal part that rides
along through every operation (eps**2 = 0), which is what later lets a
single eigenvalue solve carry first-order sensitivities for free.
"""

import numpy as np

from dualperron import (
    DualMatrix,
    DualNumber,
    DualVector,
    eigen_residual,
    frn_norm,
    magnitude,
    matvec,
    normalize,
    solve,
    vec_norm2,
)

a = DualNumber(1, 2)
b = DualNumber(3, 4)
print("a          =", a)
print("b          =", b)
print("a + b      =", a + b)
print("a * b      =", a * b, "   (dual part is a_s*b_d + a_d*b_s)")
print("(a*b) / b  =", (a * b) / b, "   (division undoes the product)")
print("eps * eps  =", DualNumber(0, 1) * DualNumber(0, 1), "   (nilpotent)")

# The order is lexicographic: standard parts first, dual parts break ties.
print()
print("1 - 9eps > 0 + 100eps :", DualNumber(1, -9) > DualNumber(0, 100))
print("2 + 1eps < 2 + 3eps   :", DualNumber(2, 1) < DualNumber(2, 3))
print("|-2 + 3eps| =", magnitude(DualNumber(-2, 3)))
print("|0 - 4eps|  =", magnitude(DualNumber(0, -4)))

# Vectors: the 2-norm is itself a dual number, and normalization makes the
# standard part unit length with the dual part orthogonal to it.
print()
x = DualVector([3, 4], [1, 1])
print("x           = ", x.standard, "+", x.dual, "eps")
print("||x||_2     = ", vec_norm2(x))
y = normalize(x)
print("normalized  = ", y.standard, "+", np.round(y.dual, 6), "eps")
print("unit checks :  ||y_s|| =", np.linalg.norm(y.standard), "  y_s.y_d =", y.standard @ y.dual)

# Matrices act on vectors by the same rule, (A x)_d = A_s x_d + A_d x_s. The
# dual eigen-equation A x = lambda x then holds part by part: here
# lambda = 3 + 1eps, with x_s = (1, 1)/sqrt(2) and x_d = 0.
print()
A = DualMatrix([[2.0, 1.0], [1.0, 2.0]], [[0.0, 1.0], [1.0, 0.0]])
result = solve(A)
lam, x = result.eigenvalue, result.eigenvector
Ax, lam_x = matvec(A, x), lam * x
print("lambda      = ", lam)
print("x           = ", x.standard, "+", np.round(x.dual, 12), "eps")
print("A x         = ", Ax.standard, "+", np.round(Ax.dual, 12), "eps")
print("lambda x    = ", lam_x.standard, "+", np.round(lam_x.dual, 12), "eps")
print("||A x - lambda x||_FR =", eigen_residual(A, lam, x))
print("F^R-norm of A =", frn_norm(A))
