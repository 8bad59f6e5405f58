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
    frn_norm,
    inverse,
    magnitude,
    matmul,
    matvec,
    normalize,
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

# Matrices: products propagate the dual part by the same rule, and the
# inverse of A_s + A_d*eps is A_s^-1 - A_s^-1 A_d A_s^-1 eps.
print()
A = DualMatrix([[2.0, 0.0], [0.0, 4.0]], np.eye(2))
Ainv = inverse(A)
print("A_s^-1      =\n", Ainv.standard)
print("dual part   =\n", Ainv.dual)
prod = matmul(A, Ainv)
print("A A^-1      =\n", prod.standard, "+\n", prod.dual, "eps   (identity, zero dual)")
print("matvec(A, e1 + e2*eps) =", matvec(A, DualVector([1, 0], [0, 1])).standard,
      "+", matvec(A, DualVector([1, 0], [0, 1])).dual, "eps")
print("F^R-norm of A =", frn_norm(A))
