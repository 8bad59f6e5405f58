#!/usr/bin/env python3
"""Watch the shifted Collatz iteration sandwich the dominant eigenvalue.

Every step produces a lower and an upper minimax bound; the lower
sequence only climbs, the upper only descends, and the eigenvalue sits in
between. Flag 1 means the full dual-number gap closed; the budget and
tolerances are adjustable through SolverConfig.
"""

from dualperron import ExampleSpec, SolverConfig, frn_norm, generate, row_sum_bounds, solve

A = generate(ExampleSpec("ex52", n=10))
result = solve(A)

print("dense index-sum family, n = 10")
print(f"flag       : {int(result.flag)} (1 = full dual convergence)")
print(f"eigenvalue : {result.eigenvalue}")
print(f"iterations : {result.iterations}")
print(f"residual   : {result.residual:.3e}  (F^R, vs ||A|| = {frn_norm(A):.3f})")
lo, hi = row_sum_bounds(A)
print(f"row sums bracket it: {lo} <= {result.eigenvalue} <= {hi}")

print()
print("  k   lower                      upper                      gap_frn")
for k in sorted({0, 1, 2, 3, 5, result.iterations}):
    rec = result.trace[k]
    print(
        f"{rec.k:4d}  ({rec.lower_s:12.8f},{rec.lower_d:9.5f})  "
        f"({rec.upper_s:12.8f},{rec.upper_d:9.5f})  {rec.gap_frn:.3e}"
    )

# The slow case: a period-2 star pattern. The shift makes the iteration
# converge anyway; by default it is chosen at each step from the bounds
# (a power of two near the eigenvalue here, 8 or 16 for 9.95), and
# result.shifts lists it.
print()
star = generate(ExampleSpec("ex51", n=100))
res51 = solve(star)
print(f"star family, n = 100: eigenvalue {res51.eigenvalue}, {res51.iterations} iterations")
print(f"shifts per step     : {res51.shifts}")

# A fixed shift changes the path, here a much longer one, but not the answer.
res_half = solve(star, SolverConfig(rho=0.5))
print(f"fixed rho = 0.5     : eigenvalue {res_half.eigenvalue}, {res_half.iterations} iterations")

print()
print("the full per-iteration trace (plot gap_frn or residual_frn against k) comes from")
print("  dualperron solve --example ex52 --n 10 --trace-out trace.csv")
