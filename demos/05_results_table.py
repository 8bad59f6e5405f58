#!/usr/bin/env python3
"""Regenerate the summary result table for the four generated families.

The table is the CLI's ``dualperron table``: random-family cells (ex54)
average seeds 0..9. Pass sizes on the command line to go bigger; the
defaults stay interactive (n = 10 and 100 take well under a second each,
n = 1000 a few seconds in total). The exit code is the table's.
"""

import sys

from dualperron import ExampleSpec, frn_norm, generate, solve
from dualperron.cli import main

sizes = ",".join(sys.argv[1:]) or "10,100"
code = main(["table", "--examples", "ex51,ex52,ex53,ex54", "--sizes", sizes])

print()
print("residuals are F^R-norms; relative to ||A||_F^R they sit below 1e-8, e.g.")
A = generate(ExampleSpec("ex52", n=100))
r = solve(A)
print(f"  ex52 n=100: residual/||A|| = {r.residual / frn_norm(A):.2e}")
sys.exit(code)
