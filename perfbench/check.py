"""Per-job checker: every answer against an independent oracle or invariant.

A job *passes* only if all of the following hold:

* the program produced an answer: no exception, exit code 0, flag != 0;
* the residual ``||A x - lambda x||_FR`` is at most ``1e-7 ||A||_FR`` (C3);
* ``lambda_s`` lies inside the row-sum bracket of ``row_sum_bounds`` (C8);
* at n <= 200 the eigenvalue meets the README ``verify`` tolerances against
  ``spectrum`` and ``lambda_d_oracle``;
* on ex2, ``lambda_d`` equals the closed form ``(a+b+c+d)/2`` (C4);
* on an input scaled by s, the answer meets the same tolerances, scaled by
  s, around s times the oracle of the unscaled matrix.

A failure is one of two kinds. *refused*: the program raised, exited
non-zero or returned flag 0 (it gave no answer). *wrong*: it gave an answer
that fails a check. Both count as failed jobs; only *wrong* makes the run's
``correct`` false. The checker uses only the public API plus numpy, and is
run outside every timed region.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import dualperron as dp

ORACLE_MAX_N = 200
RESIDUAL_RTOL = 1e-7  # C3
EX2_ABS_TOL = 1e-8  # C4
SHIFT = 1.0  # the CLI's and SolverConfig's default rho
TRACE_HEADER = ["k", "lower_s", "lower_d", "upper_s", "upper_d", "gap_frn", "residual_frn"]  # README


class Checker:
    """Holds oracle results so that each distinct matrix is solved densely once."""

    def __init__(self):
        self._oracle = {}

    def oracle(self, key, A: dp.DualMatrix) -> tuple[float, float]:
        """(spectral radius, lambda_d) of A from the dense oracle, cached by key."""
        if key not in self._oracle:
            report = dp.spectrum(A.standard)
            self._oracle[key] = (report.spectral_radius, dp.lambda_d_oracle(A, report))
        return self._oracle[key]

    def forget_files(self) -> None:
        """Drop oracle results keyed by file name: a file lives for one round."""
        self._oracle = {k: v for k, v in self._oracle.items() if not isinstance(k, str)}

    # -- eigenvalue checks shared by library and CLI jobs ----------------------

    def eigen_problems(self, A, lam_s, lam_d, delta1, key, base=None, scale=1.0):
        """Checks on an eigenvalue of A; the oracle is cached under ``key``.
        With ``base`` given, A == scale * base and base's oracle, times
        scale, stands in for A's."""
        problems = []
        lo, hi = dp.row_sum_bounds(A)
        if not lo.standard <= lam_s <= hi.standard:
            problems.append(f"lambda_s={lam_s!r} outside row sums [{lo.standard!r}, {hi.standard!r}]")
        ref = base if base is not None else A
        if ref.n <= ORACLE_MAX_N:
            rho, lam_d_ref = self.oracle(key, ref)
            norm = dp.frn_norm(ref)
            tol_s = scale * (delta1 * norm + 1e-8 * (1.0 + rho))
            tol_d = scale * (delta1 * norm + 1e-6 * (1.0 + abs(lam_d_ref)))
            if not abs(lam_s - scale * rho) <= tol_s:
                problems.append(f"lambda_s={lam_s!r} vs oracle {scale * rho!r} (tol {tol_s:.3g})")
            if not abs(lam_d - scale * lam_d_ref) <= tol_d:
                problems.append(f"lambda_d={lam_d!r} vs oracle {scale * lam_d_ref!r} (tol {tol_d:.3g})")
        return problems

    # -- library jobs ----------------------------------------------------------

    def library(self, job, out) -> tuple[str, list[str]]:
        """Verdict ("ok", "refused" or "wrong") and the reasons."""
        if out.error is not None:
            return "refused", [out.error]
        if out.flag == 0:
            return "refused", [f"flag 0 after {out.iterations} iterations"]
        A, res = out.matrix, out.result
        x = res.eigenvector
        lam_s, lam_d = res.eigenvalue.standard, res.eigenvalue.dual
        rs = A.standard @ x.standard - lam_s * x.standard
        rd = A.standard @ x.dual + A.dual @ x.standard - lam_s * x.dual - lam_d * x.standard
        residual = math.hypot(float(np.linalg.norm(rs)), float(np.linalg.norm(rd)))
        problems = []
        if not residual <= RESIDUAL_RTOL * dp.frn_norm(A):
            problems.append(f"residual {residual:.3e} > {RESIDUAL_RTOL:g}*||A||")
        key = (job.family, job.n, job.seed, job.params if job.family == "ex2" else None)
        problems += self.eigen_problems(A, lam_s, lam_d, job.delta1, key=key)
        if job.family == "ex2":
            want = sum(job.params) / 2.0
            if not abs(lam_d - want) <= EX2_ABS_TOL:
                problems.append(f"ex2 lambda_d={lam_d!r}, closed form {want!r}")
        return ("wrong" if problems else "ok"), problems

    # -- CLI jobs --------------------------------------------------------------

    def cli(self, job, out, workdir, matrices: dict) -> tuple[str, list[str]]:
        """Verdict for one CLI call. ``matrices`` caches the checker's own
        parse of each file of the round, keyed by file name."""
        if out.error is not None:
            return "refused", [out.error]
        try:
            if job.kind == "dump":
                return _verdict(self._dump(job, workdir, matrices))
            if job.kind == "verify":
                return _verdict(self._verify(job, json.loads(out.stdout)))
            A = _matrix_for(job, workdir, matrices)
            if job.kind == "classify":
                return _verdict(_classify_problems(json.loads(out.stdout), A))
            return _verdict(self._solve(job, out, A, workdir))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return "wrong", [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _dump(self, job, workdir, matrices):
        A = _matrix_for(job, workdir, matrices)
        problems = []
        if A.n != job.n:
            return [f"dumped n={A.n}, asked {job.n}"]
        std_row, dual_row = xorshift_first_rows(job.seed, job.n)
        if not np.array_equal(A.standard[0], std_row):
            problems.append("standard part differs from the xorshift64* stream")
        if not np.array_equal(A.dual[0], dual_row):
            problems.append("dual part differs from the xorshift64* stream")
        if not (A.standard.min() >= 0.1 and A.standard.max() < 1.1):
            problems.append("standard entries outside [0.1, 1.1)")
        return problems

    def _solve(self, job, out, A, workdir):
        if out.flag == 0:
            return ["flag 0"]
        base, scale, key = None, 1.0, job.matrix_file
        if job.scale_exp:
            base = dp.generate(dp.ExampleSpec(job.family, n=job.n))
            scale, key = 10.0**job.scale_exp, (job.family, job.n)
        doc = json.loads(out.stdout)
        problems = []
        if not doc["residual_frn"] <= RESIDUAL_RTOL * dp.frn_norm(A):
            problems.append(f"residual {doc['residual_frn']:.3e} > {RESIDUAL_RTOL:g}*||A||")
        problems += self.eigen_problems(A, out.lambda_s, out.lambda_d, 1e-8, key=key, base=base, scale=scale)
        if job.trace_file:
            with open(os.path.join(workdir, job.trace_file), newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != TRACE_HEADER or len(rows) != out.iterations + 2:
                problems.append(f"trace CSV has {len(rows)} rows for {out.iterations} iterations")
        return problems

    def _verify(self, job, doc):
        """`verify --example`: the checker builds the example itself."""
        problems = [] if doc["verdict"] == "pass" else ["verify verdict fail"]
        return problems + self.eigen_problems(
            dp.generate(job.spec()), doc["solver_lambda_s"], doc["solver_lambda_d"], 1e-8,
            key=(job.family, job.n, job.seed, None),
        )


def _verdict(problems):
    return ("wrong" if problems else "ok"), problems


def _matrix_for(job, workdir, matrices) -> dp.DualMatrix:
    """The checker's own parse of the file a call read or wrote."""
    name = job.matrix_file
    if name not in matrices:
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        matrices[name] = dp.DualMatrix(np.array(doc["standard"], dtype=float),
                                       np.array(doc["dual"], dtype=float))
    return matrices[name]


def _classify_problems(doc, A) -> list[str]:
    problems = [
        f"{key}={doc[key]!r}" for key in ("nonnegative", "irreducible", "primitive", "positive", "weakly_positive")
        if doc[key] is not True
    ]
    if doc["period"] != 1:
        problems.append(f"period={doc['period']!r}")
    s = A.standard
    mu_bar = SHIFT + float(s.sum(axis=1).max())
    beta = min(float(s[~np.eye(A.n, dtype=bool)].min()), float(np.diag(s).min()) + SHIFT)
    for key, want in (("mu_bar", mu_bar), ("beta", beta), ("alpha", 1.0 - beta / mu_bar)):
        if not math.isclose(doc[key], want, rel_tol=1e-12):
            problems.append(f"{key}={doc[key]!r}, expected {want!r}")
    return problems


# -- ex54 stream, written from the README's description ------------------------

_MASK = (1 << 64) - 1


def xorshift_first_rows(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First row of the standard and of the dual part of ex54 (n, seed)."""
    state = seed & _MASK or 0x9E3779B97F4A7C15

    def draw():
        nonlocal state
        x = state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    std = [0.1 + (draw() >> 11) * 2.0**-53 for _ in range(n)]
    for _ in range(n * n - n):
        draw()
    dual = []
    while len(dual) < n:
        u1 = ((draw() >> 11) + 1) * 2.0**-53
        u2 = (draw() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        dual += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return np.array(std), np.array(dual[:n])
