"""Seeded job streams for the three workloads, and the code that runs one job.

A workload is an endless stream of *rounds*. Every round of a workload has
the same composition (families, size strata, tolerance mix, call kinds);
the seed draws the sizes inside each stratum, the ex2 parameters, the ex54
seeds, the scale exponents and the order of the jobs. Fixed composition
keeps the cost per round, hence the medians, nearly the same from seed to
seed, while every seed still gives different inputs.

The program only ever sees the generated inputs: ``ExampleSpec`` and
``SolverConfig`` values for library jobs, argv lists and matrix files for
CLI jobs.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import dualperron as dp
import dualperron.cli

WORKLOADS = ("sweep-small", "large-n", "cli-files")

TIGHT_DELTA1 = 1e-14  # closes the standard gap first, so every family ends at flag 2
CLI_TIMEOUT_S = 120.0


@dataclass
class Job:
    """One unit of work: a library generate -> solve, or one CLI call."""

    workload: str
    round: int
    index: int
    kind: str  # "library" or the CLI subcommand
    family: str
    n: int
    seed: int = 0
    params: tuple = (1.0, 1.0, 1.0, 1.0)
    delta1: float = 1e-8
    delta2: float = 1e-12
    scale_exp: int = 0
    argv: list = field(default_factory=list)
    matrix_file: str | None = None  # file the call reads or writes
    input_bytes: bytes | None = None  # written by the benchmark before the call
    trace_file: str | None = None

    def spec(self) -> dp.ExampleSpec:
        return dp.ExampleSpec(self.family, n=self.n, seed=self.seed, params=self.params)

    def config(self) -> dp.SolverConfig:
        return dp.SolverConfig(delta1=self.delta1, delta2=self.delta2)

    def describe(self) -> dict:
        """Ledger fields that identify the input."""
        return {
            "workload": self.workload,
            "round": self.round,
            "index": self.index,
            "kind": self.kind,
            "family": self.family,
            "n": self.n,
            "seed": self.seed,
            "params": list(self.params) if self.family == "ex2" else None,
            "scale": f"1e{self.scale_exp}",
            "delta1": self.delta1,
            "delta2": self.delta2,
            "argv": self.argv or None,
        }


@dataclass
class Outcome:
    """What one job returned, before checking."""

    latency_s: float
    flag: int | None = None
    iterations: int | None = None
    lambda_s: float | None = None
    lambda_d: float | None = None
    result: object = None  # PerronResult for library jobs
    matrix: object = None  # DualMatrix for library jobs
    exit_code: int | None = None
    stdout: str = ""
    error: str | None = None


def _strata(rng: random.Random, lo: int, hi: int, m: int) -> list[int]:
    """One integer from each of m equal sub-ranges of [lo, hi]."""
    width = (hi - lo + 1) / m
    return [rng.randint(lo + int(k * width), lo + int((k + 1) * width) - 1) for k in range(m)]


def _sweep_small_round(rng: random.Random, r: int) -> list[Job]:
    # 2 ex2 + 3 ex52 + 8 ex51/ex53: the median job falls inside the
    # ex51/ex53 group, which is continuous in n, not at a family boundary.
    jobs = []
    for _ in range(2):
        params = tuple(round(rng.uniform(-4.0, 4.0), 6) for _ in range(4))
        jobs.append(Job("sweep-small", r, 0, "library", "ex2", 2, params=params))
    jobs += [Job("sweep-small", r, 0, "library", "ex52", n) for n in _strata(rng, 8, 64, 3)]
    for family in ("ex51", "ex53"):
        jobs += [Job("sweep-small", r, 0, "library", family, n) for n in _strata(rng, 8, 128, 4)]
    return jobs


def _large_n_round(rng: random.Random, r: int) -> list[Job]:
    # ex51/ex53 run hundreds of iterations (matvec-bound, O(n^3) in all);
    # their sizes stay near 1000 so one round fits a few seconds. ex52
    # spans the whole 1000-2000 range: few iterations, but O(n^2) classify
    # and, at flag 2, the O(n^3) bordered solve. Every other size stratum
    # runs at the tight tolerance (5 of 11 jobs), the same strata in every
    # round, so the cost of a round does not depend on where they fall.
    jobs = []
    for family, lo, hi, m in (("ex51", 1000, 1100, 2), ("ex53", 1000, 1500, 2), ("ex52", 1000, 2000, 7)):
        for k, n in enumerate(_strata(rng, lo, hi, m)):
            job = Job("large-n", r, 0, "library", family, n)
            if k % 2 == 1:
                job.delta1 = TIGHT_DELTA1
            jobs.append(job)
    return jobs


def _matrix_json(A: dp.DualMatrix) -> bytes:
    doc = {"n": A.n, "standard": A.standard.tolist(), "dual": A.dual.tolist()}
    return (json.dumps(doc) + "\n").encode()


def _cli_files_round(rng: random.Random, r: int) -> list[Job]:
    # Two ex54 sequences (dump, solve, classify) at n in (200, 300], and one
    # `verify` call per family ex51/ex52/ex53 at n <= 200, the oracle layer.
    # Every call here is one this program answers correctly; the inputs on
    # which it is known to fail run in `defect_probe`, outside the timed loop.
    seqs = []
    for tag, lo, hi, with_trace in (("a", 201, 250, True), ("b", 251, 300, False)):
        n = rng.randint(lo, hi)
        seed = rng.randrange(1, 2**32)
        path = f"r{r}{tag}.json"
        base = dict(workload="cli-files", round=r, index=0, family="ex54", n=n, seed=seed, matrix_file=path)
        dump = ["dump", "--example", "ex54", "--n", str(n), "--seed", str(seed), "--file", path]
        seq = [Job(kind="dump", argv=dump, **base)]
        solve = Job(kind="solve", argv=["solve", "--file", path, "--json"], **base)
        if with_trace:
            solve.trace_file = f"r{r}{tag}.csv"
            solve.argv += ["--trace-out", solve.trace_file]
        seq.append(solve)
        seq.append(Job(kind="classify", argv=["classify", "--file", path, "--json"], **base))
        seqs.append(seq)
    for family, hi in VERIFY_SIZES:
        seqs.append([_verify_job(family, rng.randint(8, hi), r=r)])
    # Interleave whole sequences in seeded order; calls inside a sequence
    # keep their order (dump before the reads of its file).
    rng.shuffle(seqs)
    return [job for seq in seqs for job in seq]


# Largest n of the timed `verify` calls: ex52 misses the verify tolerance
# at some n above it, which the probe covers.
VERIFY_SIZES = (("ex51", 200), ("ex52", 149), ("ex53", 200))

# Inputs on which this program is known to fail (ROADMAP item 3 and the
# lambda_d accuracy misses). Fixed, independent of the seed, so that every
# run makes the same calls and the failure count repeats exactly. The
# exponents cover each outcome class of the scale defect: RankDeficient
# (k <= -20), flag 0 (k = -10; ex51 at k > 0), OverflowError (ex52, k = 100).
PROBE_SCALE_N = 16
PROBE_SCALE_EXPONENTS = (-100, -50, -20, -10, 0, 10, 50, 100)
# Every n in [2, 200] at which `verify --example ex52` exits 5.
PROBE_EX52_VERIFY_SIZES = (157, 173, 196, 198)
# (n, seed) of ex54 inputs whose flag-1 lambda_d misses the verify tolerance.
PROBE_EX54_VERIFY = ((159, 1240500437), (167, 1183933067), (175, 154843974), (192, 1784340824),
                     (195, 3844007680))


def _verify_job(family: str, n: int, seed: int = 0, r: int = -1) -> Job:
    argv = ["verify", "--example", family, "--n", str(n), "--seed", str(seed), "--json"]
    return Job("cli-files", r, 0, "verify", family, n, seed=seed, argv=argv)


def defect_probe() -> list[Job]:
    """The known-defect battery: `solve --file` on ex51/ex52/ex53 scaled by
    10^k, and `verify` on the ex52 and ex54 inputs that miss the lambda_d
    tolerance."""
    jobs = []
    for family in ("ex51", "ex52", "ex53"):
        A = dp.generate(dp.ExampleSpec(family, n=PROBE_SCALE_N))
        for k in PROBE_SCALE_EXPONENTS:
            s = 10.0**k
            path = f"probe-{family}-k{k}.json"
            jobs.append(Job("cli-files", -1, 0, "solve", family, PROBE_SCALE_N, scale_exp=k, matrix_file=path,
                            argv=["solve", "--file", path, "--json"],
                            input_bytes=_matrix_json(dp.DualMatrix(s * A.standard, s * A.dual))))
    jobs += [_verify_job("ex52", n) for n in PROBE_EX52_VERIFY_SIZES]
    jobs += [_verify_job("ex54", n, seed) for n, seed in PROBE_EX54_VERIFY]
    for i, job in enumerate(jobs):
        job.index = i
    return jobs


_ROUNDS = {"sweep-small": _sweep_small_round, "large-n": _large_n_round, "cli-files": _cli_files_round}


def rounds(workload: str, seed: int):
    """Endless, deterministic stream of rounds (lists of jobs) for a seed."""
    rng = random.Random(f"{workload}/{seed}")
    make = _ROUNDS[workload]
    r = 0
    while True:
        jobs = make(rng, r)
        if workload != "cli-files":
            rng.shuffle(jobs)
        for i, job in enumerate(jobs):
            job.index = i
        yield jobs
        r += 1


# -- running one job -----------------------------------------------------------


def run_library(job: Job) -> Outcome:
    """generate -> solve -> output record, timed as one job."""
    t0 = time.perf_counter()
    try:
        A = dp.generate(job.spec())
        res = dp.solve(A, job.config())
        flag = int(res.flag)
        lam = res.eigenvalue
        out = Outcome(0.0, flag, res.iterations,
                      lam.standard if lam is not None else None,
                      lam.dual if lam is not None else None, res, A)
    except Exception as exc:  # counted as a failed job, never fatal
        out = Outcome(0.0, error=f"{type(exc).__name__}: {exc}")
    out.latency_s = time.perf_counter() - t0
    return out


def _parse_cli(out: Outcome, job: Job) -> Outcome:
    # Output that does not parse is left for the checker to call wrong.
    if job.kind == "solve" and out.exit_code == 0:
        try:
            doc = json.loads(out.stdout)
            out.flag = doc["flag"]
            out.iterations = doc["iterations"]
            out.lambda_s = doc["eigenvalue"]["standard"]
            out.lambda_d = doc["eigenvalue"]["dual"]
        except (ValueError, KeyError, TypeError):
            pass
    return out


def cli_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


def run_cli_subprocess(job: Job, workdir: str, env: dict) -> Outcome:
    """One `python -m dualperron` call; latency is spawn to exit."""
    cmd = [sys.executable, "-m", "dualperron", *job.argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        out = Outcome(0.0, exit_code=proc.returncode, stdout=proc.stdout)
        if proc.returncode != 0:
            out.error = f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
    except subprocess.TimeoutExpired:
        out = Outcome(0.0, exit_code=None, error="timeout")
    out.latency_s = time.perf_counter() - t0
    return _parse_cli(out, job)


def run_cli_inprocess(job: Job, workdir: str) -> Outcome:
    """The same call made through `dualperron.cli.main(argv)` in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = dualperron.cli.main(list(job.argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # what a subprocess would report as a traceback, exit 1
        code = 1
        print(f"{type(exc).__name__}: {exc}", file=stderr)
    finally:
        latency = time.perf_counter() - t0
        os.chdir(cwd)
    out = Outcome(latency, exit_code=code, stdout=stdout.getvalue())
    if code != 0:
        out.error = f"exit {code}: {stderr.getvalue().strip().splitlines()[-1:]}"
    return _parse_cli(out, job)


def write_inputs(jobs: list[Job], workdir: str) -> None:
    """Write the benchmark-made input files of a round (not timed)."""
    for job in jobs:
        if job.input_bytes is not None:
            with open(os.path.join(workdir, job.matrix_file), "wb") as fh:
                fh.write(job.input_bytes)


def clear_round_files(jobs: list[Job], workdir: str) -> None:
    for job in jobs:
        for name in (job.matrix_file, job.trace_file):
            if name:
                try:
                    os.remove(os.path.join(workdir, name))
                except FileNotFoundError:
                    pass
