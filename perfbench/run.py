"""dualperron benchmark: one closed-loop client, seeded workloads, checked answers.

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 45 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds details (tail percentile, sample counts, layer shares), and
``perfbench/out/`` receives a ledger with every job's inputs and answer.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

import os

# One BLAS thread, fixed before numpy loads, in this process and in every
# CLI child (they inherit the environment).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 9
# Traced runs repeat a fixed job list (this many rounds) so counts repeat exactly.
TRACE_ROUNDS = {"sweep-small": 8, "large-n": 1, "cli-files": 1}

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "ops_failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("us_per_iteration"):
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_computed") or name.endswith("file_bytes"):
        return "B"
    return "count"


# -- machine and set-up ----------------------------------------------------------


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "clients": 1,
    }


def measure_setup(env: dict, repeats: int, warm: bool = True) -> list[float]:
    """Seconds from spawning a fresh interpreter until `import dualperron` is done.

    The child reports its perf_counter after the import; on Linux that is
    CLOCK_MONOTONIC, shared with this process. With ``warm``, one untimed
    import first writes the bytecode cache, as any installed copy would
    have it.
    """
    code = "import time, dualperron; print(repr(time.perf_counter()))"
    cmd = [sys.executable, "-c", code]
    if warm:
        subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=True, timeout=120)
    values = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        values.append(float(proc.stdout) - t0)
    return values


# -- the closed loop -------------------------------------------------------------


class Loop:
    """One client: runs jobs one after another, checks each outside the clock."""

    def __init__(self, workload: str, env: dict, workdir: str):
        from check import Checker

        self.workload = workload
        self.env = env
        self.workdir = workdir
        self.checker = Checker()
        self.ledger = []

    def run_round(self, round_jobs, inproc=False, tracer=None, max_jobs=None, label=0, budget=None):
        """Run one round; returns per-job (latency_s, verdict). CLI calls run
        as subprocesses, or through `cli.main` when ``inproc``. Stops early
        once the jobs have taken ``budget`` seconds."""
        import jobs as J

        cli = self.workload == "cli-files"
        mode = "subprocess" if cli and not inproc else "inproc" if cli else "library"
        if cli:
            J.write_inputs(round_jobs, self.workdir)
        matrices = {}
        results = []
        spent = 0.0
        try:
            for job in round_jobs[:max_jobs]:
                if tracer is not None:
                    tracer.job = len(self.ledger)
                if not cli:
                    out = J.run_library(job)
                elif inproc:
                    out = J.run_cli_inprocess(job, self.workdir)
                else:
                    out = J.run_cli_subprocess(job, self.workdir, self.env)
                if tracer is not None:
                    tracer.paused = True
                if cli:
                    verdict, problems = self.checker.cli(job, out, self.workdir, matrices)
                else:
                    verdict, problems = self.checker.library(job, out)
                if tracer is not None:
                    tracer.paused = False
                results.append((out.latency_s, verdict))
                spent += out.latency_s
                self.ledger.append({
                    **job.describe(),
                    "pass": label,
                    "mode": mode,
                    "traced": tracer is not None,
                    "flag": out.flag,
                    "iterations": out.iterations,
                    "lambda_s": repr(out.lambda_s),
                    "lambda_d": repr(out.lambda_d),
                    "exit_code": out.exit_code,
                    "latency_ms": out.latency_s * 1e3,
                    "verdict": verdict,
                    "problems": problems,
                })
                if budget is not None and spent >= budget:
                    break
        finally:
            if cli:
                J.clear_round_files(round_jobs, self.workdir)
                self.checker.forget_files()
        return results


def _warm_up(loop: Loop) -> None:
    """Load lazy code paths (LU, JSON, page cache) before anything is timed."""
    import jobs as J

    if loop.workload == "cli-files":
        J.run_cli_subprocess(J.Job("cli-files", -1, 0, "classify", "ex2", 2, argv=["classify", "--example", "ex2"]),
                             loop.workdir, loop.env)
        return
    for family, delta1 in (("ex52", 1e-8), ("ex52", J.TIGHT_DELTA1), ("ex51", 1e-8)):
        J.run_library(J.Job(loop.workload, -1, 0, "library", family, 64, delta1=delta1))


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_untraced(workload, seed, seconds, max_jobs=None, setup_repeats=SETUP_REPEATS):
    """The end-to-end run. Returns (result, detail, ledger)."""
    import jobs as J

    env = J.cli_env(SRC)
    # Set-up is sampled across the whole run, between rounds and outside
    # the job clock, so that its median spans the machine's speed drift.
    setup = measure_setup(env, 1)
    with _workdir(workload) as workdir:
        loop = Loop(workload, env, workdir)
        _warm_up(loop)
        results = []
        timed = 0.0
        stream = J.rounds(workload, seed)
        while (timed < seconds or not results) and (max_jobs is None or len(results) < max_jobs):
            round_jobs = next(stream)
            left = None if max_jobs is None else max_jobs - len(results)
            round_results = loop.run_round(round_jobs, max_jobs=left, budget=seconds - timed)
            timed += sum(lat for lat, _ in round_results)
            results += round_results
            due = 1 + (setup_repeats - 1) * min(timed / seconds, 1.0) if seconds > 0 else setup_repeats
            while len(setup) < due:
                setup += measure_setup(env, 1, warm=False)
        who = resource.RUSAGE_CHILDREN if workload == "cli-files" else resource.RUSAGE_SELF
        peak_kb = resource.getrusage(who).ru_maxrss
        # The known-defect inputs, after the timed phase and in process.
        probe = loop.run_round(J.defect_probe(), inproc=True, label="probe") if workload == "cli-files" else []
    latencies = [lat for lat, _ in results]
    attempted = len(results)
    failed = sum(v != "ok" for _, v in results)
    probe_failed = sum(v != "ok" for _, v in probe)
    tail, pct = _tail(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": (attempted - failed) / timed,
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_tail_ms": tail * 1e3,
        # Over the timed jobs and the defect probe. Laplace's rule of
        # succession: never 0, so a ratio to the parent's median exists.
        "ops_failed_frac": (failed + probe_failed + 1) / (attempted + len(probe) + 2),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    result = _result(results, values, E2E_UNITS)
    result["correct"] = result["correct"] and not any(v == "wrong" for _, v in probe)
    detail = {
        "workload": workload,
        "seed": seed,
        "timed_s": timed,
        "jobs": attempted,
        "failed": failed,
        "wrong": sum(v == "wrong" for _, v in results),
        "failed_raw_frac": failed / attempted,
        "probe_jobs": len(probe),
        "probe_failed": probe_failed,
        "probe_wrong": sum(v == "wrong" for _, v in probe),
        "tail_percentile": round(pct, 2),
        "tail_samples": attempted,
        "setup_samples_s": setup,
        "peak_rss_of": "largest CLI child" if workload == "cli-files" else "benchmark process",
    }
    return result, detail, loop.ledger


def run_traced(workload, seed, seconds, max_jobs=None):
    """The per-layer run: untraced and traced passes over one fixed job list."""
    import jobs as J
    from tracing import Tracer, layer_metrics

    env = J.cli_env(SRC)
    stream = J.rounds(workload, seed)
    job_list = [job for _ in range(TRACE_ROUNDS[workload]) for job in next(stream)][:max_jobs]
    cli = workload == "cli-files"
    untraced, traced, sub_walls, layer_runs, results = [], [], [], [], []
    family_self = {}
    with _workdir(workload) as workdir:
        loop = Loop(workload, env, workdir)
        _warm_up(loop)
        t_start = time.perf_counter()
        p = 0
        while p == 0 or time.perf_counter() - t_start < seconds:
            if cli:
                sub = loop.run_round(job_list, label=p)
                sub_walls.append(sum(lat for lat, _ in sub))
                results += sub
            plain = loop.run_round(job_list, inproc=True, label=p)
            untraced.append(sum(lat for lat, _ in plain))
            first = len(loop.ledger)
            with Tracer() as tracer:
                trace_res = loop.run_round(job_list, inproc=True, tracer=tracer, label=p)
            traced.append(sum(lat for lat, _ in trace_res))
            results += plain + trace_res
            job_family = {first + i: job.family for i, job in enumerate(job_list)}
            metrics, by_family = layer_metrics(tracer.spans, job_family)
            metrics["cli.process_overhead_ms"] = (sub_walls[-1] - untraced[-1]) * 1e3 if cli else 0.0
            layer_runs.append(metrics)
            for i, job in enumerate(job_list):
                fam = family_self.setdefault(job.family, {"job": 0.0})
                fam["job"] += trace_res[i][0]
            for fam, kinds in by_family.items():
                for kind, secs in kinds.items():
                    family_self[fam][kind] = family_self[fam].get(kind, 0.0) + secs
            p += 1
    # median_low: a value some pass measured, so counts stay whole numbers
    values = {name: statistics.median_low(run[name] for run in layer_runs) for name in layer_runs[0]}
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    values["trace.jobs"] = len(job_list)
    result = _result(results, values, {name: _layer_unit(name) for name in values})
    detail = {
        "workload": workload,
        "seed": seed,
        "passes": p,
        "jobs_per_pass": len(job_list),
        "self_time_share": _shares(family_self),
    }
    if cli:
        sub = statistics.median(sub_walls)
        detail["subprocess_wall_share"] = {
            "process_overhead": round(values["cli.process_overhead_ms"] / 1e3 / sub, 4),
            **{k: round(v * 1e-3 / sub, 4) for k, v in values.items()
               if k in ("cli.self_ms", "generators.busy_ms", "solver.loop_self_ms", "linalg.matvec_ms",
                        "linalg.load_ms", "linalg.save_ms", "oracle.busy_ms", "structure.busy_ms")},
        }
    return result, detail, loop.ledger


def _shares(family_self: dict) -> dict:
    """Each kind's self time as a share of the family's traced job time."""
    shares = {}
    for fam, kinds in family_self.items():
        total = kinds["job"]
        inside = {k: v for k, v in kinds.items() if k != "job"}
        row = {k: round(v / total, 4) for k, v in sorted(inside.items(), key=lambda kv: -kv[1])}
        row["outside_layers"] = round(1.0 - sum(inside.values()) / total, 4)
        shares[fam] = row
    return shares


def _result(results, values, units) -> dict:
    return {
        "correct": not any(v == "wrong" for _, v in results),
        "attempted": len(results),
        "failed": sum(v != "ok" for _, v in results),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def _workdir(workload):
    """Scratch directory for CLI files, inside the checkout, removed afterwards."""
    os.makedirs(OUT, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=f"work-{workload}-", dir=OUT)


def main(argv=None) -> int:
    import jobs as J

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=J.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        result, detail, ledger = run_traced(args.workload, args.seed, args.seconds)
    else:
        result, detail, ledger = run_untraced(args.workload, args.seed, args.seconds)
    detail["machine"] = machine()
    os.makedirs(OUT, exist_ok=True)
    name = f"ledger-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail, "jobs": ledger}, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def _bootstrap() -> None:
    """Make the checkout's `src/` importable, or stop: no program, no result."""
    if not os.path.isfile(os.path.join(SRC, "dualperron", "__init__.py")):
        print(f"error: no dualperron sources under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
