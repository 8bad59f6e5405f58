"""Per-layer tracing from outside the program.

Every public function listed in ``TARGETS`` is swapped, in each
``dualperron`` module namespace that holds it, for a wrapper that records a
span: (kind, start, end, parent span, job id, info). The program itself is
not changed; calls between modules go through module globals, so
``dualperron.solver.matvec`` and ``dualperron.cli.generate`` are caught the
same way as the benchmark's own ``dualperron.generate``. Spans stay in
memory and are reduced to layer metrics after the pass.
"""

from __future__ import annotations

import os
import sys
import time

import dualperron  # noqa: F401  (loads every module listed below)

# span kind -> (defining module, function name)
TARGETS = {
    "cli": ("dualperron.cli", "main"),
    "generate": ("dualperron.generators", "generate"),
    "classify": ("dualperron.structure", "classify"),
    "solve": ("dualperron.solver", "solve"),
    "dual_part": ("dualperron.solver", "solve_dual_part"),
    "matvec": ("dualperron.linalg", "matvec"),
    "normalize": ("dualperron.linalg", "normalize"),
    "load": ("dualperron.linalg", "load_matrix"),
    "save": ("dualperron.linalg", "save_matrix"),
    "spectrum": ("dualperron.oracle", "spectrum"),
    "lambda_d_oracle": ("dualperron.oracle", "lambda_d_oracle"),
    "fd_check": ("dualperron.oracle", "fd_check"),
}
ORACLE_KINDS = ("spectrum", "lambda_d_oracle", "fd_check")


def _info(kind, args, result):
    """Work counts read off a call's arguments and result (outside its span)."""
    if kind == "matvec":
        return args[0].n
    if kind == "generate":
        return result.n
    if kind == "solve":
        return int(result.flag), result.iterations
    if kind in ("load", "save"):
        return os.path.getsize(args[0])
    return None


class Tracer:
    """Collects spans while installed; ``paused`` lets calls through untimed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.paused = False
        self._saved = []

    def _wrap(self, kind, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans[idx] = (kind, t0, t1, parent, self.job, None)
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (kind, t0, t1, parent, self.job, _info(kind, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Swap every target, in every dualperron module that holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dualperron" or name.startswith("dualperron."))]
        for kind, (mod_name, fn_name) in TARGETS.items():
            fn = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(kind, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(spans, job_family=None) -> tuple[dict, dict]:
    """Reduce spans to the per-layer metrics (totals over the pass).

    Self time is a span's duration minus the durations of its direct
    children; busy time counts only spans whose parent is of another kind,
    so nested oracle calls are not counted twice. Also returns the self
    seconds of each kind per job family (``job_family`` maps job id to it).
    """
    child = [0.0] * len(spans)
    for kind, t0, t1, parent, job, info in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    agg = {k: {"calls": 0, "busy": 0.0, "self": 0.0} for k in TARGETS}
    iterations = 0
    flags = [0, 0, 0]
    matvec_flops = matvec_bytes = entries = file_bytes = 0
    oracle_busy = 0.0
    by_family = {}
    for i, (kind, t0, t1, parent, job, info) in enumerate(spans):
        dur = t1 - t0
        a = agg[kind]
        a["calls"] += 1
        a["self"] += dur - child[i]
        if parent < 0 or spans[parent][0] != kind:
            a["busy"] += dur
        if kind in ORACLE_KINDS and (parent < 0 or spans[parent][0] not in ORACLE_KINDS):
            oracle_busy += dur
        if job_family is not None:
            fam = by_family.setdefault(job_family.get(job, "?"), {})
            fam[kind] = fam.get(kind, 0.0) + dur - child[i]
        if info is None:
            continue
        if kind == "matvec":
            matvec_flops += 6 * info * info
            matvec_bytes += 24 * info * info + 72 * info
        elif kind == "generate":
            entries += 2 * info * info
        elif kind == "solve":
            flags[info[0]] += 1
            iterations += info[1]
        elif kind in ("load", "save"):
            file_bytes += info
    ms = 1e3
    oracle_calls = sum(agg[k]["calls"] for k in ORACLE_KINDS)
    solve_total = agg["solve"]["busy"]
    metrics = {
        "solver.calls": agg["solve"]["calls"],
        "solver.iterations": iterations,
        "solver.flag0": flags[0],
        "solver.flag1": flags[1],
        "solver.flag2": flags[2],
        "solver.loop_self_ms": agg["solve"]["self"] * ms,
        "solver.us_per_iteration": solve_total * 1e6 / iterations if iterations else 0.0,
        "solver.dual_part_calls": agg["dual_part"]["calls"],
        "solver.dual_part_ms": agg["dual_part"]["busy"] * ms,
        "linalg.matvec_calls": agg["matvec"]["calls"],
        "linalg.matvec_ms": agg["matvec"]["busy"] * ms,
        "linalg.matvec_flops_computed": matvec_flops,
        "linalg.matvec_bytes_computed": matvec_bytes,
        "linalg.normalize_calls": agg["normalize"]["calls"],
        "linalg.normalize_ms": agg["normalize"]["busy"] * ms,
        "linalg.load_ms": agg["load"]["busy"] * ms,
        "linalg.save_ms": agg["save"]["busy"] * ms,
        "linalg.file_bytes": file_bytes,
        "structure.calls": agg["classify"]["calls"],
        "structure.busy_ms": agg["classify"]["busy"] * ms,
        "generators.calls": agg["generate"]["calls"],
        "generators.busy_ms": agg["generate"]["busy"] * ms,
        "generators.entries": entries,
        "oracle.calls": oracle_calls,
        "oracle.busy_ms": oracle_busy * ms,
        "cli.calls": agg["cli"]["calls"],
        "cli.self_ms": agg["cli"]["self"] * ms,
    }
    return metrics, by_family
