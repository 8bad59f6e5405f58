"""Command-line interface.

Subcommands: solve, classify, verify, table, dump. Inputs come either
from a JSON matrix file (--file) or from a named generator family
(--example with --n/--seed/--params). Exit codes: 0 success, 2 parse or
usage error or a refused allocation, 3 inadmissible structure, 4
iteration budget exhausted, 5 verification tolerance exceeded, 6
numerical failure on an admissible input (singular dual-part system, an
iterate that lost positivity, a product that overflowed the double range,
or a dense oracle that could not resolve the Perron pair). A refused
input's code comes from the one table ``_FAILURE_EXITS``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, astuple, dataclass
from operator import attrgetter

from .dual import DualNumber, format_dual
from .errors import NonPositiveIterate, NoPositivePerronVector, RankDeficient, StructureViolation
from .generators import _FIXED_SIZE, _SEEDED, EXAMPLE_IDS, ExampleSpec, generate
from .linalg import DualMatrix, load_matrix, save_matrix
from .oracle import verify
from .solver import TRACE_FIELDS, Flag, PerronResult, SolverConfig, solve
from .structure import classify

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_STRUCTURE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VERIFY = 5
EXIT_NUMERICAL = 6

TABLE_SEED_COUNT = 10  # a seeded family's cell averages seeds --seed .. --seed + 9

# A refused input's exit code: the first row whose types it is an instance of;
# any other ValueError, OSError or MemoryError (BadSpec, TooLarge, a bad JSON
# file, a refused allocation) is a usage error, EXIT_PARSE.
_FAILURE_EXITS = (
    (StructureViolation, EXIT_STRUCTURE),
    ((RankDeficient, NonPositiveIterate, NoPositivePerronVector), EXIT_NUMERICAL),
)


@dataclass
class RunRecord:
    """One solve outcome in result-table form."""

    source: str
    n: int
    eigenvalue: DualNumber | None
    residual_frn: float | None
    iterations: float
    flag: int
    wall_time_seconds: float


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--example", choices=EXAMPLE_IDS, help="generated matrix family")
    p.add_argument("--n", type=int, default=None, help="dimension for generated families")
    p.add_argument("--seed", type=int, default=0, help="random seed (ex54)")
    p.add_argument("--params", default=None, metavar="a,b,c,d", help="dual part of ex2")
    p.add_argument("--file", default=None, help="JSON matrix file")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iter", type=int, default=SolverConfig.k_max)
    p.add_argument("--delta1", type=float, default=SolverConfig.delta1)
    p.add_argument("--delta2", type=float, default=SolverConfig.delta2)
    p.add_argument("--shift", type=float, default=None,
                   help="fixed shift rho (default: chosen at each step)")


def _spec_from_args(parser, args, example=None, n=None, seed=None) -> ExampleSpec:
    example = example or args.example
    kwargs = {"id": example}
    size = n if n is not None else args.n
    if size is not None:
        kwargs["n"] = size
    elif example not in _FIXED_SIZE:
        parser.error(f"--n is required for {example}")
    if args.params is not None:
        try:
            params = tuple(float(v) for v in args.params.split(","))
        except ValueError:
            parser.error(f"--params must be four comma-separated reals, got {args.params!r}")
        kwargs["params"] = params
    kwargs["seed"] = seed if seed is not None else args.seed
    return ExampleSpec(**kwargs)


def _resolve_input(parser, args) -> tuple[str, DualMatrix]:
    if (args.file is None) == (args.example is None):
        parser.error("exactly one of --file or --example is required")
    if args.file is not None:
        return args.file, load_matrix(args.file)
    spec = _spec_from_args(parser, args)
    return spec.id, generate(spec)


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(
        k_max=args.max_iter, delta1=args.delta1, delta2=args.delta2, rho=args.shift
    )


def _write_trace(path: str, result: PerronResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        writer.writerows(astuple(rec) for rec in result.trace)


def _emit(doc: dict, as_json: bool) -> None:
    """Print one record: a JSON object, or ``key=value`` lines with None
    values skipped and bools lowercased."""
    if as_json:
        print(json.dumps(doc))
        return
    for key, value in doc.items():
        if value is not None:
            print(f"{key}={str(value).lower() if isinstance(value, bool) else value}")


_ROW = "{:<12} {:>6} {:>18} {:>13} {:>10} {:>4} {:>12}"


def _print_records(records: list[RunRecord]) -> None:
    print(_ROW.format("source", "n", "eig", "residual_frn", "iterations", "flag", "time_s"))
    for r in records:
        iters = f"{r.iterations:.1f}" if isinstance(r.iterations, float) else str(r.iterations)
        res = f"{r.residual_frn:.2e}" if r.residual_frn is not None else "-"
        eig = format_dual(r.eigenvalue) if r.eigenvalue is not None else "-"
        print(_ROW.format(r.source, r.n, eig, res, iters, r.flag, f"{r.wall_time_seconds:.3e}"))


def _run_solve(A: DualMatrix, cfg: SolverConfig, source: str) -> tuple[RunRecord, PerronResult]:
    t0 = time.perf_counter()
    result = solve(A, cfg)
    elapsed = time.perf_counter() - t0
    return RunRecord(source, A.n, result.eigenvalue, result.residual, result.iterations,
                     int(result.flag), elapsed), result


def _mean_record(cells: list[RunRecord]) -> RunRecord:
    """The one record of a seeded family's cell: each number the mean of the
    seeds' values, the flag the largest."""
    def mean(name):
        return sum(map(attrgetter(name), cells)) / len(cells)
    return RunRecord(cells[0].source, cells[0].n,
                     DualNumber(mean("eigenvalue.standard"), mean("eigenvalue.dual")),
                     mean("residual_frn"), mean("iterations"), max(c.flag for c in cells),
                     mean("wall_time_seconds"))


def _not_converged(max_iter: int) -> int:
    print(f"not converged within {max_iter} iterations", file=sys.stderr)
    return EXIT_NO_CONVERGENCE


def _cmd_solve(parser, args) -> int:
    source, A = _resolve_input(parser, args)
    record, result = _run_solve(A, _config_from_args(args), source)
    if args.trace_out:
        _write_trace(args.trace_out, result)
    if args.json:
        print(json.dumps(dict(asdict(record), shifts=result.shifts)))
    else:
        _print_records([record])
    return _not_converged(args.max_iter) if result.flag == Flag.NOT_CONVERGED else EXIT_OK


def _cmd_classify(parser, args) -> int:
    source, A = _resolve_input(parser, args)
    report = classify(A._parts[0], args.shift)  # the part as stored, as solve reads it
    _emit({"source": source, "n": A.n, **asdict(report)}, args.json)
    return EXIT_OK


def _cmd_verify(parser, args) -> int:
    source, A = _resolve_input(parser, args)
    result = solve(A, _config_from_args(args))
    if result.flag == Flag.NOT_CONVERGED:
        return _not_converged(args.max_iter)
    record = {"source": source, "n": A.n, "flag": int(result.flag),
              **verify(A, result.eigenvalue, args.delta1, result.flag, args.delta2)}
    _emit(record, args.json)
    return EXIT_VERIFY if record["verdict"] == "fail" else EXIT_OK


def _cmd_table(parser, args) -> int:
    examples = [e.strip() for e in args.examples.split(",") if e.strip()]
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not examples or not sizes:
        parser.error("--examples and --sizes must each name at least one entry")
    for example in examples:
        if example not in EXAMPLE_IDS:
            parser.error(f"unknown example {example!r}")
    cfg = _config_from_args(args)

    records = []
    for example in examples:
        for n in sizes:
            # a seeded family's cell runs TABLE_SEED_COUNT seeds; None takes --seed
            seeds = range(args.seed, args.seed + TABLE_SEED_COUNT) if example in _SEEDED else [None]
            cells = [_run_solve(generate(_spec_from_args(parser, args, example, n, seed)),
                                cfg, example)[0] for seed in seeds]
            if len(cells) > 1 and not any(c.flag == Flag.NOT_CONVERGED for c in cells):
                cells = [_mean_record(cells)]
            records.extend(cells)

    if args.json:
        print(json.dumps([asdict(r) for r in records]))
    else:
        _print_records(records)
    # flag 0 in the table itself is the report: nothing goes to stderr
    failed = any(r.flag == Flag.NOT_CONVERGED for r in records)
    return EXIT_NO_CONVERGENCE if failed else EXIT_OK


def _cmd_dump(parser, args) -> int:
    if args.example is None:
        parser.error("dump requires --example")
    if args.file is None:
        parser.error("dump requires --file as the output path")
    spec = _spec_from_args(parser, args)
    save_matrix(args.file, generate(spec))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualperron",
        description="Dominant eigenpairs of dual number matrices with "
        "irreducible nonnegative standard parts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute the dominant eigenpair")
    _add_input_flags(p_solve)
    _add_solver_flags(p_solve)
    p_solve.add_argument("--trace-out", default=None, help="write per-iteration CSV here")
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.set_defaults(run=_cmd_solve)

    p_classify = sub.add_parser("classify", help="report the structure of the standard part")
    _add_input_flags(p_classify)
    p_classify.add_argument("--shift", type=float, default=1.0)
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(run=_cmd_classify)

    p_verify = sub.add_parser("verify", help="cross-check the solver against the dense oracle")
    _add_input_flags(p_verify)
    _add_solver_flags(p_verify)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(run=_cmd_verify)

    p_table = sub.add_parser("table", help="result table over example families and sizes")
    p_table.add_argument("--examples", required=True, metavar="ex51,ex52,...")
    p_table.add_argument("--sizes", required=True, metavar="10,100,...")
    p_table.add_argument("--seed", type=int, default=0, help="first of the ten ex54 seeds")
    p_table.add_argument("--params", default=None)
    _add_solver_flags(p_table)
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(run=_cmd_table)

    p_dump = sub.add_parser("dump", help="write a generated matrix to a JSON file")
    _add_input_flags(p_dump)
    p_dump.set_defaults(run=_cmd_dump)

    for p in sub.choices.values():  # a usage error prints the subcommand's usage line
        p.set_defaults(subparser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args.subparser, args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for types, code in _FAILURE_EXITS if isinstance(exc, types)), EXIT_PARSE)
