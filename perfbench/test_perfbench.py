"""Self-tests of the benchmark: seeding, the checker, and one-job smoke runs.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import os

import pytest

import run  # noqa: F401  (pins BLAS threads before numpy loads)
import check
import dualperron as dp
import jobs as J
from tracing import TARGETS

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _stream(workload, seed, n_rounds=3):
    return [job for rnd in itertools.islice(J.rounds(workload, seed), n_rounds) for job in rnd]


def _fingerprint(job_list):
    """Job descriptions plus the bytes of every input the program receives."""
    out, made = [], {}
    for job in job_list:
        entry = [json.dumps(job.describe(), sort_keys=True), job.input_bytes]
        if job.input_bytes is None:  # the program builds the example from the spec
            key = (job.family, job.n, job.seed, job.params)
            if key not in made:
                A = dp.generate(job.spec())
                made[key] = [A.standard.tobytes(), A.dual.tobytes()]
            entry += made[key]
        out.append(entry)
    return out


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_same_seed_same_jobs_and_inputs(workload):
    assert _fingerprint(_stream(workload, 7)) == _fingerprint(_stream(workload, 7))


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_other_seed_changes_jobs_and_inputs(workload):
    a, b = _fingerprint(_stream(workload, 7)), _fingerprint(_stream(workload, 8))
    assert [e[0] for e in a] != [e[0] for e in b]
    assert [e[1:] for e in a] != [e[1:] for e in b]


def test_rounds_have_fixed_composition():
    for workload in J.WORKLOADS:
        shapes = {
            tuple(sorted((j.kind, j.family, j.delta1, j.scale_exp < 0) for j in rnd))
            for rnd in itertools.islice(J.rounds(workload, 3), 4)
        }
        assert len(shapes) == 1, workload


def test_wrong_eigenvalue_is_counted_not_raised(tmp_path):
    loop = run.Loop("sweep-small", J.cli_env(run.SRC), str(tmp_path))
    job = J.Job("sweep-small", 0, 0, "library", "ex52", 10)
    real = J.run_library

    def tampered(j):
        out = real(j)
        lam = out.result.eigenvalue
        out.result.eigenvalue = dp.DualNumber(lam.standard * (1 + 1e-6), lam.dual)
        return out

    J.run_library = tampered
    try:
        results = loop.run_round([job, J.Job("sweep-small", 0, 1, "library", "ex51", 10)])
    finally:
        J.run_library = real
    assert [v for _, v in results] == ["wrong", "wrong"]
    res = run._result(results, {}, {})
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 2, 2)
    assert any("oracle" in p or "residual" in p for p in loop.ledger[0]["problems"])


def test_wrong_cli_answer_is_counted(tmp_path):
    A = dp.generate(dp.ExampleSpec("ex53", n=12))
    job = J.Job("cli-files", 0, 0, "solve", "ex53", 12, matrix_file="m.json",
                input_bytes=J._matrix_json(A))
    J.write_inputs([job], str(tmp_path))
    res = dp.solve(A)
    good = {"eigenvalue": {"standard": res.eigenvalue.standard, "dual": res.eigenvalue.dual},
            "residual_frn": res.residual, "iterations": res.iterations, "flag": 1}
    checker = check.Checker()
    ok = J._parse_cli(J.Outcome(0.1, exit_code=0, stdout=json.dumps(good)), job)
    assert checker.cli(job, ok, str(tmp_path), {})[0] == "ok"
    bad = dict(good, eigenvalue={"standard": res.eigenvalue.standard, "dual": res.eigenvalue.dual + 1e-3})
    wrong = J._parse_cli(J.Outcome(0.1, exit_code=0, stdout=json.dumps(bad)), job)
    assert checker.cli(job, wrong, str(tmp_path), {})[0] == "wrong"
    garbled = J._parse_cli(J.Outcome(0.1, exit_code=0, stdout="not json"), job)
    assert checker.cli(job, garbled, str(tmp_path), {})[0] == "wrong"


def test_scaled_input_refusal_is_a_failure(tmp_path):
    A = dp.generate(dp.ExampleSpec("ex52", n=10))
    s = 1e-50
    job = J.Job("cli-files", 0, 0, "solve", "ex52", 10, scale_exp=-50, matrix_file="m.json",
                argv=["solve", "--file", "m.json", "--json"],
                input_bytes=J._matrix_json(dp.DualMatrix(s * A.standard, s * A.dual)))
    J.write_inputs([job], str(tmp_path))
    out = J.run_cli_inprocess(job, str(tmp_path))
    verdict, _ = check.Checker().cli(job, out, str(tmp_path), {})
    assert out.exit_code != 0 and verdict == "refused"


def test_defect_probe_is_fixed_and_refused_not_wrong(tmp_path):
    probe = J.defect_probe()
    assert _fingerprint(probe) == _fingerprint(J.defect_probe())
    loop = run.Loop("cli-files", J.cli_env(run.SRC), str(tmp_path))
    verdicts = [v for _, v in loop.run_round(probe, inproc=True, label="probe")]
    # Every probe input that fails on this code is refused (typed error,
    # flag 0 or verify exit 5); none is answered wrongly.
    assert "wrong" not in verdicts and "refused" in verdicts and "ok" in verdicts


def test_timed_cli_calls_answer_correctly(tmp_path):
    loop = run.Loop("cli-files", J.cli_env(run.SRC), str(tmp_path))
    round_jobs = next(J.rounds("cli-files", 11))
    assert [v for _, v in loop.run_round(round_jobs, inproc=True)] == ["ok"] * len(round_jobs)


def test_xorshift_oracle_matches_generator():
    A = dp.generate(dp.ExampleSpec("ex54", n=9, seed=12345))
    std_row, dual_row = check.xorshift_first_rows(12345, 9)
    assert (A.standard[0] == std_row).all() and (A.dual[0] == dual_row).all()


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_one_job_smoke(workload):
    result, detail, ledger = run.run_untraced(workload, 5, 0.0, max_jobs=1, setup_repeats=1)
    assert result["attempted"] == 1 and sum(e["pass"] != "probe" for e in ledger) == 1
    assert detail.get("probe_jobs", 0) == sum(e["pass"] == "probe" for e in ledger)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values.pop("jobs_per_s") >= 0  # 0 when the one job failed
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_one_job_traced_smoke(workload):
    result, detail, ledger = run.run_traced(workload, 5, 0.0, max_jobs=1)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")
    assert result["metrics"]["trace.jobs"]["value"] == 1
    for fn in (getattr(__import__(mod, fromlist=[name]), name) for mod, name in TARGETS.values()):
        assert not hasattr(fn, "__wrapped__"), "tracer left a wrapper installed"
