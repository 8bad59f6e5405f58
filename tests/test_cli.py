import csv
import json
import os
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from dualperron import (
    DualMatrix,
    DualNumber,
    ExampleSpec,
    generate,
    load_matrix,
    save_matrix,
    solve,
)
from dualperron.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_dense_family_table_row(self, capsys):
        code, out, _ = run(capsys, "solve", "--example", "ex52", "--n", "10")
        assert code == 0
        assert "103.62+1.89e" in out

    def test_swap_family_closed_form(self, capsys):
        code, out, _ = run(capsys, "solve", "--example", "ex2")
        assert code == 0
        assert "1.00+2.00e" in out

    def test_reducible_input_exits_3(self, capsys):
        code, out, err = run(capsys, "solve", "--example", "ex1")
        assert code == 3
        assert "standard part reducible" in err

    def test_budget_exhausted_exits_4(self, capsys):
        code, _, err = run(capsys, "solve", "--example", "ex51", "--n", "10", "--max-iter", "2")
        assert code == 4
        assert "not converged" in err

    def test_numerical_failure_exits_6(self, capsys):
        # at rho = 1 every stop before k = 21 fails the residual guard (the
        # dual part lags), so a budget of 20 ends in a refusal
        code, _, err = run(capsys, "solve", "--example", "ex52", "--n", "2",
                           "--shift", "1", "--max-iter", "20")
        assert code == 6
        assert "numerically singular" in err

    def test_scaled_file_is_answered(self, capsys, tmp_path):
        # the default shift scales with A; a fixed rho = 1 rounds A away
        A = generate(ExampleSpec("ex52", n=16))
        path = tmp_path / "tiny.json"
        save_matrix(path, DualMatrix(1e-20 * A.standard, 1e-20 * A.dual))
        code, out, _ = run(capsys, "solve", "--file", str(path), "--json")
        assert code == 0
        lam = json.loads(out)["eigenvalue"]["standard"]
        assert lam == pytest.approx(1e-20 * solve(A).eigenvalue.standard, rel=1e-8)
        code, _, err = run(capsys, "solve", "--file", str(path), "--shift", "1")
        assert code == 4
        assert "not converged" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--example", "ex52", "--n", "10", "--shift", "inf"],
        ["solve", "--example", "ex52", "--n", "10", "--shift", "0"],
        ["classify", "--example", "ex52", "--n", "10", "--shift", "-1", "--json"],
        ["classify", "--example", "ex52", "--n", "10", "--shift", "nan", "--json"],
    ])
    def test_bad_shift_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "shift rho must be positive and finite" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--example", "ex51", "--n", "10", "--delta1", "inf", "--json"],
        ["solve", "--example", "ex51", "--n", "10", "--delta2", "inf"],
        ["solve", "--example", "ex51", "--n", "10", "--delta1", "nan"],
    ])
    def test_non_finite_tolerance_exits_2(self, capsys, argv):
        # an infinite tolerance would pass any answer
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "delta1 and delta2 must be positive and finite" in err

    def test_uncertified_left_vector_exits_6(self, capsys, tmp_path):
        # the loop stops at k = 1; the left Perron vector needs more steps than the budget
        path = tmp_path / "rows.json"
        save_matrix(path, DualMatrix([[0.5, 0.5], [0.1, 0.9]], [[1.0, 0.0], [0.0, 2.0]]))
        code, out, err = run(capsys, "solve", "--file", str(path), "--max-iter", "20")
        assert code == 6
        assert "left Perron vector not certified" in err
        assert run(capsys, "solve", "--file", str(path))[0] == 0

    def test_overflow_in_the_loop_exits_6(self, capsys, tmp_path):
        # a valid file whose products A*y overflow the double range; that is
        # a numerical failure, not a parse error
        A = generate(ExampleSpec("ex52", n=10))
        path = tmp_path / "big.json"
        save_matrix(path, DualMatrix(1e200 * A.standard, 1e200 * A.dual))
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run(capsys, "solve", "--file", str(path), "--shift", "1e200")
        assert code == 6
        assert "entries must be finite" not in err
        assert "not finite" in err

    def test_overflow_prints_only_the_error_line(self, tmp_path):
        # a fresh interpreter, since pytest captures warnings itself
        A = generate(ExampleSpec("ex52", n=10))
        path = tmp_path / "big.json"
        save_matrix(path, DualMatrix(1e200 * A.standard, 1e200 * A.dual))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "dualperron", "solve", "--file", str(path),
             "--shift", "1e200"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 6
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--example", "ex52", "--n", "10", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["flag"] == 1
        assert doc["eigenvalue"]["standard"] == pytest.approx(103.6157, abs=1e-3)
        assert doc["n"] == 10
        assert doc["wall_time_seconds"] > 0
        assert len(doc["shifts"]) == doc["iterations"]
        assert all(rho > 0 for rho in doc["shifts"])

    def test_trace_csv(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, "solve", "--example", "ex52", "--n", "10", "--json",
            "--trace-out", str(path),
        )
        assert code == 0
        doc = json.loads(out)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        # the columns the benchmark checker reads
        assert rows[0] == ["k", "lower_s", "lower_d", "upper_s", "upper_d", "gap_frn", "residual_frn"]
        assert len(rows) == doc["iterations"] + 2  # header + k = 0..iterations
        trace = solve(generate(ExampleSpec("ex52", n=10))).trace
        for row, rec in zip(rows[1:], trace, strict=True):
            assert int(row[0]) == rec.k
            assert [float(v) for v in row[1:]] == list(astuple(rec))[1:]
        gaps = [float(r[5]) for r in rows[1:]]
        assert gaps[-1] < gaps[0]
        assert int(rows[1][0]) == 0

    def test_solver_flags(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--example", "ex52", "--n", "10", "--json",
            "--delta1", "1e-12", "--shift", "2.0", "--max-iter", "500",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["eigenvalue"]["standard"] == pytest.approx(103.61570921, abs=1e-6)


class TestClassify:
    def test_star_family(self, capsys):
        code, out, _ = run(capsys, "classify", "--example", "ex51", "--n", "10")
        assert code == 0
        assert "irreducible=true" in out
        assert "primitive=false" in out

    def test_swap_family_period(self, capsys):
        code, out, _ = run(capsys, "classify", "--example", "ex2")
        assert code == 0
        assert "period=2" in out

    def test_random_family_positive(self, capsys):
        code, out, _ = run(capsys, "classify", "--example", "ex54", "--n", "10", "--seed", "0")
        assert code == 0
        assert "positive=true" in out

    def test_nonpositive_beta_prints_no_rate_constants(self, capsys, tmp_path):
        path = tmp_path / "negative.json"
        save_matrix(path, DualMatrix([[-1.0]], [[0.0]]))
        code, out, _ = run(capsys, "classify", "--file", str(path))
        assert code == 0
        assert "weakly_positive=true" in out
        assert "beta=" not in out and "alpha=" not in out

    def test_reducible_still_exits_0(self, capsys):
        code, out, _ = run(capsys, "classify", "--example", "ex1")
        assert code == 0
        assert "irreducible=false" in out

    def test_stored_nonzeros_at_n_1e5(self, capsys):
        # the dense standard part would take 74.5 GiB; the stored one is 2n nonzeros
        code, out, err = run(capsys, "classify", "--example", "ex53", "--n", "100000", "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["n"] == 100_000 and doc["primitive"] and doc["beta"] is None


CLASSIFY_KEYS = ["source", "n", "nonnegative", "irreducible", "period", "primitive",
                 "weakly_positive", "positive", "beta", "mu_bar", "alpha"]
VERIFY_KEYS = ["source", "n", "flag", "solver_lambda_s", "oracle_rho", "delta_lambda_s",
               "solver_lambda_d", "oracle_lambda_d", "delta_lambda_d", "fd_discrepancy", "verdict"]


class TestRecords:
    """Whole classify and verify records: key order, None and bool spelling."""

    def test_classify_dense_family(self, capsys):
        argv = ("classify", "--example", "ex52", "--n", "10")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines() == [
            "source=ex52", "n=10", "nonnegative=true", "irreducible=true", "period=1",
            "primitive=true", "weakly_positive=true", "positive=false", "beta=1.0",
            "mu_bar=136.0", "alpha=0.9926470588235294",
        ]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out == (
            '{"source": "ex52", "n": 10, "nonnegative": true, "irreducible": true, "period": 1, '
            '"primitive": true, "weakly_positive": true, "positive": false, "beta": 1.0, '
            '"mu_bar": 136.0, "alpha": 0.9926470588235294}\n'
        )

    def test_classify_swap_family(self, capsys):
        code, out, _ = run(capsys, "classify", "--example", "ex2")
        assert code == 0
        assert out.splitlines() == [
            "source=ex2", "n=2", "nonnegative=true", "irreducible=true", "period=2",
            "primitive=false", "weakly_positive=true", "positive=false", "beta=1.0",
            "mu_bar=2.0", "alpha=0.5",
        ]
        code, out, _ = run(capsys, "classify", "--example", "ex2", "--json")
        assert list(json.loads(out).items()) == [
            ("source", "ex2"), ("n", 2), ("nonnegative", True), ("irreducible", True),
            ("period", 2), ("primitive", False), ("weakly_positive", True), ("positive", False),
            ("beta", 1.0), ("mu_bar", 2.0), ("alpha", 0.5),
        ]

    def test_classify_skips_none_in_text_and_keeps_null_in_json(self, capsys, tmp_path):
        path = tmp_path / "negative.json"
        save_matrix(path, DualMatrix([[-1.0]], [[0.0]]))
        code, out, _ = run(capsys, "classify", "--file", str(path))
        assert code == 0
        assert out.splitlines() == [
            f"source={path}", "n=1", "nonnegative=false", "irreducible=false",
            "primitive=false", "weakly_positive=true", "positive=false",
        ]
        code, out, _ = run(capsys, "classify", "--file", str(path), "--json")
        assert code == 0
        assert out == (
            f'{{"source": {json.dumps(str(path))}, "n": 1, "nonnegative": false, '
            '"irreducible": false, "period": null, "primitive": false, "weakly_positive": true, '
            '"positive": false, "beta": null, "mu_bar": null, "alpha": null}\n'
        )

    @pytest.mark.parametrize("argv, head", [
        (["--example", "ex52", "--n", "10"], {"source": "ex52", "n": 10, "flag": 1}),
        (["--example", "ex2"], {"source": "ex2", "n": 2, "flag": 1}),
    ])
    def test_verify_text_is_the_json_record(self, capsys, argv, head):
        code, out, _ = run(capsys, "verify", *argv, "--json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == VERIFY_KEYS
        assert {k: doc[k] for k in head} == head and doc["verdict"] == "pass"
        code, text, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert text.splitlines() == [f"{key}={value}" for key, value in doc.items()]

    def test_verify_prints_no_record_on_inadmissible_input(self, capsys, tmp_path):
        path = tmp_path / "negative.json"
        save_matrix(path, DualMatrix([[-1.0]], [[0.0]]))
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "verify", "--file", str(path), *extra)
            assert (code, out, err) == (3, "", "error: standard part not nonnegative\n")

    def test_classify_keys_follow_the_report_fields(self, capsys):
        code, out, _ = run(capsys, "classify", "--example", "ex54", "--n", "5", "--json")
        assert code == 0
        assert list(json.loads(out)) == CLASSIFY_KEYS

    def test_overflowing_row_sums_report_no_rates_and_no_warning(self, tmp_path):
        # a fresh interpreter, so that a numpy warning would reach stderr
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 2, "standard": [[1e308, 1e308], [1e308, 1e308]],
                                    "dual": [[0, 0], [0, 0]]}))
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "dualperron", "classify", "--file", str(path), "--json"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = json.loads(proc.stdout)
        assert doc["positive"] is True
        assert doc["beta"] is doc["mu_bar"] is doc["alpha"] is None


class TestVerify:
    def test_swap_family(self, capsys):
        code, out, _ = run(capsys, "verify", "--example", "ex2")
        assert code == 0
        assert "verdict=pass" in out

    def test_random_family(self, capsys):
        code, out, _ = run(capsys, "verify", "--example", "ex54", "--n", "10", "--seed", "3")
        assert code == 0
        assert "verdict=pass" in out

    def test_cycle_spokes_at_n100(self, capsys):
        code, out, _ = run(capsys, "verify", "--example", "ex53", "--n", "100")
        assert code == 0
        assert "verdict=pass" in out

    def test_tiny_dual_part_passes(self, capsys):
        # numpy's norm of a 1e-200 dual part underflows to 0; the oracle's does not
        code, out, _ = run(capsys, "verify", "--example", "ex2", "--params", "1e-200,0,0,0", "--json")
        doc = json.loads(out)
        assert (code, doc["verdict"]) == (0, "pass")
        assert doc["fd_discrepancy"] <= 1e-10 * doc["oracle_lambda_d"]

    def test_dual_part_in_large_units_passes(self, capsys, tmp_path):
        A = generate(ExampleSpec("ex54", n=12, seed=3))
        path = tmp_path / "m.json"
        save_matrix(path, DualMatrix(A.standard, 1e6 * A.dual))
        code, out, _ = run(capsys, "verify", "--file", str(path), "--json")
        doc = json.loads(out)
        assert (code, doc["verdict"]) == (0, "pass")
        assert doc["fd_discrepancy"] <= 1e-9 * doc["oracle_lambda_d"]

    def test_tolerance_breach_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr("dualperron.oracle.fd_check", lambda *a, **k: 1.0)
        code, out, _ = run(capsys, "verify", "--example", "ex2")
        assert code == 5
        assert "verdict=fail" in out

    def test_flag_2_answer_passes_at_the_delta2_it_met(self, capsys):
        # solve answers with exit 0; verify judged the answer at delta1 and exited 5
        code, out, _ = run(capsys, "verify", "--example", "ex52", "--n", "10", "--delta2", "1", "--json")
        doc = json.loads(out)
        assert (code, doc["flag"], doc["verdict"]) == (0, 2, "pass")
        assert doc["delta_lambda_s"] > 1e-6
        assert run(capsys, "solve", "--example", "ex52", "--n", "10", "--delta2", "1")[0] == 0

    def test_budget_exhausted_exits_4(self, capsys):
        code, out, err = run(capsys, "verify", "--example", "ex52", "--n", "10", "--max-iter", "1")
        assert code == 4
        assert out == ""
        assert "not converged within 1 iterations" in err

    def test_size_guard_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--example", "ex52", "--n", "201")
        assert code == 2
        assert "error" in err

    def test_size_guard_reads_the_stored_part(self, capsys):
        # the dense standard part would take 74.5 GiB; the guard refuses before building it
        code, out, err = run(capsys, "verify", "--example", "ex53", "--n", "100000")
        assert (code, out) == (2, "")
        assert err == "error: dense spectrum limited to n <= 200, got 100000\n"

    def test_scaled_down_input_passes(self, capsys, tmp_path):
        # the oracle's simple-root test is relative to the spectral radius,
        # so a spectrum of scale 1e-100 is still resolved
        path = tmp_path / "tiny.json"
        save_matrix(path, generate(ExampleSpec("ex51", n=16)) * 1e-100)
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert (code, err) == (0, "")
        assert "verdict=pass" in out

    def test_scaled_down_wrong_eigenvalue_fails(self, capsys, tmp_path, monkeypatch):
        # the tolerances scale with the answer: at 1e-100 an absolute floor
        # would pass twice the true lambda_s, or 0
        def doubled(A, cfg=None):
            result = solve(A, cfg)
            lam = result.eigenvalue
            return replace(result, eigenvalue=DualNumber(2.0 * lam.standard, lam.dual))
        monkeypatch.setattr("dualperron.cli.solve", doubled)
        path = tmp_path / "tiny.json"
        save_matrix(path, generate(ExampleSpec("ex51", n=16)) * 1e-100)
        code, out, _ = run(capsys, "verify", "--file", str(path))
        assert code == 5
        assert "verdict=fail" in out

    def test_unresolved_oracle_exits_6(self, capsys, tmp_path):
        # A cycle with 1e-6 links: admissible, and solve answers it, but the
        # eigenvector's smallest entry (1e-30) is below the dense oracle's
        # resolution, so verify fails numerically, not as a usage error.
        S = np.zeros((6, 6))
        S[np.arange(1, 6), np.arange(5)] = 1e-6
        S[0, 5] = S[0, 0] = 1.0
        path = tmp_path / "chain.json"
        save_matrix(path, DualMatrix(S, np.zeros((6, 6))))
        code, _, _ = run(capsys, "solve", "--file", str(path))
        assert code == 0
        code, _, err = run(capsys, "verify", "--file", str(path))
        assert code == 6
        assert "dominant eigenvector is not strictly positive" in err


class TestTable:
    def test_pattern_families(self, capsys):
        code, out, _ = run(
            capsys, "table", "--examples", "ex51,ex52,ex53", "--sizes", "10,100", "--json"
        )
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 6
        by_key = {(d["source"], d["n"]): d for d in docs}
        assert by_key[("ex51", 10)]["eigenvalue"]["standard"] == pytest.approx(3.00, abs=0.01)
        assert by_key[("ex51", 100)]["eigenvalue"]["standard"] == pytest.approx(9.95, abs=0.01)
        assert by_key[("ex53", 10)]["eigenvalue"]["standard"] == pytest.approx(2.17, abs=0.01)
        assert by_key[("ex53", 100)]["eigenvalue"]["standard"] == pytest.approx(4.68, abs=0.01)

    def test_random_family_averages_ten_seeds(self, capsys):
        code, out, _ = run(capsys, "table", "--examples", "ex54", "--sizes", "10", "--json")
        assert code == 0
        (doc,) = json.loads(out)
        assert doc["eigenvalue"]["standard"] == pytest.approx(6.03, abs=0.5)
        assert isinstance(doc["iterations"], float)

    def test_random_family_seed_picks_the_ten_seeds(self, capsys):
        code, out, _ = run(
            capsys, "table", "--examples", "ex54", "--sizes", "10", "--seed", "5", "--json"
        )
        assert code == 0
        (doc,) = json.loads(out)
        results = [solve(generate(ExampleSpec("ex54", n=10, seed=s))) for s in range(5, 15)]
        assert doc["eigenvalue"]["standard"] == pytest.approx(
            sum(r.eigenvalue.standard for r in results) / 10, rel=1e-12
        )
        assert doc["eigenvalue"]["dual"] == pytest.approx(
            sum(r.eigenvalue.dual for r in results) / 10, rel=1e-12
        )
        _, out0, _ = run(capsys, "table", "--examples", "ex54", "--sizes", "10", "--json")
        (doc0,) = json.loads(out0)
        assert doc0["eigenvalue"] != doc["eigenvalue"]

    def test_budget_exhausted_exits_4_silently(self, capsys):
        # the table's flag-0 rows are the report; a seeded cell with one is
        # not averaged, so ex54 gives all ten of its seeds
        code, out, err = run(capsys, "table", "--examples", "ex51,ex54", "--sizes", "10",
                             "--max-iter", "2", "--json")
        assert (code, err) == (4, "")
        docs = json.loads(out)
        assert [d["source"] for d in docs] == ["ex51"] + ["ex54"] * 10
        assert {d["flag"] for d in docs} == {0}

    @pytest.mark.slow
    def test_dense_family_large(self, capsys):
        code, out, _ = run(capsys, "table", "--examples", "ex52", "--sizes", "1000", "--json")
        assert code == 0
        (doc,) = json.loads(out)
        assert doc["eigenvalue"]["dual"] == pytest.approx(2.00, abs=0.02)

    def test_text_rendering(self, capsys):
        code, out, _ = run(capsys, "table", "--examples", "ex52", "--sizes", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split()[:2] == ["source", "n"]
        assert "103.62+1.89e" in lines[1]

    def test_unknown_example_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "table", "--examples", "nope", "--sizes", "10")
        assert exc.value.code == 2

    @pytest.mark.parametrize("examples, sizes, message", [
        ("ex52", "x", "--sizes must be comma-separated integers"),
        ("ex52", "", "must each name at least one entry"),
        ("", "10", "must each name at least one entry"),
    ], ids=["unparseable_sizes", "no_sizes", "no_examples"])
    def test_bad_list_exits_2(self, capsys, examples, sizes, message):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "table", "--examples", examples, "--sizes", sizes)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err


class TestDump:
    def test_round_trip_is_bitwise(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        code, _, _ = run(
            capsys, "dump", "--example", "ex54", "--n", "6", "--seed", "7", "--file", str(path)
        )
        assert code == 0
        back = load_matrix(path)
        direct = generate(ExampleSpec("ex54", n=6, seed=7))
        assert np.array_equal(back.standard, direct.standard)
        assert np.array_equal(back.dual, direct.dual)

    def test_dumped_file_feeds_solve(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        run(capsys, "dump", "--example", "ex52", "--n", "8", "--file", str(path))
        code, out, _ = run(capsys, "solve", "--file", str(path), "--json")
        assert code == 0
        assert json.loads(out)["flag"] == 1

    def test_missing_output_path_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "dump", "--example", "ex52", "--n", "8")
        assert exc.value.code == 2

    def test_missing_example_exits_2(self, capsys, tmp_path):
        path = tmp_path / "o.json"
        with pytest.raises(SystemExit) as exc:
            run(capsys, "dump", "--file", str(path))
        assert exc.value.code == 2
        assert "dump requires --example" in capsys.readouterr().err
        assert not path.exists()


class TestParseErrors:
    def test_no_input_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "solve")
        assert exc.value.code == 2

    def test_both_inputs_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        run(capsys, "dump", "--example", "ex52", "--n", "4", "--file", str(path))
        with pytest.raises(SystemExit) as exc:
            run(capsys, "solve", "--example", "ex52", "--n", "4", "--file", str(path))
        assert exc.value.code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "--file", "/nonexistent/m.json")
        assert code == 2
        assert "error" in err

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "solve", "--file", str(path))
        assert code == 2

    def test_short_params_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--example", "ex2", "--params", "1,2")
        assert code == 2
        assert "error" in err

    def test_unparseable_params_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "solve", "--example", "ex2", "--params", "1,x,3,4")
        assert exc.value.code == 2

    def test_missing_n_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "solve", "--example", "ex52")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("table", "--examples", "ex52", "--sizes", "x"),
        ("dump", "--example", "ex52", "--n", "5"),
        ("solve", "--example", "ex52"),
    ])
    def test_usage_error_prints_the_subcommand_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith(f"usage: dualperron {argv[0]} ")
        assert f"dualperron {argv[0]}: error: " in err

    @pytest.mark.parametrize("command", ["solve", "classify"])
    def test_refused_allocation_exits_2(self, capsys, monkeypatch, command):
        def refuse(spec):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        monkeypatch.setattr("dualperron.cli.generate", refuse)
        code, out, err = run(capsys, command, "--example", "ex52", "--n", "1000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate 7.28 TiB")

    @pytest.mark.parametrize("n, size", [(2.9, 2), (True, 1), ("2", 2)])
    def test_non_integer_n_exits_2(self, capsys, tmp_path, n, size):
        path = tmp_path / "m.json"
        ones = np.ones((size, size)).tolist()
        path.write_text(json.dumps({"n": n, "standard": ones, "dual": ones}))
        code, _, err = run(capsys, "solve", "--file", str(path))
        assert code == 2
        assert "malformed matrix document" in err

    @pytest.mark.parametrize("entry, kinds", [
        ('"1"', "['str']"), ("true", "['bool']"), ("null", "['NoneType']"),
    ])
    @pytest.mark.parametrize("part", ["standard", "dual"])
    def test_entry_that_is_no_json_number_exits_2(self, capsys, tmp_path, part, entry, kinds):
        # np.asarray(..., dtype=float) reads "1" and true as 1, and null as NaN
        path = tmp_path / "m.json"
        doc = {"n": 2, "standard": [[0, 1], [1, 0]], "dual": [[1, 1], [1, 1]]}
        doc[part][1][0] = "ENTRY"
        path.write_text(json.dumps(doc).replace('"ENTRY"', entry))
        code, out, err = run(capsys, "solve", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: malformed matrix document: entries must be numbers, got {kinds}\n"

    def test_integer_entries_are_numbers(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"n": 2, "standard": [[0, 1], [1, 0]], "dual": [[1, 1], [1, 1]]}')
        code, out, _ = run(capsys, "solve", "--file", str(path), "--json")
        assert code == 0
        assert json.loads(out)["eigenvalue"] == {"standard": 1.0, "dual": 2.0}

    def test_integer_beyond_the_double_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"n": 1, "standard": [[1%s]], "dual": [[0]]}' % ("0" * 400))
        code, _, err = run(capsys, "solve", "--file", str(path))
        assert code == 2
        assert err == "error: malformed matrix document: int too large to convert to float\n"

    @pytest.mark.parametrize("command", ["solve", "classify"])
    def test_deeply_nested_document_exits_2(self, capsys, tmp_path, command):
        # 3000 nested arrays, 6 KB: deeper than the JSON parser's recursion limit
        path = tmp_path / "m.json"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        path.write_text(json.dumps({"n": 2, "standard": "DEEP", "dual": zeros})
                        .replace('"DEEP"', "[" * 3000 + "]" * 3000))
        code, out, err = run(capsys, command, "--file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed matrix document: maximum recursion depth")


# Runs in a fresh interpreter in which any import of scipy fails, so that
# modules loaded by other tests do not count. argv[1] is a scratch directory.
_NO_SCIPY_PROBE = """
import os, sys
sys.modules["scipy"] = None
import dualperron
from dualperron.cli import main
path = os.path.join(sys.argv[1], "m.json")
assert main(["dump", "--example", "ex54", "--n", "20", "--seed", "3", "--file", path]) == 0
assert main(["classify", "--file", path, "--json"]) == 0
assert main(["solve", "--file", path, "--json"]) == 0
assert main(["solve", "--file", path, "--json", "--delta1", "1e-300"]) == 0
for ex in ("ex51", "ex53"):
    assert main(["verify", "--example", ex, "--n", "150", "--json"]) == 0
assert main(["table", "--examples", "ex52,ex54", "--sizes", "10", "--json"]) == 0
A = dualperron.load_matrix(path)
result = dualperron.solve(A)
dualperron.solve_dual_part(A, result.eigenvalue.standard, result.eigenvector.standard)
"""


class TestNoScipy:
    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_PROBE, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
