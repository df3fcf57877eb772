import json
import os
import threading

import numpy as np
import pytest

import sdekoopman.validation as validation
from sdekoopman import errors
from sdekoopman.cli import main


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


OU_DOC = {"model": "ou", "seed": 11, "fk": {"n_paths": 500, "t_max": 5.0}}


def must_not_run(monkeypatch, owner, name):
    """Make ``owner.name`` fail the test if the command calls it."""
    def boom(*args, **kwargs):
        raise AssertionError(f"{name} ran before the command's checks")

    monkeypatch.setattr(owner, name, boom)


def out_under_a_file(tmp_path):
    """An --out path below a regular file, which no command can make."""
    taken = tmp_path / "taken"
    taken.write_text("")
    return taken / "out"


def no_svd_no_residual(monkeypatch):
    """Make the SVD of the condition number and the PDE residual raise."""
    import sdekoopman.collocation as collocation
    import sdekoopman.validation as validation

    def boom(*args, **kwargs):
        raise AssertionError("an unrequested metric was computed")

    for owner in (collocation, validation):
        monkeypatch.setattr(owner, "condition_number", boom)
    monkeypatch.setattr(validation, "pde_residual", boom)


class TestSolveCommand:
    def test_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, OU_DOC)
        out = str(tmp_path / "run")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        for name in ("solution.json", "report.csv", "eigenfunction_curve.csv"):
            assert os.path.exists(os.path.join(out, name))
        lines = read(os.path.join(out, "report.csv")).decode().splitlines()
        assert lines[0].startswith("label,cond,pde_res_mean")
        assert lines[1].startswith("ou,")

    def test_solution_json_is_loadable(self, tmp_path):
        from sdekoopman import load_solution
        cfg = write_config(tmp_path, OU_DOC)
        out = str(tmp_path / "run")
        main(["solve", "--config", cfg, "--out", out])
        sol = load_solution(os.path.join(out, "solution.json"))
        assert abs(sol.eval_phi(np.array([0.5])) - 0.5) < 1e-12

    def test_curve_for_2d_model_is_contour_grid(self, tmp_path):
        doc = {"model": "linear2d", "metrics": ["condition_number", "pde_residual"]}
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "run2d")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        lines = read(os.path.join(out, "eigenfunction_curve.csv")).decode().splitlines()
        assert lines[0] == "x1,x2,phi"
        assert len(lines) == 1 + 400

    def test_config_overrides_reach_the_solution(self, tmp_path):
        doc = {"model": "ou", "kernel_lengthscale": 0.9, "gamma": 1e-3,
               "grid_spec": {"kind": "uniform_1d", "n": 20},
               "metrics": ["condition_number"]}
        out = str(tmp_path / "run")
        assert main(["solve", "--config", write_config(tmp_path, doc), "--out", out]) == 0
        with open(os.path.join(out, "solution.json"), encoding="utf-8") as fh:
            sol = json.load(fh)
        assert (sol["lengthscale"], sol["gamma"], len(sol["grid"])) == (0.9, 1e-3, 20)

    def test_negative_gamma_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "ou", "gamma": -1.0})
        assert main(["solve", "--config", cfg]) == 2
        assert "gamma must be nonnegative" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "ou", "kernel_width": 2.0})
        assert main(["solve", "--config", cfg]) == 2
        assert "kernel_width" in capsys.readouterr().err

    def test_unknown_metric_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "ou", "metrics": ["speed"]})
        assert main(["solve", "--config", cfg]) == 2
        assert "speed" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unrequested_metrics_are_not_computed(self, tmp_path, monkeypatch):
        out = str(tmp_path / "run")
        no_svd_no_residual(monkeypatch)
        doc = dict(OU_DOC, metrics=["semigroup"])
        assert main(["solve", "--config", write_config(tmp_path, doc), "--out", out]) == 0
        header, row = read(os.path.join(out, "report.csv")).decode().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["cond"] == cells["pde_res_mean"] == cells["max_abs_h"] == ""
        assert float(cells["semigroup_error_pct"]) <= 10.0

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, OU_DOC)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["solve", "--config", cfg, "--out", out1])
        main(["solve", "--config", cfg, "--out", out2])
        for name in ("solution.json", "report.csv", "eigenfunction_curve.csv"):
            assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))


class TestSolveFailureWritesNothing:
    """The metrics run while solution.json is written under a temporary
    name; a failing metric exits with its usual code, removes that file and
    leaves the solution.json of an earlier run as it was."""

    @pytest.fixture
    def written(self, monkeypatch):
        import sdekoopman.collocation as collocation

        paths = []
        save = collocation.save_solution

        def recording_save(path, sol, asys=None):
            paths.append(path)
            save(path, sol, asys)

        monkeypatch.setattr(collocation, "save_solution", recording_save)
        return paths

    def earlier_run(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "solution.json").write_text("from an earlier run\n")
        return out

    def assert_nothing_left(self, out, written):
        assert len(written) == 1  # the writer ran before the failure surfaced
        assert not os.path.exists(written[0])
        assert os.listdir(out) == ["solution.json"]
        assert (out / "solution.json").read_text() == "from an earlier run\n"

    def test_failing_semigroup_check_exits_2(self, tmp_path, monkeypatch, written, capsys):
        import sdekoopman.validation as validation

        def failing(*args, **kwargs):
            raise ValueError("semigroup check failed on purpose")

        monkeypatch.setattr(validation, "semigroup_check", failing)
        out = self.earlier_run(tmp_path)
        assert main(["solve", "--config", write_config(tmp_path, OU_DOC),
                     "--out", str(out)]) == 2
        assert "failed on purpose" in capsys.readouterr().err
        self.assert_nothing_left(out, written)

    def test_singular_system_exits_3(self, tmp_path, monkeypatch, written, capsys):
        import dataclasses

        import sdekoopman.collocation as collocation

        assemble = collocation.assemble

        def singular(*args, **kwargs):
            # a denormal last row: the LU succeeds (ou has f = 0, so alpha = 0),
            # and only the singular values show the matrix is singular
            asys = assemble(*args, **kwargs)
            M = asys.system_matrix.copy()
            M[-1] *= 1e-310
            return dataclasses.replace(asys, system_matrix=M)

        monkeypatch.setattr(collocation, "assemble", singular)
        out = self.earlier_run(tmp_path)
        assert main(["solve", "--config", write_config(tmp_path, OU_DOC),
                     "--out", str(out)]) == 3
        assert "numerically singular" in capsys.readouterr().err
        self.assert_nothing_left(out, written)

    def test_semigroup_dt_rejected_before_solving(self, tmp_path, written, capsys):
        # dt = 0.03 does not divide the semigroup horizon 0.5
        doc = dict(OU_DOC, fk={"dt": 0.03})
        out = self.earlier_run(tmp_path)
        assert main(["solve", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        assert "whole number of time steps" in capsys.readouterr().err
        assert written == []
        assert os.listdir(out) == ["solution.json"]


class TestFkCommand:
    def test_estimates_csv(self, tmp_path):
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\n-0.5\n")
        out = str(tmp_path / "fkrun")
        assert main(["fk", "--config", cfg, "--queries", str(queries),
                     "--out", out]) == 0
        lines = read(os.path.join(out, "fk_estimates.csv")).decode().splitlines()
        assert lines[0] == "query_index,x,value,std_error,n_capped,mean_exit_time,overflow_flag"
        assert lines[1].split(",")[2] == "0.0"  # zero source, zero boundary

    def test_header_row_tolerated(self, tmp_path):
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("x\n0.25\n")
        assert main(["fk", "--config", cfg, "--queries", str(queries),
                     "--out", str(tmp_path / "o")]) == 0

    def test_exponent_first_row_is_a_query(self, tmp_path):
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("1e-1\n0.5\n")
        out = str(tmp_path / "o")
        assert main(["fk", "--config", cfg, "--queries", str(queries), "--out", out]) == 0
        lines = read(os.path.join(out, "fk_estimates.csv")).decode().splitlines()
        assert [row.split(",")[1] for row in lines[1:]] == ["0.1", "0.5"]

    def test_malformed_line_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        for bad in ("plaid", "nan", "-inf"):  # a NaN query would give a NaN estimate
            queries.write_text(f"0.5\n{bad}\n")
            assert main(["fk", "--config", cfg, "--queries", str(queries)]) == 2
            assert "line 2" in capsys.readouterr().err

    def test_wrong_dimension_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("0.5,0.5\n")
        assert main(["fk", "--config", cfg, "--queries", str(queries)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_fit_writes_solution(self, tmp_path):
        from sdekoopman import load_solution
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("\n".join(str(v) for v in np.linspace(-2, 2, 9)))
        out = str(tmp_path / "fit")
        assert main(["fk", "--config", cfg, "--queries", str(queries),
                     "--fit", "--out", out]) == 0
        sol = load_solution(os.path.join(out, "fitted_solution.json"))
        # all estimates are exactly zero for the linear model
        assert np.array_equal(sol.coefficients, np.zeros(9))

    @pytest.mark.parametrize("eta", ["0", "nan", "inf"])
    def test_bad_eta_rejected_before_stepping(self, tmp_path, capsys, monkeypatch, eta):
        import sdekoopman.feynman_kac as feynman_kac

        def boom(*args, **kwargs):
            raise AssertionError("stepped paths before checking --eta")

        monkeypatch.setattr(feynman_kac, "fk_batch", boom)
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\n")
        out = tmp_path / "fit"
        assert main(["fk", "--config", cfg, "--queries", str(queries), "--fit",
                     "--eta", eta, "--out", str(out)]) == 2
        assert "eta must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_out_under_a_file_rejected_before_stepping(self, tmp_path, capsys, monkeypatch):
        import sdekoopman.feynman_kac as feynman_kac

        must_not_run(monkeypatch, feynman_kac, "fk_batch")
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\n")
        out = out_under_a_file(tmp_path)
        assert main(["fk", "--config", write_config(tmp_path, OU_DOC), "--queries",
                     str(queries), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}: ")

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\n0.9\n")
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        main(["fk", "--config", cfg, "--queries", str(queries), "--out", out1])
        main(["fk", "--config", cfg, "--queries", str(queries), "--out", out2])
        assert read(os.path.join(out1, "fk_estimates.csv")) == \
            read(os.path.join(out2, "fk_estimates.csv"))

    def test_seed_precedence(self, tmp_path):
        # --seed, then seed, then fk.seed, then 0
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\n")
        fk = {"n_paths": 50, "t_max": 2.0}

        def estimates(name, doc, *flags):
            cfg = write_config(tmp_path, {"model": "quadratic", "fk": fk, **doc},
                               f"{name}.json")
            out = tmp_path / name
            assert main(["fk", "--config", cfg, "--queries", str(queries),
                         "--out", str(out), *flags]) == 0
            return read(out / "fk_estimates.csv")

        seed5 = estimates("fk_seed", {"fk": {**fk, "seed": 5}})
        assert estimates("seed", {"seed": 5}) == seed5
        assert estimates("both", {"seed": 5, "fk": {**fk, "seed": 9}}) == seed5
        assert estimates("flag", {"seed": 7}, "--seed", "5") == seed5
        assert estimates("none", {}) == estimates("flag0", {}, "--seed", "0") != seed5


class TestReproduceCommand:
    def test_test1_passes_bands(self, tmp_path, capsys):
        out = str(tmp_path / "rep")
        assert main(["reproduce", "test1", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "all benchmark bands passed" in stdout
        lines = read(os.path.join(out, "summary.csv")).decode().splitlines()
        assert len(lines) == 2  # header + one row

    def test_failed_band_exits_1_after_writing_summary(self, tmp_path, capsys, monkeypatch):
        check_acceptance = validation.check_acceptance

        def first_band_fails(name, result):
            (label, _, detail), *rest = check_acceptance(name, result)
            return [(label, False, detail), *rest]

        monkeypatch.setattr(validation, "check_acceptance", first_band_fails)
        out = tmp_path / "rep"
        assert main(["reproduce", "test1", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("[FAIL] test1_ou: ") for line in stdout) == 1
        assert "1 benchmark band(s) failed" in stdout
        assert len(read(out / "summary.csv").decode().splitlines()) == 2

    def test_config_flag_rejected(self, capsys):
        # reproduce runs the pinned experiments; it has no --config to ignore
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "test1", "--config", "/nonexistent.json"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_unknown_test_name_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "test9"])
        assert exc.value.code == 2

    def test_all_produces_five_rows(self, tmp_path, capsys):
        out = str(tmp_path / "repall")
        assert main(["reproduce", "all", "--out", out]) == 0
        lines = read(os.path.join(out, "summary.csv")).decode().splitlines()
        assert len(lines) == 6  # header + ou + quadratic x3 + linear2d
        labels = [r.split(",")[0] for r in lines[1:]]
        assert labels == ["ou", "quadratic sigma=0", "quadratic sigma=0.3",
                          "quadratic sigma=0.5", "linear2d"]


class TestSemigroupCurveCommand:
    def test_curve_columns_and_predictions(self, tmp_path):
        cfg = write_config(tmp_path, OU_DOC)
        out = str(tmp_path / "sg")
        assert main(["semigroup-curve", "--config", cfg,
                     "--t-list", "0.1,0.25,0.5", "--out", out]) == 0
        lines = read(os.path.join(out, "semigroup_curve.csv")).decode().splitlines()
        assert lines[0] == "t,mc_mean,prediction,rel_error"
        for row in lines[1:]:
            t, _, pred, rel = row.split(",")
            assert float(pred) == pytest.approx(np.exp(-float(t)), rel=1e-12)
            assert float(rel) <= 0.10

    def test_empty_t_list_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, OU_DOC)
        assert main(["semigroup-curve", "--config", cfg, "--t-list", ""]) == 2

    def test_decreasing_t_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path, OU_DOC)
        assert main(["semigroup-curve", "--config", cfg, "--t-list", "0.5,0.1"]) == 2

    def test_horizons_on_one_step_rejected(self, tmp_path, capsys):
        # dt = 0.01: 0.104 is not a whole number of steps (it would share step 10)
        cfg = write_config(tmp_path, OU_DOC)
        assert main(["semigroup-curve", "--config", cfg, "--t-list", "0.1,0.104",
                     "--out", str(tmp_path / "sg")]) == 2
        assert "whole number of time steps" in capsys.readouterr().err

    @pytest.mark.parametrize("t_list, message", [
        ("", "positive and strictly increasing"),
        ("0.5,0.1", "positive and strictly increasing"),
        ("-0.1", "positive and strictly increasing"),
        ("0.1,0.104", "whole number of time steps"),
        ("0.1,inf", "whole number of time steps"),
        ("0.1,0.1000000000001", "same time step"),
        ("0.1,1e9", "horizon 1000000000.0 / dt must be at most 1e+07 steps"),
    ])
    def test_bad_t_list_rejected_before_solving(self, tmp_path, capsys, monkeypatch,
                                                t_list, message):
        import sdekoopman.validation as validation

        def boom(*args, **kwargs):
            raise AssertionError("solved before checking --t-list")

        monkeypatch.setattr(validation, "solve_system", boom)
        cfg = write_config(tmp_path, OU_DOC)
        assert main(["semigroup-curve", "--config", cfg, "--t-list", t_list,
                     "--out", str(tmp_path / "sg")]) == 2
        assert message in capsys.readouterr().err

    def test_out_under_a_file_rejected_before_solving(self, tmp_path, capsys, monkeypatch):
        must_not_run(monkeypatch, validation, "solve_and_report")
        out = out_under_a_file(tmp_path)
        assert main(["semigroup-curve", "--config", write_config(tmp_path, OU_DOC),
                     "--t-list", "0.1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}: ")

    def test_computes_no_report_metrics(self, tmp_path, monkeypatch):
        no_svd_no_residual(monkeypatch)
        cfg = write_config(tmp_path, OU_DOC)
        assert main(["semigroup-curve", "--config", cfg, "--t-list", "0.1",
                     "--out", str(tmp_path / "sg")]) == 0


class TestSweepCommand:
    def test_monotone_conditioning(self, tmp_path, capsys):
        out = str(tmp_path / "sw")
        cfg = write_config(tmp_path, {"model": "quadratic", "seed": 3,
                                      "fk": {"n_paths": 400, "t_max": 5.0}})
        assert main(["sweep", "--config", cfg, "--sigmas", "0,0.3,0.5",
                     "--out", out]) == 0
        lines = read(os.path.join(out, "sweep.csv")).decode().splitlines()
        conds = [float(r.split(",")[1]) for r in lines[1:]]
        assert conds[0] > conds[1] > conds[2]

    def test_bad_sigma_list(self, tmp_path):
        assert main(["sweep", "--sigmas", "0,heavy"]) == 2
        assert main(["sweep", "--sigmas", "-0.5"]) == 2

    @pytest.mark.parametrize("sigmas", ["nan", "0.3,inf", "inf,0.3"])
    def test_non_finite_sigma_rejected_before_solving(self, tmp_path, capsys, monkeypatch,
                                                      sigmas):
        def boom(*args, **kwargs):
            raise AssertionError("solved a row before checking --sigmas")

        monkeypatch.setattr(validation, "solve_and_report", boom)
        out = tmp_path / "sw"
        assert main(["sweep", "--sigmas", sigmas, "--out", str(out)]) == 2
        assert "sigma values must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_semigroup_dt_rejected_before_any_row(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(validation, "solve_and_report",
                            lambda *args, **kwargs: calls.append(args))
        doc = {"model": "quadratic", "fk": {"dt": 0.03}}
        out = tmp_path / "sw"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--sigmas", "0.3,0.5",
                     "--out", str(out)]) == 2
        assert "whole number of time steps" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("gamma", 0.5), ("kernel_lengthscale", 0.3),
        ("grid_spec", {"kind": "uniform_1d", "n": 12}), ("lambda_select", -1.0),
        ("metrics", ["condition_number"]),
    ])
    def test_unapplied_config_keys_rejected_by_name(self, tmp_path, capsys, key, value):
        doc = {"model": "quadratic", key: value}
        out = tmp_path / "sw"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--sigmas", "0.3",
                     "--out", str(out)]) == 2
        assert f"not apply {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_sigmas_replace_the_config_sigma(self, tmp_path):
        rows = {}
        for name, model in (("plain", "quadratic"),
                            ("sigma", {"name": "quadratic", "sigma": 0.9})):
            doc = {"model": model, "seed": 3, "fk": {"n_paths": 200, "t_max": 3.0}}
            out = tmp_path / name
            assert main(["sweep", "--config", write_config(tmp_path, doc, f"{name}.json"),
                         "--sigmas", "0.3", "--out", str(out)]) == 0
            rows[name] = read(out / "sweep.csv")
        assert rows["plain"] == rows["sigma"]
        assert b"sigma=0.3" in rows["plain"]

    def test_non_quadratic_config_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "ou"})
        assert main(["sweep", "--config", cfg, "--sigmas", "0,0.3"]) == 2
        assert "quadratic" in capsys.readouterr().err


def run_main(capsys, *argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWorkerProcesses:
    """reproduce deals its experiments and sweep its noise levels round-robin
    to --threads processes, forking a worker for each group after the first."""

    @pytest.mark.parametrize("argv, written", [
        (["reproduce", "all"], "summary.csv"),
        (["sweep", "--sigmas", "0.5,0,0.3"], "sweep.csv")])
    def test_outputs_identical_across_threads(self, forks, tmp_path, capsys, argv, written):
        runs = []
        for threads in (1, 2, 3):
            before = len(forks)
            code, out, err = run_main(capsys, *argv, "--out", str(tmp_path),
                                      "--threads", str(threads))
            runs.append((code, out, err, read(tmp_path / written)))
            assert len(forks) - before == threads - 1  # three items each
        assert runs[0][0] == 0
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_one_experiment_runs_here(self, forks, tmp_path):
        assert main(["reproduce", "test1", "--out", str(tmp_path), "--threads", "2"]) == 0
        assert forks == []

    @pytest.mark.parametrize("n_paths, forked", [(9_999, 0), (10_000, 1)])
    def test_light_sweep_runs_here(self, forks, tmp_path, n_paths, forked):
        # two rows of n_paths x 50 semigroup steps fork from 1e6 path steps on
        cfg = write_config(tmp_path, {"model": "quadratic",
                                      "fk": {"n_paths": n_paths, "t_max": 1.0}})
        assert main(["sweep", "--config", cfg, "--sigmas", "0,0.3", "--out", str(tmp_path),
                     "--threads", "2"]) == 0
        assert len(forks) == forked

    def test_first_failing_experiment_is_reported(self, forks, monkeypatch, tmp_path, capsys):
        # at --threads 2 this process runs test1 and test3 and a worker test2;
        # the worker's failure comes first in experiment order
        run = validation.run_experiment

        def failing(name, **kwargs):
            if name != "test1_ou":
                raise errors.EvaluationError(f"{name} refused")
            return run(name, **kwargs)

        monkeypatch.setattr(validation, "run_experiment", failing)
        runs = [run_main(capsys, "reproduce", "all", "--out", str(tmp_path),
                         "--threads", threads) for threads in ("1", "2", "3")]
        assert runs[0] == (3, "", "error [reproduce]: test2_quadratic refused\n")
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert len(forks) == 1 + 2

    def test_nothing_forks_while_another_thread_runs(self, forks, tmp_path, capsys):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:  # a fork would copy the other thread's locks
            assert main(["reproduce", "all", "--out", str(tmp_path), "--threads", "2"]) == 0
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert forks == []

    def test_failed_fork_runs_the_rest_here(self, second_fork_fails, tmp_path, capsys):
        # worker 1 forks and runs test2; the fork for test3 fails, so test3
        # runs in this process after test1
        runs = []
        for threads in ("1", "3"):
            runs.append((run_main(capsys, "reproduce", "all", "--out", str(tmp_path),
                                  "--threads", threads), read(tmp_path / "summary.csv")))
        assert runs[0][0][0] == 0 and runs[1] == runs[0]
        assert len(second_fork_fails) == 1


class TestExitCodes:
    """The exit code follows from the exception type alone."""

    def test_negative_lengthscale_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "ou", "kernel_lengthscale": -1.0})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "lengthscale must be positive" in capsys.readouterr().err

    def test_uniform_1d_grid_on_2d_model_exits_2(self, tmp_path, capsys):
        doc = {"model": "linear2d", "grid_spec": {"kind": "uniform_1d", "n": 10}}
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "uniform_1d requires a 1-dimensional domain" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"fk": {"n_paths": 200.0}}, "n_paths must be an integer, got 200.0"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"fk": {"seed": 1.9}}, "seed must be an integer, got 1.9"),
        ({"grid_spec": {"kind": "uniform_1d", "n": 12.7}}, "n must be an integer, got 12.7"),
        ({"gamma": True}, "gamma must be a number, got True"),
        ({"gamma": "1e-4"}, "gamma must be a number, got '1e-4'"),
        ({"gamma": float("nan")}, "gamma must be a number, got nan"),
        ({"fk": {"t_max": float("inf")}}, "t_max must be a number, got inf"),
        ({"model": {"name": "ou", "sigma": "0.5"}}, "sigma must be a number, got '0.5'"),
        ({"model": {"name": "ou", "sigma": None}}, "sigma must be a number, got None"),
        ({"fk": {"antithetic": "no"}}, "antithetic must be a bool, got 'no'"),
        ({"fk": {"dt": "0.1"}}, "dt must be a number, got '0.1'"),
        ({"lambda_select": [1]}, "lambda_select must be a number, got [1]"),
        ({"output_dir": 5}, "output_dir must be a string, got 5"),
        ({"fk": {"seed": 2**64}}, "seed must be a 64-bit unsigned integer"),
    ])
    def test_non_integer_count_or_seed_exits_2(self, tmp_path, capsys, doc, message):
        # every wrong value is rejected at load, also where --seed replaces fk.seed
        cfg = write_config(tmp_path, {"model": "ou", **doc})
        for seed in ([], ["--seed", "3"]):
            assert main(["solve", "--config", cfg, "--out", str(tmp_path), *seed]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["config_is_a_directory", "queries_is_a_directory",
                                      "solve_out_is_a_file", "reproduce_out_is_a_file",
                                      "solution_json_is_a_directory",
                                      "fk_estimates_csv_is_a_directory"])
    def test_os_error_on_a_path_exits_2(self, tmp_path, capsys, case):
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\n")
        taken = tmp_path / "taken"
        taken.write_text("")
        out = str(tmp_path / "out")
        argv, path = {
            "config_is_a_directory": (["solve", "--config", str(tmp_path), "--out", out],
                                      tmp_path),
            "queries_is_a_directory": (["fk", "--config", cfg, "--queries", str(tmp_path),
                                        "--out", out], tmp_path),
            "solve_out_is_a_file": (["solve", "--config", cfg, "--out", str(taken)], taken),
            "reproduce_out_is_a_file": (["reproduce", "test1", "--out", str(taken)], taken),
            # an output file inside --out that cannot be written
            "solution_json_is_a_directory": (["solve", "--config", cfg, "--out", out],
                                             os.path.join(out, "solution.json")),
            "fk_estimates_csv_is_a_directory": (["fk", "--config", cfg, "--queries",
                                                 str(queries), "--out", out],
                                                os.path.join(out, "fk_estimates.csv")),
        }[case]
        if os.path.dirname(path) == out:
            os.makedirs(path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
        assert not list(tmp_path.rglob("*.partial"))

    def test_overflowing_fk_step_count_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "quadratic",
                                      "fk": {"n_paths": 10, "dt": 1e-320}})
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\n")
        assert main(["fk", "--config", cfg, "--queries", str(queries),
                     "--out", str(tmp_path)]) == 2
        assert "finite step count" in capsys.readouterr().err

    def test_fk_step_count_above_cap_exits_2(self, tmp_path, capsys):
        # 5e10 steps per path; the query lies outside the domain, so the run
        # would step no path and write its CSV if the load let the config by
        cfg = write_config(tmp_path, {"model": "quadratic",
                                      "fk": {"n_paths": 10, "dt": 1e-9}})
        queries = tmp_path / "q.csv"
        queries.write_text("5.0\n")
        out = tmp_path / "out"
        assert main(["fk", "--config", cfg, "--queries", str(queries),
                     "--out", str(out)]) == 2
        assert "error: t_max / dt must be at most" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_fit_queries_exit_2(self, tmp_path, capsys, monkeypatch):
        import sdekoopman.feynman_kac as feynman_kac

        must_not_run(monkeypatch, feynman_kac, "fk_batch")  # the fit's grid is checked first
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\n0.5\n")
        out = tmp_path / "fit"
        assert main(["fk", "--config", cfg, "--queries", str(queries), "--fit",
                     "--out", str(out)]) == 2
        assert "coincide" in capsys.readouterr().err
        assert not out.exists()

    def test_complex_spectrum_exits_3(self, tmp_path, capsys):
        # gamma=1 puts the langevin linearization spectrum off the real axis
        cfg = write_config(tmp_path, {"model": {"name": "langevin", "gamma": 1.0}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "complex" in capsys.readouterr().err

    def test_linalg_error_exits_3(self, tmp_path, monkeypatch, capsys):
        import sdekoopman.cli as cli

        def singular(args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "cmd_sweep", singular)
        assert main(["sweep", "--sigmas", "0.3", "--out", str(tmp_path)]) == 3
        assert "Singular matrix" in capsys.readouterr().err

    def test_memory_error_exits_3(self, tmp_path, monkeypatch, capsys):
        # stand-ins raise numpy's error for a run too big for memory (linear2d
        # on a tensor grid with n = 100000), so nothing is allocated
        import sdekoopman.feynman_kac as feynman_kac

        message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(validation, "solve_system", out_of_memory)
        monkeypatch.setattr(feynman_kac, "fk_batch", out_of_memory)
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\n")
        solve, fk = tmp_path / "solve", tmp_path / "fk"
        assert main(["solve", "--config", cfg, "--out", str(solve)]) == 3
        assert capsys.readouterr().err == f"error [solve]: {message}\n"
        assert os.listdir(solve) == []  # no solution.json and no .partial
        assert main(["fk", "--config", cfg, "--queries", str(queries),
                     "--out", str(fk)]) == 3
        assert capsys.readouterr().err == f"error [fk]: {message}\n"
        assert os.listdir(fk) == []


class TestHelp:
    @pytest.mark.parametrize("cmd", ["solve", "fk", "semigroup-curve", "sweep"])
    def test_subcommand_help_lists_config_keys(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key in ("model", "kernel_lengthscale", "grid_spec", "gamma",
                    "lambda_select", "fk", "metrics", "output_dir", "seed"):
            assert key in text

    def test_threads_flag_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        assert "--threads" in capsys.readouterr().out


class TestConfigRoundTrip:
    def test_checked_document_is_the_config(self, tmp_path):
        from sdekoopman.config import load_config
        doc = {"model": {"name": "quadratic", "sigma": 0.4},
               "kernel_lengthscale": 0.9,
               "grid_spec": {"kind": "uniform_1d", "n": 30},
               "gamma": 1e-4, "lambda_select": -1.0,
               "fk": {"n_paths": 100, "dt": 0.02},
               "metrics": ["condition_number"], "output_dir": "out", "seed": 9}
        assert load_config(write_config(tmp_path, doc)) == doc
        assert load_config(write_config(tmp_path, {"model": "ou"})) == {"model": {"name": "ou"}}

    def test_nested_unknown_keys(self):
        from sdekoopman.config import check_config
        from sdekoopman.errors import ConfigError
        with pytest.raises(ConfigError, match="burnin"):
            check_config({"model": "ou", "fk": {"burnin": 5}})
        with pytest.raises(ConfigError, match="shape"):
            check_config({"model": "ou", "grid_spec": {"shape": "x", "n": 3}})
        with pytest.raises(ConfigError, match="mass"):
            check_config({"model": {"name": "langevin", "mass": 2.0}})
