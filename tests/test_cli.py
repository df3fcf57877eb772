import json
import os

import numpy as np
import pytest

from sdekoopman.cli import main


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


OU_DOC = {"model": "ou", "seed": 11, "fk": {"n_paths": 500, "t_max": 5.0}}


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

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, OU_DOC)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["solve", "--config", cfg, "--out", out1])
        main(["solve", "--config", cfg, "--out", out2])
        for name in ("solution.json", "report.csv", "eigenfunction_curve.csv"):
            assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))


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

    def test_malformed_line_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\nplaid\n")
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

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\n0.9\n")
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        main(["fk", "--config", cfg, "--queries", str(queries), "--out", out1])
        main(["fk", "--config", cfg, "--queries", str(queries), "--out", out2])
        assert read(os.path.join(out1, "fk_estimates.csv")) == \
            read(os.path.join(out2, "fk_estimates.csv"))


class TestReproduceCommand:
    def test_test1_passes_bands(self, tmp_path, capsys):
        out = str(tmp_path / "rep")
        assert main(["reproduce", "test1", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "all benchmark bands passed" in stdout
        lines = read(os.path.join(out, "summary.csv")).decode().splitlines()
        assert len(lines) == 2  # header + one row

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

    def test_non_quadratic_config_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "ou"})
        assert main(["sweep", "--config", cfg, "--sigmas", "0,0.3"]) == 2
        assert "quadratic" in capsys.readouterr().err


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

    def test_duplicate_fit_queries_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, OU_DOC)
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\n0.5\n")
        assert main(["fk", "--config", cfg, "--queries", str(queries), "--fit",
                     "--out", str(tmp_path)]) == 2
        assert "coincide" in capsys.readouterr().err

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
    def test_lossless(self):
        from sdekoopman.config import RunConfig
        doc = {"model": {"name": "quadratic", "sigma": 0.4},
               "kernel_lengthscale": 0.9,
               "grid_spec": {"kind": "uniform_1d", "n": 30},
               "gamma": 1e-4, "lambda_select": -1.0,
               "fk": {"n_paths": 100, "dt": 0.02},
               "metrics": ["condition_number"], "output_dir": "out", "seed": 9}
        cfg = RunConfig.from_dict(doc)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.to_dict() == doc

    def test_nested_unknown_keys(self):
        from sdekoopman.config import RunConfig
        from sdekoopman.errors import ConfigError
        with pytest.raises(ConfigError, match="burnin"):
            RunConfig.from_dict({"model": "ou", "fk": {"burnin": 5}})
        with pytest.raises(ConfigError, match="shape"):
            RunConfig.from_dict({"model": "ou", "grid_spec": {"shape": "x", "n": 3}})
        with pytest.raises(ConfigError, match="mass"):
            RunConfig.from_dict({"model": {"name": "langevin", "mass": 2.0}})
