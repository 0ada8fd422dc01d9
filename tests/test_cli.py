"""CLI tests: subcommand behavior and exit-code mapping."""

import json

import pytest

from liedeg import acceptance, cli
from liedeg import dynamics as D
from liedeg import groups as G
from liedeg import koopman as K
from liedeg import reps as R


def _cfg_text(**overrides) -> str:
    data = {
        "name": "anzai-torus",
        "cocycle": {"name": "torus-monomial", "params": {"k": [[1]]}},
        "reps": [[0], [1]],
        "n_degree": 300,
        "n_corr": 8,
        "nodes": 8,
        "seed": 3,
    }
    data.update(overrides)
    return json.dumps(data)


class TestScenarioCommand:
    def test_runs_preset(self, tmp_path, capsys):
        rc = cli.main(["scenario", "anzai-torus", "--out",
                       str(tmp_path / "run"), "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "report:" in out and "ergodicity:" in out
        assert (tmp_path / "run" / "report.json").exists()

    def test_config_file_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(_cfg_text())
        rc = cli.main(["scenario", "anzai-torus", "--config", str(cfg),
                       "--out", str(tmp_path / "run")])
        assert rc == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["config"]["n_corr"] == 8
        capsys.readouterr()

    def test_config_name_mismatch_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(_cfg_text())
        rc = cli.main(["scenario", "u2-product", "--config", str(cfg),
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_outdir_is_config_error(self, capsys):
        rc = cli.main(["scenario", "anzai-torus"])
        assert rc == 2
        assert "output directory" in capsys.readouterr().err

    def test_custom_without_config_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["scenario", "custom", "--out", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()

    def test_unknown_name_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scenario", "nope"])
        assert exc.value.code == 2

    def test_degenerate_degree_is_numeric_guard_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(_cfg_text(
            name="custom",
            cocycle={"name": "cohomologous-su2-pair",
                     "params": {"k": 0, "c0": 0.0}},
            reps=[[1]]))
        rc = cli.main(["scenario", "custom", "--config", str(cfg),
                       "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "numeric guard" in capsys.readouterr().err


    @pytest.mark.parametrize("label", [[10 ** 23], [2 ** 31]])
    def test_oversized_rep_label_is_one_line_config_error(self, label, tmp_path,
                                                          capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(_cfg_text(name="custom", reps=[label]))
        rc = cli.main(["scenario", "custom", "--config", str(cfg),
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert err.count("\n") == 1


class TestDegreeCommand:
    def test_json_to_stdout(self, capsys):
        rc = cli.main(["degree", "--cocycle", "torus-monomial",
                       "--params", '{"k": [[2]]}', "--n", "500",
                       "--points", "3"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["group"] == "T^1"
        assert data["constant"] is True

    def test_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "deg.json"
        rc = cli.main(["degree", "--cocycle", "su2-diagonal",
                       "--params", '{"k": 1}', "--n", "500",
                       "--points", "2", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["group"] == "SU2"
        capsys.readouterr()

    def test_bad_params_json(self, capsys):
        rc = cli.main(["degree", "--cocycle", "torus-monomial",
                       "--params", "{bad"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("cocycle", ["su2-diagonal", "torus-monomial"])
    @pytest.mark.parametrize("k", ["[1e400]", "[[1e400]]", "[[1.5]]", "[1.5]"])
    def test_bad_winding_params(self, cocycle, k, capsys):
        # overflowing or non-integral windings are config errors, never
        # a traceback or a silent truncation
        rc = cli.main(["corr", "--cocycle", cocycle, "--rep", "1",
                       "--n-max", "4", "--params", f'{{"k": {k}}}'])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_unknown_cocycle(self, capsys):
        rc = cli.main(["degree", "--cocycle", "nope"])
        assert rc == 2
        capsys.readouterr()

    def test_alpha_length_mismatch(self, capsys):
        rc = cli.main(["degree", "--cocycle", "torus-monomial",
                       "--params", '{"k": [[1]]}', "--alpha", "0.1,0.2"])
        assert rc == 2
        capsys.readouterr()

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        rc = cli.main(["degree", "--cocycle", "torus-monomial",
                       "--params", '{"k": [[1]]}', "--n", "300",
                       "--points", "2",
                       "--out", str(tmp_path / "absent" / "deg.json")])
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err


class TestCorrCommand:
    def test_csv_and_svg_outputs(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        svg = tmp_path / "series.svg"
        rc = cli.main(["corr", "--cocycle", "torus-monomial",
                       "--params", '{"k": [[1]]}', "--rep", "1",
                       "--n-max", "6", "--nodes", "8",
                       "--out", str(csv), "--svg", str(svg)])
        assert rc == 0
        assert csv.read_text().startswith("N,re,im,abs,err_estimate")
        assert svg.read_text().startswith("<svg")
        capsys.readouterr()

    def test_stdout_csv(self, capsys):
        rc = cli.main(["corr", "--cocycle", "torus-monomial",
                       "--params", '{"k": [[1]]}', "--rep", "1",
                       "--n-max", "4", "--nodes", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "N,re,im,abs,err_estimate"
        assert len(out.splitlines()) == 6

    def test_bad_slot(self, capsys):
        rc = cli.main(["corr", "--cocycle", "torus-monomial",
                       "--params", '{"k": [[1]]}', "--rep", "1",
                       "--slot", "5"])
        assert rc == 2
        capsys.readouterr()

    def test_bad_label(self, capsys):
        rc = cli.main(["corr", "--cocycle", "su2-diagonal",
                       "--params", '{"k": 1}', "--rep", "x"])
        assert rc == 2
        capsys.readouterr()

    def test_oversized_grid_is_refused_before_allocation(self, monkeypatch,
                                                         capsys):
        # N = 1000 at winding 3 and weight 3 needs a 36003^2-node check grid
        real = D.quadrature_points

        def bounded(spec, d):
            assert spec.nodes_per_dim ** d <= 10 ** 6, "oversized grid built"
            return real(spec, d)

        monkeypatch.setattr(D, "quadrature_points", bounded)
        rc = cli.main(["corr", "--cocycle", "torus-monomial",
                       "--params", '{"k": [[3, 0]]}', "--d", "2",
                       "--rep", "3", "--n-max", "1000"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("config error:")

    @pytest.mark.parametrize("flagged", [[0], [0, 2]])
    def test_warning_counts_every_flagged_entry(self, flagged, monkeypatch,
                                                capsys):
        real = K.correlation_series

        def fake(*args, **kwargs):
            series = real(*args, **kwargs)
            series.flagged = list(flagged)
            return series

        monkeypatch.setattr(K, "correlation_series", fake)
        rc = cli.main(["corr", "--cocycle", "torus-monomial",
                       "--params", '{"k": [[1]]}', "--rep", "1",
                       "--n-max", "4", "--nodes", "8"])
        assert rc == 0
        assert (f"warning: {len(flagged)} entries exceed"
                in capsys.readouterr().err)


class TestRepCheckCommand:
    def test_su2_check(self, capsys):
        rc = cli.main(["rep-check", "--group", "su2", "--label", "2",
                       "--samples", "40", "--nodes", "16"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["homomorphism_deviation"] < 1e-10
        assert data["unitarity_deviation"] < 1e-10
        assert data["orthogonality_deviation"] < 1e-8

    def test_torus_check(self, capsys):
        rc = cli.main(["rep-check", "--group", "torus", "--label", "1,-2",
                       "--samples", "30"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dim"] == 1

    def test_unknown_group(self, capsys):
        rc = cli.main(["rep-check", "--group", "nope", "--label", "1"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["--group", "su2", "--label", "1", "--nodes", "1000"],
        ["--group", "u2", "--label", "1,0", "--nodes", "400"],
        ["--group", "torus", "--label", "1,1,1,1", "--nodes", "200"],
        ["--group", "so3", "--label", "12", "--samples", "1000000"],
        ["--group", "su2", "--label", "1", "--samples", "100000000"],
    ])
    def test_oversized_request_refused_before_allocating(self, argv, monkeypatch,
                                                         capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(R, "_quadrature_nodes", refuse)
        monkeypatch.setattr(G, "haar_sample", refuse)
        assert cli.main(["rep-check"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert err.count("\n") == 1


_TORUS_DEGREE = ["degree", "--cocycle", "torus-monomial",
                 "--params", '{"k": [[1]]}']


@pytest.mark.parametrize("argv", [
    _TORUS_DEGREE + ["--points", "0"],
    _TORUS_DEGREE + ["--points", "-1"],
    _TORUS_DEGREE + ["--alpha", "nan"],
    _TORUS_DEGREE + ["--alpha", "inf"],
    ["rep-check", "--group", "su2", "--label", "1", "--samples", "0"],
    ["rep-check", "--group", "su2", "--label", "1", "--samples", "-3"],
    ["rep-check", "--group", "su2", "--label", "1", "--nodes", "-1"],
    ["degree", "--cocycle", "su2-diagonal", "--params", '{"k": "a"}'],
    ["degree", "--cocycle", "cohomologous-su2-pair",
     "--params", '{"k": 1, "c0": "x"}'],
    ["rep-check", "--group", "u2", "--label", "2,4611686018427387904"],
    ["rep-check", "--group", "torus", "--label", "4611686018427387904"],
])
def test_invalid_input_is_one_line_config_error(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert err.count("\n") == 1


class TestSelfTestAndHelp:
    def test_no_command_prints_help(self, capsys):
        rc = cli.main([])
        assert rc == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_self_test_exit_codes(self, monkeypatch, capsys):
        ok = acceptance.CriterionResult(1, "stub", True, "fine", 0.0)
        bad = acceptance.CriterionResult(2, "stub", False, "broken", 0.0)
        monkeypatch.setattr(acceptance, "run_all", lambda verbose: [ok])
        assert cli.main(["--self-test"]) == 0
        monkeypatch.setattr(acceptance, "run_all", lambda verbose: [ok, bad])
        assert cli.main(["--self-test"]) == 1
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "liedeg" in capsys.readouterr().out
