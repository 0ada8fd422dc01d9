"""CLI tests: subcommand behavior and exit-code mapping."""

import json
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liedeg import acceptance, cli, scenarios
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

    def test_unknown_name_rejected_by_parser(self, capsys):
        assert cli.main(["scenario", "nope"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_unknown_cocycle_parameter_is_config_error(self, tmp_path, capsys):
        # the misspelled theta0 used to run with theta0 = 0 and echo the typo
        cfg = tmp_path / "cfg.json"
        cfg.write_text(_cfg_text(
            name="custom", reps=[[1]],
            cocycle={"name": "su2-diagonal", "params": {"k": 1, "theta": 2.5}}))
        rc = cli.main(["scenario", "custom", "--config", str(cfg),
                       "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and "unknown parameter 'theta'" in err[0]
        assert not (tmp_path / "run" / "report.json").exists()

    @pytest.mark.parametrize("params, reps", [
        ({"k": 1, "theta": 2.5}, [[1]]),
        ({"k": 1}, [[-1]]),
    ], ids=["unknown-param", "bad-rep-label"])
    def test_refused_config_leaves_no_directory(self, tmp_path, capsys, params, reps):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(_cfg_text(name="custom", reps=reps,
                                 cocycle={"name": "su2-diagonal", "params": params}))
        rc = cli.main(["scenario", "custom", "--config", str(cfg),
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run").exists()

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


    @pytest.mark.parametrize("d,k,reps,slug", [
        (1, [[1], [2]], [[0, 0], [1, 0]], "torus-q0_0"),
        (2, [[1, 1]], [[0], [1]], "torus-q0")])
    def test_group_and_base_dimensions_may_differ(self, d, k, reps, slug, tmp_path,
                                                  capsys):
        # the base eigenfunction's winding has the base dimension d, not
        # the torus group's, and the zero-weight fiber keeps |c_N| = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(_cfg_text(name="custom", d=d, reps=reps, n_degree=200,
                                 n_corr=6, cocycle={"name": "torus-monomial",
                                                    "params": {"k": k}}))
        rc = cli.main(["scenario", "custom", "--config", str(cfg),
                       "--out", str(tmp_path / "run")])
        capsys.readouterr()
        assert rc == 0
        rows = (tmp_path / "run" / f"series-{slug}.csv").read_text().split()[1:]
        assert len(rows) == 7
        assert all(abs(float(row.split(",")[3]) - 1.0) < 1e-12 for row in rows)

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

    def test_so3_mean_payload_is_the_3x3_form(self, capsys):
        # so(3) leaves as its real skew-symmetric 3x3: the x3-rotation's
        # degree 2 pi alpha J3 sits at (0, 1)
        rc = cli.main(["degree", "--cocycle", "so3-x3-rotation", "--params", '{"k": 1}',
                       "--n", "200", "--points", "3"])
        assert rc == 0
        mean = np.array(json.loads(capsys.readouterr().out)["mean_payload"])
        assert mean.shape == (3, 3)
        assert abs(mean[0, 1] - 2 * np.pi * D.default_flow(1).alpha[0]) < 1e-12

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
        # N = 1000 at winding 3 and weight 3 needs a 36002^2-node check grid
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

    @pytest.mark.parametrize("nodes, rc", [(20, 0), (21, 2)])
    def test_check_grid_refusal_boundary(self, nodes, rc, monkeypatch, capsys):
        # a 40^2-node check grid fits a cap of exactly its bytes; at one
        # node more (42^2) the request is refused before any grid exists,
        # whether built as a quadrature grid or coarse-first
        monkeypatch.setattr(K, "MAX_GRID_BYTES", 40 ** 2 * 16)
        built = []
        real, real_coarse_first = D.quadrature_points, D.coarse_first_points

        def recorded(spec, d):
            built.append(spec.nodes_per_dim)
            return real(spec, d)

        def recorded_coarse_first(nodes, d, start, stop):
            built.append(2 * nodes)
            return real_coarse_first(nodes, d, start, stop)

        monkeypatch.setattr(D, "quadrature_points", recorded)
        monkeypatch.setattr(D, "coarse_first_points", recorded_coarse_first)
        assert cli.main(["corr", "--cocycle", "torus-monomial",
                         "--params", '{"k": [[1, 0]]}', "--d", "2",
                         "--rep", "1", "--n-max", "4",
                         "--nodes", str(nodes)]) == rc
        err = capsys.readouterr().err.splitlines()
        if rc:
            assert built == []
            assert len(err) == 1 and err[0].startswith("config error:")
            assert "42^2-node check grid" in err[0]
        else:
            assert built == [40] and err == []

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
    _TORUS_DEGREE + ["--alpha", "0"],
    _TORUS_DEGREE + ["--alpha", "-1"],
    ["degree", "--cocycle", "torus-monomial", "--params", '{"k": [[1, 0]]}',
     "--d", "2", "--alpha", "0.3,2"],
    ["corr", "--cocycle", "torus-monomial", "--params", '{"k": [[1]]}',
     "--rep", "1", "--n-max", "4", "--nodes", "8", "--alpha", "1"],
    ["rep-check", "--group", "su2", "--label", "1", "--samples", "0"],
    ["rep-check", "--group", "su2", "--label", "1", "--samples", "-3"],
    ["rep-check", "--group", "su2", "--label", "1", "--nodes", "-1"],
    ["degree", "--cocycle", "su2-diagonal", "--params", '{"k": "a"}'],
    ["degree", "--cocycle", "su2-diagonal", "--params", '{"k": 1, "theta": 2.5}'],
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


# argv fuzz: a small valid argv per subcommand, then one known flag with a
# malformed value or one unknown flag; the program refuses every draw, so
# none of them runs a computation
_FUZZ_BASE = {
    "scenario": ["scenario", "anzai-torus"],
    "degree": _TORUS_DEGREE + ["--n", "50", "--points", "2"],
    "corr": ["corr", "--cocycle", "torus-monomial", "--params", '{"k": [[1]]}',
             "--rep", "1", "--n-max", "4", "--nodes", "8"],
    "rep-check": ["rep-check", "--group", "su2", "--label", "1", "--samples", "5"],
}
_WORD = st.text(string.ascii_letters + ".;[]{}", min_size=1, max_size=8)
_NON_NUMERIC = st.one_of(_WORD, st.floats().map(repr))


def _int_flag(lo, refused_from=None):
    """Values an integer flag refuses: not an int, empty, below lo, or
    from `refused_from` up (its size check refuses those before running)."""
    cases = [_NON_NUMERIC, st.just(""), st.integers(max_value=lo - 1).map(str)]
    if refused_from is not None:
        cases.append(st.integers(refused_from, refused_from * 2 ** 16).map(str))
    return st.one_of(cases)


_BAD_ALPHA = st.one_of(
    _WORD, st.just(""), st.sampled_from(["nan", "inf", "-inf"]),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
             max_size=3).map(lambda a: ",".join(map(repr, a))))
_COCYCLE_FLAGS = {
    "--cocycle": st.one_of(st.just(""), _WORD.filter(
        lambda w: w not in scenarios.COCYCLE_BUILDERS)),
    # not JSON, empty, or a key outside torus_monomial(flow, k, theta0)
    "--params": st.one_of(_WORD, st.just(""), st.dictionaries(
        _WORD.filter(lambda w: w not in ("k", "theta0")), st.integers(),
        min_size=1, max_size=2).map(lambda extra: json.dumps({"k": [[1]], **extra}))),
    "--alpha": _BAD_ALPHA,
    "--d": _int_flag(1, 3),
}
_SEED = _int_flag(0, 2 ** 64)
_FUZZ_FLAGS = {
    "scenario": {"--seed": _SEED},
    # 2^19 torus sample points are charged 2^19 * 656 bytes, above the 2^28 cap
    "degree": {"--n": _int_flag(1), "--points": _int_flag(1, 2 ** 19), "--seed": _SEED,
               **_COCYCLE_FLAGS},
    "corr": {"--n-max": _int_flag(1, 2 ** 23), "--nodes": _int_flag(1, 2 ** 24),
             "--slot": _int_flag(0, 1), "--rep": st.one_of(_NON_NUMERIC, st.just("")),
             **_COCYCLE_FLAGS},
    "rep-check": {"--samples": _int_flag(1, 2 ** 21), "--nodes": _int_flag(0, 2 ** 10),
                  "--seed": _SEED, "--label": st.one_of(_NON_NUMERIC, st.just("")),
                  "--group": st.one_of(st.just(""), _WORD.filter(
                      lambda w: w not in ("torus", "su2", "so3", "u2")))},
}
_KNOWN_OPTIONS = ("-h", "--help", "--version", "--self-test", "--config", "--out",
                  "--seed", "--cocycle", "--params", "--d", "--alpha", "--n",
                  "--points", "--rep", "--slot", "--n-max", "--nodes", "--svg",
                  "--group", "--label", "--samples")
# argparse takes any prefix of an option as that option
_UNKNOWN_FLAG = st.from_regex(r"--[a-z][a-z-]{0,7}", fullmatch=True).filter(
    lambda f: not any(o.startswith(f) for o in _KNOWN_OPTIONS))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_argv_is_one_line_config_error(data, tmp_path, capsys):
    command = data.draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    flags = _FUZZ_FLAGS[command]
    flag = data.draw(st.sampled_from(sorted(flags) + ["unknown"]))
    if flag == "unknown":
        flag = data.draw(_UNKNOWN_FLAG)
        value = data.draw(st.text(string.ascii_letters + string.digits + " \n"))
    else:
        value = data.draw(flags[flag])
    out = tmp_path / "never-written"
    argv = _FUZZ_BASE[command] + (["--out", str(out)] if command == "scenario" else [])
    argv += [flag, value]
    assert cli.main(argv) == 2, argv
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), (argv, err)
    assert not out.exists()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=_int_flag(3, 2 ** 24))
def test_malformed_config_nodes_is_one_line_config_error(value, tmp_path, capsys):
    # the config field `nodes` takes the flag draws: an integer below 3 or
    # from the size cap up (2^24 degree quadrature points of a torus field
    # need 2^24 * 24 bytes), anything else as a JSON string
    try:
        nodes = int(value)
    except ValueError:
        nodes = value
    cfg, out = tmp_path / "cfg.json", tmp_path / "never-written"
    cfg.write_text(_cfg_text(nodes=nodes))
    assert cli.main(["scenario", "anzai-torus", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), (value, err)
    assert not out.exists()


def _refuse(*args, **kwargs):
    raise AssertionError("allocated before the size check")


@pytest.mark.parametrize("overrides, refusal", [
    # each point is charged its phases and one M-field payload (16 bytes on
    # the one-row torus, 64 on SU(2)); at d = 2 and 2000 nodes SU(2) needs
    # 64 MB of points and 256 MB of M-field, and one 32-byte group payload
    # per point would pass at 192 MB
    (dict(nodes=2 ** 24), "nodes (16777216^1 degree quadrature points) needs 402653184"),
    (dict(d=2, alpha=[0.3, 0.7], nodes=40000,
          cocycle={"name": "torus-monomial", "params": {"k": [[1, 0]]}}, reps=[[1]]),
     "nodes (40000^2 degree quadrature points) needs 51200000000"),
    (dict(nodes=10 ** 8, cocycle={"name": "su2-diagonal", "params": {"k": [1]}}, reps=[[1]]),
     "nodes (100000000^1 degree quadrature points) needs 7200000000"),
    (dict(d=2, alpha=[0.3, 0.7], nodes=2000,
          cocycle={"name": "su2-diagonal", "params": {"k": [1, 0]}}, reps=[[1]]),
     "nodes (2000^2 degree quadrature points) needs 320000000"),
], ids=["torus-d1", "torus-d2", "su2", "su2-d2"])
def test_oversized_config_nodes_refused_before_allocating(overrides, refusal, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.setattr(D, "quadrature_points", _refuse)
    cfg, out = tmp_path / "cfg.json", tmp_path / "never-written"
    cfg.write_text(_cfg_text(name="custom", **overrides))
    assert cli.main(["scenario", "custom", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: {refusal} bytes, above the cap of {K.MAX_GRID_BYTES}"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # 10^7 torus points pass a charge of one payload per point, then ask
    # for 2.4 GiB in the pairwise spread
    _TORUS_DEGREE + ["--points", "10000000"],
    ["degree", "--cocycle", "su2-diagonal", "--params", '{"k": 1}', "--points", "200000"],
])
def test_oversized_points_refused_before_allocating(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "RngHandle", _refuse)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --points (")
    assert err[0].endswith(f"bytes, above the cap of {K.MAX_GRID_BYTES}")


@pytest.mark.parametrize("cocycle, params", [
    ("torus-monomial", '{"k": [[1]]}'), ("su2-diagonal", '{"k": 1}'),
    ("so3-x3-rotation", '{"k": 1}'), ("u2-product", '{"k_torus": 1, "k_rot": 1}')])
def test_points_charge_covers_the_peak_per_point(cocycle, params, monkeypatch, tmp_path,
                                                 capsys):
    # the tracemalloc peak of `degree --points` grows per added point by at
    # most the size check's charge per point (d = 1, N = 50); the pairwise
    # spread is quadratic in the points, so the growth is read between
    # 1,000 and 4,000 of them
    charges, check = [], K.check_bytes

    def recording(field, need):
        charges.append(need)
        return check(field, need)

    monkeypatch.setattr(K, "check_bytes", recording)

    def peak(points):
        tracemalloc.start()
        try:
            assert cli.main(["degree", "--cocycle", cocycle, "--params", params, "--n", "50",
                             "--points", str(points), "--out", str(tmp_path / "deg.json")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # one-time allocations stay out of the measured runs
    low, high = peak(1000), peak(4000)
    assert (high - low) / 3000 <= charges[-1] / 4000
    capsys.readouterr()


class TestSelfTestAndHelp:
    def test_no_command_prints_help(self, capsys):
        rc = cli.main([])
        assert rc == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_self_test_exit_codes(self, monkeypatch, capsys):
        ok = acceptance.CriterionResult(1, "stub", True, "fine", 0.0)
        bad = acceptance.CriterionResult(2, "stub", False, "broken", 0.0)
        monkeypatch.setattr(acceptance, "run_all", lambda: [ok])
        assert cli.main(["--self-test"]) == 0
        monkeypatch.setattr(acceptance, "run_all", lambda: [ok, bad])
        assert cli.main(["--self-test"]) == 1
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "liedeg" in capsys.readouterr().out
