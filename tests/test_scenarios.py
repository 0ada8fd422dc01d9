"""Tests for scenario configs, the pipeline runner and report artifacts."""

import dataclasses
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liedeg.degree as DG
import liedeg.dynamics as D
import liedeg.groups as G
import liedeg.koopman as K
import liedeg.reps as R
import liedeg.scenarios as SC
from liedeg.errors import ConfigError
from liedeg.rng import RngHandle
from liedeg.scenarios import (_CONFIG_FIELDS, COCYCLE_BUILDERS,
                              DEGREE_SAMPLE_POINTS, SCENARIO_NAMES, TIMINGS_FILENAME, ScenarioConfig,
                              _degree_stage, _jsonify, _rep_from_label, _slug,
                              build_cocycle, default_config, scenario_run)

import helpers as H

FLOW = D.default_flow(1)


def _run_dir_files(outdir: Path) -> list[str]:
    return sorted(p.name for p in outdir.iterdir()
                  if p.name != TIMINGS_FILENAME)


def _small_anzai(outdir, seed=7) -> ScenarioConfig:
    cfg = default_config("anzai-torus", seed=seed, outdir=str(outdir))
    cfg.reps = [[0], [1], [2]]
    cfg.n_degree = 400
    cfg.n_corr = 12
    cfg.nodes = 16
    return cfg


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_VALID_CONFIG = dict(name="anzai-torus",
                     cocycle={"name": "torus-monomial", "params": {"k": [[1]]}},
                     reps=[[1]])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(SCENARIO_NAMES + tuple(COCYCLE_BUILDERS)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "params", "k"]) | st.text(max_size=4),
                      inner, max_size=3),
    max_leaves=8)

class TestScenarioConfig:
    def test_defaults_exist_for_every_named_scenario(self):
        for name in SCENARIO_NAMES:
            if name == "custom":
                with pytest.raises(ConfigError):
                    default_config(name)
            else:
                cfg = default_config(name)
                assert cfg.name == name
                assert cfg.cocycle["name"] in COCYCLE_BUILDERS

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            default_config("nope")
        with pytest.raises(ConfigError, match="unknown scenario"):
            ScenarioConfig.from_dict({"name": "nope"})

    def test_validation_catches_bad_fields(self):
        for bad in [dict(d=0), dict(alpha=[0.1, 0.2]), dict(reps=[]),
                    dict(n_degree=1), dict(n_corr=3), dict(nodes=2),
                    dict(seed=-1), dict(cocycle={"name": "nope"}),
                    # wrong types, once tracebacks or silently accepted
                    dict(n_degree="10"), dict(n_corr=None), dict(reps=[["a"]]),
                    dict(reps="x"), dict(alpha=5), dict(cocycle={"name": ["x"]}),
                    dict(nodes=3.5), dict(reps=[[]]),
                    dict(cocycle={"name": "torus-monomial", "params": [1]})]:
            data = dict(_VALID_CONFIG)
            data.update(bad)
            with pytest.raises(ConfigError):
                ScenarioConfig.from_dict(data)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(_CONFIG_FIELDS), _JSON_VALUES, max_size=4),
           st.booleans())
    def test_from_dict_validates_or_raises_config_error(self, overrides, on_valid):
        data = dict(_VALID_CONFIG) if on_valid else {}
        data.update(overrides)
        try:
            cfg = ScenarioConfig.from_dict(data)
        except ConfigError:
            return
        json.dumps(cfg.to_dict())

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ScenarioConfig.from_dict({"name": "anzai-torus", "turbo": True})

    def test_echo_omits_outdir(self):
        cfg = default_config("anzai-torus", outdir="/tmp/somewhere")
        echo = cfg.to_dict()
        assert "outdir" not in echo
        assert echo["seed"] == cfg.seed

    def test_from_json_roundtrip(self, tmp_path):
        cfg = default_config("so3-maximal-torus", seed=3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = ScenarioConfig.from_json(path)
        assert loaded.to_dict() == cfg.to_dict()

    def test_from_json_bad_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            ScenarioConfig.from_json(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ScenarioConfig.from_json(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            ScenarioConfig.from_json(arr)


class TestCocycleRegistry:
    def test_every_builder_instantiates(self):
        specs = {
            "torus-monomial": {"k": [[1]]},
            "su2-diagonal": {"k": 1},
            "su2-twisted-diagonal": {"k": 1},
            "su2-two-angle": {"m1": 1, "m2": 2},
            "so3-x3-rotation": {"k": 1},
            "u2-product": {"k_torus": [1], "k_rot": [0]},
            "u2-scalar-su2": {"k_scalar": [2],
                              "inner": {"name": "su2-diagonal",
                                        "params": {"k": 1}}},
            "cohomologous-su2-pair": {"k": 1},
        }
        assert set(specs) == set(COCYCLE_BUILDERS)
        for name, params in specs.items():
            c, extras = build_cocycle(FLOW, {"name": name, "params": params})
            assert c.group.tag in (G.TORUS, G.SU2, G.SO3, G.U2)
            if name == "cohomologous-su2-pair":
                assert set(extras) == {"delta", "zeta"}

    def test_missing_parameter_is_config_error(self):
        with pytest.raises(ConfigError, match="missing parameter"):
            build_cocycle(FLOW, {"name": "su2-diagonal", "params": {}})

    def test_unknown_cocycle_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown cocycle"):
            build_cocycle(FLOW, {"name": "nope"})
        with pytest.raises(ConfigError, match="'inner' cocycle spec"):
            build_cocycle(FLOW, {"name": "u2-scalar-su2",
                                 "params": {"k_scalar": [1], "inner": 3}})

    def test_unknown_parameter_is_config_error(self):
        # a typo used to be dropped, and the cocycle built with theta0 = 0
        with pytest.raises(ConfigError, match="unknown parameter 'theta'; "
                                              "accepted: k, theta0$"):
            build_cocycle(FLOW, {"name": "su2-diagonal",
                                 "params": {"k": 1, "theta": 2.5}})

    @pytest.mark.parametrize("params", [[1], "k", None])
    def test_params_not_a_dict_is_config_error(self, params):
        with pytest.raises(ConfigError, match="params must be a dict"):
            build_cocycle(FLOW, {"name": "su2-diagonal", "params": params})

    @pytest.mark.parametrize("name", sorted(COCYCLE_BUILDERS))
    def test_accepted_keys_are_the_builder_parameters(self, name):
        builder = COCYCLE_BUILDERS[name]
        first, *rest = inspect.signature(builder).parameters
        assert first == "flow"
        with pytest.raises(ConfigError) as err:
            build_cocycle(FLOW, {"name": name, "params": {"no_such_key": 0}})
        assert str(err.value).endswith(f"accepted: {', '.join(rest)}")


class TestRepLabels:
    def test_labels_build_per_group(self):
        assert _rep_from_label(G.GroupSpec(G.TORUS, 2), [1, -1], 2).dim == 1
        assert _rep_from_label(G.SU2_GROUP, [3], 1).dim == 4
        assert _rep_from_label(G.SO3_GROUP, [2], 1).dim == 5
        assert _rep_from_label(G.U2_GROUP, [2, 1], 1).dim == 3

    def test_bad_labels_rejected(self):
        with pytest.raises(ConfigError):
            _rep_from_label(G.GroupSpec(G.TORUS, 2), [1], 2)
        with pytest.raises(ConfigError):
            _rep_from_label(G.SU2_GROUP, [1, 2], 1)
        with pytest.raises(ConfigError):
            _rep_from_label(G.U2_GROUP, [1], 1)
        with pytest.raises(ConfigError):
            _rep_from_label(G.SU2_GROUP, [-1], 1)

    def test_slugs_are_distinct_and_filename_safe(self):
        reps = [R.torus_rep([1]), R.torus_rep([-1]), R.torus_rep([0]),
                R.su2_rep(2), R.so3_rep(2), R.u2_rep(2, 1), R.u2_rep(2, -1)]
        slugs = [_slug(rep) for rep in reps]
        assert len(set(slugs)) == len(slugs)
        for slug in slugs:
            assert all(ch.isalnum() or ch in "-_" for ch in slug)


class TestJsonify:
    def test_numpy_payloads_coerced(self):
        data = {
            "a": np.float64(1.5),
            "b": np.int32(4),
            "c": np.array([1.0, 2.0]),
            "d": complex(1, -2),
            "e": np.bool_(True),
            "f": float("inf"),
        }
        out = _jsonify(data)
        assert out == {"a": 1.5, "b": 4, "c": [1.0, 2.0],
                       "d": {"re": 1.0, "im": -2.0}, "e": True, "f": "inf"}
        json.dumps(out, allow_nan=False)


# ---------------------------------------------------------------------------
# pipeline runs
# ---------------------------------------------------------------------------

class TestScenarioRun:
    def test_outdir_required(self):
        cfg = default_config("anzai-torus")
        with pytest.raises(ConfigError, match="outdir"):
            scenario_run(cfg)

    def test_anzai_small_run_structure(self, tmp_path):
        rr = scenario_run(_small_anzai(tmp_path / "run"))
        rep = rr.report
        assert rep["scenario"] == "anzai-torus"
        assert rep["group"] == "T^1"
        assert "outdir" not in rep["config"]
        assert rr.report_path.exists()
        assert (rr.outdir / TIMINGS_FILENAME).exists()
        # every referenced file exists
        for entry in rep["spectral"]:
            assert (rr.outdir / entry["series_csv"]).exists()
            assert (rr.outdir / entry["series_svg"]).exists()
        assert (rr.outdir / rep["timings_path"]).exists()
        # weight-zero fiber keeps its mass; others decay
        by_label = {e["label"]: e for e in rep["spectral"]}
        assert by_label["torus q=[0]"]["mixing"]["verdict"] == "NO-CLAIM"
        assert by_label["torus q=[0]"]["wiener_tail"] > 0.99
        assert by_label["torus q=[1]"]["mixing"]["verdict"] == "SUPPORTED"
        assert by_label["torus q=[1]"]["ac"]["verdict"] == "AC-PREDICTED"
        assert by_label["torus q=[1]"]["wiener_tail"] < 1e-20
        caveat_text = " ".join(rep["caveats"])
        assert "input assumption" in caveat_text

    def test_timings_sidecar_counts_minor_faults_per_stage(self, tmp_path, monkeypatch):
        stages = {"setup", "degree", "spectral", "total"}
        rr = scenario_run(_small_anzai(tmp_path / "run"))
        sidecar = json.loads((rr.outdir / TIMINGS_FILENAME).read_text())
        assert set(sidecar["seconds"]) == stages
        faults = sidecar["minor_faults"]
        assert set(faults) == stages
        assert all(isinstance(v, int) and v >= 0 for v in faults.values())
        assert faults["total"] >= faults["degree"] + faults["spectral"]
        system = sidecar["system_seconds"]
        assert set(system) == stages
        assert all(isinstance(v, float) and v >= 0.0 for v in system.values())
        # the spans partition the run, up to the rounding of the sums
        parts = system["setup"] + system["degree"] + system["spectral"]
        assert abs(system["total"] - parts) <= 1e-9
        # without the resource module both keys are left out, the walk
        # counts stay, and the report keeps its bytes
        monkeypatch.setitem(sys.modules, "resource", None)
        again = scenario_run(_small_anzai(tmp_path / "again"))
        sidecar = json.loads((again.outdir / TIMINGS_FILENAME).read_text())
        assert set(sidecar) == {"seconds", "walks", "point_steps", "note"}
        assert set(sidecar["seconds"]) == stages
        assert again.report_path.read_bytes() == rr.report_path.read_bytes()

    def test_report_json_parses_from_disk(self, tmp_path):
        rr = scenario_run(_small_anzai(tmp_path / "run"))
        parsed = json.loads(rr.report_path.read_text())
        assert parsed["versions"]["package"]
        assert parsed["degree"]["M_star"]

    def test_alpha_override_changes_flow(self, tmp_path):
        cfg = _small_anzai(tmp_path / "run")
        cfg.alpha = [0.25]
        rr = scenario_run(cfg)
        assert rr.report["flow"] == {"alpha": [0.25], "source": "config"}
        # degree closed form tracks the override: M* = 2 pi i alpha
        m_star = rr.report["degree"]["M_star"][0]
        assert abs(m_star[1] - 2.0 * np.pi * 0.25) < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        run_a = scenario_run(_small_anzai(tmp_path / "a")).outdir
        run_b = scenario_run(_small_anzai(tmp_path / "b")).outdir
        names = _run_dir_files(run_a)
        assert names == _run_dir_files(run_b)
        for name in names:
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes()

    def test_seed_changes_report(self, tmp_path):
        run_a = scenario_run(_small_anzai(tmp_path / "a", seed=1)).outdir
        run_b = scenario_run(_small_anzai(tmp_path / "b", seed=2)).outdir
        assert ((run_a / "report.json").read_bytes()
                != (run_b / "report.json").read_bytes())

    def test_flagged_entries_counts_n_zero(self, tmp_path, monkeypatch):
        real = K.correlation_series

        def flag_n_zero(*args, **kwargs):
            series = real(*args, **kwargs)
            series.flagged = [0]
            return series

        monkeypatch.setattr(K, "correlation_series", flag_n_zero)
        rr = scenario_run(_small_anzai(tmp_path / "run"))
        assert [e["flagged_entries"] for e in rr.report["spectral"]] == [1, 1, 1]

    def test_su2_straighten_trimmed(self, tmp_path):
        cfg = default_config("su2-straighten", outdir=str(tmp_path / "run"))
        cfg.reps = [[1], [2]]
        cfg.n_degree = 2000
        cfg.n_corr = 10
        rr = scenario_run(cfg)
        rep = rr.report
        assert rep["degree"]["verdict"] == "NOT_UNIQUELY_ERGODIC(b)"
        rho = rep["degree"]["diagnostics"]["straighten_rho_estimate"]
        assert abs(rho - 2.0 * np.pi * FLOW.alpha[0]) < 5e-3
        by_label = {e["label"]: e for e in rep["spectral"]}
        l1 = by_label["su2 l=1"]
        assert l1["mixing"]["verdict"] == "SUPPORTED"
        assert all("-conjugated" in p["probe"] for p in l1["mixing"]["probes"])
        assert by_label["su2 l=2"]["mixing"]["kernel_indices"] == [1]

    def test_su2_straighten_field_rides_the_grid_walk(self):
        # the degree field comes from the straightening walk, not its own
        cfg = default_config("su2-straighten")
        flow = D.default_flow(cfg.d)
        phi, extras = build_cocycle(flow, cfg.cocycle)
        field = _degree_stage(cfg, flow, phi, extras, [],
                              D.QuadratureSpec(cfg.nodes))["degree_field"]
        sample = D.BasePoint(RngHandle(cfg.seed, stream=101).generator().random(
            (DEGREE_SAMPLE_POINTS, cfg.d)))
        assert np.array_equal(field.points.phases, sample.phases)
        alone = DG.degree_field(phi, flow, sample, cfg.n_degree)
        assert field.n_used == alone.n_used
        assert field.constant == alone.constant
        assert abs(field.spread - alone.spread) <= 1e-12
        assert np.max(np.abs(field.values.payload - alone.values.payload)) <= 1e-12
        assert np.max(np.abs(field.diagnostics - alone.diagnostics)) <= 1e-12

    def test_su2_straighten_degree_stage_samples_no_part_field(self):
        """Both parts of the preset's pair have constant M-fields, so its
        degree stage reads them off `m_const` and never calls a part's
        `m_field`: the stage with refusing parts is the stage as run."""
        cfg = default_config("su2-straighten")
        flow = D.default_flow(cfg.d)
        phi, extras = build_cocycle(flow, cfg.cocycle)
        reps = [_rep_from_label(phi.group, label, cfg.d) for label in cfg.reps]

        def refuse(phases):
            raise AssertionError("a constant part's M-field was sampled")

        blind = {name: dataclasses.replace(extras[name], m_field=refuse)
                 for name in ("delta", "zeta")}
        assert all(part.m_const is not None for part in blind.values())
        blind_phi = D.cohomologous_build(blind["delta"], blind["zeta"], flow)
        quad = D.QuadratureSpec(cfg.nodes)
        got = _degree_stage(cfg, flow, blind_phi, {**extras, **blind}, reps, quad)
        want = _degree_stage(cfg, flow, phi, extras, reps, quad)
        assert _jsonify(got["report"]) == _jsonify(want["report"])
        assert np.array_equal(got["M_star"].payload, want["M_star"].payload)

    def test_u2_product_kernel_contrast(self, tmp_path):
        cfg = default_config("u2-product", outdir=str(tmp_path / "run"))
        cfg.reps = [[2, 2], [2, 1]]
        cfg.n_degree = 1000
        cfg.n_corr = 8
        rr = scenario_run(cfg)
        by_label = {e["label"]: e for e in rr.report["spectral"]}
        full = by_label["u2 (l,m)=(2,1)"]["mixing"]
        empty = by_label["u2 (l,m)=(2,2)"]["mixing"]
        assert full["kernel_indices"] == [0, 1, 2]
        assert full["verdict"] == "NO-CLAIM"
        assert empty["kernel_indices"] == []
        assert empty["verdict"] == "SUPPORTED"

    def test_each_fiber_split_once(self, tmp_path, monkeypatch):
        # the degree report, the probes and both verdicts read one
        # eigen-split of i dpi(M*) per fiber
        calls = []
        split = DG.kernel_split

        def counted(Dm):
            calls.append(Dm.shape)
            return split(Dm)

        monkeypatch.setattr(DG, "kernel_split", counted)
        cfg = default_config("u2-product", outdir=str(tmp_path / "run"))
        rr = scenario_run(cfg)
        assert len(cfg.reps) == 3
        assert len(calls) == len(cfg.reps)
        for entry, row in zip(rr.report["spectral"], rr.report["degree"]["per_rep"]):
            assert entry["mixing"]["kernel_indices"] == row["kernel_indices"]
            assert entry["ac"]["kernel_indices"] == row["kernel_indices"]
        s_phi = rr.report["degree"]["diagnostics"]["s_phi"]
        assert abs(s_phi - np.pi * FLOW.alpha[0]) < 1e-6

    def test_one_degree_quadrature_per_scenario(self, tmp_path, monkeypatch):
        # M_star on the torus route is the one integral of the M-field, on the
        # quadrature the size check charged: lifted to 2 freq_bound + 2 nodes
        seen = []
        integral = DG.degree_constant_diagonal

        def recorded(c, quad):
            seen.append(quad.nodes_per_dim)
            return integral(c, quad)

        monkeypatch.setattr(DG, "degree_constant_diagonal", recorded)
        cfg = _small_anzai(tmp_path / "run")
        cfg.cocycle = {"name": "torus-monomial", "params": {"k": [[3]]}}
        cfg.nodes = 3
        rr = scenario_run(cfg)
        assert seen == [8]
        # [re, im] of the one torus entry: 2 pi k alpha
        (re, im), = rr.report["degree"]["M_star"]
        assert re == 0.0 and abs(im - 6 * np.pi * FLOW.alpha[0]) < 1e-12

    def test_constant_field_is_not_sampled_by_the_dini_pass(self, tmp_path, monkeypatch):
        # torus-general's M-field is constant: its one Dini pass evaluates
        # the field nowhere, while the degree stage still samples it
        calls = {"dini": 0, "inside": 0, "outside": 0}
        active = []
        build, dini = SC.build_cocycle, K.dini_modulus

        def counting_build(flow, spec):
            phi, extras = build(flow, spec)

            def m_field(phases):
                calls["inside" if active else "outside"] += 1
                return phi.m_field(phases)
            return dataclasses.replace(phi, m_field=m_field), extras

        def counting_dini(*args):
            calls["dini"] += 1
            active.append(True)
            try:
                return dini(*args)
            finally:
                active.pop()

        monkeypatch.setattr(SC, "build_cocycle", counting_build)
        monkeypatch.setattr(K, "dini_modulus", counting_dini)
        scenario_run(default_config("torus-general", outdir=str(tmp_path / "run")))
        assert calls["dini"] == 1
        assert calls["inside"] == 0
        assert calls["outside"] > 0

    def test_certificate_samples_its_own_grid_once(self, tmp_path, monkeypatch):
        # su2-straighten's field varies with x: the stage's one certificate
        # reads it once, on the 13 nodes of the rule exact for f = 3
        calls, active = [], []
        build, certify = SC.build_cocycle, K.dini_modulus

        def counting_build(flow, spec):
            phi, extras = build(flow, spec)

            def m_field(phases):
                if active:
                    calls.append(len(phases))
                return phi.m_field(phases)
            return dataclasses.replace(phi, m_field=m_field), extras

        def counting_certify(c, reps, flow):
            calls.append("certificate")
            active.append(True)
            try:
                return certify(c, reps, flow)
            finally:
                active.pop()

        monkeypatch.setattr(SC, "build_cocycle", counting_build)
        monkeypatch.setattr(K, "dini_modulus", counting_certify)
        scenario_run(default_config("su2-straighten", outdir=str(tmp_path / "run")))
        assert calls == ["certificate", 13]

    def test_each_probe_scope_decided_once(self, tmp_path, monkeypatch):
        # the stage plans every probe's walk and `mixing_verdict` alone
        # decides its scope: twelve conjugated probes, twelve decisions
        calls = []
        real = K.in_scope

        def counted(probe, split, d):
            calls.append(probe.name)
            return real(probe, split, d)

        monkeypatch.setattr(K, "in_scope", counted)
        rr = scenario_run(default_config("su2-straighten", outdir=str(tmp_path / "run")))
        probes = [p["probe"] for e in rr.report["spectral"] for p in e["mixing"]["probes"]]
        assert len(calls) == 12 and calls == probes

    def test_a_small_degree_vanishes_for_both_verdicts(self, tmp_path):
        # ||M*|| = 2 pi 1e-5 is below the one "degree vanishes" threshold:
        # no obstruction to ergodicity, and no AC claim either
        cfg = ScenarioConfig.from_dict(dict(
            name="custom", d=1, alpha=[1e-5], reps=[[1], [2]], seed=5,
            cocycle={"name": "su2-diagonal", "params": {"k": [1]}}, outdir=str(tmp_path)))
        rr = scenario_run(cfg)
        assert rr.report["degree"]["verdict"] == DG.NO_OBSTRUCTION
        for entry in rr.report["spectral"]:
            assert entry["ac"]["verdict"] == K.NO_CLAIM
            assert entry["ac"]["notes"].startswith("degree vanishes")
        # the entrywise norm of rho E3 is sqrt(2) rho
        norm = float(np.linalg.norm(rr.report["degree"]["M_star"])) / np.sqrt(2)
        assert 1e-12 < norm <= DG.DEGREE_NONZERO_THRESHOLD


def _perfbench(name="reference"):
    """perfbench/<name>.py, loaded from its file as the benchmark uses it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_name_it_wraps():
    # the tracer looks each wrapped function up by name: a renamed or
    # removed one fails here, and leaving restores every module attribute
    modules = (D, DG, G, K, R, SC, sys.modules["liedeg.plotting"])
    before = [dict(vars(m)) for m in modules]
    with _perfbench("tracing").Tracer().install():
        assert K.dini_modulus is not before[3]["dini_modulus"]
    assert [dict(vars(m)) for m in modules] == before


def test_benchmark_kernel_cases_run_on_the_package():
    # the kernel microbenchmarks run only under `--trace 1`: each case they
    # time is called once here, on the payloads the package makes now
    cases = list(_perfbench("kernels")._cases(5))
    assert {name.split(".")[2] for name, *_ in cases if name.startswith("kernel.ad.")} == {
        "su2", "so3", "u2"}
    for name, units, fn, _, _ in cases:
        assert units > 0, name
        fn()


# (orbit walks, fibers planned) of the spectral stage in one preset run; the
# fibers are those the stage read before it planned one walk for them all
_STAGE_WALKS = {"anzai-torus": (1, 7), "torus-general": (1, 4), "su2-straighten": (1, 4),
                "so3-maximal-torus": (1, 2), "u2-product": (1, 3)}


@pytest.mark.parametrize("name, seed", [
    pytest.param(name, seed, id=name if seed is None else f"{name}-seed{seed}")
    for seed in (None, 77, 2601) for name in SCENARIO_NAMES if name != "custom"])
def test_preset_matches_benchmark_reference(name, seed, tmp_path):
    """Each preset at its default seed and at seeds 77 and 2601 reproduces
    the benchmark's reference verdicts, kernel indices, flagged N and
    degree floats, takes one spectral walk per batch of its fibers' grids,
    and reports its fibers as row 0."""
    rr = scenario_run(default_config(name, seed=seed, outdir=str(tmp_path)))
    walks = json.loads((tmp_path / TIMINGS_FILENAME).read_text())["walks"]["spectral"]
    assert (walks, len(K._STAGE)) == _STAGE_WALKS[name]
    assert _perfbench().check(name, tmp_path) == []
    assert all(e["mixing"]["j"] == 0 and e["ac"]["j"] == 0 for e in rr.report["spectral"])


@pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "custom"])
def test_preset_declarations_leave_no_fourier_tail(name, tmp_path):
    """The one exact grid trusts each declared degree: every cocycle and
    transfer that a preset's spectral stage reads has a Fourier tail of at
    most 1e-12 above its declared degree in every representation it is read
    in (at most 1.44e-14 measured, su2 l = 4), so no series is flagged."""
    rr = scenario_run(default_config(name, outdir=str(tmp_path)))
    pairs = {(t, key[3], key[1]) for key in K._STAGE for t in (key[0],) + key[4] + key[5]}
    assert max(K.fourier_tail(*pair) for pair in pairs) <= 1e-12
    assert all(entry["flagged_entries"] == 0 for entry in rr.report["spectral"])


def _grid_points(key) -> int:
    """Points of the grid of a `K._fiber` key."""
    return key[-1] ** key[1].dim


@pytest.mark.parametrize("name, grids, batches", [
    # two fibers share the 441-point grid, and all four grids fit one walk
    ("torus-general", [256, 441, 441, 1681], [2378]),
    # conjugated probes on four distinct grids, one walk
    ("su2-straighten", [93, 185, 277, 369], [924]),
    # fibers (2,1) and (0,1) share one 81-point grid
    ("u2-product", [161, 81, 81], [242]),
])
def test_stage_walk_matches_walks_of_each_fiber_alone(name, grids, batches, tmp_path,
                                                      monkeypatch):
    scenario_run(default_config(name, outdir=str(tmp_path)))
    stage = dict(K._STAGE)
    assert [_grid_points(key) for key in stage] == grids
    assert all(bool(key[4]) == (name == "su2-straighten") for key in stage)
    for key, (M, excess) in stage.items():
        alone = {key: None}
        K._walk_means(alone)
        assert np.array_equal(M, alone[key][0]), key[3].name
        assert np.array_equal(excess, alone[key][1]), key[3].name
    # the stage's walks again, counting their points
    sizes, walk = [], D.cocycle_iterate

    def recorded(c, flow, x, n, visit=None, **kwargs):
        sizes.append(len(x.phases))
        return walk(c, flow, x, n, visit, **kwargs)

    monkeypatch.setattr(D, "cocycle_iterate", recorded)
    again = dict.fromkeys(stage)
    K._walk_means(again)
    assert sizes == batches
    assert all(np.array_equal(again[key][0], stage[key][0]) for key in stage)


def test_walk_counts_repeat_and_name_the_stage_walk(tmp_path):
    # u2-product's spectral stage is one walk of its 161 + 81 grid points
    # over N = 0..40; two runs count the same walks in every stage
    counts = []
    for run in ("a", "b"):
        scenario_run(default_config("u2-product", outdir=str(tmp_path / run)))
        sidecar = json.loads((tmp_path / run / TIMINGS_FILENAME).read_text())
        counts.append({key: sidecar[key] for key in ("walks", "point_steps")})
    assert counts[0] == counts[1]
    assert counts[0]["walks"]["spectral"] == 1
    assert counts[0]["point_steps"]["spectral"] == 242 * 41
    assert counts[0]["walks"]["setup"] == 0 and counts[0]["walks"]["degree"] >= 1


@pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "custom"])
def test_parseval_scope_decides_as_the_grid_form(name, tmp_path, monkeypatch):
    # every probe of every preset is in or out of scope under the Parseval
    # mass exactly as under the grid form it replaced
    def statuses(outdir):
        rr = scenario_run(default_config(name, outdir=str(outdir)))
        return [(p["probe"], p["status"]) for e in rr.report["spectral"]
                for p in e["mixing"]["probes"]]

    parseval = statuses(tmp_path / "parseval")
    monkeypatch.setattr(K, "_slot_mass", H.grid_slot_mass)
    assert statuses(tmp_path / "grid") == parseval


@pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "custom"])
def test_certificate_bounds_the_sampled_pass_on_presets(name, tmp_path):
    """On every preset the report's certified sups and modulus integral are
    the stage's certificate, which bounds the sampled modulus at all 17
    shifts of the pass it replaced and both sampled grid sups."""
    cfg = default_config(name, outdir=str(tmp_path))
    flow = D.default_flow(cfg.d)
    phi, _ = build_cocycle(flow, cfg.cocycle)
    reps = [_rep_from_label(phi.group, label, cfg.d) for label in cfg.reps]
    outs = K.dini_modulus(phi, reps, flow)
    entries = scenario_run(cfg).report["spectral"]
    for rep, out, sampled, entry in zip(reps, outs, H.sampled_modulus(phi, reps, flow), entries):
        assert np.all(sampled <= H.modulus_bound(out, H.DINI_SHIFTS) * (1 + 1e-12))
        m_sup, dm_sup = H.grid_sups(rep, phi, flow)
        assert m_sup <= out["m_sup"] and dm_sup <= out["dm_sup"]
        flags = entry["mixing"]["hypotheses"] + entry["ac"]["hypotheses"][1:2]
        assert [(h["status"], h["value"]) for h in flags] == [
            ("pass", out["m_sup"]), ("pass", out["dm_sup"]), ("pass", out["integral"])]


def test_certificate_on_a_four_dimensional_base():
    # an x-dependent field on T^4 is read on the 9^4 grid of its f = 2, not
    # on the 256^4 grid of the sampled pass it replaced
    flow = D.TranslationFlow((0.6180339887498949, 0.41421356237309515,
                              0.7320508075688772, 0.2360679774997898))
    phi, _ = build_cocycle(flow, {"name": "su2-two-angle",
                                  "params": {"m1": [1, 0, 0, 0], "m2": [0, 1, 0, 0]}})
    sizes = []
    field = phi.m_field
    phi = dataclasses.replace(phi, m_field=lambda phases: sizes.append(len(phases)) or field(phases))
    outs = K.dini_modulus(phi, [R.su2_rep(1), R.su2_rep(2)], flow)
    assert sizes == [9 ** 4]
    assert all(np.isfinite(out[key]) and out[key] > 0 for out in outs
               for key in ("m_sup", "dm_sup", "integral"))
