"""Preset experiments: degree, verdicts, correlation series, JSON report.

A scenario bundles a base translation flow, a cocycle, a family of
representations and numeric budgets, then runs the full pipeline:

1. degree estimation (closed form where the fiber group is a torus,
   pointwise Cesaro averages otherwise, plus diagonalizing conjugation
   for SU(2) cocycles built from a known cohomology),
2. the ergodicity-obstruction verdict,
3. per-representation mixing and absolute-continuity verdicts,
4. a correlation series per representation, written as CSV and SVG,
5. a JSON report tying everything together.

Reports are byte-reproducible for a fixed config and seed: JSON is
dumped with sorted keys and repr floats, series files list plain Python
floats, and per-stage wall-clock times and minor page faults live in a
sidecar file (`timings.json`) excluded from any reproducibility
comparison.  The report's `caveats` list states the standing assumptions
that are inputs rather than verified facts (irrationality of the base
frequencies, unique ergodicity of the base flow).
"""

from __future__ import annotations

import inspect
import json
import platform
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import degree as DG
from . import dynamics as D
from . import groups as G
from . import koopman as K
from . import plotting as P
from . import reps as R
from .errors import ConfigError
from .rng import RngHandle

SCENARIO_NAMES = ("anzai-torus", "torus-general", "su2-straighten",
                  "so3-maximal-torus", "u2-product", "custom")

DEGREE_SAMPLE_POINTS = 6

REPORT_FILENAME = "report.json"
TIMINGS_FILENAME = "timings.json"

CAVEATS = (
    "unique ergodicity of the base translation flow and irrationality of "
    "its frequencies are input assumptions, not facts verified here",
    "verdicts check observable consequences at finite resolution; they "
    "are consistency reports, never proofs",
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = ("name", "d", "alpha", "cocycle", "reps", "n_degree",
                  "n_corr", "nodes", "seed", "outdir")


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass
class ScenarioConfig:
    """Complete description of one pipeline run.

    `reps` holds JSON-friendly labels: a winding vector per torus
    representation, `[l]` for SU(2)/SO(3), `[l, m]` for U(2).  `alpha`
    overrides the default flow frequencies when set (length must match
    `d`).  `outdir` is where report and series files land; it is
    excluded from the config echo so reports stay byte-identical across
    output locations.
    """

    name: str
    d: int = 1
    alpha: list | None = None
    cocycle: dict = field(default_factory=dict)
    reps: list = field(default_factory=list)
    n_degree: int = 10000
    n_corr: int = 50
    nodes: int = 32
    seed: int = 20240816
    outdir: str | None = None

    def validate(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario {self.name!r}; expected one "
                              f"of {', '.join(SCENARIO_NAMES)}")
        if not _is_int(self.d) or self.d < 1:
            raise ConfigError("d must be a positive integer")
        if self.alpha is not None:
            if not isinstance(self.alpha, (list, tuple)) or not all(
                    (_is_int(a) or isinstance(a, float)) and abs(a) < 1e300
                    for a in self.alpha):
                raise ConfigError("alpha must be a list of finite numbers")
            if len(self.alpha) != self.d:
                raise ConfigError("alpha length must equal d")
            self.alpha = [float(a) for a in self.alpha]
        if not isinstance(self.cocycle, dict) or not isinstance(
                self.cocycle.get("name"), str):
            raise ConfigError("cocycle must be a dict with a 'name' string")
        if self.cocycle["name"] not in COCYCLE_BUILDERS:
            raise ConfigError(
                f"unknown cocycle {self.cocycle['name']!r}; expected one of "
                f"{', '.join(sorted(COCYCLE_BUILDERS))}")
        if not isinstance(self.cocycle.get("params", {}), dict):
            raise ConfigError("cocycle params must be a dict")
        if not isinstance(self.reps, (list, tuple)) or not self.reps:
            raise ConfigError("at least one representation label is required")
        labels = [list(label) if isinstance(label, (list, tuple)) else [label]
                  for label in self.reps]
        if not all(label and all(_is_int(v) for v in label) for label in labels):
            raise ConfigError("each representation label must be an integer "
                              "or a nonempty list of integers")
        self.reps = [[int(v) for v in label] for label in labels]
        for key, least in (("n_degree", 2), ("n_corr", 4), ("nodes", 3)):
            if not _is_int(getattr(self, key)) or getattr(self, key) < least:
                raise ConfigError(f"{key} must be an integer of at least {least}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be an integer in [0, 2^64)")
        if self.outdir is not None and not isinstance(self.outdir, (str, Path)):
            raise ConfigError("outdir must be a path string")

    def to_dict(self) -> dict:
        """Config echo for the report; deliberately omits `outdir`."""
        return {
            "name": self.name,
            "d": self.d,
            "alpha": None if self.alpha is None else list(self.alpha),
            "cocycle": {"name": self.cocycle["name"],
                        "params": dict(self.cocycle.get("params", {}))},
            "reps": [list(label) for label in self.reps],
            "n_degree": self.n_degree,
            "n_corr": self.n_corr,
            "nodes": self.nodes,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        unknown = set(data) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "name" not in data:
            raise ConfigError("config requires a 'name' field")
        cfg = ScenarioConfig(**data)
        cfg.validate()
        return cfg

    @staticmethod
    def from_json(path: str | Path) -> "ScenarioConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: "
                              f"{exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return ScenarioConfig.from_dict(data)


# ---------------------------------------------------------------------------
# cocycle registry
# ---------------------------------------------------------------------------

def _u2_scalar_su2(flow, k_scalar, inner):
    if not isinstance(inner, dict):
        raise ConfigError("u2-scalar-su2 needs an 'inner' cocycle spec")
    return D.u2_scalar_su2(flow, k_scalar, build_cocycle(flow, inner)[0])


def _cohomologous_pair(flow, k, theta0=0.0, zeta_k=1, c0=0.7):
    """SU(2) cocycle manufactured cohomologous to a diagonal model.

    Returns the twisted cocycle phi = zeta^{-1} delta (zeta o F_1) and
    exposes the ingredients as extras so downstream stages can build
    conjugated probes and cross-checks.
    """
    delta = D.su2_diagonal(flow, k, theta0)
    zeta = D.su2_twisted_diagonal(flow, zeta_k, c0)
    return D.cohomologous_build(delta, zeta, flow), {"delta": delta, "zeta": zeta}


# name -> callable(flow, **params); a tuple result carries extras
COCYCLE_BUILDERS = {
    "torus-monomial": D.torus_monomial,
    "su2-diagonal": D.su2_diagonal,
    "su2-twisted-diagonal": D.su2_twisted_diagonal,
    "su2-two-angle": D.su2_two_angle,
    "so3-x3-rotation": D.so3_x3_rotation,
    "u2-product": D.u2_product,
    "u2-scalar-su2": _u2_scalar_su2,
    "cohomologous-su2-pair": _cohomologous_pair,
}


def build_cocycle(flow: D.TranslationFlow, spec: dict):
    """Instantiate a cocycle from a JSON-friendly spec {"name", "params"}.

    `params` are the keyword arguments after `flow` of the registered
    builder (a `dynamics` constructor or one of the two composites above),
    whose defaults fill omitted keys.  A missing required key, an unknown
    key or a `params` that is not a dict is a ConfigError raised before
    anything is built.  Returns (cocycle, extras); extras carries the
    auxiliary cocycles of a known construction (the conjugation that
    manufactured a cohomologous pair).
    """
    name = spec.get("name")
    if not isinstance(name, str) or name not in COCYCLE_BUILDERS:
        raise ConfigError(f"unknown cocycle {name!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"cocycle {name!r} params must be a dict")
    accepted = list(inspect.signature(COCYCLE_BUILDERS[name]).parameters.values())[1:]
    names = [p.name for p in accepted]
    for key in params:
        if key not in names:
            raise ConfigError(f"cocycle {name!r} has unknown parameter {key!r}; "
                              f"accepted: {', '.join(names)}")
    for p in accepted:
        if p.default is p.empty and p.name not in params:
            raise ConfigError(f"cocycle {name!r} is missing parameter {p.name!r}")
    try:
        out = COCYCLE_BUILDERS[name](flow, **params)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"cocycle {name!r} has a bad parameter: {exc}") from exc
    return out if isinstance(out, tuple) else (out, {})


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "anzai-torus": dict(
        d=1,
        cocycle={"name": "torus-monomial", "params": {"k": [[1]]}},
        reps=[[-3], [-2], [-1], [0], [1], [2], [3]],
        n_degree=10000, n_corr=50, nodes=32),
    "torus-general": dict(
        d=2,
        cocycle={"name": "torus-monomial", "params": {"k": [[1, 0], [1, 1]]}},
        reps=[[0, 0], [1, 0], [0, 1], [1, -1]],
        n_degree=4000, n_corr=20, nodes=16),
    "su2-straighten": dict(
        d=1,
        cocycle={"name": "cohomologous-su2-pair", "params": {"k": 1, "c0": 0.7}},
        reps=[[1], [2], [3], [4]],
        n_degree=10000, n_corr=30, nodes=32),
    "so3-maximal-torus": dict(
        d=1,
        cocycle={"name": "so3-x3-rotation", "params": {"k": 1}},
        reps=[[1], [2]],
        n_degree=10000, n_corr=40, nodes=32),
    "u2-product": dict(
        d=1,
        cocycle={"name": "u2-product",
                 "params": {"k_torus": [1], "k_rot": [0], "theta0": 0.7}},
        reps=[[2, 2], [2, 1], [0, 1]],
        n_degree=10000, n_corr=40, nodes=32),
}


def default_config(name: str, seed: int | None = None,
                   outdir: str | None = None) -> ScenarioConfig:
    """Built-in config for a named scenario (not available for 'custom').

    The u2-product preset keeps to single-valued fibers: labels (l, m)
    with l even, where the product cocycle's sign ambiguity cancels.
    Odd-l fibers of a half-winding rotation factor have no continuous
    lift, so their correlation integrands are discontinuous and the
    error bounds would flag every N >= 1 by construction; study those
    through the library API where the flags stay visible.
    """
    if name == "custom":
        raise ConfigError("the 'custom' scenario requires an explicit "
                          "config file")
    if name not in _DEFAULTS:
        raise ConfigError(f"unknown scenario {name!r}; expected one of "
                          f"{', '.join(SCENARIO_NAMES)}")
    cfg = ScenarioConfig(name=name, **_DEFAULTS[name])
    if seed is not None:
        cfg.seed = int(seed)
    if outdir is not None:
        cfg.outdir = str(outdir)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# representation labels
# ---------------------------------------------------------------------------

def _rep_from_label(group: G.GroupSpec, label, d: int) -> R.Representation:
    # d is unused (the group carries the torus dimension); it stays for the
    # three-argument calls, perfbench/run.py's set-up among them
    return R.Representation(group, np.atleast_1d(label))


def _slug(rep: R.Representation) -> str:
    def num(v):
        return str(int(v)).replace("-", "n")

    if rep.group.tag == G.TORUS:
        return "torus-q" + "_".join(num(v) for v in rep.label)
    if rep.group.tag == G.U2:
        l, m = rep.label
        return f"u2-l{num(l)}-m{num(m)}"
    return f"{rep.group.tag.lower()}-l{num(rep.label[0])}"


# ---------------------------------------------------------------------------
# JSON sanitation
# ---------------------------------------------------------------------------

def _jsonify(value):
    """Recursively coerce numpy payloads into deterministic JSON values."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, np.generic):
        return _jsonify(value.item())
    if isinstance(value, complex):
        return {"re": _jsonify(value.real), "im": _jsonify(value.imag)}
    if isinstance(value, float):
        return value if np.isfinite(value) else repr(value)
    return value


def _dump_json(data: dict) -> str:
    return json.dumps(_jsonify(data), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def _degree_stage(config: ScenarioConfig, flow: D.TranslationFlow,
                  phi: D.Cocycle, extras: dict, reps, quad: D.QuadratureSpec) -> dict:
    """Estimate the degree, pick a constant representative, build the
    ergodicity verdict and the degree section of the report; `quad` is
    the M-field's quadrature, exact for a torus field.

    Returns a dict with keys report / M_star / degree_field (None when
    the closed form made sampling unnecessary) / splits (the one
    `kernel_split` of i dpi(M_star) per rep that every verdict reads).
    """
    group = phi.group
    rng = RngHandle(config.seed, stream=101).generator()
    sample = D.BasePoint(rng.random((DEGREE_SAMPLE_POINTS, config.d)))
    diagnostics: dict = {}
    deg_field = None
    integral_M = DG.degree_constant_diagonal(phi, quad)

    if group.tag == G.TORUS:
        # the exact quadrature of the (trigonometric polynomial) M-field
        M_star = integral_M
        constant_form = "diagonal-route"
        spot = DG.degree_field(phi, flow, sample,
                               N=min(config.n_degree, 4000))
        dev = G.AlgebraElement(
            group, spot.values.payload - M_star.payload)
        diagnostics["spot_check_max_deviation"] = float(
            np.max(G.algebra_norm(dev)))
        diagnostics["spot_check_n"] = spot.n_used
    else:
        straight = None
        if group.tag == G.SU2 and "zeta" in extras:
            # the sample points ride along in the straightening grid's walk
            grid = D.BasePoint(D.quadrature_points(D.QuadratureSpec(64), config.d))
            straight = DG.su2_straighten(phi, flow, config.n_degree, grid,
                                         field_points=sample)
        deg_field = straight["degree_field"] if straight else DG.degree_field(
            phi, flow, sample, N=config.n_degree)
        constant_form = "pointwise-cesaro"
        diagnostics["field_spread"] = float(deg_field.spread)
        diagnostics["field_constant"] = bool(deg_field.constant)
        diagnostics["field_diagnostic_max"] = float(
            np.max(deg_field.diagnostics))
        if straight is not None:
            rho_hat = straight["rho_estimate"]
            M_star = G.AlgebraElement(G.SU2_GROUP, rho_hat * G.E3)
            for key in ("rho_estimate", "max_off_diagonal",
                        "min_diagonal_magnitude", "cesaro_diagnostic",
                        "conditioning_ratio"):
                diagnostics[f"straighten_{key}"] = float(straight[key])
        else:
            M_star = deg_field.mean_value
        if group.tag == G.U2:
            diagnostics["s_phi"] = float(
                np.imag(np.trace(M_star.payload)) / 2.0)

    verdict = DG.ergodicity_verdict(group, integral_M, not DG.degree_vanishes(M_star))
    splits = [DG.kernel_split(R.multiplication_matrix(rep, M_star)) for rep in reps]
    report = DG.degree_report(group, M_star, reps, splits, verdict,
                              n_used=config.n_degree,
                              constant_form=constant_form,
                              diagnostics=diagnostics)
    return {"report": report, "M_star": M_star, "degree_field": deg_field,
            "splits": splits}


def _series_probe(rep: R.Representation, probes: list, d: int) -> K.FiberVector:
    """Probe whose correlation series goes to disk for this fiber.

    First mixing probe when one exists; otherwise a fiber that shows
    the non-decaying part honestly: a winding probe for the torus
    weight-zero fiber, a constant basis probe elsewhere.
    """
    if probes:
        return probes[0]
    if rep.group.tag == G.TORUS and not np.any(np.atleast_1d(rep.label)):
        winding = [[1] + [0] * (d - 1)]
        return K.monomial_fiber(rep, winding, name="base-eigenfunction")
    vec = np.zeros(rep.dim, dtype=complex)
    vec[0] = 1.0
    return K.constant_fiber(rep, vec, name="kernel-witness")


def _spectral_stage(config: ScenarioConfig, flow: D.TranslationFlow,
                    phi: D.Cocycle, extras: dict, reps, stage: dict,
                    outdir: Path) -> tuple[list, dict]:
    """Mixing + absolute-continuity verdicts and series files per rep."""
    quad = D.QuadratureSpec(config.nodes)
    zeta = extras.get("zeta")
    entries, series_paths = [], {}
    # one certificate of the M-field's regularity serves every representation
    bounds = K.dini_modulus(phi, reps, flow)
    fibers = []
    for rep, split in zip(reps, stage["splits"]):
        probes = K.default_probes(rep, split)
        if zeta is not None:
            probes = [replace(K.conjugate_vector(pr, zeta), name=f"{pr.name}-conjugated")
                      for pr in probes]
        fibers.append((probes, _series_probe(rep, probes, flow.dim)))
    # one walk for every series the stage reads: each fiber's series probe
    # and its probes, whose scope `mixing_verdict` alone decides
    K.plan_series([(pr, pr) for probes, probe in fibers for pr in [probe, *probes]],
                  phi, flow, config.n_corr, quad)
    for rep, bound, split, (probes, probe) in zip(reps, bounds, stage["splits"], fibers):
        mixing, walked = K.mixing_verdict(rep, phi, flow, split, config.n_corr, quad,
                                          probes, bound)
        ac = K.ac_verdict(rep, stage["degree_field"], stage["M_star"], split[2], bound)
        series = (walked[0] if walked and walked[0] is not None else
                  K.correlation_series(probe, probe, phi, flow, config.n_corr, quad))
        slug = _slug(rep)
        csv_name, svg_name = f"series-{slug}.csv", f"series-{slug}.svg"
        (outdir / csv_name).write_text(series.to_csv_text())
        P.emit_plot(series, outdir / svg_name, title=f"{config.name}: {rep.name}")
        wiener = K.wiener_average(series)
        entries.append({
            "label": rep.name,
            "slug": slug,
            "mixing": mixing,
            "ac": ac,
            "series_probe": probe.name,
            "series_csv": csv_name,
            "series_svg": svg_name,
            "wiener_tail": float(wiener[-1]) if wiener.size else None,
            "flagged_entries": len(series.flagged),
        })
        series_paths[slug] = {"csv": csv_name, "svg": svg_name}
    return entries, series_paths


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunReport:
    """Handle on a finished scenario run."""

    outdir: Path
    report_path: Path
    report: dict


def _clock() -> dict:
    """Wall seconds, the orbit walks and point-steps of `D.WALKS` and,
    where the resource module exists, minor page faults and system
    (kernel) seconds."""
    counts = {"seconds": time.perf_counter(), **D.WALKS}
    try:
        import resource
    except ImportError:  # not on every platform: the sidecar omits both
        return counts
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {**counts, "minor_faults": usage.ru_minflt, "system_seconds": usage.ru_stime}


def scenario_run(config: ScenarioConfig) -> RunReport:
    """Execute a scenario and write report, series and timing files."""
    config.validate()
    if not config.outdir:
        raise ConfigError("config.outdir must be set to run a scenario")

    clock = [_clock()]
    if config.alpha is not None:
        flow = D.TranslationFlow(tuple(config.alpha))
    else:
        flow = D.default_flow(config.d)
    phi, extras = build_cocycle(flow, config.cocycle)
    reps = [_rep_from_label(phi.group, label, config.d)
            for label in config.reps]
    # the degree stage's quadrature, its rule exact for a torus field too;
    # a point is charged its phases and one M-field payload
    quad = D.QuadratureSpec(max(config.nodes, 2 * phi.freq_bound + 2))
    nodes = quad.nodes_per_dim
    K.check_bytes(f"nodes ({nodes}^{config.d} degree quadrature points)",
                  nodes ** config.d * (8 * config.d + G.algebra_bytes(phi.group)))
    # only a config that built is given a directory
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    clock.append(_clock())
    stage = _degree_stage(config, flow, phi, extras, reps, quad)
    clock.append(_clock())
    entries, series_paths = _spectral_stage(config, flow, phi, extras,
                                            reps, stage, outdir)
    clock.append(_clock())
    spans = {"setup": (0, 1), "degree": (1, 2), "spectral": (2, 3), "total": (0, 3)}
    sidecar = {key: {k: clock[b][key] - clock[a][key] for k, (a, b) in spans.items()}
               for key in clock[0]}

    report = {
        "scenario": config.name,
        "config": config.to_dict(),
        "flow": {"alpha": [float(a) for a in flow.alpha],
                 "source": "config" if config.alpha is not None
                 else "built-in defaults"},
        "group": phi.group.name,
        "degree": stage["report"],
        "spectral": entries,
        "series": series_paths,
        "timings_path": TIMINGS_FILENAME,
        "caveats": list(CAVEATS),
        "versions": {"package": __version__,
                     "numpy": np.__version__,
                     "python": platform.python_version()},
    }
    report_path = outdir / REPORT_FILENAME
    report_path.write_text(_dump_json(report))
    (outdir / TIMINGS_FILENAME).write_text(_dump_json(
        {**sidecar, "note": "machine-dependent; excluded from reproducibility comparisons"}))
    return RunReport(outdir=outdir, report_path=report_path, report=report)
