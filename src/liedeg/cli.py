"""Command-line entry point.

Subcommands:

* ``liedeg scenario <name> [--config PATH] [--out DIR] [--seed N]`` —
  run a preset (or custom, via --config) pipeline and write its report.
* ``liedeg degree ...`` — estimate the degree of a cocycle at seeded
  sample points and print a JSON summary.
* ``liedeg corr ...`` — correlation series for one fiber probe, as CSV
  (stdout or file) with an optional SVG rendering.
* ``liedeg rep-check ...`` — representation self-tests: homomorphism
  and unitarity on Haar samples plus the orthogonality integral.
* ``liedeg --self-test`` — run the full acceptance suite and exit
  nonzero if any criterion fails.

Exit codes: 0 success; 2 configuration error (including bad CLI
arguments); 3 numeric guard tripped; 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import degree as DG
from . import dynamics as D
from . import groups as G
from . import koopman as K
from . import plotting as P
from . import reps as R
from .errors import ConfigError, NumericGuardError
from .rng import RngHandle
from .scenarios import (SCENARIO_NAMES, ScenarioConfig, _dump_json,
                        _rep_from_label, build_cocycle, default_config,
                        scenario_run)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# shared argument plumbing
# ---------------------------------------------------------------------------

def _parse_alpha(text: str | None):
    if text is None:
        return None
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --alpha value {text!r}") from exc


def _parse_label(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad representation label {text!r}") from exc


def _parse_params(text: str | None) -> dict:
    if not text:
        return {}
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params must be a JSON object: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("--params must be a JSON object")
    return data


def _make_flow(d: int, alpha) -> D.TranslationFlow:
    if alpha is not None:
        if len(alpha) != d:
            raise ConfigError("--alpha length must equal --d")
        return D.TranslationFlow(tuple(alpha))
    return D.default_flow(d)


def _add_cocycle_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cocycle", required=True,
                     help="cocycle constructor name (see scenarios registry)")
    sub.add_argument("--params", default="",
                     help="JSON object of the constructor's keyword arguments")
    sub.add_argument("--d", type=int, default=1, help="base torus dimension")
    sub.add_argument("--alpha", default=None,
                     help="comma-separated flow frequencies (default: "
                          "built-in badly-approximable values)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_scenario(args) -> int:
    if args.config:
        config = ScenarioConfig.from_json(args.config)
        if config.name != args.name:
            raise ConfigError(
                f"config file is for scenario {config.name!r}, "
                f"not {args.name!r}")
    else:
        config = default_config(args.name)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.outdir = args.out
    if not config.outdir:
        raise ConfigError("an output directory is required "
                          "(--out or the config's outdir)")
    rr = scenario_run(config)
    print(f"report: {rr.report_path}")
    print(f"ergodicity: {rr.report['degree']['verdict']}")
    for entry in rr.report["spectral"]:
        print(f"  {entry['label']}: mixing {entry['mixing']['verdict']}, "
              f"spectrum {entry['ac']['verdict']}")
    return EXIT_OK


def _cmd_degree(args) -> int:
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    flow = _make_flow(args.d, _parse_alpha(args.alpha))
    cocycle, _ = build_cocycle(
        flow, {"name": args.cocycle, "params": _parse_params(args.params)})
    # a point's phases, its diagnostic norm and the ~40 M-field payloads
    # that it takes in the walk and the spread's 16-row blocks
    K.check_bytes(f"--points ({args.points} sample points)",
                  args.points * (8 * args.d + 8 + 40 * G.algebra_bytes(cocycle.group)))
    if args.points > DG.SPREAD_MAX_POINTS:
        raise ConfigError(f"--points ({args.points} sample points) is above the cap of "
                          f"{DG.SPREAD_MAX_POINTS}: the spread compares every pair")
    rng = RngHandle(args.seed, stream=11).generator()
    points = D.BasePoint(rng.random((args.points, args.d)))
    field = DG.degree_field(cocycle, flow, points, N=args.n)
    mean = field.mean_value
    out = {
        "group": cocycle.group.name,
        "n_used": field.n_used,
        "points": field.points.phases,
        "norms": field.norms,
        "spread": field.spread,
        "constant": field.constant,
        "diagnostic_max": float(np.max(field.diagnostics)),
        "mean_payload": DG.report_payload(mean),
        "mean_norm": float(G.algebra_norm(mean)),
    }
    text = _dump_json(out)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_corr(args) -> int:
    flow = _make_flow(args.d, _parse_alpha(args.alpha))
    cocycle, _ = build_cocycle(
        flow, {"name": args.cocycle, "params": _parse_params(args.params)})
    rep = _rep_from_label(cocycle.group, _parse_label(args.rep), args.d)
    if not 0 <= args.slot < rep.dim:
        raise ConfigError(f"--slot must lie in [0, {rep.dim})")
    vec = np.zeros(rep.dim, dtype=complex)
    vec[args.slot] = 1.0
    probe = K.constant_fiber(rep, vec, name=f"slot-{args.slot}")
    series = K.correlation_series(probe, probe, cocycle, flow, args.n_max,
                                  D.QuadratureSpec(args.nodes))
    text = series.to_csv_text()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    if args.svg:
        P.emit_plot(series, args.svg, title=f"{rep.name} slot {args.slot}")
        print(f"wrote {args.svg}")
    if series.flagged:
        print(f"warning: {len(series.flagged)} entries exceed the quadrature "
              f"error threshold (column err_estimate)", file=sys.stderr)
    return EXIT_OK


_GROUPS = {"torus": None, "su2": G.SU2_GROUP, "so3": G.SO3_GROUP,
           "u2": G.U2_GROUP}


def _cmd_rep_check(args) -> int:
    if args.group not in _GROUPS:
        raise ConfigError(f"--group must be one of {', '.join(_GROUPS)}")
    label = _parse_label(args.label)
    if args.group == "torus":
        group = G.torus_group(len(label))
    else:
        group = _GROUPS[args.group]
    if args.samples < 1 or args.nodes < 0:
        raise ConfigError("--samples must be >= 1 and --nodes >= 0")
    rep = _rep_from_label(group, label, d=1)
    K.check_bytes("--samples/--nodes (Haar draws or quadrature nodes)", max(
        R.haar_batch_bytes(rep, args.samples), R.quadrature_bytes(group, args.nodes)))
    hom_dev, unit_dev = R.haar_deviations(rep, args.samples,
                                          RngHandle(args.seed, stream=5))
    out = {
        "label": rep.name,
        "dim": rep.dim,
        "samples": args.samples,
        "homomorphism_deviation": hom_dev,
        "unitarity_deviation": unit_dev,
    }
    if args.nodes:
        check = R.peter_weyl_check(rep, args.nodes)
        out["orthogonality_deviation"] = float(check["max_abs_deviation"])
    sys.stdout.write(_dump_json(out))
    return EXIT_OK


def _cmd_self_test(_args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    return EXIT_OK if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a malformed argv as a ConfigError: exit 2 with one line."""

    def error(self, message):
        raise ConfigError(message.replace("\n", r"\n"))  # argv words come raw


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liedeg",
        description="numerical laboratory for degrees of compact-group "
                    "valued cocycles over torus translations")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--self-test", action="store_true",
                        help="run the acceptance suite and exit nonzero "
                             "on any failure")
    sub = parser.add_subparsers(dest="command")

    p_scn = sub.add_parser("scenario", help="run a preset pipeline")
    p_scn.add_argument("name", choices=SCENARIO_NAMES)
    p_scn.add_argument("--config", default=None,
                       help="JSON config file (required for 'custom')")
    p_scn.add_argument("--out", default=None, help="output directory")
    p_scn.add_argument("--seed", type=int, default=None)
    p_scn.set_defaults(func=_cmd_scenario)

    p_deg = sub.add_parser("degree", help="estimate a cocycle degree")
    _add_cocycle_args(p_deg)
    p_deg.add_argument("--n", type=int, default=10000,
                       help="orbit length for the Cesaro average")
    p_deg.add_argument("--points", type=int, default=6,
                       help="number of seeded sample points")
    p_deg.add_argument("--seed", type=int, default=20240816)
    p_deg.add_argument("--out", default=None, help="write JSON here "
                                                   "instead of stdout")
    p_deg.set_defaults(func=_cmd_degree)

    p_corr = sub.add_parser("corr", help="correlation series for a fiber")
    _add_cocycle_args(p_corr)
    p_corr.add_argument("--rep", required=True,
                        help="representation label, comma-separated ints")
    p_corr.add_argument("--slot", type=int, default=0,
                        help="constant probe basis slot")
    p_corr.add_argument("--n-max", type=int, default=50)
    p_corr.add_argument("--nodes", type=int, default=32,
                        help="quadrature floor per dimension")
    p_corr.add_argument("--out", default=None, help="CSV output path "
                                                    "(default stdout)")
    p_corr.add_argument("--svg", default=None, help="also render an SVG")
    p_corr.set_defaults(func=_cmd_corr)

    p_rep = sub.add_parser("rep-check", help="representation self-tests")
    p_rep.add_argument("--group", required=True,
                       help="torus, su2, so3 or u2")
    p_rep.add_argument("--label", required=True,
                       help="representation label, comma-separated ints")
    p_rep.add_argument("--samples", type=int, default=100,
                       help="Haar sample pairs for hom/unitarity checks")
    p_rep.add_argument("--nodes", type=int, default=0,
                       help="if positive, also run the orthogonality "
                            "integral at this many nodes per angle")
    p_rep.add_argument("--seed", type=int, default=20240816)
    p_rep.set_defaults(func=_cmd_rep_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.self_test:
            return _cmd_self_test(args)
        if not getattr(args, "command", None):
            parser.print_help()
            return EXIT_CONFIG
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericGuardError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
