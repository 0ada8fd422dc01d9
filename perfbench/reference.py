"""Reference check of a finished `liedeg scenario` run.

`extract` reduces a run's output directory to the results a performance
change must not alter: the ergodicity verdict, the mixing and AC verdict
strings and kernel indices per fiber, the flagged N of each series file,
and the degree floats. `compare` checks them against the reference file
of the preset in `reference/`, generated once with

    python3 perfbench/reference.py <checkout>/src <preset>...

It refuses to overwrite an existing reference: a change that means to
alter results explains itself in its own change instead.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Absolute tolerances of the degree floats. Torus degrees are closed forms,
# SU(2) straightening samples a fixed grid, and the SO(3)/U(2) fields in
# the presets are constant to ~1e-13 at every sample point, so seed-chosen
# points move these values by round-off only; 1e-8 leaves room for
# reassociated arithmetic while catching any change of the estimator.
FLOAT_TOLERANCES = {"M_star": 1e-8, "rho_estimate": 1e-8}


def flagged_n(csv_path: Path, threshold: float) -> list[int]:
    """N whose err_estimate exceeds the threshold, read from a series CSV.

    Read from the file rather than the report's `flagged_entries` count,
    which drops a flagged N = 0."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return [int(row["N"]) for row in csv.DictReader(fh)
                if float(row["err_estimate"]) > threshold]


def _flat(value) -> list[float]:
    if isinstance(value, list):
        return [v for item in value for v in _flat(item)]
    return [float(value)]


def extract(outdir: Path) -> dict:
    from liedeg.koopman import ERR_FLAG_THRESHOLD

    report = json.loads((outdir / "report.json").read_text())
    degree = report["degree"]
    kernels = {entry["label"]: entry["kernel_indices"] for entry in degree["per_rep"]}
    fibers = [{
        "label": entry["label"],
        "mixing": entry["mixing"]["verdict"],
        "ac": entry["ac"]["verdict"],
        "kernel_indices": {"degree": kernels[entry["label"]],
                           "mixing": entry["mixing"]["kernel_indices"],
                           "ac": entry["ac"]["kernel_indices"]},
        "flagged_n": flagged_n(outdir / entry["series_csv"], ERR_FLAG_THRESHOLD),
    } for entry in report["spectral"]]
    rho = degree["diagnostics"].get("straighten_rho_estimate")
    return {
        "scenario": report["scenario"],
        "verdict": degree["verdict"],
        "fibers": fibers,
        "M_star": _flat(degree["M_star"]),
        "rho_estimate": rho,
    }


def compare(ref: dict, got: dict) -> list[str]:
    """Mismatches between a reference and an extracted run; empty if none."""
    bad = []
    for key in ("scenario", "verdict", "fibers"):
        if ref[key] != got[key]:
            bad.append(f"{key}: expected {ref[key]!r}, got {got[key]!r}")
    for key, tol in FLOAT_TOLERANCES.items():
        want, have = ref[key], got[key]
        if want is None or have is None:
            if want is not have:
                bad.append(f"{key}: expected {want!r}, got {have!r}")
            continue
        want, have = _flat(want), _flat(have)
        if len(want) != len(have) or any(
                not math.isfinite(h) or abs(w - h) > tol for w, h in zip(want, have)):
            bad.append(f"{key}: expected {want} within {tol:g}, got {have}")
    return bad


def check(preset: str, outdir: Path) -> list[str]:
    ref = json.loads((REFERENCE_DIR / f"{preset}.json").read_text())
    return compare(ref, extract(outdir))


def _generate(src: str, presets: list[str]) -> None:
    sys.path.insert(0, src)
    from liedeg.cli import main

    REFERENCE_DIR.mkdir(exist_ok=True)
    for preset in presets:
        path = REFERENCE_DIR / f"{preset}.json"
        if path.exists():
            raise SystemExit(f"{path} exists; references are never regenerated")
        outdir = REFERENCE_DIR.parent / "out" / "reference" / preset
        if main(["scenario", preset, "--out", str(outdir)]) != 0:
            raise SystemExit(f"{preset} failed")
        data = extract(outdir)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    _generate(sys.argv[1], sys.argv[2:])
