"""Benchmark of the `liedeg scenario` pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; liedeg is imported from its `src/`. One
client drives the pipeline in a closed loop: one process, one thread,
each scenario run starting when the previous one ends. BLAS/OpenMP
threads are pinned to 1 and LIEDEG_THREADS is unset. The seed is passed
as every scenario's --seed, which picks the degree sample points.

--trace 0 prints the end-to-end metrics: wall_s (median iteration time
after one warm-up iteration) and setup_s (median of fresh interpreters,
each timed from its first liedeg import through building config, cocycle
and representations), both in seconds at a fixed reference machine
speed sampled in the process doing the work (speed.py; the raw iteration
times are in the result record); peak_rss_mb (peak memory of this
process after its first iteration; nothing heavier runs before it); and,
in the summary, failed_frac.
--trace 1 prints per-layer metrics from one traced iteration, run after
a warm-up and untraced iterations for --seconds (the last of them is
the base of trace.overhead_frac), plus the kernel microbenchmarks.

Every run checks each scenario's outputs against `reference/`; the last
stdout line is the JSON result, and any mismatch makes the exit code
nonzero. Results, spans and an environment record go to
`perfbench/out/`.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "su2-straighten": ("su2-straighten",),
    "u2-product": ("u2-product",),
    "light-presets": ("anzai-torus", "torus-general", "so3-maximal-torus"),
}
SETUP_REPEATS = 9
# speed-sampling periods (speed.py): iterations last seconds, set-up ~0.2 s
ITERATION_PERIOD_S = 0.05
SETUP_PERIOD_S = 0.01

# prints its set-up seconds at the reference speed
SETUP_CODE = """
import sys
from time import perf_counter
sys.path.insert(0, {src!r})
sys.path.append({here!r})
import speed
with speed.Sampler({period}) as sampler:
    t0 = perf_counter()
    from liedeg import dynamics as D, scenarios as S
    for name in {presets!r}:
        cfg = S.default_config(name, seed={seed})
        flow = (D.default_flow(cfg.d) if cfg.alpha is None
                else D.TranslationFlow(tuple(cfg.alpha)))
        phi, extras = S.build_cocycle(flow, cfg.cocycle)
        reps = [S._rep_from_label(phi.group, label, cfg.d) for label in cfg.reps]
    wall = perf_counter() - t0
print(speed.scaled(wall, sampler.chunks))
"""


def import_liedeg():
    """Import liedeg from this checkout's src/, never from elsewhere."""
    if not (SRC / "liedeg" / "__init__.py").is_file():
        raise SystemExit(f"error: no liedeg sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import liedeg

    if Path(liedeg.__file__).resolve().parent != (SRC / "liedeg").resolve():
        raise SystemExit(f"error: liedeg imported from {liedeg.__file__}, not {SRC}")
    return liedeg


class Pipeline:
    """Runs one workload iteration and checks every scenario's outputs."""

    def __init__(self, workload: str, seed: int):
        from liedeg.cli import main

        import reference

        self.main, self.reference = main, reference
        self.presets = WORKLOADS[workload]
        self.seed = seed
        self.outdir = OUT / "runs" / workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def iterate(self) -> float:
        """Wall seconds of one iteration; outputs are checked afterwards.
        The speed chunks timed during it are left in `self.chunks`."""
        import speed

        errors = {}
        sink = io.StringIO()
        t0 = perf_counter()
        with speed.Sampler(ITERATION_PERIOD_S) as sampler:
            for preset in self.presets:
                argv = ["scenario", preset, "--out", str(self.outdir / preset),
                        "--seed", str(self.seed)]
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = self.main(argv)
                    errors[preset] = code and f"exit code {code}"
                except Exception as exc:  # a crash is a failed run, not a dead benchmark
                    errors[preset] = f"raised {exc!r}"
        wall = perf_counter() - t0
        self.chunks = sampler.chunks
        for preset, error in errors.items():
            self.attempted += 1
            if error:
                bad = [f"{error}; output: {sink.getvalue().strip()[-500:]}"]
            else:
                try:
                    bad = self.reference.check(preset, self.outdir / preset)
                except (OSError, LookupError, ValueError, TypeError) as exc:
                    bad = [f"unreadable outputs: {exc!r}"]
            self.failed += bool(bad)
            self.failures += [f"{preset}: {msg}" for msg in bad]
        return wall

    def stage_seconds(self) -> dict:
        """Degree / spectral seconds of the last iteration, from the sidecars."""
        totals = {"degree": 0.0, "spectral": 0.0}
        for preset in self.presets:
            data = json.loads((self.outdir / preset / "timings.json").read_text())
            for key in totals:
                totals[key] += data["seconds"][key]
        return totals


def measure_setup(presets, seed: int) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters, at the reference
    speed, each timed from before its first liedeg import."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), period=SETUP_PERIOD_S,
                             presets=list(presets), seed=seed)
    return [float(subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                                 capture_output=True, text=True).stdout)
            for _ in range(SETUP_REPEATS)]


def iterate_for(pipeline: Pipeline, seconds: float) -> tuple[list[float], list[float]]:
    """Iterations for `seconds` (at least one): another starts only while
    it is expected, from the last one, to end in time. Returns their wall
    seconds and their seconds at the reference speed."""
    import speed

    walls, scaled = [], []
    t0 = perf_counter()
    while not walls or perf_counter() - t0 + walls[-1] <= seconds:
        walls.append(pipeline.iterate())
        scaled.append(speed.scaled(walls[-1], pipeline.chunks))
    return walls, scaled


def high_percentile(samples: list[float]):
    """Highest percentile p (of 90, 99, 99.9) with >= 10 samples above it,
    as (p, value); None when the sample count allows none."""
    best = None
    for p in (90, 99, 99.9):
        if len(samples) * (1 - p / 100) >= 10:
            value = statistics.quantiles(samples, n=1000)[int(p * 10) - 1]
            best = (p, value)
    return best


def environment() -> dict:
    import numpy as np

    llc = "unknown"
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    with contextlib.suppress(OSError):
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in cache_root.glob("index*")]
        llc = max(levels)[1] if levels else llc
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS + ("LIEDEG_THREADS",)},
        "llc_size": llc,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def trace_run(pipeline: Pipeline, seconds: float, workload: str, seed: int) -> tuple[dict, dict]:
    import kernels
    import layers
    from tracing import Tracer

    pipeline.iterate()  # warm-up
    untraced, _ = iterate_for(pipeline, seconds)
    stages = pipeline.stage_seconds()
    tracer = Tracer()
    with tracer.install():
        traced = pipeline.iterate()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans-{workload}-seed{seed}.npz")
    agg = tracer.aggregate()
    # against the adjacent untraced iteration: the machine's speed drifts
    metrics = layers.per_layer(agg, tracer.counters, stages, untraced[-1], traced)
    micro = kernels.run(seed)
    metrics.update({k: v for k, v in micro.items() if k in layers.KERNEL_METRICS})
    details = {"untraced_wall_s": untraced, "traced_wall_s": traced, "spans": agg,
               "counters": dict(tracer.counters), "kernels": micro}
    return metrics, details


def e2e_run(pipeline: Pipeline, seconds: float, workload: str, seed: int) -> tuple[dict, dict]:
    import speed

    setup = measure_setup(pipeline.presets, seed)
    warm = pipeline.iterate()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw, walls = iterate_for(pipeline, seconds)
    metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
               "peak_rss_mb": rss_mb}
    details = {"wall_samples_s": walls, "raw_wall_samples_s": raw, "warmup_s": warm,
               "setup_samples_s": setup, "wall_high_percentile": high_percentile(walls),
               "reference_chunk_s": speed.REFERENCE_CHUNK_S}
    return metrics, details


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "koopman.point_steps_per_entry": "step/entry"}
SUFFIX_UNITS = (("ns_per_elem", "ns"), ("ns_per_point_step", "ns"), ("s_per_entry", "s"),
                ("_frac", "1"), (".bytes", "B"), (".s", "s"), ("_s", "s"))


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return next((unit for suffix, unit in SUFFIX_UNITS if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240816)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # before numpy is first imported, here and in the set-up subprocesses
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("LIEDEG_THREADS", None)
    import_liedeg()
    pipeline = Pipeline(args.workload, args.seed)
    measure = trace_run if args.trace else e2e_run
    metrics, details = measure(pipeline, args.seconds, args.workload, args.seed)

    failed_frac = pipeline.failed / pipeline.attempted
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "metrics": metrics,
              "attempted": pipeline.attempted, "failed": pipeline.failed,
              "failed_frac": failed_frac, "failures": pipeline.failures, **details}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for msg in pipeline.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  runs {pipeline.attempted}  "
          f"failed_frac {failed_frac:.4g}")
    if not args.trace:
        walls = details["wall_samples_s"]
        high = details["wall_high_percentile"]
        print(f"wall_s median of {len(walls)} iterations: {metrics['wall_s']:.4f} s "
              f"at reference speed ({statistics.median(details['raw_wall_samples_s']):.4f} s "
              "raw); "
              + (f"p{high[0]} {high[1]:.4f} s" if high else
                 "no high percentile (needs >= 10 samples above it)"))
    print(f"details: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not pipeline.failures,
        "attempted": pipeline.attempted,
        "failed": pipeline.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 1 if pipeline.failures else 0


if __name__ == "__main__":
    sys.exit(main())
