"""Tests of the benchmark itself: python3 -m pytest perfbench

They run the light presets in-process (about a minute in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def liedeg_from_checkout():
    run.import_liedeg()


def traced_counts(seed: int) -> dict:
    pipeline = run.Pipeline("light-presets", seed)
    tracer = Tracer()
    with tracer.install():
        wall = pipeline.iterate()
    assert pipeline.failures == []
    metrics = layers.per_layer(tracer.aggregate(), tracer.counters,
                               pipeline.stage_seconds(), wall, wall)
    return {k: v for k, v in metrics.items() if run.unit_of(k) == "count"}


def test_work_counters_repeat_between_traced_runs():
    first, second = traced_counts(7), traced_counts(7)
    assert first == second
    assert first["dynamics.cocycle_iterate.point_steps"] > 0
    assert first["koopman.quadrature_nodes"] > 0


def test_per_layer_names_match_benchmark_json():
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    empty = layers.per_layer({"spans": {}, "top_level_s": 1.0}, {},
                             {"degree": 1.0, "spectral": 1.0}, 1.0, 1.0)
    assert sorted(names) == sorted([*empty, *layers.KERNEL_METRICS])
    assert all(m["unit"] == run.unit_of(m["name"]) for m in BENCHMARK["per_layer"])


def test_tracer_restores_modules():
    from liedeg import groups, koopman, scenarios

    before = (groups.ad, koopman.correlation_series, scenarios.build_cocycle)
    with Tracer().install():
        assert groups.ad is not before[0]
    assert (groups.ad, koopman.correlation_series, scenarios.build_cocycle) == before


def test_speed_scaling():
    # 1 s of work plus 100 chunks that ran at half the reference speed
    chunks = [2 * speed.REFERENCE_CHUNK_S] * 100
    assert speed.scaled(1.0 + sum(chunks), chunks) == pytest.approx(0.5)


def test_sampler_times_chunks_and_restores_the_alarm_handler():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(0.01) as sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            pass
    assert len(sampler.chunks) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tampered_reference_fails_the_run(tmp_path, monkeypatch, capsys):
    tampered = tmp_path / "reference"
    shutil.copytree(reference.REFERENCE_DIR, tampered)
    path = tampered / "so3-maximal-torus.json"
    data = json.loads(path.read_text())
    assert data["fibers"][0]["mixing"] == "SUPPORTED"
    data["fibers"][0]["mixing"] = "VIOLATED"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(reference, "REFERENCE_DIR", tampered)
    for var in run.THREAD_VARS:  # main pins these; restore them afterwards
        monkeypatch.setenv(var, "1")
    monkeypatch.delenv("LIEDEG_THREADS", raising=False)

    code = run.main(["--workload", "light-presets", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 3  # one preset of three, every iteration


def test_degree_floats_are_compared_with_tolerance():
    ref = json.loads((reference.REFERENCE_DIR / "su2-straighten.json").read_text())
    near = dict(ref, rho_estimate=ref["rho_estimate"] + 1e-12)
    far = dict(ref, rho_estimate=ref["rho_estimate"] + 1e-6)
    assert reference.compare(ref, near) == []
    assert reference.compare(ref, far) != []


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                           "u2-product", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
