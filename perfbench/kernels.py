"""Kernel microbenchmarks: ns per element at fixed batches, and ns per
point-step of a short Cesaro walk.

Each kernel is called on seeded Haar samples (group elements) and random
algebra elements. The time per call is the median over a few blocks of
repeated calls. `computed_bytes_per_elem` is the payload bytes the call
reads and writes per element, computed from array sizes: it ignores
temporaries and cache misses.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

GROUP_BATCHES = (6, 128, 100_000)
REP_BATCH = 1024
REP_VARIANTS = (("su2", 1), ("su2", 4), ("su2", 8), ("su2", 12), ("so3", 1), ("so3", 4))
DEGREE_BATCHES = (6, 128)
DEGREE_STEPS = 32
BLOCKS = 5
BLOCK_SECONDS = 0.01


def _time_call(fn) -> float:
    """Median seconds per call over BLOCKS blocks of repeated calls."""
    t0 = perf_counter()
    fn()
    reps = max(1, int(BLOCK_SECONDS / max(perf_counter() - t0, 1e-9)))
    per_call = []
    for _ in range(BLOCKS):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((perf_counter() - t0) / reps)
    return statistics.median(per_call)


def _algebra(G, group, n, gen):
    x = gen.standard_normal((n, 3))
    if group.tag == G.SO3:
        return G.AlgebraElement(group, G.so3_alg_from_components(x))
    payload = G.su2_alg_from_components(x)
    if group.tag == G.U2:
        payload = payload + 1j * gen.standard_normal(n)[:, None, None] * np.eye(2)
    return G.AlgebraElement(group, payload)


def _cases(seed: int):
    """(metric name, work units per call, callable, bytes name, bytes per call)."""
    from liedeg import degree as DG
    from liedeg import dynamics as D
    from liedeg import groups as G
    from liedeg import reps as R
    from liedeg import scenarios as S

    gen = np.random.default_rng(seed)
    groups = {"su2": G.SU2_GROUP, "so3": G.SO3_GROUP, "u2": G.U2_GROUP,
              "torus": G.torus_group(1)}
    for tag, group in groups.items():
        for n in GROUP_BATCHES:
            a, b = G.haar_sample(group, n, gen), G.haar_sample(group, n, gen)
            yield (f"kernel.group_mul.{tag}.b{n}.ns_per_elem", n,
                   lambda a=a, b=b: G.group_mul(a, b),
                   f"kernel.group_mul.{tag}", 3 * a.payload.nbytes)
            if tag == "torus":
                continue
            Z = _algebra(G, group, n, gen)
            yield (f"kernel.ad.{tag}.b{n}.ns_per_elem", n, lambda a=a, Z=Z: G.ad(a, Z),
                   f"kernel.ad.{tag}", a.payload.nbytes + 2 * Z.payload.nbytes)
            yield (f"kernel.exp_alg.{tag}.b{n}.ns_per_elem", n, lambda Z=Z: G.exp_alg(Z),
                   f"kernel.exp_alg.{tag}", Z.payload.nbytes + a.payload.nbytes)
    for tag, l in REP_VARIANTS:
        rep = R.su2_rep(l) if tag == "su2" else R.so3_rep(l)
        g = G.haar_sample(groups[tag], REP_BATCH, gen)
        out_bytes = REP_BATCH * rep.dim ** 2 * np.dtype(complex).itemsize
        yield (f"kernel.rep_eval_payload.{tag}-l{l}.ns_per_elem", REP_BATCH,
               lambda rep=rep, p=g.payload: R.rep_eval_payload(rep, p),
               f"kernel.rep_eval_payload.{tag}-l{l}", g.payload.nbytes + out_bytes)
    # one short Cesaro walk of the su2-straighten cocycle: per-call overhead
    # at batch 6, numpy throughput at batch 128
    cfg = S.default_config("su2-straighten")
    flow = D.default_flow(cfg.d)
    phi, _ = S.build_cocycle(flow, cfg.cocycle)
    for n in DEGREE_BATCHES:
        x = D.BasePoint(gen.random((n, cfg.d)))
        yield (f"kernel.degree_pointwise.su2.b{n}.ns_per_point_step", n * DEGREE_STEPS,
               lambda x=x: DG.degree_pointwise(phi, flow, x, DEGREE_STEPS), None, 0)


def run(seed: int) -> dict:
    """ns per element (or point-step) of each kernel, plus computed bytes."""
    out = {}
    for name, units, fn, bytes_name, io_bytes in _cases(seed):
        out[name] = _time_call(fn) / units * 1e9
        if bytes_name:
            out[f"{bytes_name}.computed_bytes_per_elem"] = io_bytes / units
    return out
