"""Per-layer metrics from one traced iteration.

Names follow `<module>.<function>[.<variant>].<measure>`. Counts (calls,
elems, point_steps, entries, nodes, bytes) are exact and repeat between
traced runs with the same seed. A time is either `self_s` (span minus
child spans) or inclusive (`.s`, `ns_per_point_step`, `s_per_entry`).

The list is the same on every workload. A variant that only some
workloads run (a group tag, a representation, a batch) is reported by
its counts, which read 0 where it does not run; its times stay in the
result file's span table. Timed metrics are kept to spans that every
workload runs, so none of them is 0 by construction.
"""

from __future__ import annotations

ALL_TAGS = ("torus", "su2", "so3", "u2")
GROUP_VARIANTS = {"group_mul": ALL_TAGS, "group_inv": ("su2",), "ad": ALL_TAGS,
                  "maybe_renormalize": ALL_TAGS}
REP_VARIANTS = ("torus", "so3-l1", "so3-l2", "su2-l1", "su2-l2", "su2-l3", "su2-l4",
                "u2-l0", "u2-l2")

# kernels.py measures more; these are the variants the workloads run
KERNEL_METRICS = tuple(
    [f"kernel.{op}.{tag}.b{b}.ns_per_elem" for op, tags in (
        ("group_mul", ALL_TAGS), ("ad", ALL_TAGS[1:]), ("exp_alg", ALL_TAGS[1:]))
     for tag in tags for b in (6, 128)]
    + [f"kernel.rep_eval_payload.{v}.ns_per_elem"
       for v in ("su2-l1", "su2-l4", "su2-l8", "su2-l12", "so3-l1", "so3-l4")]
    + [f"kernel.degree_pointwise.su2.b{b}.ns_per_point_step" for b in (6, 128)])


def _sum(spans: dict, prefix: str, field: str) -> float:
    """Total of a field over the spans named `prefix` or `prefix.<variant>`."""
    return sum(v[field] for k, v in spans.items()
               if k == prefix or k.startswith(prefix + "."))


def _ns(seconds: float, units: float) -> float:
    return seconds / units * 1e9 if units else 0.0


def per_layer(agg: dict, counters: dict, stages: dict, untraced_s: float,
              traced_s: float) -> dict:
    spans = agg["spans"]
    out = {}

    def counts(prefix, elems="elems"):
        out[f"{prefix}.calls"] = _sum(spans, prefix, "calls")
        out[f"{prefix}.{elems}"] = _sum(spans, prefix, "units")

    def timed(prefix, per="ns_per_elem"):
        self_s, units = _sum(spans, prefix, "self_s"), _sum(spans, prefix, "units")
        out[f"{prefix}.self_s"] = self_s
        out[f"{prefix}.{per}"] = _ns(self_s, units)

    for fn, tags in GROUP_VARIANTS.items():
        for tag in tags:
            counts(f"groups.{fn}.{tag}")
    for fn in ("group_mul", "ad", "maybe_renormalize"):
        timed(f"groups.{fn}")
    out["groups.renormalize.calls"] = _sum(spans, "groups.renormalize", "calls")

    for variant in REP_VARIANTS:
        counts(f"reps.rep_eval_payload.{variant}")
    timed("reps.rep_eval_payload")

    walk = "dynamics.cocycle_iterate"
    counts(walk, "point_steps")
    out[f"{walk}.self_s"] = _sum(spans, walk, "self_s")
    out[f"{walk}.ns_per_point_step"] = _ns(_sum(spans, walk, "s"), _sum(spans, walk, "units"))
    for field in ("value", "m_field"):
        counts(f"dynamics.{field}")
        timed(f"dynamics.{field}")

    deg = "degree.degree_pointwise"
    out[f"{deg}.point_steps"] = _sum(spans, deg, "units")
    out[f"{deg}.self_s"] = _sum(spans, deg, "self_s")
    out[f"{deg}.ns_per_point_step"] = _ns(_sum(spans, deg, "s"), _sum(spans, deg, "units"))
    out[f"{deg}.b6.point_steps"] = _sum(spans, f"{deg}.b6", "units")
    out[f"{deg}.b6.ns_per_point_step"] = _ns(_sum(spans, f"{deg}.b6", "s"),
                                             _sum(spans, f"{deg}.b6", "units"))
    out[f"{deg}.b128.point_steps"] = _sum(spans, f"{deg}.b128", "units")
    out["degree.degree_field.s"] = _sum(spans, "degree.degree_field", "s")

    series = "koopman.correlation_series"
    entries = _sum(spans, series, "units")
    out[f"{series}.calls"] = _sum(spans, series, "calls")
    out[f"{series}.entries"] = entries
    out[f"{series}.s"] = _sum(spans, series, "s")
    out[f"{series}.s_per_entry"] = out[f"{series}.s"] / entries if entries else 0.0
    out["koopman.quadrature_nodes"] = counters.get("koopman.quadrature_nodes", 0)
    out["koopman.point_steps_per_entry"] = (
        counters.get("koopman.point_steps", 0) / entries if entries else 0.0)
    out["koopman.flagged_entries"] = counters.get("koopman.flagged_entries", 0)
    for fn in ("mixing_verdict", "ac_verdict", "dini_modulus"):
        out[f"koopman.{fn}.s"] = _sum(spans, f"koopman.{fn}", "s")

    out["scenarios.degree_stage_s"] = stages["degree"]
    out["scenarios.spectral_stage_s"] = stages["spectral"]

    plot = "plotting.emit_plot"
    out[f"{plot}.calls"] = _sum(spans, plot, "calls")
    out[f"{plot}.self_s"] = _sum(spans, plot, "self_s")
    out[f"{plot}.bytes"] = _sum(spans, plot, "units")

    out["trace.overhead_frac"] = traced_s / untraced_s - 1
    out["trace.coverage_frac"] = agg["top_level_s"] / traced_s
    return out
