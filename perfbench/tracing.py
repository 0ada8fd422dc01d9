"""Spans and work counters for one traced liedeg pipeline run.

The tracer wraps public functions of the liedeg modules by replacing the
module attributes, so calls made from inside the package (which look the
functions up through their module at call time) are seen as well. The
pipeline's top-level cocycle is wrapped through `scenarios.build_cocycle`.

Each call becomes a span: (name, parent, start, end, units), held in
compact arrays in memory and written out once the run ends. `units` is
the work the call did: batch elements for kernels, point-steps for orbit
walks, entries for correlation series, bytes for plots. Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import math
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

GROUP_FUNCS = ("group_mul", "group_inv", "ad", "maybe_renormalize", "renormalize")


def _batch(shape) -> int:
    return math.prod(shape)


def _tag(group) -> str:
    return group.tag.lower()


def _rep_variant(rep) -> str:
    """`su2-l4`, `so3-l2`, `u2-l2` or `torus` for a representation."""
    tag = _tag(rep.group)
    return tag if tag == "torus" else f"{tag}-l{rep.label[0]}"


class Tracer:
    """Span recorder; `install` wraps the liedeg modules while active."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self._stack = [-1]
        self._corr_depth = 0
        self._cocycle_depth = 0
        # work done inside correlation series, and flagged entries
        self.counters: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, base: str, fn, describe=None):
        """Wrap fn so each call records a span named from `describe`.

        describe(args, result) -> (name, units); without it the span is
        called `base` and carries no units.
        """
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            i = len(start)
            self.parent.append(stack[-1])
            self.name_id.append(-1)
            self.units.append(0.0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
                self.name_id[i] = self._intern(base)
            if describe is not None:
                name, units = describe(args, out)
                self.name_id[i] = self._intern(name)
                self.units[i] = units
            return out

        return traced

    # -- per-function descriptions -------------------------------------------

    @staticmethod
    def _group_op(name):
        def describe(args, out):
            return f"groups.{name}.{_tag(out.group)}", _batch(out.batch_shape)
        return describe

    @staticmethod
    def _group_arg(name):
        def describe(args, out):
            return f"groups.{name}.{_tag(args[0].group)}", _batch(args[0].batch_shape)
        return describe

    @staticmethod
    def _rep_eval(args, out):
        return f"reps.rep_eval_payload.{_rep_variant(args[0])}", _batch(out.shape[:-2])

    def _cocycle_iterate(self, args, out):
        x, n = args[2], args[3]
        batch = _batch(x.phases.shape[:-1])
        # a negative n recurses into a positive walk, which counts the steps
        steps = batch * n if n > 0 else 0
        if self._corr_depth:
            self.counters["koopman.point_steps"] += steps
            self.counters["koopman.quadrature_nodes"] += batch
        return "dynamics.cocycle_iterate", steps

    @staticmethod
    def _degree_pointwise(args, out):
        batch = _batch(np.atleast_2d(args[2].phases).shape[:-1])
        return f"degree.degree_pointwise.b{batch}", batch * out.n_used

    def _series(self, args, out):
        self.counters["koopman.flagged_entries"] += len(out.flagged)
        return "koopman.correlation_series", len(out.values)

    @staticmethod
    def _plot(args, out):
        return "plotting.emit_plot", os.path.getsize(args[1])

    @staticmethod
    def _cocycle_field(name):
        def describe(args, out):
            return f"dynamics.{name}", _batch(np.shape(args[0])[:-1])
        return describe

    # -- installation ----------------------------------------------------------

    def _wrap_series(self, fn):
        traced = self.wrap("koopman.correlation_series", fn, self._series)

        def series(*args, **kwargs):
            self._corr_depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._corr_depth -= 1
        return series

    def _wrap_build_cocycle(self, fn):
        """Wrap value / m_field of the top-level cocycle only."""
        def build_cocycle(*args, **kwargs):
            self._cocycle_depth += 1
            try:
                phi, extras = fn(*args, **kwargs)
            finally:
                self._cocycle_depth -= 1
            if self._cocycle_depth:
                return phi, extras
            value = self.wrap("dynamics.value", phi.value, self._cocycle_field("value"))
            m_field = phi.m_field and self.wrap(
                "dynamics.m_field", phi.m_field, self._cocycle_field("m_field"))
            return dataclasses.replace(phi, value=value, m_field=m_field), extras
        return build_cocycle

    @contextmanager
    def install(self):
        """Wrap the liedeg module attributes; restore them on exit."""
        from liedeg import degree, dynamics, groups, koopman, plotting, reps, scenarios

        plan = [(groups, name, self._group_arg(name) if name in (
            "maybe_renormalize", "renormalize") else self._group_op(name))
            for name in GROUP_FUNCS]
        plan += [
            (reps, "rep_eval_payload", self._rep_eval),
            (dynamics, "cocycle_iterate", self._cocycle_iterate),
            (degree, "degree_pointwise", self._degree_pointwise),
            (degree, "degree_field", None),
            (degree, "su2_straighten", None),
            (koopman, "mixing_verdict", None),
            (koopman, "ac_verdict", None),
            (koopman, "dini_modulus", None),
            (plotting, "emit_plot", self._plot),
        ]
        saved = []
        try:
            for module, name, describe in plan:
                fn = getattr(module, name)
                saved.append((module, name, fn))
                base = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
                setattr(module, name, self.wrap(base, fn, describe))
            for module, name, factory in (
                    (koopman, "correlation_series", self._wrap_series),
                    (scenarios, "build_cocycle", self._wrap_build_cocycle)):
                fn = getattr(module, name)
                saved.append((module, name, fn))
                setattr(module, name, factory(fn))
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "units": np.frombuffer(self.units, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def aggregate(self) -> dict:
        """Per span name: calls, units, inclusive seconds and self seconds;
        plus the time covered by top-level spans."""
        a = self.arrays()
        n_names = len(self.names)
        name_id, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_time = dur - child_time
        calls = np.bincount(name_id, minlength=n_names)
        units = np.bincount(name_id, weights=a["units"], minlength=n_names)
        incl = np.bincount(name_id, weights=dur, minlength=n_names)
        excl = np.bincount(name_id, weights=self_time, minlength=n_names)
        per_name = {name: {"calls": int(calls[i]), "units": int(units[i]),
                           "s": float(incl[i]), "self_s": float(excl[i])}
                    for i, name in enumerate(self.names)}
        return {"spans": per_name, "top_level_s": float(dur[~child].sum()),
                "span_count": int(dur.size)}
