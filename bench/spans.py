"""In-memory span tracing of the et6 layers, installed from outside the package.

A traced worker replaces the public functions of each layer (and a few
private solver stages) by wrappers that record a span: name, start, end and
the index of the enclosing span.  The package itself is not changed: every
``et6`` module that holds a reference to a wrapped function gets the wrapper
in its place, so calls across modules (``eigen`` calling
``closure.entropy_parts``) are seen too.  Hot helpers that would drown the
trace in spans (``solver.primitive_fields``, scipy's ``quad`` inside the
oracle) are only counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

# Functions that get a span named "<layer>.<function>", the layer being the
# module.  Every function one layer calls in another is listed, so that a
# layer's self time holds only its own work.
SPANNED = {
    "cli": ("main",),
    "config": ("load_config", "apply_updates"),
    "gas": ("primitive_from_conserved", "conserved_from_primitive"),
    "closure": ("multipliers_from_state", "state_from_multipliers", "entropy_parts",
                "main_field", "closed_fluxes", "distribution_value",
                "equilibrium_distribution_value"),
    "oracle": ("oracle_constraint_check", "oracle_flux_check", "oracle_entropy",
               "mep_optimality_probe"),
    "eigen": ("wave_fan", "convexity_check"),
    "solver": ("run_scenario", "max_wave_speed", "hyperbolic_step", "relaxation_step_exact",
               "_record_diag", "_record_snapshot", "ns_limit_diagnostic"),
}

# spans whose durations make up each per-step solver stage
SOLVER_STAGES = {
    "cfl": ("solver.max_wave_speed",),
    "transport": ("solver.hyperbolic_step",),
    "relax": ("solver.relaxation_step_exact",),
    "diag": ("solver._record_diag", "solver._record_snapshot"),
}
ORACLE_STATE_SPANS = ("oracle.oracle_constraint_check", "oracle.oracle_flux_check",
                      "oracle.oracle_entropy")


class Tracer:
    """Spans kept in parallel lists; written out once the job has ended."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attrs: dict[int, dict] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, fn, name: str, inspect=None):
        """Wrap fn so each call records a span; inspect(result) adds attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if inspect is not None:
                self.attrs[idx] = inspect(result)
            return result

        return wrapper

    def counter(self, fn, name: str):
        """Wrap fn so each call only bumps a counter."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: Path):
        path.write_text(json.dumps({
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [[n, p, s, e] for n, p, s, e in
                      zip(self.names, self.parents, self.starts, self.ends)],
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "counts": dict(self.counts),
        }, separators=(",", ":")), encoding="utf-8")


def _run_attrs(ts) -> dict:
    return {"cells": int(len(ts.x)), "steps": int(len(ts.diag_t) - 1),
            "projections": int(ts.projections[-1]),
            "limiter_fraction": float(ts.limiter_fraction)}


def _replace_everywhere(original, wrapper):
    """Point every et6 module's reference to original at wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "et6" or mod_name.startswith("et6.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    """Wrap the layer functions of the already imported et6 package."""
    for layer, names in SPANNED.items():
        mod = sys.modules[f"et6.{layer}"]
        for name in names:
            original = getattr(mod, name)
            inspect = _run_attrs if (layer, name) == ("solver", "run_scenario") else None
            _replace_everywhere(original, tracer.span(original, f"{layer}.{name}", inspect))
    solver = sys.modules["et6.solver"]
    _replace_everywhere(solver.primitive_fields,
                        tracer.counter(solver.primitive_fields, "solver.primitive_fields"))
    oracle = sys.modules["et6.oracle"]
    integrate = oracle.integrate
    oracle.integrate = types.SimpleNamespace(
        quad=tracer.counter(integrate.quad, "oracle.quad"))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced job (see README for their meaning)."""
    names, parents = tracer.names, tracer.parents
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child_time = [0.0] * len(names)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += dur[idx]
    self_by_layer: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for idx, name in enumerate(names):
        self_by_layer[name.split(".", 1)[0]] += dur[idx] - child_time[idx]
        total[name] += dur[idx]
        calls[name] += 1

    def per_call(name: str, scale: float) -> float:
        return total[name] / calls[name] * scale if calls[name] else 0.0

    convexity_evals = sum(
        1 for idx, name in enumerate(names)
        if name == "closure.entropy_parts" and parents[idx] >= 0
        and names[parents[idx]] == "eigen.convexity_check")
    runs = [tracer.attrs[idx] for idx, name in enumerate(names) if name == "solver.run_scenario"]
    steps = sum(r["steps"] for r in runs)
    cell_steps = sum(r["cells"] * r["steps"] for r in runs)
    run_time = total["solver.run_scenario"]
    oracle_states = calls["oracle.oracle_entropy"]

    out = {
        "config.load_ms": per_call("config.load_config", 1e3),
        "cli.self_s": self_by_layer["cli"],
        "oracle.quad_calls": tracer.counts["oracle.quad"],
        "oracle.state_ms": (sum(total[n] for n in ORACLE_STATE_SPANS) / oracle_states * 1e3
                            if oracle_states else 0.0),
        "oracle.probe_ms": per_call("oracle.mep_optimality_probe", 1e3),
        "oracle.self_s": self_by_layer["oracle"],
        "eigen.convexity_ms": per_call("eigen.convexity_check", 1e3),
        "eigen.entropy_evals_per_state": (convexity_evals / calls["eigen.convexity_check"]
                                          if calls["eigen.convexity_check"] else 0.0),
        "eigen.wave_fan_us": per_call("eigen.wave_fan", 1e6),
        "eigen.self_s": self_by_layer["eigen"],
        "closure.entropy_parts_us": per_call("closure.entropy_parts", 1e6),
        "closure.main_field_us": per_call("closure.main_field", 1e6),
        "closure.multipliers_us": per_call("closure.multipliers_from_state", 1e6),
        "gas.primitive_from_conserved_us": per_call("gas.primitive_from_conserved", 1e6),
        "solver.steps": steps,
        "solver.ns_per_cell_step": run_time / cell_steps * 1e9 if cell_steps else 0.0,
        "solver.us_per_step": run_time / steps * 1e6 if steps else 0.0,
        "solver.decode_calls_per_step": (tracer.counts["solver.primitive_fields"] / steps
                                         if steps else 0.0),
        "solver.projections": sum(r["projections"] for r in runs),
        "solver.limiter_fraction": max((r["limiter_fraction"] for r in runs), default=0.0),
    }
    for stage, span_names in SOLVER_STAGES.items():
        stage_time = sum(total[n] for n in span_names)
        out[f"solver.{stage}_us_per_step"] = stage_time / steps * 1e6 if steps else 0.0
    return out
