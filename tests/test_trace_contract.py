"""The traced benchmark run wraps et6 functions by module attribute.

bench/spans.py replaces the functions it names in every et6 module that
holds them, so each must exist, and the solver kernel must look the
wrapped ones up when it calls them.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from et6 import solver

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    names = [(layer, name) for layer, group in load_spans().SPANNED.items() for name in group]
    for layer, name in names + [("solver", "primitive_fields")]:
        module = importlib.import_module(f"et6.{layer}")
        assert callable(getattr(module, name, None)), f"et6.{layer}.{name}"


def test_kernel_calls_solver_functions_through_module_globals(monkeypatch):
    counts = dict.fromkeys(("max_wave_speed", "hyperbolic_step", "relaxation_step_exact",
                            "_record_diag", "_record_snapshot", "primitive_fields"), 0)
    for name in counts:
        def counted(*args, _name=name, _original=getattr(solver, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    ts = solver.run_scenario(solver.Scenario(kind="smooth_wave", N=32, t_end=0.05,
                                             scheme="muscl"))
    steps = len(ts.diag_t) - 1
    assert steps > 0
    assert all(counts.values()), counts
    assert counts["primitive_fields"] <= 6 * steps


# install() rewires module globals, so the traced run gets its own interpreter
TRACED_RUN = """
import importlib.util, json, sys, tempfile
import et6.cli

spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
with tempfile.TemporaryDirectory() as out:
    codes = [et6.cli.main([command, "--quick", "--output-dir", out])
             for command in ("check", "nslimit")]
metrics = spans.layer_metrics(tracer)
print(json.dumps({"codes": codes, "counts": dict(tracer.counts), "metrics": metrics}))
"""


def test_traced_check_and_nslimit_run():
    # the benchmark's traced worker, as one fresh process: install() must find
    # every name it wraps, including the oracle's module global `integrate`
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-W", "error", "-c", TRACED_RUN, str(SPANS)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0], done.stdout
    assert result["counts"].get("oracle.quad", 0) > 0
    assert result["counts"].get("solver.primitive_fields", 0) > 0
    assert result["metrics"]["oracle.quad_calls"] == result["counts"]["oracle.quad"]
    assert result["metrics"]["solver.steps"] > 0
