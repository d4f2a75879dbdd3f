"""The benchmark's workloads run on the package as it stands and pass their
own checks.

bench/workloads.py reads et6 by function name, config key and CSV column,
and bench/run.py counts a failed operation or a check error against a
change.  Each workload's setup, job and check run here at seed 1, in one
fresh process with the environment bench/run.py gives its workers.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

# setup -> job -> check of every workload, each into its own new directory
# as bench/worker.py makes it
WORKLOAD_RUN = """
import json, sys, tempfile
from pathlib import Path

import workloads

report = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, (setup, job, check) in workloads.WORKLOADS.items():
        out_dir = Path(tmp) / name
        out_dir.mkdir(parents=True, exist_ok=True)
        inputs = setup(1, out_dir)
        outcomes = job(inputs)
        report[name] = {"attempted": len(outcomes),
                        "failures": [f"{o.name}: {o.detail}" for o in outcomes if o.failed],
                        "errors": check(inputs, outcomes)}
print(json.dumps(report))
"""


def load_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_runs_and_passes_its_checks():
    run = load_run()
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert list(run.WORKLOADS) == declared
    path = filter(None, [str(ROOT / "src"), str(BENCH), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, **run.PINNED_ENV, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", WORKLOAD_RUN], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert list(report) == declared
    for name, result in report.items():
        assert result["attempted"] > 0, name
        assert result["failures"] == [], (name, result["failures"])
        assert result["errors"] == [], (name, result["errors"])
