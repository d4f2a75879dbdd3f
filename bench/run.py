"""Benchmark of the et6 package: three workloads, end-to-end and per layer.

    python3 bench/run.py --workload {verify,riemann,stiff} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each round of a workload runs in a fresh worker process with
BLAS/OpenMP threads pinned to 1 and a fixed PYTHONHASHSEED.  Rounds repeat
while the next one is expected to end within ``--seconds``.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics (medians over rounds); with ``--trace 1`` every other round is
traced and the JSON carries the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify", "riemann", "stiff")
WORKER_TIMEOUT_S = 120.0   # a hung round still ends the run within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "config.load_ms": "ms",
    "cli.self_s": "s",
    "oracle.quad_calls": "count",
    "oracle.state_ms": "ms",
    "oracle.probe_ms": "ms",
    "oracle.self_s": "s",
    "eigen.convexity_ms": "ms",
    "eigen.entropy_evals_per_state": "count",
    "eigen.wave_fan_us": "us",
    "eigen.self_s": "s",
    "closure.entropy_parts_us": "us",
    "closure.main_field_us": "us",
    "closure.multipliers_us": "us",
    "gas.primitive_from_conserved_us": "us",
    "solver.steps": "count",
    "solver.ns_per_cell_step": "ns",
    "solver.us_per_step": "us",
    "solver.decode_calls_per_step": "count",
    "solver.cfl_us_per_step": "us",
    "solver.transport_us_per_step": "us",
    "solver.relax_us_per_step": "us",
    "solver.diag_us_per_step": "us",
    "solver.projections": "count",
    "solver.limiter_fraction": "fraction",
    "trace.overhead_pct": "%",
}
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def run_round(workload: str, seed: int, traced: bool, out_dir: Path) -> dict:
    """Run one worker process and return its figures."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out-dir", str(out_dir)]
    env = dict(os.environ, **PINNED_ENV)
    launched_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--launched-at", repr(launched_at)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"{workload} round exceeded {WORKER_TIMEOUT_S:g} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} worker exited {proc.returncode}:\n{stderr[-3000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload} worker printed no result:\n{stderr[-3000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Whole rounds until the next one would overrun the measuring time."""
    out_dir = OUT / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.monotonic()
    rounds: list[dict] = []
    min_rounds = 2 if trace else 1   # a traced run needs an untraced round too
    while True:
        traced = trace and len(rounds) % 2 == 0
        res = run_round(workload, seed, traced, out_dir)
        rounds.append(res)
        elapsed = time.monotonic() - start
        print(f"round {len(rounds)}{' traced' if traced else ''}: "
              f"setup {res['setup_s']:.4f} s, job {res['wall_s']:.4f} s, "
              f"{res['failed']}/{res['attempted']} failed", flush=True)
        for line in res["failures"] + res["errors"]:
            print(f"  {line.strip().splitlines()[-1]}", file=sys.stderr)
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def summarize(rounds: list[dict], trace: bool) -> dict:
    if trace:
        traced = [r for r in rounds if r["traced"]]
        plain = [r for r in rounds if not r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["cli.import_s"] = statistics.median(r["import_s"] for r in rounds)
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0)
        units = PER_LAYER
    else:
        values = {name: statistics.median(r[name] for r in rounds) for name in END_TO_END}
        units = END_TO_END
    return {
        "correct": all(not r["errors"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "et6" / "__init__.py").is_file():
        print(f"no et6 sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        rounds = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(rounds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
