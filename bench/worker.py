"""One benchmark round in a fresh process: set up, run the job, check it.

Started by run.py, never by hand.  Prints one JSON line with the round's
figures.  ``--launched-at`` is the launcher's CLOCK_MONOTONIC reading taken
just before this process was spawned, so ``setup_s`` covers interpreter
start, imports, configuration parsing and input building.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import et6.cli  # noqa: F401  (the import users pay on every et6 call)
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    import workloads

    setup, job, check = workloads.WORKLOADS[args.workload]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    inputs = setup(args.seed, args.out_dir)

    setup_s = time.monotonic() - args.launched_at
    start = time.perf_counter()
    outcomes = job(inputs)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = check(inputs, outcomes)
    failures = [f"{o.name}: {o.detail}" for o in outcomes if o.failed]
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures[:5],
        "errors": errors[:20],
        "traced": tracer is not None,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        tracer.dump(args.out_dir / "trace.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
