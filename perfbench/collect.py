"""Repeat the benchmark over seeds and summarise each metric's spread.

Run from the root of a checkout:

    python3 perfbench/collect.py --workloads cli lookup --seeds 1 2 3 4 5 --seconds 45

For each workload and end-to-end metric it prints the median of the
runs and the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and
writes every run's result to ``.perfbench_out/collect-<time>.json``.
Add ``--trace`` to collect per-layer runs instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
            argv += ["--seconds", str(args.seconds), "--trace", "1" if args.trace else "0"]
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            elapsed = time.perf_counter() - start
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result.update(seed=seed, run_s=elapsed)
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} in {elapsed:.1f} s", flush=True)

    for workload, results in runs.items():
        print(f"\n{workload}: {len(results)} runs, longest {max(r['run_s'] for r in results):.1f} s")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            share = spread(values) if len(values) >= 2 else 0.0
            print(f"  {name:44s} median {median:.6g} {results[0]['metrics'][name]['unit']:6s} spread {share:.3f}")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"collect-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(runs, indent=1))
    print(f"\nruns written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
