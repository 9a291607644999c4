"""Run the benchmark several times with different seeds and report spreads.

    python3 perfbench/repeat.py --workload NAME --runs 10 [--first-seed 1]
                                [--trace 0] [--out FILE]

For each metric it prints the median of the runs and the distance between
the first and third quartile as a share of the median, next to the bound
``BENCHMARK.json`` fixes.  ``--out`` writes every run's metrics as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE.parent / "BENCHMARK.json"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    manifest = json.loads(MANIFEST.read_text())
    bounds = {m["name"]: m.get("bound") for m in manifest["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(manifest["run_seconds"]),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": proc.returncode, **result})
        print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}",
              file=sys.stderr)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "spread": spread, "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}" + (
            "  OVER" if spread > bound else "")
        print(f"{args.workload} {name}: median {med:.6g} spread {spread:.3f}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "runs": runs,
                                        "summary": summary}, indent=1))
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
