"""Append one point to perfbench/trajectory.json.

    python3 perfbench/trajectory.py --label "seed commit" --seeds 1-10

For every workload in BENCHMARK.json it runs the benchmark once per seed
untraced, and once traced on the first seed, then records per metric the
median, quartiles and spread (interquartile range over median) of the
untraced runs, and the traced run's per-layer metrics, with the machine
notes of the first run. Takes about 20 minutes for ten seeds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "perfbench" / "trajectory.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180,
                          check=True)
    out = ROOT / ".perfbench_out" / f"{workload}-full-seed{seed}-trace{trace}" / "result.json"
    result = json.loads(proc.stdout.splitlines()[-1])
    result["machine"] = json.loads(out.read_text())["machine"]
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {"label": args.label, "run_seconds": bench["run_seconds"], "workloads": {}}
    for wl in bench["workloads"]:
        runs = [run(wl["name"], seed, bench["run_seconds"], 0)
                for seed in range(first, last + 1)]
        traced = run(wl["name"], first, bench["run_seconds"], 1)
        point.setdefault("machine", runs[0]["machine"])
        point["workloads"][wl["name"]] = {
            "seeds": [first, last],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in bench["end_to_end"]},
            "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
        }
        print(wl["name"], "done", flush=True)
    points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    points.append(point)
    TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
