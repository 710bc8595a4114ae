"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at ``--size tiny``, untraced and traced, and asserts
that each metric BENCHMARK.json names (plus ``error_rate``) is printed
with its unit, both as a human-readable line and in the final JSON, and
that every output check passed. It also runs the benchmark in a directory
holding only BENCHMARK.json and perfbench/, where it must exit non-zero
without a result. Takes about 20 seconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int, specs: list[dict]) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    problems = []
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} jobs failed")
    in_json = {name: v["unit"] for name, v in result["metrics"].items()}
    if in_json != {s["name"]: s["unit"] for s in specs}:
        problems.append(f"{where}: JSON metrics differ from BENCHMARK.json")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    shown = specs + ([{"name": "error_rate", "unit": "fraction"}] if trace == 0 else [])
    for spec in shown:
        if printed.get(spec["name"]) != spec["unit"]:
            problems.append(f"{where}: {spec['name']} not printed with unit {spec['unit']}")
    return problems


def check_bare() -> list[str]:
    """Without the sources the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "sweep", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare()
    for wl in bench["workloads"]:
        problems += check_run(wl["name"], 0, bench["end_to_end"])
        problems += check_run(wl["name"], 1, bench["per_layer"])
    for problem in problems:
        print(problem)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
