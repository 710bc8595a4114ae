"""Output checks. Each returns a list of problems; an empty list passes.

They read what the command wrote (and, for ``scenario``, the SimReport it
returned), never the program's internals.
"""
from __future__ import annotations

import math
import re
from pathlib import Path

KINDS = ("UMTS", "WIMAX", "WLAN")
FIGURES = ("fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv")


def _rows(path: Path) -> tuple[list[str], list[tuple[float, str, float]]]:
    """(problems, rows) of one figure CSV: '#' lines, header, data rows."""
    lines = path.read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    if len(body) == len(lines):
        return [f"{path.name}: no provenance lines"], []
    if not body or body[0] != "sweep_value,metric,value":
        return [f"{path.name}: bad header {body[:1]}"], []
    rows = []
    for line in body[1:]:
        x, metric, y = line.split(",")
        rows.append((float(x), metric, float(y)))
    return [], rows


def check_figures(out: Path, doc: dict) -> list[str]:
    written = sorted(p.name for p in out.glob("*.csv"))
    if written != list(FIGURES):
        return [f"expected {list(FIGURES)}, found {written}"]
    problems: list[str] = []
    rows = {}
    for name in FIGURES:
        bad, rows[name] = _rows(out / name)
        problems += bad
    if problems:
        return problems
    sw = doc["sweeps"]
    expect = {
        "fig5.csv": [float(n) for n in sorted(sw["lmm_counts"])],
        "fig6.csv": [float(n) for n in sorted(sw["lmm_counts"])],
        "fig7.csv": [float(r) for r in sorted(sw["arrival_rates"]) for _ in range(2)],
        "fig8.csv": [float(n) for n in sorted(sw["reliability_lmm_counts"])],
    }
    for name in FIGURES:
        xs = [r[0] for r in rows[name]]
        if xs != expect[name]:
            problems.append(f"{name}: {len(xs)} rows do not match the sweep")
        if not all(math.isfinite(r[2]) for r in rows[name]):
            problems.append(f"{name}: non-finite value")
    for name in ("fig5.csv", "fig6.csv"):
        if len({r[2] for r in rows[name]}) != 1:
            problems.append(f"{name}: not constant in the LMM count")
    tm = doc["timing"]
    hop_ms = 1e3 * tm["d_ll"] / tm["s_ll"]
    by_rate: dict[float, dict[str, float]] = {}
    for x, metric, y in rows["fig7.csv"]:
        by_rate.setdefault(x, {})[metric] = y
    for x, pair in by_rate.items():
        gap = pair["processing_time_hsca_ms"] - pair["processing_time_sda_ms"]
        if not math.isclose(gap, hop_ms, rel_tol=1e-9):
            problems.append(f"fig7.csv: gap {gap} ms at rate {x} is not one hop ({hop_ms})")
    return problems


def count_data_rows(out: Path) -> int:
    return sum(
        1 for name in FIGURES for line in (out / name).read_text().splitlines()[1:]
        if not line.startswith("#")
    )


_VERDICT = re.compile(r"^verdict: (PASS|FAIL) \((\d+) failing\)$")
_CHECK = re.compile(
    r"^\s*(PASS|FAIL|INSUFFICIENT SAMPLES)\s+\S+\s+observed=\S+ expected=\S+ band=\S+$"
)


def check_validate(out: Path, exit_code: int) -> list[str]:
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"]
    text = (out / "validation_report.txt").read_text()
    sections = text.strip().split("\n\n")
    if len(sections) != len(KINDS):
        return [f"{len(sections)} report sections, expected {len(KINDS)}"]
    problems: list[str] = []
    all_pass = True
    for section in sections:
        lines = section.splitlines()
        if not lines[0].startswith("== "):
            problems.append(f"bad section header {lines[0]!r}")
            continue
        verdict = _VERDICT.match(lines[-1])
        if verdict is None:
            problems.append(f"{lines[0]}: no verdict line")
            continue
        fails = sum(line.lstrip().startswith("FAIL") for line in lines[1:-1])
        if not all(_CHECK.match(line) for line in lines[1:-1]):
            problems.append(f"{lines[0]}: unparsable check line")
        if fails != int(verdict.group(2)) or (verdict.group(1) == "PASS") != (fails == 0):
            problems.append(f"{lines[0]}: verdict disagrees with its checks")
        all_pass = all_pass and verdict.group(1) == "PASS"
    if all_pass != (exit_code == 0):
        problems.append(f"exit code {exit_code} disagrees with the verdicts")
    return problems


def check_scenario(out: Path, report, doc: dict) -> list[str]:
    lines = (out / "scenario_report.csv").read_text().splitlines()
    if lines[0] != "metric,value":
        return [f"bad header {lines[0]!r}"]
    values = dict(line.split(",") for line in lines[1:])
    problems: list[str] = []
    counts = {k: int(v) for k, v in values.items()
              if not k.startswith(("blocking_rate.", "failover_latency["))}
    problems += [f"{k} = {v} < 0" for k, v in counts.items() if v < 0]
    for kind in KINDS:
        flow = (
            counts[f"arrivals.{kind}"] - counts[f"blocked.{kind}"]
            + counts[f"migrations_in.{kind}"] - counts[f"migrations_out.{kind}"]
            - counts[f"departures.{kind}"]
        )
        in_system = next(s.in_system for k, s in report.per_type.items() if k.name == kind)
        if flow != in_system or in_system < 0:
            problems.append(f"{kind}: flow balance {flow} != in_system {in_system}")
    limit = doc["sim"]["heartbeat_timeout"] + doc["sim"]["heartbeat_period"]
    for k, v in values.items():
        if k.startswith("failover_latency[") and not 0.0 <= float(v) <= limit:
            problems.append(f"{k} = {v} outside [0, {limit}]")
    return problems


def work_units(command: str, out: Path, reports: list) -> int:
    """Work one job did: kernel events, events + messages, or figure rows."""
    if command == "figures":
        return count_data_rows(out)
    events = sum(s.events for r in reports for s in r.per_type.values())
    return events + sum(sum(r.message_counts.values()) for r in reports)
