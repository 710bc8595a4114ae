"""Command-line entry point: figure sweeps, validation runs, protocol runs.

Subcommands:
  figures   - evaluate the closed-form sweeps and write fig5..fig8 CSVs
  validate  - run the cell-level Monte Carlo per access-network kind and
              check it against the closed forms; exit 1 on any failure.
              Also writes each judged crossing's observed rate beside its
              first-order and exact probabilities (crossings.csv)
  scenario  - run the full protocol simulation and write its counters

Every CSV starts with '#'-prefixed provenance lines naming the formula
evaluated, then a fixed ``sweep_value,metric,value`` header. Output is
byte-stable: rerunning a command on the same config reproduces identical
files. Exit codes: 0 success, 1 validation failure, 2 config error,
3 internal error (a crash, with its traceback on stderr).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# every model is loaded here, before any command runs, so a command's time
# holds no import; ``config`` loads ``overhead`` and ``reliability`` only
# when a method calls them
from . import reliability  # noqa: F401
from .config import ConfigError, ScenarioConfig, default_config, load_config
from .overhead import nonperiodic_overhead, periodic_overhead
from .queueing import FirstOrderValidityError, OccupancyOverflowError
from .simkernel import horizon_for_events, run_cell_mc, run_system_sim
from .timing import HscaTimingParams, TimingParams, check_swept_rates, swept_processing_times
from .topology import AccessNetworkKind
from .validation import crossings_text, report_section, report_text


@dataclass
class MetricSeries:
    """Rows of (sweep_value, metric_name, value), sorted whole for emission."""

    sweep_name: str
    rows: list[tuple[float, str, float]]
    provenance: tuple[str, ...] = ()

    def write(self, path: Path):
        # a row's value is a function of its sweep value and metric, so rows
        # that tie on both are equal: sorting on the whole row orders them as
        # a stable sort on (sweep_value, metric) would
        rows = sorted(self.rows)
        lines = [f"# {line}\n" for line in self.provenance]
        lines.append(f"# sweep variable: {self.sweep_name}\nsweep_value,metric,value\n")
        # A value object repeated on consecutive rows is formatted once. The
        # test is identity, not equality: 0.0 == -0.0 and 3 == 3.0 print apart
        last_x = last_v = x_text = v_text = None
        for x, metric, v in rows:
            if x is not last_x:
                last_x, x_text = x, f"{x}"
            if v is not last_v:
                last_v, v_text = v, f"{v}"
            lines.append(f"{x_text},{metric},{v_text}\n")
        path.write_text("".join(lines))


def _override(cfg: ScenarioConfig, flag: str, path: tuple[str, ...], value) -> ScenarioConfig:
    """``cfg`` with ``value`` put at ``path`` by a flag, parsed like the document."""
    doc = cfg.to_dict()
    section = doc
    for part in path[:-1]:
        section = section[part]
    section[path[-1]] = value
    try:
        return ScenarioConfig.from_dict(doc)
    except ConfigError as exc:
        # the rest of the document parsed before, so the error is the flag's
        raise ConfigError(f"{flag}: {str(exc).partition(': ')[2]}") from None


def _load(args) -> ScenarioConfig:
    cfg = default_config() if args.config is None else load_config(args.config)
    if args.seed is not None:
        cfg = _override(cfg, "--seed", ("seed",), args.seed)
    if getattr(args, "target_events", None) is not None:
        cfg = _override(cfg, "--target-events", ("sim", "target_events"), args.target_events)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    return cfg


def _outdir(cfg: ScenarioConfig) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot use {str(out)!r} as a directory: "
                          f"{exc.strerror}") from exc
    return out


def _swept(name: str, values, fn) -> list:
    """``fn`` of all values of ``sweeps.<name>`` at once. On a ValueError
    ``fn`` runs on each value alone, in order, and the first value that
    fails alone becomes a ConfigError naming it."""
    try:
        return fn(values)
    except ValueError:
        for value in values:
            try:
                fn([value])
            except ValueError as exc:
                raise ConfigError(f"sweeps.{name} value {value}: {exc}") from exc
        raise


def _processing_times_ms(p: TimingParams, h: HscaTimingParams, rates) -> tuple[list, list]:
    """Both processing times (ms) at each rate of ``rates``. A rate that
    breaks ``check_swept_rates`` raises its ValueError, and a time past the
    float range one naming the section its parameters come from."""
    check_swept_rates(p, h, rates)
    with np.errstate(over="ignore", divide="ignore"):
        sda, hsca = swept_processing_times(p, h, np.array(rates))
        times = {"timing": sda * 1e3, "hsca_timing": hsca * 1e3}
    for section, ms in times.items():
        if not np.isfinite(ms).all():
            raise ValueError(f"processing time from {section} must be finite in ms, "
                             f"got {ms.max()}")
    return times["timing"].tolist(), times["hsca_timing"].tolist()


def cmd_figures(cfg: ScenarioConfig) -> int:
    # every series is evaluated before anything is written, so a failing
    # sweep leaves the output directory as it was
    ov = cfg.overhead_params()
    op, onp = periodic_overhead(ov).op, nonperiodic_overhead(ov)
    # finite inputs can overflow: x / T and 2 * d round past the float range
    for name, value in (("periodic overhead O_p", op), ("non-periodic overhead O_np", onp)):
        if not math.isfinite(value):
            raise ConfigError(f"overhead: {name} must be finite, got {value} (from overhead.T, "
                              "overhead.d and types.*.report_cost * ap_count)")

    fig5 = MetricSeries(
        sweep_name="lmm_count",
        rows=[(n, "periodic_overhead", op) for n in cfg.sweeps.lmm_counts],
        provenance=(
            "periodic signalling overhead per second: "
            "O_p = (1/T) * (sum_i a_i*A_i + 2*d); independent of the LMM count",
        ),
    )

    fig6 = MetricSeries(
        sweep_name="lmm_count",
        rows=[(n, "nonperiodic_overhead", onp) for n in cfg.sweeps.lmm_counts],
        provenance=(
            "non-periodic signalling overhead per second: "
            "O_np = (1/T) * (a * sum_i A_i*Pr_i + d * (Pr_bb1 + Pr_bb2)); "
            "independent of the LMM count",
        ),
    )

    rates = cfg.sweeps.arrival_rates
    times_ms = _swept("arrival_rates", rates,
                      functools.partial(_processing_times_ms, cfg.timing, cfg.hsca_timing))
    rows7: list[tuple[float, str, float]] = []
    for rate, sda_ms, hsca_ms in zip(rates, *times_ms):
        rows7.append((rate, "processing_time_sda_ms", sda_ms))
        rows7.append((rate, "processing_time_hsca_ms", hsca_ms))
    fig7 = MetricSeries(
        sweep_name="arrival_rate",
        rows=rows7,
        provenance=(
            "total processing time (ms): "
            "sda = t1 + d_rl/s_rl + 3*(rho+1)/(mu*(1-rho)) + d_ll/s_ll; "
            "hsca = t1 + d_rr/s_rr + d_ris/s_ris + d_ibi/s_ibi "
            "+ (rho_ra+1)/(mu*(1-rho_ra)) + 2*(rho_is+1)/(mu*(1-rho_is))",
            "rho = arrival_rate / mu_serve on both sides",
        ),
    )

    counts = cfg.sweeps.reliability_lmm_counts
    scores = _swept("reliability_lmm_counts", counts, cfg.reliability.swept_integrated_reliability)
    fig8 = MetricSeries(
        sweep_name="lmm_count",
        rows=[(n, "integrated_reliability", score) for n, score in zip(counts, scores)],
        provenance=(
            "integrated reliability: R = 1 - (P0*L0 + P1*L1 + P2*L2) / B "
            "with uniform traffic intensities",
        ),
    )

    out = _outdir(cfg)
    figures = {"fig5.csv": fig5, "fig6.csv": fig6, "fig7.csv": fig7, "fig8.csv": fig8}
    for name, series in figures.items():
        series.write(out / name)
    for name in figures:
        print(f"wrote {out / name}")
    return 0


def cmd_validate(cfg: ScenarioConfig) -> int:
    T = cfg.overhead.T
    sections: list[str] = []
    crossings: list[str] = []
    all_pass = True
    for kind in AccessNetworkKind:
        p = cfg.types[kind]
        stats = None
        if p.lam > 0:
            horizon = horizon_for_events(p, cfg.sim.target_events)
            try:
                report = run_cell_mc(p, horizon, T, seed=cfg.seed + int(kind), kind=kind)
            except ValueError as exc:
                name = kind.name.lower()
                raise ConfigError(
                    f"types.{name}: {exc} (from types.{name}.lam = {p.lam!r}, "
                    f"sim.target_events = {cfg.sim.target_events}, overhead.T = {T!r})"
                ) from exc
            stats = report.per_type[kind]
        text, passed, rows = report_section(kind, p, T, stats)
        sections.append(text)
        crossings += rows
        all_pass = all_pass and passed

    text = report_text(sections)
    out = _outdir(cfg)
    report_path, crossings_path = out / "validation_report.txt", out / "crossings.csv"
    report_path.write_text(text)
    crossings_path.write_text(crossings_text(crossings))
    print(text, end="")
    print(f"wrote {report_path}")
    print(f"wrote {crossings_path}")
    return 0 if all_pass else 1


def cmd_scenario(cfg: ScenarioConfig, trace: bool = False) -> int:
    out = _outdir(cfg)
    topo = cfg.topology.build()
    scenario = cfg.sim.scenario(window=cfg.overhead.T)
    trace_file = None
    if trace:
        trace_file = (out / "trace.csv").open("w")
        trace_file.write("time,kind,src,dst\n")
    try:
        report = run_system_sim(
            topo, cfg.types, scenario, cfg.sim.horizon, cfg.seed, trace=trace_file
        )
    finally:
        if trace_file is not None:
            trace_file.close()

    lines = ["metric,value"]
    for name, count in sorted(report.message_counts.items()):
        lines.append(f"message_count.{name},{count}")
    for kind in AccessNetworkKind:
        stats = report.per_type[kind]
        lines.append(f"arrivals.{kind.name},{stats.arrivals}")
        lines.append(f"departures.{kind.name},{stats.departures}")
        lines.append(f"blocked.{kind.name},{stats.blocked}")
        blocking = stats.blocked / stats.arrivals if stats.arrivals else 0.0
        lines.append(f"blocking_rate.{kind.name},{blocking}")
        lines.append(f"migrations_in.{kind.name},{stats.migrations_in}")
        lines.append(f"migrations_out.{kind.name},{stats.migrations_out}")
    for i, latency in enumerate(report.failover_latencies):
        lines.append(f"failover_latency[{i}],{latency}")
    report_path = out / "scenario_report.csv"
    report_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {report_path}")
    if trace:
        print(f"wrote {out / 'trace.csv'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdlb",
        description="Semi-distributed load-balancing models and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="scenario JSON (default: packaged baseline)")
    common.add_argument("--out", help="output directory (default: config output_dir)")
    common.add_argument("--seed", type=int, help="override the config seed")

    sub.add_parser("figures", parents=[common],
                   help="write the four closed-form sweep CSVs")
    pv = sub.add_parser("validate", parents=[common],
                        help="Monte Carlo validation of the closed forms")
    pv.add_argument("--target-events", type=int,
                    help="events per kind (default: config sim.target_events)")
    ps = sub.add_parser("scenario", parents=[common],
                        help="run the full protocol simulation")
    ps.add_argument("--trace", action="store_true", help="write a message trace")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "figures":
            return cmd_figures(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "scenario":
            return cmd_scenario(cfg, trace=args.trace)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OccupancyOverflowError, FirstOrderValidityError) as exc:
        # raised for one kind's params: name that kind's section
        kind = next(k for k, p in cfg.types.items() if p is exc.params)
        print(f"config error: types.{kind.name.lower()}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a crash must not exit 1, the code of a failed validation; the
        # module is imported here so that no run that works pays for it
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
