"""sdlb benchmark: one seeded workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload validate --seed 1 --seconds 20 --trace 0

Run from a checkout that holds ``src/sdlb``. One process, one thread: the
run generates the workload's scenario documents from ``--seed``, times
set-up in fresh interpreters, then repeats the workload's fixed batch of
jobs for about ``--seconds``, checking every job's output between
batches. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced batches with traced
passes (set-up plus batch) and reports the per-layer metrics. The last
stdout line is the JSON result; human-readable lines come before it.
Side files (result, spans, profile) go to ``.perfbench_out/`` in the
checkout. ``--profile`` runs one job under cProfile instead of measuring.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: single-threaded

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from setup_probe import set_up  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
TRACED_PASSES = 3  # spans of one sweep pass take ~5 MB of memory
MAX_RUN_S = 150.0  # stop starting batches after this, to end within 180 s
MSG_KINDS = ("LoadReport", "BalanceInfo", "StateChangeNotice", "BBReplicate",
             "Heartbeat", "Takeover", "BorderRequest", "NeighborConsult", "BorderGrant")
README_NOTE = ("the README's '~30 ms per 10^6 events' is the numba path; "
               "it is not what this benchmark measures")


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_notes(seed: int) -> dict:
    import numpy

    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(ROOT),
        "seed": seed,
        "note": README_NOTE,
    }


def time_setup(spec_path: Path) -> tuple[float, float]:
    """(raw, rescaled) median seconds from spawning a fresh interpreter to
    its 'ready'. Each spawn is rescaled by a reference sample taken right
    after it."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(spec_path)]
    times, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if i:  # the first spawn also writes bytecode caches
            times.append(elapsed)
            scaled.append(elapsed * clock.REF_S / clock.time_reference())
    return statistics.median(times), statistics.median(scaled)


class Runner:
    """Runs the workload's jobs and checks what they wrote."""

    def __init__(self, wl: workloads.Workload, jobs_dir: Path, clk: clock.Clock):
        from sdlb import cli, config, simkernel

        self.wl = wl
        self.clock = clk
        self.cli = cli
        self.scenario_config = config.ScenarioConfig
        self.docs = [dict(doc, output_dir=str(jobs_dir / f"job{j}"))
                     for j, doc in enumerate(wl.docs)]
        self.configs = []
        # keep the reports the kernels return; looked up at call time so a
        # tracer installed later still sees the call
        self.reports: list = []
        for name in ("run_cell_mc", "run_system_sim"):
            setattr(cli, name, self._capture(simkernel, name))
        self.first_output: dict[str, bytes] | None = None
        self.attempted = 0
        self.failed = 0

    def _capture(self, module, name):
        def capture(*args, **kwargs):
            report = getattr(module, name)(*args, **kwargs)
            self.reports.append(report)
            return report

        return capture

    def set_up(self):
        self.configs, _ = set_up(self.wl.command, self.docs)

    def run_job(self, j: int) -> int:
        if self.wl.parse_in_job:
            cfg = self.scenario_config.from_dict(self.docs[j])
        else:
            cfg = self.configs[j]
        with contextlib.redirect_stdout(io.StringIO()):
            if self.wl.command == "validate":
                return self.cli.cmd_validate(cfg)
            if self.wl.command == "scenario":
                return self.cli.cmd_scenario(cfg)
            return self.cli.cmd_figures(cfg)

    def batch(self) -> dict:
        """Run every job once; only the jobs themselves are timed. Times
        are program time; ``factor`` rescales the batch to the reference
        host and ``jobs`` holds each job's rescaled time."""
        first = len(self.clock.samples)
        t0, c0 = self.clock.now(), self.clock.cpu()
        results = [self._job(j) for j in range(len(self.docs))]
        wall, cpu = self.clock.now() - t0, self.clock.cpu() - c0
        factor = self.clock.factor_since(first)
        # a job no sample fell in (shorter than the period) takes the batch's
        jobs = [r[0] * (self.clock.factor(*r[4]) or factor) for r in results]
        work, written = self._check(results)
        return {"wall": wall, "cpu": cpu, "jobs": jobs, "factor": factor,
                "work": work, "bytes": written}

    def _job(self, j: int) -> tuple:
        """(seconds, exit code, traceback or None, kernel reports, range of
        clock samples taken during it) of job j."""
        self.reports = []
        first = len(self.clock.samples)
        tj = self.clock.now()
        try:
            code, error = self.run_job(j), None
        except Exception:  # a failing job is counted, not fatal
            code, error = None, traceback.format_exc()
        return (self.clock.now() - tj, code, error, self.reports,
                (first, len(self.clock.samples)))

    def _check(self, results) -> tuple[int, int]:
        work = written = 0
        for j, (_, code, error, reports, _) in enumerate(results):
            out = Path(self.docs[j]["output_dir"])
            problems = [error] if error else []
            try:
                problems = problems or self._problems(j, out, code, reports)
                if not problems:
                    work += checks.work_units(self.wl.command, out, reports)
                    written += sum(p.stat().st_size for p in out.iterdir())
                    if j == 0:
                        problems = self._compare_first(out)
            except Exception:  # unreadable output fails the job, not the run
                problems = [traceback.format_exc()]
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"job {j} failed: {'; '.join(problems)}", file=sys.stderr)
        return work, written

    def _problems(self, j: int, out: Path, code, reports) -> list[str]:
        if self.wl.command == "validate":
            return checks.check_validate(out, code)
        if code != 0:
            return [f"exit code {code}"]
        if self.wl.command == "scenario":
            return checks.check_scenario(out, reports[0], self.docs[j])
        return checks.check_figures(out, self.docs[j])

    def _compare_first(self, out: Path) -> list[str]:
        output = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if self.first_output is None:
            self.first_output = output
            return []
        return [] if output == self.first_output else ["rerun output differs"]

    def rerun_first(self):
        """Re-run job 0, untimed, when only one batch ran."""
        self._check([self._job(0)])


def layer_metrics(tracer: tracing.Tracer, first: int, first_result: int,
                  wall: float, factor: float, written: int) -> dict:
    """Per-layer metrics of one traced pass: spans from index ``first`` on,
    times rescaled by the pass's speed ``factor``."""
    spans = tracer.spans[first:]
    own = [s * factor for s in tracing.self_times(tracer.spans)[first:]]
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for span, s in zip(spans, own):
        seconds[span[0]] += s
        calls[span[0]] += 1
    layer_s = {layer: 0.0 for layer in tracing.LAYERS}
    for name, s in seconds.items():
        layer_s[tracing.layer_of(name)] += s
    results = defaultdict(list)
    for name, args, result, idx in tracer.results[first_result:]:
        results[name].append((args, result, own[idx - first]))

    m: dict[str, float] = {f"{layer}.self_s": s for layer, s in layer_s.items()}
    m["config.parse_s"] = seconds["config.ScenarioConfig.from_dict"]
    m["config.parse_calls"] = calls["config.ScenarioConfig.from_dict"]
    m["topology.build_s"] = seconds["topology.build_topology"]
    m["topology.cells"] = sum(r.cell_count for _, r, _ in results["topology.build_topology"])
    m["queueing.state_probabilities_s"] = seconds["queueing.state_probabilities"]
    m["queueing.state_probabilities_calls"] = calls["queueing.state_probabilities"]
    transition = ("queueing.transition_probability", "queueing.prob_state_change",
                  "queueing.prob_bb_update")
    m["queueing.transition_s"] = sum(seconds[n] for n in transition)
    m["queueing.transition_calls"] = sum(calls[n] for n in transition)
    m["queueing.classify_load_calls"] = tracer.counts["queueing.classify_load"]
    m["overhead.periodic_s"] = seconds["overhead.periodic_overhead"]
    m["overhead.nonperiodic_s"] = (seconds["overhead.nonperiodic_overhead"]
                                   + seconds["overhead.even_bb_split"])
    m["overhead.calls"] = (calls["overhead.periodic_overhead"]
                           + calls["overhead.nonperiodic_overhead"])
    m["timing.processing_time_s"] = layer_s["timing"]
    m["timing.calls"] = (calls["timing.total_processing_time_sda"]
                         + calls["timing.total_processing_time_hsca"])
    m["reliability.integrated_s"] = layer_s["reliability"]
    m["reliability.calls"] = calls["reliability.integrated_reliability"]

    m["simkernel.cell_mc_s"] = seconds["simkernel.run_cell_mc"]
    m["simkernel.cell_mc_events"] = sum(
        s.events for _, r, _ in results["simkernel.run_cell_mc"] for s in r.per_type.values()
    )
    m["simkernel.cell_mc_events_per_s"] = _ratio(m["simkernel.cell_mc_events"],
                                                 m["simkernel.cell_mc_s"])
    m["simkernel.validator_s"] = seconds["simkernel.validate_against_analytic"]
    status = Counter(c.status for _, v, _ in results["simkernel.validate_against_analytic"]
                     for c in v.checks)
    m["simkernel.checks_pass"] = status["pass"]
    m["simkernel.checks_fail"] = status["fail"]
    m["simkernel.checks_insufficient"] = status["insufficient samples"]
    m["simkernel.checks_useful_ratio"] = _ratio(status["pass"] + status["fail"],
                                                sum(status.values()))

    sims = results["simkernel.run_system_sim"]
    m["simkernel.system_sim_s"] = seconds["simkernel.run_system_sim"]
    ops_by_cells: dict[int, list[float]] = defaultdict(lambda: [0, 0.0])
    messages: Counter[str] = Counter()
    events = migrations = 0
    for args, r, s in sims:
        ev = sum(st.events for st in r.per_type.values())
        msgs = sum(r.message_counts.values())
        events += ev
        migrations += sum(st.migrations_out for st in r.per_type.values())
        messages.update(r.message_counts)
        acc = ops_by_cells[args[0].cell_count]
        acc[0] += ev + msgs
        acc[1] += s
    m["simkernel.system_sim_events"] = events
    m["simkernel.system_sim_messages"] = sum(messages.values())
    m["simkernel.system_sim_rate"] = _ratio(events + sum(messages.values()),
                                            m["simkernel.system_sim_s"])
    for cells in (21, 210, 2100):
        ops, s = ops_by_cells.get(cells, (0, 0.0))
        m[f"simkernel.system_sim_rate.c{cells}"] = _ratio(ops, s)
    m["simkernel.migrations"] = migrations
    m["simkernel.answered_ratio"] = _ratio(messages["BalanceInfo"], messages["LoadReport"])
    for kind in MSG_KINDS:
        m[f"simkernel.msg.{kind}"] = messages[kind]

    m["cli.bytes_written"] = written
    m["trace.accounted_frac"] = _ratio(sum(layer_s.values()), wall * factor)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure(runner: Runner, seconds: float, traced: bool, started: float) -> dict:
    """Repeat the batch, with its checks, for about ``seconds``, stopping
    before a step that would overshoot by more than half its length.
    When ``traced``, each of the first TRACED_PASSES untraced batches is
    followed by a traced pass (set-up plus batch)."""
    plain, passes = [], []
    tracer = tracing.Tracer(runner.clock.now) if traced else None
    loop_start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        b = runner.batch()
        plain.append(b)
        if traced and len(passes) < TRACED_PASSES:
            first, first_result = len(tracer.spans), len(tracer.results)
            tracer.install(keep_results={
                "topology.build_topology", "simkernel.run_cell_mc",
                "simkernel.validate_against_analytic", "simkernel.run_system_sim"})
            try:
                first_sample = len(runner.clock.samples)
                t0 = runner.clock.now()
                tracer.job = f"pass{len(passes)}.setup"
                runner.set_up()
                setup_wall = runner.clock.now() - t0
                tracer.job = f"pass{len(passes)}.batch"
                tb = runner.batch()
            finally:
                tracer.uninstall()
            layer = layer_metrics(tracer, first, first_result, setup_wall + tb["wall"],
                                  runner.clock.factor_since(first_sample), tb["bytes"])
            passes.append({"batch_wall": tb["wall"] * tb["factor"], "layer": layer})
            tracer.counts.clear()
        now = time.perf_counter()
        if (now - loop_start) + (now - step_start) / 2 >= seconds or now - started > MAX_RUN_S:
            break
    if len(plain) + len(passes) == 1:
        runner.rerun_first()
    return {"plain": plain, "passes": passes, "tracer": tracer}


def midmean(values) -> float:
    """Mean of the middle half: as robust as the median to a quarter of
    outlying batches, and it averages the noise each batch's speed factor
    carries, which the median does not."""
    values = sorted(values)
    cut = len(values) // 4
    middle = values[cut:len(values) - cut]
    return sum(middle) / len(middle)


def end_to_end(m: dict, setup_s: float, runner: Runner) -> dict:
    """The run's rescaled times: batch figures are interquartile means over
    batches, the job time a median over jobs."""
    plain = m["plain"]
    return {
        "setup_s": setup_s,
        "wall_s": midmean(b["wall"] * b["factor"] for b in plain),
        "job_s.p50": statistics.median(t for b in plain for t in b["jobs"]),
        "work_rate": midmean(b["work"] / (b["wall"] * b["factor"]) for b in plain),
        "cpu_s": midmean(b["cpu"] * b["factor"] for b in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - runner.failed / runner.attempted,
        "error_rate": runner.failed / runner.attempted,
    }


def per_layer(m: dict) -> dict:
    passes = m["passes"]
    out = {name: statistics.median_low(p["layer"][name] for p in passes)
           for name in passes[0]["layer"]}
    out["trace.overhead_frac"] = (
        midmean(p["batch_wall"] for p in passes)
        / midmean(b["wall"] * b["factor"] for b in m["plain"]) - 1.0
    )
    return out


def write_spans(tracer: tracing.Tracer, path: Path):
    """Spans as JSON lines; start and end are program-time seconds."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with path.open("w") as f:
        for name, start, end, parent, job in tracer.spans:
            f.write(json.dumps({"name": name, "start": start - origin,
                                "end": end - origin, "parent": parent, "job": job}) + "\n")


def profile(runner: Runner, path: Path):
    prof = cProfile.Profile()
    prof.runcall(runner.run_job, 0)
    with path.open("w") as f:
        for key in ("tottime", "cumulative"):
            f.write(f"== top functions by {key}\n")
            pstats.Stats(prof, stream=f).sort_stats(key).print_stats(30)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every workload (smoke check)")
    parser.add_argument("--profile", action="store_true",
                        help="run one job under cProfile and write the top functions")
    args = parser.parse_args(argv)

    if not (SRC / "sdlb" / "__init__.py").is_file():
        print(f"perfbench: no sdlb sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import sdlb
    from sdlb.config import default_config

    if not Path(sdlb.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: sdlb imported from {sdlb.__file__}, not {SRC}", file=sys.stderr)
        return 2

    mode = "profile" if args.profile else f"trace{args.trace}"
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.size}-seed{args.seed}-{mode}"
    shutil.rmtree(out_dir, ignore_errors=True)
    jobs_dir = out_dir / "jobs"
    jobs_dir.mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, args.size, default_config().to_dict())
    clk = clock.Clock()
    runner = Runner(wl, jobs_dir, clk)
    spec_path = out_dir / "workload.json"
    spec_path.write_text(json.dumps({"command": wl.command, "docs": runner.docs}))
    notes = machine_notes(args.seed)

    if args.profile:
        runner.set_up()
        path = out_dir / "profile.txt"
        profile(runner, path)
        print(f"wrote {path}")
        return 0

    setup_raw, setup_s = (None, None) if args.trace else time_setup(spec_path)
    runner.set_up()
    with clk:
        m = measure(runner, args.seconds, bool(args.trace), started)
    if args.trace:
        values = per_layer(m)
        wanted = bench["per_layer"]
        write_spans(m["tracer"], out_dir / "spans.jsonl")
    else:
        values = end_to_end(m, setup_s, runner)
        wanted = bench["end_to_end"] + [
            {"name": "error_rate", "unit": "fraction", "better": "lower"}]
    shutil.rmtree(jobs_dir)

    for key, value in notes.items():
        print(f"machine.{key}: {value}")
    walls = [b["wall"] for b in m["plain"]]
    print(f"workload {wl.name}: {len(wl.docs)} jobs per batch, {len(walls)} untraced "
          f"batches, {len(m['passes'])} traced passes, {runner.attempted} jobs checked")
    print(f"host: raw batch s median {statistics.median(walls):.4f} "
          f"(min {min(walls):.4f}, max {max(walls):.4f}); reference loop "
          f"{len(clk.samples)} samples, speed factor median "
          f"{statistics.median(b['factor'] for b in m['plain']):.3f}")
    if setup_raw is not None:
        print(f"host: raw setup s median {setup_raw:.4f}")
    for spec in wanted:
        print(f"{spec['name']:<40} {values[spec['name']]:>16.6g} {spec['unit']}")
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in (bench["per_layer"] if args.trace else bench["end_to_end"])}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    batches = [{k: b[k] for k in ("wall", "cpu", "jobs", "factor", "work")}
               for b in m["plain"]]
    (out_dir / "result.json").write_text(json.dumps(
        {"machine": notes, "workload": wl.name, **result, "batches": batches}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
