"""Scenario configuration: one JSON document describing a full experiment.

The document carries the three per-kind cell parameters, the overhead /
timing / reliability model parameters, the topology, the sweep axes for
the figure reproduction, and the simulation schedule. ``baseline.json``
(shipped with the package) encodes the reference scenario; values the
underlying study leaves open are listed under ``notes.assumptions``.

Parsing is strict: unknown keys and invalid values raise ConfigError with
a path-qualified message such as ``types.umts.mu: mu must be > 0``.
Parse -> serialize -> parse is the identity.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

from .overhead import OverheadParams
from .queueing import SystemTypeParams
from .reliability import ReliabilityParams, uniform_reliability_params
from .simkernel import BorderEvent, LmmFault, SimScenario
from .timing import HscaTimingParams, TimingParams
from .topology import AccessNetworkKind, Topology, build_topology

__all__ = [
    "ConfigError",
    "ReliabilitySpec",
    "ScenarioConfig",
    "SimSpec",
    "SweepSpec",
    "TopologySpec",
    "default_config",
    "load_config",
]

_KIND_KEYS = {"umts": AccessNetworkKind.UMTS, "wimax": AccessNetworkKind.WIMAX,
              "wlan": AccessNetworkKind.WLAN}


class ConfigError(ValueError):
    """A scenario document failed validation."""


def _expect_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _check_keys(d: dict, allowed: set[str], path: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def _num(d: dict, key: str, path: str, default=None) -> float:
    if key not in d:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}: required")
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {v!r}")
    return _finite(v, f"{path}.{key}")


def _finite(v: int | float, where: str) -> float:
    """``v`` as a float; NaN, infinities and integers beyond the float
    range are refused."""
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {x}")
    return x


def _int(d: dict, key: str, path: str, default=None) -> int:
    if key not in d:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}: required")
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _build(cls, kwargs: dict, path: str):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class TopologySpec:
    grid_count: int
    cells_per_grid: int
    ap_counts: dict[AccessNetworkKind, int]

    def build(self) -> Topology:
        return build_topology(self.grid_count, self.cells_per_grid, self.ap_counts)


@dataclass(frozen=True)
class ReliabilitySpec:
    r_lmm: float
    r_c: float
    k1_lines: int = 1
    k2_lmms: int = 1
    c_uniform: float = 1.0
    b_uniform: float = 1.0
    redundancy_exponent: int | None = None

    def params_for(self, n: int) -> ReliabilityParams:
        return uniform_reliability_params(
            n,
            self.r_lmm,
            self.r_c,
            k1_lines=self.k1_lines,
            k2_lmms=self.k2_lmms,
            c_value=self.c_uniform,
            b_value=self.b_uniform,
            redundancy_exponent=self.redundancy_exponent,
        )


@dataclass(frozen=True)
class SweepSpec:
    lmm_counts: tuple[int, ...]
    reliability_lmm_counts: tuple[int, ...]
    arrival_rates: tuple[float, ...]


@dataclass(frozen=True)
class SimSpec:
    horizon: float = 1000.0
    heartbeat_period: float = 0.5
    heartbeat_timeout: float = 1.5
    balancing_enabled: bool = True
    target_events: int = 1_000_000
    faults: tuple[LmmFault, ...] = ()
    borders: tuple[BorderEvent, ...] = ()

    def scenario(self, window: float) -> SimScenario:
        return SimScenario(
            window=window,
            heartbeat_period=self.heartbeat_period,
            heartbeat_timeout=self.heartbeat_timeout,
            balancing_enabled=self.balancing_enabled,
            faults=self.faults,
            borders=self.borders,
        )


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    output_dir: str
    types: dict[AccessNetworkKind, SystemTypeParams]
    T: float
    d: float
    a_common: float | None
    timing: TimingParams
    hsca_timing: HscaTimingParams
    reliability: ReliabilitySpec
    topology: TopologySpec
    sweeps: SweepSpec
    sim: SimSpec
    notes: dict = field(default_factory=dict)

    def overhead_params(self) -> OverheadParams:
        ordered = tuple(self.types[kind] for kind in AccessNetworkKind)
        return OverheadParams(T=self.T, d=self.d, types=ordered, a_common=self.a_common)

    # -- serialization ------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        doc = _expect_mapping(doc, "config")
        _check_keys(
            doc,
            {"seed", "output_dir", "types", "overhead", "timing", "hsca_timing",
             "reliability", "topology", "sweeps", "sim", "notes"},
            "config",
        )
        seed = _int(doc, "seed", "config", default=0)
        output_dir = doc.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError(f"config.output_dir: expected a string, got {output_dir!r}")

        types_doc = _expect_mapping(doc.get("types", {}), "types")
        _check_keys(types_doc, set(_KIND_KEYS), "types")
        types: dict[AccessNetworkKind, SystemTypeParams] = {}
        for key, kind in _KIND_KEYS.items():
            if key not in types_doc:
                raise ConfigError(f"types.{key}: required")
            td = _expect_mapping(types_doc[key], f"types.{key}")
            _check_keys(td, {"lam", "mu", "m", "k1", "k2", "ap_count", "report_cost"},
                        f"types.{key}")
            types[kind] = _build(
                SystemTypeParams,
                dict(
                    lam=_num(td, "lam", f"types.{key}"),
                    mu=_num(td, "mu", f"types.{key}"),
                    m=_int(td, "m", f"types.{key}"),
                    k1=_int(td, "k1", f"types.{key}"),
                    k2=_int(td, "k2", f"types.{key}"),
                    ap_count=_int(td, "ap_count", f"types.{key}", default=0),
                    report_cost=_num(td, "report_cost", f"types.{key}", default=1.0),
                ),
                f"types.{key}",
            )

        ov = _expect_mapping(doc.get("overhead", {}), "overhead")
        _check_keys(ov, {"T", "d", "a_common"}, "overhead")
        T = _num(ov, "T", "overhead")
        d_cost = _num(ov, "d", "overhead")
        a_common = _num(ov, "a_common", "overhead") if "a_common" in ov else None
        if T <= 0:
            raise ConfigError(f"overhead.T: must be > 0, got {T}")
        if d_cost < 0:
            raise ConfigError(f"overhead.d: must be >= 0, got {d_cost}")

        tm = _expect_mapping(doc.get("timing", {}), "timing")
        _check_keys(tm, {"t1", "d_rl", "s_rl", "d_ll", "s_ll", "lambda_report",
                         "mu_serve"}, "timing")
        timing = _build(
            TimingParams,
            {k: _num(tm, k, "timing") for k in
             ("t1", "d_rl", "s_rl", "d_ll", "s_ll", "lambda_report", "mu_serve")},
            "timing",
        )

        hs = _expect_mapping(doc.get("hsca_timing", {}), "hsca_timing")
        _check_keys(hs, {"t1", "d_rr", "s_rr", "d_ris", "s_ris", "d_ibi", "s_ibi",
                         "rho_ra", "rho_is", "mu"}, "hsca_timing")
        hsca = _build(
            HscaTimingParams,
            {k: _num(hs, k, "hsca_timing") for k in
             ("t1", "d_rr", "s_rr", "d_ris", "s_ris", "d_ibi", "s_ibi",
              "rho_ra", "rho_is", "mu")},
            "hsca_timing",
        )

        rl = _expect_mapping(doc.get("reliability", {}), "reliability")
        _check_keys(rl, {"r_lmm", "r_c", "k1_lines", "k2_lmms", "c_uniform",
                         "b_uniform", "redundancy_exponent"}, "reliability")
        exponent = rl.get("redundancy_exponent")
        if exponent is not None:
            exponent = _int(rl, "redundancy_exponent", "reliability")
        reliability = _build(
            ReliabilitySpec,
            dict(
                r_lmm=_num(rl, "r_lmm", "reliability"),
                r_c=_num(rl, "r_c", "reliability"),
                k1_lines=_int(rl, "k1_lines", "reliability", default=1),
                k2_lmms=_int(rl, "k2_lmms", "reliability", default=1),
                c_uniform=_num(rl, "c_uniform", "reliability", default=1.0),
                b_uniform=_num(rl, "b_uniform", "reliability", default=1.0),
                redundancy_exponent=exponent,
            ),
            "reliability",
        )
        for name in ("r_lmm", "r_c"):
            v = getattr(reliability, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"reliability.{name}: must be in [0, 1], got {v}")

        tp = _expect_mapping(doc.get("topology", {}), "topology")
        _check_keys(tp, {"grid_count", "cells_per_grid", "ap_counts"}, "topology")
        ap_doc = _expect_mapping(tp.get("ap_counts", {}), "topology.ap_counts")
        _check_keys(ap_doc, set(_KIND_KEYS), "topology.ap_counts")
        ap_counts = {
            kind: _int(ap_doc, key, "topology.ap_counts", default=0)
            for key, kind in _KIND_KEYS.items()
        }
        topology = TopologySpec(
            grid_count=_int(tp, "grid_count", "topology"),
            cells_per_grid=_int(tp, "cells_per_grid", "topology"),
            ap_counts=ap_counts,
        )
        if topology.grid_count < 1:
            raise ConfigError(f"topology.grid_count: must be >= 1, got {topology.grid_count}")
        if topology.cells_per_grid < 1:
            raise ConfigError(
                f"topology.cells_per_grid: must be >= 1, got {topology.cells_per_grid}"
            )

        sw = _expect_mapping(doc.get("sweeps", {}), "sweeps")
        _check_keys(sw, {"lmm_counts", "reliability_lmm_counts", "arrival_rates"},
                    "sweeps")

        def _num_list(key: str, integral: bool) -> tuple:
            raw = sw.get(key)
            if not isinstance(raw, list) or not raw:
                raise ConfigError(f"sweeps.{key}: expected a non-empty list")
            out = []
            for i, v in enumerate(raw):
                if isinstance(v, bool) or not isinstance(v, (int, float)) or (
                    integral and not isinstance(v, int)
                ):
                    raise ConfigError(f"sweeps.{key}[{i}]: invalid value {v!r}")
                out.append(v if integral else _finite(v, f"sweeps.{key}[{i}]"))
            return tuple(out)

        sweeps = SweepSpec(
            lmm_counts=_num_list("lmm_counts", integral=True),
            reliability_lmm_counts=_num_list("reliability_lmm_counts", integral=True),
            arrival_rates=_num_list("arrival_rates", integral=False),
        )

        sm = _expect_mapping(doc.get("sim", {}), "sim")
        _check_keys(sm, {"horizon", "heartbeat_period", "heartbeat_timeout",
                         "balancing_enabled", "target_events", "faults", "borders"},
                    "sim")
        balancing = sm.get("balancing_enabled", True)
        if not isinstance(balancing, bool):
            raise ConfigError(f"sim.balancing_enabled: expected a bool, got {balancing!r}")
        faults = []
        for i, fd in enumerate(sm.get("faults", [])):
            fd = _expect_mapping(fd, f"sim.faults[{i}]")
            _check_keys(fd, {"time", "lmm_id"}, f"sim.faults[{i}]")
            faults.append(
                LmmFault(time=_num(fd, "time", f"sim.faults[{i}]"),
                         lmm_id=_int(fd, "lmm_id", f"sim.faults[{i}]"))
            )
        borders = []
        for i, bd in enumerate(sm.get("borders", [])):
            bd = _expect_mapping(bd, f"sim.borders[{i}]")
            _check_keys(bd, {"time", "cell_id"}, f"sim.borders[{i}]")
            borders.append(
                BorderEvent(time=_num(bd, "time", f"sim.borders[{i}]"),
                            cell_id=_int(bd, "cell_id", f"sim.borders[{i}]"))
            )
        sim = _build(
            SimSpec,
            dict(
                horizon=_num(sm, "horizon", "sim", default=1000.0),
                heartbeat_period=_num(sm, "heartbeat_period", "sim", default=0.5),
                heartbeat_timeout=_num(sm, "heartbeat_timeout", "sim", default=1.5),
                balancing_enabled=balancing,
                target_events=_int(sm, "target_events", "sim", default=1_000_000),
                faults=tuple(faults),
                borders=tuple(borders),
            ),
            "sim",
        )
        if sim.horizon <= 0:
            raise ConfigError(f"sim.horizon: must be > 0, got {sim.horizon}")
        if sim.heartbeat_period <= 0:
            raise ConfigError(
                f"sim.heartbeat_period: must be > 0, got {sim.heartbeat_period}"
            )
        if sim.heartbeat_timeout <= sim.heartbeat_period:
            raise ConfigError(
                "sim.heartbeat_timeout: must exceed sim.heartbeat_period, got "
                f"{sim.heartbeat_timeout} <= {sim.heartbeat_period}"
            )

        notes = doc.get("notes", {})
        if not isinstance(notes, dict):
            raise ConfigError(f"config.notes: expected an object, got {notes!r}")

        return cls(
            seed=seed,
            output_dir=output_dir,
            types=types,
            T=T,
            d=d_cost,
            a_common=a_common,
            timing=timing,
            hsca_timing=hsca,
            reliability=reliability,
            topology=topology,
            sweeps=sweeps,
            sim=sim,
            notes=notes,
        )

    def to_dict(self) -> dict:
        key_of = {kind: key for key, kind in _KIND_KEYS.items()}
        doc: dict[str, Any] = {
            "seed": self.seed,
            "output_dir": self.output_dir,
            "types": {
                key_of[kind]: {
                    "lam": t.lam, "mu": t.mu, "m": t.m, "k1": t.k1, "k2": t.k2,
                    "ap_count": t.ap_count, "report_cost": t.report_cost,
                }
                for kind, t in sorted(self.types.items())
            },
            "overhead": {"T": self.T, "d": self.d},
            "timing": {
                "t1": self.timing.t1,
                "d_rl": self.timing.d_rl, "s_rl": self.timing.s_rl,
                "d_ll": self.timing.d_ll, "s_ll": self.timing.s_ll,
                "lambda_report": self.timing.lambda_report,
                "mu_serve": self.timing.mu_serve,
            },
            "hsca_timing": {
                "t1": self.hsca_timing.t1,
                "d_rr": self.hsca_timing.d_rr, "s_rr": self.hsca_timing.s_rr,
                "d_ris": self.hsca_timing.d_ris, "s_ris": self.hsca_timing.s_ris,
                "d_ibi": self.hsca_timing.d_ibi, "s_ibi": self.hsca_timing.s_ibi,
                "rho_ra": self.hsca_timing.rho_ra, "rho_is": self.hsca_timing.rho_is,
                "mu": self.hsca_timing.mu,
            },
            "reliability": {
                "r_lmm": self.reliability.r_lmm, "r_c": self.reliability.r_c,
                "k1_lines": self.reliability.k1_lines,
                "k2_lmms": self.reliability.k2_lmms,
                "c_uniform": self.reliability.c_uniform,
                "b_uniform": self.reliability.b_uniform,
                "redundancy_exponent": self.reliability.redundancy_exponent,
            },
            "topology": {
                "grid_count": self.topology.grid_count,
                "cells_per_grid": self.topology.cells_per_grid,
                "ap_counts": {
                    key_of[kind]: count
                    for kind, count in sorted(self.topology.ap_counts.items())
                },
            },
            "sweeps": {
                "lmm_counts": list(self.sweeps.lmm_counts),
                "reliability_lmm_counts": list(self.sweeps.reliability_lmm_counts),
                "arrival_rates": list(self.sweeps.arrival_rates),
            },
            "sim": {
                "horizon": self.sim.horizon,
                "heartbeat_period": self.sim.heartbeat_period,
                "heartbeat_timeout": self.sim.heartbeat_timeout,
                "balancing_enabled": self.sim.balancing_enabled,
                "target_events": self.sim.target_events,
                "faults": [{"time": f.time, "lmm_id": f.lmm_id} for f in self.sim.faults],
                "borders": [{"time": b.time, "cell_id": b.cell_id} for b in self.sim.borders],
            },
        }
        if self.a_common is not None:
            doc["overhead"]["a_common"] = self.a_common
        if self.notes:
            doc["notes"] = self.notes
        return doc

    def save(self, path: str | Path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return ScenarioConfig.from_dict(doc)


def default_config() -> ScenarioConfig:
    """The packaged reference scenario."""
    text = resources.files("sdlb").joinpath("presets/baseline.json").read_text()
    return ScenarioConfig.from_dict(json.loads(text))
