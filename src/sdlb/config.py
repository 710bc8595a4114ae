"""Scenario configuration: one JSON document describing a full experiment.

``baseline.json`` (shipped with the package) encodes the reference
scenario; values the underlying study leaves open are listed under
``notes.assumptions``. Each section of the document is one dataclass and
each key one of its fields: the codec is derived from the fields and
their annotations, and a key may be left out only where its field has a
default. Range rules live in the ``__post_init__`` of the dataclass that
owns the value; the codec reports them, like any bad value, as a
path-qualified ConfigError such as ``types.umts.mu: must be > 0, got
-1.0``. Parse -> serialize -> parse is the identity.

Parsing needs only the parameter types (``sdlb.params``) and the
topology; the methods that evaluate a model import it when called.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, get_args, get_origin, get_type_hints

from .params import (
    HscaTimingParams,
    SystemTypeParams,
    TimingParams,
    check_period_and_cost,
    check_reliabilities,
    check_weights,
)
from .topology import (
    AccessNetworkKind,
    BorderEvent,
    LmmFault,
    SimScenario,
    Topology,
    build_topology,
    check_schedules,
    check_topology,
)

if TYPE_CHECKING:  # only for annotations
    from .overhead import OverheadParams
    from .reliability import ReliabilityParams

__all__ = ["ConfigError", "OverheadSpec", "ReliabilitySpec", "ScenarioConfig", "SimSpec",
           "SweepSpec", "TopologySpec", "default_config", "load_config"]

_KINDS = {kind.name.lower(): kind for kind in AccessNetworkKind}
_KIND_KEYS = frozenset(_KINDS)


# The most work a document may ask of one command, so that every valid
# document ends. Scenario work counts each cell's arrival and departure
# events (at most 2*lam per second and kind) and report ticks, and each
# LMM's heartbeats, over sim.horizon; validate work counts
# sim.target_events for each kind with traffic. The baseline asks for
# 2.8e5 and 3e6 units.
WORK_CAP = 10**9

# The most memory one kind's tallies may take, so that every valid document
# runs in bounded memory. The cell kernel (``run_cell_mc``) keeps two
# 64 x (k + 1) float64 arrays of batch times, the totals and one chunk's,
# for k the highest occupancy reached; a chain that fills to m needs
# 64 x (m + 1) each (64 is ``simkernel._BATCHES``, which set-up does not
# import; a test ties the two), so a capacity m may be at most
# MAX_CAPACITY = 262 143.
MEMORY_BUDGET = 256 * 2**20
MAX_CAPACITY = MEMORY_BUDGET // (2 * 64 * 8) - 1
# The protocol simulator (``run_system_sim``) must fit in the same budget.
# Each of its cells * kinds streams keeps an RNG, a draw buffer and
# tallies: tracemalloc measured 1140-1256 B per stream at a horizon of
# 1e-6 on 2100 and 21 000 cells. Each of a stream's at most m live
# sessions keeps an id and a queued departure: 211-236 B per occupied
# server in saturated 3-cell runs at m = 1000-4000.
STREAM_BYTES = 1280
SESSION_BYTES = 240


class ConfigError(ValueError):
    """A scenario document failed validation."""


@dataclass(frozen=True)
class OverheadSpec:
    """The ``overhead`` section: the scalars of OverheadParams."""

    T: float
    d: float

    def __post_init__(self):
        check_period_and_cost(self.T, self.d)


@dataclass(frozen=True)
class TopologySpec:
    grid_count: int
    cells_per_grid: int

    def __post_init__(self):
        check_topology(self.grid_count, self.cells_per_grid)

    def build(self) -> Topology:
        return build_topology(self.grid_count, self.cells_per_grid)


@dataclass(frozen=True)
class ReliabilitySpec:
    r_lmm: float
    r_c: float
    k1_lines: int = 1
    k2_lmms: int = 1
    c_uniform: float = 1.0
    b_uniform: float = 1.0

    def __post_init__(self):
        check_reliabilities(self.r_lmm, self.r_c)
        check_weights(c_uniform=self.c_uniform, b_uniform=self.b_uniform)

    def params_for(self, n: int) -> ReliabilityParams:
        from .reliability import uniform_reliability_params

        return uniform_reliability_params(n, *self._uniform_args())

    def swept_integrated_reliability(self, ns: Sequence[int]) -> list[float]:
        """``integrated_reliability(self.params_for(n))`` for each n of ``ns``,
        without the params."""
        from .reliability import swept_integrated_reliability

        return swept_integrated_reliability(ns, *self._uniform_args())

    def _uniform_args(self) -> tuple:
        return (self.r_lmm, self.r_c, self.k1_lines, self.k2_lmms, self.c_uniform, self.b_uniform)


@dataclass(frozen=True)
class SweepSpec:
    lmm_counts: tuple[int, ...]
    reliability_lmm_counts: tuple[int, ...]
    arrival_rates: tuple[float, ...]

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name):
                raise ValueError(f"{f.name} must not be empty")
        if min(self.lmm_counts) < 1:
            i, n = next((i, n) for i, n in enumerate(self.lmm_counts) if n < 1)
            raise ValueError(f"lmm_counts[{i}] must be >= 1, got {n}")


@dataclass(frozen=True)
class SimSpec:
    """SimScenario's knobs (its window is T), the horizon and validate's event target."""

    horizon: float = 1000.0
    heartbeat_period: float = 0.5
    heartbeat_timeout: float = 1.5
    balancing_enabled: bool = True
    target_events: int = 1_000_000
    faults: tuple[LmmFault, ...] = ()
    borders: tuple[BorderEvent, ...] = ()

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.target_events < 1:
            raise ValueError(f"target_events must be >= 1, got {self.target_events}")
        # the heartbeat rules are SimScenario's
        SimScenario(heartbeat_period=self.heartbeat_period,
                    heartbeat_timeout=self.heartbeat_timeout)

    def scenario(self, window: float) -> SimScenario:
        return SimScenario(
            window=window, heartbeat_period=self.heartbeat_period,
            heartbeat_timeout=self.heartbeat_timeout,
            balancing_enabled=self.balancing_enabled, faults=self.faults, borders=self.borders,
        )


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    seed: int = 0
    output_dir: str = "out"
    types: dict[AccessNetworkKind, SystemTypeParams]
    overhead: OverheadSpec
    timing: TimingParams
    hsca_timing: HscaTimingParams
    reliability: ReliabilitySpec
    topology: TopologySpec
    sweeps: SweepSpec
    sim: SimSpec = field(default_factory=SimSpec)
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        n_lmm = self.topology.grid_count
        n_cells = n_lmm * self.topology.cells_per_grid
        try:
            check_schedules(self.sim.faults, self.sim.borders, n_lmm, n_cells)
        except ValueError as exc:
            raise ValueError(f"sim.{exc}") from None
        for kind, p in self.types.items():
            if p.m > MAX_CAPACITY:
                raise ValueError(
                    f"types.{kind.name.lower()}.m must be <= {MAX_CAPACITY}, so that the cell "
                    f"kernel's 2 * 64 * (m + 1) float64 tallies fit in "
                    f"{MEMORY_BUDGET // 2**20} MiB, got {p.m}"
                )
        sim, kinds = self.sim, self.types.values()
        per_cell = sum(STREAM_BYTES + p.m * SESSION_BYTES for p in kinds)
        if n_cells * per_cell > MEMORY_BUDGET:
            raise ValueError(
                f"topology must keep the protocol simulator's cells * sum over types of "
                f"({STREAM_BYTES} + {SESSION_BYTES} * m) bytes <= {MEMORY_BUDGET // 2**20} MiB, "
                f"got {n_cells} * {per_cell} = {n_cells * per_cell:.3g}"
            )
        cell_rate = sum(2.0 * p.lam for p in kinds) + 1.0 / self.overhead.T
        scenario_work = sim.horizon * (n_cells * cell_rate + n_lmm / sim.heartbeat_period)
        validate_work = sim.target_events * sum(p.lam > 0 for p in kinds)
        for key, what, work in (("horizon", "scenario", scenario_work),
                                ("target_events", "validate", validate_work)):
            if work > WORK_CAP:
                raise ValueError(
                    f"sim.{key} must keep {what} work <= {WORK_CAP:.0e} units, got {work:.3g}"
                )

    def overhead_params(self) -> OverheadParams:
        from .overhead import OverheadParams

        ordered = tuple(self.types[kind] for kind in AccessNetworkKind)
        return OverheadParams(T=self.overhead.T, d=self.overhead.d, types=ordered)

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        try:
            return _dataclass_decoder(cls)(doc)
        except _Invalid as exc:
            raise ConfigError(f"{exc.path()}: {exc}") from None

    def to_dict(self) -> dict:
        """Every field is written."""
        return _encode(self)

    def save(self, path: str | Path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


class _Invalid(Exception):
    """A bad value. ``where`` gathers its path innermost first while the
    error propagates, so a path is only formatted for a failed parse."""

    def __init__(self, message: str, *where: str | int):
        super().__init__(message)
        self.where = list(where)

    def path(self) -> str:
        parts = (f"[{p}]" if isinstance(p, int) else f".{p}" for p in reversed(self.where))
        return "".join(parts).lstrip(".") or "config"


def _entries(v: Any, plan: list, known) -> dict:
    """Object ``v`` decoded by ``plan``, (key, decoder, required) triples."""
    if not known.issuperset(_object(v)):
        raise _Invalid(f"unknown keys {sorted(v.keys() - known)}")
    out = {}
    for key, decode, required in plan:
        if key in v:
            try:
                out[key] = decode(v[key])
            except _Invalid as exc:
                exc.where.append(key)
                raise
        elif required:
            raise _Invalid("required", key)
    return out


def _instance(cls: type, what: str) -> Callable[[Any], Any]:
    def decode(v):
        if not isinstance(v, cls):
            raise _Invalid(f"expected {what}, got {v!r}")
        return v

    return decode


# bool is an int subclass, but neither a number nor an integer here
def _number(v: Any) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _Invalid(f"expected a number, got {v!r}")
    if not -sys.float_info.max <= v <= sys.float_info.max:
        raise _Invalid(f"expected a finite number, got {v}")
    return float(v)


def _integer(v: Any) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise _Invalid(f"expected an integer, got {v!r}")
    if not -2**63 <= v < 2**63:
        raise _Invalid(f"expected an integer in the int64 range, got {v}")
    return v


_object = _instance(dict, "an object")
_SCALARS = {float: _number, int: _integer, bool: _instance(bool, "a bool"),
            str: _instance(str, "a string"), dict: _object}
_list = _instance(list, "a list")


def _integers(items: list) -> tuple | None:
    """``items`` decoded by ``_integer`` in one pass, or None if it would
    refuse one: each is exactly an int, all in the int64 range."""
    if set(map(type, items)) <= {int} and (
            not items or -2**63 <= min(items) and max(items) < 2**63):
        return tuple(items)
    return None


def _numbers(items: list) -> tuple | None:
    """``items`` decoded by ``_number`` in one pass, or None if it would
    refuse one: each is exactly an int or a float, all lie in the float
    range, compared exactly as ``_number`` does, and none is NaN (which
    ``min`` and ``max`` may pass over, but which makes the sum NaN)."""
    big = sys.float_info.max
    if set(map(type, items)) <= {int, float} and (
            not items or -big <= min(items) and max(items) <= big):
        out = tuple(map(float, items))
        if math.isfinite(sum(out)):
            return out
    return None


# the item decoders whose lists are decoded in one pass; a list the pass
# refuses is decoded item by item, which names the first bad item
_BULK = {_integer: _integers, _number: _numbers}


def _list_of(item: Callable) -> Callable[[Any], tuple]:
    bulk = _BULK.get(item)

    def decode(v):
        items, out = _list(v), []
        if bulk is not None and (decoded := bulk(items)) is not None:
            return decoded
        try:
            for x in items:
                out.append(item(x))
        except _Invalid as exc:
            exc.where.append(len(out))
            raise
        return tuple(out)

    return decode


def _decoder(tp) -> Callable[[Any], Any]:
    if is_dataclass(tp):
        return _dataclass_decoder(tp)
    args, origin = get_args(tp), get_origin(tp)
    if origin is tuple:
        return _list_of(_decoder(args[0]))
    if origin is dict:
        # keyed by kind name; every kind is required
        plan = [(key, _decoder(args[1]), True) for key in _KINDS]
        return lambda v: {_KINDS[k]: x for k, x in _entries(v, plan, _KIND_KEYS).items()}
    return _SCALARS[tp]


@functools.cache
def _dataclass_decoder(cls: type) -> Callable[[Any], Any]:
    hints = get_type_hints(cls)
    # a field is required where it has neither a default nor a default factory
    plan = [(f.name, _decoder(hints[f.name]), f.default is f.default_factory is MISSING)
            for f in fields(cls)]
    names = frozenset(name for name, _, _ in plan)

    def decode(v):
        kwargs = _entries(v, plan, names)
        try:
            return cls(**kwargs)
        except ValueError as exc:
            # a broken range rule is filed under the field (or the path
            # into one) its message opens with, else under the dataclass
            head, _, rest = str(exc).partition(" ")
            if rest and head.split(".")[0].split("[")[0] in names:
                raise _Invalid(rest, head) from None
            raise _Invalid(str(exc)) from None

    return decode


def _encode(v: Any) -> Any:
    if is_dataclass(v):
        return {f.name: _encode(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, tuple):
        return [_encode(x) for x in v]
    if isinstance(v, dict):
        return {k.name.lower() if isinstance(k, AccessNetworkKind) else k: _encode(x)
                for k, x in v.items()}
    return v


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return ScenarioConfig.from_dict(doc)


def default_config() -> ScenarioConfig:
    """The packaged reference scenario."""
    text = resources.files("sdlb").joinpath("presets/baseline.json").read_text()
    return ScenarioConfig.from_dict(json.loads(text))
