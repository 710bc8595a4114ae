"""Seeded scenario documents and the job that consumes each one.

A workload is a fixed batch of jobs. Each job is one ``sdlb.cli.cmd_*``
call on one generated scenario document; the seed only perturbs values,
never sizes, so every seed gives the batch the same amount of work.
``size="tiny"`` shrinks every workload for the smoke check.
"""
from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "validate" | "scenario" | "figures"
    docs: tuple[dict, ...]

    @property
    def parse_in_job(self) -> bool:
        """sweep times ``ScenarioConfig.from_dict`` as part of each job."""
        return self.command == "figures"


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _validate(base: dict, rng: random.Random, tiny: bool) -> list[dict]:
    # baseline types, several Monte Carlo seeds, CLI-default events per kind
    docs = []
    for _ in range(2):
        doc = copy.deepcopy(base)
        doc["seed"] = _seed(rng)
        doc["sim"]["target_events"] = 20_000 if tiny else 1_000_000
        docs.append(doc)
    return docs


def _faults(rng: random.Random, n_lmm: int, count: int, horizon: float) -> list[dict]:
    """``count`` faults on LMMs that are not each other's backups.

    Ring neighbours back each other up, so faulting two of them would
    leave a grid served by a dead manager; spacing the ids avoids that.
    """
    stride = max(n_lmm // max(count, 1), 2) if n_lmm > 3 else n_lmm
    first = rng.randrange(n_lmm)
    ids = sorted({(first + i * stride) % n_lmm for i in range(count)})
    return [
        {"time": round(rng.uniform(0.1, 0.8) * horizon, 6), "lmm_id": lmm}
        for lmm in ids
    ]


def _borders(rng: random.Random, n_cells: int, count: int, start: float, span: float):
    times = sorted(rng.uniform(start, start + span) for _ in range(count))
    return [{"time": round(t, 6), "cell_id": rng.randrange(n_cells)} for t in times]


def _protocol_ticks(base: dict, rng: random.Random, tiny: bool) -> list[dict]:
    # baseline traffic; cells x horizon held near 21 000 cell-seconds so
    # each job does similar work and the cell count alone varies
    docs = []
    for grids, horizon, n_faults in ((3, 1000.0, 1), (30, 100.0, 2), (300, 10.0, 3)):
        if tiny:
            horizon /= 50
        doc = copy.deepcopy(base)
        doc["seed"] = _seed(rng)
        doc["topology"]["grid_count"] = grids
        n_cells = grids * doc["topology"]["cells_per_grid"]
        doc["sim"]["horizon"] = horizon
        doc["sim"]["faults"] = _faults(rng, grids, n_faults, horizon)
        doc["sim"]["borders"] = _borders(rng, n_cells, 10, 0.0, horizon)
        docs.append(doc)
    return docs


def _protocol_events(base: dict, rng: random.Random, tiny: bool) -> list[dict]:
    # heavy traffic on 21 cells: lam*T = 0.8 < 1 and (k2+1)*mu*T = 0.95 < 1
    horizon = 2.0 if tiny else 100.0
    heavy = {"lam": 8.0, "mu": 0.5, "m": 40, "k1": 12, "k2": 18}
    docs = []
    for _ in range(2):
        doc = copy.deepcopy(base)
        doc["seed"] = _seed(rng)
        for kind in doc["types"].values():
            kind.update(heavy)
        doc["sim"]["horizon"] = horizon
        doc["sim"]["faults"] = _faults(rng, doc["topology"]["grid_count"], 1, horizon)
        burst = rng.uniform(0.2, 0.7) * horizon
        doc["sim"]["borders"] = _borders(rng, 21, 200, burst, 1.0)
        docs.append(doc)
    return docs


def _sweep(base: dict, rng: random.Random, tiny: bool) -> list[dict]:
    """Perturbed baselines inside the first-order validity region.

    Capacities follow the baseline's 60/20/80 split scaled to 100, 1000
    and 10 000 servers for the largest kind; only values are drawn, so
    the cost of a batch does not depend on the seed.
    """
    docs = []
    n_docs = 3 if tiny else 24
    dense = 10 if tiny else 300
    for i in range(n_docs):
        doc = copy.deepcopy(base)
        doc["seed"] = _seed(rng)
        top = (100, 1000, 10_000)[i % 3]
        T = rng.uniform(0.05, 0.2)
        doc["overhead"] = {"T": T, "d": rng.uniform(0.5, 2.0)}
        for kind, share in zip(("umts", "wimax", "wlan"), (0.75, 0.25, 1.0)):
            m = int(top * share)
            k1 = math.ceil(rng.uniform(0.2, 0.4) * m)
            k2 = math.ceil(rng.uniform(0.7, 0.9) * m)
            mu = rng.uniform(0.3, 0.9) / ((k2 + 1) * T)
            lam = rng.uniform(0.2, 0.7) * m * mu
            doc["types"][kind] = {
                "lam": lam, "mu": mu, "m": m, "k1": k1, "k2": k2,
                "ap_count": rng.randrange(100, 1000), "report_cost": 1.0,
            }
        # every hop has the same delay, so fig7's hsca - sda gap is one hop
        hop_len = rng.uniform(200.0, 800.0)
        t1 = rng.uniform(1e-6, 1e-5)
        mu_serve = rng.uniform(800.0, 1200.0)
        doc["timing"] = {
            "t1": t1, "d_rl": hop_len, "s_rl": 5e5, "d_ll": hop_len, "s_ll": 5e5,
            "lambda_report": 0.5 * mu_serve, "mu_serve": mu_serve,
        }
        doc["hsca_timing"] = {
            "t1": t1, "d_rr": hop_len, "s_rr": 5e5, "d_ris": hop_len, "s_ris": 5e5,
            "d_ibi": hop_len, "s_ibi": 5e5, "rho_ra": 0.5, "rho_is": 0.5,
            "mu": mu_serve,
        }
        doc["reliability"].update(
            r_lmm=rng.uniform(0.85, 0.99), r_c=rng.uniform(0.9, 0.99)
        )
        doc["sweeps"] = {
            "lmm_counts": list(range(1, dense + 1)),
            "reliability_lmm_counts": list(range(3, dense + 1)),
            "arrival_rates": [
                mu_serve * (0.01 + 0.94 * j / (dense - 1)) for j in range(dense)
            ],
        }
        docs.append(doc)
    return docs


_BUILDERS = {
    "validate": ("validate", _validate),
    "protocol_ticks": ("scenario", _protocol_ticks),
    "protocol_events": ("scenario", _protocol_events),
    "sweep": ("figures", _sweep),
}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, size: str, baseline: dict) -> Workload:
    """The workload's batch for ``seed``; ``baseline`` is the preset document."""
    command, builder = _BUILDERS[name]
    base = copy.deepcopy(baseline)
    base.pop("notes", None)
    docs = builder(base, _rng(name, seed), size == "tiny")
    return Workload(name=name, command=command, docs=tuple(docs))
