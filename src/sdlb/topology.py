"""Grid topology of the semi-distributed load-balancing architecture.

The managed network is a set of basic grids of hexagonal cells, each grid
run by one manager node (LMM, bundled with its resource inventory and
mobile agent into one management unit). Every LMM is backed by its two
ring neighbours, and the load bulletin board lives on one LMM with
replicas on two others. Junction lines are the inter-LMM links; at most
``floor(n/3) + n % 3 + 1`` of them exist for ``n`` LMMs.

Everything here is immutable after construction and free of randomness:
the same inputs always produce the same topology.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

__all__ = [
    "AccessNetworkKind",
    "Cell",
    "Grid",
    "Topology",
    "build_topology",
    "check_grid_shape",
    "max_junction_lines",
]


class AccessNetworkKind(IntEnum):
    """The three overlaid access-network types, with stable indices."""

    UMTS = 1
    WIMAX = 2
    WLAN = 3


@dataclass(frozen=True)
class Cell:
    """One hexagonal cell: member of exactly one basic grid.

    ``ap_counts`` always carries an entry for every access-network kind
    (zero is allowed).
    """

    cell_id: int
    grid_id: int
    ap_counts: dict[AccessNetworkKind, int]


@dataclass(frozen=True)
class Grid:
    """A basic grid: a cluster of cells managed by one LMM."""

    grid_id: int
    lmm_id: int
    cells: tuple[Cell, ...]


@dataclass(frozen=True)
class Topology:
    """The full management structure.

    backup_map maps each LMM to its ordered pair of backup LMMs; the
    first live entry takes over on failure. junction_lines
    holds exactly ``max_junction_lines(lmm_count)`` undirected LMM-LMM
    links, each stored as an (low, high) id pair.
    """

    grids: tuple[Grid, ...]
    lmm_count: int
    backup_map: dict[int, tuple[int, int]]
    junction_lines: tuple[tuple[int, int], ...]
    bb_primary: int
    bb_backups: tuple[int, int]

    @property
    def cells(self) -> tuple[Cell, ...]:
        return tuple(c for g in self.grids for c in g.cells)

    @property
    def cell_count(self) -> int:
        return sum(len(g.cells) for g in self.grids)


def max_junction_lines(n: int) -> int:
    """Maximum number of inter-LMM junction lines for n LMMs.

    Computed as floor(n/3) + (n mod 3) + 1; both divisions are integer.
    """
    if n < 1:
        raise ValueError(f"LMM count must be >= 1, got {n}")
    return n // 3 + n % 3 + 1


def check_grid_shape(grid_count: int, cells_per_grid: int):
    """At least one grid, and at least one cell per grid."""
    if grid_count < 1:
        raise ValueError(f"grid_count must be >= 1, got {grid_count}")
    if cells_per_grid < 1:
        raise ValueError(f"cells_per_grid must be >= 1, got {cells_per_grid}")


def build_topology(
    grid_count: int,
    cells_per_grid: int,
    ap_counts: dict[AccessNetworkKind, int],
) -> Topology:
    """Build a deterministic topology with one LMM per basic grid.

    Backups are the two ring-adjacent LMMs (successor first, wrap-around),
    the bulletin board is hosted on LMM 0 with replicas on LMMs 1 and 2,
    and the junction lines are the first ``max_junction_lines(n)`` edges
    of the LMM ring. Every cell gets the same ``ap_counts``.

    Raises ValueError for fewer than 3 grids: the bulletin board needs two
    backups distinct from its primary.
    """
    check_grid_shape(grid_count, cells_per_grid)
    if grid_count < 3:
        raise ValueError(
            f"insufficient LMMs for BB replication (need >= 3 grids, got {grid_count})"
        )
    counts = {kind: int(ap_counts.get(kind, 0)) for kind in AccessNetworkKind}
    for kind, cnt in counts.items():
        if cnt < 0:
            raise ValueError(f"ap_counts[{kind.name}] must be >= 0, got {cnt}")

    n = grid_count
    grids = []
    cell_id = 0
    for g in range(n):
        cells = []
        for _ in range(cells_per_grid):
            cells.append(Cell(cell_id=cell_id, grid_id=g, ap_counts=dict(counts)))
            cell_id += 1
        grids.append(Grid(grid_id=g, lmm_id=g, cells=tuple(cells)))

    backup_map = {i: ((i + 1) % n, (i - 1) % n) for i in range(n)}

    n_lines = max_junction_lines(n)
    ring = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    # n_lines <= n holds for every n >= 3, so the ring always suffices
    junction_lines = tuple(ring[:n_lines])

    return Topology(
        grids=tuple(grids),
        lmm_count=n,
        backup_map=backup_map,
        junction_lines=junction_lines,
        bb_primary=0,
        bb_backups=(1, 2),
    )
