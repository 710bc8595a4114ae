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
from typing import ClassVar

__all__ = [
    "AccessNetworkKind",
    "Topology",
    "build_topology",
    "check_topology",
    "max_junction_lines",
]


class AccessNetworkKind(IntEnum):
    """The three overlaid access-network types, with stable indices."""

    UMTS = 1
    WIMAX = 2
    WLAN = 3


@dataclass(frozen=True)
class Topology:
    """The full management structure, derived from three numbers.

    Cell c belongs to basic grid ``c // cells_per_grid``, and grid g is run
    by LMM g, so there are ``lmm_count`` grids. Every cell has the same
    ``ap_counts``, which carries an entry for every access-network kind
    (zero is allowed). LMM i is backed by its ring neighbours (``backups``);
    the bulletin board lives on LMM 0 with replicas on LMMs 1 and 2.
    """

    lmm_count: int
    cells_per_grid: int
    ap_counts: dict[AccessNetworkKind, int]
    bb_primary: ClassVar[int] = 0
    bb_backups: ClassVar[tuple[int, int]] = (1, 2)

    @property
    def cell_count(self) -> int:
        return self.lmm_count * self.cells_per_grid

    def backups(self, lmm: int) -> tuple[int, int]:
        """lmm's ordered backups, successor first: the first live one takes over."""
        n = self.lmm_count
        return (lmm + 1) % n, (lmm - 1) % n


def max_junction_lines(n: int) -> int:
    """Maximum number of inter-LMM junction lines for n LMMs.

    Computed as floor(n/3) + (n mod 3) + 1; both divisions are integer.
    """
    if n < 1:
        raise ValueError(f"LMM count must be >= 1, got {n}")
    return n // 3 + n % 3 + 1


def check_topology(grid_count: int, cells_per_grid: int, ap_counts: dict[AccessNetworkKind, int]):
    """At least 3 grids (the bulletin board needs two backups distinct from
    its primary), at least one cell per grid, and no negative AP count."""
    if grid_count < 3:
        raise ValueError(
            f"grid_count must be >= 3 (the bulletin board needs two backups), got {grid_count}"
        )
    if cells_per_grid < 1:
        raise ValueError(f"cells_per_grid must be >= 1, got {cells_per_grid}")
    for kind, count in ap_counts.items():
        if count < 0:
            raise ValueError(f"ap_counts.{kind.name.lower()} must be >= 0, got {count}")


def build_topology(
    grid_count: int,
    cells_per_grid: int,
    ap_counts: dict[AccessNetworkKind, int],
) -> Topology:
    """Build the topology with one LMM per basic grid; a kind left out of
    ``ap_counts`` gets 0 APs. Raises ValueError where ``check_topology`` does."""
    check_topology(grid_count, cells_per_grid, ap_counts)
    counts = {kind: int(ap_counts.get(kind, 0)) for kind in AccessNetworkKind}
    return Topology(lmm_count=grid_count, cells_per_grid=cells_per_grid, ap_counts=counts)
