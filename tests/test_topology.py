import pytest
from hypothesis import given, strategies as st

from sdlb.topology import AccessNetworkKind, build_topology, max_junction_lines

AP_ONE = {kind: 1 for kind in AccessNetworkKind}


class TestMaxJunctionLines:
    @pytest.mark.parametrize(
        "n,expected",
        [(3, 2), (10, 5), (300, 101), (1, 2), (9, 4), (50, 19), (100, 35)],
    )
    def test_values(self, n, expected):
        assert max_junction_lines(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            max_junction_lines(0)

    @given(st.integers(min_value=3, max_value=100_000))
    def test_bounds(self, n):
        lines = max_junction_lines(n)
        assert 2 <= lines < n + 2


class TestBuildTopology:
    def test_three_grids(self):
        topo = build_topology(3, 7, AP_ONE)
        assert topo.lmm_count == 3
        assert topo.cells_per_grid == 7
        assert topo.cell_count == 21
        assert topo.bb_primary == 0
        assert topo.bb_backups == (1, 2)

    def test_two_grids_rejected(self):
        with pytest.raises(ValueError, match=r"^grid_count must be >= 3 .*got 2$"):
            build_topology(2, 7, AP_ONE)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match=r"^grid_count must be >= 3 .*got 0$"):
            build_topology(0, 7, AP_ONE)
        with pytest.raises(ValueError, match=r"^cells_per_grid must be >= 1, got 0$"):
            build_topology(3, 0, AP_ONE)
        with pytest.raises(ValueError, match=r"^ap_counts\.umts must be >= 0, got -1$"):
            build_topology(3, 7, {AccessNetworkKind.UMTS: -1})

    def test_deterministic(self):
        a = build_topology(5, 4, AP_ONE)
        b = build_topology(5, 4, AP_ONE)
        assert a == b

    def test_ap_counts_cover_all_kinds(self):
        topo = build_topology(3, 2, {AccessNetworkKind.WIMAX: 5})
        assert topo.ap_counts == {
            AccessNetworkKind.UMTS: 0, AccessNetworkKind.WIMAX: 5, AccessNetworkKind.WLAN: 0
        }

    @given(st.integers(min_value=3, max_value=200))
    def test_backup_relation(self, n):
        topo = build_topology(n, 1, AP_ONE)
        for lmm in range(n):
            backups = topo.backups(lmm)
            assert backups == ((lmm + 1) % n, (lmm - 1) % n)
            assert len(set(backups)) == 2
            assert lmm not in backups

    def test_bb_primary_not_in_backups(self):
        topo = build_topology(6, 2, AP_ONE)
        assert topo.bb_primary not in topo.bb_backups
        assert len(topo.bb_backups) == 2
