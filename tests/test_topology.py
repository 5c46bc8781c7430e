import numpy as np
import pytest

from fdcell.errors import ConfigError, PlacementError
from fdcell.topology import (
    IndoorConfig,
    OutdoorConfig,
    build_indoor,
    build_outdoor,
    distance,
    pairwise_distance,
)


@pytest.fixture
def indoor():
    return build_indoor(IndoorConfig(), np.random.default_rng(0))


def test_indoor_grid_shape(indoor):
    assert indoor.n_cells == 9
    assert indoor.n_ues == 72
    assert indoor.period_m == 150.0
    # BS at each room center
    bs = indoor.bs_positions()
    expected = [(25.0 + 50.0 * c, 25.0 + 50.0 * r) for r in range(3) for c in range(3)]
    assert np.allclose(bs, expected)


def test_distance_self_is_zero(indoor):
    d, w = distance((12.0, 34.0), (12.0, 34.0), indoor)
    assert d == 0.0
    assert w == 0


def test_wrapped_shorter_than_direct(indoor):
    a, b = np.array([1.0, 25.0]), np.array([149.0, 25.0])
    direct = float(np.linalg.norm(a - b))
    d, _ = distance(a, b, indoor)
    assert d < direct


def test_torus_distance_oracle(indoor):
    # (1,25) to (149,25) on the 150 m torus: 2 m through the wrap,
    # crossing exactly the one wall at x=0.
    d, w = distance((1.0, 25.0), (149.0, 25.0), indoor)
    assert d == pytest.approx(2.0, abs=1e-12)
    assert w == 1


def test_wall_count_between_adjacent_rooms(indoor):
    d, w = distance((25.0, 25.0), (75.0, 25.0), indoor)
    assert d == pytest.approx(50.0)
    assert w == 1
    # two rooms over: the wrapped image at x=-25 is closer (50 m vs 100 m)
    # and that segment crosses a single wall at x=0
    d, w = distance((25.0, 25.0), (125.0, 25.0), indoor)
    assert d == pytest.approx(50.0)
    assert w == 1


def test_ue_containment_one_per_cell():
    topo = build_indoor(IndoorConfig(ues_per_cell=1), np.random.default_rng(7))
    for c in topo.cells:
        row, col = divmod(c.cell_id, 3)
        x, y = c.ue_xy[0]
        assert col * 50.0 <= x < (col + 1) * 50.0
        assert row * 50.0 <= y < (row + 1) * 50.0


def test_indoor_determinism():
    t1 = build_indoor(IndoorConfig(), np.random.default_rng(42))
    t2 = build_indoor(IndoorConfig(), np.random.default_rng(42))
    assert np.array_equal(t1.ue_positions(), t2.ue_positions())
    assert np.array_equal(t1.bs_positions(), t2.bs_positions())


def test_indoor_config_rejected():
    with pytest.raises(ConfigError):
        build_indoor(IndoorConfig(room_side_m=0.0), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        build_indoor(IndoorConfig(ues_per_cell=0), np.random.default_rng(0))


def test_outdoor_single_cell():
    topo = build_outdoor(OutdoorConfig(n_cells=1), np.random.default_rng(0))
    assert topo.n_cells == 1
    assert topo.n_ues == 10


def test_outdoor_spacing_and_containment():
    cfg = OutdoorConfig()
    topo = build_outdoor(cfg, np.random.default_rng(3))
    bs = topo.bs_positions()
    assert topo.n_cells == 12
    d = np.linalg.norm(bs[:, None, :] - bs[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= cfg.min_bs_spacing_m
    # BSs inside the hexagon, UEs within the cell radius of their BS
    from fdcell.topology import _HEX_NORMALS

    assert np.all(bs @ _HEX_NORMALS.T <= cfg.hex_apothem_m + 1e-9)
    for c in topo.cells:
        assert np.all(np.linalg.norm(c.ue_xy - c.bs_xy, axis=1) <= cfg.cell_radius_m + 1e-9)


def test_outdoor_no_wrap():
    topo = build_outdoor(OutdoorConfig(), np.random.default_rng(3))
    dist, walls = pairwise_distance(topo, topo.bs_positions(), topo.ue_positions())
    assert not topo.wrap
    assert np.all(walls == 0)


def test_outdoor_impossible_placement_raises():
    cfg = OutdoorConfig(n_cells=100, hex_apothem_m=50.0, min_bs_spacing_m=40.0, max_tries=300)
    with pytest.raises(PlacementError):
        build_outdoor(cfg, np.random.default_rng(0))


def test_outdoor_determinism():
    t1 = build_outdoor(OutdoorConfig(), np.random.default_rng(11))
    t2 = build_outdoor(OutdoorConfig(), np.random.default_rng(11))
    assert np.array_equal(t1.ue_positions(), t2.ue_positions())

