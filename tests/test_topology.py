from dataclasses import replace

import numpy as np
import pytest

from fdcell.errors import ConfigError, PlacementError
from fdcell.topology import (
    IndoorConfig,
    OutdoorConfig,
    build_indoor,
    build_outdoor,
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
    assert indoor.bs_xy.shape == (9, 2) and indoor.ue_xy.shape == (9, 8, 2)
    bs = indoor.bs_xy
    expected = [(25.0 + 50.0 * c, 25.0 + 50.0 * r) for r in range(3) for c in range(3)]
    assert np.allclose(bs, expected)


def one_pair(topo, a, b):
    """Distance and wall count of a single pair through pairwise_distance."""
    d, w = pairwise_distance(topo, np.asarray(a, float)[None, :], np.asarray(b, float)[None, :])
    return float(d[0, 0]), int(w[0, 0])


def test_distance_self_is_zero(indoor):
    d, w = one_pair(indoor, (12.0, 34.0), (12.0, 34.0))
    assert d == 0.0
    assert w == 0


def test_wrapped_shorter_than_direct(indoor):
    a, b = np.array([1.0, 25.0]), np.array([149.0, 25.0])
    direct = float(np.linalg.norm(a - b))
    d, _ = one_pair(indoor, a, b)
    assert d < direct


def test_torus_distance_oracle(indoor):
    # (1,25) to (149,25) on the 150 m torus: 2 m through the wrap,
    # crossing exactly the one wall at x=0.
    d, w = one_pair(indoor, (1.0, 25.0), (149.0, 25.0))
    assert d == pytest.approx(2.0, abs=1e-12)
    assert w == 1


def test_wall_count_between_adjacent_rooms(indoor):
    d, w = one_pair(indoor, (25.0, 25.0), (75.0, 25.0))
    assert d == pytest.approx(50.0)
    assert w == 1
    # two rooms over: the wrapped image at x=-25 is closer (50 m vs 100 m)
    # and that segment crosses a single wall at x=0
    d, w = one_pair(indoor, (25.0, 25.0), (125.0, 25.0))
    assert d == pytest.approx(50.0)
    assert w == 1


def test_ue_containment_one_per_cell():
    topo = build_indoor(IndoorConfig(ues_per_cell=1), np.random.default_rng(7))
    for b, ues in enumerate(topo.ue_xy):
        row, col = divmod(b, 3)
        x, y = ues[0]
        assert col * 50.0 <= x < (col + 1) * 50.0
        assert row * 50.0 <= y < (row + 1) * 50.0


def test_indoor_determinism():
    t1 = build_indoor(IndoorConfig(), np.random.default_rng(42))
    t2 = build_indoor(IndoorConfig(), np.random.default_rng(42))
    assert np.array_equal(t1.ue_xy, t2.ue_xy)
    assert np.array_equal(t1.bs_xy, t2.bs_xy)


def reference_indoor(cfg, rng):
    """BS and UE positions built room by room, one UE draw per room in
    row-major room order: the stream order build_indoor's single draw
    keeps."""
    side = cfg.room_side_m
    bs, ues = [], []
    for row in range(cfg.rooms_per_side):
        for col in range(cfg.rooms_per_side):
            origin = np.array([col * side, row * side])
            bs.append(origin + side / 2.0)
            ues.append(origin + rng.random((cfg.ues_per_cell, 2)) * side)
    return np.array(bs, dtype=float), np.array(ues)


@pytest.mark.parametrize("rooms_per_side", [1, 2, 3])
@pytest.mark.parametrize("ues_per_cell", [1, 2, 8])
def test_indoor_draws_match_per_room_reference(rooms_per_side, ues_per_cell):
    cfg = IndoorConfig(rooms_per_side=rooms_per_side, ues_per_cell=ues_per_cell)
    for seed in range(20):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        topo = build_indoor(cfg, rng)
        bs, ues = reference_indoor(cfg, rng_ref)
        assert np.array_equal(topo.bs_xy, bs)
        assert np.array_equal(topo.ue_xy, ues)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


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
    bs = topo.bs_xy
    assert topo.n_cells == 12
    d = np.linalg.norm(bs[:, None, :] - bs[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= cfg.min_bs_spacing_m
    # BSs inside the hexagon, UEs within the cell radius of their BS
    from fdcell.topology import _HEX_NORMALS

    assert np.all(bs @ _HEX_NORMALS.T <= cfg.hex_apothem_m + 1e-9)
    assert np.all(np.linalg.norm(topo.ue_xy - bs[:, None, :], axis=-1) <= cfg.cell_radius_m + 1e-9)


def test_outdoor_no_wrap():
    topo = build_outdoor(OutdoorConfig(), np.random.default_rng(3))
    dist, walls = pairwise_distance(topo, topo.bs_xy, topo.ue_xy.reshape(-1, 2))
    assert not topo.wrap
    assert np.all(walls == 0)


def test_outdoor_impossible_placement_raises():
    cfg = OutdoorConfig(n_cells=100, hex_apothem_m=50.0, min_bs_spacing_m=40.0, max_tries=300)
    with pytest.raises(PlacementError):
        build_outdoor(cfg, np.random.default_rng(0))


def test_outdoor_determinism():
    t1 = build_outdoor(OutdoorConfig(), np.random.default_rng(11))
    t2 = build_outdoor(OutdoorConfig(), np.random.default_rng(11))
    assert np.array_equal(t1.ue_xy, t2.ue_xy)



def reference_distance(topo, a, b):
    """The (A, B, 2) displacement form with np.linalg.norm: the
    specification pairwise_distance reproduces on two coordinate planes."""
    from fdcell.topology import _wall_count, _wrap_axis

    diff = b[None, :, :] - a[:, None, :]
    if not topo.wrap:
        dist = np.linalg.norm(diff, axis=-1)
        return dist, np.zeros(dist.shape, dtype=int)
    wrapped = _wrap_axis(diff, topo.period_m)
    stop = a[:, None, :] + wrapped
    walls = _wall_count(a[:, None, 0], stop[:, :, 0], topo.room_side_m) + _wall_count(
        a[:, None, 1], stop[:, :, 1], topo.room_side_m
    )
    return np.linalg.norm(wrapped, axis=-1), walls.astype(int)


def test_pairwise_distance_matches_norm_reference(indoor):
    outdoor = build_outdoor(OutdoorConfig(), np.random.default_rng(3))
    # points exactly half a period apart tie between the direct and the
    # wrapped path on one or both axes
    ties = np.array([[0.0, 0.0], [75.0, 0.0], [0.0, 75.0], [75.0, 75.0], [149.0, 74.0]])
    indoor_ue, outdoor_ue = indoor.ue_xy.reshape(-1, 2), outdoor.ue_xy.reshape(-1, 2)
    cases = [
        (indoor, indoor.bs_xy, indoor_ue),
        (indoor, indoor_ue, indoor_ue),
        (indoor, ties, ties),
        (outdoor, outdoor.bs_xy, outdoor_ue),
        (outdoor, outdoor_ue, outdoor_ue),
    ]
    for topo, a, b in cases:
        dist, walls = pairwise_distance(topo, a, b)
        ref_dist, ref_walls = reference_distance(topo, a, b)
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(walls, ref_walls)
    dist, _ = pairwise_distance(indoor, ties, ties)
    assert dist[0, 1] == dist[0, 2] == 75.0


def reference_outdoor(cfg, rng):
    """BS and UE positions drawn one scalar per coordinate and one draw
    per cell: the stream order build_outdoor's vector draws keep. Also
    returns the candidates each BS took, its last one placing it."""
    from fdcell.topology import _in_hexagon

    circumradius = cfg.hex_apothem_m * 2.0 / np.sqrt(3.0)
    bs_list, attempts = [], []
    for _ in range(cfg.n_cells):
        for attempt in range(1, cfg.max_tries + 1):
            p = np.array(
                [
                    rng.uniform(-circumradius, circumradius),
                    rng.uniform(-cfg.hex_apothem_m, cfg.hex_apothem_m),
                ]
            )
            if not _in_hexagon(p, cfg.hex_apothem_m):
                continue
            if all(np.hypot(*(p - q)) >= cfg.min_bs_spacing_m for q in bs_list):
                bs_list.append(p)
                attempts.append(attempt)
                break
        else:
            raise PlacementError(f"could not place BS {len(bs_list)}")
    ues = []
    for bs in bs_list:
        radius = cfg.cell_radius_m * np.sqrt(rng.random(cfg.ues_per_cell))
        theta = rng.random(cfg.ues_per_cell) * 2.0 * np.pi
        ues.append(bs + np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1))
    return np.array(bs_list), ues, attempts


def assert_matches_reference(cfg, seed):
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    topo = build_outdoor(cfg, rng)
    bs, ues, attempts = reference_outdoor(cfg, rng_ref)
    assert np.array_equal(topo.bs_xy, bs)
    assert np.array_equal(topo.ue_xy, np.array(ues))
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    return attempts


# the last case is crowded: single BSs take more than one batch of
# candidates
@pytest.mark.parametrize(
    "cfg",
    [
        OutdoorConfig(),
        OutdoorConfig(n_cells=3, ues_per_cell=2),
        OutdoorConfig(n_cells=30, hex_apothem_m=150.0),
    ],
)
def test_outdoor_draws_match_scalar_reference(cfg):
    from fdcell.topology import _BS_BATCH

    most = max(max(assert_matches_reference(cfg, seed)) for seed in range(30))
    if cfg.n_cells == 30:
        assert most > _BS_BATCH


def test_outdoor_max_tries_counts_candidates_per_bs():
    # a BS that lands on exactly its max_tries-th candidate is placed; one
    # candidate fewer fails, in build_outdoor as in the scalar reference
    crowded = OutdoorConfig(n_cells=30, hex_apothem_m=150.0)
    _, _, attempts = reference_outdoor(crowded, np.random.default_rng(4))
    need = max(attempts)
    assert need > 1
    assert_matches_reference(replace(crowded, max_tries=need), 4)
    short = replace(crowded, max_tries=need - 1)
    with pytest.raises(PlacementError):
        reference_outdoor(short, np.random.default_rng(4))
    with pytest.raises(PlacementError):
        build_outdoor(short, np.random.default_rng(4))


@pytest.mark.parametrize("max_tries", [0, -1])
def test_outdoor_max_tries_below_one_rejected(max_tries):
    with pytest.raises(ConfigError):
        build_outdoor(OutdoorConfig(max_tries=max_tries), np.random.default_rng(0))
