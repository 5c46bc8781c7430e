import math

import numpy as np
import pytest

from fdcell.channel import (
    BS_BS,
    BS_UE,
    MIN_DIST_KM,
    UE_UE,
    GainTable,
    ScenarioParams,
    build_gains,
    dbm_to_w,
    indoor_params,
    los_probability_indoor,
    los_probability_outdoor,
    noise_power_w,
    outdoor_params,
    pathloss_indoor_inter,
    pathloss_indoor_intra,
    pathloss_outdoor,
)
from fdcell.topology import INDOOR_GRID, NetworkTopology

from dataclasses import replace


REL = 1e-9


def test_los_indoor_branches():
    assert los_probability_indoor(0.010) == 1.0
    assert los_probability_indoor(0.018) == 1.0
    mid = math.exp(-(0.025 - 0.018) / 0.027)
    assert los_probability_indoor(0.025) == pytest.approx(mid, rel=REL)
    assert mid == pytest.approx(0.7716, abs=5e-5)
    assert los_probability_indoor(0.037) == 0.5
    assert los_probability_indoor(2.0) == 0.5
    with pytest.raises(ValueError):
        los_probability_indoor(-0.1)


def test_los_outdoor_values():
    assert los_probability_outdoor(0.0) == pytest.approx(1.0, rel=REL)
    assert los_probability_outdoor(10.0) == pytest.approx(0.0, abs=1e-12)
    expect = 0.5 - min(0.5, 5.0 * math.exp(-0.156 / 0.05)) + min(0.5, 5.0 * math.exp(-0.05 / 0.03))
    assert los_probability_outdoor(0.05) == pytest.approx(expect, rel=REL)
    assert expect == pytest.approx(0.7792, abs=5e-5)
    r = np.linspace(0.001, 0.5, 400)
    p = los_probability_outdoor(r)
    assert np.all((0.0 <= p) & (p <= 1.0))


def test_pathloss_indoor_intra_oracle():
    assert pathloss_indoor_intra(0.020, True) == pytest.approx(
        89.5 + 16.9 * math.log10(0.020), rel=REL
    )
    assert pathloss_indoor_intra(0.020, True) == pytest.approx(60.79, abs=5e-3)
    assert pathloss_indoor_intra(0.100, False) == pytest.approx(147.4 - 43.3, rel=REL)
    assert pathloss_indoor_intra(1.0, True) == pytest.approx(89.5, rel=REL)


def test_pathloss_indoor_inter_oracle():
    assert pathloss_indoor_inter(0.1) == pytest.approx(104.1, rel=REL)
    assert pathloss_indoor_inter(1.0) == pytest.approx(147.4, rel=REL)
    # branch crossover: 131.1 + 42.8 lg == 147.4 + 43.3 lg
    lg = (147.4 - 131.1) / (42.8 - 43.3)
    r_star = 10.0**lg
    left = 131.1 + 42.8 * lg
    right = 147.4 + 43.3 * lg
    assert left == pytest.approx(right, abs=1e-6)
    assert pathloss_indoor_inter(r_star) == pytest.approx(left, abs=1e-6)


def test_pathloss_outdoor_oracle():
    assert pathloss_outdoor(BS_UE, 0.1, los=True) == pytest.approx(82.9, rel=REL)
    assert pathloss_outdoor(BS_UE, 0.1, los=False) == pytest.approx(145.4 - 37.5, rel=REL)
    assert pathloss_outdoor(UE_UE, 0.040) == pytest.approx(
        98.45 + 20.0 * math.log10(0.040), rel=REL
    )
    assert pathloss_outdoor(UE_UE, 0.040) == pytest.approx(70.49, abs=5e-3)
    assert pathloss_outdoor(BS_BS, 1.0, los=False) == pytest.approx(169.36, rel=REL)
    # LOS BS-BS switches slope at 2/3 km
    assert pathloss_outdoor(BS_BS, 0.5, los=True) == pytest.approx(
        89.5 + 16.9 * math.log10(0.5), rel=REL
    )
    assert pathloss_outdoor(BS_BS, 1.0, los=True) == pytest.approx(101.9, rel=REL)


def test_pathloss_monotone_in_distance():
    r = np.geomspace(0.002, 1.0, 200)
    for vals in (
        pathloss_indoor_intra(r, True),
        pathloss_indoor_intra(r, False),
        pathloss_indoor_inter(r),
        pathloss_outdoor(BS_UE, r, True),
        pathloss_outdoor(BS_UE, r, False),
        pathloss_outdoor(UE_UE, r),
        pathloss_outdoor(BS_BS, r, False),
    ):
        assert np.all(np.diff(vals) > 0)


def test_noise_power_oracle():
    # -174 dBm/Hz + 10 log10(10 MHz) + NF
    assert noise_power_w(10e6, 8.0) == pytest.approx(10 ** ((-174 + 70 + 8) / 10 - 3), rel=1e-12)
    assert noise_power_w(10e6, 8.0) == pytest.approx(2.512e-13, rel=1e-3)
    assert noise_power_w(10e6, 9.0) == pytest.approx(dbm_to_w(-95.0), rel=1e-12)
    assert noise_power_w(10e6, 13.0) == pytest.approx(dbm_to_w(-91.0), rel=1e-12)


def test_scenario_params():
    ind = indoor_params()
    out = outdoor_params()
    assert ind.bandwidth_hz == 10e6
    assert ind.bs_power_dbm == 24.0
    assert ind.ue_power_dbm == 23.0
    assert ind.bs_noise_figure_db == 8.0
    assert out.bs_noise_figure_db == 13.0


def _one_link_topology(ue_xy):
    return NetworkTopology(
        layout=INDOOR_GRID,
        bs_xy=np.array([[25.0, 25.0]]),
        ue_xy=np.array([[ue_xy]], dtype=float),
        room_side_m=50.0,
        rooms_per_side=1,
    )


def test_gain_table_zero_shadowing_los_link():
    # 20 m same-room link, shadowing disabled; seed 0 draws LOS
    topo = _one_link_topology((45.0, 25.0))
    par = replace(indoor_params(), shadow_los_db=0.0, shadow_nlos_db=0.0,
                  shadow_bs_bs_db=0.0, shadow_ue_ue_db=0.0)
    g = build_gains(topo, par, np.random.default_rng(0))
    expect = 10.0 ** (-(89.5 + 16.9 * math.log10(0.020)) / 10.0)
    assert g.g_dl[0, 0] == pytest.approx(expect, rel=REL)
    assert g.dist_bs_ue_m[0, 0] == pytest.approx(20.0)


def test_gain_table_symmetry_and_determinism():
    from fdcell.topology import IndoorConfig, build_indoor

    topo = build_indoor(IndoorConfig(), np.random.default_rng(5))
    g1 = build_gains(topo, indoor_params(), np.random.default_rng(9))
    g2 = build_gains(topo, indoor_params(), np.random.default_rng(9))
    assert np.array_equal(g1.g_dl, g2.g_dl)
    assert np.array_equal(g1.g_ue, g2.g_ue)
    # reciprocal by construction: each pair is evaluated once and mirrored
    assert np.array_equal(g1.g_bs, g1.g_bs.T)
    assert np.array_equal(g1.g_ue, g1.g_ue.T)
    assert np.all(np.diag(g1.g_bs) == 0.0)
    assert np.all(np.diag(g1.g_ue) == 0.0)
    assert np.all(g1.g_dl > 0.0)


def reference_gains(topo, params, rng):
    """The full-matrix gain table: every block evaluated on both triangles
    of mirrored (n, n) draws. build_gains must reproduce it bit for bit."""
    from fdcell.topology import pairwise_distance

    def symmetric(draw):
        upper = np.triu(draw, k=1)
        return upper + upper.T

    def loss(kind, dist, walls, los_u, shadow_n):
        r = np.maximum(dist / 1000.0, MIN_DIST_KM)
        if topo.layout == INDOOR_GRID:
            same_room = walls == 0
            los = los_u < los_probability_indoor(r)
            intra = pathloss_indoor_intra(r, los)
            inter = pathloss_indoor_inter(r) + params.wall_loss_db * walls
            sigma = np.where(
                same_room,
                np.where(los, params.shadow_los_db, params.shadow_nlos_db),
                params.shadow_nlos_db,
            )
            return np.where(same_room, intra, inter) + sigma * shadow_n
        los = los_u < los_probability_outdoor(r)
        pl = pathloss_outdoor(kind, r, los)
        if kind == BS_BS:
            sigma = np.full(pl.shape, params.shadow_bs_bs_db)
        elif kind == UE_UE:
            sigma = np.full(pl.shape, params.shadow_ue_ue_db)
        else:
            sigma = np.where(los, params.shadow_los_db, params.shadow_nlos_db)
        return pl + sigma * shadow_n

    bs, ue = topo.bs_xy, topo.ue_xy.reshape(-1, 2)
    B, N = len(bs), len(ue)
    d_bu, w_bu = pairwise_distance(topo, bs, ue)
    d_bb, w_bb = pairwise_distance(topo, bs, bs)
    d_uu, w_uu = pairwise_distance(topo, ue, ue)
    los_bu, sh_bu = rng.random((B, N)), rng.standard_normal((B, N))
    los_bb, sh_bb = symmetric(rng.random((B, B))), symmetric(rng.standard_normal((B, B)))
    los_uu, sh_uu = symmetric(rng.random((N, N))), symmetric(rng.standard_normal((N, N)))
    g_dl = 10.0 ** (-loss(BS_UE, d_bu, w_bu, los_bu, sh_bu) / 10.0)
    g_bs = 10.0 ** (-loss(BS_BS, d_bb, w_bb, los_bb, sh_bb) / 10.0)
    g_ue = 10.0 ** (-loss(UE_UE, d_uu, w_uu, los_uu, sh_uu) / 10.0)
    np.fill_diagonal(g_bs, 0.0)
    np.fill_diagonal(g_ue, 0.0)
    return g_dl, g_bs, g_ue, d_bu


@pytest.mark.parametrize("scenario", ["Indoor", "Outdoor"])
@pytest.mark.parametrize("ues_per_cell", [1, 2, None])
def test_build_gains_matches_full_matrix_reference(scenario, ues_per_cell):
    from fdcell import sim
    from fdcell.topology import IndoorConfig, OutdoorConfig, build_indoor, build_outdoor

    if scenario == "Indoor":
        tcfg, build, par = IndoorConfig(), build_indoor, indoor_params()
    else:
        tcfg, build, par = OutdoorConfig(), build_outdoor, outdoor_params()
    if ues_per_cell is not None:
        tcfg = replace(tcfg, ues_per_cell=ues_per_cell)
    for seed in range(10):
        for drop in range(5):
            topo_rng, chan_rng, _ = sim.drop_rngs(seed, drop)
            _, chan_ref, _ = sim.drop_rngs(seed, drop)
            topo = build(tcfg, topo_rng)
            g = build_gains(topo, par, chan_rng)
            ref = reference_gains(topo, par, chan_ref)
            for got, want in zip((g.g_dl, g.g_bs, g.g_ue, g.dist_bs_ue_m), ref, strict=True):
                assert np.array_equal(got, want)
            assert chan_rng.bit_generator.state == chan_ref.bit_generator.state


def test_cancellation_encoding():
    topo = _one_link_topology((45.0, 25.0))
    g = build_gains(topo, indoor_params(), np.random.default_rng(0))
    assert g.gamma == 0.0
    assert g.with_cancellation(95.0).gamma == pytest.approx(10.0**-9.5, rel=1e-12)
    assert g.with_cancellation(None).gamma == 0.0
    assert g.with_cancellation(float("inf")).gamma == 0.0
    # shares the gain arrays rather than copying
    assert g.with_cancellation(75.0).g_dl is g.g_dl


def test_tx_rx_table_layout_and_cancellation_copy():
    from conftest import indoor_network

    _, g = indoor_network(ues_per_cell=2, cancellation_db=95.0)
    B, N = g.n_cells, g.n_ues
    t = g.tx_rx
    assert t.shape == (B + N, N + B) and g.tx_rx is t
    # transmitters BSs then UEs, receivers UEs then BSs
    np.testing.assert_array_equal(t[:B, :N], g.g_dl)
    np.testing.assert_array_equal(t[B:, N:], g.g_dl.T)
    off_bs = ~np.eye(B, dtype=bool)
    off_ue = ~np.eye(N, dtype=bool)
    np.testing.assert_array_equal(t[:B, N:][off_bs], g.g_bs[off_bs])
    np.testing.assert_array_equal(t[B:, :N][off_ue], g.g_ue[off_ue])
    # a node that transmits and receives hears its own residual
    assert np.all(np.diagonal(t[:B, N:]) == g.gamma)
    assert np.all(np.diagonal(t[B:, :N]) == g.gamma)
    np.testing.assert_array_equal(g.rx_noise, [g.noise_ue_w] * N + [g.noise_bs_w] * B)
    # a copy with another cancellation builds its own table
    g2 = g.with_cancellation(75.0)
    assert g2.gamma == pytest.approx(10.0**-7.5, rel=1e-12)
    assert g2.tx_rx is not t
    assert np.all(np.diagonal(g2.tx_rx[:B, N:]) == g2.gamma)
    assert np.all(np.diagonal(g2.tx_rx[B:, :N]) == g2.gamma)
    np.testing.assert_array_equal(g2.tx_rx[:B, :N], g.g_dl)
    # the original keeps its gamma
    assert np.all(np.diagonal(g.tx_rx[:B, N:]) == g.gamma)


def test_ue_id_matrix_rows_are_cells():
    from conftest import indoor_network, outdoor_network, toy_gains

    networks = (
        indoor_network(ues_per_cell=3),
        indoor_network(ues_per_cell=1, rooms_per_side=1),
        outdoor_network(),
    )
    for topo, g in networks:
        # reference: UEs numbered cell by cell in the topology's row order
        sizes = [len(ues) for ues in topo.ue_xy]
        start = np.cumsum([0, *sizes])
        ref_ids = [np.arange(start[b], start[b + 1]) for b in range(topo.n_cells)]
        ref_cell = np.concatenate([np.full(n, b, dtype=int) for b, n in enumerate(sizes)])
        ids = g.cell_ue_ids
        assert ids.shape == (g.n_cells, sizes[0]) and g.cell_ue_ids is ids
        for b, row in enumerate(ids):
            np.testing.assert_array_equal(row, ref_ids[b])
        assert g.ue_cell.dtype == ref_cell.dtype
        np.testing.assert_array_equal(g.ue_cell, ref_cell)
        assert np.all(g.ue_cell[ids] == np.arange(g.n_cells)[:, None])
        # UE id b * U + u sits at ue_xy[b, u]
        np.testing.assert_array_equal(topo.ue_xy.reshape(-1, 2)[ids], topo.ue_xy)
    # N not a multiple of B: no cell layout, and both views say so
    g = toy_gains(np.full((2, 3), 1e-9))
    for name in ("cell_ue_ids", "ue_cell"):
        with pytest.raises(ValueError):
            getattr(g, name)


def test_wall_loss_applied():
    # same geometry, one wall vs none: 20 dB difference when NLOS state
    # and shadowing are pinned
    par = replace(indoor_params(), shadow_los_db=0.0, shadow_nlos_db=0.0,
                  shadow_bs_bs_db=0.0, shadow_ue_ue_db=0.0)
    topo_wall = NetworkTopology(
        layout=INDOOR_GRID,
        bs_xy=np.array([[40.0, 25.0]]),
        ue_xy=np.array([[[60.0, 25.0]]]),
        room_side_m=50.0,
        rooms_per_side=3,
    )
    g = build_gains(topo_wall, par, np.random.default_rng(0))
    # 20 m room-to-room link: inter-room formula plus one wall of 20 dB
    pl = pathloss_indoor_inter(0.020) + par.wall_loss_db
    assert g.g_dl[0, 0] == pytest.approx(10.0 ** (-pl / 10.0), rel=REL)
