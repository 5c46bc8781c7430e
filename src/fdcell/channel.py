"""Link budgets: LOS models, pathloss, shadowing, noise, antenna caps.

Distances are kilometers inside the pathloss/LOS formulas and meters
everywhere else. Gains are linear power ratios; a gain table built here
is the single channel input consumed by the SINR and scheduling layers.
Shadowing and LOS states are drawn once per unordered node pair, and the
BS-BS and UE-UE blocks are evaluated once per unordered pair and mirrored,
so links are reciprocal by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError
from .topology import INDOOR_GRID, NetworkTopology, paired_distance, pairwise_distance

BS_BS = "BS_BS"
BS_UE = "BS_UE"
UE_UE = "UE_UE"

# minimum propagation distance fed into the loss formulas (km)
MIN_DIST_KM = 1e-3


def los_probability_indoor(r_km):
    """LOS probability for a link inside one room."""
    r = np.asarray(r_km, dtype=float)
    if np.any(r < 0):
        raise ValueError("distance must be non-negative")
    p = np.where(
        r <= 0.018,
        1.0,
        np.where(r < 0.037, np.exp(-(r - 0.018) / 0.027), 0.5),
    )
    return p if p.ndim else float(p)


def los_probability_outdoor(r_km):
    """LOS probability between outdoor nodes."""
    r = np.asarray(r_km, dtype=float)
    if np.any(r < 0):
        raise ValueError("distance must be non-negative")
    # below 1 mm the formula is singular; use its limit value 1
    r = np.maximum(r, 1e-6)
    p = (
        0.5
        - np.minimum(0.5, 5.0 * np.exp(-0.156 / r))
        + np.minimum(0.5, 5.0 * np.exp(-r / 0.03))
    )
    return p if p.ndim else float(p)


def _checked_log10_km(r_km):
    r = np.asarray(r_km, dtype=float)
    if np.any(r <= 0):
        raise ValueError("distance must be positive")
    return r, np.log10(r)


def pathloss_indoor_intra(r_km, los):
    """Same-room pathloss in dB."""
    _, lg = _checked_log10_km(r_km)
    pl = np.where(np.asarray(los, bool), 89.5 + 16.9 * lg, 147.4 + 43.3 * lg)
    return pl if pl.ndim else float(pl)


def pathloss_indoor_inter(r_km):
    """Room-to-room pathloss in dB, before wall penetration."""
    _, lg = _checked_log10_km(r_km)
    pl = np.maximum(131.1 + 42.8 * lg, 147.4 + 43.3 * lg)
    return pl if pl.ndim else float(pl)


def pathloss_outdoor(kind: str, r_km, los=True):
    """Outdoor pathloss in dB for a link of the given endpoint kinds."""
    r, lg = _checked_log10_km(r_km)
    if kind == BS_BS:
        los_pl = np.where(r < 2.0 / 3.0, 89.5 + 16.9 * lg, 101.9 + 40.0 * lg)
        pl = np.where(np.asarray(los, bool), los_pl, 169.36 + 40.0 * lg)
    elif kind == BS_UE:
        pl = np.where(np.asarray(los, bool), 103.8 + 20.9 * lg, 145.4 + 37.5 * lg)
    elif kind == UE_UE:
        # distance-switched, no LOS state
        pl = np.where(r <= 0.05, 98.45 + 20.0 * lg, 175.78 + 40.0 * lg)
    else:
        raise ConfigError(f"unknown outdoor link kind {kind!r}")
    return pl if pl.ndim else float(pl)


def noise_power_w(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power in watts over the given bandwidth."""
    dbm = -174.0 + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
    return float(10.0 ** (dbm / 10.0 - 3.0))


def dbm_to_w(dbm: float) -> float:
    return float(10.0 ** (dbm / 10.0 - 3.0))


@dataclass(frozen=True)
class ScenarioParams:
    bandwidth_hz: float = 10e6
    bs_power_dbm: float = 24.0
    ue_power_dbm: float = 23.0
    bs_noise_figure_db: float = 8.0
    ue_noise_figure_db: float = 9.0
    wall_loss_db: float = 20.0
    shadow_los_db: float = 3.0       # BS-UE and indoor intra LOS
    shadow_nlos_db: float = 4.0      # BS-UE and indoor NLOS / inter-room
    shadow_bs_bs_db: float = 6.0     # outdoor BS-BS only
    shadow_ue_ue_db: float = 4.0     # outdoor UE-UE only


def indoor_params() -> ScenarioParams:
    return ScenarioParams(bs_noise_figure_db=8.0)


def outdoor_params() -> ScenarioParams:
    return ScenarioParams(bs_noise_figure_db=13.0)


@dataclass
class GainTable:
    """Linear channel gains plus the radio constants the scheduler needs.

    UEs are numbered cell-major with U = N / B in every cell: cell b
    serves UEs b * U to (b + 1) * U - 1.
    """

    g_dl: np.ndarray          # (B, N) BS <-> UE, reciprocal
    g_bs: np.ndarray          # (B, B) BS <-> BS, diagonal zero
    g_ue: np.ndarray          # (N, N) UE <-> UE, diagonal zero
    dist_bs_ue_m: np.ndarray  # (B, N)
    noise_bs_w: float
    noise_ue_w: float
    p_bs_w: float
    p_ue_w: float
    bandwidth_hz: float
    gamma: float = 0.0        # residual self-interference power ratio

    @property
    def n_cells(self) -> int:
        return self.g_bs.shape[0]

    @property
    def n_ues(self) -> int:
        return self.g_ue.shape[0]

    @cached_property
    def tx_rx(self) -> np.ndarray:
        """(B+N) x (N+B) gain from every transmitter to every receiver.

        Transmitters are the B BSs, then the N UEs; receivers the N UEs,
        then the B BSs. Every active transmitter is charged at every
        active receiver: a downlink UE hears the other downlink BSs and
        every uplink UE; an uplink receiver (the BS) hears the other
        downlink BSs and the other cells' uplink UEs. A node that both
        transmits and receives hears its own residual self-interference,
        gamma times its own transmit power: the BS diagonal, and the UE
        diagonal, which only a UE scheduled in both directions (fd_ue)
        reads, in place of the (zero) UE-to-UE self gain. This table is
        the only place where gamma enters a SINR.
        """
        B, N = self.n_cells, self.n_ues
        out = np.block([[self.g_dl, self.g_bs], [self.g_ue, self.g_dl.T]])
        np.fill_diagonal(out[:B, N:], self.gamma)
        np.fill_diagonal(out[B:, :N], self.gamma)
        return out

    @cached_property
    def cell_ids(self) -> np.ndarray:
        """(B,) cell indices 0..B-1."""
        return np.arange(self.n_cells)

    @cached_property
    def cell_ue_ids(self) -> np.ndarray:
        """(B, U) UE ids; row b holds cell b's UEs."""
        return np.arange(self.n_ues).reshape(self.n_cells, -1)

    @cached_property
    def ue_cell(self) -> np.ndarray:
        """(N,) owning cell per UE."""
        return np.repeat(np.arange(self.n_cells), self.cell_ue_ids.shape[1])

    @cached_property
    def rx_noise(self) -> np.ndarray:
        """Noise at every receiver, in tx_rx's column order."""
        return np.repeat([self.noise_ue_w, self.noise_bs_w], [self.n_ues, self.n_cells])

    def with_cancellation(self, cancellation_db) -> "GainTable":
        """Copy sharing the gain arrays, with gamma = 10^(-C/10).

        The copy builds its own tx_rx table. None or +inf cancellation
        means perfect suppression (gamma 0).
        """
        if cancellation_db is None or np.isinf(cancellation_db):
            return replace(self, gamma=0.0)
        return replace(self, gamma=float(10.0 ** (-cancellation_db / 10.0)))


class GainStack:
    """The gain tables of D drops that are simulated in lockstep.

    The drops share the network shape and the radio constants, which
    are read from the first table. tx_rx stacks the drops' tables as
    (D, B + N, N + B) and rx_noise their noise vectors as (D, N + B).
    Each table's own tx_rx becomes a view of its layer of the stack, so
    the stack holds no second copy of the gains.
    """

    def __init__(self, tables):
        self.tables = tuple(tables)
        g = self.tables[0]
        shared = ("n_cells", "n_ues", "bandwidth_hz", "p_bs_w", "p_ue_w")
        if any(getattr(t, a) != getattr(g, a) for t in self.tables for a in shared):
            raise ValueError(f"drops in lockstep must share {', '.join(shared)}")
        self.n_cells, self.n_ues, self.bandwidth_hz, self.p_bs_w, self.p_ue_w = (
            getattr(g, a) for a in shared
        )
        self.cell_ids, self.cell_ue_ids, self.ue_cell = g.cell_ids, g.cell_ue_ids, g.ue_cell
        self.rx_noise = np.stack([t.rx_noise for t in self.tables])
        self.tx_rx = np.empty((len(self.tables),) + g.tx_rx.shape)
        for t, layer in zip(self.tables, self.tx_rx):
            layer[:] = t.tx_rx
            t.tx_rx = layer

    def __len__(self) -> int:
        return len(self.tables)


def _gain_from_db(loss_db: np.ndarray) -> np.ndarray:
    return 10.0 ** (-loss_db / 10.0)


@lru_cache(maxsize=4)
def _pair_index(n: int):
    """Row, column and flat (i, j), (j, i) indices of the i < j pairs of an
    (n, n) matrix; read-only, as they are shared between calls."""
    i, j = np.triu_indices(n, k=1)
    out = (i, j, i * n + j, j * n + i)
    for a in out:
        a.flags.writeable = False
    return out


def _reciprocal_gains(topo, params, kind, xy, rng) -> np.ndarray:
    """Gain block among one node kind, evaluated once per unordered pair.

    Draws an (n, n) uniform matrix and then an (n, n) normal matrix and
    reads their i < j entries, so the stream is that of a full-matrix draw.
    A block without LOS state (outdoor UE-UE) reads no uniforms: it
    advances the generator past them instead of drawing them. Each pair's
    gain goes to both triangles; the diagonal is 0.
    """
    n = len(xy)
    i, j, upper, lower = _pair_index(n)
    if topo.layout != INDOOR_GRID and kind == UE_UE:
        rng.bit_generator.advance(n * n)
        los_u = None
    else:
        los_u = rng.random((n, n)).ravel()[upper]
    shadow_n = rng.standard_normal((n, n)).ravel()[upper]
    dist, walls = paired_distance(topo, np.take(xy, i, axis=0), np.take(xy, j, axis=0))
    loss = _pair_loss(topo, params, kind, dist, walls, los_u, shadow_n)
    out = np.zeros(n * n)
    out[upper] = out[lower] = _gain_from_db(loss)
    return out.reshape(n, n)


def _pair_loss(
    topo: NetworkTopology,
    params: ScenarioParams,
    kind: str,
    dist_m: np.ndarray,
    walls: np.ndarray,
    los_u: np.ndarray,
    shadow_n: np.ndarray,
) -> np.ndarray:
    """Loss in dB for links of one kind given pre-drawn uniforms and normals.

    Indoor links ignore kind; outdoor links ignore walls. Outdoor UE-UE
    loss has no LOS state and reads no uniforms (los_u may be None).
    """
    r = np.maximum(dist_m / 1000.0, MIN_DIST_KM)
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
    if kind == UE_UE:
        return pathloss_outdoor(UE_UE, r) + params.shadow_ue_ue_db * shadow_n
    los = los_u < los_probability_outdoor(r)
    pl = pathloss_outdoor(kind, r, los)
    if kind == BS_BS:
        return pl + params.shadow_bs_bs_db * shadow_n
    return pl + np.where(los, params.shadow_los_db, params.shadow_nlos_db) * shadow_n


def build_gains(
    topo: NetworkTopology, params: ScenarioParams, rng: np.random.Generator
) -> GainTable:
    """Draw shadowing and LOS states and assemble the full gain table.

    Draw order is fixed (BS-UE, BS-BS, UE-UE; uniforms before normals in
    each block) so a seeded generator reproduces the same channel. The
    BS-BS and UE-UE blocks draw full (n, n) matrices but read only their
    upper triangles: each unordered pair's loss is evaluated once and
    written to both triangles. Outdoor UE-UE loss has no LOS state, so
    its (N, N) uniforms are skipped with bit_generator.advance, which
    leaves the stream where drawing them would: rng's bit generator must
    support advance with one step per double, as PCG64 (the generator of
    default_rng and sim.drop_rngs) does.
    """
    bs = topo.bs_xy
    ue = topo.ue_xy.reshape(-1, 2)
    B, N = len(bs), len(ue)
    d_bu, w_bu = pairwise_distance(topo, bs, ue)
    los_bu = rng.random((B, N))
    sh_bu = rng.standard_normal((B, N))
    loss_bu = _pair_loss(topo, params, BS_UE, d_bu, w_bu, los_bu, sh_bu)

    g_bs = _reciprocal_gains(topo, params, BS_BS, bs, rng)
    g_ue = _reciprocal_gains(topo, params, UE_UE, ue, rng)

    return GainTable(
        g_dl=_gain_from_db(loss_bu),
        g_bs=g_bs,
        g_ue=g_ue,
        dist_bs_ue_m=d_bu,
        noise_bs_w=noise_power_w(params.bandwidth_hz, params.bs_noise_figure_db),
        noise_ue_w=noise_power_w(params.bandwidth_hz, params.ue_noise_figure_db),
        p_bs_w=dbm_to_w(params.bs_power_dbm),
        p_ue_w=dbm_to_w(params.ue_power_dbm),
        bandwidth_hz=params.bandwidth_hz,
    )
