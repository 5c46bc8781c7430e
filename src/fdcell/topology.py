"""Deployment geometries for the multi-cell simulator.

Two layouts are supported: a 3x3 grid of square indoor rooms with one
base station at each room center, and an outdoor drop where pico base
stations land uniformly inside a hexagonal area. Indoor distances are
measured on a torus (wrap-around) so that every room sees the same
interference geometry; the number of walls on the shortest wrapped path
feeds the penetration loss. All coordinates are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PlacementError

INDOOR_GRID = "indoor_grid"
OUTDOOR_HEX = "outdoor_hex"


@dataclass(frozen=True)
class IndoorConfig:
    room_side_m: float = 50.0     # not standardized anywhere; see decisions ledger
    rooms_per_side: int = 3
    ues_per_cell: int = 8


@dataclass(frozen=True)
class OutdoorConfig:
    n_cells: int = 12
    ues_per_cell: int = 10
    hex_apothem_m: float = 500.0  # center-to-edge distance of the drop area
    cell_radius_m: float = 40.0
    min_bs_spacing_m: float = 40.0
    max_tries: int = 20000


@dataclass
class Cell:
    cell_id: int
    bs_xy: np.ndarray   # shape (2,)
    ue_xy: np.ndarray   # shape (n_ues, 2)


@dataclass
class NetworkTopology:
    layout: str                    # INDOOR_GRID | OUTDOOR_HEX
    cells: list
    room_side_m: float = 0.0       # indoor only
    rooms_per_side: int = 0        # indoor only
    hex_apothem_m: float = 0.0     # outdoor only
    cell_radius_m: float = 0.0     # outdoor only

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_ues(self) -> int:
        return sum(len(c.ue_xy) for c in self.cells)

    @property
    def wrap(self) -> bool:
        return self.layout == INDOOR_GRID

    @property
    def period_m(self) -> float:
        # torus period of the indoor grid
        return self.room_side_m * self.rooms_per_side

    def bs_positions(self) -> np.ndarray:
        return np.array([c.bs_xy for c in self.cells], dtype=float)

    def ue_positions(self) -> np.ndarray:
        return np.concatenate([c.ue_xy for c in self.cells], axis=0)

    def ue_cell_index(self) -> np.ndarray:
        """Owning cell id for each UE in global (cell-major) order."""
        return np.concatenate(
            [np.full(len(c.ue_xy), c.cell_id, dtype=int) for c in self.cells]
        )

    def cell_ue_ids(self) -> list:
        """Per-cell arrays of global UE indices."""
        out, start = [], 0
        for c in self.cells:
            out.append(np.arange(start, start + len(c.ue_xy)))
            start += len(c.ue_xy)
        return out


def build_indoor(cfg: IndoorConfig, rng: np.random.Generator) -> NetworkTopology:
    """Grid of square rooms, BS at each room center, UEs uniform per room."""
    if cfg.room_side_m <= 0:
        raise ConfigError(f"room_side_m must be positive, got {cfg.room_side_m}")
    if cfg.rooms_per_side < 1:
        raise ConfigError(f"rooms_per_side must be >= 1, got {cfg.rooms_per_side}")
    if cfg.ues_per_cell < 1:
        raise ConfigError(f"ues_per_cell must be >= 1, got {cfg.ues_per_cell}")
    side = cfg.room_side_m
    cells = []
    for row in range(cfg.rooms_per_side):
        for col in range(cfg.rooms_per_side):
            cid = row * cfg.rooms_per_side + col
            origin = np.array([col * side, row * side])
            bs = origin + side / 2.0
            ues = origin + rng.random((cfg.ues_per_cell, 2)) * side
            cells.append(Cell(cid, bs, ues))
    return NetworkTopology(
        layout=INDOOR_GRID,
        cells=cells,
        room_side_m=side,
        rooms_per_side=cfg.rooms_per_side,
    )


# Flat-top hexagon: edge normals every 60 degrees starting from vertical.
_HEX_NORMALS = np.stack(
    [
        (np.cos(a), np.sin(a))
        for a in np.deg2rad(np.arange(30.0, 360.0, 60.0))
    ]
)


def _in_hexagon(p: np.ndarray, apothem: float) -> bool:
    return float(np.max(_HEX_NORMALS @ p)) <= apothem


def build_outdoor(cfg: OutdoorConfig, rng: np.random.Generator) -> NetworkTopology:
    """Uniform BS drop in a hexagon with a minimum pairwise spacing."""
    if cfg.n_cells < 1:
        raise ConfigError(f"n_cells must be >= 1, got {cfg.n_cells}")
    if cfg.ues_per_cell < 1:
        raise ConfigError(f"ues_per_cell must be >= 1, got {cfg.ues_per_cell}")
    if cfg.hex_apothem_m <= 0 or cfg.cell_radius_m <= 0:
        raise ConfigError("hex_apothem_m and cell_radius_m must be positive")
    circumradius = cfg.hex_apothem_m * 2.0 / math.sqrt(3.0)
    bs_list = []
    for _ in range(cfg.n_cells):
        for attempt in range(cfg.max_tries):
            p = np.array(
                [
                    rng.uniform(-circumradius, circumradius),
                    rng.uniform(-cfg.hex_apothem_m, cfg.hex_apothem_m),
                ]
            )
            if not _in_hexagon(p, cfg.hex_apothem_m):
                continue
            if all(
                np.hypot(*(p - q)) >= cfg.min_bs_spacing_m for q in bs_list
            ):
                bs_list.append(p)
                break
        else:
            raise PlacementError(
                f"could not place BS {len(bs_list)} after {cfg.max_tries} tries"
            )
    cells = []
    for cid, bs in enumerate(bs_list):
        # uniform in the disc around the BS
        radius = cfg.cell_radius_m * np.sqrt(rng.random(cfg.ues_per_cell))
        theta = rng.random(cfg.ues_per_cell) * 2.0 * np.pi
        ues = bs + np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
        cells.append(Cell(cid, bs, ues))
    return NetworkTopology(
        layout=OUTDOOR_HEX,
        cells=cells,
        hex_apothem_m=cfg.hex_apothem_m,
        cell_radius_m=cfg.cell_radius_m,
    )


def _wrap_axis(delta: np.ndarray, period: float) -> np.ndarray:
    # smallest-magnitude displacement on the circle; exact ties keep the
    # direct (unwrapped) path
    out = np.where(delta > period / 2.0, delta - period, delta)
    out = np.where(delta < -period / 2.0, delta + period, out)
    return out


def _wall_count(start: np.ndarray, stop: np.ndarray, side: float) -> np.ndarray:
    # walls sit on every multiple of the room side; a straight segment
    # crosses one per room-index change along each axis
    return np.abs(np.floor(stop / side) - np.floor(start / side))


def pairwise_distance(topo: NetworkTopology, a_xy: np.ndarray, b_xy: np.ndarray):
    """Distance matrix in meters between two position sets, plus wall counts.

    Indoor layouts measure the shortest of the nine wrap-around images and
    count the room boundaries that the winning straight segment crosses.
    Returns (dist, walls), both shaped (len(a), len(b)).
    """
    a = np.atleast_2d(np.asarray(a_xy, dtype=float))
    b = np.atleast_2d(np.asarray(b_xy, dtype=float))
    diff = b[None, :, :] - a[:, None, :]
    if not topo.wrap:
        dist = np.linalg.norm(diff, axis=-1)
        return dist, np.zeros(dist.shape, dtype=int)
    period = topo.period_m
    wrapped = _wrap_axis(diff, period)
    dist = np.linalg.norm(wrapped, axis=-1)
    stop = a[:, None, :] + wrapped
    walls = (
        _wall_count(a[:, None, 0], stop[:, :, 0], topo.room_side_m)
        + _wall_count(a[:, None, 1], stop[:, :, 1], topo.room_side_m)
    )
    return dist, walls.astype(int)


def distance(a, b, topo: NetworkTopology):
    """Propagation distance in meters and the wall-crossing count.

    Outdoor layouts always report 0 walls.
    """
    d, w = pairwise_distance(topo, np.asarray(a, float)[None, :], np.asarray(b, float)[None, :])
    return float(d[0, 0]), int(w[0, 0])

