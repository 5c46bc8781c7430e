"""Drop and timeslot orchestration for every system variant.

A drop is one random realization of node positions and shadowing,
simulated over a fixed number of 1 ms timeslots. Variants share the
drop realization through paired seeding (same seed and drop index give
the same network regardless of variant), so gain metrics compare the
same channels under different schedulers.

Variants:
  HD              synchronized single-direction slots, greedy PF
                  selection and optimized powers (even slots downlink)
  FD              hybrid selection: cells go full duplex when the
                  marginal PF utility supports it
  RR_HD / RR_FD   round-robin baselines at fixed maximum power; the FD
                  one pairs the round-robin pick with a random partner
  FD_FDUE         hybrid with full-duplex-capable UEs (a cell may put
                  one UE on both directions; the UE pays the same
                  residual self-interference factor as a BS)
  FD_EnergyAware  hybrid with a distance-weighted log-power penalty in
                  the power objective

The slot loop keeps only what it cannot derive: delivered bits, the
energy ledgers, the allocator counters and each slot's UE ids and
powers. Cell modes follow from the UE ids (DropResult.trace_mode), and
round robin needs only the slot's turn, t // 2, because directions
alternate network-wide, and for RR_FD the slot's row of partner offsets.

run_variant runs its drops in lockstep chunks whose gain tables fit in
LOCKSTEP_BYTES, 8 default Outdoor drops or 21 default Indoor ones
(_lockstep_width): run_drop builds a chunk's networks and advances all
its drops one slot at a time, so selection, validation, the rates, the
bookkeeping and the PF update pay numpy's per-call cost once per slot
for the chunk. Only the power allocator runs drop by drop. RR_FD's
random partners are drawn once per chunk, before the slot loop: one
call per drop for all its slots, from the drop's own scheduler stream,
with the values that one call per slot would give. Every drop's outputs
are those it gets alone, bit for bit, whatever the chunk.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .channel import GainStack, build_gains, indoor_params, outdoor_params
from .errors import ConfigError
from .power_alloc import ALLOC_COUNTERS, allocate_with_fallback
from .scheduler import (
    DL,
    UL,
    hd_select_ues,
    init_state,
    round_robin_partners,
    round_robin_select,
    select_ues,
    update_state,
)
from .sinr_rate import SlotDecision, slot_rates, validate
from .topology import IndoorConfig, OutdoorConfig, build_indoor, build_outdoor

SLOT_DURATION_S = 1e-3    # only ratios (gains, bits/joule) depend on it
SCENARIOS = ("Indoor", "Outdoor")
VARIANTS = ("HD", "FD", "RR_HD", "RR_FD", "FD_FDUE", "FD_EnergyAware")

# mode codes in the per-slot trace
MODE_IDLE, MODE_HD_DL, MODE_HD_UL, MODE_FD = 0, 1, 2, 3
MODE_NAMES = {MODE_IDLE: "IDLE", MODE_HD_DL: "HD-DL", MODE_HD_UL: "HD-UL", MODE_FD: "FD"}

# default weight of the log-power penalty (scaled by 1/distance per link)
ENERGY_KAPPA_DEFAULT = 0.05

# gain bytes a lockstep chunk may hold at once: those of 8 default Outdoor
# drops (12 cells, 120 UEs), 8 * 278,784 B
LOCKSTEP_BYTES = 2_230_272


@dataclass
class RunConfig:
    scenario: str = "Indoor"
    variant: str = "FD"
    cancellation_db: float | None = None    # None = perfect cancellation
    slots: int = 1000
    drops: int = 5
    bandwidth_hz: float = 10e6
    beta: float = 0.99
    bs_power_dbm: float = 24.0
    ue_power_dbm: float = 23.0
    ues_per_cell: int | None = None          # scenario default when None
    energy_kappa: float = ENERGY_KAPPA_DEFAULT
    seed: int = 0

    def validated(self) -> "RunConfig":
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        # None: ues_per_cell takes the scenario default, and the CLI fills a
        # spec's seed in after its config file
        for name, lo in (("slots", 1), ("drops", 1), ("ues_per_cell", 1), ("seed", 0)):
            v = getattr(self, name)
            if v is None and name in ("ues_per_cell", "seed"):
                continue
            if not (isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= lo):
                kind = "positive" if lo else "non-negative"
                raise ConfigError(f"{name} must be a {kind} integer, got {v!r}")
        if not 1e3 <= self.bandwidth_hz < np.inf:
            raise ConfigError(f"bandwidth_hz must be finite and >= 1e3, got {self.bandwidth_hz}")
        if not 0 < self.beta < 1:
            raise ConfigError(f"beta must be in (0, 1), got {self.beta}")
        for name in ("bs_power_dbm", "ue_power_dbm"):
            if not 0 <= getattr(self, name) <= 60:
                raise ConfigError(f"{name} must be in [0, 60] dBm, got {getattr(self, name)}")
        if not 0 <= self.energy_kappa < np.inf:
            raise ConfigError(f"energy_kappa must be finite and non-negative, got {self.energy_kappa}")
        if self.cancellation_db is None:
            return self
        if not self.cancellation_db >= 0:
            raise ConfigError(f"cancellation must be non-negative dB, got {self.cancellation_db}")
        if self.cancellation_db == np.inf:
            return replace(self, cancellation_db=None)
        return self


@dataclass
class DropResult:
    """Per-drop accumulators plus the full decision trace.

    Every slot lasts SLOT_DURATION_S. Cell modes are not stored: the
    trace_mode property derives them from the two UE traces.
    """

    n_cells: int
    n_ues: int
    slots: int
    bits_dl: np.ndarray        # (N,) delivered bits per UE
    bits_ul: np.ndarray
    energy_dl_j: float         # transmit energy, accumulated slot by slot
    energy_ul_j: float
    trace_dl_ue: np.ndarray    # (S, B) UE id or -1
    trace_ul_ue: np.ndarray
    trace_p_dl: np.ndarray     # (S, B) watts
    trace_p_ul: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def trace_mode(self) -> np.ndarray:
        """(S, B) int8 mode code of every cell-slot."""
        # MODE_FD == MODE_HD_DL + MODE_HD_UL, MODE_IDLE == 0
        mode = (self.trace_dl_ue >= 0) * MODE_HD_DL + (self.trace_ul_ue >= 0) * MODE_HD_UL
        return mode.astype(np.int8)

    def mean_rate_dl(self) -> np.ndarray:
        return self.bits_dl / (self.slots * SLOT_DURATION_S)

    def mean_rate_ul(self) -> np.ndarray:
        return self.bits_ul / (self.slots * SLOT_DURATION_S)

    def energy_from_trace(self):
        """Second energy ledger, recomputed from the decision trace.

        Mirrors the slot-loop accumulation order exactly so the
        double-entry comparison is == on floats, not approximate.
        """
        e_dl = 0.0
        e_ul = 0.0
        for s in range(self.slots):
            e_dl += float(self.trace_p_dl[s].sum()) * SLOT_DURATION_S
            e_ul += float(self.trace_p_ul[s].sum()) * SLOT_DURATION_S
        return e_dl, e_ul

    def mode_fractions(self):
        """(frac_fd, frac_hd, frac_idle) over all cell-slots."""
        counts = np.bincount(self.trace_mode.ravel(), minlength=4)
        total = self.slots * self.n_cells
        fd = counts[MODE_FD] / total
        hd = (counts[MODE_HD_DL] + counts[MODE_HD_UL]) / total
        idle = counts[MODE_IDLE] / total
        return float(fd), float(hd), float(idle)


def _topology_config(cfg: RunConfig):
    """cfg's scenario topology config, with its ues_per_cell override."""
    tcfg = IndoorConfig() if cfg.scenario == "Indoor" else OutdoorConfig()
    if cfg.ues_per_cell is not None:
        tcfg = replace(tcfg, ues_per_cell=cfg.ues_per_cell)
    return tcfg


def _build_network(cfg: RunConfig, topo_rng, chan_rng):
    tcfg = _topology_config(cfg)
    if cfg.scenario == "Indoor":
        topo, par = build_indoor(tcfg, topo_rng), indoor_params()
    else:
        topo, par = build_outdoor(tcfg, topo_rng), outdoor_params()
    par = replace(
        par,
        bandwidth_hz=cfg.bandwidth_hz,
        bs_power_dbm=cfg.bs_power_dbm,
        ue_power_dbm=cfg.ue_power_dbm,
    )
    g = build_gains(topo, par, chan_rng).with_cancellation(cfg.cancellation_db)
    return topo, g


def _drop_gain_bytes(cfg: RunConfig) -> int:
    """Bytes of gains one drop of cfg holds in a lockstep chunk.

    8 * ((B+N)^2 + N^2 + B^2 + 2*B*N): its GainStack layer (tx_rx) and
    its table's g_ue, g_bs, g_dl and dist_bs_ue_m, all float64. B and N
    follow from the topology config, before anything is built.
    """
    tcfg = _topology_config(cfg)
    B = tcfg.rooms_per_side ** 2 if cfg.scenario == "Indoor" else tcfg.n_cells
    N = B * tcfg.ues_per_cell
    return 8 * ((B + N) ** 2 + N * N + B * B + 2 * B * N)


def _lockstep_width(cfg: RunConfig) -> int:
    """Most drops of cfg that run_variant advances in lockstep: as many
    as LOCKSTEP_BYTES of gains hold, and at least one."""
    return max(1, LOCKSTEP_BYTES // _drop_gain_bytes(cfg))


def drop_rngs(seed: int, drop_index: int):
    """Paired per-drop streams: topology, shadowing, scheduler.

    The spawn key depends only on (seed, drop), never on the variant, so
    every variant sees the same network realization for the same drop.
    A seed of None would draw from OS entropy, so it is rejected here.
    """
    if seed is None:
        raise ConfigError("seed must be set before a run, got None")
    ss = np.random.SeedSequence(seed, spawn_key=(drop_index,))
    return [np.random.default_rng(s) for s in ss.spawn(3)]


def run_drop(cfg: RunConfig, drop_index: int | range) -> DropResult | list:
    """Simulate drop drop_index, or a range of drops in lockstep.

    An int gives its DropResult, a range (at most _lockstep_width(cfg)
    drops, as run_variant cuts them) the list of its drops' results;
    see the module docstring. With the networks, RR_FD draws the partner
    offsets of all the chunk's slots (round_robin_partners), an int per
    cell-slot: 8 B, beside the 24 B of the UE (int32) and power traces.
    Every ledger keeps the decision's (direction, cell) layout: bits
    (D, 2, N), energy (D, 2) and the traces (D, S, 2, B); a DropResult
    gets views of its drop's rows.
    """
    cfg = cfg.validated()
    single = np.ndim(drop_index) == 0
    drops = [drop_index] if single else list(drop_index)
    D, S = len(drops), cfg.slots
    tables, sched_rngs = [], []
    for d in drops:
        topo_rng, chan_rng, sched_rng = drop_rngs(cfg.seed, d)
        tables.append(_build_network(cfg, topo_rng, chan_rng)[1])
        sched_rngs.append(sched_rng)
    g = GainStack(tables)
    B, N = g.n_cells, g.n_ues
    P = (g.p_bs_w, g.p_ue_w)
    dt = SLOT_DURATION_S
    partners = None
    if cfg.variant == "RR_FD":
        # every slot's partners at once, before init_state starts the slot loop
        partners = round_robin_partners(sched_rngs, S, *g.cell_ue_ids.shape)

    st = init_state(N, cfg.bandwidth_hz, beta=cfg.beta, drops=D)
    kappa = cfg.energy_kappa if cfg.variant == "FD_EnergyAware" else 0.0
    fd_ue = cfg.variant == "FD_FDUE"

    bits = np.zeros((D, 2, N))
    energy = np.zeros((D, 2))
    trace_ue = np.full((D, S, 2, B), -1, dtype=np.int32)
    trace_p = np.zeros((D, S, 2, B))
    counts = np.zeros((D, len(ALLOC_COUNTERS)), dtype=int)

    for t in range(S):
        direction = DL if t % 2 == 0 else UL
        if cfg.variant in ("HD", "FD", "FD_FDUE", "FD_EnergyAware"):
            if cfg.variant == "HD":
                sel = hd_select_ues(st, g, P, direction, sched_rngs)
            else:
                sel = select_ues(st, g, P, sched_rngs, fd_ue=fd_ue)
            outs = [allocate_with_fallback(st[d], sel[d], g.tables[d], kappa) for d in range(D)]
            dec = SlotDecision.stack([dec for dec, _ in outs])
            counts += [[diag[k] for k in ALLOC_COUNTERS] for _, diag in outs]
        else:
            offsets = None if partners is None else partners[:, t]
            # directions alternate, so t // 2 earlier slots ran in this one
            dec = round_robin_select(t // 2, direction, g, P, offsets)
        validate(dec, g)

        rate = slot_rates(dec, g)
        # validate served each UE by its own cell: no UE twice per direction
        on = (dec.ue >= 0).nonzero()
        bits[on[:2] + (dec.ue[on],)] += rate[on] * dt
        energy += dec.p.sum(axis=-1) * dt

        trace_ue[:, t] = dec.ue
        trace_p[:, t] = dec.p
        st = update_state(st, dec, rate)

    results = [
        DropResult(
            n_cells=B,
            n_ues=N,
            slots=S,
            bits_dl=bits[d, 0],
            bits_ul=bits[d, 1],
            energy_dl_j=float(energy[d, 0]),
            energy_ul_j=float(energy[d, 1]),
            trace_dl_ue=trace_ue[d, :, 0],
            trace_ul_ue=trace_ue[d, :, 1],
            trace_p_dl=trace_p[d, :, 0],
            trace_p_ul=trace_p[d, :, 1],
            diagnostics=dict(zip(ALLOC_COUNTERS, counts[d].tolist())),
        )
        for d in range(D)
    ]
    return results[0] if single else results


def _lockstep_chunks(drops: int, width: int, jobs: int = 1) -> list:
    """Contiguous ranges of drop indices that run_variant runs in lockstep.

    max(jobs, ceil(drops / width)) ranges, at most one per drop, of
    sizes that differ by at most one: each pool worker gets a range, and
    no range holds more than width drops' gain tables at once.
    """
    n = min(drops, max(jobs, -(-drops // width)))
    size, extra = divmod(drops, n)
    bounds = np.cumsum([0] + [size + (i < extra) for i in range(n)])
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def run_variant(cfg: RunConfig, jobs: int = 1) -> list:
    """All drops for one config, in drop order.

    Drops are independent: run_variant runs them in lockstep ranges of
    at most _lockstep_width(cfg) drops (_lockstep_chunks), one pool
    worker per range when jobs > 1, and every drop's result is the same
    whatever the jobs or the range.
    """
    cfg = cfg.validated()
    chunks = _lockstep_chunks(cfg.drops, _lockstep_width(cfg), jobs)
    if jobs <= 1 or cfg.drops == 1:
        runs = [run_drop(cfg, chunk) for chunk in chunks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            futures = [pool.submit(run_drop, cfg, chunk) for chunk in chunks]
            runs = [f.result() for f in futures]
    return [r for run in runs for r in run]


@dataclass
class DirectionMetrics:
    mean_tput_bps: float
    edge5_bps: float
    ee_bits_per_joule: float
    gain_pct: float | None = None


@dataclass
class Metrics:
    scenario: str
    variant: str
    cancellation_db: float | None
    n_drops: int
    dl: DirectionMetrics
    ul: DirectionMetrics
    frac_fd: float
    frac_hd: float
    frac_idle: float
    per_ue_dl_bps: np.ndarray    # pooled across drops, for CDF files
    per_ue_ul_bps: np.ndarray
    diagnostics: dict = field(default_factory=dict)   # allocator counters summed over drops


def _pool_rates(results):
    dl = np.concatenate([r.mean_rate_dl() for r in results])
    ul = np.concatenate([r.mean_rate_ul() for r in results])
    return dl, ul


def gain_pct(rates: np.ndarray, base_rates: np.ndarray) -> float | None:
    """Percent gain of the mean rate over the baseline's mean (ratio of
    means); None, no gain, unless the baseline's mean is positive."""
    if not base_rates.mean() > 0:
        return None
    return (rates.mean() / base_rates.mean() - 1.0) * 100.0


def aggregate(cfg: RunConfig, results: list, baseline: list | None = None) -> Metrics:
    """Reduce drop results to the reported metrics.

    Gains compare pooled per-UE mean throughputs against the baseline
    runs (ratio of means). The drops' allocator counters are summed.
    """
    dl, ul = _pool_rates(results)
    e_dl = sum(r.energy_dl_j for r in results)
    e_ul = sum(r.energy_ul_j for r in results)
    bits_dl = sum(float(r.bits_dl.sum()) for r in results)
    bits_ul = sum(float(r.bits_ul.sum()) for r in results)
    fracs = np.array([r.mode_fractions() for r in results]).mean(axis=0)
    counters = {k: sum(int(r.diagnostics[k]) for r in results) for k in results[0].diagnostics}

    def direction(rates, bits, energy, base_rates):
        return DirectionMetrics(
            mean_tput_bps=float(rates.mean()),
            edge5_bps=float(np.percentile(rates, 5.0)),
            ee_bits_per_joule=bits / energy if energy > 0 else float("inf"),
            gain_pct=None if base_rates is None else gain_pct(rates, base_rates),
        )

    base_dl = base_ul = None
    if baseline is not None:
        base_dl, base_ul = _pool_rates(baseline)
    return Metrics(
        scenario=cfg.scenario,
        variant=cfg.variant,
        cancellation_db=cfg.cancellation_db,
        n_drops=len(results),
        dl=direction(dl, bits_dl, e_dl, base_dl),
        ul=direction(ul, bits_ul, e_ul, base_ul),
        frac_fd=float(fracs[0]),
        frac_hd=float(fracs[1]),
        frac_idle=float(fracs[2]),
        per_ue_dl_bps=np.sort(dl),
        per_ue_ul_bps=np.sort(ul),
        diagnostics=counters,
    )


METRICS_COLUMNS = (
    "scenario,variant,cancellation_db,direction,mean_tput_bps,gain_pct,"
    "edge5_bps,ee_bits_per_joule,frac_fd,frac_hd,frac_idle"
)


def _canc_str(c) -> str:
    return "inf" if c is None else f"{c:g}"


def persist(metrics, out_dir: str, config: dict | None = None) -> dict:
    """Write metrics.csv, per-variant CDF files, and a run manifest.

    Accepts one Metrics or a list. Returns {filename: sha256} for the
    files written; the manifest stores the same map as a content hash,
    and each run's allocator counters next to it, outside that map.
    """
    if not isinstance(metrics, (list, tuple)):
        metrics = [metrics]
    os.makedirs(out_dir, exist_ok=True)
    written = {}

    lines = [METRICS_COLUMNS]
    for m in metrics:
        for direction, d in ((DL, m.dl), (UL, m.ul)):
            gain = "" if d.gain_pct is None else f"{d.gain_pct:.6g}"
            lines.append(
                f"{m.scenario},{m.variant},{_canc_str(m.cancellation_db)},{direction},"
                f"{d.mean_tput_bps:.6g},{gain},{d.edge5_bps:.6g},"
                f"{d.ee_bits_per_joule:.6g},{m.frac_fd:.6g},{m.frac_hd:.6g},{m.frac_idle:.6g}"
            )
    path = os.path.join(out_dir, "metrics.csv")
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as f:
        f.write(data)
    written["metrics.csv"] = hashlib.sha256(data).hexdigest()

    multi = len({m.variant for m in metrics}) < len(metrics)
    for m in metrics:
        tag = f"{m.variant}_{_canc_str(m.cancellation_db)}" if multi else m.variant
        name = f"cdf_{tag}.csv"
        rows = ["dl_bps,ul_bps"]
        for a, b in zip(m.per_ue_dl_bps, m.per_ue_ul_bps):
            rows.append(f"{a:.6g},{b:.6g}")
        data = ("\n".join(rows) + "\n").encode()
        with open(os.path.join(out_dir, name), "wb") as f:
            f.write(data)
        written[name] = hashlib.sha256(data).hexdigest()

    manifest = {
        "config": config or {},
        "results": [
            {
                "scenario": m.scenario,
                "variant": m.variant,
                "cancellation_db": m.cancellation_db,
                "n_drops": m.n_drops,
                "diagnostics": m.diagnostics,
            }
            for m in metrics
        ],
        "files": written,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return written


def dump_trace(result: DropResult, path: str) -> None:
    """Per-slot, per-cell decision log (mode, UE ids, powers in dBm)."""

    def dbm(w):
        return -np.inf if w <= 0 else 10.0 * np.log10(w * 1e3)

    mode = result.trace_mode
    with open(path, "w") as f:
        f.write("slot,cell,mode,dl_ue,ul_ue,p_dl_dbm,p_ul_dbm\n")
        for s in range(result.slots):
            for b in range(result.n_cells):
                f.write(
                    f"{s},{b},{MODE_NAMES[int(mode[s, b])]},"
                    f"{int(result.trace_dl_ue[s, b])},{int(result.trace_ul_ue[s, b])},"
                    f"{dbm(result.trace_p_dl[s, b]):.3f},{dbm(result.trace_p_ul[s, b]):.3f}\n"
                )


def config_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    d["cancellation_db"] = _canc_str(cfg.cancellation_db)
    return d
