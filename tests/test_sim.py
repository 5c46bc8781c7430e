"""Drop loop, aggregation, persistence, and seeding discipline."""

import concurrent.futures
import json
from dataclasses import replace

import numpy as np
import pytest

import fdcell.power_alloc as pa
import fdcell.sim as sim
from conftest import make_decision, toy_gains
from fdcell.channel import GainStack, dbm_to_w
from fdcell.errors import ConfigError
from fdcell.power_alloc import allocate_with_fallback
from fdcell.scheduler import DL, UL, hd_select_ues, init_state, select_ues, update_state
from fdcell.sim import (
    MODE_FD,
    MODE_HD_DL,
    MODE_HD_UL,
    MODE_IDLE,
    SLOT_DURATION_S,
    DropResult,
    Metrics,
    RunConfig,
    _build_network,
    aggregate,
    config_dict,
    drop_rngs,
    persist,
    run_drop,
    run_variant,
)
from fdcell.sinr_rate import SlotDecision, slot_rates


@pytest.fixture(scope="module")
def small_fd_cfg():
    return RunConfig(
        variant="FD", cancellation_db=85.0, slots=6, drops=2, ues_per_cell=2, seed=3
    )


@pytest.fixture(scope="module")
def small_fd_drop(small_fd_cfg):
    return run_drop(small_fd_cfg, 0)


def test_config_validation_rejects_bad_values():
    for bad in [
        dict(slots=0),
        dict(drops=0),
        dict(beta=0.0),
        dict(beta=1.0),
        dict(bandwidth_hz=0.0),
        dict(bandwidth_hz=500.0),
        dict(scenario="Orbital"),
        dict(variant="TDMA"),
        dict(bs_power_dbm=-31.0),
        dict(bs_power_dbm=70.0),
        dict(ue_power_dbm=-10.0),
        dict(cancellation_db=-10.0),
        dict(energy_kappa=-1.0),
        dict(ues_per_cell=0),
    ]:
        with pytest.raises(ConfigError):
            RunConfig(**bad).validated()
    assert RunConfig(cancellation_db=float("inf")).validated().cancellation_db is None
    assert RunConfig(cancellation_db=95.0).validated().cancellation_db == 95.0


@pytest.mark.parametrize(
    "bad",
    [
        dict(energy_kappa=float("nan")),
        dict(energy_kappa=float("inf")),
        dict(bandwidth_hz=float("inf")),
        dict(cancellation_db=float("nan")),
    ],
    ids=["energy_kappa-nan", "energy_kappa-inf", "bandwidth_hz-inf", "cancellation_db-nan"],
)
def test_config_validation_rejects_non_finite_values(bad):
    # a NaN cancellation must not pass for perfect cancellation
    with pytest.raises(ConfigError):
        RunConfig(**bad).validated()


@pytest.mark.parametrize("seed", [-1, 2.5, "3"])
def test_config_validation_rejects_bad_seed(seed):
    # a negative seed used to reach SeedSequence and die there
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        RunConfig(seed=seed).validated()
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        run_drop(RunConfig(seed=seed, slots=1, drops=1), 0)


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("field", ["slots", "drops", "ues_per_cell"])
def test_config_validation_rejects_non_integer_counts(field, value):
    # a float or bool count used to pass and die in run_drop with a bare TypeError
    bad = {"slots": 1, "drops": 1, field: value}
    with pytest.raises(ConfigError, match=f"{field} must be a positive integer"):
        RunConfig(**bad).validated()
    with pytest.raises(ConfigError, match=f"{field} must be a positive integer"):
        run_drop(RunConfig(**bad), 0)


def test_config_validation_accepts_numpy_counts():
    cfg = RunConfig(slots=np.int64(2), drops=np.int32(1), ues_per_cell=np.int64(2), seed=0)
    assert cfg.validated() == cfg
    assert run_drop(cfg, 0).slots == 2


def test_config_validation_accepts_unset_and_numpy_seeds():
    # None is a CLI spec whose seed is filled in after the config file
    assert RunConfig(seed=None).validated().seed is None
    # ... but a run never starts without one
    unset = RunConfig(seed=None, slots=1, drops=1, ues_per_cell=2)
    for run in (lambda: run_drop(unset, 0), lambda: run_variant(unset)):
        with pytest.raises(ConfigError, match="seed must be set"):
            run()
    assert RunConfig(seed=np.int64(4)).validated().seed == 4
    assert RunConfig(seed=0).validated().seed == 0


def test_drop_is_deterministic(small_fd_cfg, small_fd_drop):
    again = run_drop(small_fd_cfg, 0)
    np.testing.assert_array_equal(again.bits_dl, small_fd_drop.bits_dl)
    np.testing.assert_array_equal(again.bits_ul, small_fd_drop.bits_ul)
    np.testing.assert_array_equal(again.trace_p_dl, small_fd_drop.trace_p_dl)
    np.testing.assert_array_equal(again.trace_mode, small_fd_drop.trace_mode)
    assert again.energy_dl_j == small_fd_drop.energy_dl_j
    assert again.energy_ul_j == small_fd_drop.energy_ul_j


def test_drop_reports_allocator_counters(small_fd_cfg, small_fd_drop, monkeypatch):
    d = small_fd_drop.diagnostics
    assert d["cap_rounds"] >= 1
    assert d["outer_iterations"] >= 1
    # inner_iterations is the sum of the Newton iterations minimize_box
    # returned over the drop, one call per outer iteration
    calls = []
    solve = pa.minimize_box

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        calls.append(out[2])
        return out

    monkeypatch.setattr(pa, "minimize_box", counted)
    again = run_drop(small_fd_cfg, 0).diagnostics
    assert again == d
    assert d["inner_iterations"] == sum(calls) > 0
    assert len(calls) == d["outer_iterations"]


def test_drop_counts_sp_stopped_at_round_limit_as_nonconverged(small_fd_cfg, monkeypatch):
    diags = []

    def recorded(*args, **kwargs):
        out, diag = allocate_with_fallback(*args, **kwargs)
        diags.append(diag)
        return out, diag

    monkeypatch.setattr(sim, "allocate_with_fallback", recorded)
    monkeypatch.setattr(pa, "MAX_OUTER", 0)
    d = run_drop(small_fd_cfg, 0).diagnostics
    capped = sum(x["outer_capped"] > 0 for x in diags)
    assert capped > 0
    assert d["nonconverged_slots"] == capped == d["outer_capped"]


def test_cap_rounds_count_sp_solves(monkeypatch):
    # every cap round runs an SP: a round that only re-trims a point
    # with every link pinned would count without one
    calls = []
    solve = pa.solve_power_sp

    def counted(prob, P0):
        calls.append(prob.n_vars)
        return solve(prob, P0)

    monkeypatch.setattr(pa, "solve_power_sp", counted)
    cfg = RunConfig(variant="FD", cancellation_db=95.0, slots=20, seed=0)
    d = run_drop(cfg, 1).diagnostics
    assert d["cap_rounds"] == len(calls) > 0


def test_network_depends_on_drop_not_variant():
    cfg_a = RunConfig(variant="HD", slots=1, ues_per_cell=2, seed=11)
    cfg_b = RunConfig(variant="FD", cancellation_db=75.0, slots=1, ues_per_cell=2, seed=11)
    topo_rng, chan_rng, _ = drop_rngs(11, 4)
    _, g_a = _build_network(cfg_a, topo_rng, chan_rng)
    topo_rng, chan_rng, _ = drop_rngs(11, 4)
    _, g_b = _build_network(cfg_b, topo_rng, chan_rng)
    np.testing.assert_array_equal(g_a.g_dl, g_b.g_dl)
    np.testing.assert_array_equal(g_a.g_ue, g_b.g_ue)

    topo_rng, chan_rng, _ = drop_rngs(11, 5)
    _, g_c = _build_network(cfg_a, topo_rng, chan_rng)
    assert not np.array_equal(g_a.g_dl, g_c.g_dl)


@pytest.mark.parametrize("variant", ["HD", "RR_HD"])
def test_hd_variants_alternate_directions(variant):
    cfg = RunConfig(variant=variant, slots=8, ues_per_cell=2, seed=5)
    res = run_drop(cfg, 0)
    for t in range(cfg.slots):
        modes = set(res.trace_mode[t].tolist())
        if t % 2 == 0:
            assert modes <= {MODE_IDLE, MODE_HD_DL}
            assert np.all(res.trace_ul_ue[t] == -1)
            assert not res.trace_p_ul[t].any()
        else:
            assert modes <= {MODE_IDLE, MODE_HD_UL}
            assert np.all(res.trace_dl_ue[t] == -1)
            assert not res.trace_p_dl[t].any()


def test_fd_doubles_clean_single_cell():
    # one cell, two interchangeable UEs, perfect cancellation, no UE-UE
    # coupling: FD must deliver exactly twice the HD slot volume
    g = toy_gains([[1e-8, 1e-8]], gamma=0.0)
    P = (g.p_bs_w, g.p_ue_w)
    slots = 8
    rng_hd = np.random.default_rng(2)
    rng_fd = np.random.default_rng(2)

    bits = {"HD": 0.0, "FD": 0.0}
    st_hd = init_state(2, g.bandwidth_hz)
    st_fd = init_state(2, g.bandwidth_hz)
    for t in range(slots):
        direction = DL if t % 2 == 0 else UL
        sel = hd_select_ues(st_hd, g, P, direction, rng_hd)
        dec, _ = allocate_with_fallback(st_hd, sel, g)
        rate = slot_rates(dec, g)
        bits["HD"] += (rate[0].sum() + rate[1].sum()) * SLOT_DURATION_S
        st_hd = update_state(st_hd, dec, rate)

        sel = select_ues(st_fd, g, P, rng_fd)
        dec, _ = allocate_with_fallback(st_fd, sel, g)
        rate = slot_rates(dec, g)
        bits["FD"] += (rate[0].sum() + rate[1].sum()) * SLOT_DURATION_S
        st_fd = update_state(st_fd, dec, rate)

    assert bits["HD"] > 0
    assert bits["FD"] == pytest.approx(2.0 * bits["HD"], rel=1e-12)


def synthetic_result(bits_dl, bits_ul, energy_dl, energy_ul, mode_counts, slots=10, B=2):
    """A drop whose UE traces hold mode_counts[code] cell-slots of each mode."""
    n = len(bits_dl)
    shape = (slots, B)
    assert sum(mode_counts) == slots * B
    code = np.repeat(np.arange(4), mode_counts).reshape(shape)
    res = DropResult(
        n_cells=B,
        n_ues=n,
        slots=slots,
        bits_dl=np.asarray(bits_dl, dtype=float),
        bits_ul=np.asarray(bits_ul, dtype=float),
        energy_dl_j=energy_dl,
        energy_ul_j=energy_ul,
        trace_dl_ue=np.where(code & MODE_HD_DL, 0, -1).astype(np.int32),
        trace_ul_ue=np.where(code & MODE_HD_UL, 0, -1).astype(np.int32),
        trace_p_dl=np.zeros(shape),
        trace_p_ul=np.zeros(shape),
    )
    np.testing.assert_array_equal(np.bincount(res.trace_mode.ravel(), minlength=4), mode_counts)
    return res


def test_aggregate_matches_hand_computation():
    cfg = RunConfig(variant="FD", cancellation_db=85.0, slots=10, drops=2)
    dt = 10 * 1e-3
    r1 = synthetic_result([1e4, 2e4, 3e4, 4e4], [4e3, 3e3, 2e3, 1e3], 2e-4, 1e-4,
                          [12, 4, 4, 0])
    r2 = synthetic_result([2e4, 2e4, 2e4, 2e4], [1e3, 1e3, 1e3, 1e3], 1e-4, 1e-4,
                          [10, 2, 2, 6])
    b1 = synthetic_result([1e4, 1e4, 1e4, 1e4], [2e3, 2e3, 2e3, 2e3], 3e-4, 2e-4,
                          [8, 6, 6, 0])
    m = aggregate(cfg, [r1, r2], baseline=[b1, b1])

    rates_dl = np.concatenate([r1.bits_dl, r2.bits_dl]) / dt
    base_dl = np.concatenate([b1.bits_dl, b1.bits_dl]) / dt
    assert m.dl.mean_tput_bps == pytest.approx(rates_dl.mean(), rel=1e-12)
    assert m.dl.edge5_bps == pytest.approx(np.percentile(rates_dl, 5.0), rel=1e-12)
    assert m.dl.ee_bits_per_joule == pytest.approx((1e5 + 8e4) / 3e-4, rel=1e-12)
    assert m.dl.gain_pct == pytest.approx(
        (rates_dl.mean() / base_dl.mean() - 1.0) * 100.0, rel=1e-12
    )
    assert m.ul.ee_bits_per_joule == pytest.approx((1e4 + 4e3) / 2e-4, rel=1e-12)
    # mode fractions: mean over drops of per-drop fractions
    f1 = np.array([0.0, 8 / 20, 12 / 20])
    f2 = np.array([6 / 20, 4 / 20, 10 / 20])
    want_fd, want_hd, want_idle = (f1 + f2) / 2
    assert m.frac_fd == pytest.approx(want_fd, abs=1e-15)
    assert m.frac_hd == pytest.approx(want_hd, abs=1e-15)
    assert m.frac_idle == pytest.approx(want_idle, abs=1e-15)
    assert m.frac_fd + m.frac_hd + m.frac_idle == pytest.approx(1.0, abs=1e-12)
    # per-UE pools are sorted for CDF output
    assert np.all(np.diff(m.per_ue_dl_bps) >= 0)


def test_aggregate_gain_vs_self_is_zero(small_fd_cfg, small_fd_drop):
    m = aggregate(small_fd_cfg, [small_fd_drop], baseline=[small_fd_drop])
    assert m.dl.gain_pct == 0.0
    assert m.ul.gain_pct == 0.0
    m2 = aggregate(small_fd_cfg, [small_fd_drop])
    assert m2.dl.gain_pct is None


def test_energy_double_entry_exact(small_fd_drop):
    e_dl, e_ul = small_fd_drop.energy_from_trace()
    assert e_dl == small_fd_drop.energy_dl_j
    assert e_ul == small_fd_drop.energy_ul_j
    assert e_dl > 0 and e_ul > 0


def test_mode_accounting(small_fd_cfg, small_fd_drop):
    res = small_fd_drop
    counts = np.bincount(res.trace_mode.ravel(), minlength=4)
    assert counts.size == 4 and counts.sum() == res.slots * res.n_cells
    fd, hd, idle = res.mode_fractions()
    assert fd + hd + idle == pytest.approx(1.0, abs=1e-12)
    # the fractions count the trace's mode codes
    for code, want in ((MODE_FD, fd), (MODE_IDLE, idle)):
        assert (res.trace_mode == code).mean() == pytest.approx(want, abs=1e-12)
    # FD mode means both directions assigned in that cell-slot
    fd_mask = res.trace_mode == MODE_FD
    assert np.all(res.trace_dl_ue[fd_mask] >= 0)
    assert np.all(res.trace_ul_ue[fd_mask] >= 0)
    assert np.all(res.trace_dl_ue[res.trace_mode == MODE_HD_UL] == -1)


def test_trace_mode_codes_every_link_combination():
    g = toy_gains(np.full((4, 8), 1e-9))
    dec = make_decision(g, dl=[None, 2, None, 6], ul=[None, None, 5, 7])
    res = DropResult(
        n_cells=4,
        n_ues=8,
        slots=1,
        bits_dl=np.zeros(8),
        bits_ul=np.zeros(8),
        energy_dl_j=0.0,
        energy_ul_j=0.0,
        trace_dl_ue=dec.dl_ue[None].astype(np.int32),
        trace_ul_ue=dec.ul_ue[None].astype(np.int32),
        trace_p_dl=dec.p_dl[None],
        trace_p_ul=dec.p_ul[None],
    )
    mode = res.trace_mode
    assert mode.dtype == np.int8
    np.testing.assert_array_equal(mode, [[MODE_IDLE, MODE_HD_DL, MODE_HD_UL, MODE_FD]])


def test_fdue_drop_bits_equal_per_slot_rate_sums():
    # the slot loop adds each slot's rates by fancy-indexed +=, which is
    # np.add.at as long as no UE appears twice in one direction of a slot
    cfg = RunConfig(
        variant="FD_FDUE", cancellation_db=110.0, slots=12, drops=1, ues_per_cell=2, seed=4
    )
    res = run_drop(cfg, 0)
    topo_rng, chan_rng, _ = drop_rngs(cfg.seed, 0)
    _, g = _build_network(cfg, topo_rng, chan_rng)
    bits_dl = np.zeros(res.n_ues)
    bits_ul = np.zeros(res.n_ues)
    shared = 0
    for t in range(cfg.slots):
        dl_ue = res.trace_dl_ue[t].astype(int)
        ul_ue = res.trace_ul_ue[t].astype(int)
        dec = SlotDecision(dl_ue, ul_ue, res.trace_p_dl[t], res.trace_p_ul[t], fd_ue=True)
        rd, ru = slot_rates(dec, g)
        np.add.at(bits_dl, dl_ue[dl_ue >= 0], rd[dl_ue >= 0] * SLOT_DURATION_S)
        np.add.at(bits_ul, ul_ue[ul_ue >= 0], ru[ul_ue >= 0] * SLOT_DURATION_S)
        shared += int(np.sum((dl_ue >= 0) & (dl_ue == ul_ue)))
    assert shared > 0
    np.testing.assert_array_equal(res.bits_dl, bits_dl)
    np.testing.assert_array_equal(res.bits_ul, bits_ul)


def test_run_variant_parallel_matches_sequential():
    cfg = RunConfig(variant="HD", slots=4, drops=2, ues_per_cell=2, seed=9)
    seq = run_variant(cfg, jobs=1)
    par = run_variant(cfg, jobs=2)
    assert len(seq) == cfg.drops
    for a, b in zip(seq, par):
        np.testing.assert_array_equal(a.bits_dl, b.bits_dl)
        np.testing.assert_array_equal(a.trace_p_ul, b.trace_p_ul)


def test_run_variant_pool_has_at_most_one_worker_per_drop(monkeypatch):
    workers = []

    class InlinePool:
        """Runs each drop in this process and records the requested size."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = RunConfig(variant="RR_HD", slots=2, drops=3, ues_per_cell=2, seed=9)
    assert len(run_variant(cfg, jobs=64)) == 3
    assert len(run_variant(cfg, jobs=2)) == 3
    assert workers == [3, 2]


DROP_ARRAYS = ("bits_dl", "bits_ul", "trace_dl_ue", "trace_ul_ue", "trace_p_dl", "trace_p_ul")


@pytest.mark.parametrize("canc", [75.0, None])
@pytest.mark.parametrize("variant", sim.VARIANTS)
@pytest.mark.parametrize("scenario", sim.SCENARIOS)
def test_lockstep_drops_equal_one_drop_runs(scenario, variant, canc, monkeypatch):
    # run_variant advances its drops in lockstep chunks; every drop's
    # outputs equal its own run_drop's bit for bit, whatever the chunk
    # width or the number of jobs
    cfg = RunConfig(scenario=scenario, variant=variant, cancellation_db=canc,
                    slots=4, drops=3, ues_per_cell=2, seed=11)
    assert_lockstep_equals_alone(cfg, [run_drop(cfg, d) for d in range(cfg.drops)], monkeypatch)


@pytest.mark.parametrize("scenario, ues_per_cell", [("Indoor", 3), ("Outdoor", 4)])
def test_lockstep_rr_fd_partners_follow_each_drops_stream(scenario, ues_per_cell, monkeypatch):
    # with two UEs per cell every partner offset is 0 and consumes nothing,
    # so only U >= 3 shows the order of the partner draws: each drop's
    # partners are those of one draw of size B per slot from its own
    # scheduler stream, alone and in every chunk
    cfg = RunConfig(scenario=scenario, variant="RR_FD", cancellation_db=85.0,
                    slots=6, drops=3, ues_per_cell=ues_per_cell, seed=11)
    alone = [run_drop(cfg, d) for d in range(cfg.drops)]
    for d, res in enumerate(alone):
        topo_rng, chan_rng, sched_rng = drop_rngs(cfg.seed, d)
        ids = _build_network(cfg, topo_rng, chan_rng)[1].cell_ue_ids
        B, U = ids.shape
        for t in range(cfg.slots):
            k, pos = sched_rng.integers(0, U - 1, size=B), (t // 2) % U
            turn, partner = res.trace_dl_ue[t], res.trace_ul_ue[t]
            if t % 2:
                turn, partner = partner, turn
            assert np.array_equal(turn, ids[:, pos]), (d, t)
            assert np.array_equal(partner, ids[np.arange(B), k + (k >= pos)]), (d, t)
    assert_lockstep_equals_alone(cfg, alone, monkeypatch)


@pytest.mark.parametrize("variant", ["FD", "RR_FD"])
def test_wide_lockstep_chunk_equals_one_drop_runs(variant, monkeypatch):
    # the byte budget lets small Indoor networks run 16 drops as one chunk:
    # each still gets the outputs of its own run_drop, bit for bit
    cfg = RunConfig(variant=variant, cancellation_db=85.0, slots=4, drops=16,
                    ues_per_cell=2, seed=11)
    assert sim._lockstep_chunks(cfg.drops, sim._lockstep_width(cfg)) == [range(16)]
    assert_lockstep_equals_alone(cfg, [run_drop(cfg, d) for d in range(cfg.drops)], monkeypatch)


def _gain_bytes_built(cfg):
    tables = [_build_network(cfg, *drop_rngs(cfg.seed, d)[:2])[1] for d in range(2)]
    layer = GainStack(tables).tx_rx[0]
    g = tables[0]
    return layer.nbytes + g.g_ue.nbytes + g.g_bs.nbytes + g.g_dl.nbytes + g.dist_bs_ue_m.nbytes


def test_lockstep_width_holds_default_networks():
    # the budget is the gain bytes of 8 default Outdoor drops; an Indoor
    # drop holds fewer, so 21 of them fit. The bytes counted from the
    # shape are those a built drop holds, with or without an override
    outdoor, indoor = RunConfig(scenario="Outdoor"), RunConfig(scenario="Indoor")
    assert sim.LOCKSTEP_BYTES == 8 * sim._drop_gain_bytes(outdoor)
    assert sim._lockstep_width(outdoor) == 8
    assert sim._lockstep_width(indoor) == 21
    for cfg in (outdoor, indoor, replace(outdoor, ues_per_cell=2), replace(indoor, ues_per_cell=3)):
        assert sim._drop_gain_bytes(cfg) == _gain_bytes_built(cfg), cfg


@pytest.mark.parametrize("scenario", sim.SCENARIOS)
def test_lockstep_width_keeps_chunks_within_the_budget(scenario):
    # as many drops as fit, and one more would overrun the budget
    for ues_per_cell in (1, 2, 3, 5, 8, 10, 16, 20):
        cfg = RunConfig(scenario=scenario, ues_per_cell=ues_per_cell)
        width, per_drop = sim._lockstep_width(cfg), sim._drop_gain_bytes(cfg)
        assert width * per_drop <= sim.LOCKSTEP_BYTES < (width + 1) * per_drop, ues_per_cell


def test_lockstep_width_of_an_oversized_drop_is_one():
    # computed from the shape alone: nothing of this size is built
    cfg = RunConfig(scenario="Outdoor", ues_per_cell=1000)
    assert sim._drop_gain_bytes(cfg) > sim.LOCKSTEP_BYTES
    assert sim._lockstep_width(cfg) == 1


def assert_lockstep_equals_alone(cfg, alone, monkeypatch):
    """run_variant with jobs=2, at its own chunk width and at widths 1 and
    2 gives every drop the outputs of its one-drop run in alone."""
    runs = {"jobs=2": run_variant(cfg, jobs=2), "own width": run_variant(cfg)}
    for width in (1, 2):
        monkeypatch.setattr(sim, "_lockstep_width", lambda cfg, width=width: width)
        runs[f"width {width}"] = run_variant(cfg)
    for how, results in runs.items():
        assert len(results) == cfg.drops, how
        for d, (got, ref) in enumerate(zip(results, alone)):
            for name in DROP_ARRAYS:
                assert np.array_equal(getattr(got, name), getattr(ref, name)), (how, d, name)
            assert (got.energy_dl_j, got.energy_ul_j) == (ref.energy_dl_j, ref.energy_ul_j), (how, d)
            assert got.diagnostics == ref.diagnostics, (how, d)


def run_metrics(cfg):
    results = run_variant(cfg)
    return aggregate(cfg, results)


def test_persist_roundtrip_and_byte_determinism(tmp_path, small_fd_cfg):
    m = run_metrics(small_fd_cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    w1 = persist([m], str(d1), config=config_dict(small_fd_cfg))
    w2 = persist([m], str(d2), config=config_dict(small_fd_cfg))
    assert w1 == w2
    assert set(w1) == {"metrics.csv", "cdf_FD.csv"}

    lines = (d1 / "metrics.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2  # header + DL row + UL row
    header = lines[0].split(",")
    row_dl = dict(zip(header, lines[1].split(",")))
    assert row_dl["direction"] == "DL"
    assert row_dl["variant"] == "FD"
    assert row_dl["cancellation_db"] == "85"
    assert float(row_dl["mean_tput_bps"]) == pytest.approx(m.dl.mean_tput_bps, rel=1e-5)
    assert float(row_dl["frac_fd"]) == pytest.approx(m.frac_fd, rel=1e-5)

    cdf = (d1 / "cdf_FD.csv").read_text().strip().split("\n")
    n_ues = 9 * 2  # three-by-three grid, two UEs per cell
    assert len(cdf) == 1 + n_ues * small_fd_cfg.drops
    first = [float(x) for x in cdf[1].split(",")]
    assert first[0] == pytest.approx(m.per_ue_dl_bps[0], rel=1e-5)

    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["files"] == w1
    assert manifest["config"]["seed"] == small_fd_cfg.seed
    assert manifest["results"][0]["variant"] == "FD"


def test_manifest_records_summed_allocator_counters(tmp_path, small_fd_cfg):
    manifests = []
    for name in ("a", "b"):
        results = run_variant(small_fd_cfg)
        expected = {
            k: sum(r.diagnostics[k] for r in results) for k in results[0].diagnostics
        }
        assert {"fallbacks", "certified", "nonconverged_slots", "outer_iterations",
                "inner_iterations", "outer_capped", "cap_rounds"} <= set(expected)
        assert expected["outer_iterations"] > 0 and expected["inner_iterations"] > 0
        m = aggregate(small_fd_cfg, results)
        assert m.diagnostics == expected
        written = persist(m, str(tmp_path / name), config=config_dict(small_fd_cfg))
        # the counters sit next to the hashed files, not among them
        assert set(written) == {"metrics.csv", "cdf_FD.csv"}
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["results"][0]["diagnostics"] == expected
        assert manifest["files"] == written
        manifests.append((tmp_path / name / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_persist_qualifies_cdf_names_on_repeat_variant(tmp_path, small_fd_cfg):
    m85 = run_metrics(small_fd_cfg)
    cfg_inf = RunConfig(**{**config_dict(small_fd_cfg), "cancellation_db": None})
    m_inf = run_metrics(cfg_inf)
    written = persist([m85, m_inf], str(tmp_path / "c"))
    assert set(written) == {"metrics.csv", "cdf_FD_85.csv", "cdf_FD_inf.csv"}


def test_config_dict_serializes_infinite_cancellation():
    d = config_dict(RunConfig(cancellation_db=None))
    assert d["cancellation_db"] == "inf"
    d2 = config_dict(RunConfig(cancellation_db=75.0))
    assert d2["cancellation_db"] == "75"


def test_slot_duration_and_power_caps_in_energy(small_fd_drop):
    # energy is transmit power times slot duration only: bounded by the
    # caps times the time on air
    res = small_fd_drop
    assert res.energy_dl_j <= res.n_cells * res.slots * SLOT_DURATION_S * dbm_to_w(24.0) * (1 + 1e-9)
    assert res.energy_ul_j <= res.n_cells * res.slots * SLOT_DURATION_S * dbm_to_w(23.0) * (1 + 1e-9)
