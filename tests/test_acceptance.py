"""Acceptance gate: one test per release criterion.

Each test prints a single `criterion N: PASS/FAIL - detail` line (run
with -s to see them all) and then asserts, so a full run reads as a
checklist. Criteria 1-6 are deterministic exactness gates on the
channel, GP, power-control and scheduling layers; criteria 7-11 re-run
the scaled scenario studies and gate ranges and orderings only, since
Monte-Carlo at desk scale cannot pin exact table values.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    cell_options,
    indoor_network,
    make_decision,
    random_power_instance,
    total_slot_utility,
)
from fdcell.channel import (
    BS_BS,
    BS_UE,
    UE_UE,
    dbm_to_w,
    los_probability_indoor,
    los_probability_outdoor,
    noise_power_w,
    pathloss_indoor_inter,
    pathloss_indoor_intra,
    pathloss_outdoor,
)
from fdcell.gp_core import (
    GPProblem,
    Monomial,
    Posynomial,
    STATUS_CONVERGED as GP_CONVERGED,
    condense,
    evaluate,
    solve_gp,
)
from fdcell.power_alloc import (
    STATUS_CONVERGED,
    allocate_with_fallback,
    build_power_problem,
    solve_power_sp,
)
from fdcell.scheduler import chi, init_state, select_ues
from fdcell.sim import (
    RunConfig,
    _build_network,
    aggregate,
    drop_rngs,
    run_variant,
)
from fdcell.sinr_rate import SlotDecision, rate_from_sinr, slot_rates, validate

SLOTS = 200
DROPS = 5
SEED = 0
JOBS = max(1, min(DROPS, os.cpu_count() or 1))
CANC_SWEEP = (75.0, 85.0, 95.0, 105.0, None)


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


def _run(scenario, variant, cancellation):
    cfg = RunConfig(
        scenario=scenario,
        variant=variant,
        cancellation_db=cancellation,
        slots=SLOTS,
        drops=DROPS,
        seed=SEED,
    )
    return run_variant(cfg, jobs=JOBS), cfg


@pytest.fixture(scope="module")
def indoor_runs():
    t0 = time.perf_counter()
    runs = {"hd": _run("Indoor", "HD", None)}
    runs["fd"] = {c: _run("Indoor", "FD", c) for c in CANC_SWEEP}
    runs["elapsed_s"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="module")
def rr_runs():
    return {"hd": _run("Indoor", "RR_HD", 85.0), "fd": _run("Indoor", "RR_FD", 85.0)}


@pytest.fixture(scope="module")
def ea_run():
    return _run("Indoor", "FD_EnergyAware", 75.0)


@pytest.fixture(scope="module")
def outdoor_runs():
    return {"hd": _run("Outdoor", "HD", None), "fd": _run("Outdoor", "FD", 95.0)}


# --- criterion 1: channel exactness ---------------------------------------


def test_criterion_01_channel_exactness():
    t0 = time.perf_counter()
    lg = math.log10
    checks = [
        ("los_in(0.010)", los_probability_indoor(0.010), 1.0),
        ("los_in(0.018)", los_probability_indoor(0.018), 1.0),
        ("los_in(0.025)", los_probability_indoor(0.025), math.exp(-(0.025 - 0.018) / 0.027)),
        ("los_in(0.037)", los_probability_indoor(0.037), 0.5),
        ("los_in(2.0)", los_probability_indoor(2.0), 0.5),
        ("los_out(0.0)", los_probability_outdoor(0.0), 1.0),
        (
            "los_out(0.05)",
            los_probability_outdoor(0.05),
            0.5
            - min(0.5, 5.0 * math.exp(-0.156 / 0.05))
            + min(0.5, 5.0 * math.exp(-0.05 / 0.03)),
        ),
        ("los_out(10.0)", los_probability_outdoor(10.0), 0.0),
        ("pl_in_intra(0.020,los)", pathloss_indoor_intra(0.020, True), 89.5 + 16.9 * lg(0.020)),
        ("pl_in_intra(0.100,nlos)", pathloss_indoor_intra(0.100, False), 147.4 - 43.3),
        ("pl_in_intra(1.0,los)", pathloss_indoor_intra(1.0, True), 89.5),
        ("pl_in_inter(0.1)", pathloss_indoor_inter(0.1), 104.1),
        ("pl_in_inter(1.0)", pathloss_indoor_inter(1.0), 147.4),
        ("pl_out_bu(0.1,los)", pathloss_outdoor(BS_UE, 0.1, los=True), 82.9),
        ("pl_out_bu(0.1,nlos)", pathloss_outdoor(BS_UE, 0.1, los=False), 145.4 - 37.5),
        ("pl_out_uu(0.040)", pathloss_outdoor(UE_UE, 0.040), 98.45 + 20.0 * lg(0.040)),
        ("pl_out_bb(1.0,nlos)", pathloss_outdoor(BS_BS, 1.0, los=False), 169.36),
        ("pl_out_bb(0.5,los)", pathloss_outdoor(BS_BS, 0.5, los=True), 89.5 + 16.9 * lg(0.5)),
        ("pl_out_bb(1.0,los)", pathloss_outdoor(BS_BS, 1.0, los=True), 101.9),
        ("noise(10MHz,nf8)", noise_power_w(10e6, 8.0), 10 ** ((-174 + 70 + 8) / 10 - 3)),
        ("noise(10MHz,nf9)", noise_power_w(10e6, 9.0), dbm_to_w(-95.0)),
        ("dbm_to_w(24)", dbm_to_w(24.0), 10 ** ((24.0 - 30.0) / 10.0)),
    ]
    fails = [
        f"{name}: {got!r} != {want!r}"
        for name, got, want in checks
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    ]
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 1.0
    detail = f"{len(checks) - len(fails)}/{len(checks)} closed-form values match to 1e-9 in {elapsed:.3f}s"
    report(1, ok, detail + ("; " + "; ".join(fails) if fails else ""))


# --- criterion 2: GP core --------------------------------------------------


def _random_posynomial(rng, n_vars=3, n_terms=5):
    terms = []
    for _ in range(n_terms):
        coeff = float(rng.lognormal(0.0, 1.0))
        exps = {k: float(rng.uniform(-2.0, 2.0)) for k in range(n_vars) if rng.random() < 0.7}
        terms.append(Monomial(coeff, exps))
    return Posynomial(terms)


def test_criterion_02_gp_condensation_and_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_tangency = 0.0
    worst_overshoot = 0.0
    for _ in range(100):
        p = _random_posynomial(rng)
        x0 = rng.lognormal(0.0, 0.7, 3)
        m = condense(p, x0)
        pv = evaluate(p, x0)
        worst_tangency = max(worst_tangency, abs(evaluate(m, x0) - pv) / pv)
        for _ in range(100):
            x = rng.lognormal(0.0, 0.9, 3)
            gap = evaluate(m, x) - evaluate(p, x)
            worst_overshoot = max(worst_overshoot, gap / max(evaluate(p, x), 1e-300))

    fails = []
    if worst_tangency > 1e-12:
        fails.append(f"tangency violation {worst_tangency:.2e}")
    if worst_overshoot > 1e-12:
        fails.append(f"under-estimation violation {worst_overshoot:.2e}")

    # min x + 1/x on [0.1, 10]: x* = 1, value 2
    obj = Posynomial([Monomial(1.0, {0: 1.0}), Monomial(1.0, {0: -1.0})])
    x, status = solve_gp(GPProblem(obj, var_bounds={0: (0.1, 10.0)}))
    if status != GP_CONVERGED or abs(x[0] - 1.0) > 1e-4 or abs(evaluate(obj, x) - 2.0) > 2e-4:
        fails.append(f"amgm problem: x={x}, status={status}")

    # min 1/(x y) s.t. x/2 + y/2 <= 1: x* = y* = 1, value 1
    obj = Posynomial([Monomial(1.0, {0: -1.0, 1: -1.0})])
    con = Posynomial([Monomial(0.5, {0: 1.0}), Monomial(0.5, {1: 1.0})])
    x, status = solve_gp(
        GPProblem(obj, constraints_le=[con], var_bounds={0: (1e-4, 2.0), 1: (1e-4, 2.0)})
    )
    if status != GP_CONVERGED or abs(x[0] - 1.0) > 1e-4 or abs(x[1] - 1.0) > 1e-4:
        fails.append(f"constrained problem: x={x}, status={status}")

    # min 1/x with x <= pmax: sits on the cap
    pmax = 0.251
    obj = Posynomial([Monomial(1.0, {0: -1.0})])
    x, status = solve_gp(GPProblem(obj, var_bounds={0: (1e-6, pmax)}))
    if status != GP_CONVERGED or abs(x[0] - pmax) / pmax > 1e-4:
        fails.append(f"cap problem: x={x}, status={status}")

    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 10.0
    detail = (
        f"10k condensation points (worst tangency {worst_tangency:.1e}, overshoot "
        f"{worst_overshoot:.1e}), 3 analytic optima hit within 1e-4 in {elapsed:.2f}s"
    )
    report(2, ok, detail + ("; " + "; ".join(fails) if fails else ""))


# --- criterion 3: SP outer-loop monotonicity -------------------------------


def test_criterion_03_sp_monotone_descent():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    fails = []
    outers = []
    for i in range(50):
        st, sel, g = random_power_instance(rng)
        prob = build_power_problem(st, sel, g)
        p, status, info = solve_power_sp(prob, prob.p_max.copy())
        outers.append(info["outer_iterations"])
        if status != STATUS_CONVERGED:
            fails.append(f"instance {i}: status {status}")
            continue
        if info["steps"][-1] >= prob.epsilon:
            fails.append(f"instance {i}: final step {info['steps'][-1]:.2e} >= eps")
        traj = info["trajectory"]
        for prev, cur in zip(traj, traj[1:]):
            if cur > prev + 1e-9 * max(1.0, abs(prev)):
                fails.append(f"instance {i}: objective rose {prev} -> {cur}")
                break
        if np.any(p < prob.p_floor * (1 - 1e-12)) or np.any(p > prob.p_max * (1 + 1e-12)):
            fails.append(f"instance {i}: solution left the box")
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 60.0
    detail = (
        f"50/50 random 2-4-cell problems converged monotonically under the step rule "
        f"(outer iterations {min(outers)}-{max(outers)}) in {elapsed:.2f}s"
    )
    report(3, ok, detail + ("; " + "; ".join(fails[:3]) if fails else ""))


# --- criterion 4: greedy selection matches the exhaustive oracle -----------


def test_criterion_04_selection_matches_exhaustive():
    # decoupled radio (perfect cancellation, no UE-UE path): the slot
    # utility is separable per direction and the greedy scan is exact
    hits = 0
    for trial in range(100):
        n_ues = 1 if trial % 3 == 0 else 2
        _, g = indoor_network(seed=40_000 + trial, ues_per_cell=n_ues, rooms_per_side=1)
        g = replace(g.with_cancellation(None), g_ue=np.zeros((n_ues, n_ues)))
        st = init_state(n_ues, 10e6, beta=0.99)
        sel = select_ues(st, g, (g.p_bs_w, g.p_ue_w), np.random.default_rng(trial))
        u_got = total_slot_utility(sel, g, st)
        u_best = 0.0
        for d, u in cell_options(g.cell_ue_ids[0]):
            dec = make_decision(g, dl=[d], ul=[u])
            u_best = max(u_best, total_slot_utility(dec, g, st))
        hits += u_got >= u_best * (1 - 1e-12) - 1e-15
    report(4, hits == 100, f"{hits}/100 single-cell draws match the exhaustive argmax")


# --- criterion 5: joint pipeline near-optimality ---------------------------


def _combo_grid_best(st, g, dl, ul, lv_bs, lv_ue):
    """Best utility over the power grid for one fixed UE selection.

    SINRs are recomputed here from the gain table directly so the grid
    oracle does not share code with the simulator's rate path.
    """
    B = g.n_cells
    active = [("d", i) for i in range(B) if dl[i] >= 0]
    active += [("u", i) for i in range(B) if ul[i] >= 0]
    if not active:
        return 0.0, None
    mesh = np.meshgrid(*[lv_bs if kind == "d" else lv_ue for kind, _ in active], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh])
    n_pts = pts.shape[1]
    p_dl = np.zeros((B, n_pts))
    p_ul = np.zeros((B, n_pts))
    for row, (kind, i) in enumerate(active):
        (p_dl if kind == "d" else p_ul)[i] = pts[row]
    util = np.zeros(n_pts)
    for i in range(B):
        r = dl[i]
        if r < 0:
            continue
        den = np.full(n_pts, g.noise_ue_w)
        for j in range(B):
            if j != i and dl[j] >= 0:
                den += p_dl[j] * g.g_dl[j, r]
            if ul[j] >= 0:
                den += p_ul[j] * g.g_ue[ul[j], r]
        sinr = p_dl[i] * g.g_dl[i, r] / den
        util += chi(st.avg_dl[r], rate_from_sinr(sinr, g.bandwidth_hz), st.beta)
    for i in range(B):
        u = ul[i]
        if u < 0:
            continue
        den = np.full(n_pts, g.noise_bs_w) + g.gamma * p_dl[i]
        for j in range(B):
            if j == i:
                continue
            if dl[j] >= 0:
                den += p_dl[j] * g.g_bs[j, i]
            if ul[j] >= 0:
                den += p_ul[j] * g.g_dl[i, ul[j]]
        sinr = p_ul[i] * g.g_dl[i, u] / den
        util += chi(st.avg_ul[u], rate_from_sinr(sinr, g.bandwidth_hz), st.beta)
    k = int(np.argmax(util))
    return float(util[k]), (p_dl[:, k].copy(), p_ul[:, k].copy())


def _grid_optimum(st, g):
    """Exhaustive UE selections x 8-level log power grid, two cells."""
    lv_bs = np.geomspace(1e-6 * g.p_bs_w, g.p_bs_w, 8)
    lv_ue = np.geomspace(1e-6 * g.p_ue_w, g.p_ue_w, 8)
    best_u, best = 0.0, None
    for d0, u0 in cell_options(g.cell_ue_ids[0]):
        for d1, u1 in cell_options(g.cell_ue_ids[1]):
            dl = np.array([d0, d1])
            ul = np.array([u0, u1])
            u, powers = _combo_grid_best(st, g, dl, ul, lv_bs, lv_ue)
            if u > best_u:
                best_u, best = u, (dl, ul, powers)
    return best_u, best


def test_criterion_05_pipeline_near_grid_optimum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    ratios = []
    worst_xcheck = 0.0
    for i in range(50):
        st, _, g = random_power_instance(rng, n_cells=2)
        sel = select_ues(st, g, (g.p_bs_w, g.p_ue_w), np.random.default_rng(1000 + i))
        dec, _ = allocate_with_fallback(st, sel, g)
        u_pipe = total_slot_utility(dec, g, st)
        u_grid, best = _grid_optimum(st, g)
        if best is not None:
            # the independent grid evaluator must agree with the rate
            # path on its own argmax, else the oracle itself is suspect
            dl, ul, (pd, pu) = best
            u_chk = total_slot_utility(SlotDecision(dl, ul, pd, pu, False), g, st)
            worst_xcheck = max(worst_xcheck, abs(u_chk - u_grid) / max(u_grid, 1e-300))
        ratios.append(u_pipe / u_grid if u_grid > 0 else 1.0)
    median = float(np.median(ratios))
    elapsed = time.perf_counter() - t0
    ok = median >= 0.85 and worst_xcheck <= 1e-9 and elapsed < 300.0
    report(
        5,
        ok,
        f"median utility ratio {median:.4f} >= 0.85 over 50 instances "
        f"(min {min(ratios):.4f}, oracle cross-check {worst_xcheck:.1e}) in {elapsed:.1f}s",
    )


# --- criterion 6: scheduler invariants on a full run -----------------------


def test_criterion_06_trace_invariants(indoor_runs):
    results, cfg = indoor_runs["fd"][95.0]
    vcfg = cfg.validated()
    cap = vcfg.bandwidth_hz * 6.0
    fails = []
    max_rate = 0.0
    slots_checked = 0
    for d, res in enumerate(results):
        if res.energy_from_trace() != (res.energy_dl_j, res.energy_ul_j):
            fails.append(f"drop {d}: energy ledgers disagree")
        topo_rng, chan_rng, _ = drop_rngs(vcfg.seed, d)
        _, g = _build_network(vcfg, topo_rng, chan_rng)
        for s in range(res.slots):
            dl = res.trace_dl_ue[s]
            ul = res.trace_ul_ue[s]
            both = set(dl[dl >= 0].tolist()) & set(ul[ul >= 0].tolist())
            if both:
                fails.append(f"drop {d} slot {s}: UE {sorted(both)} scheduled both ways")
                break
            dec = SlotDecision(
                dl.astype(int), ul.astype(int), res.trace_p_dl[s], res.trace_p_ul[s], False
            )
            validate(dec, g)
            rate_d, rate_u = slot_rates(dec, g)
            max_rate = max(max_rate, float(rate_d.max()), float(rate_u.max()))
            slots_checked += 1
    if max_rate > cap * (1 + 1e-12):
        fails.append(f"rate {max_rate:.3e} exceeds the {cap:.0e} cap")
    ok = not fails and slots_checked == DROPS * SLOTS
    detail = (
        f"{slots_checked} slots replayed: no duplex-UE violation, energy double-entry "
        f"exact, peak rate {max_rate / 1e6:.3f} Mbps <= 60"
    )
    report(6, ok, detail + ("; " + "; ".join(fails[:3]) if fails else ""))


# --- criteria 7-11: scaled scenario studies --------------------------------


def test_criterion_07_indoor_gain_bands(indoor_runs):
    hd_res, _ = indoor_runs["hd"]
    gains_dl, gains_ul = [], []
    for c in CANC_SWEEP:
        res, cfg = indoor_runs["fd"][c]
        m = aggregate(cfg, res, baseline=hd_res)
        gains_dl.append(m.dl.gain_pct)
        gains_ul.append(m.ul.gain_pct)
    fails = []
    for c, (lo, hi) in {None: (75.0, 115.0), 95.0: (70.0, 115.0), 75.0: (35.0, 80.0)}.items():
        got = gains_dl[CANC_SWEEP.index(c)]
        if not lo <= got <= hi:
            fails.append(f"dl gain at C={c}: {got:.1f}% outside [{lo}, {hi}]")
    for name, seq in (("dl", gains_dl), ("ul", gains_ul)):
        for a, b in zip(seq, seq[1:]):
            if b < a - 5.0:
                fails.append(f"{name} gains not monotone within 5pp: {a:.1f} -> {b:.1f}")
    detail = (
        "dl gains " + "/".join(f"{v:.1f}" for v in gains_dl)
        + "% and ul gains " + "/".join(f"{v:.1f}" for v in gains_ul)
        + f"% across C=75/85/95/105/inf (sweep took {indoor_runs['elapsed_s']:.0f}s)"
    )
    report(7, not fails, detail + ("; " + "; ".join(fails) if fails else ""))


def test_criterion_08_indoor_mode_shares(indoor_runs):
    fracs = {}
    for c in (75.0, 105.0):
        res, cfg = indoor_runs["fd"][c]
        fracs[c] = aggregate(cfg, res).frac_fd
    ok = fracs[105.0] >= 0.90 and fracs[75.0] < fracs[105.0]
    report(
        8,
        ok,
        f"FD-mode share {fracs[105.0]:.3f} at C=105 (>= 0.90) vs {fracs[75.0]:.3f} at C=75",
    )


def test_criterion_09_round_robin_fd_rarely_helps(rr_runs):
    hd_res, _ = rr_runs["hd"]
    fd_res, _ = rr_runs["fd"]
    # same drop -> same network realization, so per-UE differences pair up
    diffs = np.concatenate(
        [f.mean_rate_dl() - h.mean_rate_dl() for f, h in zip(fd_res, hd_res)]
    )
    frac = float(np.mean(diffs <= 0.0))
    report(
        9,
        frac >= 0.5,
        f"{frac:.2f} of {diffs.size} UEs gain nothing from FD under round-robin (>= 0.50)",
    )


def test_criterion_10_outdoor_gain_band(indoor_runs, outdoor_runs):
    hd_res, hd_cfg = outdoor_runs["hd"]
    fd_res, fd_cfg = outdoor_runs["fd"]
    out_gain = aggregate(fd_cfg, fd_res, baseline=hd_res).dl.gain_pct
    in_res, in_cfg = indoor_runs["fd"][95.0]
    in_gain = aggregate(in_cfg, in_res, baseline=indoor_runs["hd"][0]).dl.gain_pct
    idle = aggregate(hd_cfg, hd_res).frac_idle
    fails = []
    if not 30.0 <= out_gain <= 75.0:
        fails.append(f"outdoor dl gain {out_gain:.1f}% outside [30, 75]")
    if not out_gain < in_gain:
        fails.append(f"outdoor gain {out_gain:.1f}% not below indoor {in_gain:.1f}%")
    if not idle > 0.0:
        fails.append("outdoor HD never idles")
    detail = (
        f"outdoor dl gain {out_gain:.1f}% in [30, 75] and below indoor {in_gain:.1f}%, "
        f"HD idle share {idle:.4f} > 0"
    )
    report(10, not fails, detail + ("; " + "; ".join(fails) if fails else ""))


def test_criterion_11_energy_efficiency_ordering(indoor_runs, ea_run):
    def combined_ee(results):
        bits = sum(float(r.bits_dl.sum() + r.bits_ul.sum()) for r in results)
        joules = sum(r.energy_dl_j + r.energy_ul_j for r in results)
        return bits / joules

    def dl_ee(results):
        bits = sum(float(r.bits_dl.sum()) for r in results)
        return bits / sum(r.energy_dl_j for r in results)

    hd = combined_ee(indoor_runs["hd"][0])
    fd95 = combined_ee(indoor_runs["fd"][95.0][0])
    plain75 = dl_ee(indoor_runs["fd"][75.0][0])
    aware75 = dl_ee(ea_run[0])
    fails = []
    if not hd >= 2.0 * fd95:
        fails.append(f"HD {hd:.3g} b/J not >= 2x FD@95 {fd95:.3g} b/J")
    if not aware75 >= 5.0 * plain75:
        fails.append(f"energy-aware {aware75:.3g} b/J not >= 5x plain {plain75:.3g} b/J")
    detail = (
        f"HD {hd:.3g} vs FD@95 {fd95:.3g} b/J ({hd / fd95:.0f}x >= 2x); energy-aware "
        f"downlink {aware75:.3g} vs plain {plain75:.3g} b/J ({aware75 / plain75:.0f}x >= 5x)"
    )
    report(11, not fails, detail + ("; " + "; ".join(fails) if fails else ""))
