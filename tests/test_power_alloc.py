"""Power allocation: problem assembly, SP loop, fallback policy, energy variant."""

import dataclasses
import math

import numpy as np
import pytest

import fdcell.power_alloc as pa
from conftest import make_decision, random_power_instance, toy_gains
from fdcell.channel import dbm_to_w, noise_power_w
from fdcell.errors import ConfigError
from fdcell.gp_core import STATUS_CONVERGED, STATUS_MAX_ITER
from fdcell.power_alloc import (
    POWER_FLOOR_RATIO,
    SE_CAP_SINR,
    AllocConfig,
    allocate_with_fallback,
    build_power_problem,
    build_sp_objective,
    pf_weights,
    realized_objective,
    solve_power_sp,
    trim_to_se_cap,
)
from fdcell.scheduler import PFState, Selection
from fdcell.sinr_rate import NONE, slot_sinrs

W_C = 10e6
N_UE = noise_power_w(W_C, 9.0)
N_BS = noise_power_w(W_C, 8.0)
P_BS = dbm_to_w(24.0)
P_UE = dbm_to_w(23.0)


def state_with(avg_dl, avg_ul=None, beta=0.99):
    avg_dl = np.asarray(avg_dl, dtype=float)
    avg_ul = avg_dl.copy() if avg_ul is None else np.asarray(avg_ul, dtype=float)
    return PFState(avg_dl, avg_ul, beta)


def selection_of(dec):
    du_dl = np.where(dec.dl_ue >= 0, 0.01, np.nan)
    du_ul = np.where(dec.ul_ue >= 0, 0.01, np.nan)
    return Selection(dec, du_dl, du_ul)


def active_powers(prob, dec):
    return np.concatenate([dec.p_dl[prob.cells_dl], dec.p_ul[prob.cells_ul]])


def test_pf_weights_oracle():
    g = toy_gains([[1e-8, 1e-8]])
    dec = make_decision(g, dl=[0], ul=[1])
    st = state_with([1e7, 1e7])
    w_dl, w_ul = pf_weights(st, selection_of(dec))
    expected = 0.01 / (0.99 * 1e7 * math.log(10.0))
    assert w_dl[0] == pytest.approx(expected, rel=1e-12)
    assert w_ul[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(4.39e-10, rel=2e-3)

    # halving the average doubles the weight; idle direction carries zero
    st2 = state_with([5e6, 1e7])
    w2_dl, _ = pf_weights(st2, selection_of(dec))
    assert w2_dl[0] == pytest.approx(2.0 * expected, rel=1e-12)
    dec_dl_only = make_decision(g, dl=[0])
    w3_dl, w3_ul = pf_weights(st, selection_of(dec_dl_only))
    assert w3_dl[0] > 0 and w3_ul[0] == 0.0


def test_problem_structure_single_link():
    g = toy_gains([[1e-8]])
    dec = make_decision(g, dl=[0])
    st = state_with([1e7])
    prob = build_power_problem(st, selection_of(dec), g, AllocConfig(epsilon=1e-9))
    assert prob.n_vars == 1
    assert prob.w.tolist() == [1.0]
    assert prob.w_scale == pytest.approx(0.01 / (0.99 * 1e7 * math.log(10.0)), rel=1e-12)
    # one exponent matrix for every row: term 0 is the noise, term 1 the
    # link's power with exponent 1
    np.testing.assert_array_equal(prob.A, [[0.0], [1.0]])
    np.testing.assert_array_equal(prob.gain, [[1e-8]])
    np.testing.assert_array_equal(prob.noise, [N_UE])
    # numerator: noise only; denominator: noise + own signal
    assert prob.c_num[0, 0] == pytest.approx(math.log(N_UE), rel=1e-12)
    assert prob.c_num[0, 1] == -np.inf
    assert prob.c_den[0, 0] == prob.c_num[0, 0]
    assert prob.c_den[0, 1] == pytest.approx(math.log(1e-8), rel=1e-12)
    assert prob.p_max.tolist() == [P_BS]
    assert prob.p_floor[0] == pytest.approx(POWER_FLOOR_RATIO * P_BS, rel=1e-12)
    assert prob.epsilon == 1e-9


def test_problem_fd_pair_interference_terms():
    gamma = 1e-3
    g_ue = [[7e-12, 5e-12], [5e-12, 7e-12]]
    g = toy_gains([[1e-8, 8e-9]], g_ue=g_ue, gamma=gamma)
    st = state_with([1e7, 1e7])

    dec = make_decision(g, dl=[0], ul=[1])
    prob = build_power_problem(st, selection_of(dec), g, AllocConfig())
    assert len(prob.w) == 2 and np.all(prob.w > 0)
    # every row shares one exponent matrix: term 0 (noise) has none,
    # term 1+k carries link k's power with exponent 1
    np.testing.assert_array_equal(prob.A, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(prob.noise, [N_UE, N_BS])
    np.testing.assert_array_equal(prob.gain, [[1e-8, 5e-12], [gamma, 8e-9]])
    # term 1+k of each row is link k's power; the own signal (diagonal)
    # appears only in the denominator, the noise in both
    assert prob.c_num[0, 0] == pytest.approx(math.log(N_UE), rel=1e-12)
    assert prob.c_num[1, 0] == pytest.approx(math.log(N_BS), rel=1e-12)
    for l, signal in ((0, 1e-8), (1, 8e-9)):
        assert prob.c_num[l, 1 + l] == -np.inf
        assert prob.c_den[l, 1 + l] == pytest.approx(math.log(signal), rel=1e-12)
    # uplink row (index 1): residual self-interference p_dl * gamma
    assert prob.c_num[1, 1] == pytest.approx(math.log(gamma), rel=1e-12)
    assert prob.c_den[1, 1] == prob.c_num[1, 1]
    # downlink row: partner uplink UE couples with the UE-UE gain
    assert prob.c_num[0, 2] == pytest.approx(math.log(5e-12), rel=1e-12)
    assert prob.c_den[0, 2] == prob.c_num[0, 2]

    # same-UE pair: the UE receiver sees its own residual, not a UE-UE gain
    dec_same = make_decision(g, dl=[0], ul=[0], fd_ue=True)
    prob_same = build_power_problem(st, selection_of(dec_same), g, AllocConfig())
    assert prob_same.c_num[0, 2] == pytest.approx(math.log(gamma), rel=1e-12)
    assert prob_same.gain[0, 1] == gamma


def test_objective_matches_sinr_module(rng):
    st, sel, g = random_power_instance(rng, n_cells=3)
    # same instance with cell 0 serving one FD-capable UE in both directions
    same = sel.decision.copy()
    same.fd_ue = True
    same.dl_ue[0] = same.ul_ue[0] = 0
    same.p_dl[0], same.p_ul[0] = g.p_bs_w, g.p_ue_w
    for dec0 in (sel.decision, same):
        sel0 = Selection(dec0, sel.du_dl, sel.du_ul)
        prob = build_power_problem(st, sel0, g, AllocConfig())
        u = rng.uniform(0.05, 1.0, size=prob.n_vars)
        p = prob.p_floor * (prob.p_max / prob.p_floor) ** u
        dec = dec0.copy()
        dec.p_dl[prob.cells_dl] = p[: len(prob.cells_dl)]
        dec.p_ul[prob.cells_ul] = p[len(prob.cells_dl):]
        sinr_d, sinr_u = slot_sinrs(dec, g)
        sinr = np.concatenate([sinr_d[prob.cells_dl], sinr_u[prob.cells_ul]])
        expected = -float(prob.w @ np.log1p(sinr))
        assert prob.true_objective(p) == pytest.approx(expected, rel=1e-10)
        # the shared exponent matrix and the link-space SINR behind it
        np.testing.assert_array_equal(prob.A, np.eye(prob.n_vars + 1, prob.n_vars, -1))
        np.testing.assert_allclose(pa._link_sinr(prob.gain, prob.noise, p), sinr, rtol=1e-12)
        # posynomial-ratio view agrees with the gathered arrays
        obj = build_sp_objective(prob)
        assert obj.value(p) == pytest.approx(math.exp(expected), rel=1e-9)


def test_reduce_problem_keeps_pinned_interference():
    rng = np.random.default_rng(5)
    for _ in range(10):
        st, sel, g = random_power_instance(rng, n_cells=4)
        prob = build_power_problem(st, sel, g, AllocConfig())
        if prob.n_vars < 2:
            continue
        p = prob.p_max * rng.uniform(0.05, 1.0, size=prob.n_vars)
        fixed = np.zeros(prob.n_vars, dtype=bool)
        fixed[rng.choice(prob.n_vars, size=prob.n_vars // 2, replace=False)] = True
        sub, free = pa._reduce_problem(prob, p, fixed)
        dec = sel.decision.copy()
        dec.p_dl[prob.cells_dl] = p[: len(prob.cells_dl)]
        dec.p_ul[prob.cells_ul] = p[len(prob.cells_dl):]
        sinr_d, sinr_u = slot_sinrs(dec, g)
        sinr = np.concatenate([sinr_d[prob.cells_dl], sinr_u[prob.cells_ul]])
        # the free links' rate terms, with the pinned links still interfering
        expected = -float(prob.w[free] @ np.log1p(sinr[free]))
        assert sub.true_objective(p[free]) == pytest.approx(expected, rel=1e-10)


def test_single_link_solves_to_full_power():
    g = toy_gains([[1e-8]])
    dec = make_decision(g, dl=[0])
    st = state_with([1e7])
    prob = build_power_problem(st, selection_of(dec), g, AllocConfig())
    p, status, info = solve_power_sp(prob, prob.p_max.copy())
    assert status == STATUS_CONVERGED
    assert p[0] == pytest.approx(P_BS, rel=1e-12)
    assert info["outer_iterations"] >= 1


def grid_utility(a, b, c, d, w, p1, p2):
    """Closed-form weighted utility of the 2-cell downlink instance."""
    s1 = a * p1 / (b * p2 + N_UE)
    s2 = c * p2 / (d * p1 + N_UE)
    return w * (np.log1p(s1) + np.log1p(s2))


TWO_CELL_CASES = {
    # both links strong, weak coupling: full power everywhere is optimal
    "symmetric": (1e-8, 2e-11, 1e-8, 2e-11),
    # cell 1's UE is hopeless and hammers nothing; shutting it helps cell 0
    "asymmetric": (1e-8, 2e-12, 1e-11, 3e-9),
}


def two_cell_problem(case):
    a, b, c, d = TWO_CELL_CASES[case]
    g = toy_gains([[a, d], [b, c]], ue_cell=[0, 1])
    dec = make_decision(g, dl=[0, 1])
    st = state_with([1e7, 1e7])
    prob = build_power_problem(st, selection_of(dec), g, AllocConfig())
    return prob, (a, b, c, d)


def grid_argmax(prob, coeffs):
    a, b, c, d = coeffs
    w = prob.w_scale
    axis = np.geomspace(prob.p_floor[0], prob.p_max[0], 64)
    p1, p2 = np.meshgrid(axis, axis, indexing="ij")
    u = grid_utility(a, b, c, d, w, p1, p2)
    i, j = np.unravel_index(np.argmax(u), u.shape)
    return float(u[i, j]), np.array([axis[i], axis[j]])


@pytest.mark.parametrize("case", sorted(TWO_CELL_CASES))
def test_two_cell_solution_near_grid_oracle(case):
    prob, coeffs = two_cell_problem(case)
    u_best, _ = grid_argmax(prob, coeffs)
    p, status, _ = solve_power_sp(prob, prob.p_max.copy())
    assert status == STATUS_CONVERGED
    assert np.all(p >= prob.p_floor * (1 - 1e-9))
    assert np.all(p <= prob.p_max * (1 + 1e-9))
    u_sp = grid_utility(*coeffs, prob.w_scale, p[0], p[1])
    assert u_sp >= 0.99 * u_best


@pytest.mark.parametrize("case", sorted(TWO_CELL_CASES))
def test_fixed_point_at_grid_optimum(case):
    prob, coeffs = two_cell_problem(case)
    _, p_star = grid_argmax(prob, coeffs)
    p, status, info = solve_power_sp(prob, p_star)
    assert status == STATUS_CONVERGED
    assert info["outer_iterations"] <= 2
    assert info["steps"][-1] < prob.epsilon


def test_trajectory_monotone_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        st, sel, g = random_power_instance(rng)
        prob = build_power_problem(st, sel, g, AllocConfig())
        p, status, info = solve_power_sp(prob, prob.p_max.copy())
        assert status == STATUS_CONVERGED
        assert info["steps"][-1] < prob.epsilon
        traj = info["trajectory"]
        for prev, cur in zip(traj, traj[1:]):
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))
        assert np.all(p >= prob.p_floor * (1 - 1e-12))
        assert np.all(p <= prob.p_max * (1 + 1e-12))


def test_allocate_happy_path_equals_sp_output():
    # weak direct gains keep every link below the SE cap
    g = toy_gains([[1e-11, 1e-13], [1e-13, 1e-11]], ue_cell=[0, 1])
    dec = make_decision(g, dl=[0, 1])
    st = state_with([1e7, 1e7])
    sel = selection_of(dec)
    prob = build_power_problem(st, sel, g, AllocConfig())
    p_direct, status, _ = solve_power_sp(prob, prob.p_max.copy())
    assert status == STATUS_CONVERGED
    out, diag = allocate_with_fallback(st, sel, g)
    assert diag["pruned"] == 0
    assert diag["status"] == STATUS_CONVERGED
    assert diag["outer_iterations"] >= 1
    assert diag["fallbacks"] == 0
    np.testing.assert_array_equal(p_direct, prob.p_max)
    np.testing.assert_array_equal(active_powers(prob, out), p_direct)


def test_allocate_prunes_in_ascending_gain_order(monkeypatch):
    g = toy_gains([[1e-8, 1e-13, 1e-13], [1e-13, 1e-8, 1e-13], [1e-13, 1e-13, 1e-8]],
                  ue_cell=[0, 1, 2])
    dec = make_decision(g, dl=[0, 1, None], ul=[None, None, 2])
    st = state_with([1e7, 1e7, 1e7])
    du_dl = np.array([0.5, 0.2, np.nan])
    du_ul = np.array([np.nan, np.nan, 0.35])
    sel = Selection(dec, du_dl, du_ul)

    removed = []
    orig = pa._drop_weakest

    def spy(s):
        before = {(int(c), "d") for c in np.where(s.decision.dl_ue >= 0)[0]}
        before |= {(int(c), "u") for c in np.where(s.decision.ul_ue >= 0)[0]}
        out = orig(s)
        after = {(int(c), "d") for c in np.where(out.decision.dl_ue >= 0)[0]}
        after |= {(int(c), "u") for c in np.where(out.decision.ul_ue >= 0)[0]}
        removed.extend(sorted(before - after))
        return out

    monkeypatch.setattr(pa, "_drop_weakest", spy)
    out, diag = allocate_with_fallback(st, sel, g, AllocConfig(max_outer=0))
    assert removed == [(1, "d"), (2, "u"), (0, "d")]
    assert diag["pruned"] == 3
    assert diag["status"] == STATUS_MAX_ITER
    assert np.all(out.dl_ue == NONE) and np.all(out.ul_ue == NONE)
    assert not out.p_dl.any() and not out.p_ul.any()


def test_allocate_single_link_exhaustion_goes_idle():
    g = toy_gains([[1e-8]])
    dec = make_decision(g, dl=[0])
    st = state_with([1e7])
    out, diag = allocate_with_fallback(st, selection_of(dec), g, AllocConfig(max_outer=0))
    assert diag["pruned"] == 1
    assert np.all(out.dl_ue == NONE) and out.p_dl[0] == 0.0


def test_trim_to_se_cap_exact_and_idempotent():
    g = toy_gains([[1e-8]])
    dec = make_decision(g, dl=[0])
    trimmed = trim_to_se_cap(dec, g)
    sinr_d, _ = slot_sinrs(trimmed, g)
    assert sinr_d[0] == pytest.approx(SE_CAP_SINR, rel=1e-12)
    assert trimmed.p_dl[0] < dec.p_dl[0]
    again = trim_to_se_cap(trimmed, g)
    np.testing.assert_array_equal(again.p_dl, trimmed.p_dl)

    # below the cap nothing moves
    g_weak = toy_gains([[1e-11]])
    dec_weak = make_decision(g_weak, dl=[0])
    np.testing.assert_array_equal(trim_to_se_cap(dec_weak, g_weak).p_dl, dec_weak.p_dl)


def test_trim_to_se_cap_coupled_links_settle_below_cap():
    g = toy_gains([[1e-8, 3e-11], [3e-11, 1e-8]], ue_cell=[0, 1])
    dec = make_decision(g, dl=[0, 1])
    trimmed = trim_to_se_cap(dec, g)
    sinr_d, _ = slot_sinrs(trimmed, g)
    assert np.all(sinr_d <= SE_CAP_SINR * (1 + 1e-9))
    assert np.all(trimmed.p_dl <= dec.p_dl)


def test_trim_to_se_cap_two_cell_fixed_point():
    # symmetric coupling: the exact capped power is cap * N / (g - cap * x)
    direct, cross = 1e-8, 1.5e-10
    g = toy_gains([[direct, cross], [cross, direct]], ue_cell=[0, 1])
    dec = make_decision(g, dl=[0, 1])
    trimmed = trim_to_se_cap(dec, g)
    sinr_d, _ = slot_sinrs(trimmed, g)
    np.testing.assert_allclose(sinr_d, SE_CAP_SINR, rtol=1e-12)
    exact = SE_CAP_SINR * N_UE / (direct - SE_CAP_SINR * cross)
    assert exact == pytest.approx(0.0362, rel=1e-3)
    np.testing.assert_allclose(trimmed.p_dl, exact, rtol=1e-12)


def coupled_cap_instance(rng):
    """Serving gains 1e-8..1e-6, cross gains 3e-11..3e-9: the coupling
    cap * cross / serving ranges from about 0.002 to 20.

    Two UEs per cell; cell 0 serves UE 0 in both directions (an uplink
    link and a same-UE FD pair in every instance), other cells pick a
    downlink and an uplink UE at random. Powers are 0.1-1x the maximum,
    so some links start above the SE cap and some below.
    """
    B = int(rng.integers(2, 5))
    N = 2 * B
    ue_cell = np.repeat(np.arange(B), 2)
    g_dl = 10 ** rng.uniform(-10.5, -8.5, size=(B, N))
    g_dl[ue_cell, np.arange(N)] = 10 ** rng.uniform(-8.0, -6.0, size=N)
    m = 10 ** rng.uniform(-10.5, -8.5, size=(B, B))
    g_bs = (m + m.T) / 2.0
    np.fill_diagonal(g_bs, 0.0)
    m = 10 ** rng.uniform(-10.5, -8.5, size=(N, N))
    g_ue = (m + m.T) / 2.0
    np.fill_diagonal(g_ue, 0.0)
    gamma = 10 ** rng.uniform(-10.5, -8.5)
    g = toy_gains(g_dl, g_bs=g_bs, g_ue=g_ue, ue_cell=ue_cell, gamma=gamma)
    dl = [2 * b if rng.random() < 0.7 else None for b in range(B)]
    ul = [2 * b + 1 if rng.random() < 0.7 else None for b in range(B)]
    dl[0] = ul[0] = 0
    dec = make_decision(g, dl=dl, ul=ul, fd_ue=True)
    dec.p_dl *= 10 ** rng.uniform(-1.0, 0.0, B)
    dec.p_ul *= 10 ** rng.uniform(-1.0, 0.0, B)
    return dec, g


def test_trim_to_se_cap_property_random_instances():
    rng = np.random.default_rng(29)
    n_touched = n_kept = 0
    for _ in range(40):
        dec, g = coupled_cap_instance(rng)
        before_d, before_u = slot_sinrs(dec, g)
        trimmed = trim_to_se_cap(dec, g)
        sinr_d, sinr_u = slot_sinrs(trimmed, g)
        for on, p0, p1, before, sinr in (
            (dec.dl_ue >= 0, dec.p_dl, trimmed.p_dl, before_d, sinr_d),
            (dec.ul_ue >= 0, dec.p_ul, trimmed.p_ul, before_u, sinr_u),
        ):
            assert np.all(p1 <= p0)
            touched = on & (p1 != p0)
            assert np.all(touched[on & (before > SE_CAP_SINR * (1 + 1e-12))])
            np.testing.assert_allclose(sinr[touched], SE_CAP_SINR, rtol=1e-12)
            kept = on & ~touched
            assert np.all(sinr[kept] <= SE_CAP_SINR * (1 + 1e-12))
            n_touched += touched.sum()
            n_kept += kept.sum()
        again = trim_to_se_cap(trimmed, g)
        np.testing.assert_array_equal(again.p_dl, trimmed.p_dl)
        np.testing.assert_array_equal(again.p_ul, trimmed.p_ul)
    assert n_touched > 0 and n_kept > 0


def test_realized_objective_matches_true_below_cap(rng):
    g = toy_gains([[3e-11, 5e-13], [7e-13, 4e-11]], ue_cell=[0, 1], gamma=1e-9)
    dec = make_decision(g, dl=[0, None], ul=[None, 1])
    st = state_with([8e6, 1.2e7])
    sel = selection_of(dec)
    prob = build_power_problem(st, sel, g, AllocConfig())
    p = prob.p_max * rng.uniform(0.3, 1.0, size=prob.n_vars)
    dec2 = dec.copy()
    dec2.p_dl[prob.cells_dl] = p[: len(prob.cells_dl)]
    dec2.p_ul[prob.cells_ul] = p[len(prob.cells_dl):]
    assert realized_objective(prob, dec2) == pytest.approx(
        prob.true_objective(p), rel=1e-12
    )


def test_allocate_respects_cap_and_never_beats_baseline():
    rng = np.random.default_rng(21)
    for _ in range(8):
        st, sel, g = random_power_instance(rng)
        out, diag = allocate_with_fallback(st, sel, g)
        assert diag["status"] == STATUS_CONVERGED
        sinr_d, sinr_u = slot_sinrs(out, g)
        assert np.all(sinr_d[out.dl_ue >= 0] <= SE_CAP_SINR * (1 + 1e-6))
        assert np.all(sinr_u[out.ul_ue >= 0] <= SE_CAP_SINR * (1 + 1e-6))
        assert np.all(out.p_dl <= g.p_bs_w * (1 + 1e-9))
        assert np.all(out.p_ul <= g.p_ue_w * (1 + 1e-9))
        prob = build_power_problem(st, sel, g, AllocConfig())
        base = trim_to_se_cap(sel.decision, g)
        n_active = int((sel.decision.dl_ue >= 0).sum() + (sel.decision.ul_ue >= 0).sum())
        # floor-pruned links shed an O(log1p(floor SINR)) rate term after
        # the safeguard comparison, hence the per-link slack
        slack = 0.02 * (n_active + 1)
        assert realized_objective(prob, out) <= realized_objective(prob, base) + slack


def test_energy_kappa_zero_is_plain_problem():
    g = toy_gains([[1e-8, 2e-11], [2e-11, 1e-8]], ue_cell=[0, 1])
    dec = make_decision(g, dl=[0, 1])
    st = state_with([1e7, 1e7])
    sel = selection_of(dec)
    prob0 = build_power_problem(st, sel, g, AllocConfig(energy_kappa=0.0))
    assert not prob0.lin.any()
    p0, _, _ = solve_power_sp(prob0, prob0.p_max.copy())
    prob1 = build_power_problem(st, sel, g, AllocConfig())
    p1, _, _ = solve_power_sp(prob1, prob1.p_max.copy())
    np.testing.assert_array_equal(p0, p1)


def geometric_bisect(f, lo, hi, iters=120):
    f_lo = f(lo)
    assert f_lo * f(hi) < 0
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if (f(mid) > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def energy_single_link(kappa, dist_m=8.0):
    g = toy_gains([[1e-8]], dist_m=np.full((1, 1), dist_m))
    dec = make_decision(g, dl=[0])
    st = state_with([1e7])
    cfg = AllocConfig(energy_kappa=kappa, epsilon=1e-9)
    return build_power_problem(st, selection_of(dec), g, cfg), cfg


def test_energy_penalty_stationary_point_matches_foc_root():
    kappa, dist = 0.04, 8.0
    prob, cfg = energy_single_link(kappa, dist)
    w_raw = 0.01 / (0.99 * 1e7 * math.log(10.0))
    c = kappa / dist
    G = 1e-8

    def foc(p):
        return w_raw * W_C * G / ((N_UE + p * G) * math.log(2.0)) - c / p

    root = geometric_bisect(foc, 2 * prob.p_floor[0], prob.p_max[0] / 2)
    # the implemented penalty exponent makes the same point stationary
    s = root * G / (N_UE + root * G)
    assert prob.lin[0] == pytest.approx(s, rel=1e-9)
    y = math.log(root)
    h = 1e-6
    deriv = (
        prob.true_objective(np.array([math.exp(y + h)]))
        - prob.true_objective(np.array([math.exp(y - h)]))
    ) / (2 * h)
    assert abs(deriv) < 1e-8

    # in log-power the penalized objective is concave: the stationary
    # point is its maximum, so the box optimum sits at an endpoint and
    # the solver lands there
    ys = np.linspace(math.log(prob.p_floor[0]), math.log(prob.p_max[0]), 200)
    vals = np.array([prob.true_objective(np.array([math.exp(v)])) for v in ys])
    assert np.all(np.diff(vals, 2) <= 1e-12)
    p, status, _ = solve_power_sp(prob, prob.p_max.copy(), cfg)
    assert status == STATUS_CONVERGED
    at_hi = abs(p[0] - prob.p_max[0]) < 1e-9 * prob.p_max[0]
    at_lo = p[0] < prob.p_floor[0] * (1 + 1e-6)
    assert at_hi or at_lo


def test_energy_penalty_threshold_and_monotone_power():
    powers = []
    for kappa in [0.0, 0.005, 0.02, 0.05, 0.2, 1.0]:
        prob, cfg = energy_single_link(kappa)
        p, status, _ = solve_power_sp(prob, prob.p_max.copy(), cfg)
        assert status == STATUS_CONVERGED
        powers.append(p[0])
    assert all(b <= a * (1 + 1e-9) for a, b in zip(powers, powers[1:]))
    # cheap penalties keep full power, expensive ones park the link at
    # the floor (pruned to idle by the allocator)
    for p in powers[:4]:
        assert p == pytest.approx(P_BS, rel=1e-9)
    for p in powers[4:]:
        assert p <= P_BS * POWER_FLOOR_RATIO * (1 + 1e-6)


def test_energy_aware_objective_value_and_validation(rng):
    prob, _ = energy_single_link(0.04)
    obj = build_sp_objective(prob)
    p = np.array([0.01])
    assert obj.value(p) == pytest.approx(math.exp(prob.true_objective(p)), rel=1e-9)

    with pytest.raises(ConfigError):
        build_power_problem(
            state_with([1e7]),
            selection_of(make_decision(toy_gains([[1e-8]]), dl=[0])),
            toy_gains([[1e-8]]),
            AllocConfig(energy_kappa=-0.1),
        )
    with pytest.raises(ConfigError):
        build_sp_objective(dataclasses.replace(prob, energy_kappa=-1.0))


def test_empty_selection_short_circuits():
    g = toy_gains([[1e-8]])
    dec = make_decision(g)
    st = state_with([1e7])
    assert build_power_problem(st, selection_of(dec), g, AllocConfig()) is None
    out, diag = allocate_with_fallback(st, selection_of(dec), g)
    assert diag["status"] == "idle"
    assert np.all(out.dl_ue == NONE) and np.all(out.ul_ue == NONE)
