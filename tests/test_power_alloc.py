"""Power allocation: problem assembly, SP loop, fallback policy, energy variant."""

import dataclasses
import math

import numpy as np
import pytest

import fdcell.power_alloc as pa
from conftest import check_derivatives, make_decision, random_power_instance, toy_gains
from fdcell.channel import dbm_to_w, noise_power_w
from fdcell.errors import ConfigError
from fdcell.gp_core import STATUS_CONVERGED, STATUS_MAX_ITER, condense
from fdcell.power_alloc import (
    POWER_FLOOR_RATIO,
    SE_CAP_SINR,
    allocate_with_fallback,
    build_power_problem,
    pf_weights,
    realized_objective,
    solve_power_sp,
    trim_to_se_cap,
)
from fdcell.scheduler import PFState
from fdcell.sinr_rate import NONE, link_gains, link_sinr, slot_sinrs
from reference import (
    reference_slot_sinrs,
    reference_trim_to_se_cap,
    sp_objective_value,
    sp_posynomials,
)

W_C = 10e6
N_UE = noise_power_w(W_C, 9.0)
N_BS = noise_power_w(W_C, 8.0)
P_BS = dbm_to_w(24.0)
P_UE = dbm_to_w(23.0)


def state_with(avg_dl, avg_ul=None, beta=0.99):
    avg_dl = np.asarray(avg_dl, dtype=float)
    avg_ul = avg_dl.copy() if avg_ul is None else np.asarray(avg_ul, dtype=float)
    return PFState(np.stack([avg_dl, avg_ul]), beta)


def active_powers(prob, dec):
    return dec.p.reshape(-1)[prob.links]


def trim_decision(dec, g):
    """trim_to_se_cap on a decision's links, gathered with link_gains."""
    links, gain, noise = link_gains(dec, g)
    out = dec.copy()
    out.p.reshape(-1)[links] = trim_to_se_cap(gain, noise, dec.p.reshape(-1)[links])
    return out


def test_pf_weights_oracle():
    g = toy_gains([[1e-8, 1e-8]])
    dec = make_decision(g, dl=[0], ul=[1])
    st = state_with([1e7, 1e7])
    w_dl, w_ul = pf_weights(st, dec)
    expected = 0.01 / (0.99 * 1e7 * math.log(10.0))
    assert w_dl[0] == pytest.approx(expected, rel=1e-12)
    assert w_ul[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(4.39e-10, rel=2e-3)

    # halving the average doubles the weight; idle direction carries zero
    st2 = state_with([5e6, 1e7])
    w2_dl, _ = pf_weights(st2, dec)
    assert w2_dl[0] == pytest.approx(2.0 * expected, rel=1e-12)
    dec_dl_only = make_decision(g, dl=[0])
    w3_dl, w3_ul = pf_weights(st, dec_dl_only)
    assert w3_dl[0] > 0 and w3_ul[0] == 0.0


def test_problem_structure_single_link():
    g = toy_gains([[1e-8]])
    dec = make_decision(g, dl=[0])
    st = state_with([1e7])
    prob = build_power_problem(st, dec, g)
    assert prob.n_vars == 1
    assert prob.w.tolist() == [1.0]
    assert prob.w_scale == pytest.approx(0.01 / (0.99 * 1e7 * math.log(10.0)), rel=1e-12)
    np.testing.assert_array_equal(prob.gain, [[1e-8]])
    np.testing.assert_array_equal(prob.noise, [N_UE])
    # numerator: noise only; denominator: noise + own signal (power 0
    # with exponent 1)
    np.testing.assert_array_equal(prob.interference, [[0.0]])
    num, den = sp_posynomials(prob)
    assert [(t.coeff, t.exponents) for t in num[0].terms] == [(N_UE, {})]
    assert [(t.coeff, t.exponents) for t in den[0].terms] == [(N_UE, {}), (1e-8, {0: 1.0})]
    assert prob.p_max.tolist() == [P_BS]
    assert prob.p_floor[0] == pytest.approx(POWER_FLOOR_RATIO * P_BS, rel=1e-12)
    # SP termination scales with the largest power and the network size
    assert prob.epsilon == pytest.approx(1e-3 * math.sqrt(2.0) * P_BS, rel=1e-12)
    # the derived arrays follow gain, noise and p_max through replace()
    tight = dataclasses.replace(prob, epsilon=1e-9, p_max=prob.p_max / 2)
    assert tight.epsilon == 1e-9
    assert tight.p_floor[0] == pytest.approx(POWER_FLOOR_RATIO * P_BS / 2, rel=1e-12)
    np.testing.assert_array_equal(tight.gain, prob.gain)
    np.testing.assert_array_equal(tight.noise, prob.noise)


def test_problem_fd_pair_interference_terms():
    gamma = 1e-3
    g_ue = [[7e-12, 5e-12], [5e-12, 7e-12]]
    g = toy_gains([[1e-8, 8e-9]], g_ue=g_ue, gamma=gamma)
    st = state_with([1e7, 1e7])

    dec = make_decision(g, dl=[0], ul=[1])
    prob = build_power_problem(st, dec, g)
    assert len(prob.w) == 2 and np.all(prob.w > 0)
    # entry (l, k) is link k's power at link l's receiver: the noise and
    # the off-diagonal terms form the numerator, the own signal (the
    # diagonal) joins them only in the denominator
    np.testing.assert_array_equal(prob.noise, [N_UE, N_BS])
    np.testing.assert_array_equal(prob.gain, [[1e-8, 5e-12], [gamma, 8e-9]])
    # row-major like every other operand, so the BLAS summation order is fixed
    assert prob.gain.flags.c_contiguous
    np.testing.assert_array_equal(np.diagonal(prob.gain), [1e-8, 8e-9])
    # uplink row (index 1): residual self-interference p_dl * gamma;
    # downlink row: partner uplink UE couples with the UE-UE gain
    np.testing.assert_array_equal(prob.interference, [[0.0, 5e-12], [gamma, 0.0]])
    num, den = sp_posynomials(prob)
    assert [(t.coeff, t.exponents) for t in num[1].terms] == [(N_BS, {}), (gamma, {0: 1.0})]
    assert [(t.coeff, t.exponents) for t in den[1].terms] == [
        (N_BS, {}), (gamma, {0: 1.0}), (8e-9, {1: 1.0})
    ]

    # same-UE pair: the UE receiver sees its own residual, not a UE-UE gain
    dec_same = make_decision(g, dl=[0], ul=[0], fd_ue=True)
    prob_same = build_power_problem(st, dec_same, g)
    assert prob_same.gain[0, 1] == gamma
    assert prob_same.interference[0, 1] == gamma


def test_objective_matches_sinr_module(rng):
    st, sel, g = random_power_instance(rng, n_cells=3)
    # same instance with cell 0 serving one FD-capable UE in both directions
    same = sel.copy()
    same.fd_ue = True
    same.dl_ue[0] = same.ul_ue[0] = 0
    same.p_dl[0], same.p_ul[0] = g.p_bs_w, g.p_ue_w
    for dec0 in (sel, same):
        prob = build_power_problem(st, dec0, g)
        u = rng.uniform(0.05, 1.0, size=prob.n_vars)
        p = prob.p_floor * (prob.p_max / prob.p_floor) ** u
        dec = dec0.copy()
        dec.p.reshape(-1)[prob.links] = p
        # the block formulas, not the gather the problem is built from
        sinr = np.concatenate(reference_slot_sinrs(dec, g))[prob.links]
        expected = -float(prob.w @ np.log1p(sinr))
        assert prob.true_objective(p) == pytest.approx(expected, rel=1e-10)
        # the link-space SINR behind it
        np.testing.assert_allclose(link_sinr(prob.gain, prob.noise, p), sinr, rtol=1e-12)
        # posynomial-ratio view agrees with the gathered arrays
        assert sp_objective_value(prob, p) == pytest.approx(math.exp(expected), rel=1e-9)


def test_reduce_problem_keeps_pinned_interference():
    rng = np.random.default_rng(5)
    for _ in range(10):
        st, sel, g = random_power_instance(rng, n_cells=4)
        prob = build_power_problem(st, sel, g)
        if prob.n_vars < 2:
            continue
        p = prob.p_max * rng.uniform(0.05, 1.0, size=prob.n_vars)
        fixed = np.zeros(prob.n_vars, dtype=bool)
        fixed[rng.choice(prob.n_vars, size=prob.n_vars // 2, replace=False)] = True
        sub, free = pa._reduce_problem(prob, p, fixed)
        dec = sel.copy()
        dec.p.reshape(-1)[prob.links] = p
        sinr = slot_sinrs(dec, g).reshape(-1)[prob.links]
        # the free links' rate terms, with the pinned links still interfering
        expected = -float(prob.w[free] @ np.log1p(sinr[free]))
        assert sub.true_objective(p[free]) == pytest.approx(expected, rel=1e-10)


def surrogate_instances(rng):
    """Coupled instances, each with an UL link and a same-UE FD pair:
    plain, with a zero gain (gamma 0) and with an energy penalty."""
    for i in range(12):
        dec, g = coupled_cap_instance(rng)
        if i % 3 == 1:
            g = dataclasses.replace(g, gamma=0.0)
        kappa = 0.05 if i % 3 == 2 else 0.0
        st = state_with(10 ** rng.uniform(6.5, 7.5, g.n_ues), 10 ** rng.uniform(6.5, 7.5, g.n_ues))
        prob = build_power_problem(st, dec, g, kappa)
        yield prob, i % 3


def test_link_surrogate_matches_condensed_posynomials():
    rng = np.random.default_rng(31)
    kinds = set()
    for prob, kind in surrogate_instances(rng):
        kinds.add(kind)
        assert (kind == 1) == (not prob.gain.all())
        assert (kind == 2) == bool(prob.lin.any())
        lo, hi = np.log(prob.p_floor), np.log(prob.p_max)
        y0 = rng.uniform(lo, hi)
        p0 = np.exp(y0)
        F = pa._LinkSurrogate(prob, y0)
        assert F(y0)[0] == 0.0
        # reference: the posynomial form with every denominator condensed
        # at p0 by gp_core.condense, measured from its value at p0
        nums, dens = sp_posynomials(prob)
        mono = [condense(d, p0) for d in dens]

        def reference(p):
            out = float(prob.lin @ np.log(p))
            for num, m, w in zip(nums, mono, prob.w):
                out += w * (math.log(num.value(p)) - math.log(m.value(p)))
            return out

        for _ in range(5):
            y = rng.uniform(lo, hi)
            val = check_derivatives(F, y)
            assert val == pytest.approx(reference(np.exp(y)) - reference(p0), abs=1e-9)
            # an upper bound of the true objective's change, tight at y0
            gap = prob.true_objective(np.exp(y)) - prob.true_objective(p0)
            assert gap <= val + 1e-9
        # same gradient as the true objective at the condensation point
        h = 1e-6
        true_at = [prob.true_objective(np.exp(y0 + h * e)) for e in np.eye(len(y0))]
        true_at_minus = [prob.true_objective(np.exp(y0 - h * e)) for e in np.eye(len(y0))]
        fd = (np.array(true_at) - np.array(true_at_minus)) / (2 * h)
        np.testing.assert_allclose(F(y0)[1], fd, rtol=1e-6, atol=1e-8)
    assert kinds == {0, 1, 2}


def test_single_link_solves_to_full_power():
    g = toy_gains([[1e-8]])
    dec = make_decision(g, dl=[0])
    st = state_with([1e7])
    prob = build_power_problem(st, dec, g)
    p, status, info = solve_power_sp(prob, prob.p_max.copy())
    assert status == STATUS_CONVERGED
    assert p[0] == pytest.approx(P_BS, rel=1e-12)
    assert info["outer_iterations"] >= 1


def test_sp_stops_at_an_inner_round_out_of_iterations(monkeypatch):
    # a round whose Newton solve runs out of iterations ends the loop:
    # its point is returned with its status, and the cap is not reached
    rng = np.random.default_rng(7)
    st, sel, g = random_power_instance(rng)
    prob = build_power_problem(st, sel, g)
    _, status, info = solve_power_sp(prob, prob.p_max.copy())
    assert status == STATUS_CONVERGED and info["outer_iterations"] >= 3

    rounds = []
    real = pa.minimize_box

    def stalled_in_round_2(fgh, y0, lo, hi):
        y, inner_status, iters = real(fgh, y0, lo, hi)
        rounds.append((y, iters))
        return y, STATUS_MAX_ITER if len(rounds) == 2 else inner_status, iters

    monkeypatch.setattr(pa, "minimize_box", stalled_in_round_2)
    p, status, info = solve_power_sp(prob, prob.p_max.copy())
    assert status == STATUS_MAX_ITER
    assert len(rounds) == info["outer_iterations"] == 2
    assert info["outer_capped"] == 0
    assert info["inner_iterations"] == sum(iters for _, iters in rounds)
    assert len(info["steps"]) == 2 and len(info["trajectory"]) == 3
    np.testing.assert_array_equal(p, np.exp(rounds[1][0]))


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
    g = toy_gains([[a, d], [b, c]])
    dec = make_decision(g, dl=[0, 1])
    st = state_with([1e7, 1e7])
    prob = build_power_problem(st, dec, g)
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
        prob = build_power_problem(st, sel, g)
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
    g = toy_gains([[1e-11, 1e-13], [1e-13, 1e-11]])
    dec = make_decision(g, dl=[0, 1])
    st = state_with([1e7, 1e7])
    prob = build_power_problem(st, dec, g)
    p_direct, status, _ = solve_power_sp(prob, prob.p_max.copy())
    assert status == STATUS_CONVERGED
    out, diag = allocate_with_fallback(st, dec, g)
    assert diag["status"] == STATUS_CONVERGED
    assert diag["outer_iterations"] >= 1
    assert diag["outer_capped"] == 0
    assert diag["fallbacks"] == 0
    np.testing.assert_array_equal(p_direct, prob.p_max)
    np.testing.assert_array_equal(active_powers(prob, out), p_direct)


def test_allocate_keeps_the_point_of_an_sp_stopped_at_its_round_limit(monkeypatch):
    # weak direct gains keep every link below the SE cap, so nothing is
    # certified and the SP runs, stopping before its first round
    g = toy_gains([[1e-11, 1e-13, 1e-13], [1e-13, 1e-11, 1e-13], [1e-13, 1e-13, 1e-11]])
    dec = make_decision(g, dl=[0, 1, None], ul=[None, None, 2])
    st = state_with([1e7, 1e7, 1e7])
    monkeypatch.setattr(pa, "MAX_OUTER", 0)
    out, diag = allocate_with_fallback(st, dec, g)
    assert diag["status"] == STATUS_MAX_ITER
    assert diag["outer_capped"] == 1 and diag["certified"] == 0
    # every selected link stays on air
    np.testing.assert_array_equal(out.dl_ue, dec.dl_ue)
    np.testing.assert_array_equal(out.ul_ue, dec.ul_ue)
    assert out.p_dl[[0, 1]].all() and out.p_ul[2] > 0
    prob = build_power_problem(st, dec, g)
    base = trim_to_se_cap(prob.gain, prob.noise, prob.p_max)
    assert realized_objective(prob, active_powers(prob, out)) <= realized_objective(prob, base)


def test_allocator_counts_its_nonconverged_slots(monkeypatch):
    # a solved slot whose SP stops at its round limit counts once; a
    # certified slot and an idle slot never run the SP and count 0
    monkeypatch.setattr(pa, "MAX_OUTER", 0)
    g = toy_gains([[1e-11, 1e-13], [1e-13, 1e-11]])
    _, diag = allocate_with_fallback(state_with([1e7, 1e7]), make_decision(g, dl=[0, 1]), g)
    assert diag["status"] == STATUS_MAX_ITER and diag["nonconverged_slots"] == 1
    st, sel, g = certified_instance()
    _, diag = allocate_with_fallback(st, sel, g)
    assert diag["certified"] == 1 and diag["nonconverged_slots"] == 0
    _, diag = allocate_with_fallback(st, make_decision(g), g)
    assert diag["status"] == "idle" and diag["nonconverged_slots"] == 0
    assert set(pa.ALLOC_COUNTERS) <= set(diag)


def test_floor_prune_spares_pinned_links():
    g = toy_gains([[1e-8, 1e-13, 1e-13], [1e-13, 1e-8, 1e-13], [1e-13, 1e-13, 1e-8]])
    dec = make_decision(g, dl=[0, 1, 2])
    prob = build_power_problem(state_with([1e7] * 3), dec, g)
    floor = prob.p_floor
    p = np.array([floor[0] / 10, floor[1] * (1 + 1e-10), 2 * floor[2]])
    free = np.zeros(3, dtype=bool)
    # unpinned links at (or within 1e-9 of) the floor go to zero
    np.testing.assert_array_equal(pa._floor_prune(prob, p, free), [0.0, 0.0, p[2]])
    # a pinned link keeps its power, even below the floor
    pinned = np.array([True, True, False])
    np.testing.assert_array_equal(pa._floor_prune(prob, p, pinned), p)
    assert p[0] == floor[0] / 10


def trim_counter(monkeypatch):
    calls = []
    orig = pa.trim_to_se_cap

    def spy(gain, noise, p):
        calls.append(len(p))
        return orig(gain, noise, p)

    monkeypatch.setattr(pa, "trim_to_se_cap", spy)
    return calls


def test_allocate_trims_once_per_cap_round_without_pruned_links(monkeypatch):
    # link 0 starts far above the cap, link 1 stays below it at full
    # power, so full power is not certified; neither ends at the floor
    g = toy_gains([[1e-8, 2e-13], [2e-13, 1e-11]])
    sel = make_decision(g, dl=[0, 1])
    calls = trim_counter(monkeypatch)
    out, diag = allocate_with_fallback(state_with([1e7, 1e7]), sel, g)
    assert diag["certified"] == 0
    assert diag["cap_rounds"] >= 1 and diag["fallbacks"] == 0
    assert (out.dl_ue >= 0).all()
    # one trim per cap round and one of the full-power baseline
    assert len(calls) == diag["cap_rounds"] + 1
    sinr_d, _ = slot_sinrs(out, g)
    assert sinr_d[0] == pytest.approx(SE_CAP_SINR, rel=1e-9)
    assert sinr_d[1] < SE_CAP_SINR and out.p_dl[1] == g.p_bs_w


def test_allocate_retrims_kept_links_after_floor_prune(monkeypatch):
    # the energy penalty parks the near link (8 m) at the floor and keeps
    # the far one (1 km) at full power, above the cap
    dist = np.array([[8.0, 1000.0], [8.0, 1000.0]])
    g = toy_gains([[1e-8, 2e-11], [2e-11, 1e-8]], dist_m=dist)
    sel = make_decision(g, dl=[0, 1])
    calls = trim_counter(monkeypatch)
    out, diag = allocate_with_fallback(
        state_with([1e7, 1e7]), sel, g, 0.2
    )
    assert out.dl_ue.tolist() == [NONE, 1] and out.p_dl[0] == 0.0
    # the last trim runs on the kept link alone
    assert len(calls) == diag["cap_rounds"] + 2 and calls[-1] == 1
    sinr_d, _ = slot_sinrs(out, g)
    assert sinr_d[1] == pytest.approx(SE_CAP_SINR, rel=1e-9)


def test_trim_to_se_cap_exact_and_idempotent():
    g = toy_gains([[1e-8]])
    dec = make_decision(g, dl=[0])
    trimmed = trim_decision(dec, g)
    sinr_d, _ = slot_sinrs(trimmed, g)
    assert sinr_d[0] == pytest.approx(SE_CAP_SINR, rel=1e-12)
    assert trimmed.p_dl[0] < dec.p_dl[0]
    again = trim_decision(trimmed, g)
    np.testing.assert_array_equal(again.p_dl, trimmed.p_dl)

    # below the cap nothing moves
    g_weak = toy_gains([[1e-11]])
    dec_weak = make_decision(g_weak, dl=[0])
    np.testing.assert_array_equal(trim_decision(dec_weak, g_weak).p_dl, dec_weak.p_dl)


def test_trim_to_se_cap_coupled_links_settle_below_cap():
    g = toy_gains([[1e-8, 3e-11], [3e-11, 1e-8]])
    dec = make_decision(g, dl=[0, 1])
    trimmed = trim_decision(dec, g)
    sinr_d, _ = slot_sinrs(trimmed, g)
    assert np.all(sinr_d <= SE_CAP_SINR * (1 + 1e-9))
    assert np.all(trimmed.p_dl <= dec.p_dl)


def test_trim_to_se_cap_two_cell_fixed_point():
    # symmetric coupling: the exact capped power is cap * N / (g - cap * x)
    direct, cross = 1e-8, 1.5e-10
    g = toy_gains([[direct, cross], [cross, direct]])
    dec = make_decision(g, dl=[0, 1])
    trimmed = trim_decision(dec, g)
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
    g = toy_gains(g_dl, g_bs=g_bs, g_ue=g_ue, gamma=gamma)
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
        trimmed = trim_decision(dec, g)
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
        again = trim_decision(trimmed, g)
        np.testing.assert_array_equal(again.p_dl, trimmed.p_dl)
        np.testing.assert_array_equal(again.p_ul, trimmed.p_ul)
    assert n_touched > 0 and n_kept > 0


def weakly_coupled_instance(rng):
    """Serving gains 1e-8..1e-6 against cross gains and gamma of at most
    1e-12: at full power every active link is above the SE cap.

    Two UEs per cell; each cell turns its downlink (UE 2b) and its
    uplink (UE 2b + 1) on at random, and cell 0 always has a downlink.
    """
    B = int(rng.integers(2, 5))
    N = 2 * B
    g_dl = 10 ** rng.uniform(-15.0, -12.0, size=(B, N))
    g_dl[np.repeat(np.arange(B), 2), np.arange(N)] = 10 ** rng.uniform(-8.0, -6.0, size=N)
    m = 10 ** rng.uniform(-15.0, -12.0, size=(B, B))
    g_bs = (m + m.T) / 2.0
    np.fill_diagonal(g_bs, 0.0)
    m = 10 ** rng.uniform(-15.0, -12.0, size=(N, N))
    g_ue = (m + m.T) / 2.0
    np.fill_diagonal(g_ue, 0.0)
    g = toy_gains(g_dl, g_bs=g_bs, g_ue=g_ue, gamma=10 ** rng.uniform(-15.0, -12.0))
    dl = [2 * b if rng.random() < 0.7 else None for b in range(B)]
    ul = [2 * b + 1 if rng.random() < 0.7 else None for b in range(B)]
    dl[0] = 0
    return make_decision(g, dl=dl, ul=ul), g


def test_trim_to_se_cap_all_over_matches_masked_solve():
    # a round that holds every link solves on the whole matrix; the
    # masked loop solves the same system on gathered rows and columns.
    # All-over instances take that round first, mixed ones later or never
    rng = np.random.default_rng(47)
    n_all = n_mixed = 0
    for i in range(80):
        dec, g = weakly_coupled_instance(rng) if i % 2 else coupled_cap_instance(rng)
        links, gain, noise = link_gains(dec, g)
        p = dec.p.reshape(-1)[links]
        over = link_sinr(gain, noise, p) > SE_CAP_SINR * (1 + 1e-12)
        n_all += over.all()
        n_mixed += 0 < over.sum() < len(p)
        got = trim_to_se_cap(gain, noise, p)
        assert np.array_equal(got, reference_trim_to_se_cap(gain, noise, p, SE_CAP_SINR))
    assert n_all >= 30 and n_mixed >= 10


def test_realized_objective_matches_true_below_cap(rng):
    g = toy_gains([[3e-11, 5e-13], [7e-13, 4e-11]], gamma=1e-9)
    dec = make_decision(g, dl=[0, None], ul=[None, 1])
    st = state_with([8e6, 1.2e7])
    prob = build_power_problem(st, dec, g)
    p = prob.p_max * rng.uniform(0.3, 1.0, size=prob.n_vars)
    assert realized_objective(prob, p) == pytest.approx(prob.true_objective(p), rel=1e-12)


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
        prob = build_power_problem(st, sel, g)
        base = trim_to_se_cap(prob.gain, prob.noise, prob.p_max)
        # floor-pruned links shed an O(log1p(floor SINR)) rate term after
        # the safeguard comparison, hence the per-link slack
        slack = 0.02 * (prob.n_vars + 1)
        p_out = active_powers(prob, out)
        assert realized_objective(prob, p_out) <= realized_objective(prob, base) + slack


def certified_instance(near_gain=1e-8):
    """Two strong, weakly coupled downlinks: full power trimmed to the SE
    cap leaves both at the cap. (state, selection, gains)"""
    g = toy_gains([[near_gain, 1e-13], [1e-13, 1e-8]])
    return state_with([1e7, 1e7]), make_decision(g, dl=[0, 1]), g


def sp_counter(monkeypatch, starts=None):
    """Spy on solve_power_sp: the number of links of each call, and each
    call's start point appended to `starts` when given."""
    calls = []
    orig = pa.solve_power_sp

    def spy(prob, P0):
        calls.append(prob.n_vars)
        if starts is not None:
            starts.append(np.array(P0, dtype=float))
        return orig(prob, P0)

    monkeypatch.setattr(pa, "solve_power_sp", spy)
    return calls


def test_certified_slot_never_runs_sp(monkeypatch):
    st, sel, g = certified_instance()
    calls = sp_counter(monkeypatch)
    _, diag = allocate_with_fallback(st, sel, g)
    assert calls == []
    assert all(diag[k] == 0 for k in pa.SP_COUNTERS)
    assert diag["status"] == STATUS_CONVERGED


def test_certified_slot_skips_the_solve_path(monkeypatch):
    # trimmed full power is returned at once: one trim, of full power,
    # and no capped solve, safeguard comparison or floor prune
    st, sel, g = certified_instance()
    trims = trim_counter(monkeypatch)
    skipped = []
    for name in ("_capped_solve", "realized_objective", "_floor_prune"):
        monkeypatch.setattr(pa, name, lambda *args, name=name: skipped.append(name))
    _, diag = allocate_with_fallback(st, sel, g)
    assert diag["certified"] == 1
    assert trims == [2] and skipped == []


def test_certified_slot_returns_trimmed_full_power():
    # the near UE's link sits at the cap below the power floor and is kept
    for near_gain in (1e-8, 1e-4):
        st, sel, g = certified_instance(near_gain)
        prob = build_power_problem(st, sel, g)
        base = trim_to_se_cap(prob.gain, prob.noise, prob.p_max)
        assert (base[0] < prob.p_floor[0]) == (near_gain == 1e-4)
        out, _ = allocate_with_fallback(st, sel, g)
        assert (out.dl_ue >= 0).all()
        np.testing.assert_array_equal(active_powers(prob, out), base)
        sinr_d, _ = slot_sinrs(out, g)
        np.testing.assert_allclose(sinr_d, SE_CAP_SINR, rtol=1e-9)


def test_certified_slot_counts_once():
    st, sel, g = certified_instance()
    _, diag = allocate_with_fallback(st, sel, g)
    assert diag["certified"] == 1
    assert diag["fallbacks"] == 0


def test_certificate_not_taken_with_energy_penalty_or_link_below_cap(monkeypatch):
    calls = sp_counter(monkeypatch)
    st, sel, g = certified_instance()
    _, diag = allocate_with_fallback(st, sel, g, 0.05)
    assert diag["certified"] == 0 and len(calls) >= 1
    # link 1 stays below the cap at full power
    calls.clear()
    g = toy_gains([[1e-8, 1e-13], [1e-13, 1e-11]])
    _, diag = allocate_with_fallback(st, make_decision(g, dl=[0, 1]), g)
    assert diag["certified"] == 0 and len(calls) >= 1


def test_certificate_bounds_the_capped_solve():
    # wherever the check passes, the SP path cannot beat trimmed full
    # power by more than the rounding the "at the cap" test allows
    rng = np.random.default_rng(43)
    n_cert = 0
    for i in range(60):
        if i % 2:
            st, sel, g = random_power_instance(rng)
        else:
            dec, g = coupled_cap_instance(rng)
            st, sel = state_with(10 ** rng.uniform(6.5, 7.5, g.n_ues)), dec
        prob = build_power_problem(st, sel, g)
        base = trim_to_se_cap(prob.gain, prob.noise, prob.p_max)
        if not pa._at_cap(prob.gain, prob.noise, base).all():
            continue
        n_cert += 1
        # the capped solve from full power with nothing pinned, the start
        # it had before trimmed full power pinned the capped links
        p, _, status, _ = pa._capped_solve(prob, prob.p_max, np.zeros(prob.n_vars, dtype=bool))
        assert status == STATUS_CONVERGED
        slack = prob.w.sum() * (np.log1p(SE_CAP_SINR) - np.log1p(SE_CAP_SINR * (1 - 1e-9)))
        bound = -prob.w.sum() * np.log1p(SE_CAP_SINR)
        assert realized_objective(prob, base) <= bound + slack
        assert realized_objective(prob, p) >= realized_objective(prob, base) - slack
    assert n_cert >= 10


def test_fallback_keeps_links_at_cap_below_the_floor(monkeypatch):
    # UE 0 sits next to its BS, so the trim parks its link at the cap
    # below the power floor; link 1 stays below the cap at full power
    g = toy_gains([[1e-4, 1e-13], [1e-13, 1e-11]])
    st, sel = state_with([1e7, 1e7]), make_decision(g, dl=[0, 1])
    prob = build_power_problem(st, sel, g)
    base = trim_to_se_cap(prob.gain, prob.noise, prob.p_max)
    assert base[0] < prob.p_floor[0] and base[1] == prob.p_max[1]

    starts = []

    def losing_solve(prob, p0, pinned):
        # a converged answer worse than base: everything at the floor
        starts.append((p0.copy(), pinned.copy()))
        return (prob.p_floor.copy(), np.zeros(prob.n_vars, dtype=bool),
                STATUS_CONVERGED, dict.fromkeys(pa.SP_COUNTERS, 0))

    monkeypatch.setattr(pa, "_capped_solve", losing_solve)
    out, diag = allocate_with_fallback(st, sel, g)
    assert diag["fallbacks"] == 1 and diag["certified"] == 0
    # the solve started at base with the near link pinned
    assert len(starts) == 1
    np.testing.assert_array_equal(starts[0][0], base)
    assert starts[0][1].tolist() == [True, False]
    assert (out.dl_ue >= 0).all()
    np.testing.assert_array_equal(active_powers(prob, out), base)


def partly_capped_instance():
    """Links 0 and 2 end at the SE cap after the trim, link 1 stays below
    it at full power. (state, selection, gains)"""
    g = toy_gains([[1e-8, 1e-13, 1e-13], [1e-13, 1e-11, 1e-13], [1e-13, 1e-13, 1e-8]])
    return state_with([1e7] * 3), make_decision(g, dl=[0, 1, 2]), g


def test_sp_starts_at_trimmed_full_power_with_capped_links_pinned(monkeypatch):
    st, sel, g = partly_capped_instance()
    prob = build_power_problem(st, sel, g)
    base = trim_to_se_cap(prob.gain, prob.noise, prob.p_max)
    assert pa._at_cap(prob.gain, prob.noise, base).tolist() == [True, False, True]
    starts = []
    calls = sp_counter(monkeypatch, starts)
    _, diag = allocate_with_fallback(st, sel, g)
    assert diag["certified"] == 0 and diag["status"] == STATUS_CONVERGED
    # the first solve sees only the link below the cap, at full power
    assert calls[0] == 1
    np.testing.assert_array_equal(starts[0], prob.p_max[[1]])


def test_sp_with_energy_penalty_starts_every_link_at_full_power(monkeypatch):
    st, sel, g = partly_capped_instance()
    kappa = 0.05
    prob = build_power_problem(st, sel, g, kappa)
    assert prob.lin.any()
    starts = []
    calls = sp_counter(monkeypatch, starts)
    allocate_with_fallback(st, sel, g, kappa)
    assert calls[0] == 3
    np.testing.assert_array_equal(starts[0], prob.p_max)


def test_energy_kappa_zero_is_plain_problem():
    g = toy_gains([[1e-8, 2e-11], [2e-11, 1e-8]])
    dec = make_decision(g, dl=[0, 1])
    st = state_with([1e7, 1e7])
    prob0 = build_power_problem(st, dec, g, 0.0)
    assert not prob0.lin.any()
    p0, _, _ = solve_power_sp(prob0, prob0.p_max.copy())
    prob1 = build_power_problem(st, dec, g)
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
    prob = build_power_problem(st, dec, g, kappa)
    return dataclasses.replace(prob, epsilon=1e-9)


def test_energy_penalty_stationary_point_matches_foc_root():
    kappa, dist = 0.04, 8.0
    prob = energy_single_link(kappa, dist)
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
    p, status, _ = solve_power_sp(prob, prob.p_max.copy())
    assert status == STATUS_CONVERGED
    at_hi = abs(p[0] - prob.p_max[0]) < 1e-9 * prob.p_max[0]
    at_lo = p[0] < prob.p_floor[0] * (1 + 1e-6)
    assert at_hi or at_lo


def test_energy_penalty_threshold_and_monotone_power():
    powers = []
    for kappa in [0.0, 0.005, 0.02, 0.05, 0.2, 1.0]:
        prob = energy_single_link(kappa)
        p, status, _ = solve_power_sp(prob, prob.p_max.copy())
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
    prob = energy_single_link(0.04)
    p = np.array([0.01])
    assert sp_objective_value(prob, p) == pytest.approx(math.exp(prob.true_objective(p)), rel=1e-9)

    # a penalty weight must be finite and non-negative, as RunConfig checks it
    for kappa in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigError, match="energy_kappa must be finite and non-negative"):
            build_power_problem(
                state_with([1e7]),
                make_decision(toy_gains([[1e-8]]), dl=[0]),
                toy_gains([[1e-8]]),
                kappa,
            )


def test_empty_selection_short_circuits():
    g = toy_gains([[1e-8]])
    dec = make_decision(g)
    st = state_with([1e7])
    assert build_power_problem(st, dec, g) is None
    out, diag = allocate_with_fallback(st, dec, g)
    assert diag["status"] == "idle"
    assert np.all(out.dl_ue == NONE) and np.all(out.ul_ue == NONE)
