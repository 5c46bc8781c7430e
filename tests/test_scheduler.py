import itertools

import numpy as np
import pytest

from conftest import (
    cell_options,
    indoor_network,
    make_decision,
    outdoor_network,
    total_slot_utility,
    toy_gains,
    utility_change,
)
from fdcell.scheduler import (
    BOTH,
    DL,
    UL,
    PFState,
    _batch_of_one,
    _SlotState,
    chi,
    hd_select_ues,
    init_state,
    round_robin_partners,
    round_robin_select,
    select_ues,
    update_state,
)
from fdcell.channel import GainStack
from fdcell.sinr_rate import NONE, SlotDecision, slot_rates


def fresh_state(n, avg=None, beta=0.99):
    st = init_state(n, 10e6, beta=beta)
    if avg is not None:
        st.avg_dl[:] = avg
        st.avg_ul[:] = avg
    return st


def test_init_state_minimum_rate():
    st = init_state(4, 10e6)
    assert np.all(st.avg_dl == 0.26 * 10e6)
    assert st.beta == 0.99


def test_pf_state_holds_one_direction_by_ue_array():
    # row r of the averages is direction r, as in SlotDecision; avg_dl,
    # avg_ul and a drop's state are views that writes go through
    st = init_state(4, 10e6)
    assert st.avg.shape == (2, 4)
    st.avg_dl[:] = [1.0, 2.0, 3.0, 4.0]
    st.avg_ul[:] = 5.0
    assert st.avg.tolist() == [[1.0, 2.0, 3.0, 4.0], [5.0] * 4]
    lock = init_state(4, 10e6, drops=3)
    assert lock.avg.shape == (3, 2, 4) and lock.avg_ul.shape == (3, 4)
    for d in range(3):
        assert np.shares_memory(lock[d].avg, lock.avg)
        assert lock[d].beta == lock.beta
    lock[1].avg_ul[:] = 7.0
    assert np.all(lock.avg[1, 1] == 7.0)
    assert np.all(lock.avg[[0, 2]] == 0.26 * 10e6) and np.all(lock.avg[1, 0] == 0.26 * 10e6)


def test_lockstep_update_equals_one_drop_updates():
    # one scatter over (drop, direction, UE) leaves every drop with the
    # averages of its own one-drop update, bit for bit; drop 1 serves UE 1
    # and UE 3 in both directions, as an FD_FDUE cell may
    rng = np.random.default_rng(8)
    ue = np.array([
        [[0, 2], [1, NONE]],
        [[1, 3], [1, 3]],
        [[NONE, NONE], [NONE, 2]],
    ])
    D, N = len(ue), 4
    rate = rng.uniform(1e6, 6e7, ue.shape) * (ue >= 0)
    avg = 2.6e6 * 10 ** rng.uniform(0.0, 1.5, (D, 2, N))
    dec = SlotDecision.of(ue, np.where(ue >= 0, 0.2, 0.0), fd_ue=True)
    lock = update_state(PFState(avg.copy()), dec, rate)
    for d in range(D):
        one = update_state(PFState(avg[d].copy()), dec[d], rate[d])
        assert np.array_equal(lock.avg[d], one.avg), d
    b = lock.beta
    for r in (0, 1):
        # the same UE blends its own rate into each direction's row
        assert lock.avg[1, r, 1] == avg[1, r, 1] * b + (1.0 - b) * rate[1, r, 0]
        assert lock.avg[1, r, 3] == avg[1, r, 3] * b + (1.0 - b) * rate[1, r, 1]
    # unscheduled UEs only decay
    assert lock.avg[2, 0, 2] == avg[2, 0, 2] * b and lock.avg[0, 1, 0] == avg[0, 1, 0] * b


def test_ewma_update_oracle():
    g = toy_gains([[1e-8, 1e-8]])
    st = fresh_state(2, avg=10e6)
    dec = make_decision(g, dl=[0])
    st = update_state(st, dec, np.array([[60e6], [0.0]]))
    assert st.avg_dl[0] == pytest.approx(0.99 * 10e6 + 0.01 * 60e6, rel=1e-12)   # 10.5 Mbps
    assert st.avg_dl[1] == pytest.approx(9.9e6, rel=1e-12)                       # decayed
    assert st.avg_ul[0] == pytest.approx(9.9e6, rel=1e-12)


def test_ewma_fixed_point():
    g = toy_gains([[1e-8, 1e-8]])
    st = fresh_state(2, avg=10e6)
    dec = make_decision(g, dl=[0])
    st = update_state(st, dec, np.array([[10e6], [0.0]]))
    assert st.avg_dl[0] == pytest.approx(10e6, rel=1e-12)


def test_chi_oracle():
    # log10(1.05e7) - log10(9.9e6) = log10(1 + 0.01*60/(0.99*10))
    val = chi(10e6, 60e6, 0.99)
    assert val == pytest.approx(np.log10(1.05e7) - np.log10(9.9e6), rel=1e-12)
    assert val == pytest.approx(0.02558, abs=5e-5)
    assert chi(10e6, 0.0, 0.99) == 0.0
    rates = np.linspace(0.0, 60e6, 50)
    assert np.all(np.diff(chi(10e6, rates, 0.99)) > 0)


def one_drop_state(g, st, fd_ue=False):
    """_SlotState of one drop at full power."""
    st1, stack, _ = _batch_of_one(st, g, None)
    return _SlotState(stack, (g.p_bs_w, g.p_ue_w), st1, fd_ue)


def position(scan, c, direction, k):
    """Index of UE k in direction `direction` among a scan's candidates of cell c."""
    plan = scan.plan
    return int(np.flatnonzero((plan.ue[c] == k) & (plan.code == (direction == UL)))[0])


def scan_one(state, c, direction):
    """A one-drop state's scan of cell c in one direction."""
    return state.scan(np.array([c]), (direction,))


def slot_state(g, st, links=(), fd_ue=False):
    """One drop's _SlotState with (cell, direction, UE) links accepted in order."""
    state = one_drop_state(g, st, fd_ue)
    for c, direction, k in links:
        scan = scan_one(state, c, direction)
        state.accept(scan, np.array([0]), np.array([position(scan, c, direction, k)]))
    return state


def scan_du(state, c, direction, k):
    """The scan's net utility change for candidate UE k."""
    scan = scan_one(state, c, direction)
    return float(scan.du[0, position(scan, c, direction, k)])


def test_scan_empty_network_is_pure_gain():
    g = toy_gains(np.full((2, 4), 1e-9))
    st = fresh_state(4)
    du = scan_du(slot_state(g, st), 0, DL, 1)
    dec = make_decision(g, dl=[1, None])
    rd, _ = slot_rates(dec, g)
    assert du == pytest.approx(float(chi(st.avg_dl[1], rd[0], st.beta)), rel=1e-12)


def test_scan_matches_total_utility_difference():
    rng = np.random.default_rng(3)
    _, g = indoor_network(seed=5, ues_per_cell=2, cancellation_db=95.0)
    st = fresh_state(g.n_ues)
    st.avg_dl[:] = 2.6e6 * rng.uniform(0.5, 4.0, g.n_ues)
    st.avg_ul[:] = 2.6e6 * rng.uniform(0.5, 4.0, g.n_ues)
    # partial slot: cell 0 has a downlink, cell 1 an uplink
    state = slot_state(g, st, [(0, DL, g.cell_ue_ids[0][0]), (1, UL, g.cell_ue_ids[1][1])])
    cand = g.cell_ue_ids[2][0]
    du = scan_du(state, 2, DL, cand)
    ref = utility_change(g, st, *state.RQ[0], 2, DL, cand)
    assert du == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_scan_counts_full_loss_of_silenced_neighbor():
    # candidate uplink UE sits on top of the neighbor's downlink UE and
    # silences it: the loss term must include that UE's whole utility
    g_dl = np.array([[1e-8, 1e-8, 1e-12, 1e-12], [1e-12, 1e-12, 1e-8, 1e-8]])
    g_ue = np.zeros((4, 4))
    g_ue[1, 2] = g_ue[2, 1] = 1e-5   # candidate UE 1 blasts UE 2
    g = toy_gains(g_dl, g_ue=g_ue)
    st = fresh_state(4)
    dec_before = make_decision(g, dl=[None, 2])
    rd, _ = slot_rates(dec_before, g)
    neighbor_chi = float(chi(st.avg_dl[2], rd[1], st.beta))
    du = scan_du(slot_state(g, st, [(1, DL, 2)]), 0, UL, 1)
    dec_after = make_decision(g, dl=[None, 2], ul=[1, None])
    rd2, ru2 = slot_rates(dec_after, g)
    assert rd2[1] == 0.0   # silenced outright
    own = float(chi(st.avg_ul[1], ru2[0], st.beta))
    assert du == pytest.approx(own - neighbor_chi, rel=1e-9)


def add_random_link(state, scan, rng):
    """Accept a random eligible candidate of a one-drop scan, if it has one."""
    ok = np.flatnonzero(state.eligible(scan)[0])
    if len(ok):
        state.accept(scan, np.array([0]), ok[[rng.integers(len(ok))]])


@pytest.mark.parametrize("fd_ue", [False, True])
@pytest.mark.parametrize("network", [indoor_network, outdoor_network])
def test_scan_matches_utility_change(network, fd_ue):
    # the selector's carried slot state scores every eligible candidate
    # as the whole-slot utility difference does, on random partial
    # slots (FD cells included) built through the state's own updates
    rng = np.random.default_rng(17)
    checked = fd_cells = 0
    for trial in range(6):
        _, g = network(seed=40 + trial, cancellation_db=(75.0, 95.0, 110.0)[trial % 3])
        B, N = g.n_cells, g.n_ues
        # spread averages: no two candidates tie
        st = PFState(2.6e6 * 10 ** rng.uniform(0.0, 1.5, (2, N)))
        state = one_drop_state(g, st, fd_ue)
        for c in rng.permutation(B):
            for direction in (DL, UL):
                if rng.random() < 0.55:
                    add_random_link(state, scan_one(state, c, direction), rng)
        R, Q = state.RQ[0]
        fd_cells += int(np.sum((R >= 0) & (Q >= 0)))
        for c in range(B):
            for direction, taken, other in ((DL, R, Q), (UL, Q, R)):
                if taken[c] >= 0:
                    continue
                scan = scan_one(state, c, direction)
                for k, du, ok in zip(scan.plan.ue[c], scan.du[0], state.eligible(scan)[0]):
                    if not ok:
                        # only the UE of the cell's other direction, and only without fd_ue
                        assert not fd_ue and k == other[c]
                        continue
                    ref = utility_change(g, st, R, Q, c, direction, k, fd_ue=fd_ue)
                    assert du == pytest.approx(ref, rel=1e-12), (trial, c, direction, k)
                    checked += 1
    assert fd_cells > 0 and checked > 100


@pytest.mark.parametrize("fd_ue", [False, True])
@pytest.mark.parametrize("network", [indoor_network, outdoor_network])
def test_joint_scan_equals_single_scans(network, fd_ue):
    # the joint scan of both directions (pass 1 and pass 2) holds the two
    # single-direction scans bit for bit, over partial slots built through
    # the state's own accepts; the denser slots give outdoor 8 or more
    # active links in one direction
    rng = np.random.default_rng(23)
    checked = 0
    active = set()
    for trial in range(9):
        _, g = network(seed=60 + trial, cancellation_db=(75.0, 95.0, None)[trial % 3])
        B, N = g.n_cells, g.n_ues
        st = PFState(2.6e6 * 10 ** rng.uniform(0.0, 1.5, (2, N)))
        state = one_drop_state(g, st, fd_ue)
        free = rng.choice(B, size=2, replace=False)
        p_link = (0.3, 0.6, 0.95)[trial // 3]
        for c in rng.permutation(B):
            for direction in (DL, UL):
                if c not in free and rng.random() < p_link:
                    add_random_link(state, scan_one(state, c, direction), rng)
        active.add((int(np.sum(state.RQ[:, 0] >= 0)), int(np.sum(state.RQ[:, 1] >= 0))))
        for c in range(B):
            joint = state.scan(np.array([c]), BOTH)
            for direction in (DL, UL):
                ref = scan_one(state, c, direction)
                part = joint.plan.code == (direction == UL)
                # du, and own's num, den, gain and b_avg
                assert np.array_equal(joint.du[:, part], ref.du), (trial, c, "du")
                assert np.array_equal(joint.own[..., part], ref.own), (trial, c, "own")
                for field in ("den1", "chi1"):
                    got = getattr(joint, field)[:, joint.plan.row[part]]
                    assert np.array_equal(got, getattr(ref, field)[:, ref.plan.row]), (trial, c, field)
                assert np.array_equal(state.eligible(joint)[:, part], state.eligible(ref))
                checked += 1
    assert checked >= 36
    if network is outdoor_network:
        assert max(nd for nd, _ in active) >= 8 and max(nu for _, nu in active) >= 8


def batch_state(tables, st, fd_ue, links):
    """_SlotState of several drops, drop d with the (cell, direction, UE)
    links of links[d] accepted in order, through joint scans."""
    state = _SlotState(GainStack(tables), (tables[0].p_bs_w, tables[0].p_ue_w), st, fd_ue)
    for step in range(max(map(len, links))):
        a = [d for d in range(len(tables)) if step < len(links[d])]
        cells = np.array([links[d][step][0] if step < len(links[d]) else 0 for d in range(len(tables))])
        scan = state.scan(cells, BOTH)
        j = [position(scan, *links[d][step]) for d in a]
        state.accept(scan, np.array(a), np.array(j))
    return state


@pytest.mark.parametrize("ues_per_cell", [1, 3])
def test_batched_scans_on_ragged_drops(ues_per_cell):
    # batches of drops in different partial states score every candidate
    # as the drop's own one-drop scan does, bit for bit, and as the
    # whole-slot utility change does; the loss sums the drop's fixed row
    # of B link slots per direction, in which idle slots hold exact zeros
    U = ues_per_cell
    links = [
        [],                                                               # empty
        [(c, DL, c * U) for c in range(9)] + [(10, UL, 10 * U)],         # 9 downlinks
        [(5, DL, 5 * U)] + [(c, UL, c * U + U - 1) for c in (0, 1, 2, 3, 7, 8, 11)],
        [(5, DL, 5 * U)] + [(c, DL, c * U) for c in (1, 2, 3, 4)] + [(c, UL, c * U) for c in (6, 7, 8, 9)],
        [(c, DL, c * U) for c in (0, 2, 4, 6, 8, 10)] + [(c, UL, c * U + U - 1) for c in (1, 3, 5, 7, 9, 11)],
        # fully loaded: every cell serves both directions, so every link
        # slot is taken; with U = 1 the cell's one UE serves both, so the
        # drop runs with fd_ue
        [(c, r, c * U + (U - 1) * (r == UL)) for c in range(12) for r in (DL, UL)],
    ]
    fd_ue = [False, False, False, True, False, True]
    D = len(links)
    tables = [outdoor_network(seed=90 + d, cancellation_db=95.0, ues_per_cell=U)[1] for d in range(D)]
    B, N = tables[0].n_cells, tables[0].n_ues
    rng = np.random.default_rng(U)
    # (D, 2, N), from the (2, D, N) draw
    avg = np.moveaxis(2.6e6 * 10 ** rng.uniform(0.0, 1.5, (2, D, N)), 0, 1)
    # fd_ue is one bool per slot state: the fd_ue drops run in a batch of their own
    batches = [[d for d in range(D) if fd_ue[d] == fd] for fd in (False, True)]
    states = [
        batch_state([tables[d] for d in ds], PFState(avg[ds]), fd_ue[ds[0]], [links[d] for d in ds])
        for ds in batches
    ]
    assert int(np.sum(states[0].RQ[1, 0] >= 0)) >= 8
    assert np.all(states[1].RQ[-1] >= 0)
    for state in states:
        # an idle link slot holds signal 0 and chi 0, so it adds an exact zero to its row
        idle = (state.RQ < 0).reshape(state.D, 2 * B)
        assert np.all(state.sig[idle] == 0) and np.all(state.chi0[idle] == 0.0)
    singles = [
        slot_state(g, PFState(avg[d].copy()), links[d], fd_ue=fd_ue[d])
        for d, g in enumerate(tables)
    ]
    checked = 0
    for c in range(B):
        for state, ds in zip(states, batches):
            scan = state.scan(np.full(len(ds), c), BOTH)
            ok = state.eligible(scan)
            for i, d in enumerate(ds):
                g = tables[d]
                if c == 5 and d in (2, 3):
                    # cell 5's downlink UE may not take its uplink, unless fd_ue
                    assert ok[i, position(scan, 5, UL, 5 * U)] == (d == 3)
                one = singles[d].scan(np.array([c]), BOTH)
                assert np.array_equal(scan.du[i], one.du[0]), (d, c)
                assert np.array_equal(ok[i], singles[d].eligible(one)[0])
                R, Q = state.RQ[i]
                assert np.all(scan.chi1[i][:, (state.RQ[i] < 0).reshape(2 * B)] == 0.0)
                chi0 = state.chi0[i].reshape(2, B)
                for j in range(len(scan.plan.code)):
                    # the loss, summed over the drop's row of B slots per direction
                    chi1 = scan.chi1[i, scan.plan.row[j]].reshape(2, B)
                    lost = [np.add.reduce(chi0[r] - chi1[r]) for r in (0, 1)]
                    assert scan.du[i, j] == scan.own[2][i, j] - (lost[0] + lost[1])
                    direction, k = (DL, UL)[scan.plan.code[j]], scan.plan.ue[c, j]
                    if not ok[i, j]:
                        continue
                    ref = utility_change(g, PFState(avg[d]), R, Q, c, direction, k,
                                         fd_ue=fd_ue[d])
                    assert scan.du[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-12), (d, c, j)
                    checked += 1
    assert checked >= 40


def reference_select_ues(st, g, P, rng, fd_ue=False):
    """select_ues on one drop, with pass 1 scoring each direction by its own
    scan and pass 2 scanning only the missing direction."""
    order = rng.permutation(g.n_cells)
    state = one_drop_state(g, st, fd_ue)

    def best(scan):
        du = np.where(state.eligible(scan)[0], scan.du[0], -np.inf)
        i = int(du.argmax())
        return du[i], np.array([i])

    for c in order:
        scan_d, scan_u = scan_one(state, c, DL), scan_one(state, c, UL)
        (du_d, i_d), (du_u, i_u) = best(scan_d), best(scan_u)
        if max(du_d, du_u) > 0.0:
            if du_d >= du_u:
                state.accept(scan_d, np.array([0]), i_d)
            else:
                state.accept(scan_u, np.array([0]), i_u)
    for c in order:
        has_dl = state.RQ[0, 0, c] >= 0
        if has_dl == (state.RQ[0, 1, c] >= 0):
            continue
        scan = scan_one(state, c, UL if has_dl else DL)
        du, i = best(scan)
        if du > 0.0:
            state.accept(scan, np.array([0]), i)
    return state.decision()[0]


@pytest.mark.parametrize("fd_ue", [False, True])
@pytest.mark.parametrize("ues_per_cell", [1, 2, 8])
def test_select_ues_matches_two_scan_reference(ues_per_cell, fd_ue):
    _, g = indoor_network(seed=5, ues_per_cell=ues_per_cell, cancellation_db=85.0)
    P = (g.p_bs_w, g.p_ue_w)
    for seed in range(20):
        st = init_state(g.n_ues, g.bandwidth_hz)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(10):
            dec = select_ues(st, g, P, rng, fd_ue=fd_ue)
            ref = reference_select_ues(st, g, P, rng_ref, fd_ue=fd_ue)
            assert np.array_equal(dec.dl_ue, ref.dl_ue) and np.array_equal(dec.ul_ue, ref.ul_ue)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
            # the PF averages evolve as in a drop
            st = update_state(st, dec, slot_rates(dec, g))


def exhaustive_best(st, g, P):
    best_u, best = -np.inf, None
    opts = [cell_options(g.cell_ue_ids[b]) for b in range(g.n_cells)]
    for combo in itertools.product(*opts):
        used = [x for du in combo for x in du if x >= 0]
        if len(used) != len(set(used)):
            continue
        dec = make_decision(
            g,
            dl=[c[0] if c[0] >= 0 else None for c in combo],
            ul=[c[1] if c[1] >= 0 else None for c in combo],
        )
        u = total_slot_utility(dec, g, st)
        if u > best_u:
            best_u, best = u, dec
    return best_u, best


def test_single_cell_one_ue_stays_hd():
    _, g = indoor_network(seed=2, ues_per_cell=1, rooms_per_side=1)
    st = fresh_state(1)
    dec = select_ues(st, g, (g.p_bs_w, g.p_ue_w), np.random.default_rng(0))
    assert (dec.dl_ue[0] >= 0) != (dec.ul_ue[0] >= 0)


def test_single_cell_clean_fd_pair():
    # perfect cancellation and no UE-UE coupling: both directions help
    g = toy_gains([[1e-8, 1e-8]], gamma=0.0)
    st = fresh_state(2)
    dec = select_ues(st, g, (g.p_bs_w, g.p_ue_w), np.random.default_rng(0))
    assert dec.dl_ue[0] >= 0 and dec.ul_ue[0] >= 0
    assert dec.dl_ue[0] != dec.ul_ue[0]
    u_best, _ = exhaustive_best(st, g, (g.p_bs_w, g.p_ue_w))
    assert total_slot_utility(dec, g, st) == pytest.approx(u_best, rel=1e-12)


def test_hostile_pass2_keeps_pass1():
    # overwhelming self-interference makes the uplink worthless, and the
    # uplink UE would silence the downlink: stays single-direction
    g_ue = np.array([[0.0, 1e-4], [1e-4, 0.0]])
    g = toy_gains([[1e-8, 1e-8]], g_ue=g_ue, gamma=1.0)
    st = fresh_state(2)
    dec = select_ues(st, g, (g.p_bs_w, g.p_ue_w), np.random.default_rng(0))
    assert (dec.dl_ue[0] >= 0) != (dec.ul_ue[0] >= 0)


def test_greedy_matches_exhaustive_single_cell():
    # decoupled FD links (perfect cancellation, no UE-UE path): per-slot
    # utility is separable and the two-pass greedy is exactly optimal
    from dataclasses import replace

    hits = 0
    for trial in range(40):
        n_ues = 1 if trial % 3 == 0 else 2
        _, g = indoor_network(seed=100 + trial, ues_per_cell=n_ues, rooms_per_side=1)
        g = replace(g.with_cancellation(None), g_ue=np.zeros((n_ues, n_ues)))
        st = fresh_state(n_ues)
        P = (g.p_bs_w, g.p_ue_w)
        sel = select_ues(st, g, P, np.random.default_rng(trial))
        u_best, _ = exhaustive_best(st, g, P)
        u_got = total_slot_utility(sel, g, st)
        hits += u_got >= u_best * (1 - 1e-12) - 1e-15
    assert hits == 40


def test_greedy_is_not_exhaustive_under_coupling():
    # with real UE-UE coupling the committed pass-1 pick can exclude the
    # jointly best pair; the joint near-optimality gate bounds this gap
    mismatches = 0
    for trial in range(60):
        _, g = indoor_network(seed=3000 + trial, ues_per_cell=2, rooms_per_side=1)
        g = g.with_cancellation(None)
        st = fresh_state(2)
        sel = select_ues(st, g, (g.p_bs_w, g.p_ue_w), np.random.default_rng(trial))
        u_best, _ = exhaustive_best(st, g, (g.p_bs_w, g.p_ue_w))
        u_got = total_slot_utility(sel, g, st)
        assert u_got <= u_best * (1 + 1e-12) + 1e-15
        mismatches += u_got < u_best * (1 - 1e-12) - 1e-15
    assert mismatches > 0


def test_tie_prefers_downlink():
    # symmetric radio: both directions have identical marginal utility
    g = toy_gains([[1e-8]], gamma=0.0, noise_bs_w=1e-13, noise_ue_w=1e-13,
                  bs_power_dbm=23.0, ue_power_dbm=23.0)
    st = fresh_state(1)
    sel = select_ues(st, g, (g.p_bs_w, g.p_ue_w), np.random.default_rng(0))
    assert sel.dl_ue[0] == 0
    assert sel.ul_ue[0] == NONE


def test_hd_select_direction_and_argmax():
    _, g = indoor_network(seed=8, ues_per_cell=4, rooms_per_side=1)
    st = fresh_state(4)
    rng = np.random.default_rng(1)
    st.avg_dl[:] = 2.6e6 * rng.uniform(0.5, 4.0, 4)
    P = (g.p_bs_w, g.p_ue_w)
    dec = hd_select_ues(st, g, P, DL, np.random.default_rng(0))
    assert np.all(dec.ul_ue == NONE)
    # single cell: the pick is the best marginal utility over its UEs
    best = max(
        range(4),
        key=lambda k: utility_change(g, st, [NONE], [NONE], 0, DL, k),
    )
    assert dec.dl_ue[0] == best
    sel_ul = hd_select_ues(st, g, P, UL, np.random.default_rng(0))
    assert np.all(sel_ul.dl_ue == NONE)


def test_selection_never_reuses_a_ue():
    for trial in range(10):
        _, g = indoor_network(seed=trial, ues_per_cell=2)
        g = g.with_cancellation(85.0)
        st = fresh_state(g.n_ues)
        dec = select_ues(st, g, (g.p_bs_w, g.p_ue_w), np.random.default_rng(trial))
        used = np.concatenate([dec.dl_ue[dec.dl_ue >= 0], dec.ul_ue[dec.ul_ue >= 0]])
        assert len(used) == len(set(used.tolist()))


def test_round_robin_cycles_each_ue_once():
    _, g = indoor_network(seed=4, ues_per_cell=8)
    P = (g.p_bs_w, g.p_ue_w)
    stack = GainStack([g])
    seen = []
    for turn in range(8):
        dec = round_robin_select(turn, DL, stack, P, None)[0]
        assert np.all(dec.ul_ue == NONE)
        seen.append(dec.dl_ue.copy())
    seen = np.stack(seen)
    for b in range(g.n_cells):
        assert sorted(seen[:, b].tolist()) == g.cell_ue_ids[b].tolist()


def test_round_robin_fd_partner_distinct():
    _, g = indoor_network(seed=4, ues_per_cell=8)
    P = (g.p_bs_w, g.p_ue_w)
    stack = GainStack([g])
    partners = round_robin_partners([np.random.default_rng(0)], 16, *g.cell_ue_ids.shape)
    for t in range(16):
        direction = DL if t % 2 == 0 else UL
        fd = round_robin_select(t // 2, direction, stack, P, partners[:, t])[0]
        hd = round_robin_select(t // 2, direction, stack, P, None)[0]
        assert np.all(fd.dl_ue >= 0) and np.all(fd.ul_ue >= 0)
        assert np.all(fd.dl_ue != fd.ul_ue)
        # turn side matches what the HD round robin scheduled
        if direction == DL:
            assert np.array_equal(fd.dl_ue, hd.dl_ue)
        else:
            assert np.array_equal(fd.ul_ue, hd.ul_ue)


def test_round_robin_single_ue_degenerates_to_hd():
    _, g = indoor_network(seed=4, ues_per_cell=1)
    partners = round_robin_partners([np.random.default_rng(0)], 1, *g.cell_ue_ids.shape)
    dec = round_robin_select(0, DL, GainStack([g]), (g.p_bs_w, g.p_ue_w), partners[:, 0])[0]
    assert np.all(dec.dl_ue >= 0)
    assert np.all(dec.ul_ue == NONE)


def reference_round_robin(cursors, mode, direction, g, rng):
    """Per-cell loop with per-direction, per-cell cursors advanced on every
    call and one rng.choice per partner: the specification that
    round_robin_select reproduces from the turn index alone.

    cursors maps DL and UL to (B,) int arrays, updated in place.
    """
    B = g.n_cells
    R = np.full(B, NONE, dtype=int)
    Q = np.full(B, NONE, dtype=int)
    cursor = cursors[direction]
    for c in range(B):
        ids = g.cell_ue_ids[c]
        pick = int(ids[cursor[c] % len(ids)])
        cursor[c] += 1
        partner = NONE
        others = ids[ids != pick]
        if mode == "FD" and len(others):
            partner = int(rng.choice(others))
        if direction == DL:
            R[c], Q[c] = pick, partner
        else:
            Q[c], R[c] = pick, partner
    return R, Q


@pytest.mark.parametrize(
    "network", [("Indoor", 1), ("Indoor", 2), ("Indoor", 8), ("Outdoor", 10)]
)
def test_round_robin_matches_per_cell_choice_reference(network):
    scenario, ues_per_cell = network
    if scenario == "Indoor":
        _, g = indoor_network(seed=3, ues_per_cell=ues_per_cell)
    else:
        _, g = outdoor_network(seed=3)
    assert all(len(ids) == ues_per_cell for ids in g.cell_ue_ids)
    P = (g.p_bs_w, g.p_ue_w)
    stack = GainStack([g])
    S = 16
    for seed in range(20):
        for mode in ("FD", "HD"):
            cursors = {d: np.zeros(g.n_cells, dtype=int) for d in (DL, UL)}
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            # the FD partners of all S slots are drawn before the first one
            partners = round_robin_partners([rng], S, *g.cell_ue_ids.shape) if mode == "FD" else None
            for t in range(S):
                direction = DL if t % 2 == 0 else UL
                offsets = None if partners is None else partners[:, t]
                dec = round_robin_select(t // 2, direction, stack, P, offsets)[0]
                R, Q = reference_round_robin(cursors, mode, direction, g, rng_ref)
                assert np.array_equal(dec.dl_ue, R) and np.array_equal(dec.ul_ue, Q)
                # the turn is each cursor's count of earlier calls in its direction
                assert np.all(cursors[direction] == t // 2 + 1)
            assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("shape", [(9, 8), (12, 10), (9, 3)])   # (B, U): Indoor, Outdoor, small U
def test_round_robin_partners_equal_per_slot_draws(shape):
    # round_robin_partners draws each drop's S slots with one call; S calls
    # of size B, one per slot, give the same values and leave the generator
    # in the same state
    B, U = shape
    S = 20
    for seed in range(50):
        chunk = [np.random.default_rng(seed), np.random.default_rng(seed + 1000)]
        per_slot = [np.random.default_rng(seed), np.random.default_rng(seed + 1000)]
        partners = round_robin_partners(chunk, S, B, U)
        assert partners.shape == (2, S, B)
        for d, rng in enumerate(per_slot):
            for t in range(S):
                assert np.array_equal(partners[d, t], rng.integers(0, U - 1, size=B))
            assert chunk[d].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("U", [2, 1])
def test_round_robin_partners_leave_generator_untouched_below_three_ues(U):
    # U = 2 leaves one other UE (offset 0, a draw that consumes nothing);
    # U = 1 leaves none, and nothing is drawn
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    partners = round_robin_partners([rng], 20, 9, U)
    assert partners.shape == (1, 20, 9) and not partners.any()
    assert rng.bit_generator.state == before
