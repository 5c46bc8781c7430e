import ast
from pathlib import Path

import numpy as np
import pytest

import reference
from conftest import indoor_network, make_decision, outdoor_network, toy_gains
from fdcell.channel import GainStack, dbm_to_w
from fdcell.sinr_rate import (
    MAX_SE,
    MIN_SE,
    NONE,
    SlotDecision,
    link_gains,
    rate_from_sinr,
    slot_link_terms,
    slot_rates,
    slot_sinrs,
    validate,
)
from reference import reference_slot_sinrs


def test_single_cell_snr_oracle():
    # p G / N with no interferers: 24 dBm * 1e-8 / (-96 dBm) = 10^4 exactly
    g = toy_gains([[1e-8, 1e-8]], noise_ue_w=dbm_to_w(-96.0))
    dec = make_decision(g, dl=[0])
    assert slot_sinrs(dec, g)[0][0] == pytest.approx(1e4, rel=1e-9)


def test_symmetric_cells_equal_sinr():
    gd = np.array([[1e-8, 1e-11], [1e-11, 1e-8]])
    g = toy_gains(gd)
    dec = make_decision(g, dl=[0, 1])
    s, _ = slot_sinrs(dec, g)
    assert s[0] == pytest.approx(s[1], rel=1e-12)


def test_interference_lowers_sinr():
    gd = np.array([[1e-8, 1e-11], [1e-11, 1e-8]])
    g = toy_gains(gd)
    alone = slot_sinrs(make_decision(g, dl=[0, None]), g)[0][0]
    both = slot_sinrs(make_decision(g, dl=[0, 1]), g)[0][0]
    assert both < alone


def test_uplink_snr_perfect_cancellation():
    g = toy_gains([[1e-8, 1e-8]], gamma=0.0)
    dec = make_decision(g, ul=[1])
    expect = g.p_ue_w * 1e-8 / g.noise_bs_w
    assert slot_sinrs(dec, g)[1][0] == pytest.approx(expect, rel=1e-12)


def test_self_interference_residual_dbm():
    # 24 dBm transmit under 95 dB cancellation leaves -71 dBm at the BS
    g = toy_gains([[1e-8, 1e-8]], gamma=10.0**-9.5)
    dec = make_decision(g, dl=[0], ul=[1])
    _, _, _, den_u = slot_link_terms(dec, g)
    residual = den_u[0] - g.noise_bs_w
    assert residual == pytest.approx(dbm_to_w(24.0 - 95.0), rel=1e-12)


def test_fd_pair_couplings():
    # uplink UE interferes with the downlink UE through the UE-UE gain
    g_ue = np.array([[0.0, 1e-9], [1e-9, 0.0]])
    g = toy_gains([[1e-8, 1e-8]], g_ue=g_ue, gamma=0.0)
    fd = make_decision(g, dl=[0], ul=[1])
    alone = make_decision(g, dl=[0])
    assert slot_sinrs(fd, g)[0][0] < slot_sinrs(alone, g)[0][0]


def test_fd_ue_self_interference():
    # same UE in both directions: its own transmission leaks into its receiver
    g = toy_gains([[1e-8, 1e-8]], gamma=10.0**-9.5)
    dec = make_decision(g, dl=[0], ul=[0], fd_ue=True)
    _, den_d, _, _ = slot_link_terms(dec, g)
    assert den_d[0] == pytest.approx(g.noise_ue_w + g.p_ue_w * g.gamma, rel=1e-12)


def test_rate_window():
    assert rate_from_sinr(63.0, 10e6) == pytest.approx(60e6, rel=1e-12)
    assert rate_from_sinr(1e9, 10e6) == 60e6          # capped at 6 b/s/Hz
    assert rate_from_sinr(0.15, 10e6) == 0.0          # se 0.2016 < 0.26, outage
    edge = 2.0**MIN_SE - 1.0
    assert rate_from_sinr(edge * (1 + 1e-9), 10e6) == pytest.approx(MIN_SE * 10e6, rel=1e-6)
    assert rate_from_sinr(edge * 0.999, 10e6) == 0.0
    s = np.geomspace(1e-3, 1e8, 300)
    r = rate_from_sinr(s, 10e6)
    assert np.all(np.diff(r) >= 0)
    assert r.max() <= 60e6


def test_zero_power_assigned_link():
    g = toy_gains([[1e-8, 1e-8]])
    dec = make_decision(g, ul=[1], p_ul=0.0)
    assert slot_sinrs(dec, g)[1][0] == 0.0
    _, ru = slot_rates(dec, g)
    assert ru[0] == 0.0
    # an unassigned link reads zero SINR
    assert slot_sinrs(make_decision(g), g)[1][0] == 0.0
    # an inactive link has no signal and only its receiver's noise, also
    # at a BS that transmits and so hears its own residual
    sig_d, den_d, sig_u, _ = slot_link_terms(dec, g)
    assert sig_u[0] == 0.0
    assert sig_d[0] == 0.0 and den_d[0] == g.noise_ue_w
    g_si = toy_gains([[1e-8, 1e-8]], gamma=10.0**-9.5)
    _, _, sig_u, den_u = slot_link_terms(make_decision(g_si, dl=[0]), g_si)
    assert sig_u[0] == 0.0 and den_u[0] == g_si.noise_bs_w


def test_validate_rejects_bad_decisions():
    g = toy_gains([[1e-8, 1e-8]])
    ok = make_decision(g, dl=[0], ul=[1])
    validate(ok, g)
    # an FD-capable UE may take both directions of its cell
    validate(make_decision(g, dl=[0], ul=[0], fd_ue=True), g)

    def rejects(dec, gains, message):
        with pytest.raises(AssertionError, match=f"^{message}$"):
            validate(dec, gains)

    rejects(make_decision(g, dl=[0], ul=[0]), g, "half-duplex UE scheduled in both directions")

    ghost_power = make_decision(g)
    ghost_power.p_dl[0] = 0.1
    rejects(ghost_power, g, "power on an unassigned link")
    ghost_power = make_decision(g, dl=[0])
    ghost_power.p_ul[0] = 0.1
    rejects(ghost_power, g, "power on an unassigned link")

    rejects(make_decision(g, dl=[0], p_dl=-1e-3), g, "downlink power out of bounds")
    rejects(make_decision(g, dl=[0], p_dl=g.p_bs_w * 2.0), g, "downlink power out of bounds")
    rejects(make_decision(g, ul=[1], p_ul=-1e-3), g, "uplink power out of bounds")
    rejects(make_decision(g, ul=[1], p_ul=g.p_ue_w * 2.0), g, "uplink power out of bounds")

    g2 = toy_gains(np.full((2, 4), 1e-9))
    rejects(make_decision(g2, dl=[2, None]), g2, "downlink UE served by a foreign cell")
    rejects(make_decision(g2, ul=[None, 1]), g2, "uplink UE served by a foreign cell")
    # a decision that breaks several invariants names the first in check order
    rejects(make_decision(g2, dl=[2, 3], ul=[None, 3]), g2, "half-duplex UE scheduled in both directions")
    rejects(make_decision(g2, dl=[2, None], ul=[1, None]), g2, "downlink UE served by a foreign cell")


def test_slot_rates_equal_per_direction_rate_from_sinr():
    # slot_rates evaluates both directions in one call; element-wise, so
    # the bits equal one rate_from_sinr call per direction
    _, g = indoor_network(seed=2, ues_per_cell=3, cancellation_db=80.0)
    rng = np.random.default_rng(7)
    shared = 0
    for trial in range(40):
        fd_ue = trial % 2 == 1
        dl, ul = [], []
        for ids in g.cell_ue_ids:
            d, u = rng.choice(np.append(ids, NONE), size=2)
            if u == d and not fd_ue:
                u = NONE
            shared += fd_ue and d == u != NONE
            dl.append(d)
            ul.append(u)
        dec = make_decision(g, dl=dl, ul=ul, fd_ue=fd_ue)
        dec.p_dl *= rng.random(g.n_cells)
        dec.p_ul *= rng.random(g.n_cells)
        validate(dec, g)
        sinr_d, sinr_u = slot_sinrs(dec, g)
        rate_d, rate_u = slot_rates(dec, g)
        assert np.array_equal(rate_d, rate_from_sinr(sinr_d, g.bandwidth_hz))
        assert np.array_equal(rate_u, rate_from_sinr(sinr_u, g.bandwidth_hz))
        assert not rate_d[dec.dl_ue < 0].any() and not rate_u[dec.ul_ue < 0].any()
    assert shared > 0


def test_rates_zero_on_idle_cells():
    g = toy_gains(np.full((2, 4), 1e-9))
    dec = make_decision(g, dl=[0, None], ul=[None, 3])
    rd, ru = slot_rates(dec, g)
    assert rd[1] == 0.0 and ru[0] == 0.0
    assert rd[0] > 0.0 and ru[1] > 0.0


@pytest.mark.parametrize("network", [indoor_network, outdoor_network])
@pytest.mark.parametrize("cancellation_db", [75.0, None])
@pytest.mark.parametrize("fd_ue", [False, True])
def test_slot_sinrs_match_block_reference(network, cancellation_db, fd_ue):
    # the tx_rx gather against the per-block formulas, on random partial
    # decisions with random powers, some of them zero; the two sum the
    # same gains in a different order
    _, g = network(seed=3, cancellation_db=cancellation_db)
    rng = np.random.default_rng(11)
    shared = 0
    for _ in range(100):
        dl, ul = [], []
        for ids in g.cell_ue_ids:
            d, u = rng.choice(np.append(ids, [NONE, NONE]), size=2)
            if u == d and not fd_ue:
                u = NONE
            shared += d == u != NONE
            dl.append(d)
            ul.append(u)
        dec = make_decision(g, dl=dl, ul=ul, fd_ue=fd_ue)
        dec.p_dl *= rng.random(g.n_cells) * (rng.random(g.n_cells) > 0.2)
        dec.p_ul *= rng.random(g.n_cells) * (rng.random(g.n_cells) > 0.2)
        validate(dec, g)
        sinr_d, sinr_u = slot_sinrs(dec, g)
        want_d, want_u = reference_slot_sinrs(dec, g)
        np.testing.assert_allclose(sinr_d, want_d, rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(sinr_u, want_u, rtol=1e-8, atol=0.0)
        # inactive and zero-power links read SINR 0
        assert not sinr_d[(dec.dl_ue < 0) | (dec.p_dl == 0)].any()
        assert not sinr_u[(dec.ul_ue < 0) | (dec.p_ul == 0)].any()
    assert (shared > 0) == fd_ue


@pytest.mark.parametrize("network", [indoor_network, outdoor_network])
def test_link_gains_layout(network):
    # the gather equals the np.ix_ gather of the transposed table and
    # comes out C-ordered: an F-ordered matrix changes the last bit of
    # the matrix products that read it
    _, g = network(seed=5, cancellation_db=85.0)
    B, N = g.n_cells, g.n_ues
    rng = np.random.default_rng(13)
    decisions = [
        make_decision(g, dl=g.cell_ue_ids[:, 0]),
        make_decision(g, ul=g.cell_ue_ids[:, 1]),
        make_decision(g),
    ]
    for _ in range(30):
        picks = [rng.choice(np.append(ids, NONE), size=2) for ids in g.cell_ue_ids]
        dl, ul = zip(*picks)
        decisions.append(make_decision(g, dl=dl, ul=ul, fd_ue=True))
    shared = 0
    for dec in decisions:
        cells_dl, cells_ul, gain, noise = link_gains(dec, g)
        np.testing.assert_array_equal(cells_dl, np.nonzero(dec.dl_ue >= 0)[0])
        np.testing.assert_array_equal(cells_ul, np.nonzero(dec.ul_ue >= 0)[0])
        tx = np.concatenate([cells_dl, B + dec.ul_ue[cells_ul]])
        rx = np.concatenate([dec.dl_ue[cells_dl], N + cells_ul])
        assert np.array_equal(gain, g.tx_rx.T[np.ix_(rx, tx)])
        assert gain.flags.c_contiguous
        np.testing.assert_array_equal(noise, g.rx_noise[rx])
        shared += int(((dec.dl_ue == dec.ul_ue) & (dec.dl_ue >= 0)).sum())
    assert shared > 0


def random_links_decision(g, rng, n_links, fd_ue):
    """Decision with n_links of its 2B links active, at random cells and
    UEs, with random powers of which about one in five is zero. With
    fd_ue, a cell's uplink takes its downlink UE half of the time."""
    B = g.n_cells
    dl, ul = [None] * B, [None] * B
    for s in np.sort(rng.choice(2 * B, size=n_links, replace=False)):
        ids = g.cell_ue_ids[s % B]
        if s < B:
            dl[s] = rng.choice(ids)
            continue
        c = s - B
        if fd_ue and dl[c] is not None and rng.random() < 0.5:
            ul[c] = dl[c]
        else:
            ul[c] = rng.choice(ids[ids != dl[c]])
    dec = make_decision(g, dl=dl, ul=ul, fd_ue=fd_ue)
    dec.p_dl *= rng.random(B) * (rng.random(B) > 0.2)
    dec.p_ul *= rng.random(B) * (rng.random(B) > 0.2)
    validate(dec, g)
    return dec


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("network", [indoor_network, outdoor_network])
@pytest.mark.parametrize("fd_ue", [False, True])
@pytest.mark.parametrize("links", ["ragged", "one group", "all idle"])
def test_lockstep_link_terms_equal_one_drop_terms(network, fd_ue, links):
    # drops of one lockstep decision are grouped by their number of
    # active links; each group is one stacked gather and product. Every
    # drop's terms and rates must be bit for bit those of its own call,
    # and its denominators the one-drop matrix-vector product over
    # link_gains
    tables = [network(seed=seed, cancellation_db=85.0)[1] for seed in range(6)]
    g = GainStack(tables)
    B = g.n_cells
    rng = np.random.default_rng(19)
    shared = 0
    for _ in range(5):
        if links == "ragged":
            counts = [0, 1, 2 * B, *rng.integers(0, 2 * B + 1, size=3)]
        elif links == "one group":
            counts = [int(rng.integers(1, 2 * B + 1))] * len(tables)
        else:
            counts = [0] * len(tables)
        dec = SlotDecision.stack(
            [random_links_decision(t, rng, k, fd_ue) for t, k in zip(tables, counts)]
        )
        shared += int(((dec.dl_ue == dec.ul_ue) & (dec.dl_ue >= 0)).sum())
        terms = slot_link_terms(dec, g)
        rates = slot_rates(dec, g)
        assert all(a.shape == (len(tables), B) for a in (*terms, *rates))
        for d, t in enumerate(tables):
            one = dec[d]
            for lock, alone in zip((*terms, *rates), (*slot_link_terms(one, t), *slot_rates(one, t))):
                assert same_bits(lock[d], alone)
            cells_dl, cells_ul, gain, noise = link_gains(one, t)
            links_on = np.concatenate([cells_dl, B + cells_ul])
            assert len(links_on) == counts[d]
            p = np.concatenate([one.p_dl[cells_dl], one.p_ul[cells_ul]])
            own = gain.diagonal() * p
            sig = np.concatenate([terms[0][d], terms[2][d]])
            den = np.concatenate([terms[1][d], terms[3][d]])
            assert same_bits(sig[links_on], own)
            assert same_bits(den[links_on], noise + gain @ p - own)
            idle = np.setdiff1d(np.arange(2 * B), links_on)
            assert not sig[idle].any()
            assert np.array_equal(den[idle], np.where(idle < B, t.noise_ue_w, t.noise_bs_w))
    assert (shared > 0) == (fd_ue and links != "all idle")


def test_reference_imports_only_posynomial_types():
    # the oracles rebuild what they check from the inputs; an import of
    # the simulator's own evaluation path would make them agree with it
    # by construction
    imported = set()
    for node in ast.walk(ast.parse(Path(reference.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "", alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
    from_fdcell = {(m, name) for m, name in imported if m.split(".")[0] == "fdcell"}
    assert from_fdcell <= {("fdcell.gp_core", "Monomial"), ("fdcell.gp_core", "Posynomial")}
