"""Shared fixtures and hand-built network helpers."""

import numpy as np
import pytest

from fdcell.channel import (
    GainTable,
    build_gains,
    dbm_to_w,
    indoor_params,
    noise_power_w,
    outdoor_params,
)
from fdcell.scheduler import chi
from fdcell.sinr_rate import NONE, SlotDecision, slot_rates
from fdcell.topology import IndoorConfig, OutdoorConfig, build_indoor, build_outdoor


def toy_gains(
    g_dl,
    g_bs=None,
    g_ue=None,
    ue_cell=None,
    gamma=0.0,
    bandwidth_hz=10e6,
    bs_power_dbm=24.0,
    ue_power_dbm=23.0,
    noise_bs_w=None,
    noise_ue_w=None,
    dist_m=None,
):
    """GainTable with explicit gains; defaults mimic the indoor radio."""
    g_dl = np.atleast_2d(np.asarray(g_dl, dtype=float))
    B, N = g_dl.shape
    if ue_cell is None:
        ue_cell = np.repeat(np.arange(B), N // B)
    ue_cell = np.asarray(ue_cell, dtype=int)
    cell_ue_ids = [np.where(ue_cell == b)[0] for b in range(B)]
    return GainTable(
        g_dl=g_dl,
        g_bs=np.zeros((B, B)) if g_bs is None else np.asarray(g_bs, dtype=float),
        g_ue=np.zeros((N, N)) if g_ue is None else np.asarray(g_ue, dtype=float),
        dist_bs_ue_m=np.full((B, N), 20.0) if dist_m is None else np.asarray(dist_m, dtype=float),
        ue_cell=ue_cell,
        cell_ue_ids=cell_ue_ids,
        noise_bs_w=noise_power_w(bandwidth_hz, 8.0) if noise_bs_w is None else noise_bs_w,
        noise_ue_w=noise_power_w(bandwidth_hz, 9.0) if noise_ue_w is None else noise_ue_w,
        p_bs_w=dbm_to_w(bs_power_dbm),
        p_ue_w=dbm_to_w(ue_power_dbm),
        bandwidth_hz=bandwidth_hz,
        gamma=gamma,
    )


def indoor_network(seed=0, ues_per_cell=8, cancellation_db=None, rooms_per_side=3):
    rng = np.random.default_rng(seed)
    topo = build_indoor(
        IndoorConfig(ues_per_cell=ues_per_cell, rooms_per_side=rooms_per_side), rng
    )
    g = build_gains(topo, indoor_params(), rng).with_cancellation(cancellation_db)
    return topo, g


def outdoor_network(seed=0, cancellation_db=None):
    rng = np.random.default_rng(seed)
    topo = build_outdoor(OutdoorConfig(), rng)
    g = build_gains(topo, outdoor_params(), rng).with_cancellation(cancellation_db)
    return topo, g


def make_decision(g, dl=None, ul=None, p_dl=None, p_ul=None, fd_ue=False):
    """SlotDecision from per-cell UE id lists (None entries mean idle)."""
    B = g.n_cells
    dl = [NONE] * B if dl is None else [NONE if x is None else x for x in dl]
    ul = [NONE] * B if ul is None else [NONE if x is None else x for x in ul]
    dl = np.asarray(dl, dtype=int)
    ul = np.asarray(ul, dtype=int)
    pd = np.where(dl >= 0, g.p_bs_w if p_dl is None else p_dl, 0.0)
    pu = np.where(ul >= 0, g.p_ue_w if p_ul is None else p_ul, 0.0)
    return SlotDecision(dl_ue=dl, ul_ue=ul, p_dl=pd.astype(float), p_ul=pu.astype(float), fd_ue=fd_ue)


def total_slot_utility(dec, g, st):
    """Sum of marginal PF utilities over the assigned links."""
    rate_dl, rate_ul = slot_rates(dec, g)
    u = 0.0
    on = dec.dl_ue >= 0
    u += float(np.sum(chi(st.avg_dl[dec.dl_ue[on]], rate_dl[on], st.beta)))
    on = dec.ul_ue >= 0
    u += float(np.sum(chi(st.avg_ul[dec.ul_ue[on]], rate_ul[on], st.beta)))
    return u


def random_power_instance(rng, n_cells=None):
    """Random coupled multi-cell power problem: (state, selection, gains).

    Two UEs per cell, log-uniform serving and cross gains, residual
    self-interference at 95 dB, at least one active link guaranteed.
    """
    from fdcell.scheduler import PFState, Selection

    B = int(rng.integers(2, 5)) if n_cells is None else n_cells
    N = 2 * B
    g_dl = 10 ** rng.uniform(-13.0, -10.0, size=(B, N))
    for b in range(B):
        g_dl[b, 2 * b : 2 * b + 2] = 10 ** rng.uniform(-9.0, -6.0, size=2)
    m = 10 ** rng.uniform(-12.0, -9.0, size=(B, B))
    g_bs = (m + m.T) / 2.0
    np.fill_diagonal(g_bs, 0.0)
    m = 10 ** rng.uniform(-14.0, -11.0, size=(N, N))
    g_ue = (m + m.T) / 2.0
    np.fill_diagonal(g_ue, 0.0)
    g = toy_gains(
        g_dl,
        g_bs=g_bs,
        g_ue=g_ue,
        gamma=10.0 ** -9.5,
        dist_m=rng.uniform(3.0, 40.0, size=(B, N)),
    )
    st = PFState(
        10 ** rng.uniform(6.5, 7.5, size=N), 10 ** rng.uniform(6.5, 7.5, size=N), 0.99
    )
    dl = [None] * B
    ul = [None] * B
    for b in range(B):
        first, second = (2 * b, 2 * b + 1) if rng.random() < 0.5 else (2 * b + 1, 2 * b)
        mode = rng.integers(0, 4)
        if mode == 0:
            dl[b], ul[b] = first, second
        elif mode == 1:
            dl[b] = first
        elif mode == 2:
            ul[b] = first
    if all(x is None for x in dl) and all(x is None for x in ul):
        dl[0], ul[0] = 0, 1
    dec = make_decision(g, dl=dl, ul=ul)
    # two discarded draws keep the stream the criteria 3 and 5 fixtures consume
    rng.uniform(0.0, 0.1, size=B)
    rng.uniform(0.0, 0.1, size=B)
    return st, Selection(dec), g


def cell_options(ids, allow_fd=True):
    """All feasible (dl_ue, ul_ue) assignments for one cell."""
    ids = list(ids)
    opts = [(NONE, NONE)]
    opts += [(d, NONE) for d in ids]
    opts += [(NONE, u) for u in ids]
    if allow_fd:
        opts += [(d, u) for d in ids for u in ids if u != d]
    return opts


def check_derivatives(f, y, h=1e-5, rtol=1e-6, atol=1e-7):
    """Gradient and Hessian of a (value, gradient, hessian) objective
    against central differences; returns the value at y.
    """
    val, grad, hess = f(y)
    H = hess()
    n = len(y)
    fd_grad = np.zeros(n)
    fd_hess = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fd_grad[i] = (f(y + e)[0] - f(y - e)[0]) / (2 * h)
        fd_hess[:, i] = (f(y + e)[1] - f(y - e)[1]) / (2 * h)
    np.testing.assert_allclose(grad, fd_grad, rtol=rtol, atol=atol)
    np.testing.assert_allclose(H, fd_hess, rtol=rtol, atol=atol)
    np.testing.assert_allclose(H, H.T, rtol=1e-12, atol=1e-12)
    return val


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
