"""Proportional-fair tracking and greedy hybrid UE selection.

Each cell-slot decision is scored by its marginal contribution to the
sum of log average rates: chi = log10(beta*avg + (1-beta)*rate) -
log10(beta*avg). The greedy selector walks the cells in a fresh random
order, first giving every cell its best single direction, then trying
to add the opposite direction wherever the extra link still pays after
the interference it inflicts on everything already scheduled. A pure
half-duplex variant runs only the first pass with the direction forced,
and round-robin baselines ignore utilities altogether.

get_utility is the reference evaluator for one candidate; the selector
runs a vectorized scan over whole candidate sets that is numerically
equivalent (modulo summation order) and property-tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GainTable
from .sinr_rate import MIN_SE, NONE, SlotDecision, rate_from_sinr, slot_link_terms, slot_rates

DL = "DL"
UL = "UL"

BETA_DEFAULT = 0.99


@dataclass
class PFState:
    avg_dl: np.ndarray        # (N,) EWMA of delivered downlink rate, bits/s
    avg_ul: np.ndarray
    beta: float = BETA_DEFAULT


def init_state(n_ues: int, bandwidth_hz: float, beta: float = BETA_DEFAULT) -> PFState:
    """Averages start at the minimum schedulable rate so weights are finite."""
    r0 = bandwidth_hz * MIN_SE
    return PFState(np.full(n_ues, r0), np.full(n_ues, r0), beta)


def update_state(st: PFState, dec: SlotDecision, rate_dl, rate_ul) -> PFState:
    """EWMA update: scheduled links blend in their rate, the rest decay."""
    b = st.beta
    st.avg_dl *= b
    st.avg_ul *= b
    on = dec.dl_ue >= 0
    st.avg_dl[dec.dl_ue[on]] += (1.0 - b) * np.asarray(rate_dl)[on]
    on = dec.ul_ue >= 0
    st.avg_ul[dec.ul_ue[on]] += (1.0 - b) * np.asarray(rate_ul)[on]
    return st


def chi(avg, rate, beta):
    """Marginal PF utility of delivering `rate` to a link averaging `avg`."""
    return np.log1p((1.0 - beta) * np.asarray(rate) / (beta * np.asarray(avg))) / np.log(10.0)


def _base_decision(Q, R, g: GainTable, powers, fd_ue: bool) -> SlotDecision:
    p_dl_w, p_ul_w = powers
    R = np.asarray(R)
    Q = np.asarray(Q)
    return SlotDecision(
        dl_ue=R.copy(),
        ul_ue=Q.copy(),
        p_dl=np.where(R >= 0, p_dl_w, 0.0),
        p_ul=np.where(Q >= 0, p_ul_w, 0.0),
        fd_ue=fd_ue,
    )


def _assigned_chi(dec: SlotDecision, g: GainTable, st: PFState):
    """Rates and chi of every currently assigned link (zeros elsewhere)."""
    rate_dl, rate_ul = slot_rates(dec, g)
    c_dl = np.zeros(g.n_cells)
    c_ul = np.zeros(g.n_cells)
    on = dec.dl_ue >= 0
    c_dl[on] = chi(st.avg_dl[dec.dl_ue[on]], rate_dl[on], st.beta)
    on = dec.ul_ue >= 0
    c_ul[on] = chi(st.avg_ul[dec.ul_ue[on]], rate_ul[on], st.beta)
    return rate_dl, rate_ul, c_dl, c_ul


def get_utility(c, d, u, Q, R, g: GainTable, powers, st: PFState, fd_ue=False, before=None):
    """Net utility change of adding one candidate link to a partial slot.

    Exactly one of d (downlink UE) / u (uplink UE) must be a valid UE id;
    Q and R are the uplink/downlink partial assignment vectors. Returns
    the candidate's own marginal utility minus the utility everyone
    already scheduled loses to the candidate's interference.
    """
    d = NONE if d is None else d
    u = NONE if u is None else u
    if (d >= 0) == (u >= 0):
        raise ValueError("exactly one of d, u must be a candidate UE")
    base = _base_decision(Q, R, g, powers, fd_ue)
    cand = d if d >= 0 else u
    if g.ue_cell[cand] != c:
        raise ValueError(f"candidate UE {cand} does not belong to cell {c}")
    if (d >= 0 and R[c] >= 0) or (u >= 0 and Q[c] >= 0):
        raise ValueError("candidate direction already assigned in this cell")
    assigned = np.concatenate([np.asarray(R)[np.asarray(R) >= 0], np.asarray(Q)[np.asarray(Q) >= 0]])
    if cand in assigned:
        if not (fd_ue and ((d >= 0 and Q[c] == cand) or (u >= 0 and R[c] == cand))):
            raise ValueError(f"UE {cand} is already scheduled this slot")

    if before is None:
        _, _, c_dl0, c_ul0 = _assigned_chi(base, g, st)
    else:
        c_dl0, c_ul0 = before

    trial = base
    p_dl_w, p_ul_w = powers
    if d >= 0:
        trial.dl_ue[c] = d
        trial.p_dl[c] = p_dl_w
    else:
        trial.ul_ue[c] = u
        trial.p_ul[c] = p_ul_w
    rate_dl, rate_ul, c_dl1, c_ul1 = _assigned_chi(trial, g, st)

    if d >= 0:
        gain = float(chi(st.avg_dl[d], rate_dl[c], st.beta))
        c_dl1[c] = c_dl0[c]      # candidate's own link is not a loss term
    else:
        gain = float(chi(st.avg_ul[u], rate_ul[c], st.beta))
        c_ul1[c] = c_ul0[c]
    loss = float(np.sum(np.abs(c_dl0 - c_dl1)) + np.sum(np.abs(c_ul0 - c_ul1)))
    return gain - loss


class _ScanContext:
    """Shared per-assignment-state quantities for the candidate scans."""

    def __init__(self, Q, R, g: GainTable, powers, st: PFState, fd_ue: bool):
        self.Q, self.R, self.g, self.st, self.fd_ue = Q, R, g, st, fd_ue
        self.p_dl_w, self.p_ul_w = powers
        base = _base_decision(Q, R, g, powers, fd_ue)
        self.sig_d, self.den_d, self.sig_u, self.den_u = slot_link_terms(base, g)
        self.act_dl = np.where(R >= 0)[0]
        self.act_ul = np.where(Q >= 0)[0]
        self.r_dl = R[self.act_dl]           # receiver UEs of active DL links
        self.u_ul = Q[self.act_ul]           # transmitter UEs of active UL links
        W = g.bandwidth_hz
        b = st.beta
        rate0_d = rate_from_sinr(self.sig_d[self.act_dl] / self.den_d[self.act_dl], W)
        rate0_u = rate_from_sinr(self.sig_u[self.act_ul] / self.den_u[self.act_ul], W)
        self.chi0_dl = chi(st.avg_dl[self.r_dl], rate0_d, b)
        self.chi0_ul = chi(st.avg_ul[self.u_ul], rate0_u, b)

    def eligible(self, c: int, direction: str) -> np.ndarray:
        ids = self.g.cell_ue_ids[c]
        other = self.Q[c] if direction == DL else self.R[c]
        if other >= 0 and not self.fd_ue:
            return ids[ids != other]
        return ids

    def scan(self, c: int, direction: str):
        """Utility change of every eligible candidate; (du, ue_ids)."""
        g, st = self.g, self.st
        W, b = g.bandwidth_hz, st.beta
        ks = self.eligible(c, direction)
        if len(ks) == 0:
            return np.empty(0), ks
        if direction == DL:
            num = self.p_dl_w * g.g_dl[c, ks]
            den = (
                g.noise_ue_w
                + self.p_dl_w * g.g_dl[self.act_dl][:, ks].sum(axis=0)
                + self.p_ul_w * g.g_ue[self.u_ul][:, ks].sum(axis=0)
            )
            if self.fd_ue and self.Q[c] >= 0:
                den = den + np.where(ks == self.Q[c], self.p_ul_w * g.gamma, 0.0)
            gain = chi(st.avg_dl[ks], rate_from_sinr(num / den, W), b)
            # the inflicted interference is candidate-independent
            den_d1 = self.den_d[self.act_dl] + self.p_dl_w * g.g_dl[c, self.r_dl]
            into_ul = np.where(self.act_ul == c, g.gamma, g.g_bs[c, self.act_ul])
            den_u1 = self.den_u[self.act_ul] + self.p_dl_w * into_ul
            chi1_dl = chi(st.avg_dl[self.r_dl], rate_from_sinr(self.sig_d[self.act_dl] / den_d1, W), b)
            chi1_ul = chi(st.avg_ul[self.u_ul], rate_from_sinr(self.sig_u[self.act_ul] / den_u1, W), b)
            loss = float(np.sum(self.chi0_dl - chi1_dl) + np.sum(self.chi0_ul - chi1_ul))
            return gain - loss, ks

        num = self.p_ul_w * g.g_dl[c, ks]
        den = (
            g.noise_bs_w
            + (self.p_dl_w * g.gamma if self.R[c] >= 0 else 0.0)
            + self.p_dl_w * g.g_bs[self.act_dl, c].sum()
            + self.p_ul_w * g.g_dl[c, self.u_ul].sum()
        )
        gain = chi(st.avg_ul[ks], rate_from_sinr(num / den, W), b)
        # interference into assigned downlink receivers, per candidate
        into_dl = g.g_ue[ks][:, self.r_dl]                       # (K, Jd)
        if self.fd_ue and self.R[c] >= 0:
            same = (ks[:, None] == self.R[c]) & (self.act_dl[None, :] == c)
            into_dl = np.where(same, g.gamma, into_dl)
        den_d1 = self.den_d[self.act_dl][None, :] + self.p_ul_w * into_dl
        rate1 = rate_from_sinr(self.sig_d[self.act_dl][None, :] / den_d1, W)
        chi1_dl = chi(st.avg_dl[self.r_dl][None, :], rate1, b)
        # interference into assigned uplink receivers (their BSs)
        into_ul = g.g_dl[self.act_ul][:, ks].T                   # (K, Ju)
        den_u1 = self.den_u[self.act_ul][None, :] + self.p_ul_w * into_ul
        rate1 = rate_from_sinr(self.sig_u[self.act_ul][None, :] / den_u1, W)
        chi1_ul = chi(st.avg_ul[self.u_ul][None, :], rate1, b)
        loss = np.sum(self.chi0_dl[None, :] - chi1_dl, axis=1) + np.sum(
            self.chi0_ul[None, :] - chi1_ul, axis=1
        )
        return gain - loss, ks


def _best_of(du: np.ndarray, ks: np.ndarray):
    if len(du) == 0:
        return -np.inf, NONE
    i = int(np.argmax(du))
    return float(du[i]), int(ks[i])


@dataclass
class Selection:
    decision: SlotDecision
    du_dl: np.ndarray    # accepted utility gain per cell, nan where idle
    du_ul: np.ndarray


def select_ues(st: PFState, g: GainTable, P_init, rng: np.random.Generator, fd_ue=False) -> Selection:
    """Two-pass greedy hybrid selection over a fresh random cell order.

    Pass 1 gives each cell its better single direction if it helps; pass
    2 upgrades cells to full duplex where the opposite link still adds
    net utility. P_init is (downlink watts, uplink watts) applied to
    every candidate during evaluation.
    """
    B = g.n_cells
    order = rng.permutation(B)
    R = np.full(B, NONE, dtype=int)
    Q = np.full(B, NONE, dtype=int)
    du_dl = np.full(B, np.nan)
    du_ul = np.full(B, np.nan)

    for c in order:
        ctx = _ScanContext(Q, R, g, P_init, st, fd_ue)
        du_d, ue_d = _best_of(*ctx.scan(c, DL))
        du_u, ue_u = _best_of(*ctx.scan(c, UL))
        if max(du_d, du_u) > 0.0:
            if du_d >= du_u:                     # tie prefers downlink
                R[c] = ue_d
                du_dl[c] = du_d
            else:
                Q[c] = ue_u
                du_ul[c] = du_u

    for c in order:
        has_dl = R[c] >= 0
        has_ul = Q[c] >= 0
        if has_dl == has_ul:
            continue
        ctx = _ScanContext(Q, R, g, P_init, st, fd_ue)
        direction = UL if has_dl else DL
        du, ue = _best_of(*ctx.scan(c, direction))
        if du > 0.0:
            if direction == UL:
                Q[c] = ue
                du_ul[c] = du
            else:
                R[c] = ue
                du_dl[c] = du

    return Selection(_base_decision(Q, R, g, P_init, fd_ue), du_dl, du_ul)


def hd_select_ues(st: PFState, g: GainTable, P_init, direction: str, rng: np.random.Generator) -> Selection:
    """Single-direction greedy pass with all cells synchronized."""
    B = g.n_cells
    order = rng.permutation(B)
    R = np.full(B, NONE, dtype=int)
    Q = np.full(B, NONE, dtype=int)
    du_dl = np.full(B, np.nan)
    du_ul = np.full(B, np.nan)
    for c in order:
        ctx = _ScanContext(Q, R, g, P_init, st, False)
        du, ue = _best_of(*ctx.scan(c, direction))
        if du > 0.0:
            if direction == DL:
                R[c] = ue
                du_dl[c] = du
            else:
                Q[c] = ue
                du_ul[c] = du
    return Selection(_base_decision(Q, R, g, P_init, False), du_dl, du_ul)


@dataclass
class RoundRobinState:
    cursor_dl: np.ndarray     # (B,) next position in each cell's UE list
    cursor_ul: np.ndarray

    @classmethod
    def fresh(cls, n_cells: int) -> "RoundRobinState":
        return cls(np.zeros(n_cells, dtype=int), np.zeros(n_cells, dtype=int))


def round_robin_select(
    rr: RoundRobinState,
    mode: str,
    direction: str,
    g: GainTable,
    P_init,
    rng: np.random.Generator,
) -> SlotDecision:
    """Cursor-based selection; mode FD adds a random opposite partner.

    The cursor pick matches what the HD round robin would schedule in
    the same slot, so FD/HD round-robin runs stay UE-aligned.
    """
    B = g.n_cells
    R = np.full(B, NONE, dtype=int)
    Q = np.full(B, NONE, dtype=int)
    for c in range(B):
        ids = g.cell_ue_ids[c]
        if direction == DL:
            pick = int(ids[rr.cursor_dl[c] % len(ids)])
            rr.cursor_dl[c] += 1
            R[c] = pick
        else:
            pick = int(ids[rr.cursor_ul[c] % len(ids)])
            rr.cursor_ul[c] += 1
            Q[c] = pick
        if mode == "FD":
            others = ids[ids != pick]
            if len(others):
                partner = int(rng.choice(others))
                if direction == DL:
                    Q[c] = partner
                else:
                    R[c] = partner
    return _base_decision(Q, R, g, P_init, False)
