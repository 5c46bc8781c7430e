"""Proportional-fair tracking and greedy hybrid UE selection.

Each cell-slot decision is scored by its marginal contribution to the
sum of log average rates: chi = log10(beta*avg + (1-beta)*rate) -
log10(beta*avg). The greedy selector walks the cells in a fresh random
order, first giving every cell its best single direction, then trying
to add the opposite direction wherever the extra link still pays after
the interference it inflicts on everything already scheduled. A pure
half-duplex variant runs only the first pass with the direction forced,
and round-robin baselines ignore utilities altogether.

One slot state (_SlotState) lives through a whole selection. It holds
the noise plus interference at every receiver, each UE and each BS (a
BS's own residual gamma*p_dl included), and every active link's signal,
denominator and chi. A scan scores all of one cell's candidates at
once: it reads their denominators from the receiver vector and adds
each candidate's gains to the active links' denominators, then
evaluates the candidates' own chi and the active links' new chi in one
call. Accepting a candidate adds its transmitter's gain row to the
receiver vector (a rank-1 update) and keeps the scan's link terms, so
no slot-wide SINR evaluation runs during a selection.

get_utility is the reference evaluator for one candidate: it evaluates
the whole slot anew on every call. The scans are numerically
equivalent to it (modulo summation order), which
test_scan_matches_get_utility in tests/test_scheduler.py checks on
multi-cell networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GainTable
from .sinr_rate import MIN_SE, NONE, SlotDecision, rate_from_sinr, slot_rates
# unused here, but the benchmark tracer patches this name in this module
from .sinr_rate import slot_link_terms  # noqa: F401

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


@dataclass
class Selection:
    decision: SlotDecision
    du_dl: np.ndarray    # accepted utility gain per cell, nan where idle
    du_ul: np.ndarray


@dataclass
class _Scan:
    """One cell's candidates in one direction, as _SlotState.scan left them.

    du is each candidate's net utility change, num, den and gain its
    link's signal, denominator and chi (den is shared by the uplink
    candidates). den1 and chi1 are the active links' new denominators
    and chi: shared by the downlink candidates, one row per uplink one.
    Only ks is set when no candidate is eligible.
    """

    cell: int
    direction: str
    ks: np.ndarray
    du: np.ndarray = None
    num: np.ndarray = None
    den: np.ndarray = None
    gain: np.ndarray = None
    den1: np.ndarray = None
    chi1: np.ndarray = None

    def best(self):
        """(du, position) of the first best candidate; (-inf, NONE) if none."""
        if len(self.ks) == 0:
            return -np.inf, NONE
        i = int(self.du.argmax())
        return float(self.du[i]), i


class _SlotState:
    """What a partial slot assignment puts at every receiver and link.

    Receivers are the N UEs, then the B BSs (BS b at N + b). tx_bs[b]
    and tx_ue[u] hold the gains from BS b and from UE u to every
    receiver; a BS hears the residual gamma from its own downlink, and
    with fd_ue so does a UE from its own uplink. rx_den is the noise
    plus everything the scheduled transmitters put at each receiver.
    Each active link keeps its receiver, signal, denominator, chi and PF
    average, downlinks by cell and then uplinks by cell.
    """

    def __init__(self, g: GainTable, powers, st: PFState, fd_ue: bool):
        self.g, self.powers, self.st, self.fd_ue = g, powers, st, fd_ue
        self.p_dl_w, self.p_ul_w = powers
        B, N = g.n_cells, g.n_ues
        self.R = np.full(B, NONE, dtype=int)
        self.Q = np.full(B, NONE, dtype=int)
        self.du_dl = np.full(B, np.nan)
        self.du_ul = np.full(B, np.nan)
        self.tx_bs = np.hstack([g.g_dl, g.g_bs])
        np.fill_diagonal(self.tx_bs[:, N:], g.gamma)
        self.tx_ue = np.hstack([g.g_ue, g.g_dl.T])
        if fd_ue:
            np.fill_diagonal(self.tx_ue[:, :N], g.gamma)
        self.rx_den = np.concatenate([np.full(N, g.noise_ue_w), np.full(B, g.noise_bs_w)])
        # link slot b is cell b's downlink, B + b its uplink
        self.on = np.zeros(2 * B, dtype=bool)
        self.slot_rx = np.zeros(2 * B, dtype=int)
        self.slot_terms = np.zeros((4, 2 * B))     # signal, denominator, chi, PF average
        self._gather()

    def _gather(self):
        """Pick the active links' terms out of the link slots."""
        self.act = self.on.nonzero()[0]
        self.nd = int(self.act.searchsorted(self.g.n_cells))   # active downlinks
        self.rx = self.slot_rx[self.act]
        self.sig, self.den, self.chi0, self.avg = self.slot_terms[:, self.act]

    def eligible(self, c: int, direction: str) -> np.ndarray:
        ids = self.g.cell_ue_ids[c]
        other = self.Q[c] if direction == DL else self.R[c]
        if other >= 0 and not self.fd_ue:
            return ids[ids != other]
        return ids

    def scan(self, c: int, direction: str) -> _Scan:
        """Utility change of adding each eligible candidate at cell c."""
        g, st = self.g, self.st
        W, b, nd = g.bandwidth_hz, st.beta, self.nd
        ks = self.eligible(c, direction)
        K = len(ks)
        if K == 0:
            return _Scan(c, direction, ks)
        if direction == DL:
            num = self.p_dl_w * g.g_dl[c, ks]
            den = self.rx_den[ks]
            # the inflicted interference is candidate-independent
            den1 = self.den + self.p_dl_w * self.tx_bs[c, self.rx]
            sinr = np.concatenate([num / den, self.sig / den1])
            chi1 = chi(np.concatenate([st.avg_dl[ks], self.avg]), rate_from_sinr(sinr, W), b)
            gain, chi1 = chi1[:K], chi1[K:]
            loss = float((self.chi0[:nd] - chi1[:nd]).sum() + (self.chi0[nd:] - chi1[nd:]).sum())
            return _Scan(c, DL, ks, gain - loss, num, den, gain, den1, chi1)

        num = self.p_ul_w * g.g_dl[c, ks]
        den = self.rx_den[g.n_ues + c]
        # interference into every active link's receiver, per candidate
        den1 = self.den + self.p_ul_w * self.tx_ue[ks[:, None], self.rx]      # (K, J)
        sinr = np.concatenate([(num / den)[:, None], self.sig / den1], axis=1)
        avg = np.empty_like(sinr)
        avg[:, 0] = st.avg_ul[ks]
        avg[:, 1:] = self.avg
        chi1 = chi(avg, rate_from_sinr(sinr, W), b)
        gain, chi1 = chi1[:, 0], chi1[:, 1:]
        loss = (self.chi0[:nd] - chi1[:, :nd]).sum(axis=1) + (
            self.chi0[nd:] - chi1[:, nd:]
        ).sum(axis=1)
        return _Scan(c, UL, ks, gain - loss, num, den, gain, den1, chi1)

    def accept(self, scan: _Scan, i: int) -> None:
        """Schedule candidate i of a scan and carry its terms into the state."""
        c, k = scan.cell, int(scan.ks[i])
        N, B = self.g.n_ues, self.g.n_cells
        if scan.direction == DL:
            self.R[c] = k
            self.du_dl[c] = scan.du[i]
            slot, rx, avg, den = c, k, self.st.avg_dl[k], scan.den[i]
            den1, chi1 = scan.den1, scan.chi1
            self.rx_den += self.p_dl_w * self.tx_bs[c]
        else:
            self.Q[c] = k
            self.du_ul[c] = scan.du[i]
            slot, rx, avg, den = B + c, N + c, self.st.avg_ul[k], scan.den
            den1, chi1 = scan.den1[i], scan.chi1[i]
            self.rx_den += self.p_ul_w * self.tx_ue[k]
        self.slot_terms[1, self.act] = den1
        self.slot_terms[2, self.act] = chi1
        self.slot_terms[:, slot] = scan.num[i], den, scan.gain[i], avg
        self.slot_rx[slot] = rx
        self.on[slot] = True
        self._gather()

    def selection(self) -> Selection:
        dec = _base_decision(self.Q, self.R, self.g, self.powers, self.fd_ue)
        return Selection(dec, self.du_dl, self.du_ul)


def select_ues(st: PFState, g: GainTable, P_init, rng: np.random.Generator, fd_ue=False) -> Selection:
    """Two-pass greedy hybrid selection over a fresh random cell order.

    Pass 1 gives each cell its better single direction if it helps; pass
    2 upgrades cells to full duplex where the opposite link still adds
    net utility. P_init is (downlink watts, uplink watts) applied to
    every candidate during evaluation.
    """
    order = rng.permutation(g.n_cells)
    state = _SlotState(g, P_init, st, fd_ue)

    for c in order:
        scan_d = state.scan(c, DL)
        scan_u = state.scan(c, UL)
        du_d, i_d = scan_d.best()
        du_u, i_u = scan_u.best()
        if max(du_d, du_u) > 0.0:
            if du_d >= du_u:                     # tie prefers downlink
                state.accept(scan_d, i_d)
            else:
                state.accept(scan_u, i_u)

    for c in order:
        has_dl = state.R[c] >= 0
        if has_dl == (state.Q[c] >= 0):
            continue
        scan = state.scan(c, UL if has_dl else DL)
        du, i = scan.best()
        if du > 0.0:
            state.accept(scan, i)

    return state.selection()


def hd_select_ues(st: PFState, g: GainTable, P_init, direction: str, rng: np.random.Generator) -> Selection:
    """Single-direction greedy pass with all cells synchronized."""
    order = rng.permutation(g.n_cells)
    state = _SlotState(g, P_init, st, False)
    for c in order:
        scan = state.scan(c, direction)
        du, i = scan.best()
        if du > 0.0:
            state.accept(scan, i)
    return state.selection()


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
