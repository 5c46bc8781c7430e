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
BS's own residual gamma*p_dl included), every active link's signal,
denominator and chi, and the PF averages scaled by beta once per slot.
A scan scores all of one cell's candidates at once: it reads their
denominators from the receiver vector and adds each candidate's gains
to the active links' denominators, then evaluates the candidates' own
chi and the active links' new chi in one call. Pass 1 scores both
directions of a cell in one such call (scan_cell). Accepting a
candidate adds its transmitter's gain row to the receiver vector (a
rank-1 update) and keeps the scan's link terms, so no slot-wide SINR
evaluation runs during a selection.

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
LN10 = np.log(10.0)


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
    return _chi_scaled(np.asarray(rate), beta * np.asarray(avg), 1.0 - beta)


def _chi_scaled(rate, b_avg, one_minus_beta):
    """chi with the average already scaled by beta (b_avg = beta * avg)."""
    return np.log1p(one_minus_beta * rate / b_avg) / LN10


def _base_decision(Q, R, powers, fd_ue: bool) -> SlotDecision:
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


def get_utility(c, d, u, Q, R, g: GainTable, powers, st: PFState, fd_ue=False):
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
    base = _base_decision(Q, R, powers, fd_ue)
    cand = d if d >= 0 else u
    if g.ue_cell[cand] != c:
        raise ValueError(f"candidate UE {cand} does not belong to cell {c}")
    if (d >= 0 and R[c] >= 0) or (u >= 0 and Q[c] >= 0):
        raise ValueError("candidate direction already assigned in this cell")
    assigned = np.concatenate([np.asarray(R)[np.asarray(R) >= 0], np.asarray(Q)[np.asarray(Q) >= 0]])
    if cand in assigned:
        if not (fd_ue and ((d >= 0 and Q[c] == cand) or (u >= 0 and R[c] == cand))):
            raise ValueError(f"UE {cand} is already scheduled this slot")

    _, _, c_dl0, c_ul0 = _assigned_chi(base, g, st)

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
    and tx_ue[u] are the rows of g.tx_rx with the gains from BS b and
    from UE u to every receiver. rx_den is the noise plus everything
    the scheduled transmitters put at each receiver.
    Each active link keeps its receiver, signal, denominator, chi and
    PF average, downlinks by cell and then uplinks by cell. The averages
    are fixed through a selection, so b_avg_dl and b_avg_ul scale them
    by beta once per slot for _chi_scaled.
    """

    def __init__(self, g: GainTable, powers, st: PFState, fd_ue: bool):
        self.g, self.powers, self.fd_ue = g, powers, fd_ue
        self.p_dl_w, self.p_ul_w = powers
        B = g.n_cells
        self.R = np.full(B, NONE, dtype=int)
        self.Q = np.full(B, NONE, dtype=int)
        self.tx_bs, self.tx_ue = g.tx_rx[:B], g.tx_rx[B:]
        self.rx_den = g.rx_noise.copy()
        self.b_avg_dl, self.b_avg_ul = st.beta * st.avg_dl, st.beta * st.avg_ul
        self.one_minus_beta = 1.0 - st.beta
        # link slot b is cell b's downlink, B + b its uplink
        self.on = np.zeros(2 * B, dtype=bool)
        self.slot_rx = np.zeros(2 * B, dtype=int)
        self.slot_terms = np.zeros((4, 2 * B))     # signal, denominator, chi, beta * PF average
        self._gather()

    def _gather(self):
        """Pick the active links' terms out of the link slots."""
        self.act = self.on.nonzero()[0]
        self.nd = int(self.act.searchsorted(self.g.n_cells))   # active downlinks
        self.rx = self.slot_rx[self.act]
        self.sig, self.den, self.chi0, self.act_b_avg = self.slot_terms.take(self.act, axis=1)

    def _loss(self, chi1):
        """Utility the active links lose, per row of their new chi."""
        d = self.chi0 - chi1
        nd = self.nd
        return np.add.reduce(d[..., :nd], axis=-1) + np.add.reduce(d[..., nd:], axis=-1)

    def eligible(self, c: int, direction: str) -> np.ndarray:
        ids = self.g.cell_ue_ids[c]
        other = self.Q[c] if direction == DL else self.R[c]
        if other >= 0 and not self.fd_ue:
            return ids[ids != other]
        return ids

    def scan(self, c: int, direction: str) -> _Scan:
        """Utility change of adding each eligible candidate at cell c."""
        g, W = self.g, self.g.bandwidth_hz
        ks = self.eligible(c, direction)
        K = len(ks)
        if K == 0:
            return _Scan(c, direction, ks)
        if direction == DL:
            num = self.p_dl_w * g.g_dl[c][ks]
            den = self.rx_den[ks]
            # the inflicted interference is candidate-independent
            den1 = self.den + self.p_dl_w * self.tx_bs[c][self.rx]
            sinr = np.concatenate([num / den, self.sig / den1])
            b_avg = np.concatenate([self.b_avg_dl[ks], self.act_b_avg])
            chi1 = _chi_scaled(rate_from_sinr(sinr, W), b_avg, self.one_minus_beta)
            gain, chi1 = chi1[:K], chi1[K:]
            return _Scan(c, DL, ks, gain - self._loss(chi1), num, den, gain, den1, chi1)

        num = self.p_ul_w * g.g_dl[c][ks]
        den = self.rx_den[g.n_ues + c]
        # interference into every active link's receiver, per candidate
        den1 = self.den + self.p_ul_w * self.tx_ue[ks[:, None], self.rx]      # (K, J)
        sinr = np.concatenate([(num / den)[:, None], self.sig / den1], axis=1)
        b_avg = np.empty_like(sinr)
        b_avg[:, 0] = self.b_avg_ul[ks]
        b_avg[:, 1:] = self.act_b_avg
        chi1 = _chi_scaled(rate_from_sinr(sinr, W), b_avg, self.one_minus_beta)
        gain, chi1 = chi1[:, 0], chi1[:, 1:]
        return _Scan(c, UL, ks, gain - self._loss(chi1), num, den, gain, den1, chi1)

    def scan_cell(self, c: int):
        """(scan(c, DL), scan(c, UL)) for a cell with neither direction taken.

        One rate and one utility evaluation of a flat array: the K
        downlink and then the K uplink candidates' own SINRs, then the J
        active links' new SINRs under the cell's BS (row 0) and under
        each uplink candidate (rows 1..K). All of it is element-wise and
        each row's loss sums a contiguous run, so the values equal the
        two scans' bit for bit.
        """
        g = self.g
        ks = g.cell_ue_ids[c]
        K, J = len(ks), len(self.act)
        gk = g.g_dl[c][ks]
        num_dl, num_ul = self.p_dl_w * gk, self.p_ul_w * gk
        den_dl, den_ul = self.rx_den[ks], self.rx_den[g.n_ues + c]
        den1 = np.empty((K + 1, J))
        den1[0] = self.p_dl_w * self.tx_bs[c][self.rx]
        den1[1:] = self.p_ul_w * self.tx_ue[ks[:, None], self.rx]
        den1 += self.den
        sinr = np.concatenate([num_dl / den_dl, num_ul / den_ul, (self.sig / den1).ravel()])
        b_avg = np.empty_like(sinr)
        b_avg[:K] = self.b_avg_dl[ks]
        b_avg[K : 2 * K] = self.b_avg_ul[ks]
        b_avg[2 * K :].reshape(K + 1, J)[:] = self.act_b_avg
        chi1 = _chi_scaled(rate_from_sinr(sinr, g.bandwidth_hz), b_avg, self.one_minus_beta)
        gain, chi1 = chi1[: 2 * K].reshape(2, K), chi1[2 * K :].reshape(K + 1, J)
        loss = self._loss(chi1)     # row 0: the downlink candidates' shared loss
        return (
            _Scan(c, DL, ks, gain[0] - loss[0], num_dl, den_dl, gain[0], den1[0], chi1[0]),
            _Scan(c, UL, ks, gain[1] - loss[1:], num_ul, den_ul, gain[1], den1[1:], chi1[1:]),
        )

    def accept(self, scan: _Scan, i: int) -> None:
        """Schedule candidate i of a scan and carry its terms into the state."""
        c, k = scan.cell, int(scan.ks[i])
        N, B = self.g.n_ues, self.g.n_cells
        if scan.direction == DL:
            self.R[c] = k
            slot, rx, b_avg, den = c, k, self.b_avg_dl[k], scan.den[i]
            den1, chi1 = scan.den1, scan.chi1
            self.rx_den += self.p_dl_w * self.tx_bs[c]
        else:
            self.Q[c] = k
            slot, rx, b_avg, den = B + c, N + c, self.b_avg_ul[k], scan.den
            den1, chi1 = scan.den1[i], scan.chi1[i]
            self.rx_den += self.p_ul_w * self.tx_ue[k]
        terms = self.slot_terms
        # indexing a row view once is cheaper than one mixed index
        terms[1][self.act] = den1
        terms[2][self.act] = chi1
        terms[0, slot], terms[1, slot] = scan.num[i], den
        terms[2, slot], terms[3, slot] = scan.gain[i], b_avg
        self.slot_rx[slot] = rx
        self.on[slot] = True
        self._gather()

    def selection(self) -> Selection:
        return Selection(_base_decision(self.Q, self.R, self.powers, self.fd_ue))


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
        scan_d, scan_u = state.scan_cell(c)
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


def round_robin_select(
    turn: int,
    mode: str,
    direction: str,
    g: GainTable,
    P_init,
    rng: np.random.Generator,
) -> SlotDecision:
    """Round robin: each cell serves its UE at position turn % U.

    turn is the number of earlier slots in this direction; every cell
    takes its turns in step, so no per-cell cursor is kept. Mode FD adds
    a random opposite partner. The turn pick matches what the HD round
    robin would schedule in the same slot, so FD/HD round-robin runs
    stay UE-aligned. The partner is a uniform draw over the cell's other
    UEs; one vector draw gives the values and generator state of one
    rng.choice per cell.
    """
    ids = g.cell_ue_ids
    B, U = ids.shape
    pos = turn % U
    pick = ids[:, pos]
    partner = np.full(B, NONE, dtype=int)
    if mode == "FD" and U > 1:
        k = rng.integers(0, np.full(B, U - 1))
        partner = ids[np.arange(B), k + (k >= pos)]
    R, Q = (pick, partner) if direction == DL else (partner, pick)
    return _base_decision(Q, R, P_init, False)
