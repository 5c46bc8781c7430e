"""Proportional-fair tracking and greedy hybrid UE selection.

Each cell-slot decision is scored by its marginal contribution to the
sum of log average rates: chi = log10(beta*avg + (1-beta)*rate) -
log10(beta*avg). The greedy selector walks the cells in a fresh random
order, first giving every cell its best single direction, then trying
to add the opposite direction wherever the extra link still pays after
the interference it inflicts on everything already scheduled. A pure
half-duplex variant runs only the first pass with the direction forced,
and round-robin baselines ignore utilities altogether.

Selection runs D drops in lockstep: the PF averages carry a leading
drop axis, the drops' gain tables come as one GainStack, and step i of
the greedy order scans cell order[d, i] of every drop d in one call.
Each drop draws its cell order from its own generator. A single drop
(a PFState of (N,) averages, a GainTable and a generator) runs as a
batch of one.

One slot state (_SlotState) lives through a whole selection. It holds
the noise plus interference at every receiver, each UE and each BS (a
BS's own residual gamma*p_dl included), every active link's signal,
denominator and chi, and the PF averages scaled by beta once per slot.
A scan scores a cell's candidates in one or both directions at once: it
reads their denominators from the receiver vector and adds each
distinct candidate transmitter's gains to the active links'
denominators, then evaluates the candidates' own chi and the active
links' new chi in one call. Accepting a candidate adds its
transmitter's gain row to the receiver vector (a rank-1 update) and
keeps the scan's link terms, so no slot-wide SINR evaluation runs
during a selection.

The active links of each drop are packed into one row per direction
whose numpy sum adds them in the order and grouping of a sum over those
links alone (_SlotState._gather), so every value, and so every
decision, equals a one-drop selection's bit for bit. The tests check
every scan against the whole-slot utility with and without the
candidate (utility_change in tests/conftest.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import GainStack, GainTable
from .sinr_rate import MIN_SE, NONE, SlotDecision, rate_from_sinr
# unused here, but the benchmark tracer patches these names in this module
from .sinr_rate import slot_link_terms, slot_rates  # noqa: F401

DL = "DL"
UL = "UL"
BOTH = (DL, UL)

BETA_DEFAULT = 0.99
LN10 = np.log(10.0)


@dataclass
class PFState:
    avg_dl: np.ndarray        # (N,), or (D, N) in lockstep: EWMA of delivered downlink rate, bits/s
    avg_ul: np.ndarray
    beta: float = BETA_DEFAULT

    def __getitem__(self, d) -> "PFState":
        """Drop d's averages (views) out of a lockstep state."""
        return PFState(self.avg_dl[d], self.avg_ul[d], self.beta)


def init_state(n_ues: int, bandwidth_hz: float, beta: float = BETA_DEFAULT, drops=None) -> PFState:
    """Averages start at the minimum schedulable rate so weights are finite.

    With drops set, the averages get a leading axis of that many drops.
    """
    r0 = bandwidth_hz * MIN_SE
    shape = n_ues if drops is None else (drops, n_ues)
    return PFState(np.full(shape, r0), np.full(shape, r0), beta)


def update_state(st: PFState, dec: SlotDecision, rate_dl, rate_ul) -> PFState:
    """EWMA update: scheduled links blend in their rate, the rest decay.

    Works on one drop or on a lockstep state and decision alike.
    """
    b = st.beta
    for avg, ue, rate in ((st.avg_dl, dec.dl_ue, rate_dl), (st.avg_ul, dec.ul_ue, rate_ul)):
        avg *= b
        on = (ue >= 0).nonzero()
        # (drop,) cell -> (drop,) UE: validate serves no UE twice per direction
        avg[on[:-1] + (ue[on],)] += (1.0 - b) * np.asarray(rate)[on]
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


def _batch_of_one(st: PFState, g: GainTable, rng):
    """One drop's state, gain table and generator as a lockstep batch of one."""
    return PFState(st.avg_dl[None], st.avg_ul[None], st.beta), GainStack([g]), [rng]


@dataclass
class Selection:
    decision: SlotDecision


@lru_cache(maxsize=None)
def _sum_layout(B: int):
    """Columns that make a padded row sum like its links alone: (W, col).

    numpy's add.reduce sums fewer than 8 terms left to right. It sums 8
    to 128 terms in 8 accumulators, over the first n - n % 8 terms, and
    adds their tree ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    and then the other n % 8 terms left to right. col[n, q] is the
    column of the q-th (1-based) of n terms in a row of W columns whose
    other columns hold zeros, so that the row sums to the same bits:
    - B < 8: every sum runs left to right, so term q goes to column q - 1;
    - n >= 8: the accumulated terms keep their columns and the rest go
      to the tail, the columns after the 8 * (B // 8) accumulated ones;
    - 0 < n < 8: terms 1-3 go to columns 0-2 and term 4 to column 4, where
      the tree adds them left to right, and the rest go to the tail.
    """
    if B > 120:
        raise ValueError(f"a pairwise sum runs in one block up to 128 terms; {B} cells need more")
    acc = 8 * (B // 8)
    col = np.zeros((B + 1, B + 1), dtype=int)
    for n in range(1, B + 1):
        head = 8 * (n // 8)
        for q in range(1, n + 1):
            if B < 8 or q <= head:
                col[n, q] = q - 1
            elif n >= 8:
                col[n, q] = acc + q - 1 - head
            else:
                col[n, q] = (0, 1, 2, 4)[q - 1] if q <= 4 else acc + q - 5
    return int(col.max()) + 1, col


@dataclass(frozen=True)
class _ScanPlan:
    """Where a scan over the directions `dirs` reads each candidate, per cell.

    Candidate j of cell c is UE ue[c, j] in direction code[j] (0
    downlink, 1 uplink), downlink candidates first; other[j] is the
    opposite direction. It transmits from tx_rx row tx[c, j] to column
    rx[c, j]: BS c to UE k downlink, UE k (row B + k) to BS c (column
    N + c) uplink. The scan has one row per distinct transmitter, of
    direction row_code[m]: one for all downlink candidates, one per
    uplink candidate; row[j] is candidate j's row. own and bav are the
    flat offsets of a candidate's own gain in a (B + N, N + B) table and
    of its average in a (2, N) array, row_base[c, m] those of row m's
    transmitter's gains.
    """

    code: np.ndarray
    other: np.ndarray
    ue: np.ndarray
    tx: np.ndarray
    rx: np.ndarray
    row: np.ndarray
    row_code: np.ndarray
    own: np.ndarray
    bav: np.ndarray
    row_base: np.ndarray


@lru_cache(maxsize=None)
def _scan_plan(dirs: tuple, B: int, U: int) -> _ScanPlan:
    N = B * U
    ks = np.arange(N).reshape(B, U)
    cells = np.repeat(np.arange(B)[:, None], U, axis=1)
    code, ue, tx, rx, row, row_tx, row_code = [], [], [], [], [], [], []
    for x in dirs:
        m = sum(len(r) for r in row_code)
        if x == DL:
            code.append(np.zeros(U, dtype=int))
            tx.append(cells)
            rx.append(ks)
            row.append(np.full(U, m))
            row_tx.append(cells[:, :1])
            row_code.append(np.zeros(1, dtype=int))
        else:
            code.append(np.ones(U, dtype=int))
            tx.append(B + ks)
            rx.append(N + cells)
            row.append(m + np.arange(U))
            row_tx.append(B + ks)
            row_code.append(np.ones(U, dtype=int))
        ue.append(ks)
    code, row, row_code = (np.concatenate(a) for a in (code, row, row_code))
    ue, tx, rx, row_tx = (np.concatenate(a, axis=1) for a in (ue, tx, rx, row_tx))
    R = N + B
    return _ScanPlan(code, 1 - code, ue, tx, rx, row, row_code,
                     own=tx * R + rx, bav=code * N + ue, row_base=row_tx * R)


@dataclass
class _Scan:
    """The candidates of cell cells[d] in every drop d, as _SlotState.scan left them.

    Candidate j is described by plan (_ScanPlan). du is its net utility
    change, and own holds its own link's signal, denominator, chi and
    beta * PF average (num, den, gain, b_avg), each (D, candidates).
    Scheduling it moves the active links' denominators and chi to
    den1[:, plan.row[j]] and chi1[:, plan.row[j]], each (D, rows, width).
    """

    cells: np.ndarray
    plan: _ScanPlan
    du: np.ndarray
    own: np.ndarray
    den1: np.ndarray
    chi1: np.ndarray

    num = property(lambda self: self.own[0])
    den = property(lambda self: self.own[1])
    gain = property(lambda self: self.own[2])
    b_avg = property(lambda self: self.own[3])


class _SlotState:
    """What the partial slot assignments of D drops put at every receiver and link.

    Receivers are the N UEs, then the B BSs (BS b at N + b); tx_rx[d, t]
    is the gain row of drop d's transmitter t (BS t, or UE t - B). rx_den
    is (D, N + B): the noise plus everything the scheduled transmitters
    put at each receiver. RQ[d, 0] holds each cell's downlink UE, RQ[d, 1]
    its uplink UE (NONE when idle). fd_ue is a bool or one bool per drop.

    Drop d's active links sit in the order they were accepted at
    positions 1..n[d] of (D, 2B + 1) arrays: receiver (rx), signal,
    denominator, chi and PF average scaled by beta (sig, den, chi0,
    lavg). Position 0 and the free positions have signal 0, so chi 0
    under any denominator; a scan evaluates the first `width` positions
    of every drop. at[d, r, b] is the position of cell b's direction-r
    link (0 when idle), and pack[d, r] lists the positions of drop d's
    direction-r links in cell order at their _sum_layout columns, with
    position 0 in every other column. The averages are fixed through a
    selection, so b_avg holds them scaled by beta once per slot, as
    (D, 2, N), for _chi_scaled.
    """

    def __init__(self, g: GainStack, powers, st: PFState, fd_ue=False):
        self.powers, self.fd_ue = powers, fd_ue
        self.p = np.array(powers, dtype=float)        # downlink, uplink watts
        D, B, N = len(g), g.n_cells, g.n_ues
        self.D, self.B, self.U = D, B, N // B
        self.bandwidth_hz = g.bandwidth_hz
        self.tx_rx = g.tx_rx
        self.gains = g.tx_rx.reshape(-1)
        T, R = g.tx_rx.shape[1:]
        self.drops = np.arange(D)
        col = self.drops[:, None]
        L = 2 * B + 1
        # flat offset of each drop in tx_rx, rx_den, b_avg and the link arrays
        self.at_g, self.at_rx, self.at_ue, self.at_link = col * (T * R), col * R, col * (2 * N), self.drops * L
        self._plans = {}
        self.fd_col = np.reshape(fd_ue, (-1, 1))
        self.RQ = np.full((D, 2, B), NONE)
        self.rx_den = g.rx_noise.copy()
        self.b_avg = st.beta * np.stack([st.avg_dl, st.avg_ul], axis=1)
        self.one_minus_beta = 1.0 - st.beta
        self.n = np.zeros(D, dtype=int)
        self.width = 1
        self.links = np.zeros((4, D, L))
        self.sig, self.den, self.chi0, self.lavg = self.links
        self.den[:] = self.lavg[:] = 1.0
        self.rx = np.zeros((D, L), dtype=int)
        self.at = np.zeros((D, 2, B), dtype=int)
        W, self.layout = _sum_layout(B)
        self.pack = np.zeros((D, 2, W), dtype=int)

    @property
    def R(self) -> np.ndarray:
        return self.RQ[:, 0]

    @property
    def Q(self) -> np.ndarray:
        return self.RQ[:, 1]

    def _pack(self):
        """Lay each drop's active links out in its two loss rows (see _sum_layout)."""
        on = self.at > 0
        rank = on.cumsum(axis=-1)
        cols = self.layout[rank[..., -1:], rank]
        d, r, c = on.nonzero()
        self.pack = np.zeros_like(self.pack)
        self.pack[d, r, cols[d, r, c]] = self.at[d, r, c]

    def _plan(self, dirs: tuple):
        """dirs' _ScanPlan, its candidates' and rows' powers, and each drop's
        scan rows in units of the scan width."""
        if dirs not in self._plans:
            plan = _scan_plan(dirs, self.B, self.U)
            M = len(plan.row_code)
            rows = (self.drops[:, None] * M + np.arange(M))[..., None, None]
            self._plans[dirs] = plan, self.p[plan.code], self.p[plan.row_code][:, None], rows
        return self._plans[dirs]

    def scan(self, cells: np.ndarray, dirs: tuple) -> _Scan:
        """Utility change of adding each candidate of cell cells[d] in every drop d.

        Every UE of the cell is scored in every direction of dirs ((DL,),
        (UL,) or BOTH); eligible() says which ones may be added.
        """
        plan, p_cand, p_row, rows = self._plan(dirs)
        D, nc, w = self.D, len(plan.code), self.width
        own = np.empty((4, D, nc))
        num, den, gain, b_avg = own
        np.multiply(p_cand, self.gains.take(plan.own[cells] + self.at_g), out=num)
        self.rx_den.take(plan.rx[cells] + self.at_rx, out=den, mode="clip")
        self.b_avg.take(plan.bav[cells] + self.at_ue, out=b_avg, mode="clip")
        # the active links' denominators under each distinct transmitter
        den1 = self.gains.take((plan.row_base[cells] + self.at_g)[:, :, None] + self.rx[:, None, :w])
        den1 *= p_row
        den1 += self.den[:, None, :w]
        sinr = np.concatenate([num / den, (self.sig[:, None, :w] / den1).reshape(D, -1)], axis=1)
        lavg = self.lavg[:, None, :w].repeat(den1.shape[1], axis=1).reshape(D, -1)
        chi = _chi_scaled(
            rate_from_sinr(sinr, self.bandwidth_hz),
            np.concatenate([b_avg, lavg], axis=1),
            self.one_minus_beta,
        )
        gain[:] = chi[:, :nc]
        chi1 = chi[:, nc:].reshape(den1.shape)
        # the utility the active links lose, summed in _sum_layout's rows
        lost = (self.chi0[:, None, :w] - chi1).take(rows * w + self.pack[:, None])
        lost = np.add.reduce(lost, axis=-1)
        du = gain - (lost[..., 0] + lost[..., 1])[:, plan.row]
        return _Scan(cells, plan, du, own, den1, chi1)

    def eligible(self, scan: _Scan, upgrade=False) -> np.ndarray:
        """(D, candidates) mask of the candidates that may be added.

        The candidate's direction must be free at the cell and, unless
        the drop's UEs are full duplex, its UE must not serve the cell's
        other direction. With upgrade (pass 2), the cell must already
        serve the other direction.
        """
        plan = scan.plan
        ue = self.RQ[self.drops, :, scan.cells]      # (D, 2) the cell's UEs
        other = ue[:, plan.other]
        ok = (ue[:, plan.code] < 0) & ((other != plan.ue[scan.cells]) | self.fd_col)
        if upgrade:
            ok &= other >= 0
        return ok

    def take_best(self, scan: _Scan, du: np.ndarray) -> None:
        """Accept each drop's first best candidate where its du is positive.

        Downlink candidates come first, so a tie between the directions
        goes to the downlink.
        """
        j = du.argmax(axis=1)
        a = (du[self.drops, j] > 0.0).nonzero()[0]
        if len(a):
            self.accept(scan, a, j[a])

    def accept(self, scan: _Scan, a: np.ndarray, j: np.ndarray) -> None:
        """Schedule candidate j[i] in drop a[i] and carry its terms into the state."""
        plan, c = scan.plan, scan.cells[a]
        code = plan.code[j]
        # the drops' rows: whole arrays when every drop takes a link
        ix = slice(None) if len(a) == self.D else a
        self.RQ[a, code, c] = plan.ue[c, j]
        tx = self.tx_rx[a, plan.tx[c, j]]
        tx *= self.p[code][:, None]
        self.rx_den[ix] += tx
        m, w = plan.row[j], self.width
        self.den[ix, :w] = scan.den1[a, m]
        self.chi0[ix, :w] = scan.chi1[a, m]
        self.n[ix] += 1
        pos = self.n[a]
        self.at[a, code, c] = pos
        at = self.at_link[a] + pos
        self.links.reshape(4, -1)[:, at] = scan.own.reshape(4, -1)[:, a * scan.own.shape[2] + j]
        self.rx.put(at, plan.rx[c, j])
        self.width = int(self.n.max()) + 1
        self._pack()

    def selection(self) -> Selection:
        return Selection(_base_decision(self.Q, self.R, self.powers, self.fd_ue))


def _orders(rngs, n_cells: int) -> np.ndarray:
    """(D, B) cell order of every drop, one permutation per drop's generator."""
    return np.stack([rng.permutation(n_cells) for rng in rngs])


def select_ues(st: PFState, g: GainStack | GainTable, P_init, rng, fd_ue=False) -> Selection:
    """Two-pass greedy hybrid selection over a fresh random cell order.

    Pass 1 gives each cell its better single direction if it helps; pass
    2 upgrades cells to full duplex where the opposite link still adds
    net utility. P_init is (downlink watts, uplink watts) applied to
    every candidate during evaluation. In lockstep, rng holds one
    generator per drop and the decision has a leading drop axis.
    """
    if isinstance(g, GainTable):
        st, g, rng = _batch_of_one(st, g, rng)
        return Selection(select_ues(st, g, P_init, rng, fd_ue).decision[0])
    order = _orders(rng, g.n_cells)
    state = _SlotState(g, P_init, st, fd_ue)

    for cells in order.T:
        scan = state.scan(cells, BOTH)
        state.take_best(scan, scan.du)

    for cells in order.T:
        # pass 2 scans a cell where some drop serves exactly one direction
        if ((state.RQ[state.drops, :, cells] >= 0).sum(axis=1) == 1).any():
            scan = state.scan(cells, BOTH)
            state.take_best(scan, np.where(state.eligible(scan, upgrade=True), scan.du, -np.inf))

    return state.selection()


def hd_select_ues(st: PFState, g: GainStack | GainTable, P_init, direction: str, rng) -> Selection:
    """Single-direction greedy pass with all cells synchronized."""
    if isinstance(g, GainTable):
        st, g, rng = _batch_of_one(st, g, rng)
        return Selection(hd_select_ues(st, g, P_init, direction, rng).decision[0])
    state = _SlotState(g, P_init, st)
    for cells in _orders(rng, g.n_cells).T:
        scan = state.scan(cells, (direction,))
        state.take_best(scan, scan.du)
    return state.selection()


def round_robin_select(
    turn: int,
    mode: str,
    direction: str,
    g: GainStack | GainTable,
    P_init,
    rng,
) -> SlotDecision:
    """Round robin: each cell serves its UE at position turn % U.

    turn is the number of earlier slots in this direction; every cell
    takes its turns in step, so no per-cell cursor is kept. Mode FD adds
    a random opposite partner. The turn pick matches what the HD round
    robin would schedule in the same slot, so FD/HD round-robin runs
    stay UE-aligned. The partner is a uniform draw over the cell's other
    UEs; one vector draw gives the values and generator state of one
    rng.choice per cell. In lockstep, rng holds one generator per drop,
    each drawing its drop's partners.
    """
    single = isinstance(g, GainTable)
    rngs = [rng] if single else rng
    ids = g.cell_ue_ids
    B, U = ids.shape
    pos = turn % U
    pick = np.broadcast_to(ids[:, pos], (len(rngs), B))
    partner = np.full((len(rngs), B), NONE, dtype=int)
    if mode == "FD" and U > 1:
        high = np.full(B, U - 1)
        k = np.stack([r.integers(0, high) for r in rngs])
        partner = ids[np.arange(B), k + (k >= pos)]
    R, Q = (pick, partner) if direction == DL else (partner, pick)
    dec = _base_decision(Q, R, P_init, False)
    return dec[0] if single else dec
