"""Proportional-fair tracking and greedy hybrid UE selection.

Each cell-slot decision is scored by its marginal contribution to the
sum of log average rates: chi = log10(beta*avg + (1-beta)*rate) -
log10(beta*avg). The greedy selector walks the cells in a fresh random
order, first giving every cell its best single direction, then trying
to add the opposite direction wherever the extra link still pays after
the interference it inflicts on everything already scheduled. A pure
half-duplex variant runs only the first pass with the direction forced,
and round-robin baselines ignore utilities altogether.

The selectors run D drops in lockstep: the PF averages carry a leading
drop axis, the drops' gain tables come as one GainStack, and step i of
the greedy order scans cell order[d, i] of every drop d in one call.
Each drop draws its cell order from its own generator. A single drop
(a PFState of (2, N) averages, a GainTable and a generator) runs as a
batch of one.

Round robin takes a GainStack only, and reads its FD partners from
offsets that round_robin_partners draws for all of a chunk's slots.

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

Every link is keyed by its direction and cell, as in the decision, and
sinr_rate.link_ends, the rule the charged rates and the allocator use,
gives its transmitter row and receiver column; the scan plans
(_ScanPlan) are derived from it. A scan sums each drop's losses over
that drop's own row of B link slots per direction, in which an idle
slot adds an exact zero. Every value, and so every decision, is the
same whatever the drop's batch-mates or the batch width, bit for bit.
The tests check every scan against the whole-slot utility with and
without the candidate (utility_change in tests/conftest.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import GainStack, GainTable
from .sinr_rate import MIN_SE, NONE, SlotDecision, _row, link_ends, rate_from_sinr
# unused here, but the benchmark tracer patches these names in this module
from .sinr_rate import slot_link_terms, slot_rates  # noqa: F401

DL = "DL"
UL = "UL"
BOTH = (DL, UL)

BETA_DEFAULT = 0.99
LN10 = np.log(10.0)


@dataclass
class PFState:
    # (2, N), or (D, 2, N) in lockstep: row r is the EWMA of the rate
    # delivered in direction r (0 downlink, 1 uplink), bits/s
    avg: np.ndarray
    beta: float = BETA_DEFAULT

    avg_dl, avg_ul = _row("avg", 0), _row("avg", 1)

    def __getitem__(self, d) -> "PFState":
        """Drop d's averages (views) out of a lockstep state."""
        return PFState(self.avg[d], self.beta)


def init_state(n_ues: int, bandwidth_hz: float, beta: float = BETA_DEFAULT, drops=None) -> PFState:
    """Averages start at the minimum schedulable rate so weights are finite.

    With drops set, the averages get a leading axis of that many drops.
    """
    shape = (2, n_ues) if drops is None else (drops, 2, n_ues)
    return PFState(np.full(shape, bandwidth_hz * MIN_SE), beta)


def update_state(st: PFState, dec: SlotDecision, rate) -> PFState:
    """EWMA update: scheduled links blend in their rate, the rest decay.

    rate is in the decision's layout, (2, B) or (D, 2, B), as slot_rates
    gives it. Works on one drop or on a lockstep state and decision alike.
    """
    b = st.beta
    st.avg *= b
    on = (dec.ue >= 0).nonzero()
    # (drop,) direction, cell -> (drop,) direction, UE: validate serves no
    # UE twice per direction
    st.avg[on[:-1] + (dec.ue[on],)] += (1.0 - b) * rate[on]
    return st


def chi(avg, rate, beta):
    """Marginal PF utility of delivering `rate` to a link averaging `avg`."""
    return _chi_scaled(np.asarray(rate), beta * np.asarray(avg), 1.0 - beta)


def _chi_scaled(rate, b_avg, one_minus_beta):
    """chi with the average already scaled by beta (b_avg = beta * avg)."""
    return np.log1p(one_minus_beta * rate / b_avg) / LN10


def _base_decision(ue: np.ndarray, powers, fd_ue: bool) -> SlotDecision:
    """The decision over the (..., 2, B) UEs ue (kept, not copied), every
    scheduled link at its direction's power in powers."""
    return SlotDecision.of(ue, np.where(ue >= 0, np.reshape(powers, (2, 1)), 0.0), fd_ue)


def _batch_of_one(st: PFState, g: GainTable, rng):
    """One drop's state, gain table and generator as a lockstep batch of one."""
    return PFState(st.avg[None], st.beta), GainStack([g]), [rng]


@dataclass(frozen=True)
class _ScanPlan:
    """Where a scan over the directions `dirs` reads each candidate, per cell.

    Candidate j of cell c is UE ue[c, j] in direction code[j] (0
    downlink, 1 uplink), downlink candidates first, at power p_cand[j].
    It transmits from tx_rx row tx[c, j] to column rx[c, j], as
    sinr_rate.link_ends puts link slot code[j] * B + c. The scan has one
    row per distinct transmitter: one for all downlink candidates, one
    per uplink candidate; row[j] is candidate j's row and p_row[m] row
    m's power, (rows, 1). own and bav are the flat offsets of a
    candidate's own gain in a (B + N, N + B) table and of its average in
    a (2, N) array, row_base[c, m] those of row m's transmitter's gains.
    """

    code: np.ndarray
    ue: np.ndarray
    tx: np.ndarray
    rx: np.ndarray
    row: np.ndarray
    own: np.ndarray
    bav: np.ndarray
    row_base: np.ndarray
    p_cand: np.ndarray
    p_row: np.ndarray


@lru_cache(maxsize=None)
def _scan_plan(dirs: tuple, B: int, U: int, powers: tuple) -> _ScanPlan:
    N = B * U
    R = N + B
    code = np.repeat([BOTH.index(x) for x in dirs], U)
    ue = np.tile(np.arange(N).reshape(B, U), len(dirs))
    tx, rx = link_ends(B, N, code * B + np.arange(B)[:, None], ue)
    # a new row at the first candidate and at every uplink candidate
    first = np.r_[True, code[1:] == 1]
    p = np.array(powers, dtype=float)
    return _ScanPlan(code, ue, tx, rx, row=first.cumsum() - 1, own=tx * R + rx,
                     bav=code * N + ue, row_base=tx[:, first] * R,
                     p_cand=p[code], p_row=p[code[first]][:, None])


@dataclass
class _Scan:
    """The candidates of cell cells[d] in every drop d, as _SlotState.scan left them.

    Candidate j is described by plan (_ScanPlan). du is its net utility
    change, and own holds its own link's signal, denominator, chi and
    beta * PF average (num, den, gain, b_avg), each (D, candidates).
    Scheduling it moves the link slots' denominators and chi to
    den1[:, plan.row[j]] and chi1[:, plan.row[j]], each (D, rows, 2B).
    """

    cells: np.ndarray
    plan: _ScanPlan
    du: np.ndarray
    own: np.ndarray
    den1: np.ndarray
    chi1: np.ndarray


class _SlotState:
    """What the partial slot assignments of D drops put at every receiver and link.

    tx_rx[d] is drop d's transmitter x receiver gain table, read at the
    row and column sinr_rate.link_ends gives each link; its receivers
    are the N UEs, then the B BSs. rx_den is (D, N + B): the noise plus
    everything the scheduled transmitters put at each receiver. RQ[d, 0]
    holds each cell's downlink UE, RQ[d, 1] its uplink UE (NONE when
    idle): the (D, 2, B) layout of SlotDecision.ue, so the selection's
    decision holds RQ itself. fd_ue is one bool for all D drops.

    Drop d's link of direction r (0 downlink, 1 uplink) at cell b sits in
    slot r * B + b of (D, 2B) arrays, as link_ends numbers it, the key of
    RQ[d, r, b]: its receiver (rx), signal, denominator, chi and PF
    average scaled by beta (sig, den, chi0, lavg). An idle slot has
    signal 0, so chi 0 under any denominator: it adds an exact zero to
    its row's loss. The averages are fixed through a selection, so b_avg
    holds them scaled by beta once per slot, as (D, 2, N), for
    _chi_scaled.
    """

    def __init__(self, g: GainStack, powers, st: PFState, fd_ue=False):
        self.powers, self.fd_ue = tuple(powers), bool(fd_ue)
        D, B, N = len(g), g.n_cells, g.n_ues
        self.D, self.B, self.U = D, B, N // B
        self.bandwidth_hz = g.bandwidth_hz
        self.tx_rx = g.tx_rx
        self.gains = g.tx_rx.reshape(-1)
        T, R = g.tx_rx.shape[1:]
        self.drops = np.arange(D)
        col = self.drops[:, None]
        # flat offset of each drop in tx_rx, rx_den and b_avg
        self.at_g, self.at_rx, self.at_ue = col * (T * R), col * R, col * (2 * N)
        self.RQ = np.full((D, 2, B), NONE)
        self.rx_den = g.rx_noise.copy()
        self.b_avg = st.beta * st.avg
        self.one_minus_beta = 1.0 - st.beta
        self.links = np.zeros((4, D, 2 * B))
        self.sig, self.den, self.chi0, self.lavg = self.links
        self.den[:] = self.lavg[:] = 1.0
        self.rx = np.zeros((D, 2 * B), dtype=int)

    def scan(self, cells: np.ndarray, dirs: tuple) -> _Scan:
        """Utility change of adding each candidate of cell cells[d] in every drop d.

        Every UE of the cell is scored in every direction of dirs ((DL,),
        (UL,) or BOTH); eligible() says which ones may be added.
        """
        plan = _scan_plan(dirs, self.B, self.U, self.powers)
        D, nc = self.D, len(plan.code)
        own = np.empty((4, D, nc))
        num, den, gain, b_avg = own
        np.multiply(plan.p_cand, self.gains.take(plan.own[cells] + self.at_g), out=num)
        self.rx_den.take(plan.rx[cells] + self.at_rx, out=den, mode="clip")
        self.b_avg.take(plan.bav[cells] + self.at_ue, out=b_avg, mode="clip")
        # every link slot's denominator under each distinct transmitter
        den1 = self.gains.take((plan.row_base[cells] + self.at_g)[:, :, None] + self.rx[:, None])
        den1 *= plan.p_row
        den1 += self.den[:, None]
        sinr = np.concatenate([num / den, (self.sig[:, None] / den1).reshape(D, -1)], axis=1)
        lavg = self.lavg[:, None].repeat(den1.shape[1], axis=1).reshape(D, -1)
        chi = _chi_scaled(
            rate_from_sinr(sinr, self.bandwidth_hz),
            np.concatenate([b_avg, lavg], axis=1),
            self.one_minus_beta,
        )
        gain[:] = chi[:, :nc]
        chi1 = chi[:, nc:].reshape(den1.shape)
        # the utility the links lose, summed over each drop's row of B slots per direction
        lost = np.add.reduce((self.chi0[:, None] - chi1).reshape(D, -1, 2, self.B), axis=-1)
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
        other = ue[:, 1 - plan.code]
        ok = (ue[:, plan.code] < 0) & ((other != plan.ue[scan.cells]) | self.fd_ue)
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
        tx *= plan.p_cand[j][:, None]
        self.rx_den[ix] += tx
        m = plan.row[j]
        self.den[ix] = scan.den1[a, m]
        self.chi0[ix] = scan.chi1[a, m]
        slot = code * self.B + c
        self.links[:, a, slot] = scan.own[:, a, j]
        self.rx[a, slot] = plan.rx[c, j]

    def decision(self) -> SlotDecision:
        return _base_decision(self.RQ, self.powers, self.fd_ue)


def _orders(rngs, n_cells: int) -> np.ndarray:
    """(D, B) cell order of every drop, one permutation per drop's generator."""
    return np.stack([rng.permutation(n_cells) for rng in rngs])


def select_ues(st: PFState, g: GainStack | GainTable, P_init, rng, fd_ue=False) -> SlotDecision:
    """Two-pass greedy hybrid selection over a fresh random cell order.

    Pass 1 gives each cell its better single direction if it helps; pass
    2 upgrades cells to full duplex where the opposite link still adds
    net utility. P_init is (downlink watts, uplink watts) applied to
    every candidate during evaluation. In lockstep, rng holds one
    generator per drop and the decision has a leading drop axis.
    """
    if isinstance(g, GainTable):
        st, g, rng = _batch_of_one(st, g, rng)
        return select_ues(st, g, P_init, rng, fd_ue)[0]
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

    return state.decision()


def hd_select_ues(st: PFState, g: GainStack | GainTable, P_init, direction: str, rng) -> SlotDecision:
    """Single-direction greedy pass with all cells synchronized."""
    if isinstance(g, GainTable):
        st, g, rng = _batch_of_one(st, g, rng)
        return hd_select_ues(st, g, P_init, direction, rng)[0]
    state = _SlotState(g, P_init, st)
    for cells in _orders(rng, g.n_cells).T:
        scan = state.scan(cells, (direction,))
        state.take_best(scan, scan.du)
    return state.decision()


def round_robin_partners(rngs, slots: int, n_cells: int, ues_per_cell: int) -> np.ndarray:
    """(D, S, B) partner offsets of D drops' round-robin FD slots, drawn at once.

    Entry [d, t, c] is cell c's draw in slot t of drop d, uniform over
    the cell's U - 1 UEs other than the turn UE; round_robin_select maps
    offset k to position k + (k >= turn position). Each drop makes one
    integers call of size (S, B) on its own generator, which gives the
    values and generator state of S calls of size B, one per slot. With
    one UE per cell there is no partner and nothing is drawn.
    """
    if ues_per_cell == 1:
        return np.zeros((len(rngs), slots, n_cells), dtype=int)
    return np.stack([rng.integers(0, ues_per_cell - 1, size=(slots, n_cells)) for rng in rngs])


def round_robin_select(turn: int, direction: str, g: GainStack, P_init, offsets) -> SlotDecision:
    """Round robin: each cell serves its UE at position turn % U.

    turn is the number of earlier slots in this direction; every cell
    takes its turns in step, so no per-cell cursor is kept. Given
    offsets, the slot's (D, B) layer of round_robin_partners, each cell
    adds an opposite partner (FD); with None it stays half duplex. The
    turn pick matches what the HD round robin would schedule in the same
    slot, so FD/HD round-robin runs stay UE-aligned. Offset k names the
    cell's k-th UE other than the turn UE, so each partner is uniform
    over the cell's other UEs, with the values and generator state of
    one rng.choice per cell and slot.
    """
    ids = g.cell_ue_ids
    B, U = ids.shape
    pos = turn % U
    r = BOTH.index(direction)
    ue = np.full((len(g), 2, B), NONE)
    ue[:, r] = ids[:, pos]
    if offsets is not None and U > 1:
        ue[:, 1 - r] = ids[np.arange(B), offsets + (offsets >= pos)]
    return _base_decision(ue, P_init, False)
