"""Per-link SINR and rate evaluation for one slot decision.

A slot decision holds, per cell, the chosen downlink UE, uplink UE (or
NONE) and the transmit powers. Its active links are the downlinks by
cell, then the uplinks by cell, and every link is read from the gain
table's one transmitter x receiver matrix (GainTable.tx_rx, which also
holds the residual self-interference): one gather gives the links x
links gain matrix, whose diagonal is each link's own signal, so every
SINR is one matrix-vector product. link_ends is the one rule for which
row and column a link uses: the power allocator works on the same
matrix (link_gains), so the quantity it optimizes is the rate that is
charged, and the greedy scheduler's scan plans read it too.

Drops simulated in lockstep share one SlotDecision whose arrays have a
leading drop axis; validate, slot_link_terms, slot_sinrs and slot_rates
take it with the drops' GainStack, and a one-drop decision with its
GainTable is a stack of one. The evaluation groups the drops by their
number of active links k: each group of m drops is one (m, k, k) gather
and one stacked matrix-vector product. numpy evaluates a stacked
product layer by layer with the BLAS call of the one-drop product, so
a stack of same-size problems is bit-equal to the drops' own products;
a product padded to a common size sums in another order and is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GainStack, GainTable

NONE = -1

MIN_SE = 0.26   # bits/s/Hz, links below this deliver nothing
MAX_SE = 6.0    # bits/s/Hz


@dataclass
class SlotDecision:
    dl_ue: np.ndarray          # (B,) global UE index or NONE; (D, B) in lockstep
    ul_ue: np.ndarray          # (B,)
    p_dl: np.ndarray           # (B,) watts, 0 where no downlink
    p_ul: np.ndarray           # (B,) watts
    fd_ue: bool = False        # allow dl_ue == ul_ue with gamma at the UE

    def __getitem__(self, d) -> "SlotDecision":
        """Drop d's decision (views) out of a lockstep decision."""
        return SlotDecision(self.dl_ue[d], self.ul_ue[d], self.p_dl[d], self.p_ul[d], self.fd_ue)

    @staticmethod
    def stack(decisions) -> "SlotDecision":
        """One lockstep decision from the drops' decisions, in drop order."""
        return SlotDecision(
            *(np.stack([getattr(d, f) for d in decisions]) for f in ("dl_ue", "ul_ue", "p_dl", "p_ul")),
            decisions[0].fd_ue,
        )

    def copy(self) -> "SlotDecision":
        return SlotDecision(
            self.dl_ue.copy(),
            self.ul_ue.copy(),
            self.p_dl.copy(),
            self.p_ul.copy(),
            self.fd_ue,
        )


def validate(dec: SlotDecision, g: GainTable | GainStack) -> None:
    """Assert the structural invariants of a decision.

    Each invariant is one per-cell violation mask, in check order; a
    decision that breaks any raises the message of the first broken one.
    The masks are element-wise, so a lockstep decision is checked for
    all its drops at once.
    """
    dl_on = dec.dl_ue >= 0
    ul_on = dec.ul_ue >= 0
    cells = g.cell_ids
    checks = (
        (dl_on & (dec.dl_ue == dec.ul_ue) & (not dec.fd_ue),
         "half-duplex UE scheduled in both directions"),
        ((~dl_on & (dec.p_dl != 0)) | (~ul_on & (dec.p_ul != 0)),
         "power on an unassigned link"),
        ((dec.p_dl < 0) | (dec.p_dl > g.p_bs_w * (1 + 1e-9)),
         "downlink power out of bounds"),
        ((dec.p_ul < 0) | (dec.p_ul > g.p_ue_w * (1 + 1e-9)),
         "uplink power out of bounds"),
        (dl_on & (g.ue_cell[dec.dl_ue] != cells),
         "downlink UE served by a foreign cell"),
        (ul_on & (g.ue_cell[dec.ul_ue] != cells),
         "uplink UE served by a foreign cell"),
    )
    if np.logical_or.reduce([bad for bad, _ in checks], axis=None):
        raise AssertionError(next(msg for bad, msg in checks if bad.any()))


def link_ends(B: int, N: int, slots, ue):
    """Transmitter rows and receiver columns in tx_rx of the links in
    slots that carry UEs ue, in a network of B cells and N UEs: (tx, rx),
    each shaped like slots.

    Slot b is cell b's downlink, from BS b to the UE, and slot B + b its
    uplink, from the UE (row B + ue) to BS b (column N + b). A
    decision's links are its active slots in order: the downlinks by
    cell, then the uplinks by cell.
    """
    up = slots >= B
    return np.where(up, B + ue, slots), np.where(up, N - B + slots, ue)


def link_gains(dec: SlotDecision, g: GainTable):
    """Active links of a decision and their gains: (cells_dl, cells_ul, gain, noise).

    Links are the downlinks by cell, then the uplinks by cell;
    gain[l, k] is the gain from link k's transmitter to link l's
    receiver, the diagonal each link's own signal, noise[l] the noise at
    l's receiver.
    """
    ue = np.concatenate([dec.dl_ue, dec.ul_ue])
    links = (ue >= 0).nonzero()[0]
    tx, rx = link_ends(g.n_cells, g.n_ues, links, ue[links])
    n_dl = links.searchsorted(g.n_cells)
    # gathered through the transpose so the matrix comes out C-ordered
    return links[:n_dl], links[n_dl:] - g.n_cells, g.tx_rx.T[rx[:, None], tx], g.rx_noise[rx]


def link_sinr(gain: np.ndarray, noise: np.ndarray, p: np.ndarray) -> np.ndarray:
    """SINR of every link at powers p over a links x links gain matrix."""
    sig = gain.diagonal() * p
    return sig / (noise + gain @ p - sig)


def slot_link_terms(dec: SlotDecision, g: GainTable | GainStack):
    """Signal and denominator power per cell: (sig_d, den_d, sig_u, den_u).

    An inactive link has signal 0 and its receiver's noise as its
    denominator (the UE noise downlink, the BS noise uplink), so every
    denominator is positive. A lockstep decision gives (D, B) arrays.

    The drops are grouped by their number of active links k. Each group
    of m drops takes one (m, k, k) gather of its link gains and one
    stacked matrix-vector product, which evaluates each layer with the
    BLAS call of a one-drop product: every drop's terms are bit for bit
    those of its own evaluation, whatever its batch-mates.
    """
    B = g.n_cells
    R, C = g.tx_rx.shape[-2:]
    ue = np.concatenate([dec.dl_ue, dec.ul_ue], axis=-1).reshape(-1, 2 * B)
    p_all = np.concatenate([dec.p_dl, dec.p_ul], axis=-1).reshape(-1, 2 * B)
    on = ue >= 0
    sig = np.zeros(on.shape)
    # UE noise (rx_noise's first entry) on every downlink slot, BS noise
    # (its last) on every uplink slot
    den = np.repeat(g.rx_noise.reshape(-1, g.n_ues + B)[:, [0, -1]], B, axis=1)
    n_links = on.sum(axis=1)
    for k in set(n_links.tolist()):
        drops = (n_links == k).nonzero()[0]
        slots = on[drops].nonzero()[1].reshape(len(drops), k)
        at = drops[:, None] * (2 * B) + slots     # flat index into the (D, 2B) arrays
        tx, rx = link_ends(B, g.n_ues, slots, ue.take(at))
        # one flat-index gather of the (m, k, k) gains (a GainTable is
        # drop 0); it comes out C-ordered, as the one-drop gather does:
        # an F-ordered matrix changes the last bit of the product
        row = (drops[:, None] * R + tx) * C
        gain = g.tx_rx.reshape(-1).take(row[:, None, :] + rx[:, :, None])
        noise = g.rx_noise.reshape(-1).take(drops[:, None] * C + rx)
        p = p_all.take(at)
        own = gain.diagonal(axis1=1, axis2=2) * p
        sig.put(at, own)
        den.put(at, noise + (gain @ p[..., None])[..., 0] - own)
    shape = dec.dl_ue.shape[:-1] + (2 * B,)
    sig, den = sig.reshape(shape), den.reshape(shape)
    return sig[..., :B], den[..., :B], sig[..., B:], den[..., B:]


def slot_sinrs(dec: SlotDecision, g: GainTable | GainStack):
    """Vector of downlink and uplink SINRs, zero on inactive links."""
    sig_d, den_d, sig_u, den_u = slot_link_terms(dec, g)
    return sig_d / den_d, sig_u / den_u


def rate_from_sinr(sinr, bandwidth_hz: float):
    """Shannon rate with the spectral-efficiency window applied.

    Efficiency above MAX_SE is clipped; below MIN_SE the link is treated
    as outage (rate 0).
    """
    se = np.log2(1.0 + np.asarray(sinr, dtype=float))
    se = np.minimum(se, MAX_SE)
    se = np.where(se < MIN_SE, 0.0, se)
    out = bandwidth_hz * se
    return out if out.ndim else float(out)


def slot_rates(dec: SlotDecision, g: GainTable | GainStack):
    """Downlink and uplink rate vectors for the decision, bits/second.

    Inactive links have SINR 0 and so rate 0. A lockstep decision gives
    (D, B) rates from one evaluation of the stack (slot_link_terms) and
    one element-wise rate call.
    """
    sinr = np.concatenate(slot_sinrs(dec, g), axis=-1)
    rate = rate_from_sinr(sinr, g.bandwidth_hz)
    return rate[..., : g.n_cells], rate[..., g.n_cells :]
