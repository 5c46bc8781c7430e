"""Per-link SINR and rate evaluation for one slot decision.

A slot decision holds the UE (or NONE) and transmit power of every link
slot, as (2, B) arrays whose row 0 holds the downlinks by cell and row
1 the uplinks: flattened, entry r * B + b is slot r * B + b. Its active
links are its active slots in order, and every link is read from the
gain table's one transmitter x receiver matrix (GainTable.tx_rx, which
also holds the residual self-interference): one gather gives the links
x links gain matrix, whose diagonal is each link's own signal, so every
SINR is one matrix-vector product. link_ends is the one rule for which
row and column a link slot uses: the power allocator works on the same
matrix (link_gains), so the quantity it optimizes is the rate that is
charged, and the greedy scheduler's scan plans read it too.

Drops simulated in lockstep share one SlotDecision whose arrays have a
leading drop axis, (D, 2, B); validate, slot_link_terms, slot_sinrs and
slot_rates take it with the drops' GainStack, and a one-drop decision
with its GainTable is a stack of one. The evaluation groups the drops
by their number of active links k: each group of m drops is one
(m, k, k) gather and one stacked matrix-vector product. numpy evaluates
a stacked product layer by layer with the BLAS call of the one-drop
product, so a stack of same-size problems is bit-equal to the drops'
own products; a product padded to a common size sums in another order
and is not.
"""

from __future__ import annotations

import numpy as np

from .channel import GainStack, GainTable

NONE = -1

MIN_SE = 0.26   # bits/s/Hz, links below this deliver nothing
MAX_SE = 6.0    # bits/s/Hz


def _row(name: str, r: int):
    """Direction r's row of array `name`, a view that assignment writes through."""

    def get(self):
        return getattr(self, name)[..., r, :]

    def put(self, value):
        getattr(self, name)[..., r, :] = value

    return property(get, put)


class SlotDecision:
    """The UE and transmit power of every link slot of a slot.

    ue holds each (direction, cell)'s global UE index or NONE and p its
    watts (0 where idle), as (2, B) arrays, (D, 2, B) in lockstep. fd_ue
    allows dl_ue == ul_ue, with gamma at the UE. The positional form
    stacks per-direction arrays; of() holds ue and p themselves.
    """

    dl_ue, ul_ue = _row("ue", 0), _row("ue", 1)
    p_dl, p_ul = _row("p", 0), _row("p", 1)

    def __init__(self, dl_ue, ul_ue, p_dl, p_ul, fd_ue: bool = False):
        self.ue = np.stack([dl_ue, ul_ue], axis=-2)
        self.p = np.stack([p_dl, p_ul], axis=-2)
        self.fd_ue = fd_ue

    @classmethod
    def of(cls, ue: np.ndarray, p: np.ndarray, fd_ue: bool = False) -> "SlotDecision":
        """The decision over the (..., 2, B) arrays ue and p, without a copy."""
        dec = cls.__new__(cls)
        dec.ue, dec.p, dec.fd_ue = ue, p, fd_ue
        return dec

    def __getitem__(self, d) -> "SlotDecision":
        """Drop d's decision (views) out of a lockstep decision."""
        return SlotDecision.of(self.ue[d], self.p[d], self.fd_ue)

    @staticmethod
    def stack(decisions) -> "SlotDecision":
        """One lockstep decision from the drops' decisions, in drop order."""
        return SlotDecision.of(
            np.stack([d.ue for d in decisions]), np.stack([d.p for d in decisions]), decisions[0].fd_ue
        )

    def copy(self) -> "SlotDecision":
        return SlotDecision.of(self.ue.copy(), self.p.copy(), self.fd_ue)


def validate(dec: SlotDecision, g: GainTable | GainStack) -> None:
    """Assert the structural invariants of a decision.

    Each invariant is one violation mask over the link slots, in check
    order; a decision that breaks any raises the message of the first
    broken one. The masks are element-wise, so a lockstep decision is
    checked for all its drops at once.
    """
    ue, p = dec.ue, dec.p
    on = ue >= 0
    p_max = np.array([[g.p_bs_w], [g.p_ue_w]]) * (1 + 1e-9)
    both = on[..., 0, :] & (ue[..., 0, :] == ue[..., 1, :]) & (not dec.fd_ue)
    ghost = ~on & (p != 0)
    out = (p < 0) | (p > p_max)
    foreign = on & (g.ue_cell[ue] != g.cell_ids)
    if both.any() or (ghost | out | foreign).any():
        checks = (
            (both, "half-duplex UE scheduled in both directions"),
            (ghost, "power on an unassigned link"),
            (out[..., 0, :], "downlink power out of bounds"),
            (out[..., 1, :], "uplink power out of bounds"),
            (foreign[..., 0, :], "downlink UE served by a foreign cell"),
            (foreign[..., 1, :], "uplink UE served by a foreign cell"),
        )
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
    """Active links of a decision and their gains: (links, gain, noise).

    links are the decision's active slots in order (the downlinks by
    cell, then the uplinks by cell); gain[l, k] is the gain from link
    k's transmitter to link l's receiver, the diagonal each link's own
    signal, noise[l] the noise at l's receiver.
    """
    ue = dec.ue.reshape(-1)
    links = (ue >= 0).nonzero()[0]
    tx, rx = link_ends(g.n_cells, g.n_ues, links, ue[links])
    # gathered through the transpose so the matrix comes out C-ordered
    return links, g.tx_rx.T[rx[:, None], tx], g.rx_noise[rx]


def link_sinr(gain: np.ndarray, noise: np.ndarray, p: np.ndarray) -> np.ndarray:
    """SINR of every link at powers p over a links x links gain matrix."""
    sig = gain.diagonal() * p
    return sig / (noise + gain @ p - sig)


def slot_link_terms(dec: SlotDecision, g: GainTable | GainStack):
    """Signal and denominator power of every link slot: (sig, den), each
    shaped like the decision's arrays, (2, B) or (D, 2, B).

    An inactive link has signal 0 and its receiver's noise as its
    denominator (the UE noise downlink, the BS noise uplink), so every
    denominator is positive.

    The drops are grouped by their number of active links k. Each group
    of m drops takes one (m, k, k) gather of its link gains and one
    stacked matrix-vector product, which evaluates each layer with the
    BLAS call of a one-drop product: every drop's terms are bit for bit
    those of its own evaluation, whatever its batch-mates.
    """
    B = g.n_cells
    R, C = g.tx_rx.shape[-2:]
    ue = dec.ue.reshape(-1, 2 * B)
    p_all = dec.p.reshape(-1, 2 * B)
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
    return sig.reshape(dec.ue.shape), den.reshape(dec.ue.shape)


def slot_sinrs(dec: SlotDecision, g: GainTable | GainStack):
    """SINR of every link slot, zero on inactive links: (2, B), or
    (D, 2, B) in lockstep, so one drop's unpacks as (downlink, uplink)."""
    sig, den = slot_link_terms(dec, g)
    return sig / den


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
    """Rate of every link slot, bits/second, in the decision's layout.

    Inactive links have SINR 0 and so rate 0. A lockstep decision gives
    (D, 2, B) rates from one evaluation of the stack (slot_link_terms)
    and one element-wise rate call; one drop's (2, B) unpack as
    (downlink, uplink).
    """
    return rate_from_sinr(slot_sinrs(dec, g), g.bandwidth_hz)
