"""Per-link SINR and rate evaluation for one slot decision.

A slot decision holds, per cell, the chosen downlink UE, uplink UE (or
NONE) and the transmit powers. Its active links are the downlinks by
cell, then the uplinks by cell, and every link is read from the gain
table's one transmitter x receiver matrix (GainTable.tx_rx, which also
holds the residual self-interference): one gather gives the links x
links gain matrix, whose diagonal is each link's own signal, so every
SINR is one matrix-vector product. The power allocator works on the
same gather, so the quantity it optimizes is the rate that is charged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GainTable

NONE = -1

MIN_SE = 0.26   # bits/s/Hz, links below this deliver nothing
MAX_SE = 6.0    # bits/s/Hz


@dataclass
class SlotDecision:
    dl_ue: np.ndarray          # (B,) global UE index or NONE
    ul_ue: np.ndarray          # (B,)
    p_dl: np.ndarray           # (B,) watts, 0 where no downlink
    p_ul: np.ndarray           # (B,) watts
    fd_ue: bool = False        # allow dl_ue == ul_ue with gamma at the UE

    def copy(self) -> "SlotDecision":
        return SlotDecision(
            self.dl_ue.copy(),
            self.ul_ue.copy(),
            self.p_dl.copy(),
            self.p_ul.copy(),
            self.fd_ue,
        )


def validate(dec: SlotDecision, g: GainTable) -> None:
    """Assert the structural invariants of a decision.

    Each invariant is one per-cell violation mask, in check order; a
    decision that breaks any raises the message of the first broken one.
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


def link_gains(dec: SlotDecision, g: GainTable):
    """Active links of a decision and their gains: (cells_dl, cells_ul, gain, noise).

    Links are the downlinks by cell, then the uplinks by cell;
    gain[l, k] is the gain from link k's transmitter to link l's
    receiver, the diagonal each link's own signal, noise[l] the noise at
    l's receiver.
    """
    cells_dl = np.flatnonzero(dec.dl_ue >= 0)
    cells_ul = np.flatnonzero(dec.ul_ue >= 0)
    tx = np.concatenate([cells_dl, g.n_cells + dec.ul_ue[cells_ul]])
    rx = np.concatenate([dec.dl_ue[cells_dl], g.n_ues + cells_ul])
    # gathered through the transpose so the matrix comes out C-ordered
    return cells_dl, cells_ul, g.tx_rx.T[rx[:, None], tx], g.rx_noise[rx]


def link_sinr(gain: np.ndarray, noise: np.ndarray, p: np.ndarray) -> np.ndarray:
    """SINR of every link at powers p over a links x links gain matrix."""
    sig = gain.diagonal() * p
    return sig / (noise + gain @ p - sig)


def slot_link_terms(dec: SlotDecision, g: GainTable):
    """Signal and denominator power per cell: (sig_d, den_d, sig_u, den_u).

    An inactive link has signal 0 and its receiver's noise as its
    denominator (the UE noise downlink, the BS noise uplink), so every
    denominator is positive.
    """
    B = g.n_cells
    cells_dl, cells_ul, gain, noise = link_gains(dec, g)
    p = np.concatenate([dec.p_dl[cells_dl], dec.p_ul[cells_ul]])
    links = np.concatenate([cells_dl, B + cells_ul])
    sig = np.zeros(2 * B)
    den = g.idle_den.copy()
    own = gain.diagonal() * p
    sig[links] = own
    den[links] = noise + gain @ p - own
    return sig[:B], den[:B], sig[B:], den[B:]


def slot_sinrs(dec: SlotDecision, g: GainTable):
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


def slot_rates(dec: SlotDecision, g: GainTable):
    """Downlink and uplink rate vectors for the decision, bits/second.

    Inactive links have SINR 0 and so rate 0.
    """
    rate = rate_from_sinr(np.concatenate(slot_sinrs(dec, g)), g.bandwidth_hz)
    return rate[: g.n_cells], rate[g.n_cells :]
