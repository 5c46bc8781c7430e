"""Per-link SINR and rate evaluation for one slot decision.

A slot decision holds, per cell, the chosen downlink UE, uplink UE (or
NONE) and the transmit powers. The evaluator charges every active
transmitter against every active receiver: downlink receivers hear all
other downlink cells plus every uplink UE; an uplink receiver (the BS)
hears residual self-interference gamma times its own downlink power,
other downlink BSs, and other cells' uplink UEs. With the FD-UE option
a UE may be scheduled in both directions at once, and gamma applies at
its own receiver in place of the (zero) UE-to-UE self gain.
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
    cells = np.arange(g.n_cells)
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


def slot_link_terms(dec: SlotDecision, g: GainTable):
    """Signal and denominator power per link: (sig_d, den_d, sig_u, den_u).

    Signals are zero on inactive links; denominators always include the
    receiver noise so they stay positive.
    """
    B = g.n_cells
    idx = np.arange(B)
    dl_on = dec.dl_ue >= 0
    ul_on = dec.ul_ue >= 0
    pd = np.where(dl_on, dec.p_dl, 0.0)
    pu = np.where(ul_on, dec.p_ul, 0.0)
    r = np.where(dl_on, dec.dl_ue, 0)
    u = np.where(ul_on, dec.ul_ue, 0)

    # downlink: receiver is UE r[b]
    sig_d = pd * g.g_dl[idx, r]
    bs_to_r = g.g_dl[:, r]                       # [i, b] = BS i -> UE r[b]
    ue_to_r = g.g_ue[u][:, r]                    # [i, b] = UE u[i] -> UE r[b]
    den_d = g.noise_ue_w + pd @ bs_to_r - sig_d + pu @ ue_to_r
    if dec.fd_ue:
        same = dl_on & ul_on & (dec.dl_ue == dec.ul_ue)
        den_d = den_d + np.where(same, pu * g.gamma, 0.0)

    # uplink: receiver is BS b
    sig_u = pu * g.g_dl[idx, u]
    ue_to_b = g.g_dl[:, u]                       # [b, i] = BS b <- UE u[i]
    den_u = g.noise_bs_w + pd * g.gamma + pd @ g.g_bs + ue_to_b @ pu - sig_u
    return sig_d, den_d, sig_u, den_u


def slot_sinrs(dec: SlotDecision, g: GainTable):
    """Vector of downlink and uplink SINRs, zero on inactive links."""
    sig_d, den_d, sig_u, den_u = slot_link_terms(dec, g)
    sinr_d = np.where(dec.dl_ue >= 0, sig_d / den_d, 0.0)
    sinr_u = np.where(dec.ul_ue >= 0, sig_u / den_u, 0.0)
    return sinr_d, sinr_u


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
