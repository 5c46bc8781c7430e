"""Block-formula SINR evaluation, kept as an independent oracle.

The simulator reads every link from GainTable.tx_rx. This reference
writes each interference term out from the BS-UE, BS-BS and UE-UE
blocks and gamma instead, so a slip in the table or in its gather does
not also move the expected values.
"""

import numpy as np


def reference_slot_link_terms(dec, g):
    """Signal and denominator power per cell: (sig_d, den_d, sig_u, den_u).

    Signals are zero on inactive links; denominators always include the
    receiver noise.
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
        # a UE on both directions hears its own residual, not a UE-UE gain
        same = dl_on & ul_on & (dec.dl_ue == dec.ul_ue)
        den_d = den_d + np.where(same, pu * g.gamma, 0.0)

    # uplink: receiver is BS b
    sig_u = pu * g.g_dl[idx, u]
    ue_to_b = g.g_dl[:, u]                       # [b, i] = BS b <- UE u[i]
    den_u = g.noise_bs_w + pd * g.gamma + pd @ g.g_bs + ue_to_b @ pu - sig_u
    return sig_d, den_d, sig_u, den_u


def reference_slot_sinrs(dec, g):
    """Downlink and uplink SINRs, zero on inactive links."""
    sig_d, den_d, sig_u, den_u = reference_slot_link_terms(dec, g)
    sinr_d = np.where(dec.dl_ue >= 0, sig_d / den_d, 0.0)
    sinr_u = np.where(dec.ul_ue >= 0, sig_u / den_u, 0.0)
    return sinr_d, sinr_u
