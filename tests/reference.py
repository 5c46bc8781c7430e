"""Independent oracles for the SINR and the power objective.

The simulator reads every link from GainTable.tx_rx. The SINR reference
writes each interference term out from the BS-UE, BS-BS and UE-UE
blocks and gamma instead, so a slip in the table or in its gather does
not also move the expected values.

The power allocator works on a power problem's gain matrix directly.
The objective reference spells the same objective out as one
posynomial ratio per link, the form gp_core.condense takes. The trim
reference solves every round on the gathered rows and columns of the
links above the cap, with the others' interference in the right-hand
side; the allocator's trim solves a round that holds every link on the
whole matrix instead.
"""

import numpy as np

from fdcell.gp_core import Monomial, Posynomial


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


def reference_trim_to_se_cap(gain, noise, p, cap):
    """Lower the powers of links above the SINR cap to the cap.

    Each round adds the links now above the cap to the set S and solves
    (diag(g_SS) - cap * G_SS) p_S = cap * (noise_S + G_SF p_F) on the
    gathered rows and columns; the rounds stop when no link joins S.
    """
    p = p.copy()
    sig = np.diagonal(gain)
    over = np.zeros(len(p), dtype=bool)
    while True:
        own = sig * p
        newly = ~over & (own / (noise + gain @ p - own) > cap * (1 + 1e-12))
        if not newly.any():
            return p
        over |= newly
        rest = ~over
        M = -cap * gain[over][:, over]
        M.flat[:: len(M) + 1] = sig[over]
        rhs = cap * (noise[over] + gain[over][:, rest] @ p[rest])
        p[over] = np.minimum(np.linalg.solve(M, rhs), p[over])


def _linear_posynomial(noise, gains):
    """noise + sum_k gains[k] * p_k over the links with a nonzero gain."""
    terms = [Monomial(float(noise))]
    terms += [Monomial(float(gains[k]), {int(k): 1.0}) for k in np.flatnonzero(gains)]
    return Posynomial(terms)


def sp_posynomials(prob):
    """Each link's (num, den) posynomials in the link powers.

    num_l is link l's noise plus the interference at its receiver (row l
    of the gain matrix without the own signal); den_l adds the own
    signal. The objective is prod_l (num_l / den_l)^(w_l) * prod p^lin.
    """
    off = np.where(np.eye(len(prob.noise), dtype=bool), 0.0, prob.gain)
    num = [_linear_posynomial(*nr) for nr in zip(prob.noise, off)]
    den = [_linear_posynomial(*nr) for nr in zip(prob.noise, prob.gain)]
    return num, den


def sp_objective_value(prob, p):
    """The product objective at link powers p, from the posynomials."""
    p = np.asarray(p, dtype=float)
    out = float(prob.lin @ np.log(p))
    for num, den, w in zip(*sp_posynomials(prob), prob.w):
        out += w * (np.log(num.value(p)) - np.log(den.value(p)))
    return float(np.exp(out))
