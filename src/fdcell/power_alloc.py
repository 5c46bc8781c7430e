"""Transmit-power optimization for a fixed UE selection.

The weighted sum-rate maximization over powers is a signomial problem:
each scheduled link contributes ((interference+noise)/(interference+
noise+signal))^w to a product objective that should be minimized. The
denominators are condensed to monomials at the current iterate (AM-GM),
which turns every factor into posynomial/monomial; in log space that is
a convex weighted log-sum-exp minimization over the power box, solved
with a projected Newton. Re-condensing at each new iterate yields a
monotone successive approximation that stops once the power vector
moves less than epsilon.

Each link's numerator and denominator is one row of a padded term
tensor (noise, then one term per link's power), gathered from the gain
table in one pass. Values, gradients, Hessians and the condensation
exponents all come from the log-sum-exp kernel of gp_core.

The allocator wraps the loop with the scheduler-facing policy: start at
maximum power, prune the weakest selection on solver failure, zero out
links parked at the numerical floor, never return a point worse than
the starting one, and finally shed the power that only overshoots the
spectral-efficiency cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GainTable
from .errors import ConfigError
from .gp_core import (
    STATUS_CONVERGED,
    STATUS_MAX_ITER,
    Monomial,
    Posynomial,
    WeightedLogObjective,
    lse_blocks,
    minimize_box,
)
from .scheduler import DL, UL, PFState, Selection, chi
from .sinr_rate import MAX_SE, NONE, SlotDecision, slot_rates, slot_sinrs

POWER_FLOOR_RATIO = 1e-6      # floor = ratio * cap, GP needs positive vars
SE_CAP_SINR = 2.0**MAX_SE - 1.0


@dataclass
class AllocConfig:
    energy_kappa: float = 0.0       # > 0 enables the log-power penalty
    epsilon: float | None = None    # SP termination on ||P_s - P_{s-1}||_2
    max_outer: int = 30


def pf_weights(st: PFState, selection: Selection):
    """Per-link rate weights (1-beta)/(beta * avg * ln 10), zero if idle."""
    dec = selection.decision
    b = st.beta
    w_dl = np.zeros(len(dec.dl_ue))
    w_ul = np.zeros(len(dec.ul_ue))
    on = dec.dl_ue >= 0
    w_dl[on] = (1.0 - b) / (b * st.avg_dl[dec.dl_ue[on]] * np.log(10.0))
    on = dec.ul_ue >= 0
    w_ul[on] = (1.0 - b) / (b * st.avg_ul[dec.ul_ue[on]] * np.log(10.0))
    return w_dl, w_ul


@dataclass
class PowerProblem:
    """Per-slot power problem over the active links.

    Variable order: downlink links by cell, then uplink links by cell.
    Row l of c_num holds the log coefficients of link l's interference
    plus noise: term 0 is the receiver noise, term 1+k is link k's power
    (-inf where k does not reach l's receiver). c_den is the same row
    plus the link's own signal. Both share the exponent tensor A, which
    picks power k for term 1+k. `lin` carries the energy penalty
    exponents (zero when plain).
    """

    cells_dl: np.ndarray
    cells_ul: np.ndarray
    ues_dl: np.ndarray
    ues_ul: np.ndarray
    w: np.ndarray               # (L,) rescaled weights
    w_scale: float              # multiply w by this to recover the raw weights
    A: np.ndarray               # (L, M, n) term exponents
    c_num: np.ndarray           # (L, M) log coefficients, -inf padded
    c_den: np.ndarray           # (L, M)
    lin: np.ndarray             # (n,) energy penalty in log space (rescaled)
    p_max: np.ndarray           # (n,)
    p_floor: np.ndarray         # (n,)
    epsilon: float
    gains: GainTable
    energy_kappa: float = 0.0

    @property
    def n_vars(self) -> int:
        return len(self.p_max)

    def link_labels(self):
        return [(int(c), DL) for c in self.cells_dl] + [(int(c), UL) for c in self.cells_ul]

    def true_objective(self, p: np.ndarray) -> float:
        """Weighted log objective at powers p (lower is better)."""
        y = np.log(p)
        lse_n = lse_blocks(self.A, self.c_num, y)[0]
        lse_d = lse_blocks(self.A, self.c_den, y)[0]
        return float(self.w @ (lse_n - lse_d) + self.lin @ y)


def build_power_problem(
    st: PFState,
    selection: Selection,
    g: GainTable,
    cfg: AllocConfig = AllocConfig(),
) -> PowerProblem | None:
    """Assemble the SP arrays for the selection; None if nothing is active."""
    if cfg.energy_kappa < 0:
        raise ConfigError(f"energy_kappa must be non-negative, got {cfg.energy_kappa}")
    dec = selection.decision
    cells_dl = np.where(dec.dl_ue >= 0)[0]
    cells_ul = np.where(dec.ul_ue >= 0)[0]
    n = len(cells_dl) + len(cells_ul)
    if n == 0:
        return None
    ues_dl = dec.dl_ue[cells_dl]
    ues_ul = dec.ul_ue[cells_ul]

    w_dl, w_ul = pf_weights(st, selection)
    w = np.concatenate([w_dl[cells_dl], w_ul[cells_ul]])
    w_scale = float(w.max())
    w = w / w_scale

    # gain[l, k]: transmitter of link k -> receiver of link l; the
    # diagonal is each link's own signal
    ue_ue = g.g_ue[np.ix_(ues_ul, ues_dl)].T
    if dec.fd_ue:
        # a UE on both directions hears its own residual, not a UE-UE gain
        ue_ue = np.where(ues_dl[:, None] == ues_ul[None, :], g.gamma, ue_ue)
    bs_bs = np.where(
        cells_ul[:, None] == cells_dl[None, :],
        g.gamma,
        g.g_bs[np.ix_(cells_dl, cells_ul)].T,
    )
    gain = np.block(
        [
            [g.g_dl[np.ix_(cells_dl, ues_dl)].T, ue_ue],
            [bs_bs, g.g_dl[np.ix_(cells_ul, ues_ul)]],
        ]
    )
    noise = np.concatenate(
        [np.full(len(cells_dl), g.noise_ue_w), np.full(len(cells_ul), g.noise_bs_w)]
    )
    with np.errstate(divide="ignore"):
        c_den = np.log(np.column_stack([noise, gain]))
    c_num = c_den.copy()
    np.fill_diagonal(c_num[:, 1:], -np.inf)

    lin = np.zeros(n)
    if cfg.energy_kappa > 0:
        dist = np.concatenate(
            [
                g.dist_bs_ue_m[cells_dl, ues_dl],
                g.dist_bs_ue_m[cells_ul, ues_ul],
            ]
        )
        c_energy = cfg.energy_kappa / np.maximum(dist, 1.0)
        # product form: each penalty is the monomial factor p^(c ln2 / W)
        lin = c_energy * np.log(2.0) / g.bandwidth_hz / w_scale

    p_max = np.concatenate(
        [np.full(len(cells_dl), g.p_bs_w), np.full(len(cells_ul), g.p_ue_w)]
    )
    eps = cfg.epsilon
    if eps is None:
        eps = 1e-3 * np.sqrt(2.0 * g.n_cells) * float(p_max.max())
    return PowerProblem(
        cells_dl=cells_dl,
        cells_ul=cells_ul,
        ues_dl=ues_dl,
        ues_ul=ues_ul,
        w=w,
        w_scale=w_scale,
        A=np.tile(np.eye(n + 1, n, -1), (n, 1, 1)),
        c_num=c_num,
        c_den=c_den,
        lin=lin,
        p_max=p_max,
        p_floor=POWER_FLOOR_RATIO * p_max,
        epsilon=float(eps),
        gains=g,
        energy_kappa=cfg.energy_kappa,
    )


def _rows_to_posynomial(A: np.ndarray, c: np.ndarray) -> Posynomial:
    terms = []
    for a, logc in zip(A, c):
        if np.isneginf(logc):
            continue
        exps = {int(k): float(a[k]) for k in np.flatnonzero(a)}
        terms.append(Monomial(float(np.exp(logc)), exps))
    return Posynomial(terms)


@dataclass
class SPObjective:
    """Contract view of the objective: prod_l (num_l/den_l)^(w_l) * prod p^lin."""

    num: list
    den: list
    w: np.ndarray
    lin: np.ndarray
    w_scale: float

    def value(self, p) -> float:
        p = np.asarray(p, dtype=float)
        out = float(self.lin @ np.log(p))
        for n_, d_, w_ in zip(self.num, self.den, self.w):
            out += w_ * (np.log(n_.value(p)) - np.log(d_.value(p)))
        return float(np.exp(out))


def build_sp_objective(prob: PowerProblem) -> SPObjective:
    """Posynomial-ratio form of the slot objective (for checks and dumps)."""
    if prob.energy_kappa < 0:
        raise ConfigError("energy penalty must be non-negative")
    num = [_rows_to_posynomial(A, c) for A, c in zip(prob.A, prob.c_num)]
    den = [_rows_to_posynomial(A, c) for A, c in zip(prob.A, prob.c_den)]
    return SPObjective(num, den, prob.w.copy(), prob.lin.copy(), prob.w_scale)


def _condense_den(prob: PowerProblem, y: np.ndarray):
    """AM-GM condensation of every denominator at the current iterate.

    Returns (a, k) with ln den_l(y') >= a_l . y' + k_l for all y',
    tight at y; a_l is the gradient of lse_l at y.
    """
    _, alpha, a = lse_blocks(prob.A, prob.c_den, y)
    pos = alpha > 0
    cc = np.where(pos, prob.c_den - np.log(np.where(pos, alpha, 1.0)), 0.0)
    k = np.einsum("lm,lm->l", alpha, cc)
    return a, k


def solve_power_sp(prob: PowerProblem, P0: np.ndarray, cfg: AllocConfig = AllocConfig()):
    """Successive condensation loop; returns (powers, status, info).

    info carries the true-objective trajectory (one entry per outer
    iteration, evaluated at that iteration's solution) and the iterate
    step norms, for diagnostics and the monotonicity tests.
    """
    lo = np.log(prob.p_floor)
    hi = np.log(prob.p_max)
    y = np.clip(np.log(np.asarray(P0, dtype=float)), lo, hi)
    trajectory = [prob.true_objective(np.exp(y))]
    steps = []
    status = STATUS_CONVERGED
    outer = 0
    for outer in range(1, cfg.max_outer + 1):
        a, k = _condense_den(prob, y)
        objective = WeightedLogObjective(
            prob.A,
            prob.c_num,
            prob.w,
            lin=prob.lin - prob.w @ a,
            const=-float(prob.w @ k),
        )
        y_new, inner_status, _ = minimize_box(objective, y, lo, hi)
        step = float(np.linalg.norm(np.exp(y_new) - np.exp(y)))
        steps.append(step)
        y = y_new
        trajectory.append(prob.true_objective(np.exp(y)))
        if inner_status != STATUS_CONVERGED:
            status = inner_status
            break
        if step < prob.epsilon:
            break
    else:
        status = STATUS_MAX_ITER
    info = {"outer_iterations": outer, "trajectory": trajectory, "steps": steps}
    return np.exp(y), status, info


def _apply_powers(dec: SlotDecision, prob: PowerProblem, p: np.ndarray) -> SlotDecision:
    out = dec.copy()
    out.p_dl[prob.cells_dl] = p[: len(prob.cells_dl)]
    out.p_ul[prob.cells_ul] = p[len(prob.cells_dl):]
    return out


def _extract_powers(dec: SlotDecision, prob: PowerProblem) -> np.ndarray:
    return np.concatenate([dec.p_dl[prob.cells_dl], dec.p_ul[prob.cells_ul]])


def _floor_prune(dec: SlotDecision, prob: PowerProblem, skip=None) -> SlotDecision:
    """Links parked at the numerical floor carry no real transmission.

    `skip` marks variables pinned by the cap conditioning; those run
    below the floor legitimately and are never pruned.
    """
    out = dec.copy()
    tol = 1.0 + 1e-9
    for i, c in enumerate(prob.cells_dl):
        if skip is not None and skip[i]:
            continue
        if out.p_dl[c] <= prob.p_floor[i] * tol:
            out.p_dl[c] = 0.0
            out.dl_ue[c] = NONE
    off = len(prob.cells_dl)
    for i, c in enumerate(prob.cells_ul):
        if skip is not None and skip[off + i]:
            continue
        if out.p_ul[c] <= prob.p_floor[off + i] * tol:
            out.p_ul[c] = 0.0
            out.ul_ue[c] = NONE
    return out


def _reduce_problem(prob: PowerProblem, fixed_p: np.ndarray, fixed: np.ndarray):
    """Condition the problem on the pinned variables.

    Pinned links keep transmitting at fixed_p: their rate rows leave the
    objective (the cap makes them constant) and every term they scale
    in the remaining rows becomes a constant with their log power folded
    into its coefficient. Returns (sub_problem, free_mask) or (None,
    free_mask) when nothing is left to optimize.
    """
    free = ~fixed
    if not free.any():
        return None, free
    nd = len(prob.cells_dl)
    A = prob.A[free]                       # row l belongs to variable l
    fold = A[:, :, fixed] @ np.log(fixed_p[fixed])
    sub = PowerProblem(
        cells_dl=prob.cells_dl[free[:nd]],
        cells_ul=prob.cells_ul[free[nd:]],
        ues_dl=prob.ues_dl[free[:nd]],
        ues_ul=prob.ues_ul[free[nd:]],
        w=prob.w[free],
        w_scale=prob.w_scale,
        A=A[:, :, free],
        c_num=prob.c_num[free] + fold,
        c_den=prob.c_den[free] + fold,
        lin=prob.lin[free],
        p_max=prob.p_max[free],
        p_floor=prob.p_floor[free],
        epsilon=prob.epsilon,
        gains=prob.gains,
        energy_kappa=prob.energy_kappa,
    )
    return sub, free


def trim_to_se_cap(dec: SlotDecision, g: GainTable, max_rounds: int = 60) -> SlotDecision:
    """Scale down powers that overshoot the spectral-efficiency cap.

    A link above the cap keeps exactly its capped rate with power scaled
    by cap/SINR; everyone else only sees less interference. Powers are
    non-increasing across rounds so the loop terminates.
    """
    out = dec.copy()
    for _ in range(max_rounds):
        sinr_d, sinr_u = slot_sinrs(out, g)
        over_d = (out.dl_ue >= 0) & (sinr_d > SE_CAP_SINR * (1 + 1e-12))
        over_u = (out.ul_ue >= 0) & (sinr_u > SE_CAP_SINR * (1 + 1e-12))
        if not (over_d.any() or over_u.any()):
            break
        out.p_dl[over_d] *= SE_CAP_SINR / sinr_d[over_d]
        out.p_ul[over_u] *= SE_CAP_SINR / sinr_u[over_u]
    return out


def realized_objective(prob: PowerProblem, dec: SlotDecision, g: GainTable) -> float:
    """Problem objective at a decision, with rates saturated at the cap.

    Inactive links contribute no rate term and no power penalty; this is
    the quantity the cap conditioning actually improves, so safeguard
    comparisons happen on it.
    """
    sinr_d, sinr_u = slot_sinrs(dec, g)
    sinr = np.concatenate([sinr_d[prob.cells_dl], sinr_u[prob.cells_ul]])
    p = _extract_powers(dec, prob)
    on = p > 0
    cap = np.log1p(np.minimum(sinr[on], SE_CAP_SINR))
    val = -float(prob.w[on] @ cap)
    val += float(prob.lin[on] @ np.log(p[on]))
    return val


def _capped_solve(st: PFState, sel: Selection, g: GainTable, cfg: AllocConfig):
    """Successive SP solves conditioned on links that reach the SE cap.

    The plain SP objective keeps valuing SINR beyond the cap, which
    inflates transmit powers (and the self-interference they cause) past
    the point where realized rates saturate. Each round therefore trims
    the solution to the cap, pins every capped link at its trimmed power
    (its rate is constant from here on; it persists only as a fixed
    interference source), and re-solves the remaining links. At most one
    round per link, in practice 2-4.
    """
    prob = build_power_problem(st, sel, g, cfg)
    n = prob.n_vars
    fixed = np.zeros(n, dtype=bool)
    p = prob.p_max.copy()
    info = {"outer_iterations": 0, "cap_rounds": 0}
    dec = trimmed = None
    for _ in range(n + 1):
        sub, free = _reduce_problem(prob, p, fixed)
        if sub is not None:
            p_sub, status, info_s = solve_power_sp(sub, p[free], cfg)
            info["outer_iterations"] += info_s["outer_iterations"]
            if status != STATUS_CONVERGED:
                return None, fixed, prob, status, info
            p[free] = p_sub
        dec = _apply_powers(sel.decision, prob, p)
        trimmed = trim_to_se_cap(dec, g)
        p = _extract_powers(trimmed, prob)
        info["cap_rounds"] += 1
        sinr_d, sinr_u = slot_sinrs(trimmed, g)
        at_cap = np.concatenate(
            [
                sinr_d[prob.cells_dl] >= SE_CAP_SINR * (1 - 1e-9),
                sinr_u[prob.cells_ul] >= SE_CAP_SINR * (1 - 1e-9),
            ]
        )
        newly = at_cap & ~fixed
        if not newly.any():
            break
        fixed |= newly
    return trimmed, fixed, prob, STATUS_CONVERGED, info


def _slot_utility(dec: SlotDecision, g: GainTable, st: PFState) -> float:
    """Actual marginal PF utility of the slot at the decision's powers."""
    rate_dl, rate_ul = slot_rates(dec, g)
    u = 0.0
    on = dec.dl_ue >= 0
    u += float(np.sum(chi(st.avg_dl[dec.dl_ue[on]], rate_dl[on], st.beta)))
    on = dec.ul_ue >= 0
    u += float(np.sum(chi(st.avg_ul[dec.ul_ue[on]], rate_ul[on], st.beta)))
    return u


def _drop_weakest(selection: Selection) -> Selection:
    """Remove the active link with the smallest recorded selection gain."""
    dec = selection.decision.copy()
    du_dl = selection.du_dl.copy()
    du_ul = selection.du_ul.copy()
    best = None   # (du, dir, cell)
    for c in np.where(dec.dl_ue >= 0)[0]:
        du = du_dl[c] if np.isfinite(du_dl[c]) else 0.0
        if best is None or du < best[0]:
            best = (du, DL, c)
    for c in np.where(dec.ul_ue >= 0)[0]:
        du = du_ul[c] if np.isfinite(du_ul[c]) else 0.0
        if best is None or du < best[0]:
            best = (du, UL, c)
    if best is None:
        return selection
    _, direction, c = best
    if direction == DL:
        dec.dl_ue[c] = NONE
        dec.p_dl[c] = 0.0
        du_dl[c] = np.nan
    else:
        dec.ul_ue[c] = NONE
        dec.p_ul[c] = 0.0
        du_ul[c] = np.nan
    return Selection(dec, du_dl, du_ul)


def allocate_with_fallback(
    st: PFState,
    selection: Selection,
    g: GainTable,
    cfg: AllocConfig = AllocConfig(),
):
    """Power-optimize the selection, pruning weakest links on failure.

    Returns (final SlotDecision, diagnostics dict). The decision may
    carry fewer links than the selection: solver failures drop the
    weakest candidates, and links the optimizer parks at the numerical
    floor are zeroed.
    """
    diag = {"pruned": 0, "status": "idle", "outer_iterations": 0, "fallbacks": 0}
    sel = selection
    while True:
        dec = sel.decision
        if not (np.any(dec.dl_ue >= 0) or np.any(dec.ul_ue >= 0)):
            return dec.copy(), diag
        out, fixed, prob, status, info = _capped_solve(st, sel, g, cfg)
        diag["outer_iterations"] = info["outer_iterations"]
        diag["status"] = status
        if status == STATUS_CONVERGED:
            base = trim_to_se_cap(_apply_powers(dec, prob, prob.p_max), g)
            if realized_objective(prob, out, g) > realized_objective(prob, base, g):
                out = base
                fixed = None
                diag["fallbacks"] += 1
            out = _floor_prune(out, prob, skip=fixed)
            return trim_to_se_cap(out, g), diag
        sel = _drop_weakest(sel)
        diag["pruned"] += 1
