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

Everything works on the links x links gain matrix of the active links
and their SINR, both taken from sinr_rate (link_gains, link_sinr), the
path that also charges the slot's rates: entry (l, k) is the gain from
link k's transmitter to link l's receiver, the diagonal is each link's
own signal. A link's numerator is its noise plus its off-diagonal row
times the powers, its denominator adds the own signal; the condensed
objective's value, gradient and Hessian are a few matrix products over
that matrix. No posynomial is built at run time; the posynomial-ratio
form lives in tests/reference.py, where it checks the condensed
objective against gp_core.condense.

The allocator wraps the loop with the scheduler-facing policy: keep
every selected link, take the SP's point even when a round stops at an
iteration limit (successive condensation never makes the objective
worse), never return a point worse than trimmed full power, zero out
links parked at the numerical floor, and shed the power that only
overshoots the spectral-efficiency cap. That trim is a linear solve:
the powers at which the links above the cap sit exactly at it. The
policy works on one link power vector (downlinks by cell, then uplinks
by cell) and writes the slot decision once, at the end.

Without an energy penalty the SP starts at full power trimmed to the
cap, with the links that point leaves at the cap pinned: their capped
rate is the most the rate model pays, so only the links below the cap
are optimized. When no link is left free, the starting point attains
the bound -sum w log(1+cap) that no power vector beats; it is returned
as is, without entering the solve, the safeguard or the floor pruning
(the slot is "certified"). With an energy penalty a capped link may
still trade rate for power, so the SP starts at full power with nothing
pinned. When the safeguard picks trimmed full power, its links at the
cap count as pinned, so the floor pruning spares a near link that the
trim legitimately parks below the floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import GainTable
from .errors import ConfigError
from .gp_core import STATUS_CONVERGED, STATUS_MAX_ITER, minimize_box
from .scheduler import LN10, PFState, Selection
from .sinr_rate import MAX_SE, NONE, link_gains, link_sinr
# unused here, but the benchmark tracer patches these names in this module
from .sinr_rate import slot_rates, slot_sinrs  # noqa: F401

POWER_FLOOR_RATIO = 1e-6      # floor = ratio * cap, GP needs positive vars
SE_CAP_SINR = 2.0**MAX_SE - 1.0
MAX_OUTER = 30                # SP condensation rounds per solve
SP_COUNTERS = ("outer_iterations", "inner_iterations", "outer_capped", "cap_rounds")
# per-slot allocator counters: the SP_COUNTERS plus the policy's own
ALLOC_COUNTERS = ("fallbacks", "certified", *SP_COUNTERS, "nonconverged_slots")


@dataclass
class AllocConfig:
    energy_kappa: float = 0.0       # > 0 enables the log-power penalty


def pf_weights(st: PFState, selection: Selection):
    """Per-link rate weights (1-beta)/(beta * avg * ln 10), zero if idle."""
    dec = selection.decision
    b = st.beta
    w_dl = np.zeros(len(dec.dl_ue))
    w_ul = np.zeros(len(dec.ul_ue))
    on = dec.dl_ue >= 0
    w_dl[on] = (1.0 - b) / (b * st.avg_dl[dec.dl_ue[on]] * LN10)
    on = dec.ul_ue >= 0
    w_ul[on] = (1.0 - b) / (b * st.avg_ul[dec.ul_ue[on]] * LN10)
    return w_dl, w_ul


@dataclass
class PowerProblem:
    """Per-slot power problem over the active links.

    Variable order: downlink links by cell, then uplink links by cell.
    gain[l, k] is the gain from link k's transmitter to link l's
    receiver (the diagonal is the link's own signal) and noise[l] the
    noise at l's receiver. `lin` carries
    the energy penalty exponents (zero when plain).
    """

    cells_dl: np.ndarray
    cells_ul: np.ndarray
    w: np.ndarray               # (L,) rescaled weights
    w_scale: float              # multiply w by this to recover the raw weights
    gain: np.ndarray            # (L, L) link gains
    noise: np.ndarray           # (L,) receiver noise
    lin: np.ndarray             # (L,) energy penalty in log space (rescaled)
    p_max: np.ndarray           # (L,)
    epsilon: float              # SP termination on ||P_s - P_{s-1}||_2

    @property
    def p_floor(self) -> np.ndarray:
        return POWER_FLOOR_RATIO * self.p_max

    @property
    def n_vars(self) -> int:
        return len(self.p_max)

    @cached_property
    def interference(self) -> np.ndarray:
        """The gain matrix without its diagonal (the own signals)."""
        return self.gain - np.diag(self.gain.diagonal())

    def true_objective(self, p: np.ndarray) -> float:
        """Weighted log objective at powers p (lower is better)."""
        num = self.noise + self.interference @ p
        den = num + self.gain.diagonal() * p
        return float(self.w @ np.log(num / den) + self.lin @ np.log(p))


def _at_cap(gain: np.ndarray, noise: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Links at (or, by rounding, just under) the SE cap at powers p."""
    return link_sinr(gain, noise, p) >= SE_CAP_SINR * (1 - 1e-9)


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
    cells_dl, cells_ul, gain, noise = link_gains(dec, g)
    n = len(noise)
    if n == 0:
        return None

    w_dl, w_ul = pf_weights(st, selection)
    w = np.concatenate([w_dl[cells_dl], w_ul[cells_ul]])
    w_scale = float(w.max())
    w = w / w_scale

    lin = np.zeros(n)
    if cfg.energy_kappa > 0:
        dist = np.concatenate(
            [
                g.dist_bs_ue_m[cells_dl, dec.dl_ue[cells_dl]],
                g.dist_bs_ue_m[cells_ul, dec.ul_ue[cells_ul]],
            ]
        )
        c_energy = cfg.energy_kappa / np.maximum(dist, 1.0)
        # product form: each penalty is the monomial factor p^(c ln2 / W)
        lin = c_energy * np.log(2.0) / g.bandwidth_hz / w_scale

    p_max = np.concatenate(
        [np.full(len(cells_dl), g.p_bs_w), np.full(len(cells_ul), g.p_ue_w)]
    )
    return PowerProblem(
        cells_dl=cells_dl,
        cells_ul=cells_ul,
        w=w,
        w_scale=w_scale,
        gain=gain,
        noise=noise,
        lin=lin,
        p_max=p_max,
        epsilon=float(1e-3 * np.sqrt(2.0 * g.n_cells) * float(p_max.max())),
    )


class _LinkSurrogate:
    """The SP objective with its denominators condensed at y0, in log power.

    With p = e^y, num = noise + G p (G: gain without its diagonal) and
    den = num + diag(gain) p, AM-GM condenses den_l at y0 to the monomial
    with exponents a_l = gain_l * p0 / den_l(y0). The convex surrogate
    F(y) = sum_l w_l log(num_l(y)/num_l(y0)) + (lin - w^T a).(y - y0)
    bounds true_objective(y) - true_objective(y0) from above and is 0 at
    y0, so the line search compares values at the scale of the decrease.
    Gradient u + lin - w^T a with u = p * G^T (w/num); Hessian
    diag(u) - Q^T diag(w) Q with Q = G * p / num (row-wise).
    """

    def __init__(self, prob: PowerProblem, y0: np.ndarray):
        self.G = prob.interference
        self.noise = prob.noise
        self.w = prob.w
        self.y0 = y0
        p0 = np.exp(y0)
        self.num0 = self.noise + self.G @ p0
        den0 = self.num0 + prob.gain.diagonal() * p0
        self.slope = prob.lin - p0 * ((self.w / den0) @ prob.gain)

    def __call__(self, y: np.ndarray):
        p = np.exp(y)
        num = self.noise + self.G @ p
        u = p * ((self.w / num) @ self.G)
        val = float(self.w @ np.log(num / self.num0) + self.slope @ (y - self.y0))

        def hess():
            Q = self.G * p / num[:, None]
            H = -(Q.T * self.w) @ Q
            H.flat[:: len(p) + 1] += u
            return H

        return val, u + self.slope, hess


def solve_power_sp(prob: PowerProblem, P0: np.ndarray):
    """Successive condensation loop; returns (powers, status, info).

    At most MAX_OUTER condensation rounds; outer_capped in info is 1
    when the loop stops there, inner_iterations sums the Newton
    iterations of every round. info also carries the true-objective
    trajectory (one entry per outer iteration, evaluated at that
    iteration's solution) and the iterate step norms, for diagnostics
    and the monotonicity tests.
    """
    lo = np.log(prob.p_floor)
    hi = np.log(prob.p_max)
    y = np.clip(np.log(np.asarray(P0, dtype=float)), lo, hi)
    p = np.exp(y)
    trajectory = [prob.true_objective(p)]
    steps = []
    status = STATUS_CONVERGED
    outer = inner = capped = 0
    for outer in range(1, MAX_OUTER + 1):
        y_new, inner_status, iters = minimize_box(_LinkSurrogate(prob, y), y, lo, hi)
        inner += iters
        p_new = np.exp(y_new)
        step = float(np.linalg.norm(p_new - p))
        steps.append(step)
        y, p = y_new, p_new
        trajectory.append(prob.true_objective(p))
        if inner_status != STATUS_CONVERGED:
            status = inner_status
            break
        if step < prob.epsilon:
            break
    else:
        status = STATUS_MAX_ITER
        capped = 1
    info = {"outer_iterations": outer, "inner_iterations": inner, "outer_capped": capped,
            "trajectory": trajectory, "steps": steps}
    return p, status, info


def _floor_prune(prob: PowerProblem, p: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    """Zero the links parked at the numerical floor: they carry no real
    transmission. Links pinned by the cap conditioning run below the
    floor legitimately and are spared.
    """
    return np.where(~pinned & (p <= prob.p_floor * (1.0 + 1e-9)), 0.0, p)


def _reduce_problem(prob: PowerProblem, fixed_p: np.ndarray, fixed: np.ndarray):
    """Condition the problem on the pinned variables.

    Pinned links keep transmitting at fixed_p: their rate rows leave the
    objective (the cap makes them constant) and the interference they
    cause at the remaining links joins those links' noise. Returns
    (sub_problem, free_mask); at least one link must be free.
    """
    free = ~fixed
    if not fixed.any():
        return prob, free
    nd = len(prob.cells_dl)
    rows = prob.gain[free]
    sub = PowerProblem(
        cells_dl=prob.cells_dl[free[:nd]],
        cells_ul=prob.cells_ul[free[nd:]],
        w=prob.w[free],
        w_scale=prob.w_scale,
        gain=rows[:, free],
        noise=prob.noise[free] + rows[:, fixed] @ fixed_p[fixed],
        lin=prob.lin[free],
        p_max=prob.p_max[free],
        epsilon=prob.epsilon,
    )
    return sub, free


def trim_to_se_cap(gain: np.ndarray, noise: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Lower the powers of links above the spectral-efficiency cap to the cap.

    gain, noise and p are the links x links gain matrix, the receiver
    noise and the link powers, in the order of link_gains; returns the
    new powers. The links above the cap (set S) take the powers at which
    each one sits exactly at the cap, given the others' powers: the
    fixed point of Yates' standard interference function, found by
    solving (diag(g_SS) - cap * G_SS) p_S = cap * (noise_S + G_SF p_F),
    where G holds the interference gains (no diagonal). At the current
    powers every link in S is at or above the cap and the noise is
    positive, so the matrix is a nonsingular M-matrix (Perron-Frobenius)
    and p_S is positive and no larger than before. A link above the cap
    thus keeps exactly its capped rate, and everyone else only sees less
    interference. Links that the lower powers lift above the cap join S
    and the system is solved again, at most once per link. Links at or
    below the cap keep their powers. Once S holds every link, G_SF is
    empty and the system is solved on the whole matrix, for the last
    time: no link is left to join S.
    """
    p = p.copy()
    sig = gain.diagonal()
    over = np.zeros(len(p), dtype=bool)
    while True:
        newly = ~over & (link_sinr(gain, noise, p) > SE_CAP_SINR * (1 + 1e-12))
        if not newly.any():
            return p
        over |= newly
        if over.all():
            M = -SE_CAP_SINR * gain
            M.flat[:: len(M) + 1] = sig
            return np.minimum(np.linalg.solve(M, SE_CAP_SINR * noise), p)
        rest = ~over
        M = -SE_CAP_SINR * gain[over][:, over]
        M.flat[:: len(M) + 1] = sig[over]
        rhs = SE_CAP_SINR * (noise[over] + gain[over][:, rest] @ p[rest])
        # the clamp only absorbs rounding: the exact solution never rises
        p[over] = np.minimum(np.linalg.solve(M, rhs), p[over])


def realized_objective(prob: PowerProblem, p: np.ndarray) -> float:
    """Problem objective at link powers p, with rates saturated at the cap.

    Links at zero power contribute no rate term and no power penalty;
    this is the quantity the cap conditioning actually improves, so
    safeguard comparisons happen on it.
    """
    sinr = link_sinr(prob.gain, prob.noise, p)
    on = p > 0
    cap = np.log1p(np.minimum(sinr[on], SE_CAP_SINR))
    val = -float(prob.w[on] @ cap)
    val += float(prob.lin[on] @ np.log(p[on]))
    return val


def _capped_solve(prob: PowerProblem, p0: np.ndarray, pinned: np.ndarray):
    """Successive SP solves conditioned on links that reach the SE cap.

    The plain SP objective keeps valuing SINR beyond the cap, which
    inflates transmit powers (and the self-interference they cause) past
    the point where realized rates saturate. The solve starts at link
    powers p0 with the links in `pinned` held there: trimmed full power
    and its links at the cap without an energy penalty, full power and
    no pinned link with one (see the module docstring). Each round solves
    the free links, trims the solution to the cap, pins every capped link
    at its trimmed power (its rate is constant from here on; it persists
    only as a fixed interference source), and re-solves the remaining
    links. At most one round per link, in practice 1-4; a start with
    every link pinned returns p0 at once. A round that stops at an
    iteration limit still lowers the objective, so its point is kept
    and the rounds go on; the status is then that round's, not
    converged. Returns (p, pinned, status, info).
    """
    fixed = pinned.copy()
    p = p0.copy()
    status = STATUS_CONVERGED
    info = dict.fromkeys(SP_COUNTERS, 0)
    while not fixed.all():
        sub, free = _reduce_problem(prob, p, fixed)
        p[free], round_status, info_s = solve_power_sp(sub, p[free])
        for k in ("outer_iterations", "inner_iterations", "outer_capped"):
            info[k] += info_s[k]
        if round_status != STATUS_CONVERGED:
            status = round_status
        p = trim_to_se_cap(prob.gain, prob.noise, p)
        info["cap_rounds"] += 1
        newly = _at_cap(prob.gain, prob.noise, p) & ~fixed
        if not newly.any():
            break
        fixed |= newly
    return p, fixed, status, info


def allocate_with_fallback(
    st: PFState,
    selection: Selection,
    g: GainTable,
    cfg: AllocConfig = AllocConfig(),
):
    """Power-optimize the selection in one pass, never below trimmed full power.

    Returns (final SlotDecision, diagnostics dict). Every selected link
    stays on air unless the chosen powers park it at the numerical
    floor, where it is zeroed. Without an energy penalty, a slot whose
    trimmed full power leaves every link at the cap is returned at that
    point with no solve and counts in "certified"; otherwise the solve
    starts at trimmed full power with its capped links pinned. An SP
    that stops at an iteration limit keeps its point, reports that
    status and counts in "nonconverged_slots". The safeguard then
    compares the result with trimmed full power on the realized
    objective and keeps the better one ("fallbacks" counts the slots
    where trimmed full power wins).
    """
    diag = {"status": "idle", **dict.fromkeys(ALLOC_COUNTERS, 0)}
    prob = build_power_problem(st, selection, g, cfg)
    if prob is None:
        return selection.decision.copy(), diag
    base = trim_to_se_cap(prob.gain, prob.noise, prob.p_max)
    base_capped = _at_cap(prob.gain, prob.noise, base)
    if prob.lin.any():
        # a capped link may still trade rate for energy: pin nothing
        p0, pinned = prob.p_max, np.zeros(prob.n_vars, dtype=bool)
    elif base_capped.all():
        # every link attains the capped rate: no power vector does better.
        # Each link sits at the cap, so none has zero power to prune.
        diag.update(status=STATUS_CONVERGED, certified=1)
        return _decision(selection, prob, base), diag
    else:
        p0, pinned = base, base_capped
    p, pinned, diag["status"], info = _capped_solve(prob, p0, pinned)
    diag.update(info, nonconverged_slots=int(diag["status"] != STATUS_CONVERGED))
    if realized_objective(prob, p) > realized_objective(prob, base):
        p, pinned = base, base_capped
        diag["fallbacks"] = 1

    p = _floor_prune(prob, p, pinned)
    # p is trimmed already, but zeroed links stop interfering and may
    # lift the others above the cap
    on = p > 0
    if not on.all():
        p[on] = trim_to_se_cap(prob.gain[on][:, on], prob.noise[on], p[on])
    return _decision(selection, prob, p), diag


def _decision(selection: Selection, prob: PowerProblem, p: np.ndarray):
    """The selection's decision with link powers p; zero-power links go idle."""
    out = selection.decision.copy()
    nd = len(prob.cells_dl)
    out.p_dl[prob.cells_dl] = p[:nd]
    out.p_ul[prob.cells_ul] = p[nd:]
    out.dl_ue[prob.cells_dl[p[:nd] == 0]] = NONE
    out.ul_ue[prob.cells_ul[p[nd:] == 0]] = NONE
    return out
