"""Geometric-programming core: posynomial algebra and a log-space solver.

A monomial is d * prod_k x_k^(a_k) with d > 0; a posynomial is a sum of
monomials. Under y = log x a posynomial becomes log-sum-exp of affine
forms, so minimizing a positive-weighted product of posynomial powers
over a box is a smooth convex problem; a standard-form GP objective is
that product with unit weights. The power allocator (power_alloc) solves
its condensed programs on the link-gain matrix with the same box solver.

One kernel, lse_blocks, evaluates the log-sum-exp, softmax and
gradient of a whole stack of posynomials at once: each posynomial is a
block of a padded (J, M, n) exponent tensor, pad terms carry log
coefficient -inf. lse_hessian adds up their weighted Hessians. The GP
objective and the barrier and phase-I terms evaluate through it.

Solver: projected Newton over the box for unconstrained-in-x problems;
posynomial <= 1 constraints go through a log-barrier path with a
smoothed-max phase I. An objective is a callable y -> (value, gradient,
hessian) whose hessian is a zero-argument callable built from that
evaluation's intermediates, so the solver evaluates each point once and
forms a Hessian only where it takes a Newton step. Each call returns a
new matrix, which the solver may change in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iterations"
STATUS_INFEASIBLE = "infeasible"


@dataclass
class Monomial:
    coeff: float
    exponents: dict = field(default_factory=dict)   # var id -> real exponent

    def __post_init__(self):
        if not self.coeff > 0:
            raise ValueError(f"monomial coefficient must be positive, got {self.coeff}")

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        out = self.coeff
        for k, a in self.exponents.items():
            out *= x[k] ** a
        return float(out)


@dataclass
class Posynomial:
    terms: list

    def __post_init__(self):
        if not self.terms:
            raise ValueError("posynomial needs at least one term")

    def value(self, x) -> float:
        return float(sum(t.value(x) for t in self.terms))

    def n_vars(self) -> int:
        ids = [k for t in self.terms for k in t.exponents]
        return max(ids) + 1 if ids else 0


@dataclass
class GPProblem:
    objective: Posynomial
    constraints_le: list = field(default_factory=list)   # Posynomial <= 1
    var_bounds: dict = field(default_factory=dict)       # var id -> (lo, hi)


def evaluate(p, x) -> float:
    """Value of a monomial or posynomial at a positive point."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("posynomials are defined for positive x only")
    return p.value(x)


def condense(p: Posynomial, x0) -> Monomial:
    """Best monomial lower bound of p that is tight at x0 (AM-GM).

    With alpha_j = term_j(x0)/p(x0), the monomial prod (term_j/alpha_j)^alpha_j
    satisfies m(x) <= p(x) everywhere and m(x0) = p(x0).
    """
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0):
        raise ValueError("condensation point must be positive")
    vals = np.array([t.value(x0) for t in p.terms])
    total = vals.sum()
    alphas = vals / total
    log_coeff = 0.0
    exps: dict = {}
    for t, a in zip(p.terms, alphas):
        if a == 0.0:
            continue
        log_coeff += a * (np.log(t.coeff) - np.log(a))
        for k, e in t.exponents.items():
            exps[k] = exps.get(k, 0.0) + a * e
    return Monomial(float(np.exp(log_coeff)), {k: v for k, v in exps.items() if v != 0.0})


# ---------------------------------------------------------------------------
# array-level machinery (log-variable space)


def posynomial_arrays(p: Posynomial, n: int):
    """Exponent matrix A (terms x n) and log-coefficients c for log x space."""
    A = np.zeros((len(p.terms), n))
    c = np.zeros(len(p.terms))
    for j, t in enumerate(p.terms):
        c[j] = np.log(t.coeff)
        for k, a in t.exponents.items():
            A[j, k] = a
    return A, c


def _lse_softmax(z: np.ndarray):
    """Log-sum-exp over the last axis and the matching softmax."""
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=-1, keepdims=True)
    return (m + np.log(s))[..., 0], e / s


def lse_blocks(A: np.ndarray, c: np.ndarray, y: np.ndarray):
    """Log-sum-exp of every block z_j = A_j y + c_j of a padded tensor.

    A is (J, M, n) and c (J, M); pad terms carry c = -inf and drop out
    of the softmax. Returns (lse (J,), softmax p (J, M), gradients
    (J, n)); the gradient of block j is p_j A_j.
    """
    lse, p = _lse_softmax(A @ y + c)
    return lse, p, (p[:, None, :] @ A)[:, 0]


def lse_hessian(A: np.ndarray, p: np.ndarray, G: np.ndarray, w: np.ndarray):
    """sum_j w_j * Hessian_j from the softmax and gradients of lse_blocks.

    Hessian_j = A_j^T diag(p_j) A_j - G_j G_j^T.
    """
    n = A.shape[2]
    Aw = A * (w[:, None] * p)[:, :, None]
    return Aw.reshape(-1, n).T @ A.reshape(-1, n) - (G * w[:, None]).T @ G


def _pad_blocks(blocks):
    """Stack (A_j (m_j x n), c_j) pairs into the padded (A, c) tensors."""
    n = blocks[0][0].shape[1]
    M = max(A.shape[0] for A, _ in blocks)
    A_pad = np.zeros((len(blocks), M, n))
    c_pad = np.full((len(blocks), M), -np.inf)
    for j, (A, c) in enumerate(blocks):
        A_pad[j, : len(c)] = A
        c_pad[j, : len(c)] = c
    return A_pad, c_pad


class WeightedLogObjective:
    """F(y) = sum_j w_j * lse(A_j y + c_j).

    A (J, M, n) and c (J, M) are the blocks of lse_blocks.
    """

    def __init__(self, A, c, w):
        self.A = A
        self.c = c
        self.w = np.asarray(w, dtype=float)

    def __call__(self, y: np.ndarray):
        lse, p, G = lse_blocks(self.A, self.c, y)
        return float(self.w @ lse), self.w @ G, lambda: lse_hessian(self.A, p, G, self.w)


def _box_kkt(g, at_lo, at_hi):
    """KKT residual norm and active set of gradient g on a box.

    at_lo and at_hi mark the variables at their bounds. The residual
    leaves out the components that push out of the box; a variable at
    both bounds counts as at its lower one there. The active set holds
    every variable a descent step would push out of the box.
    """
    out_lo = at_lo & (g > 0)
    out_hi = at_hi & (g < 0)
    held = out_lo | (out_hi & ~at_lo)
    norm = float(np.abs(np.where(held, 0.0, g)).max()) if len(g) else 0.0
    return norm, out_lo | out_hi


def minimize_box(fgh, y0, lo, hi, tol=1e-8, max_iter=200):
    """Projected-Newton minimization of a smooth convex f over a box.

    fgh(y) -> (value, gradient, hessian), hessian a zero-argument callable
    returning a new matrix (see the module docstring; the solver adds
    its regularization in place). Returns (y, status, iterations);
    status is converged once the projected gradient drops below tol.
    """
    y = np.minimum(np.maximum(np.asarray(y0, dtype=float), lo), hi)
    n = len(y)
    lo_tol = lo + 1e-10
    hi_tol = hi - 1e-10
    f, g, hess = fgh(y)
    for it in range(max_iter):
        kkt, active = _box_kkt(g, y <= lo_tol, y >= hi_tol)
        n_active = np.count_nonzero(active)
        if kkt <= tol or n_active == n:
            return y, STATUS_CONVERGED, it
        H, gf = hess(), g
        if n_active:
            free = ~active
            H, gf = H[free][:, free], g[free]
        H.flat[:: len(gf) + 1] += 1e-12 * (1.0 + H.trace() / len(gf))
        try:
            d = np.linalg.solve(H, -gf)
            if d @ gf >= 0:
                d = -gf
        except np.linalg.LinAlgError:
            d = -gf
        if n_active:
            d_free, d = d, np.zeros(n)
            d[free] = d_free
        if not np.count_nonzero(d):
            return y, STATUS_CONVERGED, it
        alpha = 1.0
        accepted = False
        tried = None
        for _ in range(60):
            y_new = np.minimum(np.maximum(y + alpha * d, lo), hi)
            step = y_new - y
            if not np.count_nonzero(step):
                break
            alpha *= 0.5
            if y_new.tobytes() == tried:
                continue    # clipped to the point just rejected
            tried = y_new.tobytes()
            f_new, g_new, hess_new = fgh(y_new)
            if f_new <= f + 1e-4 * (g @ step):
                accepted = True
                break
        if not accepted:
            # numerical stall: no descent step representable
            return y, STATUS_CONVERGED if kkt <= 10 * tol else STATUS_MAX_ITER, it
        y, f, g, hess = y_new, f_new, g_new, hess_new
    return y, STATUS_MAX_ITER, max_iter


# ---------------------------------------------------------------------------
# constrained path (log barrier) and the standard-form front end


class _BarrierObjective:
    """F(y) - (1/t) sum_i ln(-g_i(y)) with g_i = lse(A_i y + c_i).

    Normalized so the gradient keeps F's scale as t grows; the duality
    gap bound is still (number of constraints)/t. cons is the padded
    (A, c) pair of all constraints.
    """

    def __init__(self, base, cons, t):
        self.base = base
        self.cons = cons
        self.inv_t = 1.0 / t

    def __call__(self, y):
        val, grad, base_hess = self.base(y)
        gv, p, G = lse_blocks(*self.cons, y)
        if np.any(gv >= 0):
            return 1e30, grad, base_hess
        r = self.inv_t / -gv
        val -= self.inv_t * float(np.log(-gv).sum())

        def hess():
            return base_hess() + lse_hessian(self.cons[0], p, G, r) + (G * (r / -gv)[:, None]).T @ G

        return val, grad + r @ G, hess


class _SmoothedMax:
    """tau * lse(g_i(y)/tau) over constraint functions, for phase I."""

    def __init__(self, cons, tau):
        self.cons = cons
        self.tau = tau

    def __call__(self, y):
        vals, p, G = lse_blocks(*self.cons, y)
        val, q = _lse_softmax(vals / self.tau)
        grad = q @ G

        def hess():
            H = lse_hessian(self.cons[0], p, G, q)
            return H + ((G * q[:, None]).T @ G - np.outer(grad, grad)) / self.tau

        return self.tau * val, grad, hess


def solve_gp(prob: GPProblem, tol: float = 1e-6):
    """Solve a standard-form GP; returns (x, status).

    x is the positive solution vector (length = number of variables) and
    status one of converged / max_iterations / infeasible.
    """
    n = max(
        [prob.objective.n_vars()]
        + [p.n_vars() for p in prob.constraints_le]
        + [max(prob.var_bounds, default=-1) + 1]
    )
    lo = np.full(n, 1e-12)
    hi = np.full(n, 1e12)
    for k, (l, h) in prob.var_bounds.items():
        if not (0 < l <= h):
            raise ValueError(f"bounds for variable {k} must satisfy 0 < lo <= hi")
        lo[k], hi[k] = l, h
    lo_y, hi_y = np.log(lo), np.log(hi)
    obj_A, obj_c = posynomial_arrays(prob.objective, n)
    # drop constant constraints (all-zero exponents) once checked
    clean = []
    for p in prob.constraints_le:
        A, c = posynomial_arrays(p, n)
        if np.any(A):
            clean.append((A, c))
        elif _lse_softmax(c)[0] > 0:
            return np.exp((lo_y + hi_y) / 2), STATUS_INFEASIBLE
    base = WeightedLogObjective(obj_A[None], obj_c[None], np.ones(1))
    y0 = (lo_y + hi_y) / 2.0

    if not clean:
        y, status, _ = minimize_box(base, y0, lo_y, hi_y, tol=tol)
        return np.exp(y), status
    cons = _pad_blocks(clean)

    # phase I: drive max_i lse_i below zero through a smoothed max
    y = y0
    feasible = lse_blocks(*cons, y)[0].max() < -1e-9
    if not feasible:
        for tau in (1.0, 0.1, 0.01, 1e-3):
            y, _, _ = minimize_box(_SmoothedMax(cons, tau), y, lo_y, hi_y, tol=1e-10)
            if lse_blocks(*cons, y)[0].max() < -1e-9:
                feasible = True
                break
        if not feasible:
            return np.exp(y), STATUS_INFEASIBLE

    t, mu = 1.0, 20.0
    status = STATUS_CONVERGED
    for _ in range(64):
        y, st, _ = minimize_box(_BarrierObjective(base, cons, t), y, lo_y, hi_y, tol=tol)
        if len(clean) / t < tol:
            status = st
            break
        t *= mu
    else:
        status = STATUS_MAX_ITER
    return np.exp(y), status

