"""Geometric-programming core: posynomial algebra and a log-space solver.

A monomial is d * prod_k x_k^(a_k) with d > 0; a posynomial is a sum of
monomials. Under y = log x a posynomial becomes log-sum-exp of affine
forms, so minimizing a positive-weighted product of posynomial powers
over a box is a smooth convex problem. That weighted form is the native
objective here because the power allocator produces real (non-integer)
weights; classic standard-form GPs reduce to it with unit weights.

One kernel, lse_blocks, evaluates the log-sum-exp, softmax and
gradient of a whole stack of posynomials at once: each posynomial is a
block of a padded (J, M, n) exponent tensor, pad terms carry log
coefficient -inf. When every block has the same exponents (the power
allocator's rows differ only in their coefficients) one shared (M, n)
exponent matrix stands in for the tensor. lse_hessian adds up their
weighted Hessians. The GP objective, the barrier and phase-I terms, and
the power allocator (power_alloc) all evaluate through it.

Solver: projected Newton over the box for unconstrained-in-x problems;
posynomial <= 1 constraints go through a log-barrier path with a
smoothed-max phase I; monomial = 1 constraints are eliminated by
substitution before solving.
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
    constraints_eq: list = field(default_factory=list)   # Monomial  == 1
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

    A is (J, M, n), or one (M, n) matrix shared by every block, and c is
    (J, M); pad terms carry c = -inf and drop out of the softmax.
    Returns (lse (J,), softmax p (J, M), gradients (J, n)); the gradient
    of block j is p_j A_j.
    """
    lse, p = _lse_softmax(A @ y + c)
    G = p @ A if A.ndim == 2 else (p[:, None, :] @ A)[:, 0]
    return lse, p, G


def lse_hessian(A: np.ndarray, p: np.ndarray, G: np.ndarray, w: np.ndarray):
    """sum_j w_j * Hessian_j from the softmax and gradients of lse_blocks.

    Hessian_j = A_j^T diag(p_j) A_j - G_j G_j^T; with a shared A the
    first terms sum to A^T diag(w p) A.
    """
    Gw = (G * w[:, None]).T @ G
    if A.ndim == 2:
        return A.T @ (A * (w @ p)[:, None]) - Gw
    n = A.shape[2]
    Aw = A * (w[:, None] * p)[:, :, None]
    return Aw.reshape(-1, n).T @ A.reshape(-1, n) - Gw


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
    """F(y) = sum_j w_j * lse(A_j y + c_j) + lin . y + const.

    A (J, M, n) or shared (M, n) and c (J, M) are the blocks of lse_blocks.
    """

    def __init__(self, A, c, w, lin=None, const=0.0):
        self.A = A
        self.c = c
        self.w = np.asarray(w, dtype=float)
        self.lin = np.zeros(A.shape[-1]) if lin is None else np.asarray(lin, dtype=float)
        self.const = float(const)

    def __call__(self, y: np.ndarray, need_hess: bool = True):
        lse, p, G = lse_blocks(self.A, self.c, y)
        val = float(self.w @ lse + self.lin @ y + self.const)
        grad = self.w @ G + self.lin
        if not need_hess:
            return val, grad, None
        return val, grad, lse_hessian(self.A, p, G, self.w)


def projected_grad_norm(y, g, lo, hi, atol=1e-10):
    """Infinity norm of the KKT residual on a box."""
    pg = g.copy()
    at_lo = y <= lo + atol
    at_hi = y >= hi - atol
    pg[at_lo] = np.minimum(g[at_lo], 0.0)
    pg[at_hi & ~at_lo] = np.maximum(g[at_hi & ~at_lo], 0.0)
    return float(np.abs(pg).max()) if len(pg) else 0.0


def minimize_box(fgh, y0, lo, hi, tol=1e-8, max_iter=200):
    """Projected-Newton minimization of a smooth convex f over a box.

    fgh(y, need_hess) -> (value, gradient, hessian). Returns (y, status,
    iterations); status is converged once the projected gradient drops
    below tol.
    """
    y = np.clip(np.asarray(y0, dtype=float), lo, hi)
    n = len(y)
    f, g, H = fgh(y)
    for it in range(max_iter):
        if projected_grad_norm(y, g, lo, hi) <= tol:
            return y, STATUS_CONVERGED, it
        atol = 1e-10
        active = ((y <= lo + atol) & (g > 0)) | ((y >= hi - atol) & (g < 0))
        free = ~active
        d = np.zeros(n)
        if free.any():
            Hf = H[free][:, free]
            gf = g[free]
            Hf.flat[:: len(gf) + 1] += 1e-12 * (1.0 + np.trace(Hf) / len(gf))
            try:
                df = np.linalg.solve(Hf, -gf)
                if df @ gf >= 0:
                    df = -gf
            except np.linalg.LinAlgError:
                df = -gf
            d[free] = df
        if not np.any(d):
            return y, STATUS_CONVERGED, it
        alpha = 1.0
        accepted = False
        for _ in range(60):
            y_new = np.clip(y + alpha * d, lo, hi)
            step = y_new - y
            if not np.any(step):
                break
            f_new = fgh(y_new, need_hess=False)[0]
            if f_new <= f + 1e-4 * (g @ step):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # numerical stall: no descent step representable
            ok = projected_grad_norm(y, g, lo, hi) <= 10 * tol
            return y, STATUS_CONVERGED if ok else STATUS_MAX_ITER, it
        y = y_new
        f, g, H = fgh(y)
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

    def __call__(self, y, need_hess=True):
        val, grad, H = self.base(y, need_hess)
        gv, p, G = lse_blocks(*self.cons, y)
        if np.any(gv >= 0):
            return 1e30, grad, H
        r = self.inv_t / -gv
        val -= self.inv_t * float(np.log(-gv).sum())
        grad = grad + r @ G
        if need_hess:
            H = H + lse_hessian(self.cons[0], p, G, r) + (G * (r / -gv)[:, None]).T @ G
        return val, grad, H


class _SmoothedMax:
    """tau * lse(g_i(y)/tau) over constraint functions, for phase I."""

    def __init__(self, cons, tau):
        self.cons = cons
        self.tau = tau

    def __call__(self, y, need_hess=True):
        vals, p, G = lse_blocks(*self.cons, y)
        val, q = _lse_softmax(vals / self.tau)
        grad = q @ G
        H = None
        if need_hess:
            H = lse_hessian(self.cons[0], p, G, q)
            H += ((G * q[:, None]).T @ G - np.outer(grad, grad)) / self.tau
        return self.tau * val, grad, H


def _substitute_equalities(prob: GPProblem, n: int):
    """Eliminate monomial equality constraints by variable substitution.

    Returns (posynomials', constraints_le', kept_ids, recover) where
    recover(x_kept) rebuilds the full positive vector.
    """
    # representation: every posynomial as (A, c) arrays over n vars
    def to_arrays(p):
        return posynomial_arrays(p, n)

    obj_A, obj_c = to_arrays(prob.objective)
    cons = [to_arrays(p) for p in prob.constraints_le]
    lo = np.full(n, 1e-12)
    hi = np.full(n, 1e12)
    for k, (l, h) in prob.var_bounds.items():
        if not (0 < l <= h):
            raise ValueError(f"bounds for variable {k} must satisfy 0 < lo <= hi")
        lo[k], hi[k] = l, h

    # equalities as affine rows in log space: a . y + ln d = 0
    eq_rows = []
    for mono in prob.constraints_eq:
        a = np.zeros(n)
        for k, e in mono.exponents.items():
            a[k] = e
        eq_rows.append((a, float(np.log(mono.coeff))))

    subs = []          # (k, a_row(n,), b) meaning y_k = a . y + b
    eliminated = []
    for i, (a, logd) in enumerate(eq_rows):
        if not np.any(a):
            if abs(logd) > 1e-9:
                raise ValueError("inconsistent monomial equality constraints")
            continue
        k = int(np.argmax(np.abs(a)))
        # y_k = (-ln d - sum_{j != k} a_j y_j) / a_k
        coef = -a / a[k]
        coef[k] = 0.0
        offset = -logd / a[k]

        def apply(Ac, coef=coef, offset=offset, k=k):
            A, c = Ac
            c = c + A[:, k] * offset
            A = A + np.outer(A[:, k], coef)
            A[:, k] = 0.0
            return A, c

        obj_A, obj_c = apply((obj_A, obj_c))
        cons = [apply(x) for x in cons]
        for j in range(i + 1, len(eq_rows)):
            aj, dj = eq_rows[j]
            dj += aj[k] * offset
            aj = aj + aj[k] * coef
            aj[k] = 0.0
            eq_rows[j] = (aj, dj)
        for j in range(len(subs)):
            kk, arow, b = subs[j]
            b = b + arow[k] * offset
            arow = arow + arow[k] * coef
            arow[k] = 0.0
            subs[j] = (kk, arow, b)
        # the eliminated variable's box becomes two monomial constraints
        up_A = coef[None, :].copy()
        cons.append((up_A, np.array([offset - np.log(hi[k])])))
        cons.append((-up_A, np.array([np.log(lo[k]) - offset])))
        subs.append((k, coef.copy(), offset))
        eliminated.append(k)

    kept = np.array([k for k in range(n) if k not in eliminated], dtype=int)

    def shrink(Ac):
        A, c = Ac
        return A[:, kept], c

    obj = shrink((obj_A, obj_c))
    cons = [shrink(x) for x in cons]

    def recover(y_kept):
        y = np.zeros(n)
        y[kept] = y_kept
        for k, arow, b in reversed(subs):
            y[k] = arow @ y + b
        return y

    return obj, cons, lo[kept], hi[kept], recover


def solve_gp(prob: GPProblem, tol: float = 1e-6):
    """Solve a standard-form GP; returns (x, status).

    x is the positive solution vector (length = number of variables) and
    status one of converged / max_iterations / infeasible.
    """
    n = max(
        [prob.objective.n_vars()]
        + [p.n_vars() for p in prob.constraints_le]
        + [max(m.exponents, default=-1) + 1 for m in prob.constraints_eq]
        + [max(prob.var_bounds, default=-1) + 1]
    )
    (obj_A, obj_c), cons, lo, hi, recover = _substitute_equalities(prob, n)
    lo_y, hi_y = np.log(lo), np.log(hi)
    # drop constraint rows that became constant (all-zero exponents)
    clean = []
    for A, c in cons:
        if np.any(A):
            clean.append((A, c))
        elif _lse_softmax(c)[0] > 0:
            return np.exp(recover((lo_y + hi_y) / 2)), STATUS_INFEASIBLE
    base = WeightedLogObjective(obj_A[None], obj_c[None], np.ones(1))
    y0 = (lo_y + hi_y) / 2.0

    if not clean:
        y, status, _ = minimize_box(base, y0, lo_y, hi_y, tol=tol)
        return np.exp(recover(y)), status
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
            return np.exp(recover(y)), STATUS_INFEASIBLE

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
    return np.exp(recover(y)), status

