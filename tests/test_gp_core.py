import numpy as np
import pytest

from conftest import check_derivatives
from fdcell.gp_core import (
    GPProblem,
    Monomial,
    Posynomial,
    STATUS_CONVERGED,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITER,
    WeightedLogObjective,
    _BarrierObjective,
    _SmoothedMax,
    condense,
    evaluate,
    minimize_box,
    posynomial_arrays,
    solve_gp,
)


def random_posynomial(rng, n_vars=3, n_terms=5):
    terms = []
    for _ in range(n_terms):
        coeff = float(rng.lognormal(0.0, 1.0))
        exps = {k: float(rng.uniform(-2.0, 2.0)) for k in range(n_vars) if rng.random() < 0.7}
        terms.append(Monomial(coeff, exps))
    return Posynomial(terms)


def test_evaluate_oracles():
    assert evaluate(Monomial(2.0, {0: 1.0}), [3.0]) == pytest.approx(6.0, rel=1e-12)
    p = Posynomial([Monomial(1.0, {0: 1.0}), Monomial(1.0, {0: -1.0})])
    assert evaluate(p, [1.0]) == pytest.approx(2.0, rel=1e-12)
    assert evaluate(Monomial(1.0, {0: 0.5, 1: 0.5}), [4.0, 9.0]) == pytest.approx(6.0, rel=1e-12)
    with pytest.raises(ValueError):
        evaluate(Monomial(1.0, {0: 1.0}), [-1.0])


def test_malformed_terms_rejected():
    for coeff in (0.0, -1.0):
        with pytest.raises(ValueError, match="coefficient must be positive"):
            Monomial(coeff, {0: 1.0})
    with pytest.raises(ValueError, match="at least one term"):
        Posynomial([])
    p = Posynomial([Monomial(1.0, {0: 1.0}), Monomial(1.0, {1: 1.0})])
    for x0 in ([1.0, 0.0], [-1.0, 1.0]):
        with pytest.raises(ValueError, match="must be positive"):
            condense(p, x0)


def test_condense_hand_example():
    p = Posynomial([Monomial(1.0, {0: 1.0}), Monomial(1.0, {1: 1.0})])
    m = condense(p, [1.0, 1.0])
    assert m.coeff == pytest.approx(2.0, rel=1e-12)
    assert m.exponents == {0: pytest.approx(0.5), 1: pytest.approx(0.5)}


def test_condense_tangency_and_lower_bound():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        p = random_posynomial(rng)
        x0 = rng.lognormal(0.0, 0.7, 3)
        m = condense(p, x0)
        pv, mv = evaluate(p, x0), evaluate(m, x0)
        assert mv == pytest.approx(pv, rel=1e-12)
        for _ in range(100):
            x = rng.lognormal(0.0, 0.9, 3)
            gap = evaluate(m, x) - evaluate(p, x)
            worst = max(worst, gap / max(evaluate(p, x), 1e-300))
    assert worst <= 1e-12


def test_posynomial_arrays_consistency():
    rng = np.random.default_rng(5)
    p = random_posynomial(rng, n_vars=4)
    A, c = posynomial_arrays(p, 4)
    for _ in range(5):
        y = rng.normal(0.0, 1.0, 4)
        direct = np.log(evaluate(p, np.exp(y)))
        lse = float(np.logaddexp.reduce(A @ y + c))
        assert lse == pytest.approx(direct, rel=1e-12)


def random_padded_blocks(rng, J=4, M=5, n=3):
    """Ragged general-exponent blocks padded with c = -inf, zero exponents."""
    A = rng.uniform(-2.0, 2.0, (J, M, n))
    c = rng.normal(0.0, 1.0, (J, M))
    for j in range(J):
        m = int(rng.integers(1, M + 1))
        A[j, m:] = 0.0
        c[j, m:] = -np.inf
    return A, c


def reference_lse(A, c, y):
    return np.array([np.logaddexp.reduce(Aj @ y + cj) for Aj, cj in zip(A, c)])


def assert_fgh_matches_differences(f, y, value):
    """Value against a reference, gradient and Hessian against differences."""
    assert check_derivatives(f, y) == pytest.approx(value, rel=1e-12)


def test_lse_kernel_objectives_match_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(10):
        A, c = random_padded_blocks(rng)
        y = rng.normal(0.0, 0.5, A.shape[2])
        w = rng.uniform(0.1, 2.0, A.shape[0])
        obj = WeightedLogObjective(A, c, w)
        assert_fgh_matches_differences(obj, y, w @ reference_lse(A, c, y))

        # constraints shifted to be strictly feasible at y
        cA, cc = random_padded_blocks(rng)
        cc = cc - (reference_lse(cA, cc, y).max() + 0.5)
        g = reference_lse(cA, cc, y)
        t = 7.0
        barrier = _BarrierObjective(obj, (cA, cc), t)
        assert_fgh_matches_differences(
            barrier, y, obj(y)[0] - np.log(-g).sum() / t
        )
        tau = 0.3
        assert_fgh_matches_differences(
            _SmoothedMax((cA, cc), tau), y, tau * np.logaddexp.reduce(g / tau)
        )


def test_minimize_box_quadratic_like():
    # minimize lse of (y, -y): symmetric, optimum at y = 0 -> x = 1
    obj = WeightedLogObjective(np.array([[[1.0], [-1.0]]]), np.zeros((1, 2)), np.ones(1))
    y, status, _ = minimize_box(obj, np.array([1.5]), np.array([-3.0]), np.array([3.0]))
    assert status == STATUS_CONVERGED
    assert y[0] == pytest.approx(0.0, abs=1e-6)
    _, grad, _ = obj(y)
    assert abs(grad[0]) < 1e-6    # interior optimum: the whole gradient vanishes


def test_minimize_box_reports_exhausted_budget():
    # the same problem, stopped after one Newton step short of the optimum
    obj = WeightedLogObjective(np.array([[[1.0], [-1.0]]]), np.zeros((1, 2)), np.ones(1))
    y0, lo, hi = np.array([1.5]), np.array([-3.0]), np.array([3.0])
    y, status, iters = minimize_box(obj, y0, lo, hi, max_iter=1)
    assert (status, iters) == (STATUS_MAX_ITER, 1)
    assert y[0] != y0[0] and abs(y[0]) > 1e-6
    # without the limit the same start goes on to the optimum
    y_full, status_full, iters_full = minimize_box(obj, y0, lo, hi)
    assert status_full == STATUS_CONVERGED and iters_full > 1
    assert abs(y[0]) > abs(y_full[0])


class SpyObjective:
    """Records every point an objective is evaluated at and every Hessian formed."""

    def __init__(self, base):
        self.base = base
        self.points = []
        self.hessians = 0

    def __call__(self, y):
        self.points.append(y.tobytes())
        val, grad, hess = self.base(y)

        def counted():
            self.hessians += 1
            return hess()

        return val, grad, counted


def test_minimize_box_one_hessian_per_step_no_repeated_point():
    rng = np.random.default_rng(17)
    n_backtracks = 0
    for _ in range(10):
        A, c = random_padded_blocks(rng, J=3, M=4, n=3)
        # a box-bounded convex problem started far from its optimum, so
        # full Newton steps overshoot and the line search backtracks
        spy = SpyObjective(WeightedLogObjective(A, c, rng.uniform(0.1, 2.0, 3)))
        lo, hi = np.full(3, -4.0), np.full(3, 4.0)
        y, status, iters = minimize_box(spy, rng.uniform(-4.0, 4.0, 3), lo, hi)
        assert status == STATUS_CONVERGED
        # one Hessian per Newton step taken, none at the converged point
        assert iters >= 1 and spy.hessians == iters
        # the accepted line-search point is the next iterate, and a trial
        # clipped onto the point just rejected is not evaluated again: no
        # point is evaluated twice in a row
        assert all(a != b for a, b in zip(spy.points, spy.points[1:]))
        assert spy.points[-1] == y.tobytes()
        n_backtracks += len(spy.points) - 1 - iters
    assert n_backtracks > 0


def test_minimize_box_at_the_box_edges():
    # y0 has lo == hi and a gradient pointing out of the box; y1 starts
    # at its lower bound with a negative gradient, and the two couple.
    # The KKT test keeps y0's gradient (y0 counts as at its lower bound
    # there), while the active set holds y0 fixed, so Newton solves y1
    # alone until its step vanishes. Pinned to the exact result: taking
    # one mask for both uses moves it.
    def fgh(y):
        val = -3.0 * y[0] + np.exp(y[1]) - 3.0 * y[1] + 0.5 * (y[0] - y[1]) ** 2
        grad = np.array([-3.0 + (y[0] - y[1]), np.exp(y[1]) - 3.0 - (y[0] - y[1])])
        return val, grad, lambda: np.array([[1.0, -1.0], [-1.0, np.exp(y[1]) + 1.0]])

    lo, hi = np.array([1.0, -1.0]), np.array([1.0, 4.0])
    y, status, iters = minimize_box(fgh, np.array([1.0, -1.0]), lo, hi)
    assert y.tolist() == [1.0, 1.0737289375564991]
    assert (status, iters) == (STATUS_CONVERGED, 7)


def test_solve_gp_rejects_inverted_bounds():
    obj = Posynomial([Monomial(1.0, {0: 1.0}), Monomial(1.0, {0: -1.0})])
    with pytest.raises(ValueError, match="0 < lo <= hi"):
        solve_gp(GPProblem(obj, var_bounds={0: (2.0, 1.0)}))


def test_solve_unconstrained_amgm():
    # min x + 1/x on [0.1, 10] -> x* = 1, value 2
    obj = Posynomial([Monomial(1.0, {0: 1.0}), Monomial(1.0, {0: -1.0})])
    x, status = solve_gp(GPProblem(obj, var_bounds={0: (0.1, 10.0)}))
    assert status == STATUS_CONVERGED
    assert x[0] == pytest.approx(1.0, rel=1e-4)
    assert evaluate(obj, x) == pytest.approx(2.0, rel=1e-4)


def test_solve_constrained_symmetric():
    # min 1/(x y) s.t. x/2 + y/2 <= 1 on (0, 2] -> x* = y* = 1, value 1
    obj = Posynomial([Monomial(1.0, {0: -1.0, 1: -1.0})])
    con = Posynomial([Monomial(0.5, {0: 1.0}), Monomial(0.5, {1: 1.0})])
    prob = GPProblem(obj, constraints_le=[con], var_bounds={0: (1e-4, 2.0), 1: (1e-4, 2.0)})
    x, status = solve_gp(prob)
    assert status == STATUS_CONVERGED
    assert x[0] == pytest.approx(1.0, rel=1e-4)
    assert x[1] == pytest.approx(1.0, rel=1e-4)
    assert evaluate(obj, x) == pytest.approx(1.0, rel=2e-4)


def test_solve_monotone_hits_cap():
    # min 1/x with x <= Pmax -> x* = Pmax
    pmax = 0.251
    obj = Posynomial([Monomial(1.0, {0: -1.0})])
    x, status = solve_gp(GPProblem(obj, var_bounds={0: (1e-6, pmax)}))
    assert status == STATUS_CONVERGED
    assert x[0] == pytest.approx(pmax, rel=1e-6)


def test_solve_infeasible_constant_constraint():
    obj = Posynomial([Monomial(1.0, {0: 1.0})])
    bad = Posynomial([Monomial(2.0, {})])   # 2 <= 1 never holds
    _, status = solve_gp(GPProblem(obj, constraints_le=[bad], var_bounds={0: (0.1, 1.0)}))
    assert status == STATUS_INFEASIBLE


def test_solve_infeasible_within_bounds():
    # 10/x <= 1 needs x >= 10, but x is capped at 2
    obj = Posynomial([Monomial(1.0, {0: 1.0})])
    con = Posynomial([Monomial(10.0, {0: -1.0})])
    _, status = solve_gp(GPProblem(obj, constraints_le=[con], var_bounds={0: (0.1, 2.0)}))
    assert status == STATUS_INFEASIBLE


def test_feasible_inequality_tightens():
    # min 1/x s.t. x <= 1.5 expressed as posynomial constraint x/1.5 <= 1
    obj = Posynomial([Monomial(1.0, {0: -1.0})])
    con = Posynomial([Monomial(1.0 / 1.5, {0: 1.0})])
    x, status = solve_gp(GPProblem(obj, constraints_le=[con], var_bounds={0: (0.1, 10.0)}))
    assert status == STATUS_CONVERGED
    assert x[0] == pytest.approx(1.5, rel=1e-3)
