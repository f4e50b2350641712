"""Tests for the simplex solver and the column-generation driver."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import qchancap.lp as lp_module
from qchancap.lp import (
    LinearProgram,
    LpError,
    PricingOutcome,
    column_generation,
    solve_lp,
)


def brute_force_max(c, a, b):
    """Independent oracle: enumerate every basis submatrix and keep the best
    feasible vertex."""
    m, n = a.shape
    best = -np.inf
    for cols in itertools.combinations(range(n), m):
        sub = a[:, cols]
        try:
            xb = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if xb.min() >= -1e-9:
            x = np.zeros(n)
            x[list(cols)] = xb
            best = max(best, float(c @ x))
    return best


def test_single_variable():
    sol = solve_lp(LinearProgram(c=[1.0], A=[[1.0]], b=[1.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-12)


def test_two_variable_vertex():
    sol = solve_lp(LinearProgram(c=[-1.0, -1.0], A=[[1.0, 1.0]], b=[1.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)
    assert sol.duals[0] == pytest.approx(-1.0, abs=1e-12)


def test_max_sense():
    sol = solve_lp(LinearProgram(c=[2.0, 1.0], A=[[1.0, 1.0]], b=[1.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-12)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    # duals of a maximization: y.b equals the objective, y.A_j >= c_j
    assert sol.duals @ np.array([1.0]) == pytest.approx(2.0, abs=1e-12)
    assert (sol.duals @ np.array([[1.0, 1.0]]) - np.array([2.0, 1.0])).min() >= -1e-9


def test_infeasible_reported():
    # x1 = 1 and x1 = 2 simultaneously
    lp = LinearProgram(c=[1.0], A=[[1.0], [1.0]], b=[1.0, 2.0])
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_reported():
    # max x1 with x1 - x2 = 0: both can grow forever
    lp = LinearProgram(c=[1.0, 0.0], A=[[1.0, -1.0]], b=[0.0])
    assert solve_lp(lp).status == "unbounded"


def test_negative_rhs_normalization():
    lp = LinearProgram(c=[-1.0, -1.0], A=[[-1.0, 1.0]], b=[-2.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-2.0, abs=1e-12)
    # original-orientation dual: y * (-2) must equal the objective
    assert sol.duals[0] * -2.0 == pytest.approx(-2.0, abs=1e-12)


def test_redundant_rows_duals_full_length():
    # second row duplicates the first; solver must still return two duals
    lp = LinearProgram(c=[-1.0, -2.0], A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)
    assert sol.duals.shape == (2,)
    assert sol.duals @ lp.b == pytest.approx(-1.0, abs=1e-10)


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m, n = 5, 12
        a = rng.normal(size=(m, n))
        x0 = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, size=n), 0.0)
        b = a @ x0
        c = -rng.uniform(0.1, 1.0, size=n)  # negative coefficients keep it bounded
        lp = LinearProgram(c=c, A=a, b=b)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(brute_force_max(c, a, b), abs=1e-8)
        # invariants of LpSolution
        assert np.abs(a @ sol.x - b).max() <= 1e-8 * (1 + np.abs(b).max())
        assert abs(sol.objective - sol.duals @ b) <= 1e-7 * (1 + abs(sol.objective))
        slack = sol.duals @ a - c
        assert slack.min() >= -1e-7
        assert (sol.x * slack).max() <= 1e-7


def test_klee_minty_terminates():
    n = 8
    a = np.zeros((n, 2 * n))
    b = np.zeros(n)
    c = np.zeros(2 * n)
    for i in range(n):
        for j in range(i):
            a[i, j] = 2.0 ** (i - j + 1)
        a[i, i] = 1.0
        a[i, n + i] = 1.0  # slack
        b[i] = 5.0 ** (i + 1)
        c[i] = 2.0 ** (n - 1 - i)
    lp = LinearProgram(c=c, A=a, b=b)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.pivots < 10**6
    assert sol.objective == pytest.approx(5.0**n, rel=1e-10)


def test_warm_start_matches_cold():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 8))
    x0 = rng.uniform(0.0, 1.0, size=8)
    b = a @ x0
    c = -rng.uniform(0.1, 1.0, size=8)
    lp = LinearProgram(c=c.copy(), A=a.copy(), b=b.copy())
    sol = solve_lp(lp)
    newcol = rng.normal(size=4)
    lp.add_column(newcol, -0.01)
    warm = solve_lp(lp, warm_basis=sol.basis)
    cold = solve_lp(lp)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


# --- column generation -------------------------------------------------------

def test_cg_no_columns_returned():
    lp = LinearProgram(c=[1.0], A=[[1.0]], b=[1.0])

    def pricing(sol):
        return PricingOutcome(columns=[], best_violation=0.0)

    sol, rounds, converged = column_generation(lp, pricing)
    assert converged and rounds == 0
    assert sol.objective == pytest.approx(1.0, abs=1e-12)


def test_cg_certifying_callback_stops_without_resolve(monkeypatch):
    # the callback sees the whole solution; returning no columns, even on a
    # master that a column could still improve, ends the loop with no solve
    solves = []
    real_solve = lp_module.solve_lp

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(lp_module, "solve_lp", counting_solve)
    lp = LinearProgram(c=[-2.0, -3.0], A=[[1.0, 1.0]], b=[1.0])
    seen = []

    def pricing(sol):
        seen.append(sol)
        return PricingOutcome(columns=[])

    sol, rounds, converged = column_generation(lp, pricing)
    assert converged and rounds == 0
    assert len(seen) == 1 and seen[0] is sol
    assert sol.status == "optimal" and sol.objective == pytest.approx(-2.0, abs=1e-12)
    assert len(solves) == 1


def cutting_stock_patterns(width, sizes):
    """All maximal feasible cutting patterns (enumeration oracle)."""
    ranges = [range(width // s + 1) for s in sizes]
    pats = []
    for combo in itertools.product(*ranges):
        used = sum(c * s for c, s in zip(combo, sizes))
        if used <= width and any(combo):
            pats.append(np.array(combo, dtype=float))
    return pats


def test_cg_cutting_stock_matches_enumeration():
    width, sizes, demand = 10, [3, 4, 5], np.array([9.0, 7.0, 5.0])
    pats = cutting_stock_patterns(width, sizes)

    # oracle: LP over every pattern at once; maximizing minus the number of
    # rolls minimizes it
    full = LinearProgram(
        c=-np.ones(len(pats)), A=np.stack(pats, axis=1), b=demand
    )
    full_opt = solve_lp(full).objective

    # master seeded with single-size patterns
    seeds = []
    for k, s in enumerate(sizes):
        pat = np.zeros(3)
        pat[k] = width // s
        seeds.append(pat)
    master = LinearProgram(c=-np.ones(3), A=np.stack(seeds, axis=1), b=demand)

    def pricing(sol):
        best, best_pat = 0.0, None
        for pat in pats:
            value = -float(sol.duals @ pat)
            if value > best + 1e-12:
                best, best_pat = value, pat
        if best > 1.0 + 1e-9:
            return PricingOutcome(columns=[(best_pat, -1.0, None)], best_violation=best - 1.0)
        return PricingOutcome(columns=[], best_violation=0.0)

    sol, rounds, converged = column_generation(master, pricing, tol=1e-9)
    assert converged
    assert sol.objective == pytest.approx(full_opt, abs=1e-8)


def test_cg_rejects_duplicate_columns():
    lp = LinearProgram(c=[-1.0], A=[[1.0]], b=[1.0])
    calls = []

    def pricing(sol):
        calls.append(1)
        # claims an improvement but duplicates the existing column
        return PricingOutcome(columns=[(np.array([1.0]), -0.5, None)], best_violation=0.5)

    sol, rounds, converged = column_generation(lp, pricing, tol=1e-9)
    assert converged and rounds == 0 and len(calls) == 1


def test_lp_validation_errors():
    with pytest.raises(LpError):
        LinearProgram(c=[1.0], A=[[1.0, 2.0]], b=[1.0])
    with pytest.raises(LpError):
        LinearProgram(c=[np.inf], A=[[1.0]], b=[1.0])


# --- regressions and a differential check against HiGHS ---------------------

CAPTURED = Path(__file__).parent / "data" / "captured_lps.npz"


def _captured(name):
    """A captured minimization of c, restated as the maximization of -c."""
    data = np.load(CAPTURED)
    lp = LinearProgram(c=-data[f"{name}_c"], A=data[f"{name}_A"], b=data[f"{name}_b"])
    return lp, tuple(int(j) for j in data[f"{name}_warm"])


def _highs(lp, **options):
    res = linprog(-lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs",
                  options=options)
    assert res.status == 0
    return -res.fun, -res.eqlin.marginals


def test_captured_qutrit_master_does_not_cycle(monkeypatch):
    # a c1inf master on a random qutrit channel (9 rows, 234 columns) on which
    # a leaving rule without Bland's tie-break cycled with zero step length
    monkeypatch.setattr(lp_module, "MAX_PIVOTS", 20_000)
    lp, warm = _captured("cycling")
    best, _ = _highs(lp)
    for start in (warm, None):
        sol = solve_lp(lp, warm_basis=start)
        assert sol.status == "optimal" and sol.pivots == 1387
        assert sol.objective == pytest.approx(best, abs=1e-8)
        _assert_optimal_dual(lp, sol, best)


def test_captured_tiny_pivot_master_stays_feasible():
    # a c1inf master whose ratio test offered a 1e-8 pivot on a degenerate
    # row; pivoting on it led to a near-singular basis and then to a
    # terminal basis with a negative basic variable
    lp, warm = _captured("tiny_pivot")
    best, _ = _highs(lp)
    for start in (warm, None):
        sol = solve_lp(lp, warm_basis=start)
        assert sol.status == "optimal" and sol.pivots == 9
        assert sol.objective == pytest.approx(best, abs=1e-9)
        assert np.abs(lp.A @ sol.x - lp.b).max() <= 1e-9
        _assert_optimal_dual(lp, sol, best)


def test_captured_ququart_master_terminates_under_bland(monkeypatch):
    # a fixed-average master of a random ququart channel (16 rows, 584
    # columns): the largest-coefficient rule cycles on it, and a roundoff-sized
    # step inside Bland's rule used to hand the choice back to it, forever
    monkeypatch.setattr(lp_module, "MAX_PIVOTS", 20_000)
    lp, warm = _captured("ququart")
    best, _ = _highs(lp)
    assert best == pytest.approx(-0.910921378241, abs=1e-11)
    for start in (warm, None):
        sol = solve_lp(lp, warm_basis=start)
        assert sol.status == "optimal" and sol.pivots == 3785
        assert sol.objective == pytest.approx(best, abs=1e-9)
        _assert_optimal_dual(lp, sol, best)


def test_captured_warm_measurement_master_terminates(monkeypatch):
    # a c11 measurement master of a random qutrit channel (9 rows, 88
    # columns), warm-started from the previous basis: its basis cycled in
    # steps of at most 4.2e-12, which reset a degenerate-pivot count kept on
    # the step length, so Bland's rule never began
    monkeypatch.setattr(lp_module, "MAX_PIVOTS", 20_000)
    lp, warm = _captured("roundoff")
    best, _ = _highs(lp)
    for start, pivots in ((warm, 567), (None, 51)):
        sol = solve_lp(lp, warm_basis=start)
        assert sol.status == "optimal" and sol.pivots == pivots
        assert sol.objective == pytest.approx(best, abs=1e-11)
        _assert_optimal_dual(lp, sol, best)


def test_captured_trine2_master_keeps_its_artificials_at_zero():
    # a c11 measurement master of the two-copy trine (16 rows, 14 columns, at
    # seed 2): phase 1 leaves an artificial basic at -1.4e-15, and the first
    # phase-2 pivot meets its row with a negligible entry.  Re-taking that
    # step against the other rows lifted the artificial to 6.6e-8, so the
    # terminal basis failed the primal-residual check, warm and cold.
    lp, warm = _captured("trine2")
    # HiGHS at its default tolerances stops at a relaxed 0.58326
    best, _ = _highs(lp, primal_feasibility_tolerance=1e-9, dual_feasibility_tolerance=1e-9)
    for start in (warm, None):
        sol = solve_lp(lp, warm_basis=start)
        assert sol.status == "optimal" and sol.pivots == 14
        assert np.abs(lp.A @ sol.x - lp.b).max() <= 1e-8
        assert sol.objective == pytest.approx(best, abs=1e-8)
        _assert_optimal_dual(lp, sol, best)


def test_pivot_cap_is_read_at_solve_time(monkeypatch):
    monkeypatch.setattr(lp_module, "MAX_PIVOTS", 5)
    lp, _ = _captured("cycling")
    with pytest.raises(LpError, match="pivot limit 5 exceeded"):
        solve_lp(lp)


def _assert_optimal_dual(lp, sol, objective):
    """y is an optimal dual: it attains the objective and is dual feasible."""
    scale = 1.0 + abs(objective)
    assert sol.duals @ lp.b == pytest.approx(objective, abs=1e-7 * scale)
    slack = sol.duals @ lp.A - lp.c
    assert slack.min() >= -1e-7 * scale


# "min" draws the minimizations of c that the solver once took, now stated as
# maximizations of -c; "max" draws maximizations from another seed
@pytest.mark.parametrize("sense", ["min", "max"])
def test_random_lps_match_highs(sense):
    rng = np.random.default_rng(11 if sense == "min" else 12)
    for _ in range(30):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m + 1, 4 * m + 2))
        a = rng.normal(size=(m, n))
        b = a @ rng.uniform(0.1, 1.0, size=n)  # strictly feasible: a nondegenerate optimum
        c = -rng.uniform(0.1, 1.0, size=n)
        lp = LinearProgram(c=c, A=a, b=b)
        best, duals = _highs(lp)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(best, abs=1e-8 * (1 + abs(best)))
        np.testing.assert_allclose(sol.duals, duals, atol=1e-7 * (1 + np.abs(duals).max()))
        _assert_optimal_dual(lp, sol, best)


def test_degenerate_lps_match_highs():
    # right-hand sides spanned by fewer than m columns, repeated columns and
    # a redundant row: optimal bases are degenerate and duals not unique, so
    # the duals are checked for optimality rather than compared entrywise
    rng = np.random.default_rng(13)
    for _ in range(30):
        m = int(rng.integers(3, 8))
        n = int(rng.integers(m + 2, 3 * m + 2))
        a = rng.normal(size=(m, n))
        a[:, -1] = a[:, 0]
        a[-1] = a[0] + a[1]
        x0 = np.zeros(n)
        x0[rng.choice(n - 1, size=m - 2, replace=False)] = rng.uniform(0.5, 1.5, size=m - 2)
        b = a @ x0
        c = -(np.abs(rng.normal(size=n)).round(1) + 0.1)  # ties between columns
        lp = LinearProgram(c=c, A=a, b=b)
        best, _ = _highs(lp)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(best, abs=1e-8 * (1 + abs(best)))
        assert np.abs(a @ sol.x - b).max() <= 1e-8 * (1 + np.abs(b).max())
        _assert_optimal_dual(lp, sol, best)

