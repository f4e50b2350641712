"""Equality-form linear programming with dual extraction, plus a generic
column-generation driver.

The solver is a dense revised simplex over programs

    maximize  c . x   subject to  A x = b,  x >= 0.

Phase-1 artificial variables handle feasibility; artificials stuck in the
basis at zero level (redundant rows) are tolerated permanently with an
extended ratio test, so duals always come back with one entry per original
row.  The pivot rule is largest-coefficient.  After a run of degenerate
pivots it switches to Bland's rule on both sides for the rest of the solve:
the entering column is the eligible one of smallest index, and the leaving
row, among those tied at the minimum ratio, the one whose basic variable has
the smallest index.  A pivot counts as degenerate when its objective gain
(step times reduced cost) is at most 1e-12, so roundoff-sized steps cannot
reset the run that switches Bland's rule on, and once on it stays on.  In
exact arithmetic Bland's rule rules out cycling (Bland 1977); under roundoff
the pivot cap still bounds the run.
"""

from dataclasses import dataclass, field

import numpy as np

from .optim import lockstep


NEGLIGIBLE_PIVOT = 1e-6  # pivots below this make a near-singular basis
PIVOT_TOL = 1e-10  # reduced costs and pivot entries within this of 0 count as 0
FEAS_TOL = 1e-8  # primal residual (relative to the right-hand side) a solution may keep
DEDUP_TOL = 1e-9  # column generation skips columns this close (max-norm) to one it has
MAX_PIVOTS = 1_000_000  # a solve that needs more pivots raises LpError


class LpError(ValueError):
    pass


@dataclass
class LinearProgram:
    """max c.x over Ax = b, x >= 0.  `tags` carries per-column metadata."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    tags: list = field(default_factory=list)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.A.ndim != 2 or self.A.shape != (self.b.size, self.c.size):
            raise LpError(
                f"shape mismatch: A {self.A.shape}, b {self.b.shape}, c {self.c.shape}"
            )
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all() and np.isfinite(self.c).all()):
            raise LpError("LP data must be finite")
        if not self.tags:
            self.tags = [None] * self.c.size
        elif len(self.tags) != self.c.size:
            raise LpError("tags must match the number of columns")

    @property
    def num_rows(self) -> int:
        return self.b.size

    @property
    def num_cols(self) -> int:
        return self.c.size

    def add_column(self, col, coef: float, tag=None) -> None:
        col = np.asarray(col, dtype=float).reshape(-1)
        if col.size != self.b.size:
            raise LpError(f"column length {col.size} != row count {self.b.size}")
        self.A = np.hstack([self.A, col[:, None]])
        self.c = np.append(self.c, float(coef))
        self.tags.append(tag)


@dataclass
class LpSolution:
    """Primal/dual pair.  At status 'optimal' it satisfies feasibility,
    strong duality and complementary slackness within the solver tolerances."""

    x: np.ndarray
    duals: np.ndarray
    objective: float
    status: str  # optimal | infeasible | unbounded
    basis: tuple = ()
    pivots: int = 0


@dataclass
class PricingOutcome:
    """Columns proposed by a pricing oracle.

    Each entry is (column vector, objective coefficient, tag).
    best_violation is c_j - y.A_j of the best column found, clipped at 0:
    positive improves the (maximizing) master.
    """

    columns: list
    best_violation: float = 0.0


def solve_lp(lp: LinearProgram, warm_basis=None) -> LpSolution:
    """Solve an equality-form LP, returning primal, duals and a reusable basis.

    Infeasible and unbounded programs are reported through `status`, never by
    raising.  Deterministic for identical inputs (and identical warm basis).
    The primal is verified against Ax = b after the solve; an ill-conditioned
    terminal basis (possible under heavy degeneracy) triggers one clean
    re-solve without the warm basis before giving up.
    """
    reduced = _presolve_rows(lp)
    if reduced is None:
        return LpSolution(
            x=np.full(lp.num_cols, np.nan), duals=np.full(lp.num_rows, np.nan),
            objective=np.nan, status="infeasible", basis=(), pivots=0,
        )
    attempts = ([warm_basis] if warm_basis is not None else []) + [None]
    sol = None
    for warm in attempts:
        sol = _solve_lp_once(reduced, warm)
        if sol.status != "optimal" or _solution_clean(reduced, sol):
            return sol
    raise LpError(
        f"terminal basis numerically unstable: primal residual {_primal_residual(reduced, sol.x):.3e}"
    )


def _presolve_rows(lp: LinearProgram):
    """Zero out numerically dependent rows (rank-revealing Gram-Schmidt).

    The simplex then works on a full-row-rank system: dependent rows would
    otherwise force near-singular bases whose duals explode.  A dependent row
    whose right-hand side is inconsistent makes the program infeasible
    (returns None).  Zeroing rather than deleting keeps row indexing and
    warm bases stable; the zeroed rows keep their phase-1 artificials basic
    at level zero, which pins their duals to 0 (a valid completion, since
    the dropped rows are combinations of the kept ones).
    """
    a = lp.A
    b = lp.b
    m, n = a.shape
    # rhs consistency is judged at the same scale as row dependence: a row
    # explained up to 1e-7 noise may carry rhs noise of the same order
    rhs_tol = max(FEAS_TOL, 1e-6) * (1.0 + np.abs(b).max(initial=0.0))
    aug = np.hstack([a, b[:, None]]).astype(float)
    kept_units = []
    zero_rows = []
    for i in range(m):
        r = aug[i].copy()
        for u in kept_units:
            r -= (r[:n] @ u[:n]) * u
        # one re-orthogonalization pass keeps the test stable
        for u in kept_units:
            r -= (r[:n] @ u[:n]) * u
        resid = float(np.linalg.norm(r[:n]))
        original = float(np.linalg.norm(aug[i, :n]))
        if resid > 1e-7 * max(1.0, original):
            kept_units.append(r / resid)
        elif abs(r[n]) > rhs_tol:
            return None
        else:
            zero_rows.append(i)
    if not zero_rows:
        return lp
    a2 = a.copy()
    b2 = b.copy()
    a2[zero_rows, :] = 0.0
    b2[zero_rows] = 0.0
    return LinearProgram(c=lp.c.copy(), A=a2, b=b2, tags=list(lp.tags))


def _primal_residual(lp: LinearProgram, x: np.ndarray) -> float:
    return float(np.abs(lp.A @ x - lp.b).max(initial=0.0))


def _solution_clean(lp: LinearProgram, sol: LpSolution) -> bool:
    """Sanity of a claimed optimum: feasible primal and dual-feasible duals.

    A nearly singular terminal basis (possible under heavy degeneracy with
    near-duplicate columns) pollutes both; either symptom forces a re-solve.
    """
    if _primal_residual(lp, sol.x) > FEAS_TOL * (1.0 + np.abs(lp.b).max(initial=0.0)):
        return False
    reduced = lp.c - sol.duals @ lp.A
    slack_tol = 1e-6 * (1.0 + np.abs(lp.c).max(initial=0.0))
    return bool(reduced.max(initial=0.0) <= slack_tol)


def _solve_lp_once(lp: LinearProgram, warm_basis) -> LpSolution:
    m, n = lp.num_rows, lp.num_cols

    # normalize rhs signs; remember flips to restore dual orientation
    flip = lp.b < 0
    b = np.where(flip, -lp.b, lp.b)
    a = lp.A * np.where(flip, -1.0, 1.0)[:, None]

    # working matrix: artificial identity block first, then the real columns,
    # so real-column indices stay stable when columns are added between solves
    work = np.hstack([np.eye(m), a])
    real = np.zeros(m + n, dtype=bool)
    real[m:] = True
    c_work = np.concatenate([np.zeros(m), lp.c])

    basis = None
    if warm_basis is not None and len(warm_basis) == m:
        cand = np.asarray(warm_basis, dtype=int)
        if cand.max(initial=-1) < m + n:
            try:
                xb = np.linalg.solve(work[:, cand], b)
            except np.linalg.LinAlgError:
                xb = None
            if xb is not None and xb.min() >= -FEAS_TOL and np.all(
                xb[~real[cand]] <= FEAS_TOL
            ):
                basis = cand.copy()

    pivots = 0
    if basis is None:
        # phase 1: maximize minus the artificial mass from the all-artificial basis
        basis = np.arange(m)
        phase1_cost = np.concatenate([-np.ones(m), np.zeros(n)])
        basis, xb, status, pivots = _simplex(work, b, phase1_cost, basis, ~real, pivots)
        art_mass = float(xb[~real[basis]].sum()) if status == "optimal" else np.inf
        if status != "optimal" or art_mass > FEAS_TOL * (1.0 + abs(b).max(initial=0.0)):
            return LpSolution(
                x=np.full(n, np.nan), duals=np.full(m, np.nan),
                objective=np.nan, status="infeasible", basis=(), pivots=pivots,
            )

    basis, xb, status, pivots = _simplex(work, b, c_work, basis, ~real, pivots)
    if status == "unbounded":
        return LpSolution(
            x=np.full(n, np.nan), duals=np.full(m, np.nan),
            objective=np.nan, status="unbounded", basis=tuple(basis), pivots=pivots,
        )

    x = np.zeros(n)
    for pos, j in enumerate(basis):
        if real[j]:
            x[j - m] = max(xb[pos], 0.0)
    y = np.linalg.solve(work[:, basis].T, c_work[basis])
    y = np.where(flip, -y, y)
    objective = float(lp.c @ x)
    return LpSolution(
        x=x, duals=y, objective=objective,
        status="optimal", basis=tuple(int(j) for j in basis), pivots=pivots,
    )


def _simplex(work, b, cost, basis, artificial, pivots):
    """Primal simplex maximizing cost . x on the working matrix from a given
    basis; `pivots` counts the solve's pivots so far, which together stay
    within MAX_PIVOTS.  Returns (basis, basic values, status, pivots).

    `artificial` marks columns that must stay at zero level: they never
    enter, and rows where they sit basic force a zero-ratio exit as soon
    as the entering column touches them.

    Outside Bland's rule, an entering column whose ratio test leaves only a
    negligible pivot is passed over until the next pivot, as long as another
    column can enter: pivoting on such an element makes a near-singular
    basis, whose next ratio test is computed from noise and can leave the
    basic solution infeasible.
    """
    m = b.size
    basis = np.array(basis, dtype=int)
    degenerate_streak = 0
    bland_threshold = 5 * (m + work.shape[1])
    passed_over = np.zeros(work.shape[1], dtype=bool)
    while True:
        bmat = work[:, basis]
        xb = np.linalg.solve(bmat, b)
        y = np.linalg.solve(bmat.T, cost[basis])
        reduced = cost - y @ work
        reduced[basis] = 0.0
        enter_ok = (reduced > PIVOT_TOL) & ~artificial
        if not enter_ok.any():
            return basis, xb, "optimal", pivots
        if pivots >= MAX_PIVOTS:
            raise LpError(f"pivot limit {MAX_PIVOTS} exceeded")
        candidates = np.flatnonzero(enter_ok & ~passed_over)
        forced = candidates.size == 0
        if forced:
            candidates = np.flatnonzero(enter_ok)
        bland = degenerate_streak > bland_threshold
        if bland:
            j = int(candidates[0])  # Bland: smallest eligible index
        else:
            j = int(candidates[np.argmax(reduced[candidates])])
        d = np.linalg.solve(bmat, work[:, j])

        candidates = []
        for i in range(m):
            if artificial[basis[i]] and xb[i] <= 1e-9:
                # an artificial already at zero level leaves the moment the
                # entering column touches its row (either sign of the pivot)
                if abs(d[i]) > PIVOT_TOL:
                    t = 0.0
                else:
                    continue
            elif d[i] > PIVOT_TOL:
                t = max(xb[i], 0.0) / d[i]
            else:
                continue
            candidates.append((t, i))
        if not candidates:
            return basis, xb, "unbounded", pivots
        if bland:
            leave, best_t = _bland_leaving(candidates, basis)
        else:
            leave, best_t = _choose_leaving(candidates, xb, d, basis, artificial)
            if abs(d[leave]) < NEGLIGIBLE_PIVOT and not forced:
                passed_over[j] = True
                continue
        degenerate_streak = degenerate_streak + 1 if (best_t * reduced[j] <= 1e-12 or bland) else 0
        basis[leave] = j
        pivots += 1
        passed_over[:] = False


def _ratio_window(best: float) -> float:
    return best + 1e-9 * (1.0 + best)


def _bland_leaving(candidates, basis):
    """Bland's leaving rule: among the rows tied at the minimum ratio, the one
    whose basic variable has the smallest index."""
    best = min(t for t, _ in candidates)
    window = _ratio_window(best)
    leave = min((i for t, i in candidates if t <= window), key=lambda i: basis[i])
    return leave, best


def _choose_leaving(candidates, xb, d, basis, artificial):
    """Ratio-test selection with two stability passes.

    Inside a small window around the best ratio the largest pivot wins.  If
    even that pivot is negligible (a near-zero basic variable blocking with a
    near-zero coefficient), the blocking rows with negligible pivots are
    dropped and the step re-taken against the healthy rows, provided the
    whole basic solution stays feasible to 1e-9; pivoting on such an element
    would leave a near-singular basis.
    """

    def pick(cands):
        best = min(t for t, _ in cands)
        window = _ratio_window(best)
        chosen = -1
        for t, i in cands:
            if t > window:
                continue
            if chosen < 0 or _prefer_leaving(d, basis, artificial, i, chosen):
                chosen = i
        return chosen, best

    leave, best_t = pick(candidates)
    if abs(d[leave]) < NEGLIGIBLE_PIVOT:
        strong = [(t, i) for t, i in candidates if abs(d[i]) >= NEGLIGIBLE_PIVOT]
        if strong:
            alt_leave, alt_t = pick(strong)
            drift = xb - alt_t * d
            drift[alt_leave] = alt_t
            if float(drift.min()) >= -1e-9:
                return alt_leave, alt_t
    return leave, best_t


def _prefer_leaving(d, basis, artificial, i, current) -> bool:
    # stability first: the larger pivot wins; then drive artificials out;
    # then smallest column index (deterministic)
    pi, pc = abs(d[i]), abs(d[current])
    if abs(pi - pc) > 1e-12 * max(pi, pc, 1.0):
        return pi > pc
    ai, ac = artificial[basis[i]], artificial[basis[current]]
    if ai != ac:
        return ai
    return basis[i] < basis[current]


def column_generation(master: LinearProgram, pricing, tol: float = 1e-7, max_rounds: int = 100):
    """Generic column-generation loop.

    `pricing(sol) -> PricingOutcome` gets the master's current LpSolution and
    proposes columns; ones that genuinely improve the master (reduced cost
    against `sol.duals` beyond tol, not duplicating an existing column within
    DEDUP_TOL in the coordinate max-norm) are added and the master is
    re-solved from the previous basis.  A round that adds nothing ends the
    loop with converged=True, so a pricing callback that has certified the
    master stops it by returning no columns.  Returns
    (solution, rounds, converged); rounds counts master re-solves.  This is
    the one-task case of column_generation_task.
    """

    def priced(sol):
        yield from ()  # a task that makes no search request
        return pricing(sol)

    return lockstep([column_generation_task(master, priced, tol, max_rounds)])[0]


def column_generation_task(master: LinearProgram, pricing, tol: float = 1e-7,
                           max_rounds: int = 100):
    """column_generation as a resumable task (see optim.lockstep).

    `pricing(sol)` returns a task whose result is the PricingOutcome; the
    search requests it yields pass through this task, so loops of several
    masters can run in lockstep.  Returns (solution, rounds, converged).
    """
    sol = solve_lp(master)
    if sol.status != "optimal":
        raise LpError(f"initial master is {sol.status}")
    rounds = 0
    converged = False
    while rounds < max_rounds:
        outcome = yield from pricing(sol)
        added = 0
        for col, coef, tag in outcome.columns:
            col = np.asarray(col, dtype=float).reshape(-1)
            gain = float(coef) - float(sol.duals @ col)
            if gain <= tol:
                continue
            if _duplicate_column(master.A, col):
                continue
            master.add_column(col, coef, tag)
            added += 1
        if added == 0:
            converged = True
            break
        new_sol = solve_lp(master, warm_basis=sol.basis)
        if new_sol.status != "optimal":
            raise LpError(f"master became {new_sol.status} after adding columns")
        wobble = 1e-7 * (1.0 + abs(sol.objective))  # degenerate-basis roundoff
        if new_sol.objective < sol.objective - wobble:
            raise LpError("master objective decreased")
        sol = new_sol
        rounds += 1
    return sol, rounds, converged


def _duplicate_column(a: np.ndarray, col: np.ndarray) -> bool:
    if a.shape[1] == 0:
        return False
    return bool((np.abs(a - col[:, None]).max(axis=0) < DEDUP_TOL).any())
