"""The C_{1,inf} (Holevo) capacity engine.

Three alternating steps: a fixed-average master LP over candidate signal
states, a concave ascent of the average state against the LP dual, and a
nonlinear pricing search for new signal states that violate the dual
constraints.  Certificates (per-round duality data, the final pricing
residual) are carried on the result rather than any global-optimality claim.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (
    LN2,
    DensityMatrix,
    DimensionError,
    Ensemble,
    HermitianCoords,
    HermitianMatrix,
    PureState,
    QuantumChannel,
    channel_apply_mat,
    channel_output_pure,
    coords_to_hermitian,
    entropy_of_spectrum,
    fix_phase,
    mat_to_coords,
    random_pure,
    shannon_entropy,
)
from .lp import LinearProgram, LpSolution, solve_lp
from .optim import (
    EntropySum,
    ascend_density_step,
    batched_objective,
    line_max_concave,
    log2_safe,
    minimize_on_sphere,
    renormalize_density,
)


@dataclass
class C1InfOptions:
    tol: float = 1e-7
    starts: int = 8
    seed: int = 0
    max_rounds: int = 200
    inner_rho_steps: int = 40
    pricing_tol: float = 1e-7
    initial_weights: tuple = None  # restricted mode: starting ensemble weights


@dataclass
class C1InfProblem:
    """A channel plus an optional restriction of the usable signal states
    (cq channels like the trine let the sender pick only from a fixed set)."""

    channel: QuantumChannel
    restricted_signals: list = None
    options: C1InfOptions = field(default_factory=C1InfOptions)

    def __post_init__(self):
        if self.restricted_signals:
            for s in self.restricted_signals:
                if s.dim != self.channel.dim_in:
                    raise DimensionError(
                        f"signal dim {s.dim} != channel input dim {self.channel.dim_in}"
                    )


@dataclass
class PricingReport:
    state: PureState
    reduced_cost: float
    start_class: str  # "random" | "support"


@dataclass
class C1InfResult:
    value: float
    ensemble: Ensemble
    rho: DensityMatrix
    tau: HermitianMatrix
    dual_gap: float
    pricing_residual: float
    status: str  # "converged" | "round-limit"
    rounds: int
    trace: list  # one dict per round with duality data


def output_entropy_pure(ch: QuantumChannel, vec: np.ndarray) -> float:
    out = channel_output_pure(ch, vec)
    if ch.diagonal_output:
        return shannon_entropy(np.clip(out.diagonal().real, 0.0, None))
    return entropy_of_spectrum(np.linalg.eigvalsh(out))


def output_entropy_mat(ch: QuantumChannel, mat: np.ndarray) -> float:
    out = channel_apply_mat(ch, mat)
    if ch.diagonal_output:
        return shannon_entropy(np.clip(out.diagonal().real, 0.0, None))
    return entropy_of_spectrum(np.linalg.eigvalsh(out))


def build_fixed_rho_lp(
    ch: QuantumChannel, states: list, rho: DensityMatrix
) -> LinearProgram:
    """Master LP: minimize sum_i p_i H(N(v_i v_i^dag)) with the ensemble
    average pinned to rho.

    The matrix equality contributes d^2 real rows (the Hermitian coordinate
    encoding); the probability normalization is implicit in the trace rows.
    """
    if rho.dim != ch.dim_in:
        raise DimensionError(f"rho dim {rho.dim} != channel input dim {ch.dim_in}")
    cols, costs = [], []
    for v in states:
        if v.dim != ch.dim_in:
            raise DimensionError(f"state dim {v.dim} != channel input dim {ch.dim_in}")
        cols.append(mat_to_coords(v.projector()))
        costs.append(output_entropy_pure(ch, v.vec))
    return LinearProgram(
        c=np.array(costs),
        A=np.stack(cols, axis=1),
        b=mat_to_coords(rho.mat),
        sense="min",
        tags=list(states),
    )


def dual_tau(sol: LpSolution, dim: int) -> HermitianMatrix:
    """Reconstruct the dual Hermitian matrix tau from the master duals."""
    if sol.status != "optimal":
        raise ValueError(f"dual extraction needs an optimal solution, got {sol.status}")
    return coords_to_hermitian(HermitianCoords(dim, sol.duals))


def _pricing_objective(ch: QuantumChannel, tau_mat: np.ndarray):
    """f(v) = H(N(v v^dag)) - v^dag tau v with its complex gradient.

    The returned fun_grad takes a batch of shape (S, d) and returns values of
    shape (S,) and gradients of shape (S, d); a single vector of shape (d,)
    gives (float, gradient of shape (d,)).
    """
    kraus = np.stack(ch.kraus)
    kraus_h = kraus.conj()

    @batched_objective
    def fun_grad(v):
        imgs = np.einsum("kij,sj->ski", kraus, v)  # A_k v
        if ch.diagonal_output:
            probs = (imgs.real**2 + imgs.imag**2).sum(axis=1)
            keep = probs > 1e-12
            logp = np.where(keep, np.log2(np.where(keep, probs, 1.0)), 0.0)
            f_ent = -(probs * logp).sum(axis=1)
            log_imgs = logp[:, None, :] * imgs
        else:
            out = np.einsum("ski,skj->sij", imgs, imgs.conj())
            f_ent = entropy_of_spectrum(np.linalg.eigvalsh(out))
            log_imgs = np.einsum("sij,skj->ski", log2_safe(out), imgs)
        tau_v = v @ tau_mat.T
        f = f_ent - np.einsum("si,si->s", v.conj(), tau_v).real
        adjoint = np.einsum("kji,skj->si", kraus_h, log_imgs)  # N^dag(log N(v v^dag)) v
        return f, -2.0 * (adjoint + v / LN2 + tau_v)

    return fun_grad


def pricing_search(
    ch: QuantumChannel,
    tau: HermitianMatrix,
    starts: int,
    rng,
    support=(),
    tol: float = 1e-7,
) -> list:
    """Look for unit vectors violating the dual constraint, i.e. with
    f(v) = H(N(v v^dag)) - v^dag tau v < -tol.

    Projected-gradient (L-BFGS) descent runs from `starts` random vectors
    plus every support state; all distinct violating local minima are
    returned, best first.  An empty list means pricing found nothing.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    fun_grad = _pricing_objective(ch, tau.mat)
    start_vecs = []
    classes = []
    for v in support:
        start_vecs.append(v.vec)
        classes.append("support")
    for _ in range(starts):
        start_vecs.append(random_pure(rng, ch.dim_in).vec)
        classes.append("random")
    minima = minimize_on_sphere(fun_grad, ch.dim_in, start_vecs)
    reports = []
    for f, v in minima:
        if f < -tol:
            reports.append(PricingReport(PureState(v), float(f), _nearest_class(v, start_vecs, classes)))
    return reports


def _nearest_class(v, start_vecs, classes) -> str:
    dists = [np.abs(np.abs(np.vdot(v, s)) - 1.0) for s in start_vecs]
    return classes[int(np.argmin(dists))]


def g_objective(ch: QuantumChannel, tau_mat: np.ndarray) -> EntropySum:
    """g(rho) = H(N(rho)) - Tr(tau rho), the average-state ascent's objective."""
    return EntropySum([(1.0, ch)], linear=-tau_mat)


def update_rho(ch: QuantumChannel, tau: HermitianMatrix, rho: DensityMatrix) -> DensityMatrix:
    """One ascent step of g(rho) = H(N(rho)) - Tr(tau rho).

    The move follows the traceless projection of the gradient, clipped at the
    PSD boundary, with a 12-round derivative bisection for the step length.
    Returns rho unchanged when no ascent direction of norm above 1e-9 exists.
    """
    g = g_objective(ch, tau.mat)
    new_mat, moved = ascend_density_step(g.grad, rho.mat, line_deriv=g.line_deriv)
    if not moved:
        return rho
    if g.value(new_mat) < g.value(rho.mat):
        return rho
    return DensityMatrix(renormalize_density(new_mat))


def _ascend_rho(ch, tau_mat, rho_mat, steps, tol):
    """Repeat single ascent steps; returns (new_mat, total_gain)."""
    g = g_objective(ch, tau_mat)
    base = g.value(rho_mat)
    cur, cur_val = rho_mat, base
    for _ in range(steps):
        nxt, moved = ascend_density_step(g.grad, cur, bisect_rounds=30, line_deriv=g.line_deriv)
        if not moved:
            break
        nxt = renormalize_density(nxt)
        val = g.value(nxt)
        if val <= cur_val + tol / 10.0:
            if val > cur_val:
                cur, cur_val = nxt, val
            break
        cur, cur_val = nxt, val
    return cur, cur_val - base


def _ascend_rho_in_hull(ch, tau_mat, projectors, q, steps, tol):
    """Away-step Frank-Wolfe for g over the convex hull of fixed projectors."""
    q = np.asarray(q, dtype=float)
    q = np.clip(q, 0.0, None)
    q = q / q.sum()
    mats = np.stack(projectors)
    g_obj = g_objective(ch, tau_mat)

    def rho_of(qv):
        return np.tensordot(qv, mats, axes=(0, 0))

    base = g_obj.value(rho_of(q))
    cur_val = base
    for _ in range(steps):
        rho = rho_of(q)
        g = g_obj.grad(rho)
        scores = np.array([float(np.trace(g @ m).real) for m in mats])
        fw = int(np.argmax(scores))
        support = np.flatnonzero(q > 1e-12)
        away = int(support[np.argmin(scores[support])])
        fw_gain = scores[fw] - float(scores @ q)
        away_gain = float(scores @ q) - scores[away]
        if max(fw_gain, away_gain) < tol / 10.0:
            break
        if fw_gain >= away_gain:
            dir_q = -q.copy()
            dir_q[fw] += 1.0
            t_hi = 1.0
        else:
            dir_q = q.copy()
            dir_q[away] -= 1.0
            t_hi = q[away] / (1.0 - q[away]) if q[away] < 1.0 else 1.0
        d_mat = np.tensordot(dir_q, mats, axes=(0, 0))
        t = line_max_concave(g_obj.line_deriv(rho, d_mat), t_hi, rounds=20)
        if t <= 0.0:
            break
        q = np.clip(q + t * dir_q, 0.0, None)
        q = q / q.sum()
        cur_val = g_obj.value(rho_of(q))
    return q, cur_val - base


def _dedup_add(states, coords_list, new_states, dedup_tol=1e-9, costs=None, ch=None):
    added = []
    for v in new_states:
        col = mat_to_coords(v.projector())
        if all(np.abs(col - c).max() > dedup_tol for c in coords_list):
            states.append(v)
            coords_list.append(col)
            if costs is not None:
                costs.append(output_entropy_pure(ch, v.vec))
            added.append(v)
    return added


def c1inf(problem: C1InfProblem) -> C1InfResult:
    """Run the alternating master/ascent/pricing loop.

    The dual-guided move of the average state is a "move and hope" step: the
    dual is only valid on the current column set, so a candidate move is
    accepted (after backtracking halvings) only if the true objective
    H(N(rho)) - master(rho) improves, and is dropped otherwise.  With
    restricted signals the pricing step evaluates the discrete set exactly
    and the average-state ascent stays inside the signals' hull.  Per-round
    duality data is kept on `trace`.
    """
    ch = problem.channel
    opts = problem.options
    d = ch.dim_in
    rng = np.random.default_rng(opts.seed)
    restricted = bool(problem.restricted_signals)

    if restricted:
        states = list(problem.restricted_signals)
        coords_list = [mat_to_coords(v.projector()) for v in states]
        costs = [output_entropy_pure(ch, v.vec) for v in states]
        weights = np.full(len(states), 1.0 / len(states))
        if opts.initial_weights is not None:
            weights = np.asarray(opts.initial_weights, dtype=float)
            weights = np.clip(weights, 0.0, None)
            weights = weights / weights.sum()
        projectors = [v.projector() for v in states]
        rho_mat = np.tensordot(weights, np.stack(projectors), axes=(0, 0))
    else:
        states = [PureState(e) for e in np.eye(d)]
        coords_list = [mat_to_coords(v.projector()) for v in states]
        costs = [output_entropy_pure(ch, v.vec) for v in states]
        _dedup_add(states, coords_list, [random_pure(rng, d) for _ in range(opts.starts)],
                   costs=costs, ch=ch)
        rho_mat = np.eye(d) / d

    def solve_at(mat, warm):
        """Master solve at a given average state; returns None if infeasible.

        Equivalent to solve_lp(build_fixed_rho_lp(...)) but reuses the cached
        per-state coordinates and output entropies."""
        rho = DensityMatrix(renormalize_density(mat))
        lp = LinearProgram(
            c=np.array(costs),
            A=np.stack(coords_list, axis=1),
            b=mat_to_coords(rho.mat),
            sense="min",
            tags=list(states),
        )
        sol = solve_lp(lp, warm_basis=warm)
        if sol.status != "optimal":
            return None
        tau = dual_tau(sol, d)
        return {
            "rho": rho,
            "sol": sol,
            "tau": tau,
            "value": output_entropy_mat(ch, rho.mat) - sol.objective,
        }

    def anchor(mat):
        """Make `mat` representable by the master columns (unrestricted mode)."""
        if restricted:
            return
        _, vecs = np.linalg.eigh(renormalize_density(mat))
        _dedup_add(states, coords_list, [PureState(fix_phase(vecs[:, k])) for k in range(d)],
                   costs=costs, ch=ch)

    cur = solve_at(rho_mat, None)
    if cur is None:
        anchor(rho_mat)
        cur = solve_at(rho_mat, None)
    trace_rows = []
    status = "round-limit"
    pricing_residual = np.inf
    rounds_done = 0

    for rnd in range(opts.max_rounds):
        rounds_done = rnd + 1
        value_before = cur["value"]
        trace_rows.append(
            {
                "round": rnd,
                "master_objective": cur["sol"].objective,
                "tr_tau_rho": float(np.trace(cur["tau"].mat @ cur["rho"].mat).real),
                "round_value": cur["value"],
                "value": cur["value"],
                "columns": len(states),
            }
        )

        # pricing: hunt for signal states violating the dual constraint
        if restricted:
            f_values = [
                output_entropy_pure(ch, v.vec)
                - float(np.vdot(v.vec, cur["tau"].mat @ v.vec).real)
                for v in states
            ]
            pricing_residual = max(0.0, -min(f_values))
            added = []
        else:
            x = cur["sol"].x  # columns are append-only, so indices stay aligned
            support = [states[j] for j in range(x.size) if x[j] > 1e-9]
            reports = pricing_search(
                ch, cur["tau"], opts.starts, rng, support=support, tol=opts.pricing_tol
            )
            pricing_residual = max(0.0, -min((r.reduced_cost for r in reports), default=0.0))
            added = _dedup_add(states, coords_list, [r.state for r in reports],
                               costs=costs, ch=ch)
        if added:
            nxt = solve_at(cur["rho"].mat, cur["sol"].basis)
            if nxt is not None:
                cur = nxt  # columns only improve the master

        # dual-guided candidate for the average state
        if restricted:
            new_w, g_gain = _ascend_rho_in_hull(
                ch, cur["tau"].mat, projectors, cur["sol"].x, opts.inner_rho_steps, opts.tol
            )
            cand_mat = np.tensordot(new_w, np.stack(projectors), axes=(0, 0))
        else:
            cand_mat, g_gain = _ascend_rho(
                ch, cur["tau"].mat, cur["rho"].mat, opts.inner_rho_steps, opts.tol
            )
        rho_accepted = False
        cols_before_trials = len(states)
        if g_gain > opts.tol:
            # anchoring the full candidate makes every fractional trial a
            # convex combination of representable states, hence feasible
            anchor(cand_mat)
            delta = cand_mat - cur["rho"].mat
            for frac in (1.0, 0.5, 0.25, 0.125, 0.0625):
                trial_mat = cur["rho"].mat + frac * delta
                trial = solve_at(trial_mat, cur["sol"].basis)
                if trial is not None and trial["value"] > cur["value"] + opts.tol / 10.0:
                    cur = trial
                    rho_accepted = True
                    break
        if not rho_accepted and len(states) > cols_before_trials:
            # trial anchoring grew the column set; keep cur in sync with it
            refreshed = solve_at(cur["rho"].mat, cur["sol"].basis)
            if refreshed is not None:
                cur = refreshed

        if not added and not rho_accepted and cur["value"] - value_before <= opts.tol:
            status = "converged"
            break

    sol = cur["sol"]
    probs = np.clip(sol.x, 0.0, None)
    keep = probs > 1e-9
    probs = probs[keep] / probs[keep].sum()
    members = [s for s, k in zip(states, keep) if k]
    ensemble = Ensemble(list(zip(probs, members)))
    return C1InfResult(
        value=cur["value"],
        ensemble=ensemble,
        rho=cur["rho"],
        tau=cur["tau"],
        dual_gap=pricing_residual + max(0.0, cur["sol"].objective
                                        - float(np.trace(cur["tau"].mat @ cur["rho"].mat).real)),
        pricing_residual=pricing_residual,
        status=status,
        rounds=rounds_done,
        trace=trace_rows,
    )
