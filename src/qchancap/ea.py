"""Entanglement-assisted capacity and related density-matrix ascents.

C_E is a concave maximization over input states, solved Frank-Wolfe style
(linearize, move toward the best vertex, exact line search) with projected
gradient refinement; the Frank-Wolfe gap at the returned iterate is a true
upper bound on suboptimality.  The single-letter coherent information gets a
multistart ascent with no global claim.  The limited-entanglement formula is
evaluated by a column-generation heuristic and flagged experimental.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (
    LN2,
    DensityMatrix,
    Ensemble,
    QuantumChannel,
    channel_apply_mat,
    complementary_channel,
    coords_to_mat,
    entropy_of_spectrum,
    environment_output,
    identity_channel,
    mat_to_coords,
    von_neumann_entropy,
)
from .c1inf import C1InfOptions, C1InfProblem, c1inf
from .info import limited_ea_objective, quantum_mutual_information
from .lp import LinearProgram, solve_lp
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
class CEResult:
    value: float
    rho_star: DensityMatrix
    gradient_residual: float  # Frank-Wolfe gap at termination
    iterations: int
    entanglement_rate: float  # H(rho_star), EPR pairs consumed per use


@dataclass
class QResult:
    value: float
    rho_star: DensityMatrix
    local_maxima: list  # (value, DensityMatrix), all distinct stationary points


def _entropy(mat: np.ndarray) -> float:
    return entropy_of_spectrum(np.linalg.eigvalsh(mat))


def qmi_objective(ch: QuantumChannel) -> EntropySum:
    """S(rho) + S(N(rho)) - S(N^c(rho)), the quantum mutual information."""
    return EntropySum([(1.0, identity_channel(ch.dim_in)), (1.0, ch),
                       (-1.0, complementary_channel(ch))])


def coherent_objective(ch: QuantumChannel) -> EntropySum:
    """S(N(rho)) - S(N^c(rho)), the coherent information."""
    return EntropySum([(1.0, ch), (-1.0, complementary_channel(ch))])


def _fw_step(obj: EntropySum, mat, val):
    """One Frank-Wolfe step from `mat`, whose value is `val`: the gap, and the
    line-searched move toward the maximizing vertex (a pure state of the
    gradient's top eigenvector) with its value."""
    g = obj.grad(mat)
    eigs, vecs = np.linalg.eigh(g)
    gap = float(eigs[-1] - np.trace(g @ mat).real)
    vertex = np.outer(vecs[:, -1], vecs[:, -1].conj())
    direction = vertex - mat
    t = line_max_concave(obj.line_deriv(mat, direction), 1.0, rounds=40)
    if t > 0:
        nxt = mat + t * direction
        nxt_val = obj.value(nxt)
        if nxt_val >= val:
            return gap, nxt, nxt_val
    return gap, mat, val


def _refine(obj: EntropySum, mat, val, steps):
    """Up to `steps` projected-gradient steps, each kept only if it gains."""
    for _ in range(steps):
        nxt, moved = ascend_density_step(obj.grad, mat, bisect_rounds=30,
                                         line_deriv=obj.line_deriv)
        if not moved:
            break
        nxt = renormalize_density(nxt)
        nxt_val = obj.value(nxt)
        if nxt_val <= val:
            break
        mat, val = nxt, nxt_val
    return mat, val


def c_ea(ch: QuantumChannel, tol: float = 1e-7, max_iter: int = 300) -> CEResult:
    """Entanglement-assisted capacity by certified concave maximization.

    Alternates Frank-Wolfe steps (which provide the duality-gap certificate)
    with projected-gradient refinement for fast interior convergence.
    Iterates are kept infinitesimally mixed so the matrix logs stay tame.
    """
    d = ch.dim_in
    mix = np.eye(d) / d
    mat = mix.copy()
    obj = qmi_objective(ch)
    gap = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mat = (1.0 - 1e-9) * mat + 1e-9 * mix
        gap, mat, val = _fw_step(obj, mat, obj.value(mat))
        if gap < tol:
            break
        mat, _ = _refine(obj, mat, val, 4)
    rho_star = DensityMatrix(renormalize_density(mat))
    return CEResult(
        value=quantum_mutual_information(ch, rho_star),
        rho_star=rho_star,
        gradient_residual=gap,
        iterations=iterations,
        entanglement_rate=von_neumann_entropy(rho_star),
    )


def coherent_info_max(ch: QuantumChannel, starts: int = 4, seed: int = 0) -> QResult:
    """Multistart ascent of the single-letter coherent information.

    There may be multiple local maxima; every distinct stationary point
    found is returned and the best is reported, with no global claim.
    Stationarity means a full Frank-Wolfe + projected-gradient pass stopped
    improving beyond tolerance.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    d = ch.dim_in
    rng = np.random.default_rng(seed)
    obj = coherent_objective(ch)

    start_mats = [np.eye(d) / d]
    for _ in range(max(starts, d)):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        start_mats.append(
            (1 - 1e-6) * np.outer(v, v.conj()) + 1e-6 * np.eye(d) / d
        )
    for _ in range(max(starts, d)):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        full = g @ g.conj().T
        start_mats.append(full / full.trace().real)

    locals_found = []
    for mat in start_mats:
        val = obj.value(mat)
        for _ in range(200):
            prev = val
            _, mat, val = _fw_step(obj, mat, val)
            mat, val = _refine(obj, mat, val, 3)
            if val - prev < 1e-9:
                break
        locals_found.append((val, renormalize_density(mat)))

    distinct = []
    for val, mat in sorted(locals_found, key=lambda t: -t[0]):
        if all(np.abs(mat - other.mat).max() > 1e-4 for _, other in distinct):
            distinct.append((val, DensityMatrix(mat)))
    best_val, best_rho = distinct[0]
    return QResult(value=best_val, rho_star=best_rho, local_maxima=distinct)


# ---------------------------------------------------------------------------
# Limited-entanglement capacity formula (experimental heuristic).
# ---------------------------------------------------------------------------

@dataclass
class LimitedEaOptions:
    seed: int = 0
    outer_rounds: int = 30
    pricing_starts: int = 6
    tol: float = 1e-6
    c1inf: C1InfOptions = field(default_factory=C1InfOptions)


@dataclass
class _DensityColumn:
    mat: np.ndarray
    coords: np.ndarray
    entropy: float
    gain: float  # H(rho) - H_env(rho), the p-linear objective piece


def _make_column(ch: QuantumChannel, mat: np.ndarray) -> _DensityColumn:
    h = _entropy(mat)
    return _DensityColumn(
        mat=mat,
        coords=mat_to_coords(mat),
        entropy=h,
        gain=h - _entropy(environment_output(ch, mat)),
    )


def _limited_master(columns, rho_bar, budget):
    d = rho_bar.shape[0]
    rows = d * d + 1
    a = np.zeros((rows, len(columns) + 1))
    c = np.zeros(len(columns) + 1)
    for j, col in enumerate(columns):
        a[: d * d, j] = col.coords
        a[d * d, j] = col.entropy
        c[j] = col.gain
    a[d * d, len(columns)] = 1.0  # slack for the entropy budget row
    b = np.concatenate([mat_to_coords(rho_bar), [budget]])
    return LinearProgram(c=c, A=a, b=b, sense="max")


def _limited_pricing(ch, tau, mu, columns, rho_bar, starts, rng, tol):
    """Ascend phi(rho) = (1-mu) H(rho) - H_env(rho) - Tr(tau rho) over densities
    rho = M M^dag / Tr(M M^dag).

    phi depends on M only through rho, which is invariant under scaling M, so
    this is a sphere search over vec(M) in C^{d^2}.  Returns the violating
    densities (phi(rho) > tol) as (violation, rho) pairs, best first.
    """
    d = ch.dim_in
    eye = np.eye(d)
    kraus = np.stack(ch.kraus)
    kraus_pairs = np.einsum("arp,brq->abpq", kraus.conj(), kraus)  # A_a^dag A_b

    def phi_parts(rho):
        """phi and its Hermitian gradient for a stack of densities (S, d, d)."""
        env = np.einsum("aij,sjl,bil->sab", kraus, rho, kraus.conj())  # Tr(A_a rho A_b^dag)
        phi = (
            (1.0 - mu) * entropy_of_spectrum(np.linalg.eigvalsh(rho))
            - entropy_of_spectrum(np.linalg.eigvalsh(env))
            - np.einsum("ij,sji->s", tau, rho).real
        )
        grad = (
            (1.0 - mu) * (-log2_safe(rho) - eye / LN2)
            + np.einsum("sab,abpq->spq", log2_safe(env), kraus_pairs)
            + eye / LN2
            - tau
        )
        return phi, grad

    @batched_objective
    def fun_grad(v):
        m = v.reshape(-1, d, d)
        t = np.einsum("si,si->s", v, v.conj()).real[:, None, None]
        rho = (m @ m.conj().swapaxes(1, 2)) / t
        phi, g = phi_parts(rho)
        p = g - np.einsum("sij,sji->s", g, rho).real[:, None, None] * eye
        return -phi, -(2.0 * (p @ m) / t).reshape(-1, d * d)

    start_mats = [np.linalg.cholesky(
        (1 - 1e-9) * col.mat + 1e-9 * eye / d) for col in columns[-3:]]
    start_mats.append(np.linalg.cholesky((1 - 1e-9) * rho_bar + 1e-9 * eye / d))
    for _ in range(starts):
        start_mats.append(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    start_vecs = [m.ravel() / np.linalg.norm(m) for m in start_mats]

    minima = minimize_on_sphere(fun_grad, d * d, start_vecs, gtol=1e-9, maxiter=300)
    rhos = np.stack([renormalize_density(m @ m.conj().T)
                     for m in (v.reshape(d, d) for _, v in minima)])
    violations, _ = phi_parts(rhos)
    found = [(float(val), rho) for val, rho in zip(violations, rhos) if val > tol]
    found.sort(key=lambda it: -it[0])
    return found


def limited_ea(ch: QuantumChannel, budget: float, opts: LimitedEaOptions = None):
    """EXPERIMENTAL: value of the limited-entanglement capacity formula.

    Maximizes over ensembles of density matrices whose average input entropy
    stays within `budget` bits, via a column-generation master over density
    columns, dual-guided pricing, and average-state moves accepted only on
    true-objective improvement.  Returns (value, Ensemble).  The endpoints
    reproduce the unassisted Holevo engine (budget 0) and c_ea (budget >=
    log2 d); in between the value is a heuristic lower evaluation of the
    formula with no capacity claim.
    """
    if budget < 0:
        raise ValueError("entanglement budget must be nonnegative")
    opts = opts or LimitedEaOptions()
    rng = np.random.default_rng(opts.seed)
    d = ch.dim_in
    eye = np.eye(d)

    base = c1inf(C1InfProblem(ch, options=opts.c1inf))
    top = c_ea(ch)

    columns = []
    coords_seen = []

    def add_column(mat):
        col = _make_column(ch, renormalize_density(mat))
        if budget <= 1e-12 and col.entropy > 1e-12:
            return False  # a zero budget admits only pure columns
        if all(np.abs(col.coords - s).max() > 1e-9 for s in coords_seen):
            columns.append(col)
            coords_seen.append(col.coords)
            return True
        return False

    for p, s in base.ensemble.items():
        add_column(s.projector())
    add_column(top.rho_star.mat)
    add_column(eye / d)

    def anchor(mat):
        _, vecs = np.linalg.eigh(renormalize_density(mat))
        for k in range(d):
            add_column(np.outer(vecs[:, k], vecs[:, k].conj()))

    def solve_at(rho_bar):
        lp = _limited_master(columns, rho_bar, budget)
        sol = solve_lp(lp)
        if sol.status != "optimal":
            return None
        total = _entropy(channel_apply_mat(ch, rho_bar)) + sol.objective
        return {"sol": sol, "rho": rho_bar, "total": total}

    # pick the best feasible starting average state
    candidates = [base.rho.mat, top.rho_star.mat, eye / d]
    cur = None
    for mat in candidates:
        mat = renormalize_density(mat)
        anchor(mat)
        trial = solve_at(mat)
        if trial is not None and (cur is None or trial["total"] > cur["total"]):
            cur = trial
    if cur is None:
        raise RuntimeError("limited-entanglement master could not be seeded")

    for _ in range(opts.outer_rounds):
        total_before = cur["total"]
        duals = cur["sol"].duals
        tau = coords_to_mat(duals[: d * d], d)
        mu = max(float(duals[d * d]), 0.0)

        added = False
        for _violation, rho in _limited_pricing(
            ch, tau, mu, columns, cur["rho"], opts.pricing_starts, rng, opts.tol
        ):
            added = add_column(rho) or added
        if added:
            nxt = solve_at(cur["rho"])
            if nxt is not None:
                cur = nxt

        # dual-guided move of the average state, accepted on true improvement
        u = EntropySum([(1.0, ch)], linear=tau)
        cand, moved = ascend_density_step(u.grad, cur["rho"], bisect_rounds=30,
                                          line_deriv=u.line_deriv)
        if moved:
            cand = renormalize_density(cand)
            delta = cand - cur["rho"]
            for frac in (1.0, 0.5, 0.25, 0.125):
                trial_mat = renormalize_density(cur["rho"] + frac * delta)
                anchor(trial_mat)
                trial = solve_at(trial_mat)
                if trial is not None and trial["total"] > cur["total"] + opts.tol / 10.0:
                    cur = trial
                    break
        if not added and cur["total"] - total_before <= opts.tol:
            break

    sol = cur["sol"]
    probs = np.clip(sol.x[: len(columns)], 0.0, None)
    keep = probs > 1e-9
    probs = probs[keep] / probs[keep].sum()
    members = [DensityMatrix(c.mat) for c, k in zip(columns, keep) if k]
    ensemble = Ensemble(list(zip(probs, members)))
    value, _ = limited_ea_objective(ch, ensemble)
    return value, ensemble
