"""Entanglement-assisted capacity and related density-matrix ascents.

C_E is a concave maximization over input states, solved Frank-Wolfe style
(linearize, move toward the best vertex, exact line search) with projected
gradient refinement; the Frank-Wolfe gap at the returned iterate is a true
upper bound on suboptimality.  The single-letter coherent information gets a
multistart ascent with no global claim.  The limited-entanglement formula
runs on c1inf's chi master over density columns, with the entanglement
budget as one linear row, and density pricing; it is flagged experimental.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    ENTROPY_CLIP,
    DensityMatrix,
    Ensemble,
    QuantumChannel,
    channel_apply_mat,
    check_tolerance,
    complementary_channel,
    environment_output,
    identity_channel,
    matrix_entropy,
    von_neumann_entropy,
)
from .c1inf import C1InfProblem, ChiMaster, c1inf, divergence_tau, maximize_chi
from .info import limited_ea_objective, quantum_mutual_information
from .optim import (
    EntropySum,
    ascend_density_step,
    batched_objective,
    line_max_concave,
    minimize_on_sphere,
    renormalize_density,
)

CEA_ITERS = 300  # c_ea's Frank-Wolfe iterations


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


def c_ea(ch: QuantumChannel, tol: float = 1e-7) -> CEResult:
    """Entanglement-assisted capacity by certified concave maximization.

    Alternates Frank-Wolfe steps (which provide the duality-gap certificate)
    with projected-gradient refinement for fast interior convergence, for at
    most CEA_ITERS iterations.  Iterates are kept infinitesimally mixed so
    the matrix logs stay tame.
    """
    check_tolerance(tol, "tol")
    d = ch.dim_in
    mix = np.eye(d) / d
    mat = mix.copy()
    obj = qmi_objective(ch)
    gap = np.inf
    iterations = 0
    for iterations in range(1, CEA_ITERS + 1):
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
# Limited-entanglement capacity formula (experimental).
# ---------------------------------------------------------------------------

ROUNDOFF_WEIGHT = 1e-12  # limited-EA drops ensemble members at or below this weight
OUTER_ROUNDS = 30  # limited-EA's master-and-pricing rounds
PRICING_STARTS = 6  # random starts of each density pricing search


@dataclass
class LimitedEaOptions:
    seed: int = 0
    tol: float = 1e-6

    def __post_init__(self):
        check_tolerance(self.tol, "LimitedEaOptions.tol")


def _density_master(ch: QuantumChannel, mats):
    """The chi master over density columns rho_i: outputs N(rho_i) and costs
    h_i = S(N^c(rho_i)) - S(rho_i), so that chi is the limited-entanglement
    formula; and the budget row s_i = S(rho_i), with entropies below
    ENTROPY_CLIP (a pure state's roundoff) set to 0."""
    mats = np.asarray(mats, dtype=complex)
    s = matrix_entropy(mats)
    s = np.where(s < ENTROPY_CLIP, 0.0, s)
    env = matrix_entropy(environment_output(ch, mats))
    return ChiMaster(channel_apply_mat(ch, mats), env - s, mats), s


def _limited_pricing(ch, tau, mu, columns, rho_bar, starts, rng, tol):
    """Ascend phi(rho) = (1-mu) H(rho) - H_env(rho) - Tr(tau rho) over densities
    rho = M M^dag / Tr(M M^dag).

    phi depends on M only through rho, which is invariant under scaling M, so
    this is a sphere search over vec(M) in C^{d^2}.  Returns the violating
    densities (phi(rho) > tol) as (violation, rho) pairs, best first.
    """
    d = ch.dim_in
    eye = np.eye(d)
    phi = EntropySum([(1.0 - mu, identity_channel(d)), (-1.0, complementary_channel(ch))],
                     linear=-tau)

    @batched_objective
    def fun_grad(v):
        m = v.reshape(-1, d, d)
        t = np.einsum("si,si->s", v, v.conj()).real[:, None, None]
        rho = (m @ m.conj().swapaxes(1, 2)) / t
        val, g = phi.value_grad(rho)
        p = g - np.einsum("sij,sji->s", g, rho).real[:, None, None] * eye
        return -val, -(2.0 * (p @ m) / t).reshape(-1, d * d)

    start_mats = [np.linalg.cholesky((1 - 1e-9) * mat + 1e-9 * eye / d)
                  for mat in [*columns[-3:], rho_bar]]
    for _ in range(starts):
        start_mats.append(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    start_vecs = [m.ravel() / np.linalg.norm(m) for m in start_mats]

    minima = minimize_on_sphere(fun_grad, d * d, start_vecs, gtol=1e-9, maxiter=300)
    rhos = np.stack([renormalize_density(m @ m.conj().T)
                     for m in (v.reshape(d, d) for _, v in minima)])
    violations = phi.value(rhos)
    found = [(float(val), rho) for val, rho in zip(violations, rhos) if val > tol]
    found.sort(key=lambda it: -it[0])
    return found


def limited_ea(ch: QuantumChannel, budget: float, opts: LimitedEaOptions = None):
    """EXPERIMENTAL: value of the limited-entanglement capacity formula
    (Shor, quant-ph/0402129): max S(N(rho)) - sum_i p_i [S(N^c(rho_i)) -
    S(rho_i)] over ensembles of densities with sum_i p_i S(rho_i) <= budget.

    The formula is c1inf's chi master over density columns with the budget
    as one linear row.  The columns start as c1inf's ensemble, c_ea's rho*
    and I/d, weighted on the time-sharing line: lambda = min(1, budget /
    S(rho*)) on rho*, the rest on c1inf's ensemble.  Each round runs the
    master (which never descends), drops zero-weight columns and prices
    densities at the gradient dual of the average output and the row's
    multiplier.  Members of weight at most ROUNDOFF_WEIGHT are dropped from
    the result and the rest renormalized.  Returns (value, Ensemble, status):
    "converged" once pricing finds no violator, "stalled" when a round
    neither gains nor admits a column, "round-limit" after OUTER_ROUNDS.
    A zero budget admits only
    pure states, where the formula is chi: c1inf's ensemble and status are
    returned.  Pricing is multistart local, so no capacity is claimed.
    """
    if not budget >= 0:  # NaN fails every comparison
        raise ValueError(f"entanglement budget must be nonnegative, got {budget}")
    opts = opts or LimitedEaOptions()
    rng = np.random.default_rng(opts.seed)
    base = c1inf(C1InfProblem(ch))
    pure = [s.projector() for s in base.ensemble.states]
    if budget == 0.0:
        ensemble = Ensemble([(q, DensityMatrix(m)) for q, m in zip(base.ensemble.probs, pure)])
        return limited_ea_objective(ch, ensemble)[0], ensemble, base.status

    top = c_ea(ch)
    d = ch.dim_in
    master, s = _density_master(ch, pure + [top.rho_star.mat, np.eye(d) / d])
    share = 1.0 if top.entanglement_rate <= budget else budget / top.entanglement_rate
    p = np.concatenate([(1.0 - share) * base.ensemble.probs, [share, 0.0]])
    status, last = "round-limit", -np.inf
    for _ in range(OUTER_ROUNDS):
        p, value, _, mu = maximize_chi(master, p, budget=(s, budget))
        keep = p > 0.0
        master, s, p = master.take(keep), s[keep], p[keep]
        # tau = N^dag(log2 omega) + lambda I with lambda = chi - mu s.p makes the
        # pricing objective D_rho - mu S(rho) - lambda, 0 on the support at the optimum
        tau = -divergence_tau(ch, master.average(p), value - mu * (s @ p))
        rho_bar = np.tensordot(p, master.columns, axes=(0, 0))
        found = _limited_pricing(ch, tau, mu, master.columns, rho_bar,
                                 PRICING_STARTS, rng, opts.tol)
        if not found:
            status = "converged"
            break
        new = [rho for _, rho in found
               if all(np.abs(rho - m).max() > 1e-9 for m in master.columns)]
        if not new and value <= last:
            status = "stalled"
            break
        last = value
        master, s = _density_master(ch, list(master.columns) + new)
        p = np.concatenate([p, np.zeros(len(new))])

    # the master stops at its Frank-Wolfe gap with affinely independent
    # columns at whatever weight they have, roundoff included
    keep = p > ROUNDOFF_WEIGHT
    if not keep.all():
        p = np.where(keep, p, 0.0) / p[keep].sum()
    ensemble = Ensemble([(q, DensityMatrix(m)) for q, m in zip(p, master.columns) if q > 0.0])
    value, _ = limited_ea_objective(ch, ensemble)
    return value, ensemble, status
