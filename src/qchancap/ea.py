"""Entanglement-assisted capacity and related density-matrix ascents.

Every density objective here runs one sphere search over vec(M), with
rho = M M^dag / Tr(M M^dag) (_density_search).  C_E is a concave
maximization over input states: its searches end in rounds, and the
Frank-Wolfe gap at a round's end point is a true upper bound on that
point's suboptimality.  The single-letter coherent information and
limited-EA's density pricing are multistart searches with no global
claim.  The limited-entanglement formula runs on c1inf's chi master over
density columns, with the entanglement budget as one linear row, and
density pricing; it is flagged experimental.
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
    line_max_concave,
    minimize_on_sphere,
    minimize_on_spheres,
    renormalize_density,
)

CEA_ROUNDS = 20  # c_ea's rounds of one sphere search and one Frank-Wolfe step
COHERENT_ITERS = 200  # coherent_info_max's search iterations per start
COHERENT_GAIN = 1e-9  # a coherent_info_max start has converged once an iteration gains less


@dataclass
class CEResult:
    value: float
    rho_star: DensityMatrix
    gradient_residual: float  # Frank-Wolfe gap at rho_star
    iterations: int  # rounds run
    entanglement_rate: float  # H(rho_star), EPR pairs consumed per use
    status: str  # "converged" | "round-limit"


@dataclass
class QResult:
    value: float
    rho_star: DensityMatrix
    local_maxima: list  # (value, DensityMatrix), distinct densities of the converged starts
    status: str  # "converged" | "round-limit", of the start that gave value


def qmi_objective(ch: QuantumChannel) -> EntropySum:
    """S(rho) + S(N(rho)) - S(N^c(rho)), the quantum mutual information."""
    return EntropySum([(1.0, identity_channel(ch.dim_in)), (1.0, ch),
                       (-1.0, complementary_channel(ch))])


def coherent_objective(ch: QuantumChannel) -> EntropySum:
    """S(N(rho)) - S(N^c(rho)), the coherent information."""
    return EntropySum([(1.0, ch), (-1.0, complementary_channel(ch))])


def _fw_step(obj: EntropySum, mat):
    """One Frank-Wolfe step from `mat`: the gap, and the line-searched move
    toward the maximizing vertex (a pure state of the gradient's top
    eigenvector)."""
    g = obj.grad(mat)
    eigs, vecs = np.linalg.eigh(g)
    gap = float(eigs[-1] - np.trace(g @ mat).real)
    vertex = np.outer(vecs[:, -1], vecs[:, -1].conj())
    direction = vertex - mat
    t = line_max_concave(obj.line_deriv(mat, direction), 1.0, rounds=40)
    return gap, mat + t * direction


def c_ea(ch: QuantumChannel, tol: float = 1e-7) -> CEResult:
    """Entanglement-assisted capacity by certified concave maximization.

    Runs rounds of one sphere search over vec(M) (_density_search), at most
    CEA_ROUNDS of them; the first starts at M = I/sqrt(d).  The Frank-Wolfe
    gap at a round's end point bounds how far its value is below C_E.  The
    status is "converged" once that gap is below tol.  Otherwise the next
    round starts from the Frank-Wolfe step's line-searched move, and the
    status is "round-limit" at the cap.  rho_star is the last end point.
    """
    check_tolerance(tol, "tol")
    d = ch.dim_in
    obj = qmi_objective(ch)
    fun_grad = _density_search(obj, d)
    start = np.eye(d).ravel() / np.sqrt(d)
    for rounds in range(1, CEA_ROUNDS + 1):
        [(_, end)] = minimize_on_sphere(fun_grad, d * d, [start])
        mat = _densities([end], d)[0]
        gap, nxt = _fw_step(obj, mat)
        if gap < tol:
            break
        start = _factor(nxt)
    rho_star = DensityMatrix(mat)
    return CEResult(
        value=quantum_mutual_information(ch, rho_star),
        rho_star=rho_star,
        gradient_residual=gap,
        iterations=rounds,
        entanglement_rate=von_neumann_entropy(rho_star),
        status="converged" if gap < tol else "round-limit",
    )


def _density_search(obj: EntropySum, d: int):
    """fun_grad for a sphere search maximizing obj over rho = M M^dag / Tr(M M^dag):
    each row v = vec(M) gives -obj(rho) and its gradient in v.  rho does not
    change when M is scaled, so unit vectors in C^{d^2} reach every density."""
    eye = np.eye(d)

    def fun_grad(v):
        m = v.reshape(-1, d, d)
        t = np.einsum("si,si->s", v, v.conj()).real[:, None, None]
        rho = (m @ m.conj().swapaxes(1, 2)) / t
        val, g = obj.value_grad(rho)
        p = g - np.einsum("sij,sji->s", g, rho).real[:, None, None] * eye
        return -val, -(2.0 * (p @ m) / t).reshape(-1, d * d)

    return fun_grad


def _densities(vecs, d: int) -> np.ndarray:
    """The densities M M^dag / Tr(M M^dag) of search vectors vec(M), stacked."""
    return np.stack([renormalize_density(m @ m.conj().T) for m in np.reshape(vecs, (-1, d, d))])


def _factor(mat) -> np.ndarray:
    """A unit search vector vec(M) for the density mat: M is the Cholesky
    factor of mat mixed with 1e-9 of I/d, which makes it positive definite."""
    d = mat.shape[0]
    m = np.linalg.cholesky((1 - 1e-9) * mat + 1e-9 * np.eye(d) / d)
    return m.ravel() / np.linalg.norm(m)


def coherent_info_max(ch: QuantumChannel, starts: int = 4, seed: int = 0) -> QResult:
    """Multistart ascent of the single-letter coherent information.

    The starts, M = I and 2*max(starts, d) complex Gaussian M, are one batch
    of sphere searches over vec(M) (_density_search), one problem each, of at
    most COHERENT_ITERS iterations.  A start has converged when one more
    iteration from its end gains less than COHERENT_GAIN.  The best start's
    value and status ("converged" | "round-limit") are reported, with no
    global claim.  local_maxima lists the distinct densities (more than 1e-4
    apart) of the starts that converged, best first.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    d = ch.dim_in
    rng = np.random.default_rng(seed)
    obj = coherent_objective(ch)
    fun_grad = _density_search(obj, d)

    rand = [rng.normal(size=d * d) + 1j * rng.normal(size=d * d) for _ in range(2 * max(starts, d))]
    start_vecs = [v / np.linalg.norm(v) for v in [np.eye(d).ravel(), *rand]]

    ends = [minima[0] for minima in minimize_on_spheres(
        [(fun_grad, [v]) for v in start_vecs], d * d, maxiter=COHERENT_ITERS)]
    after = minimize_on_spheres([(fun_grad, [v]) for _, v in ends], d * d, maxiter=1)
    converged = [f - minima[0][0] < COHERENT_GAIN for (f, _), minima in zip(ends, after)]
    rhos = _densities([v for _, v in ends], d)
    values = obj.value(rhos).tolist()

    order = sorted(range(len(ends)), key=lambda i: -values[i])
    distinct = []
    for i in order:
        if converged[i] and all(np.abs(rhos[i] - other.mat).max() > 1e-4
                                for _, other in distinct):
            distinct.append((values[i], DensityMatrix(rhos[i])))
    best = order[0]
    return QResult(value=values[best], rho_star=DensityMatrix(rhos[best]), local_maxima=distinct,
                   status="converged" if converged[best] else "round-limit")


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
    """Ascend phi(rho) = (1-mu) H(rho) - H_env(rho) - Tr(tau rho) over densities,
    a sphere search over vec(M) (see _density_search).  Returns the violating
    densities (phi(rho) > tol) as (violation, rho) pairs, best first.
    """
    d = ch.dim_in
    phi = EntropySum([(1.0 - mu, identity_channel(d)), (-1.0, complementary_channel(ch))],
                     linear=-tau)
    start_vecs = [_factor(mat) for mat in [*columns[-3:], rho_bar]]
    for _ in range(starts):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        start_vecs.append(m.ravel() / np.linalg.norm(m))

    minima = minimize_on_sphere(_density_search(phi, d), d * d, start_vecs, gtol=1e-9,
                                maxiter=300)
    rhos = _densities([v for _, v in minima], d)
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
        new = []
        for _, rho in found:  # skip densities within 1e-9 of a column or of one admitted before
            if all(np.abs(rho - m).max() > 1e-9 for m in [*master.columns, *new]):
                new.append(rho)
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
