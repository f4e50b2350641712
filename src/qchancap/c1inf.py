"""The C_{1,inf} (Holevo) capacity engine: simplicial decomposition (fully
corrective Frank-Wolfe; von Hohenbalken, Math. Prog. 13, 1977) over pure
signal states, stopped on the divergence radius: for every average input
rho, max_psi D(N(psi) || N(rho)) bounds C_{1,inf} from above, with equality
at the optimum (Schumacher and Westmoreland, PRA 63, 022308, 2001).  The
pricing search that finds violators is multistart local, so "converged" is
a claim about the states it visited, not a global certificate.

The master (ChiMaster, maximize_chi) takes general columns and an optional
linear budget row; ea.limited_ea runs it over density columns.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (
    LN2,
    ENTROPY_CLIP,
    DensityMatrix,
    DimensionError,
    Ensemble,
    HermitianMatrix,
    PureState,
    QuantumChannel,
    adjoint_apply,
    check_tolerance,
    entropy_of_spectrum,
    fix_phase,
    log2_clipped,
    log2_safe,
    random_pure,
)
from .optim import (
    STEP_CAP,
    _trace_log2_along,
    batched_objective,
    line_max_concave,
    minimize_on_sphere,
    renormalize_density,
)

MASTER_GAP = 1e-10  # the master stops at this Frank-Wolfe gap
MASTER_ITERS = 1000
NEWTON_SHARE = 0.1  # Newton on the face while its gap exceeds this share of the FW gap
LINE_ROUNDS = 40  # bisection rounds of the master's line searches
NULL_TOL = 1e-10  # relative singular value below which the support's outputs are dependent
BUDGET_TOL = 1e-12  # bits of slack within which the budget row counts as active
DEDUP_TOL = 1e-7  # projectors closer than this (max-norm) are the same column
PRICING_TOL = 1e-7  # a priced state joins the master if its reduced cost is below -PRICING_TOL


@dataclass
class C1InfOptions:
    tol: float = 1e-7
    starts: int = 8
    seed: int = 0
    max_rounds: int = 200
    initial_weights: tuple = None  # restricted mode: starting ensemble weights

    def __post_init__(self):
        check_tolerance(self.tol, "C1InfOptions.tol")


@dataclass
class C1InfProblem:
    """A channel plus an optional restriction of the usable signal states
    (cq channels like the trine let the sender pick only from a fixed set)."""

    channel: QuantumChannel
    restricted_signals: list = None
    options: C1InfOptions = field(default_factory=C1InfOptions)

    def __post_init__(self):
        for s in self.restricted_signals or ():
            if s.dim != self.channel.dim_in:
                raise DimensionError(f"signal dim {s.dim} != channel input dim {self.channel.dim_in}")


@dataclass
class PricingReport:
    state: PureState
    reduced_cost: float


@dataclass
class C1InfResult:
    value: float
    ensemble: Ensemble
    rho: DensityMatrix
    tau: HermitianMatrix
    dual_gap: float
    pricing_residual: float
    status: str  # "converged" | "round-limit" | "stalled"
    rounds: int
    trace: list  # one dict per round with duality data


def _pricing_objective(ch: QuantumChannel, tau_mat: np.ndarray):
    """f(v) = H(N(v v^dag)) - v^dag tau v with its complex gradient.

    The returned fun_grad takes a batch of shape (S, d) and returns values of
    shape (S,) and gradients of shape (S, d); a single vector of shape (d,)
    gives (float, gradient of shape (d,)).  tau_mat is one (d, d) matrix or
    a stack (S, d, d) with one matrix per row of the batch.  H is the entropy
    of the spectrum as it is, so an unnormalized v is priced as well.
    """
    kraus = np.stack(ch.kraus)
    kraus_h = kraus.conj()

    @batched_objective
    def fun_grad(v):
        imgs = np.einsum("kij,sj->ski", kraus, v)  # A_k v
        if ch.diagonal_output:
            probs = (imgs.real**2 + imgs.imag**2).sum(axis=1)
            logp = log2_clipped(probs)
            f_ent = -(probs * logp).sum(axis=1)
            log_imgs = logp[:, None, :] * imgs
        else:
            out = np.einsum("ski,skj->sij", imgs, imgs.conj())
            f_ent = entropy_of_spectrum(np.linalg.eigvalsh(out))
            log_imgs = np.einsum("sij,skj->ski", log2_safe(out), imgs)
        tau_v = v @ tau_mat.T if tau_mat.ndim == 2 else np.einsum("sij,sj->si", tau_mat, v)
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
    support = list(support)
    start_vecs = [v.vec for v in support] + [random_pure(rng, ch.dim_in).vec for _ in range(starts)]
    minima = minimize_on_sphere(_pricing_objective(ch, tau.mat), ch.dim_in, start_vecs)
    return [PricingReport(PureState(v), float(f)) for f, v in minima if f < -tol]


def divergence_tau(ch: QuantumChannel, omega: np.ndarray, chi: float) -> np.ndarray:
    """tau = -N^dag(log2 omega) - chi I, so that the pricing objective is
    f(psi) = chi - D(N(psi) || omega) on unit vectors."""
    return -adjoint_apply(ch, log2_safe(omega)) - chi * np.eye(ch.dim_in)


# --- the master: chi over the weights of fixed columns ------------------------

class ChiMaster:
    """chi(p) = S(sum_i p_i sigma_i) - sum_i p_i h_i over the weights p of
    fixed columns: unit-trace outputs sigma_i (shape (m, n, n)) and linear
    costs h_i.  `columns` holds the inputs they stand for (signal vectors
    here, density matrices for limited-EA).

    The gradient is D_i = -h_i - Tr(sigma_i log2 omega) up to a constant,
    with omega the average output, and chi = sum_i p_i D_i; for pure columns
    (h_i = S(sigma_i)) D_i = D(sigma_i || omega).
    """

    def __init__(self, outputs, costs, columns):
        self.outputs = outputs
        self.costs = np.atleast_1d(costs)
        self.columns = columns

    @classmethod
    def pure(cls, ch: QuantumChannel, vecs):
        """Columns v_i with sigma_i = N(v_i v_i^dag) and h_i = S(sigma_i)."""
        vecs = np.asarray(vecs, dtype=complex)
        imgs = np.einsum("kij,mj->mki", np.stack(ch.kraus), vecs)
        outs = np.einsum("mki,mkj->mij", imgs, imgs.conj())
        spectra = np.einsum("mii->mi", outs).real if ch.diagonal_output else np.linalg.eigvalsh(outs)
        return cls(outs, entropy_of_spectrum(spectra), vecs)

    def take(self, keep) -> "ChiMaster":
        return ChiMaster(self.outputs[keep], self.costs[keep], self.columns[keep])

    def average(self, p: np.ndarray) -> np.ndarray:
        return np.tensordot(p, self.outputs, axes=(0, 0))

    def divergences(self, omega: np.ndarray):
        """D_i for every column, plus omega's spectrum and the outputs in its
        eigenbasis (for the Hessian)."""
        eigs, vecs = np.linalg.eigh(omega)
        rot = vecs.conj().T @ self.outputs @ vecs
        div = -self.costs - np.einsum("mii->mi", rot).real @ log2_clipped(eigs)
        return div, eigs, rot

    def hessian(self, idx: np.ndarray, eigs: np.ndarray, rot: np.ndarray) -> np.ndarray:
        """d^2 chi / dp_i dp_j = -Tr(sigma_i Dlog2[omega](sigma_j)) on the columns idx:
        in omega's eigenbasis Dlog2 multiplies entry (a, b) by the divided
        difference of log2 at the eigenvalues (floored at the entropy clip).
        """
        lam = np.maximum(eigs, ENTROPY_CLIP)
        a, b = lam[:, None], lam[None, :]
        gap = a - b
        close = np.abs(gap) <= 1e-8 * np.maximum(a, b)
        # log1p keeps the quotient accurate for nearby eigenvalues; 2/(a+b)
        # is its limit to second order
        divided = np.where(close, 2.0 / (a + b), np.log1p(gap / b) / np.where(close, 1.0, gap)) / LN2
        s = rot[idx]
        return -np.einsum("iab,ab,jab->ij", s.conj(), divided, s).real

    def line_deriv(self, omega: np.ndarray, direction: np.ndarray):
        """t -> d/dt chi(p + t*direction) for a direction summing to zero,
        with omega the average at p (vectorized in t)."""
        along = _trace_log2_along(omega, self.average(direction))
        linear = float(direction @ self.costs)
        return lambda ts: -along(ts) - linear


def caratheodory(master: ChiMaster, p: np.ndarray, budget=None) -> np.ndarray:
    """Shrink the support while its outputs (and, with a budget (s, B), the
    entries of s) are affinely dependent.

    Moves p along a null direction n (sum_i n_i sigma_i = 0, which keeps the
    average and gives sum_i n_i = 0; sum_i n_i s_i = 0 with a budget) of the
    sign with -n.h >= 0, until a weight hits zero; chi never decreases.
    """
    while True:
        support = np.flatnonzero(p > 0.0)
        outs = master.outputs[support].reshape(support.size, -1)
        parts = [outs.real, outs.imag] + ([] if budget is None else [budget[0][support, None]])
        coords = np.concatenate(parts, axis=1)
        _, sing, vt = np.linalg.svd(coords.T)
        if support.size <= sing.size and sing[-1] > NULL_TOL * sing[0]:
            return p
        null = np.zeros_like(p)
        null[support] = vt[-1]
        if null @ master.costs > 0.0:
            null = -null
        p = _step_to(p, null, *_ratio_test(p, null))


def _ratio_test(p, direction, budget=None):
    """Largest t <= STEP_CAP with p + t*direction >= 0 and, with a budget
    (s, B), s.(p + t*direction) <= B; and the index of the weight that
    reaches zero there (-1 if none does)."""
    neg = np.flatnonzero(direction < 0.0)
    ratios = p[neg] / -direction[neg]
    t, blocker = STEP_CAP, -1
    if neg.size and ratios.min() <= STEP_CAP:
        k = int(np.argmin(ratios))
        t, blocker = float(ratios[k]), int(neg[k])
    if budget is not None:
        s, bound = budget
        rise = float(direction @ s)
        if rise > 0.0 and (bound - p @ s) / rise < t:
            return max(0.0, (bound - p @ s) / rise), -1
    return t, blocker


def _step_to(p, direction, t, blocker):
    new = p + t * direction
    if blocker >= 0:
        new[blocker] = 0.0
    new = np.clip(new, 0.0, None)
    return new / new.sum()


def _fw_vertex(div, p, budget):
    """The best point q of the simplex (with a budget (s, B), of its part
    s.q <= B) for the linear objective div.q, and mu, the budget row's
    smallest optimal multiplier in that linear program.  With a budget the
    candidates are p, each column with s_i <= B and each mix of two columns
    on the line s.q = B."""
    if budget is None:
        return np.eye(div.size)[np.argmax(div)], 0.0
    s, bound = budget
    q, best = p, float(p @ div)
    lo, hi = np.flatnonzero(s < bound), np.flatnonzero(s > bound)
    feasible = np.flatnonzero(s <= bound)
    if feasible.size and div[feasible].max() > best:
        k = feasible[np.argmax(div[feasible])]
        q, best = np.eye(div.size)[k], float(div[k])
    if lo.size and hi.size:
        w = (bound - s[lo])[:, None] / (s[hi] - s[lo][:, None])  # weight of the hi column
        mixes = div[lo][:, None] + w * (div[hi] - div[lo][:, None])
        a, b = np.unravel_index(np.argmax(mixes), mixes.shape)
        if mixes[a, b] > best:
            q, best = np.zeros_like(div), float(mixes[a, b])
            q[lo[a]], q[hi[b]] = 1.0 - w[a, b], w[a, b]
    # the dual of max div.q: mu >= (div_i - best) / (s_i - bound) for s_i > bound
    mu = max(0.0, float(((div[hi] - best) / (s[hi] - bound)).max())) if hi.size else 0.0
    return q, mu


def _newton_direction(master, p, support, div, eigs, rot, row=None):
    """Maximizer of chi's quadratic model on the support's face (and on the
    budget row's level set when row is given), or None if the KKT system is
    singular or its solution does not ascend."""
    f = support.size
    rows = [np.ones(f)] + ([] if row is None else [row[support]])
    c = len(rows)
    kkt = np.zeros((f + c, f + c))
    kkt[:f, :f] = master.hessian(support, eigs, rot)
    for j, r in enumerate(rows):
        kkt[:f, f + j] = kkt[f + j, :f] = r
    try:
        sol = np.linalg.solve(kkt, np.concatenate([-div[support], np.zeros(c)]))
    except np.linalg.LinAlgError:
        return None
    step = np.zeros_like(p)
    step[support] = sol[:f]
    return step if np.isfinite(step).all() and step @ div > 0.0 else None


def _line_step(master, p, omega, direction, budget=None):
    """Exact line search along direction, clipped by the ratio test (with
    the budget row, if given); returns the new weights, or None when no
    step ascends."""
    t_hi, blocker = _ratio_test(p, direction, budget)
    t = line_max_concave(master.line_deriv(omega, direction), t_hi, rounds=LINE_ROUNDS)
    if t <= 0.0:
        return None
    if t >= t_hi * (1.0 - 1e-9):  # the search ended at the ratio-test bound
        return _step_to(p, direction, t_hi, blocker)
    return _step_to(p, direction, t, -1)


def maximize_chi(master: ChiMaster, p: np.ndarray, max_iters: int = MASTER_ITERS, budget=None):
    """Maximize chi over the simplex from the weights p (warm start), and,
    with budget = (s, B), over its part with s.p <= B (p must lie in it).

    Each iteration applies the Caratheodory step, then a Newton step on the
    support's face while the face gap (spread of D on the support, less its
    best fit lambda + mu' s on an active budget row)
    exceeds NEWTON_SHARE times the Frank-Wolfe gap, else (or when Newton
    fails) a Frank-Wolfe step toward the best vertex (_fw_vertex).  The budget row
    joins Newton's KKT system while it is active (within BUDGET_TOL) and
    clips Newton's step while it is slack.  chi never decreases.  Stops at
    a Frank-Wolfe gap of MASTER_GAP, after max_iters iterations, or when no
    step ascends.  Returns p, chi, the divergences D and the budget row's
    multiplier mu (0 without a budget or while the row is slack).
    """
    p = np.asarray(p, dtype=float)
    for it in range(max_iters + 1):
        p = caratheodory(master, p, budget)
        omega = master.average(p)
        div, eigs, rot = master.divergences(omega)
        vertex, mu = _fw_vertex(div, p, budget)
        row = None if budget is None or budget[1] - budget[0] @ p > BUDGET_TOL else budget[0]
        mu = 0.0 if row is None else mu
        fw_gap = vertex @ div - p @ div
        if fw_gap <= MASTER_GAP or it == max_iters:
            break
        support = np.flatnonzero(p > 0.0)
        face = div[support]
        if row is not None:  # the residual of D = lambda + mu' s, fitted on the support
            a = np.stack([np.ones(support.size), row[support]], axis=1)
            face = face - a @ np.linalg.lstsq(a, face, rcond=None)[0]
        new = None
        if np.ptp(face) > NEWTON_SHARE * fw_gap:
            step = _newton_direction(master, p, support, div, eigs, rot, row)
            if step is not None:
                # on the active row the step keeps s.p; off it the row clips the step
                new = _line_step(master, p, omega, step, budget if row is None else None)
        if new is None:  # the vertex is feasible, and so is every point before it
            new = _line_step(master, p, omega, vertex - p)
        if new is None:
            break
        p = new
    return p, float(p @ div), div, mu


# --- polish: the support as one point of a sphere -----------------------------

def polish_objective(ch: QuantumChannel, m: int):
    """-chi of the ensemble x = (sqrt(p_i) psi_i)_i, a unit vector of C^{m d}.

    -chi(x) = sum_i f_tau(x_i) + sum_i p_i log2 p_i with p_i = |x_i|^2, f_tau
    the pricing objective on the unnormalized rows and tau = -N^dag(log2
    N(rho(x))); the gradient adds 2 log2(p_i) x_i to each row of f_tau's
    (up to a multiple of x, which the sphere search projects out).  Batched
    like the pricing objective: (S, m d) in, values (S,) and gradients out.
    """
    d = ch.dim_in
    kraus = np.stack(ch.kraus)

    @batched_objective
    def fun_grad(x):
        rows = x.reshape(x.shape[0], m, d)
        rho = np.einsum("smi,smj->sij", rows, rows.conj())
        omega = np.einsum("kai,sij,kbj->sab", kraus, rho, kraus.conj())
        tau = -np.einsum("kai,sab,kbj->sij", kraus.conj(), log2_safe(omega), kraus)
        f, g = _pricing_objective(ch, np.repeat(tau, m, axis=0))(rows.reshape(-1, d))
        probs = (rows.real**2 + rows.imag**2).sum(axis=2)
        logp = log2_clipped(probs, 0.0)
        value = f.reshape(-1, m).sum(axis=1) + (probs * logp).sum(axis=1)
        grad = g.reshape(rows.shape) + 2.0 * logp[..., None] * rows
        return value, grad.reshape(x.shape)

    return fun_grad


def _polish(ch, vecs, p):
    """One sphere search from the current ensemble; returns (vecs, p)."""
    m, d = vecs.shape
    x0 = (np.sqrt(p)[:, None] * vecs).ravel()
    _, x = minimize_on_sphere(polish_objective(ch, m), m * d, [x0])[0]
    rows = x.reshape(m, d)
    probs = (rows.real**2 + rows.imag**2).sum(axis=1)
    keep = probs > 0.0
    rows = np.array([fix_phase(r / np.linalg.norm(r)) for r in rows[keep]])
    return rows, probs[keep] / probs[keep].sum()


# --- the loop -----------------------------------------------------------------

def _prune(master, p):
    keep = p > 0.0
    return master.take(keep), p[keep]


def _add_columns(ch, master, p, states):
    """Append states at weight 0, skipping any whose projector is within
    DEDUP_TOL of a column's; returns the new (master, p)."""
    vecs = list(master.columns)
    for s in states:
        if all(np.abs(np.outer(s.vec, s.vec.conj()) - np.outer(v, v.conj())).max() > DEDUP_TOL
               for v in vecs):
            vecs.append(s.vec)
    return ChiMaster.pure(ch, vecs), np.concatenate([p, np.zeros(len(vecs) - len(p))])


def _average_input(master, p):
    return np.einsum("m,mi,mj->ij", p, master.columns, master.columns.conj())


def _trace_row(rnd, master, p, tau, chi) -> dict:
    return {
        "round": rnd,
        "master_objective": float(p @ master.costs),
        "tr_tau_rho": float(np.trace(tau @ _average_input(master, p)).real),
        "value": chi,
        "columns": len(p),
    }


def c1inf(problem: C1InfProblem) -> C1InfResult:
    """Maximize chi by simplicial decomposition, certified by the divergence gap.

    Unrestricted, each round runs the master, drops zero-weight columns,
    polishes the support (kept if chi rises) and prices at tau =
    -N^dag(log2 N(rho)) - chi I, where the pricing objective is chi -
    D(N(psi) || N(rho)).  The largest divergence found minus chi is
    `pricing_residual` and `dual_gap`: "converged" once it is at most tol,
    "stalled" if a round neither raised chi nor found a new column,
    "round-limit" otherwise.  With restricted signals the loop is the master
    alone and the gap exact.  Trace rows hold master_objective = sum_i p_i
    H(N(psi_i)) and tr_tau_rho = Tr(tau rho); tau is dual feasible for the
    fixed-average LP at rho exactly when the gap is zero.
    """
    ch = problem.channel
    opts = problem.options
    rng = np.random.default_rng(opts.seed)
    restricted = bool(problem.restricted_signals)

    if restricted:
        vecs = [v.vec for v in problem.restricted_signals]
        weights = np.ones(len(vecs))
        if opts.initial_weights is not None:
            weights = np.clip(opts.initial_weights, 0.0, None)
    else:
        vecs = list(np.eye(ch.dim_in)) + [random_pure(rng, ch.dim_in).vec for _ in range(opts.starts)]
        weights = np.ones(len(vecs))
    master = ChiMaster.pure(ch, vecs)
    p, chi, div, _ = maximize_chi(master, weights / np.sum(weights), MASTER_ITERS)
    tau = divergence_tau(ch, master.average(p), chi)
    gap = max(0.0, float(div.max()) - chi) if restricted else np.inf
    trace_rows = [_trace_row(0, master, p, tau, chi)] if restricted else []
    status = "round-limit"
    for rnd in range(0 if restricted else opts.max_rounds):
        chi_start = chi
        if rnd:
            p, chi, _, _ = maximize_chi(master, p, MASTER_ITERS)
        master, p = _prune(master, p)
        vecs, weights = _polish(ch, master.columns, p)
        polished = ChiMaster.pure(ch, vecs)
        weights, chi_polished, _, _ = maximize_chi(polished, weights, MASTER_ITERS)
        if chi_polished > chi:
            (master, p), chi = _prune(polished, weights), chi_polished
        tau = divergence_tau(ch, master.average(p), chi)
        reports = pricing_search(ch, HermitianMatrix(tau), opts.starts, rng,
                                 support=[PureState(v) for v in master.columns], tol=0.0)
        gap = max(0.0, -min((r.reduced_cost for r in reports), default=0.0))
        trace_rows.append(_trace_row(rnd, master, p, tau, chi))
        if gap <= opts.tol:
            break
        # appended columns carry weight 0: chi, rho and tau stay as returned
        size = len(p)
        master, p = _add_columns(ch, master, p, [r.state for r in reports
                                             if r.reduced_cost < -PRICING_TOL])
        if len(p) == size and chi <= chi_start:
            status = "stalled"
            break
    if gap <= opts.tol:
        status = "converged"

    return C1InfResult(
        value=chi,
        ensemble=Ensemble([(float(q), PureState(v)) for q, v in zip(p, master.columns) if q > 0.0]),
        rho=DensityMatrix(renormalize_density(_average_input(master, p))),
        tau=HermitianMatrix(tau),
        dual_gap=gap,
        pricing_residual=gap,
        status=status,
        rounds=len(trace_rows),
        trace=trace_rows,
    )
