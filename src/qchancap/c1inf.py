"""The C_{1,inf} (Holevo) capacity engine: simplicial decomposition (fully
corrective Frank-Wolfe; von Hohenbalken, Math. Prog. 13, 1977) over pure
signal states, stopped on the divergence radius: for every average input
rho, max_psi D(N(psi) || N(rho)) bounds C_{1,inf} from above, with equality
at the optimum (Schumacher and Westmoreland, PRA 63, 022308, 2001).  The
pricing search that finds violators is multistart local, so "converged" is
a claim about the states it visited, not a global certificate.

The master (ChiMaster, maximize_chi) maximizes chi over the simplex of
general columns; ea.limited_ea runs it over mixes of density columns.
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
    channel_output_pure,
    check_tolerance,
    entropy_of_spectrum,
    fix_phase,
    log2_clamped,
    log2_clipped,
    log2_safe,
    random_pure,
)
from .optim import (
    LINE_ROUNDS,
    _trace_log2_along,
    line_max_concave,
    minimize_on_sphere,
    renormalize_density,
)

MASTER_GAP = 1e-10  # the master stops at this Frank-Wolfe gap
MASTER_ITERS = 1000  # maximize_chi's iteration cap
NEWTON_SHARE = 0.1  # Newton on the face while its gap exceeds this share of the FW gap
STEP_CAP = 1e6  # longest step the ratio test returns along a direction no weight blocks
NULL_TOL = 1e-10  # relative singular value below which the support's outputs are dependent
DEDUP_TOL = 1e-7  # projectors closer than this (max-norm) are the same column
PRICING_TOL = 1e-7  # a priced state joins the master if its violation exceeds PRICING_TOL


@dataclass
class C1InfOptions:
    tol: float = 1e-7
    starts: int = 8
    seed: int = 0
    max_rounds: int = 200
    initial_weights: tuple = None  # restricted mode: starting ensemble weights

    def __post_init__(self):
        check_tolerance(self.tol, "C1InfOptions.tol")
        if self.starts < 1:
            raise ValueError(f"C1InfOptions.starts must be >= 1, got {self.starts}")
        if self.max_rounds < 0:
            raise ValueError(f"C1InfOptions.max_rounds must be >= 0, got {self.max_rounds}")


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
        weights, k = self.options.initial_weights, len(self.restricted_signals or ())
        if weights is not None and not (k and np.shape(weights) == (k,)
                                        and np.isfinite(weights).all() and np.min(weights) >= 0.0
                                        and 0.0 < np.sum(weights) < np.inf):
            raise ValueError("C1InfOptions.initial_weights needs one finite, nonnegative weight per "
                             f"restricted signal with a positive sum: got {weights!r} for {k} signals")


@dataclass
class C1InfResult:
    value: float
    ensemble: Ensemble
    signal_weights: np.ndarray  # restricted mode: the weight of each signal, zeros included
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
    shape (S,) and gradients of shape (S, d).  tau_mat is one (d, d) matrix or
    a stack (S, d, d) with one matrix per row of the batch.  H is the entropy
    of the spectrum as it is, so an unnormalized v is priced as well.

    H is clamped, not clipped: each eigenvalue (or probability) lambda,
    clipped to [0, 1], adds -lambda log2 max(lambda, ENTROPY_CLIP), and the
    gradient's matrix log floors eigenvalues the same way, so both are
    continuous where an eigenvalue crosses the clip (dropping it there jumps
    f by up to 4e-11, and line searches near pure outputs halve against that).
    """
    kraus = np.stack(ch.kraus)
    kraus_h = kraus.conj()

    def fun_grad(v):
        imgs = np.einsum("kij,sj->ski", kraus, v)  # A_k v
        if ch.diagonal_output:
            spectra = (imgs.real**2 + imgs.imag**2).sum(axis=1)
            log_imgs = log2_clamped(spectra)[:, None, :] * imgs
        else:
            out = np.einsum("ski,skj->sij", imgs, imgs.conj())
            spectra = np.linalg.eigvalsh(out)
            eigs, vecs = np.linalg.eigh(out)
            log_out = (vecs * log2_clamped(eigs)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
            log_imgs = np.einsum("sij,skj->ski", log_out, imgs)
        spectra = np.clip(spectra, 0.0, 1.0)
        f_ent = -(spectra * log2_clamped(spectra)).sum(axis=1)
        tau_v = v @ tau_mat.T if tau_mat.ndim == 2 else np.einsum("sij,sj->si", tau_mat, v)
        f = f_ent - np.einsum("si,si->s", v.conj(), tau_v).real
        adjoint = np.einsum("kji,skj->si", kraus_h, log_imgs)  # N^dag(log N(v v^dag)) v
        return f, -2.0 * (adjoint + v / LN2 + tau_v)

    return fun_grad


def pricing_search(ch: QuantumChannel, tau: HermitianMatrix, starts: int, rng, support=()) -> list:
    """Look for unit vectors violating the dual constraint, i.e. with
    f(v) = H(N(v v^dag)) - v^dag tau v < 0.

    Projected-gradient (L-BFGS) descent runs from every support state plus
    `starts` random vectors drawn from the Generator `rng`; every distinct
    violating local minimum is returned as a (violation -f(v), PureState)
    pair, largest violation first.  An empty list means pricing found
    nothing.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    start_vecs = [v.vec for v in support] + [random_pure(rng, ch.dim_in).vec for _ in range(starts)]
    minima = minimize_on_sphere(_pricing_objective(ch, tau.mat), ch.dim_in, start_vecs)
    return [(-float(f), PureState(v)) for f, v in minima if f < 0.0]


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
        outs = channel_output_pure(ch, vecs)
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


def caratheodory(master: ChiMaster, p: np.ndarray) -> np.ndarray:
    """Shrink the support while its outputs are affinely dependent.

    Moves p along a null direction n (sum_i n_i sigma_i = 0, which keeps the
    average and gives sum_i n_i = 0) of the sign with -n.h >= 0, until a
    weight hits zero; chi never decreases.
    """
    while True:
        support = np.flatnonzero(p > 0.0)
        outs = master.outputs[support].reshape(support.size, -1)
        coords = np.concatenate([outs.real, outs.imag], axis=1)
        _, sing, vt = np.linalg.svd(coords.T)
        if support.size <= sing.size and sing[-1] > NULL_TOL * sing[0]:
            return p
        null = np.zeros_like(p)
        null[support] = vt[-1]
        if null @ master.costs > 0.0:
            null = -null
        p = _step_to(p, null, *_ratio_test(p, null))


def _ratio_test(p, direction):
    """Largest t <= STEP_CAP with p + t*direction >= 0, and the index of the
    weight that reaches zero there (-1 if none does)."""
    neg = np.flatnonzero(direction < 0.0)
    ratios = p[neg] / -direction[neg]
    if neg.size and ratios.min() <= STEP_CAP:
        k = int(np.argmin(ratios))
        return float(ratios[k]), int(neg[k])
    return STEP_CAP, -1


def _step_to(p, direction, t, blocker):
    new = p + t * direction
    if blocker >= 0:
        new[blocker] = 0.0
    new = np.clip(new, 0.0, None)
    return new / new.sum()


def _newton_direction(master, p, support, div, eigs, rot):
    """Maximizer of chi's quadratic model on the support's face, or None if
    the KKT system is singular or its solution does not ascend."""
    f = support.size
    kkt = np.zeros((f + 1, f + 1))
    kkt[:f, :f] = master.hessian(support, eigs, rot)
    kkt[:f, f] = kkt[f, :f] = 1.0
    try:
        sol = np.linalg.solve(kkt, np.concatenate([-div[support], [0.0]]))
    except np.linalg.LinAlgError:
        return None
    step = np.zeros_like(p)
    step[support] = sol[:f]
    return step if np.isfinite(step).all() and step @ div > 0.0 else None


def _line_step(master, p, omega, direction):
    """Exact line search along direction, clipped by the ratio test; returns
    the new weights, or None when no step ascends."""
    t_hi, blocker = _ratio_test(p, direction)
    t = line_max_concave(master.line_deriv(omega, direction), t_hi, rounds=LINE_ROUNDS)
    if t <= 0.0:
        return None
    if t >= t_hi * (1.0 - 1e-9):  # the search ended at the ratio-test bound
        return _step_to(p, direction, t_hi, blocker)
    return _step_to(p, direction, t, -1)


def maximize_chi(master: ChiMaster, p: np.ndarray):
    """Maximize chi over the simplex from the weights p (warm start).

    Each iteration applies the Caratheodory step, then a Newton step on the
    support's face while the face gap (spread of D on the support) exceeds
    NEWTON_SHARE times the Frank-Wolfe gap, else (or when Newton fails) a
    Frank-Wolfe step toward the column of largest D.  chi never decreases.
    Stops at a Frank-Wolfe gap of MASTER_GAP, after MASTER_ITERS iterations,
    or when no step ascends.  Returns p, chi and the divergences D.
    """
    p = np.asarray(p, dtype=float)
    for it in range(MASTER_ITERS + 1):
        p = caratheodory(master, p)
        omega = master.average(p)
        div, eigs, rot = master.divergences(omega)
        vertex = np.eye(div.size)[np.argmax(div)]
        fw_gap = vertex @ div - p @ div
        if fw_gap <= MASTER_GAP or it == MASTER_ITERS:
            break
        support = np.flatnonzero(p > 0.0)
        new = None
        if np.ptp(div[support]) > NEWTON_SHARE * fw_gap:
            step = _newton_direction(master, p, support, div, eigs, rot)
            if step is not None:
                new = _line_step(master, p, omega, step)
        if new is None:
            new = _line_step(master, p, omega, vertex - p)
        if new is None:
            break
        p = new
    return p, float(p @ div), div


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
    alone, started from initial_weights if given, and the gap exact;
    `signal_weights` holds its weights, one per signal (zeros included, where
    `ensemble` drops the signal), and is None unrestricted.  Trace rows hold
    master_objective = sum_i p_i H(N(psi_i)) and tr_tau_rho = Tr(tau rho),
    equal by construction since Tr(tau rho) = S(N(rho)) - chi;
    pricing_residual is dual_gap.
    """
    ch = problem.channel
    opts = problem.options
    rng = np.random.default_rng(opts.seed)
    restricted = bool(problem.restricted_signals)

    if restricted:
        vecs = [v.vec for v in problem.restricted_signals]
        weights = np.ones(len(vecs))
        if opts.initial_weights is not None:
            weights = np.asarray(opts.initial_weights, dtype=float)
    else:
        vecs = list(np.eye(ch.dim_in)) + [random_pure(rng, ch.dim_in).vec for _ in range(opts.starts)]
        weights = np.ones(len(vecs))
    master = ChiMaster.pure(ch, vecs)
    p, chi, div = maximize_chi(master, weights / np.sum(weights))
    tau = divergence_tau(ch, master.average(p), chi)
    gap = max(0.0, float(div.max()) - chi) if restricted else np.inf
    trace_rows = [_trace_row(0, master, p, tau, chi)] if restricted else []
    status = "round-limit"
    for rnd in range(0 if restricted else opts.max_rounds):
        chi_start = chi
        if rnd:
            p, chi, _ = maximize_chi(master, p)
        master, p = _prune(master, p)
        vecs, weights = _polish(ch, master.columns, p)
        polished = ChiMaster.pure(ch, vecs)
        weights, chi_polished, _ = maximize_chi(polished, weights)
        if chi_polished > chi:
            (master, p), chi = _prune(polished, weights), chi_polished
        tau = divergence_tau(ch, master.average(p), chi)
        found = pricing_search(ch, HermitianMatrix(tau), opts.starts, rng,
                               support=[PureState(v) for v in master.columns])
        gap = max((violation for violation, _ in found), default=0.0)
        trace_rows.append(_trace_row(rnd, master, p, tau, chi))
        if gap <= opts.tol:
            break
        # appended columns carry weight 0: chi, rho and tau stay as returned
        size = len(p)
        master, p = _add_columns(ch, master, p, [state for violation, state in found
                                                 if violation > PRICING_TOL])
        if len(p) == size and chi <= chi_start:
            status = "stalled"
            break
    if gap <= opts.tol:
        status = "converged"

    return C1InfResult(
        value=chi,
        ensemble=Ensemble([(float(q), PureState(v)) for q, v in zip(p, master.columns) if q > 0.0]),
        signal_weights=p if restricted else None,
        rho=DensityMatrix(renormalize_density(_average_input(master, p))),
        tau=HermitianMatrix(tau),
        dual_gap=gap,
        pricing_residual=gap,
        status=status,
        rounds=len(trace_rows),
        trace=trace_rows,
    )
