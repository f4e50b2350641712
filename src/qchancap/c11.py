"""The C_{1,1} engine: alternate ensemble and measurement optimization.

The measurement half is an LP over rank-one POVM weights solved by column
generation (the POVM completeness constraint supplies the d^2 rows, mutual
information is linear in the weights).  Its stopping certificate is the
bound Tr lam + d max(0, max_w [c(w) - w^dag lam w]) on the information of
every complete rank-one POVM, valid for any Hermitian lam since the weights
of such a POVM sum to d: the loop stops once it is within d * tol of the
master's objective, for the LP dual or for the stationarity dual of the
master's support.  The ensemble half fixes the
measurement, which turns the channel into a classical-output channel, and
reuses the C_{1,inf} engine on it unchanged.  Neither half is guaranteed to
find a global optimum, so runs are restarted and per-restart values kept.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .core import (
    DimensionError,
    Ensemble,
    HermitianCoords,
    HermitianMatrix,
    Povm,
    PureState,
    QuantumChannel,
    channel_ensemble,
    check_tolerance,
    coords_to_hermitian,
    coords_to_mat,
    fix_phase,
    mat_to_coords,
    normalized_state,
    random_pure,
    square_root_measurement,
)
from .c1inf import C1InfOptions, C1InfProblem, c1inf
from .info import accessible_information_given, holevo_chi
from .lp import LinearProgram, PricingOutcome, column_generation_task
from .optim import batched_objective, lockstep

ZERO_OUTCOME = 1e-14  # below this overlap an outcome never occurs
ALT_TOL = 1e-7  # a restart converges once an alternation gains less than this


@dataclass
class C11Options:
    alternations: int = 100
    starts: int = 8
    pricing_tol: float = 1e-7
    measurement_rounds: int = 60

    def __post_init__(self):
        check_tolerance(self.pricing_tol, "C11Options.pricing_tol")


@dataclass
class C11Result:
    value: float
    ensemble: Ensemble  # input ensemble
    povm: Povm
    restart_values: list
    status: str  # "converged" | "round-limit"
    trace: list  # per-iterate dicts with value and chi of the output ensemble


def _ensemble_arrays(out_ens: Ensemble):
    probs = np.asarray(out_ens.probs)
    mats = [np.asarray(m) for m in out_ens.density_mats()]
    avg = sum(p * m for p, m in zip(probs, mats))
    return probs, mats, avg


def info_coefficient(probs, mats, avg, w: np.ndarray) -> float:
    """Per-direction mutual-information coefficient c(w).

    c(w) = sum_i p_i (w^dag s_i w) log2[(w^dag s_i w) / (w^dag avg w)]; the
    weight q of an outcome multiplies this linearly.  Outcomes that never
    occur (w^dag avg w below 1e-14) contribute zero.
    """
    b = float(np.vdot(w, avg @ w).real)
    if b < ZERO_OUTCOME:
        return 0.0
    total = 0.0
    for p, m in zip(probs, mats):
        a = float(np.vdot(w, m @ w).real)
        if a > ZERO_OUTCOME and p > 0.0:
            total += p * a * np.log2(a / b)
    return total


def measurement_lp(out_ens: Ensemble, directions: list) -> LinearProgram:
    """Master LP: maximize sum_j q_j c(w_j) subject to the POVM completeness
    rows sum_j q_j w_j w_j^dag = I (d^2 Hermitian coordinates)."""
    probs, mats, avg = _ensemble_arrays(out_ens)
    d = out_ens.dim
    cols, coefs = [], []
    for w in directions:
        if w.dim != d:
            raise DimensionError("direction dimension does not match the ensemble")
        cols.append(mat_to_coords(w.projector()))
        coefs.append(info_coefficient(probs, mats, avg, w.vec))
    return LinearProgram(
        c=np.array(coefs),
        A=np.stack(cols, axis=1),
        b=mat_to_coords(np.eye(d)),
        sense="max",
        tags=list(directions),
    )


def _measurement_objective(probs, mats, avg, lam: np.ndarray):
    """Maximize c(w) - w^dag lam w; implemented as a minimization of its
    negative with the complex gradient.

    The returned fun_grad takes a batch of shape (S, d) and returns values of
    shape (S,) and gradients of shape (S, d); a single vector of shape (d,)
    gives (float, gradient of shape (d,)).
    """
    probs = np.asarray(probs, dtype=float)
    mats = np.stack(mats)
    used = probs > 0.0

    @batched_objective
    def fun_grad(v):
        lam_v = v @ lam.T
        penalty = np.einsum("si,si->s", v.conj(), lam_v).real
        b = np.einsum("si,si->s", v.conj(), v @ avg.T).real
        mv = np.einsum("kij,sj->ski", mats, v)
        a = np.einsum("si,ski->sk", v.conj(), mv).real
        occurs = (a > ZERO_OUTCOME) & used
        b_safe = np.maximum(b, ZERO_OUTCOME)[:, None]
        ratio = np.where(occurs, np.log2(np.where(occurs, a, 1.0) / b_safe), 0.0)
        value = (probs * a * ratio).sum(axis=1)
        grad = np.einsum("k,sk,ski->si", probs, ratio, mv)
        never = b < ZERO_OUTCOME  # an outcome that never occurs contributes c(w) = 0
        f = np.where(never, penalty, -(value - penalty))
        g = np.where(never[:, None], 2.0 * lam_v, -2.0 * (grad - lam_v))
        return f, g

    return fun_grad


def measurement_pricing(
    out_ens: Ensemble,
    lam: HermitianMatrix,
    starts: int,
    rng,
    tol: float = 1e-7,
) -> PricingOutcome:
    """Search for directions whose coefficient beats the dual: c(w) > w^dag lam w.

    Returns a PricingOutcome whose columns carry the POVM coordinate vector,
    the coefficient c(w), and the direction itself as the tag.  Reduced costs
    use the minimization convention (negative improves); best_reduced_cost
    is minus the largest violation found, clipped at 0, tol or not.  This is
    the one-task case of measurement_pricing_task.
    """
    return lockstep([measurement_pricing_task(out_ens, lam, starts, rng, tol)])[0]


def measurement_pricing_task(out_ens: Ensemble, lam: HermitianMatrix, starts: int, rng,
                             tol: float = 1e-7):
    """measurement_pricing as a resumable task (see optim.lockstep): yields
    its sphere search from `starts` random directions, returns the outcome."""
    if starts < 1:
        raise ValueError("starts must be >= 1")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    probs, mats, avg = _ensemble_arrays(out_ens)
    d = out_ens.dim
    fun_grad = _measurement_objective(probs, mats, avg, lam.mat)
    minima = yield fun_grad, np.array([random_pure(rng, d).vec for _ in range(starts)])
    columns = []
    best = 0.0
    for f, v in minima:
        violation = -f  # c(w) - w^dag lam w
        best = max(best, violation)
        if violation > tol:
            w = PureState(v)
            columns.append((mat_to_coords(w.projector()), info_coefficient(probs, mats, avg, v), w))
    return PricingOutcome(columns=columns, best_reduced_cost=-best)


def _seed_directions(out_ens: Ensemble) -> list:
    """Orthonormal basis, average-output eigenbasis, and (for pure outputs)
    the square-root-measurement directions.  Feasibility is guaranteed by the
    orthonormal block; the rest is warm-start material."""
    probs, mats, avg = _ensemble_arrays(out_ens)
    d = out_ens.dim
    dirs = [PureState(e) for e in np.eye(d)]
    _, vecs = np.linalg.eigh(avg)
    dirs.extend(PureState(fix_phase(vecs[:, k])) for k in range(d))
    pure_vecs = []
    for m in mats:
        eigs, v = np.linalg.eigh(m)
        if eigs[-1] > 1.0 - 1e-9:
            pure_vecs.append(normalized_state(fix_phase(v[:, -1])))
    if len(pure_vecs) == len(mats):
        srm = square_root_measurement(pure_vecs)
        dirs.extend(srm.directions)
    out, seen = [], []
    for w in dirs:
        col = mat_to_coords(w.projector())
        if all(np.abs(col - c).max() > 1e-9 for c in seen):
            out.append(w)
            seen.append(col)
    return out


def stationarity_dual(out_ens: Ensemble, weights, directions) -> HermitianMatrix:
    """The Hermitian lam that best solves lam w_j = grad c(w_j) / 2 over the
    support directions w_j, in least squares weighted by their weights q_j.

    At an optimal POVM each support direction maximizes c(w) - w^dag lam w
    for the optimal dual lam, with value 0, so that dual solves these
    equations exactly, even when the master's vertex dual is a different
    one.  Since c is homogeneous of degree 2, w^dag grad c(w) = 2 c(w)
    (Euler), and an exact solution also gives w_j^dag lam w_j = c(w_j).
    """
    probs, mats, avg = _ensemble_arrays(out_ens)
    d = out_ens.dim
    vecs = np.stack([w.vec for w in directions])
    # the objective at lam = 0 is -c, so its gradient is -grad c
    _, neg_grad = _measurement_objective(probs, mats, avg, np.zeros((d, d)))(vecs)
    basis = np.stack([coords_to_mat(e, d) for e in np.eye(d * d)])
    root_q = np.sqrt(np.asarray(weights, dtype=float))[:, None]
    images = root_q[:, :, None] * np.einsum("kab,jb->jak", basis, vecs)  # lam w_j per coordinate
    target = -0.5 * root_q * neg_grad
    rows = images.reshape(-1, d * d)
    coords, *_ = np.linalg.lstsq(
        np.concatenate([rows.real, rows.imag]),
        np.concatenate([target.real.ravel(), target.imag.ravel()]),
        rcond=None,
    )
    return HermitianMatrix(coords_to_mat(coords, d))


def information_bound(lam: HermitianMatrix, violation: float) -> float:
    """Upper bound Tr lam + d max(0, violation) on the information of every
    rank-one POVM, where violation is max_w c(w) - w^dag lam w.

    A complete rank-one POVM has sum_j q_j = d, so its information
    sum_j q_j c(w_j) = Tr lam + sum_j q_j (c(w_j) - w_j^dag lam w_j) is at most
    the bound, for any Hermitian lam.
    """
    return float(np.trace(lam.mat).real) + lam.dim * max(0.0, violation)


def optimize_measurement(out_ens: Ensemble, opts: C11Options = None, rng=None):
    """Best rank-one POVM for a fixed output ensemble, by column generation.

    Returns (povm, accessible information, status).  The status is
    "converged" once information_bound(lam) <= objective + d * pricing_tol
    for a priced dual lam, "round-limit" if measurement_rounds master
    re-solves pass first.  On the first round, and after a round that
    raised the objective by at most d * pricing_tol, the stationarity dual
    of the master's support is priced first: it certifies a master that
    already holds an optimal POVM, where the vertex dual of a degenerate
    master need not.  If it neither certifies nor yields a column that
    improves the master, the round prices at the LP dual (trace equal to the
    objective, so its certificate is "no column beats the dual by more than
    pricing_tol").  The final weights are re-fit by nonnegative least
    squares on the selected directions so completeness holds to POVM
    tolerance despite LP roundoff.  Without `rng` the search draws from
    default_rng(0).  This is the one-task case of optimize_measurement_task.
    """
    opts = opts or C11Options()
    if rng is None:
        rng = np.random.default_rng(0)
    return lockstep([optimize_measurement_task(out_ens, opts, rng)])[0]


def optimize_measurement_task(out_ens: Ensemble, opts: C11Options, rng):
    """optimize_measurement as a resumable task (see optim.lockstep): the
    column generation yields each pricing search and returns (povm,
    accessible information, status)."""
    d = out_ens.dim
    master = measurement_lp(out_ens, _seed_directions(out_ens))
    slack = d * opts.pricing_tol
    previous = None  # master objective when pricing last ran

    def price(lam):
        return measurement_pricing_task(out_ens, lam, opts.starts, rng, tol=opts.pricing_tol)

    def pricing(sol):
        nonlocal previous
        stalled = previous is None or sol.objective - previous <= slack
        previous = sol.objective
        if stalled:
            support = np.flatnonzero(sol.x > 1e-10)
            lam = stationarity_dual(out_ens, sol.x[support], [master.tags[j] for j in support])
            outcome = yield from price(lam)
            if information_bound(lam, -outcome.best_reduced_cost) - sol.objective <= slack:
                return PricingOutcome(columns=[])
            improving = [col for col in outcome.columns
                         if col[1] - sol.duals @ col[0] > opts.pricing_tol]
            if improving:
                return PricingOutcome(columns=improving)
        return (yield from price(coords_to_hermitian(HermitianCoords(d, sol.duals))))

    sol, _, converged = yield from column_generation_task(
        master, pricing, tol=opts.pricing_tol, max_rounds=opts.measurement_rounds
    )
    keep = sol.x > 1e-10
    directions = [w for w, k in zip(master.tags, keep) if k]
    # re-fit the weights on the selected directions only (an enlarged fit
    # would be degenerate and free to walk away from the optimized POVM)
    a = np.stack([mat_to_coords(w.projector()) for w in directions], axis=1)
    weights, _ = nnls(a, mat_to_coords(np.eye(d)))
    povm = _complete_povm(weights, directions, d)
    status = "converged" if converged else "round-limit"
    return povm, accessible_information_given(out_ens, povm), status


def _complete_povm(weights, directions, dim: int) -> Povm:
    """Exact completeness: scale into the PSD cone, then add the remainder
    I - sum q w w^dag as (tiny) eigen rank-one elements."""
    total = np.zeros((dim, dim), dtype=complex)
    for q, w in zip(weights, directions):
        total += q * w.projector()
    top = float(np.linalg.eigvalsh(total)[-1])
    scale = 1.0 / top if top > 1.0 else 1.0
    items = [(q * scale, w) for q, w in zip(weights, directions) if q * scale > 1e-12]
    remainder = np.eye(dim) - scale * total
    eigs, vecs = np.linalg.eigh(remainder)
    for lam, k in zip(eigs, range(dim)):
        if lam > 1e-12:
            items.append((float(lam), PureState(fix_phase(vecs[:, k]))))
    return Povm(items, dim=dim)


def induced_classical_channel(ch: QuantumChannel, povm: Povm) -> QuantumChannel:
    """Fixing the measurement yields a channel whose outputs are classical:
    input v maps to the outcome distribution of measuring N(v v^dag).

    Built as the composition measurement-after-channel, with Kraus operators
    sqrt(q_j) |j><w_j| A_k, and flagged diagonal_output so the C_{1,inf}
    machinery can use the cheap entropy path.
    """
    if povm.dim != ch.dim_out:
        raise DimensionError(f"POVM dim {povm.dim} != channel output dim {ch.dim_out}")
    n = len(povm.weights)
    kraus = []
    for j, (q, w) in enumerate(zip(povm.weights, povm.directions)):
        bra = np.zeros((n, povm.dim), dtype=complex)
        bra[j, :] = np.sqrt(q) * w.vec.conj()
        for a in ch.kraus:
            kraus.append(bra @ a)
    return QuantumChannel(kraus, diagonal_output=True)


def _signal_weights(ens: Ensemble, signals: list) -> tuple:
    """Map an ensemble supported on a subset of `signals` back onto the full
    signal list (zero weight for unused signals)."""
    weights = np.zeros(len(signals))
    for p, s in ens.items():
        for i, sig in enumerate(signals):
            if abs(abs(np.vdot(s.vec, sig.vec)) - 1.0) < 1e-9:
                weights[i] += p
                break
    if weights.sum() <= 0.0:
        weights[:] = 1.0
    return tuple(weights / weights.sum())


def _initial_ensemble(ch, restricted_signals, restart_index, rng):
    if restricted_signals:
        k = len(restricted_signals)
        probs = np.full(k, 1.0 / k) if restart_index == 0 else rng.dirichlet(np.ones(k))
        return Ensemble(list(zip(probs, restricted_signals)))
    d = ch.dim_in
    if restart_index == 0:
        return Ensemble([(1.0 / d, PureState(e)) for e in np.eye(d)])
    states = [random_pure(rng, d) for _ in range(d + 1)]
    return Ensemble(list(zip(rng.dirichlet(np.ones(d + 1)), states)))


def c11(
    ch: QuantumChannel,
    restricted_signals: list = None,
    restarts: int = 8,
    seed: int = 0,
    opts: C11Options = None,
) -> C11Result:
    """Alternate measurement and ensemble optimization from several restarts.

    Restart 0 starts from the canonical uniform ensemble; the rest are
    random, each restart with its own random stream spawned from `seed`.
    The restarts run in lockstep (optim.lockstep): their measurement
    searches of one round are one batched sphere search, and each restart's
    values are those it gives alone.  The landscape has stable non-global
    points, so all per-restart values are retained and the best pair is
    returned.  The status is that of the restart the pair comes from:
    "converged" if its alternation stopped gaining, "round-limit" if it ran
    out of alternations.  Every iterate's value and output-ensemble chi land
    on `trace`, ordered by restart, then alternation (the Holevo bound
    check).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    opts = opts or C11Options()
    if opts.alternations < 1:
        raise ValueError("C11Options.alternations must be >= 1")
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    runs = lockstep([_restart_task(ch, restricted_signals, r, np.random.default_rng(seeds[r]), opts)
                     for r in range(restarts)])
    best = None  # (value, ensemble, povm, converged) of the best restart
    restart_values = []
    trace = []
    for local_best, converged, rows in runs:
        trace.extend(rows)
        restart_values.append(local_best[0])
        if best is None or local_best[0] > best[0] + 1e-12:
            best = (*local_best, converged)

    value, ens, povm, converged = best
    # re-evaluate so the reported value is exactly the accessible information
    # of the returned pair
    final_value = accessible_information_given(channel_ensemble(ch, ens), povm)
    return C11Result(
        value=final_value,
        ensemble=ens,
        povm=povm,
        restart_values=restart_values,
        status="converged" if converged else "round-limit",
        trace=trace,
    )


def _restart_task(ch, restricted_signals, r, rng, opts):
    """One restart's alternation as a resumable task; returns its best
    (value, ensemble, povm), whether it converged, and its trace rows."""
    ens = _initial_ensemble(ch, restricted_signals, r, rng)
    local_best = None
    prev_value = -np.inf
    converged = False
    trace = []
    for alt in range(opts.alternations):
        out_ens = channel_ensemble(ch, ens)
        povm, v_meas, _ = yield from optimize_measurement_task(out_ens, opts, rng)
        trace.append(
            {"restart": r, "alternation": alt, "step": "measurement",
             "value": v_meas, "chi": holevo_chi(out_ens)}
        )
        if local_best is None or v_meas > local_best[0]:
            local_best = (v_meas, ens, povm)

        induced = induced_classical_channel(ch, povm)
        c1_opts = C1InfOptions(
            seed=int(rng.integers(2**31)),
            initial_weights=_signal_weights(ens, restricted_signals)
            if restricted_signals else None,
        )
        c1_res = c1inf(C1InfProblem(
            induced,
            restricted_signals=list(restricted_signals) if restricted_signals else None,
            options=c1_opts,
        ))
        ens = c1_res.ensemble
        v_ens = c1_res.value
        trace.append(
            {"restart": r, "alternation": alt, "step": "ensemble",
             "value": v_ens, "chi": holevo_chi(channel_ensemble(ch, ens))}
        )
        if v_ens > local_best[0]:
            local_best = (v_ens, ens, povm)
        if local_best[0] - prev_value < ALT_TOL:
            converged = True
            break
        prev_value = local_best[0]
    return local_best, converged, trace
