"""Shared smooth-optimization machinery for the capacity engines.

Multistart local minimization over unit state vectors, for one problem or
for several at once, and the lockstep driver that runs independent
resumable tasks so that their searches share one batch; the entropy-sum
objectives of the density searches, and line maximization of concave
objectives along density-matrix segments (C_E's Frank-Wolfe step).  The
projected-gradient ascent step and its PSD step-to-boundary are reached
only by the tests and perfbench's tracer, which wraps the step by name.
"""

import numpy as np

from .core import (
    LN2,
    adjoint_apply,
    channel_apply_mat,
    fix_phase,
    log2_clipped,
    log2_safe,
    matrix_entropy,
    snap_vector,
)

STEP_CAP = 1e6
LBFGS_MEMORY = 10  # correction pairs kept per start, at most one per real variable
LBFGS_FTOL = 1e-15  # relative decrease below which a start stops
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
WOLFE = 0.9  # a step is extended while the slope along d stays below this share
MAX_EXPANSION = 64.0  # longest step the line search extends to; the first trial is at most 1
MAX_TRIALS = 60  # line-search evaluations per iteration
LINE_LEVEL = 5  # bisection rounds per derivative call: 2**5 - 1 points at once
DISTINCT_TOL = 1e-6  # minima closer than this (max-norm) are one
MIN_DIRECTION_NORM = 1e-9  # an ascent step with a shorter projected gradient does not move
BISECT_ROUNDS = 30  # bisection rounds of an ascent step's line search


def _rowdot(a, b):
    return np.add.reduce(a * b, axis=1)


def minimize_on_sphere(
    fun_grad,
    dim: int,
    start_vectors,
    gtol: float = 1e-10,
    maxiter: int = 400,
):
    """Multistart local minimization of f(v) over complex unit vectors.

    fun_grad(V) takes a batch V of shape (S, dim), one vector per row, and
    returns values of shape (S,) and complex gradients of shape (S, dim), row
    s in the convention df = Re(g_s^dag dv_s).  Returns distinct local minima
    as (value, vector) pairs sorted by value (phase-gauge fixed,
    deterministic tie-break by amplitudes).  This is the one-problem case of
    minimize_on_spheres, which describes the search.
    """
    return minimize_on_spheres([(fun_grad, start_vectors)], dim, gtol, maxiter)[0]


def minimize_on_spheres(problems, dim: int, gtol: float = 1e-10, maxiter: int = 400):
    """Multistart local minimization of several objectives at once.

    `problems` lists (fun_grad, start_vectors) pairs of equal dimension, each
    fun_grad as in minimize_on_sphere.  The starts of all problems are the
    rows of one batch: one L-BFGS on the real embedding of the normalized
    objective f(x/|x|), every start with its own correction pairs, two-loop
    recursion and line search (Armijo backtracking; an accepted step is
    doubled while the slope along the direction stays steep, as a Wolfe line
    search would).  A start stops when its gradient's largest entry is at
    most gtol, when its relative decrease falls to 1e-15 (also when the line
    search can only promise less), or after maxiter iterations; a stopped
    start is frozen.  Each fun_grad is called on exactly its own problem's
    rows, all of them, whenever one of them is still moving, and not again
    once none is, so a problem's minima are bit for bit those of running it
    alone: every step of the iteration is row by row.  Returns one list of
    distinct minima per problem, as minimize_on_sphere does; duplicates are
    merged within a problem, never across problems.
    """
    blocks = [np.asarray(list(starts), dtype=complex).reshape(-1, dim) for _, starts in problems]
    edges = np.cumsum([0] + [len(b) for b in blocks])
    spans = [(i, fun, a, b)
             for i, ((fun, _), a, b) in enumerate(zip(problems, edges[:-1], edges[1:])) if b > a]
    if not spans:
        return [[] for _ in problems]
    firsts = [a for _, _, a, _ in spans]
    v0 = np.concatenate(blocks)
    x = np.concatenate([v0.real, v0.imag], axis=1)

    def embedded(x, live):
        """Values and projected gradients of the problems with a live row;
        the other rows read +inf, which no line search accepts."""
        r = np.sqrt(_rowdot(x, x))[:, None]
        u = x / r
        vecs = u[:, :dim] + 1j * u[:, dim:]
        f = np.full(len(x), np.inf)
        grads = np.zeros_like(vecs)
        for (_, fun, a, b), on in zip(spans, np.logical_or.reduceat(live, firsts).tolist()):
            if on:
                f[a:b], grads[a:b] = fun(vecs[a:b])
        g = np.concatenate([grads.real, grads.imag], axis=1)
        return f, (g - u * _rowdot(u, g)[:, None]) / r

    starts, n = x.shape
    memory = min(LBFGS_MEMORY, n)
    f, g = embedded(x, np.ones(starts, dtype=bool))
    s_mem = np.zeros((memory, starts, n))
    y_mem = np.zeros((memory, starts, n))
    rho_mem = np.zeros((memory, starts))  # 0 marks an empty or skipped pair
    alpha = np.zeros((memory, starts))
    gamma = np.ones(starts)
    active = np.abs(g).max(axis=1) > gtol
    for it in range(maxiter):
        if not active.any():
            break
        # two-loop recursion, newest pair first
        slots = [(it - 1 - k) % memory for k in range(min(it, memory))]
        q = g.copy()
        for k in slots:
            alpha[k] = rho_mem[k] * _rowdot(s_mem[k], q)
            q -= alpha[k][:, None] * y_mem[k]
        q *= gamma[:, None]
        for k in reversed(slots):
            q += (alpha[k] - rho_mem[k] * _rowdot(y_mem[k], q))[:, None] * s_mem[k]
        d = -q
        slope = _rowdot(g, d)
        # a start whose direction does not descend drops its pairs; a start
        # without pairs takes a steepest-descent step of length at most 1
        uphill = slope >= 0.0
        rho_mem[:, uphill] = 0.0
        gamma[uphill] = 1.0
        fresh = (rho_mem == 0.0).all(axis=0)
        d = np.where(fresh[:, None], -g, d)
        d[~active] = 0.0
        slope = np.where(fresh, -_rowdot(g, g), slope)
        t = np.where(fresh, 1.0 / np.maximum(np.linalg.norm(d, axis=1), 1.0), 1.0)

        # line search, one batched evaluation per trial: halve the step
        # until it gives sufficient decrease, or double an accepted step
        # while the slope along d is still steep and the value still falls
        pending = active.copy()
        moved = np.zeros(starts, dtype=bool)
        x_new, f_new, g_new = x, f, g
        scale = np.maximum(np.abs(f), 1.0)
        for _ in range(MAX_TRIALS):
            x_try = x + t[:, None] * d
            f_try, g_try = embedded(x_try, pending)
            better = pending & (f_try <= f + ARMIJO * t * slope) & (f_try < f_new)
            x_new = np.where(better[:, None], x_try, x_new)
            f_new = np.where(better, f_try, f_new)
            g_new = np.where(better[:, None], g_try, g_new)
            expand = better & (_rowdot(g_try, d) < WOLFE * slope) & (t < MAX_EXPANSION)
            shrink = pending & ~moved & ~better
            moved |= better
            t = np.where(expand, 2.0 * t, np.where(shrink, 0.5 * t, t))
            # a start stops shrinking once the decrease it could still make is below ftol
            pending = expand | (shrink & (-t * slope > LBFGS_FTOL * scale))
            if not pending.any():
                break

        step, dg = x_new - x, g_new - g
        sy = _rowdot(step, dg)
        yy = _rowdot(dg, dg)
        keep = moved & (sy > np.finfo(float).eps * yy)
        slot = it % memory
        s_mem[slot] = step
        y_mem[slot] = dg
        rho_mem[slot] = np.where(keep, 1.0 / np.where(keep, sy, 1.0), 0.0)
        gamma = np.where(keep, sy / np.where(keep, yy, 1.0), gamma)

        decrease = (f - f_new) / np.maximum(np.maximum(np.abs(f), np.abs(f_new)), 1.0)
        x, f, g = x_new, f_new, g_new
        active &= moved & (decrease > LBFGS_FTOL) & (np.abs(g).max(axis=1) > gtol)

    v = x[:, :dim] + 1j * x[:, dim:]
    v = np.array([snap_vector(fix_phase(row / np.linalg.norm(row))) for row in v])
    minima = [[] for _ in problems]
    for i, fun, a, b in spans:
        values, _ = fun(v[a:b])
        for f_row, row in sorted(((float(val), row) for val, row in zip(values, v[a:b])),
                                 key=_sphere_sort_key):
            if all(np.abs(row - u).max() > DISTINCT_TOL for _, u in minima[i]):
                minima[i].append((f_row, row))
    return minima


def lockstep(tasks):
    """Run resumable tasks together, batching their sphere searches.

    A task is a generator that yields a search request (fun_grad,
    start_vectors), with start_vectors of shape (S, dim), receives the
    minima minimize_on_sphere would return for it, and finally returns its
    result.  Each round advances every live task to its next request, then
    answers all the round's requests of one dimension with one
    minimize_on_spheres call.  Tasks never see each other's rows, so each
    result is the one the task gives when run alone.  Returns the tasks'
    results, in order.
    """
    results = [None] * len(tasks)
    answers = dict.fromkeys(range(len(tasks)))
    while answers:
        requests = {}
        for i, answer in answers.items():
            try:
                requests[i] = tasks[i].send(answer)
            except StopIteration as stop:
                results[i] = stop.value
        by_dim = {}
        for i, (_, starts) in requests.items():
            by_dim.setdefault(np.shape(starts)[-1], []).append(i)
        answers = {}
        for dim, ids in by_dim.items():
            answers.update(zip(ids, minimize_on_spheres([requests[i] for i in ids], dim)))
    return results


def _sphere_sort_key(item):
    f, v = item
    return (f, tuple(np.round(v.real, 9)), tuple(np.round(v.imag, 9)))


def psd_boundary_step(rho: np.ndarray, direction: np.ndarray) -> float:
    """Largest t with rho + t*direction still positive semidefinite.

    Eigenvalues of rho below 1e-14 are floored, which maps a blocked
    boundary move to a vanishingly small step instead of an error.
    """
    eigs, vecs = np.linalg.eigh(rho)
    eigs = np.clip(eigs, 1e-14, None)
    inv_sqrt = 1.0 / np.sqrt(eigs)
    m = (vecs.conj().T @ direction @ vecs) * np.outer(inv_sqrt, inv_sqrt)
    mu = float(np.linalg.eigvalsh(m)[0])
    if mu > -1e-12:
        return STEP_CAP
    return min(1.0 / (-mu), STEP_CAP)


def line_max_concave(deriv, t_max: float, rounds: int = 12) -> float:
    """Maximize a concave function on [0, t_max] given its derivative.

    deriv maps a 1-D array of points to the derivatives there.  The result is
    the point derivative bisection returns: it keeps the last point whose
    derivative is >= 0 after `rounds` halvings, and it assumes deriv(0) >= 0.
    The bisection points are evaluated one level at a time: each call gets
    the 2**LINE_LEVEL - 1 midpoints the next LINE_LEVEL rounds could visit,
    computed as bisection computes them, and the rounds replay bisection's
    decisions on their signs.  The upper end is probed just inside t_max
    (in the first call): on the PSD boundary itself the clipped matrix log
    would report 0 where the true derivative diverges to -inf.
    """
    if t_max <= 0.0:
        return 0.0
    probe = t_max * (1.0 - 1e-9)
    lo, hi = 0.0, probe
    extra = [probe]
    while True:
        depth = max(min(LINE_LEVEL, rounds), 0)
        n = 2**depth
        edges = np.empty(n + 1)
        edges[0], edges[n] = lo, hi
        for level in range(depth):  # midpoints of the intervals bisection reaches at this level
            step = 2 ** (depth - level)
            edges[step // 2::step] = 0.5 * (edges[:-1:step] + edges[step::step])
        values = deriv(np.concatenate([edges[1:-1], extra])).tolist()
        if extra and values[-1] >= 0.0:
            return probe
        extra = []
        i, j = 0, n
        while j - i > 1:
            mid = (i + j) // 2
            if values[mid - 1] >= 0.0:
                i = mid
            else:
                j = mid
        lo, hi = float(edges[i]), float(edges[j])
        rounds -= depth
        if rounds <= 0:
            return lo


def traceless_part(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[0]
    return mat - (np.trace(mat) / d) * np.eye(d)


# No engine calls this; it stays while perfbench's tracer wraps it by name.
def ascend_density_step(grad_fn, rho: np.ndarray, *, line_deriv):
    """One projected-gradient ascent step over the density-matrix set.

    grad_fn(rho) -> Hermitian gradient ndarray, called once per step.  The
    move direction is the traceless projection of the gradient, normalized
    and clipped at the PSD boundary; a projection shorter than
    MIN_DIRECTION_NORM gives no move.  line_deriv(rho, direction) returns the
    derivative of t -> f(rho + t*direction) as a function of an array of t
    (EntropySum.line_deriv); line_max_concave fixes the step length from it
    in BISECT_ROUNDS bisection rounds (concave objectives).
    Returns (new_rho, moved: bool).
    """
    grad = grad_fn(rho)
    direction = traceless_part(grad)
    dnorm = np.linalg.norm(direction)
    if dnorm < MIN_DIRECTION_NORM:
        return rho, False
    direction = direction / dnorm  # unit scale keeps the bisection resolution stable
    t_hi = psd_boundary_step(rho, direction)
    if t_hi <= 0.0:
        return rho, False
    t = line_max_concave(line_deriv(rho, direction), t_hi, rounds=BISECT_ROUNDS)
    if t <= 0.0:
        return rho, False
    return rho + t * direction, True


class EntropySum:
    """f(rho) = sum_k c_k S(Phi_k(rho)) + Tr(L rho) over density matrices.

    `terms` lists pairs (c_k, Phi_k), each Phi_k a trace-preserving
    QuantumChannel (identity_channel gives S(rho) itself,
    complementary_channel the environment's entropy); `linear` is the
    Hermitian L, or None.  S is core.matrix_entropy, in bits.  value and
    grad take one matrix or a stack (..., d, d) of them, and give on a stack
    exactly the results of its matrices one by one.
    """

    def __init__(self, terms, linear=None):
        self.terms = list(terms)
        self.linear = linear

    def value(self, mat: np.ndarray):
        return self._value(mat, self._images(mat))

    def grad(self, mat: np.ndarray) -> np.ndarray:
        """Hermitian gradient L - sum_k c_k (Phi_k^dag(log2 Phi_k(rho)) + I/ln 2)."""
        return self._grad(mat, self._images(mat))

    def value_grad(self, mat: np.ndarray):
        """(value(mat), grad(mat)), forming each Phi_k(mat) once."""
        images = self._images(mat)
        return self._value(mat, images), self._grad(mat, images)

    def _images(self, mat):
        return [channel_apply_mat(ch, mat) for _, ch in self.terms]

    def _value(self, mat, images):
        val = sum(c * matrix_entropy(img) for (c, _), img in zip(self.terms, images))
        if self.linear is not None:
            val = val + np.trace(self.linear @ mat, axis1=-2, axis2=-1).real
        return val

    def _grad(self, mat, images):
        eye = np.eye(mat.shape[-1])
        out = np.zeros_like(eye, dtype=complex) if self.linear is None else self.linear
        for (c, ch), img in zip(self.terms, images):
            out = out - c * (adjoint_apply(ch, log2_safe(img)) + eye / LN2)
        return out

    def line_deriv(self, mat: np.ndarray, direction: np.ndarray):
        """t -> d/dt f(mat + t*direction), for a 1-D array of t.

        Works on the output side: with A = Phi_k(mat) and B = Phi_k(direction),
        formed once, d/dt S(A + tB) = -Tr(B log2(A + tB)) - Tr(B)/ln 2, so a
        call costs one stacked eigh of the small output matrices per term (a
        closed-form spectrum for 2x2 outputs).
        """
        const = 0.0 if self.linear is None else float(np.trace(self.linear @ direction).real)
        lines = []
        for c, ch in self.terms:
            b = channel_apply_mat(ch, direction)
            const -= c * float(np.trace(b).real) / LN2
            lines.append((c, _trace_log2_along(channel_apply_mat(ch, mat), b)))

        def deriv(ts):
            ts = np.asarray(ts, dtype=float)
            out = np.full(ts.shape, const)
            for c, trace_log2 in lines:
                out -= c * trace_log2(ts)
            return out

        return deriv


def _trace_log2_along(a: np.ndarray, b: np.ndarray):
    """ts -> Tr(B log2(A + tB)) for each t, eigenvalues at most 1e-12 contributing 0.

    With eigenpairs (l_j, v_j) of A + tB this is sum_j log2(l_j) v_j^dag B v_j:
    one stacked eigh, or for 2x2 matrices the closed-form spectrum mid +- r,
    where v^dag B v = Tr(B)/2 +- Tr(B0 M0)/(2r) with B0 and M0 the traceless
    parts of B and A + tB.
    """
    if a.shape[0] != 2:
        def general(ts):
            eigs, vecs = np.linalg.eigh(a + ts[:, None, None] * b)
            b_diag = np.einsum("tij,ik,tkj->tj", vecs.conj(), b, vecs).real  # of V^dag B V
            return (log2_clipped(eigs) * b_diag).sum(axis=-1)

        return general

    a_mid, a_half = 0.5 * float((a[0, 0] + a[1, 1]).real), 0.5 * float((a[0, 0] - a[1, 1]).real)
    b_mid, b_half = 0.5 * float((b[0, 0] + b[1, 1]).real), 0.5 * float((b[0, 0] - b[1, 1]).real)
    a_off, b_off = complex(a[0, 1]), complex(b[0, 1])
    # Tr(B0 M0)/2 = b_half * x + Re(conj(b_off) y) is linear in t
    along_0 = b_half * a_half + (b_off.conjugate() * a_off).real
    along_1 = b_half * b_half + abs(b_off) ** 2

    def closed_2x2(ts):
        mid = a_mid + ts * b_mid
        r = np.hypot(a_half + ts * b_half, np.abs(a_off + ts * b_off))
        along = (along_0 + ts * along_1) / np.where(r > 0.0, r, np.inf)
        log_lo, log_hi = log2_clipped(mid - r), log2_clipped(mid + r)
        return (log_hi + log_lo) * b_mid + (log_hi - log_lo) * along

    return closed_2x2


def renormalize_density(mat: np.ndarray) -> np.ndarray:
    """Nearest-in-spirit density matrix: Hermitian part, negative eigenvalues
    clipped to zero, unit trace."""
    mat = (mat + mat.conj().T) / 2.0
    eigs, vecs = np.linalg.eigh(mat)
    eigs = np.clip(eigs, 0.0, None)
    mat = (vecs * eigs) @ vecs.conj().T
    return mat / mat.trace().real


__all__ = [
    "LN2",
    "EntropySum",
    "ascend_density_step",
    "line_max_concave",
    "lockstep",
    "minimize_on_sphere",
    "minimize_on_spheres",
    "psd_boundary_step",
    "renormalize_density",
    "traceless_part",
]
