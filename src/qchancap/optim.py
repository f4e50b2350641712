"""Shared smooth-optimization machinery for the capacity engines.

Multistart local minimization over unit state vectors, line maximization of
concave objectives along density-matrix segments, and the step-to-boundary
computation that keeps iterates positive semidefinite.
"""

import numpy as np

from .core import LN2, fix_phase, snap_vector

STEP_CAP = 1e6
LBFGS_MEMORY = 10  # correction pairs kept per start, at most one per real variable
LBFGS_FTOL = 1e-15  # relative decrease below which a start stops
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
WOLFE = 0.9  # a step is extended while the slope along d stays below this share
MAX_EXPANSION = 64.0  # longest step the line search extends to; the first trial is at most 1
MAX_TRIALS = 60  # line-search evaluations per iteration


def batched_objective(fun_grad_rows):
    """Let an objective written for a batch of vectors also take one vector.

    `fun_grad_rows(V)` maps an (S, d) array to values of shape (S,) and
    gradients of shape (S, d).  The returned function passes a 2-D batch
    through unchanged and maps a 1-D vector v to (float value, 1-D gradient).
    """

    def fun_grad(v):
        v = np.asarray(v)
        if v.ndim == 1:
            f, g = fun_grad_rows(v[None, :])
            return float(f[0]), g[0]
        return fun_grad_rows(v)

    return fun_grad


def _rowdot(a, b):
    return (a * b).sum(axis=1)


def minimize_on_sphere(
    fun_grad,
    dim: int,
    start_vectors,
    gtol: float = 1e-10,
    maxiter: int = 400,
    distinct_tol: float = 1e-6,
):
    """Multistart local minimization of f(v) over complex unit vectors.

    fun_grad(V) takes a batch V of shape (S, dim), one vector per row, and
    returns values of shape (S,) and complex gradients of shape (S, dim), row
    s in the convention df = Re(g_s^dag dv_s).  All starts run at once: one
    L-BFGS on the real embedding of the normalized objective f(x/|x|), every
    start with its own correction pairs, two-loop recursion and line search
    (Armijo backtracking; an accepted step is doubled while the slope along
    the direction stays steep, as a Wolfe line search would).  A start stops
    when its gradient's largest entry is at most gtol, when its relative
    decrease falls to 1e-15 (also when the line search can only promise
    less), or after maxiter iterations; a stopped start is frozen, while the
    whole batch is still evaluated together.  Returns distinct local minima
    as (value, vector) pairs sorted by value (phase-gauge fixed,
    deterministic tie-break by amplitudes).
    """
    v0 = np.asarray(list(start_vectors), dtype=complex).reshape(-1, dim)
    if v0.shape[0] == 0:
        return []
    x = np.concatenate([v0.real, v0.imag], axis=1)

    def embedded(x):
        r = np.sqrt(_rowdot(x, x))[:, None]
        u = x / r
        f, g = fun_grad(u[:, :dim] + 1j * u[:, dim:])
        g = np.concatenate([g.real, g.imag], axis=1)
        return f, (g - u * _rowdot(u, g)[:, None]) / r

    starts, n = x.shape
    memory = min(LBFGS_MEMORY, n)
    f, g = embedded(x)
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
            f_try, g_try = embedded(x_try)
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
    values, _ = fun_grad(v)
    found = [(float(val), row) for val, row in zip(values, v)]

    distinct = []
    for f, v in sorted(found, key=_sphere_sort_key):
        if all(np.abs(v - u).max() > distinct_tol for _, u in distinct):
            distinct.append((f, v))
    return distinct


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

    Bisects on the sign of the derivative; assumes deriv(0) >= 0.  The upper
    end is probed just inside t_max: on the PSD boundary itself the clipped
    matrix log would report 0 where the true derivative diverges to -inf.
    """
    if t_max <= 0.0:
        return 0.0
    probe = t_max * (1.0 - 1e-9)
    if deriv(probe) >= 0.0:
        return probe
    lo, hi = 0.0, probe
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        if deriv(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def traceless_part(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[0]
    return mat - (np.trace(mat) / d) * np.eye(d)


def ascend_density_step(
    grad_fn,
    rho: np.ndarray,
    min_direction_norm: float = 1e-9,
    bisect_rounds: int = 12,
):
    """One projected-gradient ascent step over the density-matrix set.

    grad_fn(rho) -> Hermitian gradient ndarray.  The move direction is the
    traceless projection of the gradient, clipped at the PSD boundary, with
    the step length fixed by derivative bisection (concave objectives).
    Returns (new_rho, moved: bool).
    """
    grad = grad_fn(rho)
    direction = traceless_part(grad)
    dnorm = np.linalg.norm(direction)
    if dnorm < min_direction_norm:
        return rho, False
    direction = direction / dnorm  # unit scale keeps the bisection resolution stable
    t_hi = psd_boundary_step(rho, direction)
    if t_hi <= 0.0:
        return rho, False

    def deriv(t):
        g = grad_fn(rho + t * direction)
        return float(np.trace(g @ direction).real)

    t = line_max_concave(deriv, t_hi, rounds=bisect_rounds)
    if t <= 0.0:
        return rho, False
    return rho + t * direction, True


def log2_safe(mat: np.ndarray, clip: float = 1e-12) -> np.ndarray:
    """log2 of a PSD matrix with sub-clip eigenvalues contributing nothing.

    A stack of matrices (..., d, d) gives the stack of their logs.
    """
    eigs, vecs = np.linalg.eigh(mat)
    keep = eigs > clip
    logs = np.where(keep, np.log2(np.where(keep, eigs, 1.0)), 0.0)
    return (vecs * logs[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


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
    "ascend_density_step",
    "batched_objective",
    "line_max_concave",
    "log2_safe",
    "minimize_on_sphere",
    "psd_boundary_step",
    "renormalize_density",
    "traceless_part",
]
