"""Brute-force grid oracles for desk-scale verification.

Simple and independent of the optimization engines: dense angle grids for
accessible information, a Bloch-ball lattice for density objectives, and a
probability-simplex enumeration for restricted Holevo chi, all as array code:
closed-form simplex compositions (the 4-signal simplex streamed one leading
coordinate at a time), closed-form 2x2 spectra, and the angle sweeps in blocks
of a fixed number of points.  Every grid point is evaluated, except on the
ball for the concave objectives.  Everything here is limited to qubit
inputs/outputs; grids blow up beyond d = 2.

The ball is swept one z slice at a time for "coherent".  "qmi" and
"fixed-dual" are concave in the Bloch vector (mutual information is concave
in the input state; H(N(rho)) is concave and Tr(tau rho) linear), so the
tangent plane at any evaluated point a, f(a) + grad f(a).(n - a), bounds f on
the whole ball.  An octree over the lattice indices evaluates each cell's
centre and drops a cell once every plane it is given puts the cell's box more
than _PRUNE_MARGIN below the best value found; the surviving cells are split
down to single lattice points.  A plane is kept only where every spectrum in
the objective is above _PLANE_FLOOR, where its gradient is finite and its
roundoff far below the margin.  A dropped cell holds no point within the
margin of the maximum, so every maximal point is evaluated, and ties go, as
in the sweep, to the first in (z, x, y) index order.  The points are
evaluated by the sweep's expressions (one batch per slice there, one per
refinement step here), so the result is the sweep's bit for bit.

All entropies go through the three module-level kernels `_h2`, `_xlog2x`
and `_entropy_batch` (perfbench's tracer wraps them by name to count
evaluations), which rest on core's log2_clipped and matrix_entropy.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    HERMITIAN_TOL,
    LN2,
    SX,
    SY,
    SZ,
    DensityMatrix,
    DimensionError,
    Ensemble,
    QuantumChannel,
    channel_apply_mat,
    entropy_of_spectrum,
    log2_clipped,
    matrix_entropy,
)

PAULIS = (SX, SY, SZ)

# grid points (times signals) evaluated per array block in the angle sweeps,
# and cells (times planes) per block of the ball search's bounds
_BLOCK_ELEMS = 1 << 16
# the ball test of the Bloch lattice: |n|^2 <= 1 + _BALL_TOL
_BALL_TOL = 1e-12
# the ball search starts from about _START_CELLS^3 cells and keeps at most
# _LIVE_CELLS of them per batch.  It makes a tangent plane only where every
# eigenvalue in the objective exceeds _PLANE_FLOOR: an eigenvalue's roundoff
# (about 1e-15) then moves log2 of it by at most about 1e-11, so a plane's
# error across the ball stays well under _PRUNE_MARGIN, the amount by which a
# cell's bound must fall below the incumbent before the cell is dropped
_START_CELLS = 8
_LIVE_CELLS = 4096
_PLANE_FLOOR = 1e-4
_PRUNE_MARGIN = 1e-9
# the 8 corner offsets of a 2 x 2 x 2 box; as a mask, the upper half of each axis
_CORNERS = np.array(list(itertools.product((0, 1), repeat=3)))


@dataclass(frozen=True)
class GridSpec:
    resolution: float
    domain: str  # "bloch-ball" | "sphere-angles" | "simplex"

    def __post_init__(self):
        if not (np.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"grid step must be finite and positive, got {self.resolution!r}")
        if self.domain == "simplex" and self.resolution > 1:
            raise ValueError(f"simplex step must be at most 1, got {self.resolution!r}")


def bloch_vector(mat: np.ndarray) -> np.ndarray:
    return np.array([float(np.trace(mat @ s).real) for s in PAULIS])


def _plog2p(p: np.ndarray) -> np.ndarray:
    # shared by _h2 and _xlog2x, so a wrapped _xlog2x counts only its own calls
    return p * log2_clipped(p)


def _h2(p: np.ndarray) -> np.ndarray:
    """Binary entropy in bits, elementwise, p clipped to [0, 1]."""
    p = np.clip(p, 0.0, 1.0)
    return -(_plog2p(p) + _plog2p(1.0 - p))


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """p log2 p elementwise, 0 where p <= ENTROPY_CLIP."""
    return _plog2p(p)


def _entropy_batch(mats: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of a stack of Hermitian (..., k, k) matrices.

    2x2 spectra are taken in closed form, (tr ± sqrt((a - d)² + 4|b|²)) / 2,
    from the lower triangle as eigvalsh reads it (within a few ulps of it);
    larger k go to core.matrix_entropy.
    """
    if mats.shape[-1] != 2:
        return matrix_entropy(mats)
    a, d, b = mats[..., 0, 0].real, mats[..., 1, 1].real, mats[..., 1, 0]
    mid = 0.5 * (a + d)
    half_gap = 0.5 * np.sqrt((a - d) ** 2 + 4.0 * (b.real**2 + b.imag**2))
    return entropy_of_spectrum(np.stack([mid - half_gap, mid + half_gap], axis=-1))


def _blocks(values: np.ndarray, per_value: int) -> list:
    """Consecutive blocks of `values`, each about _BLOCK_ELEMS / per_value long."""
    return np.array_split(values, min(values.size, max(1, values.size * per_value // _BLOCK_ELEMS)))


def _projective_sweep(probs: np.ndarray, blochs: np.ndarray, step: float) -> float:
    """Best mutual information over projective measurements {n, -n}.

    n runs over the upper-hemisphere (polar, azimuth) lattice with spacing
    `step`, in blocks of azimuths.
    """
    polar = np.arange(0.0, np.pi / 2 + step, step)
    azim = np.arange(0.0, 2 * np.pi, step)
    sa, ca = np.sin(polar)[:, None], np.cos(polar)[:, None]
    best = -np.inf
    for chunk in _blocks(azim, polar.size * blochs.shape[0]):
        # bloch_i . n with n = (sin t cos f, sin t sin f, cos t): (k, polar, azimuths)
        across = np.outer(blochs[:, 0], np.cos(chunk)) + np.outer(blochs[:, 1], np.sin(chunk))
        dots = sa * across[:, None, :] + ca * blochs[:, 2, None, None]
        p_up = 0.5 * (1.0 + dots.reshape(blochs.shape[0], -1))
        info = _h2(probs @ p_up) - probs @ _h2(p_up)
        best = max(best, float(info.max()))
    return best


def _trine_sweep(probs: np.ndarray, blochs: np.ndarray, step: float) -> float:
    """Best mutual information over symmetric planar trine POVMs.

    Outcome j points along cos(g_j) e1 + sin(g_j) e2(beta) with
    g_j = gamma + 2 pi j / 3, e1 = x and e2(beta) = (0, sin beta, cos beta):
    a rotation gamma within the plane through the x axis tilted by beta.
    Evaluated as (betas, 3, gammas, signals) blocks.
    """
    gammas = np.arange(0.0, 2 * np.pi / 3, step)
    betas = np.arange(0.0, np.pi, max(step, np.pi / max(1, int(np.pi / step))))
    ang = gammas[None, :] + 2 * np.pi * np.arange(3)[:, None] / 3  # (3, G)
    along_x = np.cos(ang)[..., None] * blochs[:, 0]  # (3, G, k)
    in_plane = np.sin(ang)[..., None]  # (3, G, 1)
    best = -np.inf
    for chunk in _blocks(betas, along_x.size):
        tilt = np.sin(chunk)[:, None] * blochs[:, 1] + np.cos(chunk)[:, None] * blochs[:, 2]
        pj = (1.0 + along_x + in_plane * tilt[:, None, None, :]) / 3.0  # (B, 3, G, k)
        info = (_xlog2x(pj) @ probs).sum(axis=1) - _xlog2x(pj @ probs).sum(axis=1)
        best = max(best, float(info.max()))
    return best


def grid_accessible_info_2d(ens: Ensemble, step: float) -> float:
    """Lower bound on I_acc of a qubit ensemble by measurement grids.

    Sweeps (a) every projective measurement, directions parameterized by two
    angles, and (b) a two-angle family of symmetric 3-outcome rank-one POVMs
    (planar trines: in-plane rotation plus a tilt of the plane).  Returns the
    best mutual information found (at least 0).
    """
    GridSpec(step, "sphere-angles")
    if ens.dim != 2:
        raise DimensionError("the accessible-information grid handles qubits only")
    probs = np.asarray(ens.probs)
    blochs = np.stack([bloch_vector(m) for m in ens.density_mats()])  # (k, 3)
    return max(0.0, _projective_sweep(probs, blochs, step), _trine_sweep(probs, blochs, step))


def _qubit_channel_affine(ch: QuantumChannel):
    """Affine Bloch action of a qubit-to-qubit channel: n_out = M n + t."""
    if ch.dim_in != 2 or ch.dim_out != 2:
        raise DimensionError("Bloch affine form needs a qubit-to-qubit channel")
    t = bloch_vector(channel_apply_mat(ch, np.eye(2) / 2))
    m = np.zeros((3, 3))
    for a in range(3):
        m[:, a] = bloch_vector(channel_apply_mat(ch, PAULIS[a] / 2))
    return m, t


def _environment_affine(ch: QuantumChannel):
    """Environment matrix as an affine function of the Bloch vector."""
    k = len(ch.kraus)
    w0 = np.empty((k, k), dtype=complex)
    ws = [np.empty((k, k), dtype=complex) for _ in range(3)]
    for i in range(k):
        for j in range(k):
            prod = ch.kraus[j].conj().T @ ch.kraus[i]
            w0[i, j] = 0.5 * np.trace(prod)
            for a in range(3):
                ws[a][i, j] = 0.5 * np.trace(PAULIS[a] @ prod)
    return w0, ws


class _BallObjective:
    """One of the Bloch-ball objectives as a function of the Bloch vector n."""

    def __init__(self, ch: QuantumChannel, objective: str, tau):
        self.objective = objective
        self.m, self.t = _qubit_channel_affine(ch)
        if objective == "fixed-dual":
            self.tau_tr, self.tau_bloch = float(np.trace(tau).real), bloch_vector(tau)
        else:
            w0, ws = _environment_affine(ch)
            self.w0, self.ws = w0, np.stack(ws)

    def _env(self, n):
        return self.w0[None, :, :] + np.tensordot(n, self.ws, axes=(1, 0))

    def values(self, n: np.ndarray) -> np.ndarray:
        """Values at the points n (P, 3)."""
        n_out = n @ self.m.T + self.t
        h_out = _h2(0.5 * (1.0 + np.linalg.norm(n_out, axis=1)))
        if self.objective == "fixed-dual":
            return h_out - 0.5 * (self.tau_tr + n @ self.tau_bloch)
        h_env = _entropy_batch(self._env(n))
        if self.objective == "coherent":
            return h_out - h_env
        h_in = _h2(0.5 * (1.0 + np.linalg.norm(n, axis=1)))
        return h_in + h_out - h_env

    def gradients(self, n: np.ndarray):
        """Gradients at the points n (P, 3) of "qmi" or "fixed-dual", and
        whether each spectrum in the objective is above _PLANE_FLOOR there."""
        g_out, ok = _bloch_entropy_grad(n @ self.m.T + self.t)
        grad = g_out @ self.m
        if self.objective == "fixed-dual":
            return grad - 0.5 * self.tau_bloch, ok
        g_in, ok_in = _bloch_entropy_grad(n)
        lam, vec = np.linalg.eigh(self._env(n))
        log_env = (vec * np.log2(np.maximum(lam, _PLANE_FLOOR))[:, None, :]) @ vec.conj().transpose(0, 2, 1)
        # -S(env) has partial derivatives Tr(W_a log2 env), since Tr W_a = 0
        g_env = np.einsum("ajk,pkj->pa", self.ws, log_env).real
        return grad + g_in + g_env, ok & ok_in & (lam[:, 0] > _PLANE_FLOOR)


def _bloch_entropy_grad(n: np.ndarray):
    """Gradient in n of h2((1 + |n|) / 2) for rows n (P, 3), and whether both
    eigenvalues (1 ± |n|) / 2 exceed _PLANE_FLOOR."""
    r = np.linalg.norm(n, axis=1)
    # the gradient is -artanh(r) / (r ln 2) n, tending to 0 at r = 0; r is
    # capped where the floor rejects the plane anyway
    capped = np.arctanh(np.minimum(r, 1.0 - 2.0 * _PLANE_FLOOR))
    scale = np.divide(capped, r, out=np.ones_like(r), where=r > 0)
    return -(scale / LN2)[:, None] * n, 0.5 * (1.0 - r) > _PLANE_FLOOR


def _ball_problem(ch: QuantumChannel, objective: str, step: float, tau):
    GridSpec(step, "bloch-ball")
    if objective not in ("qmi", "coherent", "fixed-dual"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "fixed-dual":
        if tau is None:
            raise ValueError("fixed-dual needs tau")
        tau = np.asarray(tau)
        if (tau.shape != (2, 2) or not np.isfinite(tau).all()
                or np.abs(tau - tau.conj().T).max() > HERMITIAN_TOL):
            raise ValueError(f"tau must be a Hermitian 2x2 matrix, got {tau!r}")
    elif tau is not None:
        raise ValueError(f"objective {objective!r} takes no tau")
    axis = np.arange(-1.0, 1.0 + step / 2, step)
    near = (axis**2).min()
    if (near + near) + near > 1.0 + _BALL_TOL:  # the sweep's ball test at the point nearest the centre
        raise ValueError(f"no lattice point of step {step!r} lies in the Bloch ball")
    return _BallObjective(ch, objective, tau), axis


def _density_result(value: float, n: np.ndarray):
    rho = 0.5 * (np.eye(2) + n[0] * SX + n[1] * SY + n[2] * SZ)
    return value, DensityMatrix(rho)


def grid_density_objective(
    ch: QuantumChannel, objective: str, step: float, tau: np.ndarray = None
):
    """Maximum of a named density functional over the Bloch-ball lattice.

    objective is one of "qmi" (quantum mutual information), "coherent"
    (coherent information), or "fixed-dual" (H(N(rho)) - Tr(tau rho), tau a
    Hermitian 2x2, required, and taken by no other objective).  The lattice
    has spacing `step` on each axis.  "coherent" is swept one z slice at a
    time; the concave "qmi" and "fixed-dual" are searched by branch-and-bound
    with the same result.  Returns (value, maximizing DensityMatrix), the
    first maximal point in (z, x, y) index order.
    """
    f, axis = _ball_problem(ch, objective, step, tau)
    if objective == "coherent":
        return _density_result(*_sweep(f, axis))
    return _density_result(*_LatticeSearch(f, axis).run())


def _swept_density_objective(ch: QuantumChannel, objective: str, step: float, tau=None):
    """grid_density_objective by the exhaustive sweep, for every objective."""
    return _density_result(*_sweep(*_ball_problem(ch, objective, step, tau)))


def _sweep(f: _BallObjective, axis: np.ndarray):
    """Evaluate every lattice point in the ball, one z slice at a time."""
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    r2_xy = xs**2 + ys**2
    best_val, best_n = -np.inf, np.zeros(3)
    for z in axis:
        keep = r2_xy + z**2 <= 1.0 + _BALL_TOL
        if not keep.any():
            continue
        n = np.stack([xs[keep], ys[keep], np.full(keep.sum(), z)], axis=1)  # (N, 3)
        vals = f.values(n)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_n = float(vals[k]), n[k]
    return best_val, best_n


def _lone_slices(sq: np.ndarray) -> np.ndarray:
    """Whether each z slice of the ball holds exactly one lattice point.

    sq holds the squared axis values.  (i0, i1), the two x indices nearest 0,
    gives two points of every slice that holds it either way round; the
    others (the poles) have few candidates and are counted.
    """
    lone = np.zeros(sq.size, dtype=bool)
    i0 = int(np.argmin(sq))
    i1 = i0 + 1 if i0 + 1 < sq.size else i0 - 1
    two = (sq[i0] + sq[i1]) + sq <= 1.0 + _BALL_TOL
    for iz in np.flatnonzero(~two):
        near = sq[sq + sq[iz] <= 1.0 + _BALL_TOL]
        lone[iz] = np.count_nonzero((near[:, None] + near[None, :]) + sq[iz] <= 1.0 + _BALL_TOL) == 1
    return lone


class _LatticeSearch:
    """Octree branch-and-bound for the first maximal lattice point of a
    concave ball objective, in the sweep's (z, x, y) index order.

    Cells are index boxes (lo, hi inclusive; x, y, z).  Each evaluated cell
    centre whose spectra clear _PLANE_FLOOR adds a tangent plane, stored as
    f(a) - g.a and g; it bounds a box of centre c and half-widths h by
    f(a) - g.a + g.c + |g|.h.  A cell is bounded by the planes of the
    starting cells' centres and of its own ancestors' centres, and dropped
    when that bound is below the incumbent minus _PRUNE_MARGIN.
    """

    def __init__(self, f: _BallObjective, axis: np.ndarray):
        self.f, self.axis, self.sq = f, axis, axis**2
        self.lone = _lone_slices(self.sq)
        self.best, self.key = -np.inf, -1
        self.offset, self.grad = np.empty(0), np.empty((0, 3))
        self.shared = 0  # planes [0, shared) bound every cell

    def run(self):
        size = self.axis.size
        side = -(-size // _START_CELLS)
        starts = np.arange(0, size, side)
        lo = np.stack(np.meshgrid(starts, starts, starts, indexing="ij"), axis=-1).reshape(-1, 3)
        hi = np.minimum(lo + side - 1, size - 1)
        lo, hi = self._meets_ball(lo, hi)
        lo, hi, ids = self._refine(lo, hi, np.empty((lo.shape[0], 0), dtype=np.int64))
        self.shared = self.offset.size
        self._descend(lo, hi, ids[:, 1:])
        if self.key < 0:
            return self.best, np.zeros(3)
        iz, rest = divmod(self.key, size * size)
        return self.best, self.axis[[rest // size, rest % size, iz]]

    def _descend(self, lo, hi, ids):
        """Refine the cells until each is evaluated or dropped, at most
        _LIVE_CELLS of them at a time."""
        while lo.shape[0]:
            if lo.shape[0] > _LIVE_CELLS:
                for part in np.array_split(np.arange(lo.shape[0]), -(-lo.shape[0] // _LIVE_CELLS)):
                    self._descend(lo[part], hi[part], ids[part])
                return
            lo, hi, ids = self._refine(lo, hi, ids)

    def _refine(self, lo, hi, ids):
        """Drop the cells the planes certify, evaluate every point of the
        leaves (sides of 1 or 2) and the centres of the rest; returns the
        children of the rest, each with its parent's plane ids plus the one
        made at the parent's centre (-1: none)."""
        keep = self._bound(lo, hi, ids) >= self.best - _PRUNE_MARGIN
        lo, hi, ids = lo[keep], hi[keep], ids[keep]
        leaf = (hi - lo <= 1).all(axis=1)
        points = lo[leaf][:, None, :] + _CORNERS
        self._evaluate(points[(points <= hi[leaf][:, None, :]).all(axis=2)])
        lo, hi, ids = lo[~leaf], hi[~leaf], ids[~leaf]
        mid = (lo + hi) // 2
        inside, n, vals = self._evaluate(mid)
        grad, ok = self.f.gradients(n)
        own = np.full(lo.shape[0], -1)
        own[np.flatnonzero(inside)[ok]] = self.offset.size + np.arange(np.count_nonzero(ok))
        self.offset = np.concatenate([self.offset, vals[ok] - np.einsum("pa,pa->p", grad[ok], n[ok])])
        self.grad = np.concatenate([self.grad, grad[ok]])
        kid_lo = np.where(_CORNERS, mid[:, None, :] + 1, lo[:, None, :])
        kid_hi = np.where(_CORNERS, hi[:, None, :], mid[:, None, :])
        real = (kid_lo <= kid_hi).all(axis=2)
        kid_ids = np.repeat(np.column_stack([ids, own])[:, None, :], 8, axis=1)
        return self._meets_ball(kid_lo[real], kid_hi[real], kid_ids[real])

    def _meets_ball(self, lo, hi, *rest):
        """The boxes (and their rows of `rest`) that reach into the ball, with
        room for roundoff above the ball test."""
        near = np.maximum(0.0, np.maximum(self.axis[lo], -self.axis[hi]))
        keep = (near**2).sum(axis=1) <= 1.0 + 1e-9
        return (lo[keep], hi[keep]) + tuple(r[keep] for r in rest)

    def _bound(self, lo, hi, ids):
        """Least plane bound of each cell (inf without planes)."""
        if self.offset.size == 0 or lo.shape[0] == 0:
            return np.full(lo.shape[0], np.inf)
        c = 0.5 * (self.axis[lo] + self.axis[hi])
        h = 0.5 * (self.axis[hi] - self.axis[lo])
        g = self.grad[ids]  # (cells, ancestors, 3)
        own = self.offset[ids] + np.einsum("cda,ca->cd", g, c) + np.einsum("cda,ca->cd", np.abs(g), h)
        out = np.where(ids >= 0, own, np.inf).min(axis=1, initial=np.inf)
        if self.shared:
            g, off = self.grad[:self.shared], self.offset[:self.shared]
            for rows in _blocks(np.arange(lo.shape[0]), self.shared):
                shared = (off + c[rows] @ g.T + h[rows] @ np.abs(g).T).min(axis=1)
                out[rows] = np.minimum(out[rows], shared)
        return out

    def _evaluate(self, idx):
        """Evaluate the lattice points idx (P, 3) that pass the sweep's ball
        test, as the sweep computes them, and update the incumbent; returns
        (mask of those points, their coordinates, their values)."""
        inside = (self.sq[idx[:, 0]] + self.sq[idx[:, 1]]) + self.sq[idx[:, 2]] <= 1.0 + _BALL_TOL
        idx = idx[inside]
        n = self.axis[idx]
        vals = np.empty(idx.shape[0])
        # numpy's matrix products take a vector path, with other roundoff, for
        # a single row; the sweep meets one only in a lone slice, so points of
        # lone slices go alone and any other single point is padded to two rows
        lone = self.lone[idx[:, 2]]
        for i in np.flatnonzero(lone):
            vals[i] = self.f.values(n[i:i + 1])[0]
        rest = np.flatnonzero(~lone)
        if rest.size:
            vals[rest] = self.f.values(n[np.resize(rest, max(2, rest.size))])[:rest.size]
        if vals.size:
            size = self.axis.size
            top = vals.max()
            keys = (idx[:, 2] * size + idx[:, 0]) * size + idx[:, 1]
            first = int(keys[vals == top].min())
            if top > self.best or (top == self.best and first < self.key):
                self.best, self.key = float(top), first
        return inside, n, vals


def simplex_enumerate_chi(ch: QuantumChannel, states: list, step: float):
    """Dense probability-simplex maximization of chi of the channel outputs.

    Restricted to at most 4 signal states and qubit outputs (closed-form
    two-level entropies keep the sweep vectorizable).  The lattice has
    spacing 1/round(1/step); ties go to the lexicographically first point.
    Returns (value, p).
    """
    GridSpec(step, "simplex")
    k = len(states)
    if k > 4:
        raise DimensionError("simplex enumeration handles at most 4 states")
    if ch.dim_out != 2:
        raise DimensionError("simplex enumeration needs qubit outputs")
    outs = np.stack([channel_apply_mat(ch, v.projector()) for v in states])
    blochs = np.stack([bloch_vector(o) for o in outs])  # (k, 3)
    h_i = _entropy_batch(outs)

    n = int(round(1.0 / step))
    best_val, best_p = -np.inf, None
    for block in _simplex_blocks(n, k):
        probs = block / n
        for chunk in np.array_split(probs, max(1, probs.shape[0] // 200_000)):
            chi = _h2(0.5 * (1.0 + np.linalg.norm(chunk @ blochs, axis=1))) - chunk @ h_i
            j = int(np.argmax(chi))
            if chi[j] > best_val:
                best_val, best_p = float(chi[j]), chunk[j].copy()
    return best_val, best_p


def _simplex_blocks(n: int, k: int):
    """The k-part compositions of n in lexicographic order, in blocks.

    Up to 3 parts come as one block; 4 parts are streamed one leading
    coordinate at a time, so memory stays flat as n grows.
    """
    if k <= 3:
        yield _compositions(n, k)
        return
    for first in range(n + 1):
        rest = _compositions(n - first, k - 1)
        yield np.column_stack([np.full(rest.shape[0], first), rest])


def _compositions(n: int, k: int) -> np.ndarray:
    """All k-part compositions of n as an integer array (rows sum to n).

    Rows are in lexicographic order.  Built one coordinate at a time: a
    prefix with remainder r expands into r + 1 rows taking the values 0..r.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([n], dtype=np.int64)
    for _ in range(k - 1):
        counts = rest + 1
        parent = np.repeat(np.arange(rows.shape[0]), counts)
        value = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([rows[parent], value])
        rest = rest[parent] - value
    return np.column_stack([rows, rest])
