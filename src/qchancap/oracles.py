"""Brute-force grid oracles for desk-scale verification.

Simple and independent of the optimization engines: angle grids for
accessible information, a Bloch-ball lattice for density objectives, and a
probability-simplex enumeration for restricted Holevo chi, all as array code:
closed-form simplex compositions (the 4-signal simplex streamed one leading
coordinate at a time) and closed-form 2x2 spectra.  The simplex and, for
"coherent", the ball are swept point by point; the angle grids and the ball
for the concave "qmi" are searched by branch-and-bound, which returns the
maximum over every grid point bit for bit.  Everything here is limited to
qubit inputs/outputs; grids blow up beyond d = 2.

The ball is swept one z slice at a time for "coherent".  "qmi" is concave
in the Bloch vector (mutual information is concave in the input state), so
the tangent plane at any evaluated point a, f(a) + grad f(a).(n - a), bounds
f on the whole ball.  An octree over the lattice indices, started from the
whole lattice as one cell, evaluates each cell's centre and drops a cell once
one of its ancestors' planes puts the cell's box more than _PRUNE_MARGIN
below the best value found; the surviving cells are split down to single
lattice points.  A plane is kept only where every spectrum in the objective
is above _PLANE_FLOOR, where its gradient is finite and its roundoff far
below the margin.  A dropped cell holds no point within the margin of the
maximum, so every maximal point is evaluated, and ties go, as in the sweep,
to the first in (z, x, y) index order.  A point's value does not depend on
the batch it is evaluated in (one batch per slice in the sweep, one per
refinement step here), so the result is the sweep's bit for bit.

Accessible information is maximized over two angle grids, (polar, azimuth)
for projective measurements and (beta, gamma) for planar trines, by one
quadtree over both index grids that shares the best value found.  A cell's
bound is interval arithmetic (Hansen, Global Optimization Using Interval
Analysis): the ranges of cos and sin over the cell's angle ranges give each
outcome probability an interval, widened by _PAD = 1e-12 on both sides for
roundoff; the mixture's entropy is at most its concave maximum over the
mixed interval and each conditional entropy at least its smaller endpoint
value.  A cell is dropped when its bound is more than _PRUNE_MARGIN below
the best value, and cells of at most _LEAF_POINTS points are evaluated
whole.  A point's value has the same bits in any batch, so the result is
the float that evaluating every grid point gives.

All entropies go through the three module-level kernels `_h2`, `_xlog2x`
and `_entropy_batch` (perfbench's tracer wraps them by name to count
evaluations), which rest on core's log2_clipped and matrix_entropy.
"""

import itertools

import numpy as np

from .core import (
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

# the ball test of the Bloch lattice: |n|^2 <= 1 + _BALL_TOL
_BALL_TOL = 1e-12
# the ball and angle searches keep at most _LIVE_CELLS cells per batch.  The
# ball search makes a tangent plane only where every eigenvalue in the
# objective exceeds _PLANE_FLOOR: an eigenvalue's roundoff (about 1e-15) then
# moves log2 of it by at most about 1e-11, so a plane's error across the ball
# stays well under _PRUNE_MARGIN, the amount by which a cell's bound must fall
# below the incumbent before the cell is dropped
_LIVE_CELLS = 4096
_PLANE_FLOOR = 1e-4
_PRUNE_MARGIN = 1e-9
# the 8 corner offsets of a 2 x 2 x 2 box; as a mask, the upper half of each axis
_CORNERS = np.array(list(itertools.product((0, 1), repeat=3)))
# the same for the quadrants of a 2-D cell
_QUADRANTS = np.array(list(itertools.product((0, 1), repeat=2)))
# the angle-grid search evaluates every point of a cell of at most
# _LEAF_POINTS points, and widens each outcome probability's interval by _PAD
# on both sides to cover the roundoff of the bound and of the point values
_LEAF_POINTS = 64
_PAD = 1e-12


def check_grid_step(step: float, simplex: bool = False) -> None:
    """Reject a grid step that is not finite and positive, or, on the
    probability simplex, above 1."""
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"grid step must be finite and positive, got {step!r}")
    if simplex and step > 1:
        raise ValueError(f"simplex step must be at most 1, got {step!r}")


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


class _AngleFamily:
    """A two-angle family of measurements on its index grid (rows, columns):
    point values, and interval bounds on cells (index rectangles).

    numpy hands the k-term sums of a point (probs @ ...) to BLAS's gemv,
    which rounds the last (points mod 4) entries of a batch by another path;
    `values` pads its batch to a multiple of 4 points, so a point gets the
    same bits in every batch.
    """

    def __init__(self, probs: np.ndarray, blochs: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        self.probs, self.blochs, self.axes = probs, blochs, (rows, cols)

    def values(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Mutual information at the grid points (rows i, columns j)."""
        size = i.size
        pad = np.zeros(-size % 4, dtype=np.int64)
        return self._values(np.concatenate([i, pad]), np.concatenate([j, pad]))[:size]

    def _angles(self, lo: np.ndarray, hi: np.ndarray, axis: int):
        """The angle ranges of the cells on one axis, each (cells,)."""
        return self.axes[axis][lo[:, axis]], self.axes[axis][hi[:, axis]]


class _Projective(_AngleFamily):
    """Projective measurements {n, -n}, n = (sin t cos f, sin t sin f, cos t)
    on the upper-hemisphere (polar t, azimuth f) lattice with spacing `step`."""

    def __init__(self, probs, blochs, step):
        super().__init__(probs, blochs, np.arange(0.0, np.pi / 2 + step, step), np.arange(0.0, 2 * np.pi, step))
        polar, azim = self.axes
        self.sin_t, self.cos_t, self.cos_f, self.sin_f = np.sin(polar), np.cos(polar), np.cos(azim), np.sin(azim)

    def _values(self, i, j):
        b = self.blochs
        across = b[:, 0, None] * self.cos_f[j] + b[:, 1, None] * self.sin_f[j]  # (k, points)
        p_up = 0.5 * (1.0 + (self.sin_t[i] * across + self.cos_t[i] * b[:, 2, None]))
        return _h2(self.probs @ p_up) - self.probs @ _h2(p_up)

    def bounds(self, lo, hi):
        """Upper bounds of the values on the cells (lo, hi inclusive)."""
        b = self.blochs
        t_lo, t_hi = (t[:, None] for t in self._angles(lo, hi, 0))
        f_lo, f_hi = self._angles(lo, hi, 1)
        # b.n = sin t * r_xy cos(f - alpha) + b_z cos t, as intervals (2, cells, k)
        alpha = np.arctan2(b[:, 1], b[:, 0])
        across = np.hypot(b[:, 0], b[:, 1]) * _cos_range(f_lo[:, None] - alpha, f_hi[:, None] - alpha)
        dot = _times(_sin_range(t_lo, t_hi), across) + _hull(b[:, 2] * _cos_range(t_lo, t_hi))
        p_up = _probability(0.5 * (1.0 + dot))
        mix = p_up @ self.probs
        return _h2(np.clip(0.5, mix[0], mix[1])) - _h2(p_up).min(axis=0) @ self.probs


class _Trine(_AngleFamily):
    """Symmetric planar trine POVMs on the (beta, gamma) lattice.

    Outcome j points along cos(g_j) e1 + sin(g_j) e2(beta) with
    g_j = gamma + 2 pi j / 3, e1 = x and e2(beta) = (0, sin beta, cos beta):
    a rotation gamma within the plane through the x axis tilted by beta.
    """

    SHIFTS = 2 * np.pi * np.arange(3) / 3

    def __init__(self, probs, blochs, step):
        betas = np.arange(0.0, np.pi, max(step, np.pi / max(1, int(np.pi / step))))
        super().__init__(probs, blochs, betas, np.arange(0.0, 2 * np.pi / 3, step))
        ang = self.axes[1][None, :] + self.SHIFTS[:, None]  # (3, gammas)
        self.sin_b, self.cos_b, self.cos_g, self.sin_g = np.sin(betas), np.cos(betas), np.cos(ang), np.sin(ang)

    def _values(self, i, j):
        b = self.blochs
        tilt = self.sin_b[i, None] * b[:, 1] + self.cos_b[i, None] * b[:, 2]  # (points, k)
        pj = (1.0 + self.cos_g[:, j, None] * b[:, 0] + self.sin_g[:, j, None] * tilt) / 3.0  # (3, points, k)
        return (_xlog2x(pj) @ self.probs).sum(axis=0) - _xlog2x(pj @ self.probs).sum(axis=0)

    def bounds(self, lo, hi):
        """Upper bounds of the values on the cells (lo, hi inclusive)."""
        b = self.blochs
        b_lo, b_hi = self._angles(lo, hi, 0)
        g_lo, g_hi = ((g[:, None] + self.SHIFTS)[:, :, None] for g in self._angles(lo, hi, 1))
        # 3 p_ij - 1 = b_x cos g_j + sin g_j * r_yz sin(beta + psi), as intervals (2, cells, 3, k)
        psi = np.arctan2(b[:, 2], b[:, 1])
        tilt = np.hypot(b[:, 1], b[:, 2]) * _sin_range(b_lo[:, None] + psi, b_hi[:, None] + psi)
        x = _hull(b[:, 0] * _cos_range(g_lo, g_hi)) + _times(_sin_range(g_lo, g_hi), tilt[:, :, None])
        pj = _probability((1.0 + x) / 3.0)
        mix = pj @ self.probs
        # eta(x) = -x log2 x is concave with its peak at 1/e:
        # sum_j max eta(m_j) - sum_i p_i sum_j min eta(p_ij)
        top = -_xlog2x(np.clip(1 / np.e, mix[0], mix[1])).sum(axis=1)
        return top + _xlog2x(pj).max(axis=0).sum(axis=1) @ self.probs


# intervals are arrays (2, ...) of lower and upper ends

def _hull(values: np.ndarray) -> np.ndarray:
    """The interval spanned by values stacked on the first axis."""
    return np.stack([values.min(axis=0), values.max(axis=0)])


def _cos_range(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The range of cos over each [a, b] (a <= b): the endpoint values, 1
    where a multiple of 2 pi lies inside, -1 where an odd multiple of pi does."""
    ends = _hull(np.cos(np.stack([a, b])))
    top = np.floor(b / (2 * np.pi)) >= np.ceil(a / (2 * np.pi))
    bottom = np.floor((b - np.pi) / (2 * np.pi)) >= np.ceil((a - np.pi) / (2 * np.pi))
    return np.stack([np.where(bottom, -1.0, ends[0]), np.where(top, 1.0, ends[1])])


def _sin_range(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The range of sin over each [a, b]: sin x = cos(x - pi / 2)."""
    return _cos_range(a - np.pi / 2, b - np.pi / 2)


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The products of the intervals x and y (of equal ndim)."""
    corners = x[:, None] * y[None]
    return _hull(corners.reshape(4, *corners.shape[2:]))


def _probability(x: np.ndarray) -> np.ndarray:
    """Intervals of a probability widened by _PAD for roundoff and clipped to [0, 1]."""
    return np.clip(np.stack([x[0] - _PAD, x[1] + _PAD]), 0.0, 1.0)


def _angle_search(families: list) -> float:
    """Quadtree branch-and-bound for the largest value of the families over
    their index grids, as evaluating every point gives it.

    Cells are index rectangles (lo, hi inclusive) of one family, the first
    each family's whole grid; all families share the incumbent.  Each round
    drops the cells whose bound is below the incumbent minus _PRUNE_MARGIN,
    evaluates every point of the cells of at most _LEAF_POINTS points and the
    centres of the rest, and splits the rest into quadrants.  A dropped cell
    holds no point within the margin of the incumbent, so every point that
    could raise it is evaluated.
    """
    best = -np.inf

    def refine(lo, hi, fam):
        nonlocal best
        bound = np.empty(fam.size)
        for f, family in enumerate(families):
            mine = fam == f
            bound[mine] = family.bounds(lo[mine], hi[mine])
        keep = bound >= best - _PRUNE_MARGIN
        lo, hi, fam = lo[keep], hi[keep], fam[keep]
        size = hi - lo + 1
        leaf = size.prod(axis=1) <= _LEAF_POINTS
        mid = (lo + hi) // 2
        for f, family in enumerate(families):
            mine = fam == f
            i, j = _cell_points(lo[mine & leaf], size[mine & leaf])
            centre = mid[mine & ~leaf]
            vals = family.values(np.concatenate([i, centre[:, 0]]), np.concatenate([j, centre[:, 1]]))
            best = max(best, float(vals.max(initial=-np.inf)))
        lo, hi, mid, fam = lo[~leaf], hi[~leaf], mid[~leaf], fam[~leaf]
        kid_lo = np.where(_QUADRANTS, mid[:, None, :] + 1, lo[:, None, :])
        kid_hi = np.where(_QUADRANTS, hi[:, None, :], mid[:, None, :])
        real = (kid_lo <= kid_hi).all(axis=2)
        return kid_lo[real], kid_hi[real], np.repeat(fam[:, None], 4, axis=1)[real]

    last = np.array([[f.axes[0].size - 1, f.axes[1].size - 1] for f in families])
    _descend(refine, np.zeros_like(last), last, np.arange(len(families)))
    return best


def _cell_points(lo: np.ndarray, size: np.ndarray):
    """Row and column indices of every point of the cells."""
    rows, cols = np.indices(size.max(axis=0, initial=0))
    inside = (rows < size[:, 0, None, None]) & (cols < size[:, 1, None, None])
    return (lo[:, 0, None, None] + rows)[inside], (lo[:, 1, None, None] + cols)[inside]


def _descend(refine, *cells):
    """Apply refine to the cells (row-aligned arrays) and then to what it
    returns, until no cell is left, at most _LIVE_CELLS cells at a time."""
    while cells[0].shape[0]:
        count = cells[0].shape[0]
        if count > _LIVE_CELLS:
            for part in np.array_split(np.arange(count), -(-count // _LIVE_CELLS)):
                _descend(refine, *(c[part] for c in cells))
            return
        cells = refine(*cells)


def grid_accessible_info_2d(ens: Ensemble, step: float) -> float:
    """Lower bound on I_acc of a qubit ensemble by measurement grids.

    Maximizes over (a) the projective measurements, directions parameterized
    by two angles, and (b) a two-angle family of symmetric 3-outcome rank-one
    POVMs (planar trines: in-plane rotation plus a tilt of the plane), each on
    a lattice of spacing `step`.  Returns the best mutual information on the
    two lattices (at least 0).
    """
    check_grid_step(step)
    if ens.dim != 2:
        raise DimensionError("the accessible-information grid handles qubits only")
    probs = np.asarray(ens.probs)
    blochs = np.stack([bloch_vector(m) for m in ens.density_mats()])  # (k, 3)
    return max(0.0, _angle_search([_Projective(probs, blochs, step), _Trine(probs, blochs, step)]))


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
    # W0_ij = Tr(A_j^dag A_i) / 2 and (W_a)_ij = Tr(sigma_a A_j^dag A_i) / 2
    kraus = np.stack(ch.kraus)
    w0 = 0.5 * np.einsum("iqp,jqp->ij", kraus, kraus.conj())
    ws = 0.5 * np.einsum("arp,jqp,iqr->aij", np.stack(PAULIS), kraus.conj(), kraus)
    return w0, ws


class _BallObjective:
    """One of the Bloch-ball objectives as a function of the Bloch vector n."""

    def __init__(self, ch: QuantumChannel, objective: str):
        self.objective = objective
        self.m, self.t = _qubit_channel_affine(ch)
        self.w0, self.ws = _environment_affine(ch)

    def _env(self, n):
        return self.w0[None, :, :] + np.tensordot(n, self.ws, axes=(1, 0))

    def values(self, n: np.ndarray) -> np.ndarray:
        """Values at the points n (P, 3), each the same bits in any batch.

        numpy takes a one-row matrix product by a vector path, with other
        roundoff, so a single point goes through the products as two rows.
        """
        size = n.shape[0]
        rows = np.repeat(n, 2, axis=0) if size == 1 else n
        n_out = (rows @ self.m.T)[:size] + self.t
        h_out = _h2(0.5 * (1.0 + np.linalg.norm(n_out, axis=1)))
        h_env = _entropy_batch(self._env(rows)[:size])
        if self.objective == "coherent":
            return h_out - h_env
        h_in = _h2(0.5 * (1.0 + np.linalg.norm(n, axis=1)))
        return h_in + h_out - h_env

    def gradients(self, n: np.ndarray):
        """Gradients at the points n (P, 3) of "qmi", and whether each
        spectrum in the objective is above _PLANE_FLOOR there."""
        g_out, ok = _bloch_entropy_grad(n @ self.m.T + self.t)
        g_in, ok_in = _bloch_entropy_grad(n)
        lam, vec = np.linalg.eigh(self._env(n))
        log_env = (vec * np.log2(np.maximum(lam, _PLANE_FLOOR))[:, None, :]) @ vec.conj().transpose(0, 2, 1)
        # -S(env) has partial derivatives Tr(W_a log2 env), since Tr W_a = 0
        g_env = np.einsum("ajk,pkj->pa", self.ws, log_env).real
        return g_out @ self.m + g_in + g_env, ok & ok_in & (lam[:, 0] > _PLANE_FLOOR)


def _bloch_entropy_grad(n: np.ndarray):
    """Gradient in n of h2((1 + |n|) / 2) for rows n (P, 3), and whether both
    eigenvalues (1 ± |n|) / 2 exceed _PLANE_FLOOR."""
    r = np.linalg.norm(n, axis=1)
    # the gradient is -artanh(r) / (r ln 2) n, tending to 0 at r = 0; r is
    # capped where the floor rejects the plane anyway
    capped = np.arctanh(np.minimum(r, 1.0 - 2.0 * _PLANE_FLOOR))
    scale = np.divide(capped, r, out=np.ones_like(r), where=r > 0)
    return -(scale / LN2)[:, None] * n, 0.5 * (1.0 - r) > _PLANE_FLOOR


def _ball_problem(ch: QuantumChannel, objective: str, step: float):
    check_grid_step(step)
    if objective not in ("qmi", "coherent"):
        raise ValueError(f"unknown objective {objective!r}")
    axis = np.arange(-1.0, 1.0 + step / 2, step)
    near = (axis**2).min()
    if (near + near) + near > 1.0 + _BALL_TOL:  # the sweep's ball test at the point nearest the centre
        raise ValueError(f"no lattice point of step {step!r} lies in the Bloch ball")
    return _BallObjective(ch, objective), axis


def _density_result(value: float, n: np.ndarray):
    rho = 0.5 * (np.eye(2) + n[0] * SX + n[1] * SY + n[2] * SZ)
    return value, DensityMatrix(rho)


def grid_density_objective(ch: QuantumChannel, objective: str, step: float):
    """Maximum of a named density functional over the Bloch-ball lattice.

    objective is "qmi" (quantum mutual information) or "coherent" (coherent
    information).  The lattice has spacing `step` on each axis.  "coherent"
    is swept one z slice at a time; the concave "qmi" is searched by
    branch-and-bound with the same result.  Returns (value, maximizing
    DensityMatrix), the first maximal point in (z, x, y) index order.
    """
    f, axis = _ball_problem(ch, objective, step)
    if objective == "coherent":
        return _density_result(*_sweep(f, axis))
    return _density_result(*_LatticeSearch(f, axis).run())


def _swept_density_objective(ch: QuantumChannel, objective: str, step: float):
    """grid_density_objective by the exhaustive sweep, for every objective."""
    return _density_result(*_sweep(*_ball_problem(ch, objective, step)))


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


class _LatticeSearch:
    """Octree branch-and-bound for the first maximal lattice point of a
    concave ball objective, in the sweep's (z, x, y) index order.

    Cells are index boxes (lo, hi inclusive; x, y, z).  Each evaluated cell
    centre whose spectra clear _PLANE_FLOOR adds a tangent plane, stored as
    f(a) - g.a and g; it bounds a box of centre c and half-widths h by
    f(a) - g.a + g.c + |g|.h.  The search starts from the whole lattice as
    one cell.  A cell is bounded by the least of its ancestors' planes (one
    per ancestor at most), and dropped when that bound is below the
    incumbent minus _PRUNE_MARGIN.
    """

    def __init__(self, f: _BallObjective, axis: np.ndarray):
        self.f, self.axis, self.sq = f, axis, axis**2
        self.best, self.key = -np.inf, -1
        self.offset, self.grad = np.empty(0), np.empty((0, 3))

    def run(self):
        size = self.axis.size
        _descend(self._refine, np.zeros((1, 3), dtype=np.int64), np.full((1, 3), size - 1),
                 np.empty((1, 0), dtype=np.int64))
        iz, rest = divmod(self.key, size * size)
        return self.best, self.axis[[rest // size, rest % size, iz]]

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
        return np.where(ids >= 0, own, np.inf).min(axis=1, initial=np.inf)

    def _evaluate(self, idx):
        """Evaluate the lattice points idx (P, 3) that pass the sweep's ball
        test, as the sweep computes them, and update the incumbent; returns
        (mask of those points, their coordinates, their values)."""
        inside = (self.sq[idx[:, 0]] + self.sq[idx[:, 1]]) + self.sq[idx[:, 2]] <= 1.0 + _BALL_TOL
        idx = idx[inside]
        n = self.axis[idx]
        vals = self.f.values(n)
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
    check_grid_step(step, simplex=True)
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
