"""Brute-force grid oracles for desk-scale verification.

Simple and independent of the optimization engines: angle grids for
accessible information, a Bloch-ball lattice for density objectives, and a
probability-simplex enumeration for restricted Holevo chi, all as array code:
closed-form simplex compositions (the 4-signal simplex streamed one leading
coordinate at a time) and closed-form 2x2 spectra.  The simplex and, for
"coherent", the ball (one z slice at a time) are swept point by point; the
angle grids and the ball for the concave "qmi" are searched by one
branch-and-bound, which returns the maximum over every grid point bit for
bit.  Everything here is limited to qubit inputs/outputs; grids blow up
beyond d = 2.

_branch_and_bound works on index boxes (lo, hi inclusive) of grids of one
dimension, starting from each whole grid as one box, with one incumbent for
all of them.  Each round drops the boxes whose bound is more than
_PRUNE_MARGIN below the incumbent, evaluates every point of the boxes of at
most _LEAF_POINTS points and the centres of the others, and halves the
others along every axis.  A dropped box holds no point within the margin of
the incumbent, so every point that could raise it is evaluated, and a
point's value has the same bits in any batch, so the result is the float
that evaluating every grid point gives.  Each grid bounds its own boxes:

- The Bloch-ball lattice (_Lattice, indices x, y, z) for "qmi", which is
  concave in the Bloch vector (mutual information is concave in the input
  state): the tangent plane at an evaluated centre a,
  f(a) + grad f(a).(n - a), bounds f on the whole ball, and a box is bounded
  by the least of the planes made at its ancestors' centres.  A plane is
  made only where every spectrum in the objective is above _PLANE_FLOOR,
  where its gradient is finite and its roundoff far below the margin.  A box
  that misses the ball is bounded by -inf.  Ties go, as in the sweep, to the
  first maximal point in (z, x, y) index order.
- The angle grids for accessible information, (polar, azimuth) for
  projective measurements and (beta, gamma) for planar trines: interval
  arithmetic (Hansen, Global Optimization Using Interval Analysis).  The
  ranges of cos and sin over a box's angle ranges give each outcome
  probability an interval, widened by _PAD = 1e-12 on both sides for
  roundoff; the mixture's entropy is at most its concave maximum over the
  mixed interval and each conditional entropy at least its smaller endpoint
  value.

All entropies go through the three module-level kernels `_h2`, `_xlog2x`
and `_entropy_batch` (perfbench's tracer wraps them by name to count
evaluations), which rest on core's log2_clipped and matrix_entropy.
"""

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
# _branch_and_bound keeps at most _LIVE_CELLS boxes per batch, evaluates every
# point of a box of at most _LEAF_POINTS points, and drops a box whose bound
# is more than _PRUNE_MARGIN below the incumbent.  The ball makes a tangent
# plane only where every eigenvalue in the objective exceeds _PLANE_FLOOR: an
# eigenvalue's roundoff (about 1e-15) then moves log2 of it by at most about
# 1e-11, so a plane's error across the ball stays well under the margin.  The
# angle grids widen each outcome probability's interval by _PAD on both sides
# to cover the roundoff of the bound and of the point values
_LIVE_CELLS = 4096
_LEAF_POINTS = 16
_PRUNE_MARGIN = 1e-9
_PLANE_FLOOR = 1e-4
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
    """A two-angle family of measurements as a grid for _branch_and_bound
    (indices: rows, columns): point values, and interval bounds on boxes.

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

    def evaluate(self, points: np.ndarray, centres: np.ndarray):
        """The best value at the points and box centres (each (P, 2)); no planes."""
        i, j = np.concatenate([points, centres]).T
        return float(self.values(i, j).max(initial=-np.inf)), np.full(len(centres), -1)

    def _angles(self, lo: np.ndarray, hi: np.ndarray, axis: int):
        """The angle ranges of the boxes on one axis, each (boxes,)."""
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

    def bounds(self, lo, hi, planes=None):
        """Upper bounds of the values on the boxes (lo, hi inclusive)."""
        b = self.blochs
        t_lo, t_hi = (t[:, None] for t in self._angles(lo, hi, 0))
        f_lo, f_hi = self._angles(lo, hi, 1)
        # b.n = sin t * r_xy cos(f - alpha) + b_z cos t, as intervals (2, boxes, k)
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

    def bounds(self, lo, hi, planes=None):
        """Upper bounds of the values on the boxes (lo, hi inclusive)."""
        b = self.blochs
        b_lo, b_hi = self._angles(lo, hi, 0)
        g_lo, g_hi = ((g[:, None] + self.SHIFTS)[:, :, None] for g in self._angles(lo, hi, 1))
        # 3 p_ij - 1 = b_x cos g_j + sin g_j * r_yz sin(beta + psi), as intervals (2, boxes, 3, k)
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


def _branch_and_bound(grids: list) -> float:
    """The largest value over every point of the grids (of one dimension), as
    evaluating every point gives it; see the module docstring.

    A grid has `axes` (one array per index); `bounds(lo, hi, planes)`, upper
    bounds of its values on boxes (lo, hi inclusive) given the ids of the
    planes made at each box's ancestors' centres (-1: none); and
    `evaluate(points, centres)`, which evaluates index points and box centres
    and returns the best value it has found and the id of the plane made at
    each centre.
    """
    best = -np.inf

    def refine(lo, hi, planes, owner):
        nonlocal best
        bound = np.empty(owner.size)
        for g, grid in enumerate(grids):
            mine = owner == g
            bound[mine] = grid.bounds(lo[mine], hi[mine], planes[mine])
        keep = bound >= best - _PRUNE_MARGIN
        lo, hi, planes, owner = lo[keep], hi[keep], planes[keep], owner[keep]
        size = hi - lo + 1
        leaf = size.prod(axis=1) <= _LEAF_POINTS
        mid = (lo + hi) // 2
        made = np.full(owner.size, -1)
        for g, grid in enumerate(grids):
            mine = owner == g
            top, made[mine & ~leaf] = grid.evaluate(_cell_points(lo[mine & leaf], size[mine & leaf]),
                                                    mid[mine & ~leaf])
            best = max(best, top)
        # each box's children: the lower or upper half of every axis
        upper = np.indices((2,) * lo.shape[1]).reshape(lo.shape[1], -1).T == 1
        lo, hi, mid = lo[~leaf, None], hi[~leaf, None], mid[~leaf, None]
        kid_lo, kid_hi = np.where(upper, mid + 1, lo), np.where(upper, hi, mid)
        real = (kid_lo <= kid_hi).all(axis=2)
        carried = np.column_stack([planes, made, owner])[~leaf, None]
        kids = np.repeat(carried, upper.shape[0], axis=1)[real]
        return kid_lo[real], kid_hi[real], kids[:, :-1], kids[:, -1]

    last = np.array([[axis.size - 1 for axis in grid.axes] for grid in grids])
    _descend(refine, np.zeros_like(last), last, np.empty((len(grids), 0), dtype=np.int64), np.arange(len(grids)))
    return best


def _cell_points(lo: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices (points, d) of every point of the boxes with corners lo and sides size."""
    offsets = np.indices(size.max(axis=0, initial=0)).reshape(lo.shape[1], -1).T
    inside = (offsets < size[:, None]).all(axis=2)
    return (lo[:, None] + offsets)[inside]


def _descend(refine, *cells):
    """Apply refine to the boxes (row-aligned arrays) and then to what it
    returns, until no box is left, at most _LIVE_CELLS boxes at a time."""
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
    return max(0.0, _branch_and_bound([_Projective(probs, blochs, step), _Trine(probs, blochs, step)]))


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
    lattice = _Lattice(f, axis)
    return _density_result(_branch_and_bound([lattice]), lattice.point())


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


class _Lattice:
    """The Bloch-ball lattice of a concave objective as a grid for
    _branch_and_bound (indices x, y, z), its boxes bounded by tangent planes.

    Each evaluated box centre whose spectra clear _PLANE_FLOOR makes a plane,
    stored as f(a) - g.a and g; it bounds a box of centre c and half-widths h
    by f(a) - g.a + g.c + |g|.h.  `best` is the largest value evaluated and
    `point()` its first point in the sweep's (z, x, y) index order.
    """

    def __init__(self, f: _BallObjective, axis: np.ndarray):
        self.f, self.axis, self.sq, self.axes = f, axis, axis**2, (axis,) * 3
        self.best, self.key = -np.inf, -1
        self.offset, self.grad = np.empty(0), np.empty((0, 3))

    def point(self) -> np.ndarray:
        size = self.axis.size
        iz, rest = divmod(self.key, size * size)
        return self.axis[[rest // size, rest % size, iz]]

    def bounds(self, lo, hi, planes):
        """Least plane bound of each box (inf without planes), -inf where the
        box misses the ball, with room for roundoff above the ball test."""
        bound = np.full(lo.shape[0], np.inf)
        if self.offset.size:
            c = 0.5 * (self.axis[lo] + self.axis[hi])
            h = 0.5 * (self.axis[hi] - self.axis[lo])
            g = self.grad[planes]  # (boxes, ancestors, 3)
            own = self.offset[planes] + np.einsum("cda,ca->cd", g, c) + np.einsum("cda,ca->cd", np.abs(g), h)
            bound = np.where(planes >= 0, own, np.inf).min(axis=1, initial=np.inf)
        near = np.maximum(0.0, np.maximum(self.axis[lo], -self.axis[hi]))
        return np.where((near**2).sum(axis=1) <= 1.0 + 1e-9, bound, -np.inf)

    def evaluate(self, points, centres):
        """Evaluate the points and box centres (each (P, 3)) that pass the
        sweep's ball test, as the sweep computes them, and update the
        incumbent; returns it and the id of the plane made at each centre
        (-1: none)."""
        idx = np.concatenate([points, centres])
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
        # the centres in the ball are the last rows of n
        at = np.count_nonzero(inside[:len(points)])
        n, vals = n[at:], vals[at:]
        grad, ok = self.f.gradients(n)
        made = np.full(len(centres), -1)
        made[np.flatnonzero(inside[len(points):])[ok]] = self.offset.size + np.arange(np.count_nonzero(ok))
        self.offset = np.concatenate([self.offset, vals[ok] - np.einsum("pa,pa->p", grad[ok], n[ok])])
        self.grad = np.concatenate([self.grad, grad[ok]])
        return self.best, made


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
