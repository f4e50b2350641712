"""Brute-force grid oracles for desk-scale verification.

Simple and independent of the optimization engines: angle grids for
accessible information, a Bloch-ball lattice for density objectives and a
probability-simplex lattice for restricted Holevo chi, all as array code
with closed-form 2x2 spectra.  Every grid is searched by one
branch-and-bound, which returns the maximum over every grid point bit for
bit.  Everything here is limited to qubit inputs/outputs; grids blow up
beyond d = 2.

_branch_and_bound searches one grid on index boxes (lo, hi inclusive) from
the whole grid as one box and a given incumbent.  Each round drops the boxes
whose bound is more than _PRUNE_MARGIN below the incumbent, evaluates every
point of the boxes of at most _LEAF_POINTS points and the centres of the
others, and halves the others along every axis.  The incumbent is a value
that a point of this grid or of one searched before reached, so a dropped box
holds no point that could raise it, and a point's value has the same bits in
any batch: the result is the float that evaluating every point of the grids
searched gives.  Each grid bounds its own boxes:

- The lattices (_Lattice): the Bloch ball (indices x, y, z) and the simplex
  (the counts of the first k - 1 signals).  "qmi" is concave in the input
  state and chi in the prior, so a tangent plane bounds either everywhere;
  "coherent" is qmi less the input entropy S(rho) (Adami and Cerf, PRA 56,
  3470, 1997).  A box is bounded by the least of qmi's or chi's planes made
  at its ancestors' centres, less the least of S(rho) on the box for
  "coherent", or by -inf where it misses the domain.  A plane is made only
  where every spectrum in qmi or chi is above _PLANE_FLOOR, where its
  gradient is finite and its roundoff far below the margin.  Ties go to the
  first maximal point in (z, x, y) index order on the ball and in
  lexicographic order on the simplex.
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

# _branch_and_bound makes at most _LIVE_CELLS boxes per batch, evaluates every
# point of a box of at most _LEAF_POINTS points, and drops a box whose bound
# is more than _PRUNE_MARGIN below the incumbent.  A lattice makes a tangent
# plane only where every eigenvalue in the objective exceeds _PLANE_FLOOR: an
# eigenvalue's roundoff (about 1e-15) then moves log2 of it by at most about
# 1e-11, so a plane's error across the lattice stays well under the margin.  The
# angle grids widen each outcome probability's interval by _PAD on both sides
# to cover the roundoff of the bound and of the point values
_LIVE_CELLS = 4096
_LEAF_POINTS = 16
_PRUNE_MARGIN = 1e-9
_PLANE_FLOOR = 1e-4
_PAD = 1e-12


def check_grid_step(step: float, simplex: bool = False) -> None:
    """Reject a grid step that is not finite and positive, below 1e-6, or,
    on the probability simplex, above 1.  At 1e-6 the ball's lattice keys,
    up to (2 / step + 1)^3, still fit in int64, and its axis takes 16 MB."""
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"grid step must be finite and positive, got {step!r}")
    if step < 1e-6:
        raise ValueError(f"grid step must be at least 1e-6, got {step!r}")
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


def _padded(rows: np.ndarray) -> np.ndarray:
    """rows padded with zero rows to a multiple of 4, so that each row of a
    product (rows @ ...) gets the same bits in every batch: BLAS rounds the
    last (rows mod 4) rows, and a single row, by other paths."""
    return np.concatenate([rows, np.zeros((-len(rows) % 4, *rows.shape[1:]), rows.dtype)])


class _AngleFamily:
    """A two-angle family of measurements as a grid for _branch_and_bound
    (indices: rows, columns): point values, and interval bounds on boxes."""

    def __init__(self, probs: np.ndarray, blochs: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        self.probs, self.blochs, self.axes = probs, blochs, (rows, cols)

    def values(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Mutual information at the grid points (rows i, columns j), each
        the same bits in any batch."""
        return self._values(_padded(i), _padded(j))[:i.size]

    def evaluate(self, points: np.ndarray, centres: np.ndarray):
        """The best value at the points and box centres (each (P, 2)); no planes."""
        i, j = np.concatenate([points, centres]).T
        return float(self.values(i, j).max(initial=-np.inf)), np.empty((len(centres), 0), dtype=np.int64)

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


def _branch_and_bound(grid, best: float = -np.inf) -> float:
    """The larger of `best` and the largest value over every point of the
    grid, as evaluating every point gives it; see the module docstring.

    The grid has `axes` (one array per index); `bounds(lo, hi, planes)`, upper
    bounds of its values on boxes (lo, hi inclusive) given the ids of the
    planes made at each box's ancestors' centres; and
    `evaluate(points, centres)`, which evaluates index points and box centres
    and returns the best value it has found and the ids of the planes made at
    the centres, one row per centre (with no column on a grid without planes).
    """
    def search(lo, hi, planes):  # returns the boxes to halve, with their centres' plane ids
        nonlocal best
        keep = grid.bounds(lo, hi, planes) >= best - _PRUNE_MARGIN
        lo, hi, planes = lo[keep], hi[keep], planes[keep]
        size = hi - lo + 1
        leaf = size.prod(axis=1) <= _LEAF_POINTS
        top, made = grid.evaluate(_cell_points(lo[leaf], size[leaf]), (lo[~leaf] + hi[~leaf]) // 2)
        best = max(best, top)
        return lo[~leaf], hi[~leaf], np.column_stack([planes[~leaf], made])

    last = np.array([[axis.size - 1 for axis in grid.axes]])
    root = search(np.zeros_like(last), last, np.empty((1, 0), dtype=np.int64))
    _descend(lambda *boxes: search(*_halves(*boxes)), *root)
    return best


def _cell_points(lo: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices (points, d) of every point of the boxes with corners lo and sides size."""
    offsets = np.indices(size.max(axis=0, initial=0)).reshape(lo.shape[1], -1).T
    inside = (offsets < size[:, None]).all(axis=2)
    return (lo[:, None] + offsets)[inside]


def _halves(lo: np.ndarray, hi: np.ndarray, planes: np.ndarray):
    """The children of the boxes, each the lower or upper half on every axis."""
    upper = np.indices((2,) * lo.shape[1]).reshape(lo.shape[1], -1).T == 1
    mid = ((lo + hi) // 2)[:, None]
    kid_lo, kid_hi = np.where(upper, mid + 1, lo[:, None]), np.where(upper, hi[:, None], mid)
    real = (kid_lo <= kid_hi).all(axis=2)
    return kid_lo[real], kid_hi[real], np.repeat(planes[:, None], upper.shape[0], axis=1)[real]


def _descend(refine, *boxes):
    """Apply refine to the boxes to halve (row-aligned arrays, corners first)
    and then to what it returns, until no box is left, at most _LIVE_CELLS
    halves at a time: the halves of a box on d axes number at most 2**d."""
    while boxes[0].shape[0]:
        count, cap = boxes[0].shape[0], max(1, _LIVE_CELLS >> boxes[0].shape[1])
        if count > cap:
            for part in np.array_split(np.arange(count), -(-count // cap)):
                _descend(refine, *(b[part] for b in boxes))
            return
        boxes = refine(*boxes)


def grid_accessible_info_2d(ens: Ensemble, step: float) -> float:
    """Lower bound on I_acc of a qubit ensemble by measurement grids.

    Maximizes over (a) the projective measurements, directions parameterized
    by two angles, and (b) a two-angle family of symmetric 3-outcome rank-one
    POVMs (planar trines: in-plane rotation plus a tilt of the plane), each on
    a lattice of spacing `step`.  Returns the best mutual information on the
    two lattices (at least 0).  The projective search starts from the trine
    lattice's best, which on tilted trines is the maximum.
    """
    check_grid_step(step)
    if ens.dim != 2:
        raise DimensionError("the accessible-information grid handles qubits only")
    probs = np.asarray(ens.probs)
    blochs = np.stack([bloch_vector(m) for m in ens.density_mats()])  # (k, 3)
    trine = _branch_and_bound(_Trine(probs, blochs, step))
    return max(0.0, _branch_and_bound(_Projective(probs, blochs, step), trine))


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
    """One of the Bloch-ball objectives as a function of the Bloch vector n,
    on the lattice with coordinates `axis` on each axis.  Ties go to the
    first point in (z, x, y) index order."""

    order = (2, 0, 1)

    def __init__(self, ch: QuantumChannel, objective: str, axis: np.ndarray):
        self.objective, self.axis = objective, axis
        self.m, self.t = _qubit_channel_affine(ch)
        self.w0, self.ws = _environment_affine(ch)

    def inside(self, x, y, z):
        """The ball test of the points (x, y, z): |n|^2 <= 1 + 1e-12."""
        return (x**2 + y**2) + z**2 <= 1.0 + 1e-12

    def excess(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The least of qmi - f over each box (corners lo, hi): 0, or for
        "coherent" the input entropy h2((1 + |n|) / 2) at the box's largest
        |n|; +inf where the box misses the ball, with room for roundoff."""
        near = np.maximum(0.0, np.maximum(lo, -hi))
        far = np.maximum(np.abs(lo), np.abs(hi))
        least = _h2(0.5 * (1.0 + np.linalg.norm(far, axis=1))) if self.objective == "coherent" else 0.0
        return np.where((near**2).sum(axis=1) > 1.0 + 1e-9, np.inf, least)

    def _env(self, n):
        return self.w0[None, :, :] + np.tensordot(n, self.ws, axes=(1, 0))

    def values(self, n: np.ndarray) -> np.ndarray:
        """Values at the points n (P, 3), each the same bits in any batch."""
        size, rows = n.shape[0], _padded(n)
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
    f = _BallObjective(ch, objective, np.arange(-1.0, 1.0 + step / 2, step))
    near = f.axis[np.abs(f.axis).argmin()]
    if not f.inside(near, near, near):  # the lattice point nearest the centre
        raise ValueError(f"no lattice point of step {step!r} lies in the Bloch ball")
    return f


def _density_result(value: float, n: np.ndarray):
    rho = 0.5 * (np.eye(2) + n[0] * SX + n[1] * SY + n[2] * SZ)
    return value, DensityMatrix(rho)


def grid_density_objective(ch: QuantumChannel, objective: str, step: float):
    """Maximum of a named density functional over the Bloch-ball lattice.

    objective is "qmi" (quantum mutual information) or "coherent" (coherent
    information) on the lattice of spacing `step` on each axis.  Returns
    (value, maximizing DensityMatrix), the first maximal point in (z, x, y)
    index order, as evaluating every point gives; a flat objective (such as
    "coherent" on amplitude damping 0.5, 0 everywhere) prunes nothing.
    """
    lattice = _Lattice(_ball_problem(ch, objective, step))
    return _density_result(_branch_and_bound(lattice), lattice.point())


class _Lattice:
    """The index lattice of an objective f as a grid for _branch_and_bound,
    its boxes bounded by the tangent planes of a concave F >= f.

    f supplies the coordinate of each index (`axis`, on every axis), the
    index order of ties (`order`), its domain test of points (`inside`, one
    coordinate array per axis), the least of F - f on boxes (`excess`,
    corner coordinates; +inf where a box misses the domain), and `values`
    and F's `gradients` at coordinate rows.  A plane made at a box centre a
    is stored as F(a) - g.a and g, F(a) = f(a) + excess(a, a); it bounds F
    on a box of centre c and half-widths h by F(a) - g.a + g.c + |g|.h.
    Plane 0 stands for none.  `point()` gives the first maximal point in
    f's order.
    """

    def __init__(self, f):
        self.f, self.axis, self.order = f, f.axis, list(f.order)
        self.axes, self.shape = (f.axis,) * len(f.order), (f.axis.size,) * len(f.order)
        self.best, self.key = -np.inf, -1
        self.offset, self.grad = np.array([np.inf]), np.zeros((1, len(f.order)))

    def point(self) -> np.ndarray:
        idx = np.empty(len(self.shape), dtype=np.int64)
        idx[self.order] = np.unravel_index(self.key, self.shape)
        return self.axis[idx]

    def bounds(self, lo, hi, planes):
        """Least plane bound of each box (inf without planes) less f's excess
        on it, -inf where the box misses f's domain."""
        low, high = self.axis[lo], self.axis[hi]
        c, h = 0.5 * (low + high), 0.5 * (high - low)
        bound, width = np.full(lo.shape[0], np.inf), max(1, _LIVE_CELLS // lo.shape[0])
        for at in range(0, planes.shape[1], width):  # at most _LIVE_CELLS (box, plane) pairs at a time
            ids = planes[:, at:at + width]
            g = self.grad[ids]  # (boxes, planes, d)
            own = self.offset[ids] + np.einsum("cpa,ca->cp", g, c) + np.einsum("cpa,ca->cp", np.abs(g), h)
            bound = np.minimum(bound, own.min(axis=1))
        excess = self.f.excess(low, high)
        return np.subtract(bound, excess, out=np.full_like(bound, -np.inf), where=excess < np.inf)

    def evaluate(self, points, centres):
        """Evaluate the points and box centres (each (P, d)) inside f's
        domain and update the incumbent; returns it and the id of the plane
        made at each centre (0: none)."""
        idx = np.concatenate([points, centres])
        x = self.axis[idx]
        inside = self.f.inside(*x.T)
        idx, x = idx[inside], x[inside]
        vals = self.f.values(x)
        if vals.size:
            top = vals.max()
            keys = np.ravel_multi_index(idx[:, self.order].T, self.shape)
            first = int(keys[vals == top].min())
            if top > self.best or (top == self.best and first < self.key):
                self.best, self.key = float(top), first
        # the centres inside are the last rows of x
        at = np.count_nonzero(inside[:len(points)])
        x, vals = x[at:], vals[at:]
        grad, ok = self.f.gradients(x)
        made = np.zeros(len(centres), dtype=np.int64)
        made[np.flatnonzero(inside[len(points):])[ok]] = self.offset.size + np.arange(np.count_nonzero(ok))
        lift = vals[ok] + self.f.excess(x[ok], x[ok])  # the concave function's values
        self.offset = np.concatenate([self.offset, lift - np.einsum("pa,pa->p", grad[ok], x[ok])])
        self.grad = np.concatenate([self.grad, grad[ok]])
        return self.best, made


class _ChiObjective:
    """Holevo chi of the channel's outputs on the states at the counts c
    (P, k - 1) of the first k - 1 states on the simplex lattice of spacing
    1 / n, n = round(1 / step): chi = h2((1 + |p.B|) / 2) - p.h at the prior
    p = (c, n - sum c) / n, for the output Bloch vectors B and entropies h.
    Ties go to the first point in lexicographic order."""

    def __init__(self, ch: QuantumChannel, states: list, step: float):
        outs = np.stack([channel_apply_mat(ch, v.projector()) for v in states])
        self.blochs, self.h = np.stack([bloch_vector(o) for o in outs]), _entropy_batch(outs)
        self.n = int(round(1.0 / step))
        self.axis, self.order = np.arange(self.n + 1.0), tuple(range(len(states) - 1))

    def prior(self, c: np.ndarray) -> np.ndarray:
        """The priors (P, k) at the counts c (P, k - 1)."""
        return np.column_stack([c, self.n - c.sum(axis=1)]) / self.n

    def inside(self, *c):
        """Whether the counts (one array per axis) lie in the simplex."""
        return sum(c) <= self.n

    def excess(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """0 on each box (chi is concave), +inf where it misses the simplex."""
        return np.where(lo.sum(axis=1) > self.n, np.inf, 0.0)

    def values(self, c: np.ndarray) -> np.ndarray:
        """chi at the counts c, each the same bits in any batch."""
        size, p = c.shape[0], _padded(self.prior(c))
        r = np.linalg.norm((p @ self.blochs)[:size], axis=1)
        return _h2(0.5 * (1.0 + r)) - (p @ self.h)[:size]

    def gradients(self, c: np.ndarray):
        """Gradients in c at the counts c (P, k - 1), and whether both
        eigenvalues of the mixed output are above _PLANE_FLOOR there."""
        g, ok = _bloch_entropy_grad(self.prior(c) @ self.blochs)
        b, h = self.blochs, self.h
        return (g @ (b[:-1] - b[-1]).T - (h[:-1] - h[-1])) / self.n, ok


def simplex_enumerate_chi(ch: QuantumChannel, states: list, step: float):
    """Maximum of chi of the channel outputs over the probability-simplex lattice.

    Restricted to qubit outputs (closed-form two-level entropies) and to at
    most 4 signal states: the lattice has spacing 1/round(1/step), and a
    flat chi (identical signals) prunes nothing, so the search then
    evaluates every one of its points.  Ties go to the lexicographically
    first point.  Returns (value, p).
    """
    check_grid_step(step, simplex=True)
    if len(states) > 4:
        raise DimensionError("simplex enumeration handles at most 4 states")
    if ch.dim_out != 2:
        raise DimensionError("simplex enumeration needs qubit outputs")
    f = _ChiObjective(ch, states, step)
    if len(states) == 1:  # the lattice is the one point p = (1)
        return float(f.values(np.zeros((1, 0)))[0]), np.ones(1)
    lattice = _Lattice(f)
    return _branch_and_bound(lattice), f.prior(lattice.point()[None])[0]
