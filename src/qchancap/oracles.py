"""Brute-force grid oracles for desk-scale verification.

Exhaustive, simple, and independent of the optimization engines: dense angle
grids for accessible information, a Bloch-ball sweep for density objectives,
and a probability-simplex enumeration for restricted Holevo chi.  Every grid
point is evaluated, as array code: closed-form simplex compositions (the
4-signal simplex streamed one leading coordinate at a time), closed-form 2x2
spectra, the ball one z slice at a time, and the angle sweeps in blocks of a
fixed number of points.  Everything here is limited to qubit inputs/outputs;
grids blow up beyond d = 2.

All entropies go through the three module-level kernels `_h2`, `_xlog2x` and
`_entropy_batch` (perfbench's tracer wraps them by name to count evaluations).
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    ENTROPY_CLIP,
    DensityMatrix,
    DimensionError,
    Ensemble,
    QuantumChannel,
    channel_apply_mat,
    entropy_of_spectrum,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)

# grid points (times signals) evaluated per array block in the angle sweeps
_BLOCK_ELEMS = 1 << 16


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
    return p * np.log2(p, out=np.zeros_like(p), where=p > ENTROPY_CLIP)


def _h2(p: np.ndarray) -> np.ndarray:
    """Binary entropy in bits, elementwise, p clipped to [0, 1]."""
    p = np.clip(p, 0.0, 1.0)
    return -(_plog2p(p) + _plog2p(1.0 - p))


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """p log2 p elementwise, 0 where p <= ENTROPY_CLIP."""
    return _plog2p(p)


def _entropy_batch(mats: np.ndarray, closed_2x2: bool = True) -> np.ndarray:
    """Von Neumann entropies in bits of a stack of Hermitian (..., k, k) matrices.

    2x2 spectra are taken in closed form, (tr ± sqrt((a - d)² + 4|b|²)) / 2,
    from the lower triangle as eigvalsh reads it (within a few ulps of it);
    larger k, or closed_2x2=False, go to eigvalsh.
    """
    if closed_2x2 and mats.shape[-1] == 2:
        a, d, b = mats[..., 0, 0].real, mats[..., 1, 1].real, mats[..., 1, 0]
        mid = 0.5 * (a + d)
        half_gap = 0.5 * np.sqrt((a - d) ** 2 + 4.0 * (b.real**2 + b.imag**2))
        eigs = np.stack([mid - half_gap, mid + half_gap], axis=-1)
    else:
        eigs = np.linalg.eigvalsh(mats)
    return entropy_of_spectrum(eigs)


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


def grid_density_objective(
    ch: QuantumChannel, objective: str, step: float, tau: np.ndarray = None
):
    """Exhaustive Bloch-ball maximization of a named density functional.

    objective is one of "qmi" (quantum mutual information), "coherent"
    (coherent information), or "fixed-dual" (H(N(rho)) - Tr(tau rho), tau
    required).  The ball is swept one z slice of the cubic lattice at a time.
    Returns (value, maximizing DensityMatrix).
    """
    GridSpec(step, "bloch-ball")
    if objective not in ("qmi", "coherent", "fixed-dual"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "fixed-dual" and tau is None:
        raise ValueError("fixed-dual needs tau")
    m, t = _qubit_channel_affine(ch)
    if objective != "fixed-dual":
        w0, ws = _environment_affine(ch)
        ws = np.stack(ws)
    if tau is not None:
        tau_tr = float(np.trace(tau).real)
        tau_bloch = bloch_vector(tau)

    axis = np.arange(-1.0, 1.0 + step / 2, step)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    r2_xy = xs**2 + ys**2
    best_val, best_n = -np.inf, np.zeros(3)
    for z in axis:
        keep = r2_xy + z**2 <= 1.0 + 1e-12
        if not keep.any():
            continue
        n = np.stack([xs[keep], ys[keep], np.full(keep.sum(), z)], axis=1)  # (N, 3)
        n_out = n @ m.T + t
        h_out = _h2(0.5 * (1.0 + np.linalg.norm(n_out, axis=1)))
        if objective == "fixed-dual":
            vals = h_out - 0.5 * (tau_tr + n @ tau_bloch)
        else:
            env = w0[None, :, :] + np.tensordot(n, ws, axes=(1, 0))
            h_env = _entropy_batch(env)
            if objective == "coherent":
                vals = h_out - h_env
            else:
                h_in = _h2(0.5 * (1.0 + np.linalg.norm(n, axis=1)))
                vals = h_in + h_out - h_env
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_n = float(vals[k]), n[k]
    rho = 0.5 * (np.eye(2) + best_n[0] * SX + best_n[1] * SY + best_n[2] * SZ)
    return best_val, DensityMatrix(rho)


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
    # a handful of matrices: eigvalsh keeps chi bit-identical to earlier versions
    h_i = _entropy_batch(outs, closed_2x2=False)

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
