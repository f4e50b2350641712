"""Complex Hermitian linear algebra and quantum primitives.

States, channels, measurements, entropies, purification, and the
real-coordinate encoding of Hermitian matrices used by the LP
layers.  All entropies are in bits (log base 2) and rest on one kernel,
log2_clipped.  Values are immutable after construction and every
operation here is a pure function.
"""

import numpy as np

LN2 = np.log(2.0)

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-10
CHANNEL_TOL = 1e-9
POVM_TOL = 1e-9
ENTROPY_CLIP = 1e-12
SNAP_TOL = 1e-8  # snap_vector zeros parts below this share of the largest amplitude

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


class InvariantError(ValueError):
    """A quantum object failed one of its validity invariants."""


def check_tolerance(tol, name: str) -> float:
    """Reject a stopping tolerance that certifies nothing: NaN passes no
    comparison and inf every one, and a gap of 0 or less is never reached.
    Returns tol; raises ValueError naming the option otherwise."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be finite and > 0, got {tol!r}")
    return tol


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class HermitianMatrix:
    """A d x d complex Hermitian matrix (max deviation from H^dag below 1e-10)."""

    __slots__ = ("mat", "dim")

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
        defect = float(np.abs(mat - mat.conj().T).max())
        if not defect <= HERMITIAN_TOL:  # NaN fails every comparison
            raise InvariantError(f"matrix is not Hermitian: max deviation {defect:.3e}")
        # symmetrize away the sub-tolerance roundoff so eigh sees an exact Hermitian
        self.mat = _readonly((mat + mat.conj().T) / 2.0)
        self.dim = mat.shape[0]


class DensityMatrix(HermitianMatrix):
    """Hermitian, trace-one (1e-10), positive semidefinite (min eig >= -1e-10)."""

    def __init__(self, mat):
        super().__init__(mat)
        tr = float(self.mat.trace().real)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise InvariantError(f"trace is {tr!r}, expected 1 within {TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(self.mat)[0])
        if not lo >= -PSD_TOL:
            raise InvariantError(f"not positive semidefinite: min eigenvalue {lo:.3e}")

    @staticmethod
    def from_pure(state: "PureState") -> "DensityMatrix":
        return DensityMatrix(np.outer(state.vec, state.vec.conj()))


class PureState:
    """A unit vector in C^d (squared norm within 1e-10 of 1)."""

    __slots__ = ("vec", "dim")

    def __init__(self, vec):
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        nrm2 = float(np.vdot(vec, vec).real)
        if not abs(nrm2 - 1.0) <= NORM_TOL:
            raise InvariantError(f"squared norm is {nrm2!r}, expected 1 within {NORM_TOL}")
        self.vec = _readonly(vec)
        self.dim = vec.shape[0]

    def projector(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())

    def density(self) -> DensityMatrix:
        return DensityMatrix.from_pure(self)


def normalized_state(vec) -> PureState:
    """Normalize a nonzero vector into a PureState."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(vec))
    if nrm < 1e-14:
        raise InvariantError("cannot normalize the zero vector")
    return PureState(vec / nrm)


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """Gauge-fix a state vector: largest-magnitude amplitude made real nonnegative."""
    k = int(np.argmax(np.abs(vec)))
    a = vec[k]
    if abs(a) < 1e-300:
        return vec
    return vec * (a.conjugate() / abs(a))


def snap_vector(vec: np.ndarray) -> np.ndarray:
    """Zero real/imaginary parts below SNAP_TOL of the largest amplitude.

    Optimizer output carries component dust at the gradient-tolerance scale;
    snapping it keeps downstream coordinate rows exactly zero where they
    should be.  The result is renormalized and phase-fixed.
    """
    scale = float(np.abs(vec).max())
    if scale <= 0.0:
        return vec
    re = np.where(np.abs(vec.real) < SNAP_TOL * scale, 0.0, vec.real)
    im = np.where(np.abs(vec.imag) < SNAP_TOL * scale, 0.0, vec.imag)
    out = re + 1j * im
    return fix_phase(out / np.linalg.norm(out))


class QuantumChannel:
    """A channel in Kraus form {A_i}: rho -> sum_i A_i rho A_i^dag.

    Trace preservation (sum_i A_i^dag A_i = I) is enforced entrywise to 1e-9.
    `diagonal_output` holds when every Kraus operator has at most one nonzero
    row (measurement-induced classical channels): then every output is
    diagonal in the computational basis, which enables a cheap entropy path
    downstream.
    """

    __slots__ = ("kraus", "dim_in", "dim_out", "diagonal_output")

    def __init__(self, kraus):
        if not kraus:
            raise InvariantError("a channel needs at least one Kraus operator")
        ops = []
        shape = None
        for a in kraus:
            a = np.asarray(a, dtype=complex)
            if a.ndim != 2:
                raise DimensionError(f"Kraus operator has shape {a.shape}, expected a matrix")
            if shape is None:
                shape = a.shape
            elif a.shape != shape:
                raise DimensionError(f"inconsistent Kraus shapes {shape} and {a.shape}")
            ops.append(_readonly(a.copy()))
        dim_out, dim_in = shape
        ident = sum(a.conj().T @ a for a in ops)
        defect = float(np.abs(ident - np.eye(dim_in)).max())
        if not defect <= CHANNEL_TOL:
            raise InvariantError(
                f"channel is not trace-preserving: identity defect {defect:.6e}"
            )
        self.kraus = tuple(ops)
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.diagonal_output = all(np.count_nonzero(a.any(axis=1)) <= 1 for a in ops)


def apply_channel(ch: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the Kraus sum to a density matrix."""
    if rho.dim != ch.dim_in:
        raise DimensionError(f"state dim {rho.dim} != channel input dim {ch.dim_in}")
    return DensityMatrix(channel_apply_mat(ch, rho.mat))


def channel_apply_mat(ch: QuantumChannel, mat: np.ndarray) -> np.ndarray:
    """Kraus sum on a raw matrix or a stack (..., d, d) of them (no validity
    wrapping)."""
    out = np.zeros(mat.shape[:-2] + (ch.dim_out, ch.dim_out), dtype=complex)
    for a in ch.kraus:
        out += a @ mat @ a.conj().T
    return out


def channel_output_pure(ch: QuantumChannel, vec: np.ndarray) -> np.ndarray:
    """Output matrix N(v v^dag) assembled from the image vectors A_i v."""
    imgs = [a @ vec for a in ch.kraus]
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=complex)
    for w in imgs:
        out += np.outer(w, w.conj())
    return out


def adjoint_apply(ch: QuantumChannel, mat: np.ndarray) -> np.ndarray:
    """Adjoint map N^dag(X) = sum_i A_i^dag X A_i (Heisenberg picture), of
    one matrix or a stack (..., d, d)."""
    out = np.zeros(mat.shape[:-2] + (ch.dim_in, ch.dim_in), dtype=complex)
    for a in ch.kraus:
        out += a.conj().T @ mat @ a
    return out


def environment_output(ch: QuantumChannel, mat: np.ndarray) -> np.ndarray:
    """Environment (complementary) view: the matrix with entries Tr(A_k rho A_j^dag),
    of one matrix or a stack (..., d, d).

    Its entropy equals the entropy of (N (x) I) applied to any purification of
    rho, since the system+reference+environment state is pure.
    """
    kraus = np.stack(ch.kraus)
    return np.einsum("krp,...pq,jrq->...kj", kraus, mat, kraus.conj())


def complementary_channel(ch: QuantumChannel) -> QuantumChannel:
    """The channel rho -> environment_output(ch, rho), in Kraus form.

    Its Kraus operators B_r have entries (B_r)_kp = (A_k)_rp, one per output
    row of the A_k.
    """
    kraus = np.stack(ch.kraus)
    return QuantumChannel(list(kraus.swapaxes(0, 1)))


def tensor(a, b):
    """Tensor product of two states or two channels (same kind only)."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.vec, b.vec))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.mat, b.mat))
    if isinstance(a, QuantumChannel) and isinstance(b, QuantumChannel):
        kraus = [np.kron(x, y) for x in a.kraus for y in b.kraus]
        return QuantumChannel(kraus)
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel([np.eye(dim)])


def log2_clipped(x, floor: float = ENTROPY_CLIP):
    """log2 x elementwise, 0 where x <= floor (so x log2 x drops those entries)."""
    return np.log2(np.where(x > floor, x, 1.0))


def shannon_entropy(p) -> float:
    """Shannon entropy in bits, with the 0 log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    if not p.min() >= -1e-12:
        raise InvariantError(f"probabilities must be nonnegative: min {p.min():.3e}")
    s = float(p.sum())
    if not abs(s - 1.0) <= 1e-9:
        raise InvariantError(f"probabilities sum to {s!r}, expected 1 within 1e-9")
    return entropy_of_spectrum(p)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the eigenvalue spectrum, eigenvalues clipped to [0, 1]."""
    return matrix_entropy(rho.mat)


def entropy_of_spectrum(eigs: np.ndarray):
    """Entropy in bits of a spectrum, entries clipped to [0, 1], those at most
    ENTROPY_CLIP contributing nothing.

    A stack of spectra (..., d) gives an array of entropies of shape (...).
    """
    eigs = np.clip(eigs, 0.0, 1.0)
    out = -(eigs * log2_clipped(eigs)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def matrix_entropy(mat: np.ndarray):
    """Von Neumann entropy in bits of a Hermitian matrix, or an array of them
    for a stack (..., d, d)."""
    return entropy_of_spectrum(np.linalg.eigvalsh(mat))


def log2_safe(mat: np.ndarray) -> np.ndarray:
    """log2 of a PSD matrix with eigenvalues at most ENTROPY_CLIP contributing nothing.

    A stack of matrices (..., d, d) gives the stack of their logs.
    """
    eigs, vecs = np.linalg.eigh(mat)
    return (vecs * log2_clipped(eigs)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def binary_entropy(p: float) -> float:
    """H2(p) in bits."""
    return entropy_of_spectrum(np.array([p, 1.0 - p]))


class Ensemble:
    """Weighted states {(p_i, state_i)}: p_i >= 0, sum 1 (1e-10), one dimension."""

    __slots__ = ("probs", "states", "dim")

    def __init__(self, items):
        if not items:
            raise InvariantError("ensemble needs at least one item")
        probs = np.array([float(p) for p, _ in items])
        if not probs.min() >= -1e-12:
            raise InvariantError(f"probabilities must be nonnegative: min {probs.min():.3e}")
        if not abs(probs.sum() - 1.0) <= TRACE_TOL:
            raise InvariantError(
                f"probabilities sum to {probs.sum()!r}, expected 1 within {TRACE_TOL}"
            )
        states = tuple(s for _, s in items)
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise InvariantError(f"ensemble states span several dimensions: {sorted(dims)}")
        self.probs = _readonly(np.clip(probs, 0.0, None))
        self.states = states
        self.dim = dims.pop()

    def items(self):
        return list(zip(self.probs, self.states))

    def density_mats(self) -> list:
        return [s.projector() if isinstance(s, PureState) else s.mat for s in self.states]

    def average_density(self) -> DensityMatrix:
        avg = np.zeros((self.dim, self.dim), dtype=complex)
        for p, m in zip(self.probs, self.density_mats()):
            avg += p * m
        return DensityMatrix(avg)


def channel_ensemble(ch: QuantumChannel, ens: Ensemble) -> Ensemble:
    """Push an input ensemble through a channel (output states as densities)."""
    if ens.dim != ch.dim_in:
        raise DimensionError(f"ensemble dim {ens.dim} != channel input dim {ch.dim_in}")
    out = []
    for p, m in zip(ens.probs, ens.density_mats()):
        out.append((p, DensityMatrix(channel_apply_mat(ch, m))))
    return Ensemble(out)


class Povm:
    """Rank-one POVM {q_i w_i w_i^dag} with sum_i q_i w_i w_i^dag = I (1e-9)."""

    __slots__ = ("weights", "directions", "dim")

    def __init__(self, items):
        if not items:
            raise InvariantError("POVM needs at least one element")
        weights = np.array([float(q) for q, _ in items])
        if not weights.min() >= -1e-12:
            raise InvariantError(f"POVM weights must be nonnegative: min {weights.min():.3e}")
        directions = tuple(w for _, w in items)
        d = directions[0].dim
        total = np.zeros((d, d), dtype=complex)
        for q, w in zip(weights, directions):
            if w.dim != d:
                raise DimensionError("POVM directions span several dimensions")
            total += q * w.projector()
        defect = float(np.abs(total - np.eye(d)).max())
        if not defect <= POVM_TOL:
            raise InvariantError(f"POVM is not complete: identity defect {defect:.6e}")
        self.weights = _readonly(np.clip(weights, 0.0, None))
        self.directions = directions
        self.dim = d

    @staticmethod
    def projective(basis_vectors) -> "Povm":
        return Povm([(1.0, PureState(v)) for v in basis_vectors])


def povm_probabilities(povm: Povm, rho: DensityMatrix) -> np.ndarray:
    """Outcome distribution q_i w_i^dag rho w_i; sums to 1 within 1e-9."""
    if povm.dim != rho.dim:
        raise DimensionError(f"POVM dim {povm.dim} != state dim {rho.dim}")
    probs = np.array(
        [q * float(np.vdot(w.vec, rho.mat @ w.vec).real)
         for q, w in zip(povm.weights, povm.directions)]
    )
    return np.clip(probs, 0.0, None)


def purify(rho: DensityMatrix, reference_unitary: np.ndarray = None) -> PureState:
    """A purification on system (x) reference, reference dimension = rank(rho).

    Phi = sum_k sqrt(l_k) e_k (x) f_k with {l_k, e_k} the nonzero eigenpairs
    and {f_k} the reference basis (optionally rotated by `reference_unitary`);
    the partial trace over the reference recovers rho.
    """
    eigs, vecs = np.linalg.eigh(rho.mat)
    order = np.argsort(eigs)[::-1]
    eigs, vecs = eigs[order], vecs[:, order]
    keep = eigs > 1e-12
    eigs, vecs = eigs[keep], vecs[:, keep]
    r = int(eigs.size)
    ref = np.eye(r, dtype=complex)
    if reference_unitary is not None:
        ref = np.asarray(reference_unitary, dtype=complex)
        if ref.shape != (r, r):
            raise DimensionError(f"reference unitary must be {r}x{r}, got {ref.shape}")
    phi = np.zeros(rho.dim * r, dtype=complex)
    for k in range(r):
        phi += np.sqrt(eigs[k]) * np.kron(vecs[:, k], ref[:, k])
    phi /= np.linalg.norm(phi)
    return PureState(phi)


def square_root_measurement(states) -> Povm:
    """POVM elements phi^{-1/2} w_i w_i^dag phi^{-1/2}, phi = sum_i w_i w_i^dag.

    The inverse square root is a pseudo-inverse (eigenvalues below 1e-10 are
    dropped), so the elements resolve the identity on the span of the states;
    the orthocomplement is filled with projective elements, making the result
    a valid POVM on the whole space.
    """
    if not states:
        raise InvariantError("square-root measurement needs at least one state")
    d = states[0].dim
    phi = np.zeros((d, d), dtype=complex)
    for w in states:
        phi += w.projector()
    eigs, vecs = np.linalg.eigh(phi)
    keep = eigs > 1e-10
    inv_sqrt = (vecs[:, keep] / np.sqrt(eigs[keep])) @ vecs[:, keep].conj().T
    items = []
    for w in states:
        u = inv_sqrt @ w.vec
        q = float(np.vdot(u, u).real)
        items.append((q, normalized_state(fix_phase(u))))
    for k in np.flatnonzero(~keep):
        items.append((1.0, PureState(fix_phase(vecs[:, k]))))
    return Povm(items)


# ---------------------------------------------------------------------------
# Real coordinates for Hermitian matrices.
#
# Basis order: the d diagonal units, then for each pair j < k (row-major) the
# symmetric element (e_jk + e_kj)/sqrt(2) followed by the antisymmetric one
# i(e_jk - e_kj)/sqrt(2).  The basis is orthonormal under Tr(AB), so the trace
# inner product of two Hermitian matrices equals the dot product of their
# coordinate vectors.
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


def mat_to_coords(mat: np.ndarray) -> np.ndarray:
    """Coordinate vector of a Hermitian ndarray (no wrapping)."""
    d = mat.shape[0]
    coords = np.empty(d * d)
    coords[:d] = mat.diagonal().real
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            coords[k] = _SQRT2 * mat[i, j].real
            coords[k + 1] = _SQRT2 * mat[i, j].imag
            k += 2
    return coords


def coords_to_mat(coords: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian ndarray with these d^2 coordinates."""
    if len(coords) != dim * dim:
        raise DimensionError(f"expected {dim * dim} coordinates, got {len(coords)}")
    m = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(m, coords[:dim])
    k = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            m[i, j] = (coords[k] + 1j * coords[k + 1]) / _SQRT2
            m[j, i] = m[i, j].conjugate()
            k += 2
    return m


# ---------------------------------------------------------------------------
# Seeded random objects, used by the multistart engines and the test suite.
# ---------------------------------------------------------------------------

def random_pure(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return normalized_state(fix_phase(v))


def random_density(rng: np.random.Generator, dim: int, rank: int = None) -> DensityMatrix:
    r = rank if rank is not None else dim
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def random_channel(
    rng: np.random.Generator, dim_in: int, dim_out: int, kraus_count: int
) -> QuantumChannel:
    """Random channel from a Haar-ish Stinespring isometry (exactly trace-preserving)."""
    if dim_out * kraus_count < dim_in:
        raise DimensionError("need dim_out * kraus_count >= dim_in for an isometry")
    g = rng.normal(size=(dim_out * kraus_count, dim_in)) + 1j * rng.normal(
        size=(dim_out * kraus_count, dim_in)
    )
    q, _ = np.linalg.qr(g)
    return QuantumChannel([q[i * dim_out:(i + 1) * dim_out, :] for i in range(kraus_count)])


def random_rank_one_povm(rng: np.random.Generator, dim: int, outcomes: int) -> Povm:
    """Random rank-one POVM from the first dim columns of a Haar-ish unitary."""
    if outcomes < dim:
        raise DimensionError("need at least dim outcomes")
    g = rng.normal(size=(outcomes, outcomes)) + 1j * rng.normal(size=(outcomes, outcomes))
    q, _ = np.linalg.qr(g)
    iso = q[:, :dim]
    items = []
    for row in iso:
        v = row.conj()
        w = float(np.vdot(v, v).real)
        items.append((w, normalized_state(fix_phase(v))))
    return Povm(items)
