"""Tests for the quantum primitives layer."""

import numpy as np
import pytest

from qchancap.core import (
    DensityMatrix,
    DimensionError,
    Ensemble,
    HermitianMatrix,
    InvariantError,
    Povm,
    PureState,
    QuantumChannel,
    apply_channel,
    binary_entropy,
    channel_apply_mat,
    check_tolerance,
    complementary_channel,
    coords_to_mat,
    entropy_of_spectrum,
    environment_output,
    fix_phase,
    identity_channel,
    log2_clipped,
    log2_safe,
    mat_to_coords,
    matrix_entropy,
    normalized_state,
    povm_probabilities,
    purify,
    random_channel,
    random_density,
    random_pure,
    shannon_entropy,
    square_root_measurement,
    tensor,
    von_neumann_entropy,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

TRINE = [
    np.array([1.0, 0.0]),
    np.array([-0.5, np.sqrt(3) / 2]),
    np.array([-0.5, -np.sqrt(3) / 2]),
]


def depolarizing_kraus(p):
    return [
        np.sqrt(1 - p) * np.eye(2),
        np.sqrt(p / 3) * SX,
        np.sqrt(p / 3) * SY,
        np.sqrt(p / 3) * SZ,
    ]


# --- channel validation -----------------------------------------------------

def test_validate_channel_identity():
    ch = QuantumChannel([np.eye(2)])
    assert ch.dim_in == ch.dim_out == 2


def test_validate_channel_depolarizing():
    # symbolic check: sum A^dag A = (1-p) I + 3*(p/3) I = I
    ch = QuantumChannel(depolarizing_kraus(0.3))
    acc = sum(a.conj().T @ a for a in ch.kraus)
    assert np.abs(acc - np.eye(2)).max() < 1e-12


def test_validate_channel_defect_reported():
    with pytest.raises(InvariantError) as err:
        QuantumChannel([np.eye(2), np.eye(2)])
    assert "1.0" in str(err.value)


def test_validate_channel_shape_mismatch():
    with pytest.raises(DimensionError):
        QuantumChannel([np.eye(2), np.eye(3)])


# --- apply_channel ----------------------------------------------------------

def test_apply_identity():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 2)
    out = apply_channel(identity_channel(2), rho)
    assert np.abs(out.mat - rho.mat).max() < 1e-14


def test_apply_depolarizing_matches_direct_formula():
    # independent oracle: N(rho) = (1 - 4p/3) rho + (2p/3) I, checked at p = 1
    rng = np.random.default_rng(1)
    for p in (0.3, 1.0):
        ch = QuantumChannel(depolarizing_kraus(p))
        rho = random_density(rng, 2)
        expected = (1 - 4 * p / 3) * rho.mat + (2 * p / 3) * np.eye(2)
        got = apply_channel(ch, rho)
        assert np.abs(got.mat - expected).max() < 1e-12


def test_apply_bit_flip_on_zero():
    ch = QuantumChannel([SX])
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    out = apply_channel(ch, rho)
    assert np.abs(out.mat - np.diag([0.0, 1.0])).max() < 1e-14


def test_apply_channel_dimension_mismatch():
    with pytest.raises(DimensionError):
        apply_channel(identity_channel(3), DensityMatrix(np.eye(2) / 2))


def test_apply_channel_preserves_trace_and_psd():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        kmin = -(-d_in // d_out)  # smallest Kraus count admitting an isometry
        ch = random_channel(rng, d_in, d_out, int(rng.integers(kmin, kmin + 3)))
        rho = random_density(rng, d_in)
        out = apply_channel(ch, rho)  # constructor enforces trace 1 and PSD
        assert abs(out.mat.trace().real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out.mat)[0] > -1e-9


# --- tensor -----------------------------------------------------------------

def test_tensor_basis_vectors():
    zero = PureState([1, 0])
    one = PureState([0, 1])
    assert np.abs(tensor(zero, one).vec - np.array([0, 1, 0, 0])).max() < 1e-15


def test_tensor_identity_channels():
    ch = tensor(identity_channel(2), identity_channel(2))
    assert ch.dim_in == 4
    assert np.abs(ch.kraus[0] - np.eye(4)).max() < 1e-15


def test_tensor_trine_self():
    # oracle: direct Kronecker computation
    v1 = PureState(TRINE[1])
    expected = np.kron(TRINE[1], TRINE[1])
    assert np.abs(tensor(v1, v1).vec - expected).max() < 1e-15
    assert np.abs(expected - np.array([0.25, -np.sqrt(3) / 4, -np.sqrt(3) / 4, 0.75])).max() < 1e-15


def test_tensor_kind_mismatch():
    with pytest.raises(TypeError):
        tensor(PureState([1, 0]), DensityMatrix(np.eye(2) / 2))


# --- partial trace, the reference for the purification tests -----------------

def _trace_out_second(mat, da, db):
    # independent oracle: naive triple-loop index contraction over the second factor
    out = np.zeros((da, da), dtype=complex)
    for i in range(da):
        for k in range(da):
            for j in range(db):
                out[i, k] += mat[i * db + j, k * db + j]
    return out


# --- entropies ----------------------------------------------------------------

def test_shannon_entropy_basics():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert shannon_entropy([1.0, 0.0]) == 0.0


def test_shannon_entropy_two_state_value():
    # oracle: direct formula evaluation of H2(1/2 - sqrt(3)/4)
    p = 0.5 - np.sqrt(3) / 4
    expected = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
    assert shannon_entropy([p, 1 - p]) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.35458, abs=1e-5)
    assert 1 - expected == pytest.approx(0.6454, abs=1e-4)


def test_shannon_entropy_rejects_negative():
    with pytest.raises(InvariantError):
        shannon_entropy([1.1, -0.1])


def test_log2_clipped_drops_entries_at_or_below_its_floor():
    x = np.array([0.0, 1e-300, 1e-12, 2e-12, 0.5, 1.0])
    assert log2_clipped(x).tolist() == [0.0, 0.0, 0.0, np.log2(2e-12), -1.0, 0.0]
    assert log2_clipped(x, 0.0).tolist() == [0.0, np.log2(1e-300), np.log2(1e-12),
                                             np.log2(2e-12), -1.0, 0.0]


def test_entropy_kernels_agree_on_stacks_and_edges():
    rng = np.random.default_rng(8)
    mats = np.stack([random_density(rng, 3, rank=1 + k % 3).mat for k in range(9)])
    stacked = matrix_entropy(mats)
    assert stacked.shape == (9,)
    assert stacked.tolist() == [matrix_entropy(m) for m in mats]
    assert stacked.tolist() == entropy_of_spectrum(np.linalg.eigvalsh(mats)).tolist()
    logs = log2_safe(mats)
    for m, log in zip(mats, logs):
        assert np.array_equal(log, log2_safe(m))
        eigs, vecs = np.linalg.eigh(m)
        kept = eigs > 1e-12
        want = (vecs[:, kept] * np.log2(eigs[kept])) @ vecs[:, kept].conj().T
        assert np.abs(log - want).max() < 1e-12
    for p in (0.0, 1e-13, 0.3, 1.0 - 1e-13, 1.0):
        want = -sum(q * np.log2(q) for q in (p, 1.0 - p) if q > 1e-12)
        assert binary_entropy(p) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0])
def test_check_tolerance_rejects_what_certifies_nothing(tol):
    with pytest.raises(ValueError, match=r"C11Options.pricing_tol must be finite and > 0"):
        check_tolerance(tol, "C11Options.pricing_tol")


def test_check_tolerance_passes_a_positive_tolerance_through():
    for tol in (5e-324, 1e-7, 1.0, 1e300):
        assert check_tolerance(tol, "tol") == tol


def test_von_neumann_entropy_basics():
    assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(1.0, abs=1e-12)
    v = random_pure(np.random.default_rng(6), 3)
    assert von_neumann_entropy(v.density()) == pytest.approx(0.0, abs=1e-9)


def test_von_neumann_entropy_two_state_ensemble():
    theta = np.pi / 3
    v1 = PureState([1.0, 0.0])
    v2 = PureState([np.cos(theta), np.sin(theta)])
    rho = Ensemble([(0.5, v1), (0.5, v2)]).average_density()
    # eigenvalues are (1 +- cos theta)/2, giving H2(1/4) at theta = pi/3
    assert von_neumann_entropy(rho) == pytest.approx(binary_entropy(0.25), abs=1e-12)
    assert binary_entropy(0.25) == pytest.approx(0.81128, abs=1e-5)


def test_entropy_additive_on_products():
    rng = np.random.default_rng(7)
    a, b = random_density(rng, 2), random_density(rng, 3)
    joint = DensityMatrix(np.kron(a.mat, b.mat))
    assert von_neumann_entropy(joint) == pytest.approx(
        von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-9
    )


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 3)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(g)
    rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
    assert von_neumann_entropy(rotated) == pytest.approx(von_neumann_entropy(rho), abs=1e-9)


# --- POVMs ----------------------------------------------------------------

def anti_trine_povm():
    items = []
    for v in TRINE:
        w = np.array([-v[1], v[0]])  # perpendicular in the real plane
        items.append((2.0 / 3.0, PureState(w)))
    return Povm(items)


def test_trine_povm_probabilities():
    povm = anti_trine_povm()
    rho = PureState(TRINE[0]).density()
    probs = povm_probabilities(povm, rho)
    assert np.abs(probs - np.array([0.0, 0.5, 0.5])).max() < 1e-12


def test_povm_probabilities_complete():
    rng = np.random.default_rng(11)
    from qchancap.core import random_rank_one_povm

    for _ in range(50):
        povm = random_rank_one_povm(rng, 2, int(rng.integers(2, 6)))
        rho = random_density(rng, 2)
        assert povm_probabilities(povm, rho).sum() == pytest.approx(1.0, abs=1e-9)


def test_povm_projective_diagonal():
    povm = Povm.projective([np.array([1, 0]), np.array([0, 1])])
    rho = DensityMatrix(np.diag([0.3, 0.7]))
    assert np.abs(povm_probabilities(povm, rho) - np.array([0.3, 0.7])).max() < 1e-12


def test_povm_incomplete_rejected():
    with pytest.raises(InvariantError):
        Povm([(1.0, PureState([1, 0]))])


def test_povm_takes_its_dimension_from_the_directions():
    assert Povm.projective(np.eye(3)).dim == 3
    with pytest.raises(DimensionError):
        Povm([(1.0, PureState([1, 0])), (1.0, PureState([0, 1, 0]))])


# --- purification ----------------------------------------------------------

def test_purify_maximally_mixed():
    rho = DensityMatrix(np.eye(2) / 2)
    phi = purify(rho)
    back = _trace_out_second(phi.density().mat, 2, 2)
    assert np.abs(back - rho.mat).max() < 1e-9


def test_purify_pure_state():
    v = random_pure(np.random.default_rng(12), 3)
    phi = purify(v.density())
    assert phi.dim == 3  # rank-one reference
    assert abs(abs(np.vdot(phi.vec, v.vec)) - 1.0) < 1e-9


def test_purify_roundtrip_random():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d)
        r = int(np.sum(np.linalg.eigvalsh(rho.mat) > 1e-12))
        phi = purify(rho)
        back = _trace_out_second(phi.density().mat, d, r)
        assert np.abs(back - rho.mat).max() < 1e-9


def test_purify_reference_basis_invariance():
    # the joint output entropy is independent of the purifying reference basis
    rng = np.random.default_rng(14)
    rho = random_density(rng, 2)
    ch = random_channel(rng, 2, 2, 2)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(g)
    ents = []
    for ref in (None, u):
        phi = purify(rho, reference_unitary=ref)
        joint = apply_channel(tensor(ch, identity_channel(2)), phi.density())
        ents.append(von_neumann_entropy(joint))
    assert ents[0] == pytest.approx(ents[1], abs=1e-8)
    # and both agree with the environment view
    env = environment_output(ch, rho.mat)
    assert ents[0] == pytest.approx(
        von_neumann_entropy(DensityMatrix(env)), abs=1e-9
    )


# --- square root measurement -------------------------------------------------

def test_srm_orthonormal_is_projective():
    srm = square_root_measurement([PureState([1, 0]), PureState([0, 1])])
    assert np.abs(srm.weights - 1.0).max() < 1e-10


def test_srm_trine():
    srm = square_root_measurement([PureState(v) for v in TRINE])
    # phi = 3/2 I, so q_i = 2/3 and the directions are the trine itself
    assert np.abs(srm.weights - 2.0 / 3.0).max() < 1e-10
    for w, v in zip(srm.directions, TRINE):
        assert abs(abs(np.vdot(w.vec, v)) - 1.0) < 1e-10


def test_srm_two_copy_trine_pulls_apart():
    states = [tensor(PureState(v), PureState(v)) for v in TRINE]
    srm = square_root_measurement(states)
    vecs = [w.vec for w in srm.directions]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert abs(np.vdot(vecs[i], vecs[j])) < 1e-9
    # a complete POVM on C^4 (constructor already enforced completeness)
    assert srm.dim == 4


def test_srm_completeness_on_support():
    # the states' elements resolve the identity on their span; the filled
    # element spans the orthocomplement
    rng = np.random.default_rng(15)
    states = [random_pure(rng, 3) for _ in range(2)]
    srm = square_root_measurement(states)
    assert len(srm.weights) == 3
    own = sum(q * w.projector() for q, w in zip(srm.weights[:2], srm.directions[:2]))
    span = np.stack([s.vec for s in states], axis=1)
    proj = span @ np.linalg.pinv(span)
    assert np.abs(own - proj).max() < 1e-9
    assert srm.weights[2] == 1.0 and abs(srm.directions[2].vec.conj() @ span).max() < 1e-9


def test_srm_empty_rejected():
    with pytest.raises(InvariantError):
        square_root_measurement([])


# --- Hermitian coordinates ---------------------------------------------------

def test_coords_identity_order():
    coords = mat_to_coords(np.eye(2))
    assert np.abs(coords - np.array([1.0, 1.0, 0.0, 0.0])).max() < 1e-15


def test_coords_roundtrip():
    rng = np.random.default_rng(16)
    for d in (2, 3, 4):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = HermitianMatrix((g + g.conj().T) / 2)
        back = coords_to_mat(mat_to_coords(h.mat), d)
        assert np.abs(back - h.mat).max() < 1e-12


def test_coords_inner_product():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        ga = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gb = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = HermitianMatrix((ga + ga.conj().T) / 2)
        b = HermitianMatrix((gb + gb.conj().T) / 2)
        dot = mat_to_coords(a.mat) @ mat_to_coords(b.mat)
        assert dot == pytest.approx(float(np.trace(a.mat @ b.mat).real), abs=1e-10)


def test_coords_wrong_length():
    with pytest.raises(DimensionError):
        coords_to_mat(np.array([1.0, 2.0, 3.0]), 2)


# --- type invariants ----------------------------------------------------------

def test_density_matrix_rejects_bad_trace():
    with pytest.raises(InvariantError):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_negative():
    with pytest.raises(InvariantError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_hermitian_rejects_asymmetric():
    with pytest.raises(InvariantError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_pure_state_rejects_unnormalized():
    with pytest.raises(InvariantError):
        PureState([1.0, 1.0])


def test_ensemble_checks():
    v = PureState([1, 0])
    with pytest.raises(InvariantError):
        Ensemble([(0.5, v), (0.4, v)])
    with pytest.raises(InvariantError):
        Ensemble([(0.5, v), (0.5, PureState([1, 0, 0]))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructors_reject_non_finite_entries(bad):
    # NaN fails every comparison, so each check must be one that NaN fails
    e0, e1 = PureState([1, 0]), PureState([0, 1])
    cases = [
        (lambda: HermitianMatrix(np.diag([bad, 1.0])), "not Hermitian"),
        (lambda: DensityMatrix(np.diag([bad, 0.5])), "not Hermitian"),
        (lambda: DensityMatrix(np.array([[0.5, bad], [bad, 0.5]])), "not Hermitian"),
        (lambda: PureState([bad, 0.0]), "squared norm"),
        (lambda: QuantumChannel([np.array([[bad, 0.0], [0.0, 1.0]])]), "not trace-preserving"),
        (lambda: Ensemble([(bad, e0), (0.5, e1)]), "probabilities"),
        (lambda: Povm([(bad, e0), (1.0, e1)]), "POVM"),
    ]
    for make, invariant in cases:
        with pytest.raises(InvariantError, match=invariant):
            make()
    with pytest.raises(InvariantError, match="probabilities"):
        shannon_entropy([bad, 0.5])


def test_ensemble_average():
    ens = Ensemble([(0.5, PureState([1, 0])), (0.5, PureState([0, 1]))])
    assert np.abs(ens.average_density().mat - np.eye(2) / 2).max() < 1e-15


def test_fix_phase_and_normalized_state():
    v = fix_phase(np.array([1j, 0.0]))
    assert v[0] == pytest.approx(1.0)
    with pytest.raises(InvariantError):
        normalized_state(np.zeros(2))


def test_channel_apply_mat_linearity():
    rng = np.random.default_rng(18)
    ch = random_channel(rng, 2, 2, 2)
    a, b = random_density(rng, 2), random_density(rng, 2)
    lhs = channel_apply_mat(ch, 0.3 * a.mat + 0.7 * b.mat)
    rhs = 0.3 * channel_apply_mat(ch, a.mat) + 0.7 * channel_apply_mat(ch, b.mat)
    assert np.abs(lhs - rhs).max() < 1e-12


def _environment_output_loop(ch, mat):
    k = len(ch.kraus)
    out = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            out[i, j] = np.trace(ch.kraus[i] @ mat @ ch.kraus[j].conj().T)
    return out


@pytest.mark.parametrize("dims", [(2, 2, 1), (2, 2, 3), (3, 3, 2), (2, 3, 4), (4, 2, 2)])
def test_environment_output_and_complementary_channel_match_loop(dims):
    rng = np.random.default_rng(dims)
    d_in, d_out, k = dims
    ch = random_channel(rng, d_in, d_out, k)
    # a density matrix and a non-Hermitian matrix: both maps are linear
    g = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    for mat in (random_density(rng, d_in).mat, g):
        want = _environment_output_loop(ch, mat)
        assert np.abs(environment_output(ch, mat) - want).max() < 1e-12
        assert np.abs(channel_apply_mat(complementary_channel(ch), mat) - want).max() < 1e-12
