"""Tests for the information functionals."""

import numpy as np
import pytest

from qchancap.core import (
    DensityMatrix,
    Ensemble,
    InvariantError,
    Povm,
    PureState,
    QuantumChannel,
    binary_entropy,
    channel_apply_mat,
    identity_channel,
    random_channel,
    random_density,
    random_pure,
    tensor,
    von_neumann_entropy,
)
from qchancap.info import (
    ClassicalChannel,
    JointDistribution,
    accessible_information_given,
    arimoto_blahut,
    coherent_information,
    holevo_chi,
    limited_ea_objective,
    mutual_information,
    quantum_mutual_information,
)

from helpers import purify, random_rank_one_povm

TRINE = [
    np.array([1.0, 0.0]),
    np.array([-0.5, np.sqrt(3) / 2]),
    np.array([-0.5, -np.sqrt(3) / 2]),
]

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def depolarizing(p):
    return QuantumChannel(
        [np.sqrt(1 - p) * np.eye(2), np.sqrt(p / 3) * SX, np.sqrt(p / 3) * SY, np.sqrt(p / 3) * SZ]
    )


def trine_ensemble():
    return Ensemble([(1.0 / 3.0, PureState(v)) for v in TRINE])


def anti_trine_povm():
    return Povm([(2.0 / 3.0, PureState([-v[1], v[0]])) for v in TRINE])


def two_state_ensemble(theta):
    return Ensemble(
        [(0.5, PureState([1.0, 0.0])), (0.5, PureState([np.cos(theta), np.sin(theta)]))]
    )


def symmetric_two_state_basis(theta):
    # orthonormal basis symmetric about the midline of the two states; it
    # induces a binary symmetric channel with flip probability 1/2 - sin(theta)/2
    a = theta / 2 + np.pi / 4
    b = theta / 2 - np.pi / 4
    return Povm.projective(
        [np.array([np.cos(a), np.sin(a)]), np.array([np.cos(b), np.sin(b)])]
    )


# --- mutual information -------------------------------------------------------

def test_mutual_information_correlated():
    j = JointDistribution(np.diag([0.5, 0.5]))
    assert mutual_information(j) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_product():
    px = np.array([0.3, 0.7])
    py = np.array([0.2, 0.5, 0.3])
    j = JointDistribution(np.outer(px, py))
    assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_bsc():
    # oracle: direct formula 1 - H2(flip) for uniform input
    flip = 0.11
    table = 0.5 * np.array([[1 - flip, flip], [flip, 1 - flip]])
    expected = 1.0 - binary_entropy(flip)
    assert mutual_information(JointDistribution(table)) == pytest.approx(expected, abs=1e-12)


def test_joint_distribution_validation():
    with pytest.raises(Exception):
        JointDistribution(np.array([[0.6, -0.1], [0.3, 0.2]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classical_tables_reject_non_finite_entries(bad):
    with pytest.raises(InvariantError, match="joint probabilities"):
        JointDistribution(np.array([[bad, 0.25], [0.25, 0.25]]))
    with pytest.raises(InvariantError, match="transition matrix|rows must sum to 1"):
        ClassicalChannel([[bad, 0.5], [0.5, 0.5]])


# --- Holevo chi -----------------------------------------------------------------

def test_chi_orthogonal_pair():
    ens = Ensemble([(0.5, PureState([1, 0])), (0.5, PureState([0, 1]))])
    assert holevo_chi(ens) == pytest.approx(1.0, abs=1e-12)


def test_chi_single_state():
    ens = Ensemble([(1.0, random_density(np.random.default_rng(0), 3))])
    assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-12)


def test_chi_two_state_angle():
    ens = two_state_ensemble(np.pi / 3)
    assert holevo_chi(ens) == pytest.approx(binary_entropy(0.25), abs=1e-12)


# --- accessible information -----------------------------------------------------

def test_accinfo_trine_anti_trine():
    got = accessible_information_given(trine_ensemble(), anti_trine_povm())
    assert got == pytest.approx(np.log2(3) - 1.0, abs=1e-12)


def test_accinfo_two_state_symmetric_measurement():
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        got = accessible_information_given(
            two_state_ensemble(theta), symmetric_two_state_basis(theta)
        )
        expected = 1.0 - binary_entropy(0.5 - np.sin(theta) / 2)
        assert got == pytest.approx(expected, abs=1e-12)


def test_accinfo_trivial_povm():
    # measuring the real trine in the circular basis: every outcome has
    # probability 1/2 whatever the signal, so nothing is learned
    circular = Povm.projective([np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)])
    assert accessible_information_given(trine_ensemble(), circular) == pytest.approx(0.0, abs=1e-12)


def test_holevo_bound_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(500):
        d = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(k))
        states = [random_density(rng, d, rank=int(rng.integers(1, d + 1))) for _ in range(k)]
        ens = Ensemble(list(zip(probs, states)))
        povm = random_rank_one_povm(rng, d, int(rng.integers(d, d + 3)))
        assert accessible_information_given(ens, povm) <= holevo_chi(ens) + 1e-9


def test_commuting_ensemble_achieves_chi():
    # when all states are diagonal in one basis, measuring that basis meets chi
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(k))
        states = [DensityMatrix(np.diag(rng.dirichlet(np.ones(d)))) for _ in range(k)]
        ens = Ensemble(list(zip(probs, states)))
        basis = Povm.projective(list(np.eye(d)))
        got = accessible_information_given(ens, basis)
        assert got == pytest.approx(holevo_chi(ens), abs=1e-6)


# --- quantum mutual information / coherent information ---------------------------

def test_qmi_identity_maximally_mixed():
    rho = DensityMatrix(np.eye(2) / 2)
    assert quantum_mutual_information(identity_channel(2), rho) == pytest.approx(2.0, abs=1e-9)


def test_qmi_pure_input_is_zero():
    rng = np.random.default_rng(3)
    ch = random_channel(rng, 2, 2, 2)
    rho = random_pure(rng, 2).density()
    assert quantum_mutual_information(ch, rho) == pytest.approx(0.0, abs=1e-8)


def test_coherent_identity_and_pure():
    rho = DensityMatrix(np.eye(2) / 2)
    assert coherent_information(identity_channel(2), rho) == pytest.approx(1.0, abs=1e-9)
    v = random_pure(np.random.default_rng(4), 2)
    ch = random_channel(np.random.default_rng(5), 2, 2, 2)
    assert coherent_information(ch, v.density()) == pytest.approx(0.0, abs=1e-8)


def test_coherent_fully_depolarizing():
    ch = depolarizing(0.75)  # output is I/2 for every input
    rho = DensityMatrix(np.eye(2) / 2)
    assert coherent_information(ch, rho) == pytest.approx(-1.0, abs=1e-9)


def test_qmi_equals_coherent_plus_entropy_exactly():
    rng = np.random.default_rng(6)
    for _ in range(20):
        ch = random_channel(rng, 2, 2, 2)
        rho = random_density(rng, 2)
        qmi = quantum_mutual_information(ch, rho)
        coh = coherent_information(ch, rho)
        assert qmi == coh + von_neumann_entropy(rho)


def test_qmi_concave():
    rng = np.random.default_rng(7)
    ch = random_channel(rng, 2, 2, 3)
    for _ in range(20):
        a, b = random_density(rng, 2), random_density(rng, 2)
        mid = DensityMatrix((a.mat + b.mat) / 2)
        lhs = quantum_mutual_information(ch, mid)
        rhs = 0.5 * quantum_mutual_information(ch, a) + 0.5 * quantum_mutual_information(ch, b)
        assert lhs >= rhs - 1e-9


def _purified_joint_entropy(ch, rho):
    """S((N (x) I)(Phi)) for a purification Phi of rho, written out."""
    phi = purify(rho)
    joint = channel_apply_mat(tensor(ch, identity_channel(phi.dim // rho.dim)), phi.projector())
    return von_neumann_entropy(DensityMatrix(joint))


def test_environment_entropy_matches_the_purification_path():
    rng = np.random.default_rng(14)
    for d in (2, 3):
        for k in (1, 2, 3, 4):
            ch = random_channel(rng, d, d, k)
            for rank in range(1, d + 1):  # rank-deficient inputs too
                rho = random_density(rng, d, rank=rank)
                joint = _purified_joint_entropy(ch, rho)
                out = von_neumann_entropy(DensityMatrix(channel_apply_mat(ch, rho.mat)))
                assert coherent_information(ch, rho) == pytest.approx(out - joint, abs=1e-12)
                assert quantum_mutual_information(ch, rho) == pytest.approx(
                    von_neumann_entropy(rho) + out - joint, abs=1e-12)
                value, _ = limited_ea_objective(ch, Ensemble([(1.0, rho)]))
                assert value == pytest.approx(von_neumann_entropy(rho) + out - joint, abs=1e-12)


# --- limited-entanglement objective ------------------------------------------------

def test_limited_ea_single_element_reduces_to_qmi():
    rng = np.random.default_rng(8)
    ch = random_channel(rng, 2, 2, 2)
    rho = random_density(rng, 2)
    value, avg_h = limited_ea_objective(ch, Ensemble([(1.0, rho)]))
    assert value == pytest.approx(quantum_mutual_information(ch, rho), abs=1e-10)
    assert avg_h == pytest.approx(von_neumann_entropy(rho), abs=1e-12)


def test_limited_ea_pure_ensemble_collapses_to_chi():
    rng = np.random.default_rng(9)
    ch = random_channel(rng, 2, 2, 2)
    states = [random_pure(rng, 2) for _ in range(3)]
    probs = rng.dirichlet(np.ones(3))
    ens = Ensemble(list(zip(probs, states)))
    value, avg_h = limited_ea_objective(ch, Ensemble([(p, s.density()) for p, s in ens.items()]))
    from qchancap.core import channel_ensemble

    assert avg_h == pytest.approx(0.0, abs=1e-9)
    assert value == pytest.approx(holevo_chi(channel_ensemble(ch, ens)), abs=1e-8)


def test_limited_ea_identity_mixed():
    value, avg_h = limited_ea_objective(
        identity_channel(2), Ensemble([(1.0, DensityMatrix(np.eye(2) / 2))])
    )
    assert value == pytest.approx(2.0, abs=1e-9)
    assert avg_h == pytest.approx(1.0, abs=1e-12)


# --- Arimoto-Blahut ------------------------------------------------------------

def test_arimoto_blahut_bsc():
    cap, dist = arimoto_blahut(ClassicalChannel([[0.89, 0.11], [0.11, 0.89]]), tol=1e-11)
    assert cap == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-9)
    assert np.abs(dist - 0.5).max() < 1e-6


def test_arimoto_blahut_noiseless():
    for n in (2, 3, 5):
        cap, _ = arimoto_blahut(ClassicalChannel(np.eye(n)), tol=1e-11)
        assert cap == pytest.approx(np.log2(n), abs=1e-9)


def test_arimoto_blahut_erasure():
    eps = 0.25
    t = np.array([[1 - eps, 0.0, eps], [0.0, 1 - eps, eps]])
    cap, _ = arimoto_blahut(ClassicalChannel(t), tol=1e-11)
    assert cap == pytest.approx(1 - eps, abs=1e-9)


def test_arimoto_blahut_monotone_lower_bound():
    rng = np.random.default_rng(10)
    t = rng.dirichlet(np.ones(4), size=3)
    trace = []
    arimoto_blahut(ClassicalChannel(t), tol=1e-12, trace=trace)
    lowers = [lo for lo, _ in trace]
    assert all(b >= a - 1e-9 for a, b in zip(lowers, lowers[1:]))
    # the two-sided bounds always bracket the final value
    final = lowers[-1]
    assert all(lo - 1e-9 <= final <= up + 1e-9 for lo, up in trace)


def test_classical_channel_validation():
    with pytest.raises(Exception):
        ClassicalChannel([[0.5, 0.4], [0.5, 0.5]])
