"""Tests for the brute-force grid oracles."""

import itertools

import numpy as np
import pytest

from qchancap import oracles
from qchancap.channels import amplitude_damping, depolarizing
from qchancap.core import (
    DimensionError,
    Ensemble,
    PureState,
    QuantumChannel,
    binary_entropy,
    entropy_of_spectrum,
    identity_channel,
    random_channel,
    random_density,
    validate_channel,
)
from qchancap.oracles import (
    GridSpec,
    _compositions,
    _entropy_batch,
    _projective_sweep,
    _swept_density_objective,
    _trine_sweep,
    bloch_vector,
    grid_accessible_info_2d,
    grid_density_objective,
    simplex_enumerate_chi,
)

TRINE = [
    np.array([1.0, 0.0]),
    np.array([-0.5, np.sqrt(3) / 2]),
    np.array([-0.5, -np.sqrt(3) / 2]),
]

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_grid_spec_validation():
    GridSpec(0.01, "bloch-ball")
    GridSpec(1.0, "simplex")
    GridSpec(3.0, "sphere-angles")
    for bad in (0.0, -0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            GridSpec(bad, "simplex")
    with pytest.raises(ValueError):
        GridSpec(1.5, "simplex")


BAD_STEPS = [0.0, -0.1, np.nan, np.inf]


@pytest.mark.parametrize("step", BAD_STEPS)
def test_oracles_reject_bad_steps(step):
    ens = Ensemble([(1 / 3, PureState(v)) for v in TRINE])
    with pytest.raises(ValueError, match="step"):
        grid_accessible_info_2d(ens, step)
    for objective in ("qmi", "coherent"):
        with pytest.raises(ValueError, match="step"):
            grid_density_objective(identity_channel(2), objective, step)
    with pytest.raises(ValueError, match="step"):
        simplex_enumerate_chi(identity_channel(2), [PureState(v) for v in TRINE], step)


@pytest.mark.parametrize("objective", ["qmi", "coherent"])
def test_ball_grid_rejects_steps_with_no_lattice_point(objective):
    # the lattice point nearest the centre is (a, a, a) with a = step - 1: it
    # leaves the ball once step > 1 + 1/sqrt(3), about 1.577
    for step in (1.58, 3.0):
        with pytest.raises(ValueError, match="no lattice point"):
            grid_density_objective(identity_channel(2), objective, step)
    _, rho = grid_density_objective(identity_channel(2), objective, 1.57)
    assert np.abs(bloch_vector(rho.mat) - 0.57).max() < 1e-12


def test_simplex_rejects_step_above_one():
    with pytest.raises(ValueError, match="step"):
        simplex_enumerate_chi(identity_channel(2), [PureState(v) for v in TRINE], 3.0)
    value, p = simplex_enumerate_chi(identity_channel(2), [PureState(v) for v in TRINE], 1.0)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert sorted(p) == [0.0, 0.0, 1.0]  # step 1 leaves only the vertices


# --- the array kernels against plain references ---------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_compositions_match_product_reference(k):
    for n in range(9):
        reference = [row for row in itertools.product(range(n + 1), repeat=k) if sum(row) == n]
        got = _compositions(n, k)
        assert got.dtype == np.int64 and got.shape == (len(reference), k)
        assert [tuple(row) for row in got.tolist()] == reference


def _hermitian_stacks(rng):
    g = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    mixed = g @ g.conj().transpose(0, 2, 1)
    mixed /= np.trace(mixed, axis1=1, axis2=2).real[:, None, None]
    v = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    v /= np.linalg.norm(v, axis=1)[:, None]
    pure = v[:, :, None] * v[:, None, :].conj()
    diagonal = np.zeros((200, 2, 2), dtype=complex)
    diagonal[:, 0, 0] = rng.uniform(0, 1, 200)
    diagonal[:, 1, 1] = 1.0 - diagonal[:, 0, 0].real
    near = np.eye(2)[None] / 2 + np.logspace(-16, -4, 200)[:, None, None] * mixed[:1]
    return {
        "random": mixed,
        "pure": pure,
        "maximally mixed": np.broadcast_to(np.eye(2) / 2, (5, 2, 2)).astype(complex),
        "diagonal": diagonal,
        "basis": np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex),
        "near-degenerate": near,
        "real": mixed.real.copy(),
    }


def test_entropy_batch_closed_form_matches_eigvalsh():
    rng = np.random.default_rng(5)
    for name, mats in _hermitian_stacks(rng).items():
        got = _entropy_batch(mats)
        reference = entropy_of_spectrum(np.linalg.eigvalsh(mats))
        assert got.shape == mats.shape[:-2], name
        assert np.abs(got - reference).max() <= 1e-12, name
    stack = np.stack([[m.mat for m in (random_density(rng, 2), random_density(rng, 2))]] * 3)
    assert _entropy_batch(stack).shape == (3, 2)


def _info(probs, cond):
    """Mutual information of a measurement from the outcome probabilities cond[i, j]."""
    def xlogx(x):
        return x * np.log2(x) if x > 1e-12 else 0.0

    q = [sum(p * row[j] for p, row in zip(probs, cond)) for j in range(len(cond[0]))]
    return (sum(p * xlogx(c) for p, row in zip(probs, cond) for c in row)
            - sum(xlogx(x) for x in q))


def _projective_loop(probs, blochs, step):
    best = -np.inf
    for theta in np.arange(0.0, np.pi / 2 + step, step):
        for phi in np.arange(0.0, 2 * np.pi, step):
            n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
            up = [0.5 * (1.0 + float(b @ n)) for b in blochs]
            best = max(best, _info(probs, [[u, 1.0 - u] for u in up]))
    return best


def _trine_loop(probs, blochs, step):
    best = -np.inf
    for beta in np.arange(0.0, np.pi, max(step, np.pi / max(1, int(np.pi / step)))):
        e2 = np.array([0.0, np.sin(beta), np.cos(beta)])
        for gamma in np.arange(0.0, 2 * np.pi / 3, step):
            dirs = [np.cos(gamma + 2 * np.pi * j / 3) * np.array([1.0, 0.0, 0.0])
                    + np.sin(gamma + 2 * np.pi * j / 3) * e2 for j in range(3)]
            best = max(best, _info(probs, [[(1.0 + float(b @ m)) / 3 for m in dirs] for b in blochs]))
    return best


def test_accinfo_sweeps_match_point_loops():
    rng = np.random.default_rng(9)
    ensembles = [
        Ensemble([(1 / 3, PureState(v)) for v in TRINE]),
        Ensemble(list(zip(rng.dirichlet(np.ones(3)), [random_density(rng, 2) for _ in range(3)]))),
        Ensemble([(0.4, PureState([1, 0])), (0.6, PureState([np.cos(0.3), 1j * np.sin(0.3)]))]),
    ]
    for ens in ensembles:
        probs = np.asarray(ens.probs)
        blochs = np.stack([bloch_vector(m) for m in ens.density_mats()])
        assert abs(_projective_sweep(probs, blochs, 0.05) - _projective_loop(probs, blochs, 0.05)) <= 1e-12
        assert abs(_trine_sweep(probs, blochs, 0.05) - _trine_loop(probs, blochs, 0.05)) <= 1e-12


def _first_argmax_p(states, step):
    """Reference: chi at every lattice point in lexicographic order, first maximum."""
    n = int(round(1.0 / step))
    blochs = np.stack([bloch_vector(s.projector()) for s in states])
    best, best_p = -np.inf, None
    for row in itertools.product(range(n + 1), repeat=len(states)):
        if sum(row) != n:
            continue
        p = np.array(row) / n
        chi = binary_entropy(0.5 * (1.0 + np.linalg.norm(p @ blochs)))
        if chi > best:
            best, best_p = chi, p
    return best, best_p


@pytest.mark.parametrize("vectors", [
    [[1, 0], [1, 0], [0, 1]],
    [[1, 0], [0, 1], [1, 0]],
    [[1, 0], [0, 1], [1, 0], [0, 1]],
])
def test_simplex_ties_go_to_first_lattice_point(vectors):
    # pure basis states: every split of weight 1/2 between the copies of |0>
    # gives chi = 1 exactly on the dyadic lattice
    states = [PureState(v) for v in vectors]
    value, p = simplex_enumerate_chi(identity_channel(2), states, 0.125)
    ref_value, ref_p = _first_argmax_p(states, 0.125)
    assert value == ref_value == 1.0
    assert np.array_equal(p, ref_p)


def test_grid_accinfo_two_state():
    theta = np.pi / 3
    ens = Ensemble([(0.5, PureState([1, 0])), (0.5, PureState([np.cos(theta), np.sin(theta)]))])
    got = grid_accessible_info_2d(ens, 1e-3)
    assert got == pytest.approx(1 - binary_entropy(0.5 - np.sqrt(3) / 4), abs=1e-5)


def test_grid_accinfo_trine():
    ens = Ensemble([(1 / 3, PureState(v)) for v in TRINE])
    got = grid_accessible_info_2d(ens, 1e-3)
    assert got == pytest.approx(np.log2(3) - 1, abs=1e-5)


def test_grid_accinfo_single_state():
    ens = Ensemble([(1.0, PureState([0.6, 0.8]))])
    assert grid_accessible_info_2d(ens, 5e-3) == pytest.approx(0.0, abs=1e-12)


def test_grid_accinfo_rejects_qutrits():
    ens = Ensemble([(1.0, PureState([1, 0, 0]))])
    with pytest.raises(DimensionError):
        grid_accessible_info_2d(ens, 1e-2)


def test_grid_density_identity():
    value, rho = grid_density_objective(identity_channel(2), "qmi", 0.01)
    assert value == pytest.approx(2.0, abs=1e-9)
    assert np.abs(rho.mat - np.eye(2) / 2).max() < 1e-6
    value, _ = grid_density_objective(identity_channel(2), "coherent", 0.01)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_grid_density_fixed_dual():
    ch = validate_channel([np.sqrt(0.75) * np.eye(2), np.sqrt(0.25) * SZ])
    tau = np.array([[0.3, 0.05], [0.05, 0.1]], dtype=complex)
    value, rho = grid_density_objective(ch, "fixed-dual", 0.01, tau=tau)
    from qchancap.optim import EntropySum

    assert value == pytest.approx(EntropySum([(1.0, ch)], linear=-tau).value(rho.mat), abs=1e-12)


def test_grid_density_unknown_objective():
    with pytest.raises(ValueError):
        grid_density_objective(identity_channel(2), "capacity", 0.01)
    with pytest.raises(ValueError):
        grid_density_objective(identity_channel(2), "fixed-dual", 0.01)


def test_grid_density_rejects_misplaced_tau():
    tau = np.diag([0.2, -0.1]).astype(complex)
    for objective in ("qmi", "coherent"):
        with pytest.raises(ValueError, match="tau"):
            grid_density_objective(identity_channel(2), objective, 0.1, tau=tau)
    bad_taus = [
        np.eye(3),
        np.array([0.1, 0.2]),
        np.array([[0.1, 0.2], [0.0, 0.3]]),
        np.array([[0.1, 1j], [1j, 0.3]]),
        np.array([[np.nan, 0.0], [0.0, 0.1]]),
    ]
    for tau in bad_taus:
        with pytest.raises(ValueError, match="Hermitian 2x2"):
            grid_density_objective(identity_channel(2), "fixed-dual", 0.1, tau=tau)
    grid_density_objective(identity_channel(2), "fixed-dual", 0.1, tau=[[0.1, 1j], [-1j, 0.3]])


# --- branch-and-bound against the exhaustive sweep --------------------------------

def _random_tau(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return (g + g.conj().T) / 2


def _assert_same_as_sweep(ch, objective, step, tau=None):
    value, rho = grid_density_objective(ch, objective, step, tau=tau)
    swept, swept_rho = _swept_density_objective(ch, objective, step, tau=tau)
    assert value == swept
    assert np.array_equal(rho.mat, swept_rho.mat)
    return value, rho


def _equivalence_channels():
    rng = np.random.default_rng(2027)
    unitary = random_channel(rng, 2, 2, 1).kraus[0]
    channels = [identity_channel(2), QuantumChannel([a @ unitary for a in depolarizing(0.3).kraus])]
    channels += [random_channel(rng, 2, 2, 1 + i % 4) for i in range(20)]
    return rng, channels


@pytest.mark.parametrize("step", [1.57, 1.5, 0.7, 0.3, 0.13, 0.05, 0.04, 0.02])
def test_branch_and_bound_matches_sweep(step):
    rng, channels = _equivalence_channels()
    for ch in channels:
        _assert_same_as_sweep(ch, "qmi", step)
        _assert_same_as_sweep(ch, "fixed-dual", step, tau=_random_tau(rng))


def test_branch_and_bound_matches_sweep_fine_depolarizing():
    rng = np.random.default_rng(11)
    unitary = random_channel(rng, 2, 2, 1).kraus[0]
    ch = QuantumChannel([a @ unitary for a in depolarizing(0.3).kraus])
    value, _ = _assert_same_as_sweep(ch, "qmi", 0.01)
    # the maximally mixed input is a lattice point: C_E = 2 - H(0.7, 0.1, 0.1, 0.1)
    assert value == pytest.approx(2 + 0.7 * np.log2(0.7) + 0.3 * np.log2(0.1), abs=1e-12)
    _assert_same_as_sweep(ch, "fixed-dual", 0.01, tau=_random_tau(rng))


def _replacement(sigma_eigs, unitary):
    """The channel sending every input to U diag(sigma_eigs) U^dag."""
    return QuantumChannel([np.sqrt(s) * np.outer(unitary[:, j], np.eye(2)[i])
                           for j, s in enumerate(sigma_eigs) for i in range(2)])


def test_branch_and_bound_degenerate_inputs():
    rng = np.random.default_rng(4)
    unitary = random_channel(rng, 2, 2, 1).kraus[0]
    replacement = _replacement([0.7, 0.3], unitary)
    # a constant objective: every lattice point ties, so the first one (the
    # south pole, alone in the first slice) is returned
    value, rho = _assert_same_as_sweep(replacement, "fixed-dual", 0.05, tau=np.zeros((2, 2)))
    assert value == pytest.approx(binary_entropy(0.3), abs=1e-12)
    assert np.abs(rho.mat - np.diag([0.0, 1.0])).max() < 1e-12
    # I = 0 in exact arithmetic, so the lattice maximum is a roundoff tie-break
    value, _ = _assert_same_as_sweep(replacement, "qmi", 0.05)
    assert abs(value) < 1e-12
    for ch in (
        # linearly dependent Kraus operators: the environment state is singular
        # everywhere, so no qmi tangent plane is kept
        QuantumChannel([a / np.sqrt(2) for a in amplitude_damping(0.4).kraus for _ in range(2)]),
        amplitude_damping(1.0),  # a pure output everywhere
        random_channel(rng, 2, 2, 1),  # a unitary: 1 x 1 environment
    ):
        for step in (0.05, 0.04):
            _assert_same_as_sweep(ch, "qmi", step)
            _assert_same_as_sweep(ch, "fixed-dual", step, tau=_random_tau(rng))


def test_coherent_sweeps_every_lattice_point(monkeypatch):
    step = 0.1
    axis = np.arange(-1.0, 1.0 + step / 2, step)
    ball = sum(x * x + y * y + z * z <= 1.0 + 1e-12 for x in axis for y in axis for z in axis)
    evaluated = []
    values = oracles._BallObjective.values
    monkeypatch.setattr(oracles._BallObjective, "values",
                        lambda self, n: evaluated.append(n.shape[0]) or values(self, n))
    ch = amplitude_damping(0.3)
    grid_density_objective(ch, "coherent", step)
    assert sum(evaluated) == ball
    evaluated.clear()
    grid_density_objective(ch, "qmi", step)
    assert 0 < sum(evaluated) < ball / 4


def test_simplex_chi_trine():
    value, p = simplex_enumerate_chi(identity_channel(2), [PureState(v) for v in TRINE], 1e-3)
    assert value == pytest.approx(1.0, abs=1e-5)
    # any distribution averaging to I/2 attains the maximum
    avg = sum(pi * PureState(v).projector() for pi, v in zip(p, TRINE))
    assert np.abs(avg - np.eye(2) / 2).max() < 2e-3


def test_simplex_chi_single_state():
    value, p = simplex_enumerate_chi(identity_channel(2), [PureState([1, 0])], 1e-2)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert p[0] == pytest.approx(1.0)


def test_simplex_chi_orthogonal_pair():
    value, p = simplex_enumerate_chi(
        identity_channel(2), [PureState([1, 0]), PureState([0, 1])], 1e-3
    )
    assert value == pytest.approx(1.0, abs=1e-9)
    assert np.abs(np.asarray(p) - 0.5).max() < 1e-9


def test_simplex_chi_four_states():
    states = [PureState([1, 0]), PureState([0, 1]),
              PureState([np.sqrt(0.5), np.sqrt(0.5)]),
              PureState([np.sqrt(0.5), -np.sqrt(0.5)])]
    value, p = simplex_enumerate_chi(identity_channel(2), states, 5e-3)
    assert value == pytest.approx(1.0, abs=1e-4)


def test_simplex_chi_too_many_states():
    states = [PureState(np.eye(2)[0])] * 5
    with pytest.raises(DimensionError):
        simplex_enumerate_chi(identity_channel(2), states, 1e-2)


def test_oracle_values_are_lower_bounds():
    # engines must sit at or above oracle values (minus grid slack)
    from qchancap.c11 import optimize_measurement
    from qchancap.core import channel_ensemble

    theta = np.pi / 4
    ens = Ensemble([(0.5, PureState([1, 0])), (0.5, PureState([np.cos(theta), np.sin(theta)]))])
    out = channel_ensemble(identity_channel(2), ens)
    _, engine, _ = optimize_measurement(out)
    oracle = grid_accessible_info_2d(ens, 2e-3)
    assert engine >= oracle - 1e-5
