"""Tests for the brute-force grid oracles."""

import itertools

import numpy as np
import pytest
from helpers import sweep_ball

from qchancap import oracles
from qchancap.channels import amplitude_damping, dephasing, depolarizing
from qchancap.core import (
    DensityMatrix,
    DimensionError,
    Ensemble,
    PureState,
    QuantumChannel,
    binary_entropy,
    entropy_of_spectrum,
    environment_output,
    identity_channel,
    random_channel,
    random_density,
)
from qchancap.oracles import (
    _branch_and_bound,
    _entropy_batch,
    _Projective,
    _Trine,
    bloch_vector,
    check_grid_step,
    grid_accessible_info_2d,
    grid_density_objective,
    simplex_enumerate_chi,
)

TRINE = [
    np.array([1.0, 0.0]),
    np.array([-0.5, np.sqrt(3) / 2]),
    np.array([-0.5, -np.sqrt(3) / 2]),
]


def test_grid_spec_validation():
    check_grid_step(0.01)
    check_grid_step(1.0, simplex=True)
    check_grid_step(3.0)
    for bad in (0.0, -0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            check_grid_step(bad, simplex=True)
    with pytest.raises(ValueError):
        check_grid_step(1.5, simplex=True)


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


def test_oracles_reject_steps_below_1e_6():
    # a finer ball lattice's point keys, up to (2 / step + 1)^3, overflow
    # int64; at 1e-300 numpy cannot even size an axis
    check_grid_step(1e-6)
    check_grid_step(1e-6, simplex=True)
    states = [PureState(v) for v in TRINE]
    with pytest.raises(ValueError, match="at least 1e-6"):
        grid_density_objective(identity_channel(2), "qmi", 1e-7)
    with pytest.raises(ValueError, match="at least 1e-6"):
        simplex_enumerate_chi(identity_channel(2), states, 1e-7)
    for search in (
        lambda step: grid_accessible_info_2d(Ensemble([(1 / 3, s) for s in states]), step),
        lambda step: grid_density_objective(identity_channel(2), "qmi", step),
        lambda step: grid_density_objective(identity_channel(2), "coherent", step),
        lambda step: simplex_enumerate_chi(identity_channel(2), states, step),
    ):
        with pytest.raises(ValueError, match="at least 1e-6"):
            search(1e-300)


def test_simplex_rejects_step_above_one():
    with pytest.raises(ValueError, match="step"):
        simplex_enumerate_chi(identity_channel(2), [PureState(v) for v in TRINE], 3.0)
    value, p = simplex_enumerate_chi(identity_channel(2), [PureState(v) for v in TRINE], 1.0)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert sorted(p) == [0.0, 0.0, 1.0]  # step 1 leaves only the vertices


# --- the array kernels against plain references ---------------------------------

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
        assert abs(_branch_and_bound(_Projective(probs, blochs, 0.05)) - _projective_loop(probs, blochs, 0.05)) <= 1e-12
        assert abs(_branch_and_bound(_Trine(probs, blochs, 0.05)) - _trine_loop(probs, blochs, 0.05)) <= 1e-12


# --- the angle-grid search against every grid point -------------------------------

ANGLE_FAMILIES = [_Projective, _Trine]


def _signals(ens):
    return np.asarray(ens.probs), np.stack([bloch_vector(m) for m in ens.density_mats()])


def _tilted_trine(angle):
    """The trine turned by `angle` about the x axis, off the trine grid's planes."""
    u = np.array([[np.cos(angle / 2), -1j * np.sin(angle / 2)], [-1j * np.sin(angle / 2), np.cos(angle / 2)]])
    return Ensemble([(1 / 3, PureState(u @ v)) for v in TRINE])


def _angle_inputs():
    """Random mixed ensembles (k = 1 to 4) and degenerate ones."""
    rng = np.random.default_rng(31)
    random = [Ensemble(list(zip(rng.dirichlet(np.ones(k)), [random_density(rng, 2) for _ in range(k)])))
              for k in (1, 2, 3, 4, 2, 3)]
    # Bloch vectors +-1e-8 z: every value is roundoff, which only the margin covers
    tiny = [DensityMatrix((np.eye(2) + 1e-8 * s * oracles.PAULIS[2]) / 2) for s in (1, -1)]
    degenerate = [
        Ensemble([(1.0, PureState([0.6, 0.8j]))]),  # one state: I = 0 everywhere
        Ensemble([(0.3, PureState([0.6, 0.8])), (0.7, PureState([0.6, 0.8]))]),  # identical states
        Ensemble([(0.5, PureState([1, 0])), (0.5, PureState([0, 1]))]),  # orthogonal pair: I = 1
        Ensemble([(0.4, DensityMatrix(np.eye(2) / 2)), (0.6, PureState([np.cos(0.4), np.sin(0.4)]))]),
        Ensemble([(0.5, tiny[0]), (0.5, tiny[1])]),  # nearly maximally mixed
    ]
    return random + degenerate


def _every_point_max(family):
    """Reference: the family's point kernel at every grid index, one grid row per batch."""
    rows, cols = (np.arange(axis.size) for axis in family.axes)
    return max(float(family.values(np.full(cols.size, r), cols).max()) for r in rows)


@pytest.mark.parametrize("step", [3.0, 1.0, 0.3, 0.05, 0.02])
def test_angle_search_matches_every_grid_point(step):
    # steps 3 and 1 leave grids of one or a few points, polar angles past pi / 2
    # a search started from the other family's best returns the maximum over
    # both, whichever family goes first
    for ens in _angle_inputs():
        probs, blochs = _signals(ens)
        projective, trine = grids = [family(probs, blochs, step) for family in ANGLE_FAMILIES]
        maxima = [_every_point_max(f) for f in grids]
        for f, top in zip(grids, maxima):
            assert _branch_and_bound(f) == top
        assert grid_accessible_info_2d(ens, step) == max(0.0, *maxima)
        assert (_branch_and_bound(projective, _branch_and_bound(trine))
                == _branch_and_bound(trine, _branch_and_bound(projective)))


def test_angle_search_matches_every_grid_point_on_tilted_trines():
    for angle in (0.7, 2.3):
        probs, blochs = _signals(_tilted_trine(angle))
        for family in ANGLE_FAMILIES:
            f = family(probs, blochs, 2e-3)
            assert _branch_and_bound(f) == _every_point_max(f)


def test_grid_accinfo_degenerate_values():
    one, same, orthogonal, mixed_member, flat = _angle_inputs()[-5:]
    assert grid_accessible_info_2d(orthogonal, 0.05) == 1.0  # measured along z
    for ens in (one, same, flat):
        assert grid_accessible_info_2d(ens, 0.05) == pytest.approx(0.0, abs=1e-12)
    # at most the Holevo bound S(0.4 I/2 + 0.6 psi) - 0.4 S(I/2) = h2(0.8) - 0.4
    assert 0 < grid_accessible_info_2d(mixed_member, 0.05) <= binary_entropy(0.8) - 0.4


@pytest.mark.parametrize("family", ANGLE_FAMILIES)
def test_angle_values_do_not_depend_on_the_batch(family):
    # the search evaluates other batches than a sweep, down to single points,
    # and returns the grid maximum only if every point gets the same bits in
    # every batch
    rng = np.random.default_rng(17)
    for ens in _angle_inputs()[:4]:
        f = family(*_signals(ens), 0.05)
        i, j = np.divmod(np.arange(f.axes[0].size * f.axes[1].size), f.axes[1].size)
        full = f.values(i, j)
        for size in range(1, 101):
            at = rng.choice(i.size, size, replace=False)
            assert f.values(i[at], j[at]).tobytes() == full[at].tobytes()


@pytest.mark.parametrize("family", ANGLE_FAMILIES)
def test_angle_bounds_hold_on_every_cell(family):
    # a cell's bound is at least every value in it, with no margin: the 1e-12
    # widening covers the roundoff, and wide cells reach the extremes of cos
    rng = np.random.default_rng(23)
    for ens in _angle_inputs()[:4]:
        f = family(*_signals(ens), 0.05)
        shape = np.array([f.axes[0].size, f.axes[1].size])
        lo = np.vstack([[0, 0], rng.integers(0, shape, size=(400, 2))])
        hi = np.minimum(lo + rng.choice([0, 1, 3, 10, 40, 1000], size=lo.shape), shape - 1)
        bounds = f.bounds(lo, hi)
        for c in range(lo.shape[0]):
            i, j = np.mgrid[lo[c, 0]:hi[c, 0] + 1, lo[c, 1]:hi[c, 1] + 1]
            assert bounds[c] >= f.values(i.ravel(), j.ravel()).max()


def test_angle_search_work_on_a_tilted_trine(monkeypatch):
    # a tilted trine as in the benchmark's accinfo op: the search evaluates
    # 1,072 of the two grids' 4.1M points (2.47M projective, 1.65M trine);
    # like criterion 6's bound, this one may only go down
    evaluated = []
    values = oracles._AngleFamily.values
    monkeypatch.setattr(oracles._AngleFamily, "values",
                        lambda self, i, j: evaluated.append(i.size) or values(self, i, j))
    value = grid_accessible_info_2d(_tilted_trine(0.7), 2e-3)
    assert value.hex() == "0x1.2b7fde098a434p-1"  # as evaluating every point gives
    assert sum(evaluated) <= 1100


def test_search_results_do_not_depend_on_the_live_box_cap(monkeypatch):
    # a cap of 3 live boxes makes _descend split nearly every batch and search
    # the parts one after another, which prunes differently but must find the
    # same maximum, and for the ball the same first maximal point
    ch = depolarizing(0.3)
    value, rho = grid_density_objective(ch, "qmi", 0.05)
    coherent, coherent_rho = grid_density_objective(amplitude_damping(0.3), "coherent", 0.05)
    accinfo = grid_accessible_info_2d(_tilted_trine(0.7), 0.01)
    ch4, states4 = _simplex_inputs(4)[0]
    chi, p = simplex_enumerate_chi(ch4, states4, 0.02)
    calls = []
    descend = oracles._descend
    monkeypatch.setattr(oracles, "_descend", lambda *args: calls.append(1) or descend(*args))
    monkeypatch.setattr(oracles, "_LIVE_CELLS", 3)
    capped, capped_rho = grid_density_objective(ch, "qmi", 0.05)
    assert capped == value and np.array_equal(capped_rho.mat, rho.mat)
    split = len(calls)
    assert split > 1
    capped, capped_rho = grid_density_objective(amplitude_damping(0.3), "coherent", 0.05)
    assert capped == coherent and np.array_equal(capped_rho.mat, coherent_rho.mat)
    assert len(calls) > split + 1
    split = len(calls)
    assert grid_accessible_info_2d(_tilted_trine(0.7), 0.01) == accinfo
    assert len(calls) > split + 1
    split = len(calls)
    capped, capped_p = simplex_enumerate_chi(ch4, states4, 0.02)
    assert capped == chi and np.array_equal(capped_p, p)
    assert len(calls) > split + 1


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


def test_grid_density_unknown_objective():
    for objective in ("capacity", "fixed-dual"):
        with pytest.raises(ValueError, match="unknown objective"):
            grid_density_objective(identity_channel(2), objective, 0.01)


# --- branch-and-bound against the exhaustive sweep --------------------------------

def _assert_same_as_sweep(ch, objective, step):
    value, rho = grid_density_objective(ch, objective, step)
    swept, swept_rho = oracles._density_result(*sweep_ball(oracles._ball_problem(ch, objective, step)))
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
    _, channels = _equivalence_channels()
    for ch in channels:
        _assert_same_as_sweep(ch, "qmi", step)


def test_branch_and_bound_matches_sweep_fine_depolarizing():
    rng = np.random.default_rng(11)
    unitary = random_channel(rng, 2, 2, 1).kraus[0]
    ch = QuantumChannel([a @ unitary for a in depolarizing(0.3).kraus])
    value, _ = _assert_same_as_sweep(ch, "qmi", 0.01)
    # the maximally mixed input is a lattice point: C_E = 2 - H(0.7, 0.1, 0.1, 0.1)
    assert value == pytest.approx(2 + 0.7 * np.log2(0.7) + 0.3 * np.log2(0.1), abs=1e-12)


def _replacement(sigma_eigs, unitary):
    """The channel sending every input to U diag(sigma_eigs) U^dag."""
    return QuantumChannel([np.sqrt(s) * np.outer(unitary[:, j], np.eye(2)[i])
                           for j, s in enumerate(sigma_eigs) for i in range(2)])


def test_branch_and_bound_degenerate_inputs():
    rng = np.random.default_rng(4)
    unitary = random_channel(rng, 2, 2, 1).kraus[0]
    replacement = _replacement([0.7, 0.3], unitary)
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


class _Flat(oracles._BallObjective):
    """A constant ball objective: value 0 and a zero gradient everywhere,
    every plane kept, and no excess over the planes' concave function."""

    objective = "qmi"

    def __init__(self, axis):
        self.axis = axis

    def values(self, n):
        return np.zeros(n.shape[0])

    def gradients(self, n):
        return np.zeros_like(n), np.ones(n.shape[0], dtype=bool)


@pytest.mark.parametrize("step", [0.05, 0.04, 0.3, 1.5])
def test_branch_and_bound_breaks_exact_ties_as_the_sweep(step):
    # every lattice point ties and no plane drops a cell, so only the tie-break
    # decides: the first point in (z, x, y) index order
    axis = np.arange(-1.0, 1.0 + step / 2, step)
    lattice = oracles._Lattice(_Flat(axis))
    value, n = oracles._branch_and_bound(lattice), lattice.point()
    swept, swept_n = sweep_ball(_Flat(axis))
    assert value == swept == 0.0
    assert np.array_equal(n, swept_n)
    if step == 0.05:  # the south pole is alone in the first slice
        assert np.abs(n - [0.0, 0.0, -1.0]).max() < 1e-12


def test_environment_affine_is_the_environment_output():
    rng = np.random.default_rng(13)
    for k in (1, 2, 3, 4):
        ch = random_channel(rng, 2, 2, k)
        w0, ws = oracles._environment_affine(ch)
        for _ in range(5):
            n = rng.normal(size=3)
            n /= max(1.0, np.linalg.norm(n))
            rho = 0.5 * (np.eye(2) + sum(c * p for c, p in zip(n, oracles.PAULIS)))
            want = environment_output(ch, rho)
            assert np.abs(w0 + np.tensordot(n, ws, axes=(0, 0)) - want).max() < 1e-14


@pytest.mark.parametrize("objective", ["qmi", "coherent"])
def test_ball_values_do_not_depend_on_the_batch(objective):
    # the branch-and-bound evaluates other batches than the sweep, down to
    # single points, and returns the sweep's maximum only if every point gets
    # the same bits in every batch
    rng, channels = _equivalence_channels()
    for ch in channels:
        f = oracles._ball_problem(ch, objective, 0.1)
        axis = f.axis
        n = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        n = n[(n**2).sum(axis=1) <= 1.0]
        full = f.values(n)
        for size in (1, 1, 1, 2, 3, 17, 256, n.shape[0]):
            rows = rng.choice(n.shape[0], size, replace=False)
            assert f.values(n[rows]).tobytes() == full[rows].tobytes()


@pytest.mark.parametrize("step", [1.5, 0.3, 0.13, 0.05])
def test_coherent_search_matches_every_lattice_point(step):
    # the planes bound qmi = I_c + S(rho), and a box's bound subtracts the
    # least input entropy on it: the same float and first maximal point as
    # evaluating every point, also where I_c is flat (amplitude damping 0.5,
    # I_c = 0 everywhere) or the output is pure (amplitude damping 1.0)
    rng, channels = _equivalence_channels()
    for ch in channels + [amplitude_damping(0.5), amplitude_damping(1.0), random_channel(rng, 2, 2, 1)]:
        _assert_same_as_sweep(ch, "coherent", step)


def test_coherent_search_work_on_the_benchmark_input(monkeypatch):
    # the benchmark's seed-1 round-0 coherent op, amplitude damping(0.3) with
    # its input turned about y: the search evaluates 10,242 of the ball's
    # 523,305 points at step 0.02; this bound may only go down
    evaluated = []
    values = oracles._BallObjective.values
    monkeypatch.setattr(oracles._BallObjective, "values",
                        lambda self, n: evaluated.append(n.shape[0]) or values(self, n))
    angle = 1.726599491653007
    turn = np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * oracles.PAULIS[1]
    ch = QuantumChannel([a @ turn for a in amplitude_damping(0.3).kraus])
    value, _ = grid_density_objective(ch, "coherent", 0.02)
    assert value.hex() == "0x1.4fd2418156bfap-2"  # as evaluating every point gives
    assert sum(evaluated) <= 11300


def test_ball_search_work_on_criterion_6(monkeypatch):
    # criterion 6's oracle evaluates 270 of the ball's 33.5M lattice points;
    # like the measurement-kernel bounds, this bound may only go down
    evaluated = []
    values = oracles._BallObjective.values
    monkeypatch.setattr(oracles._BallObjective, "values",
                        lambda self, n: evaluated.append(n.shape[0]) or values(self, n))
    value, _ = grid_density_objective(depolarizing(0.3), "qmi", 0.005)
    assert value.hex() == "0x1.49542d837e452p-1"
    assert sum(evaluated) <= 300


# --- the simplex search against every lattice point --------------------------------

def _simplex_inputs(k):
    """k signals: random channels and states, then identical states (chi is
    roundoff: pure outputs make no plane, mixed ones flat planes), an
    orthogonal pair (with random others for k > 2) and duplicated basis
    states (exact ties)."""
    rng = np.random.default_rng([41, k])

    def random_states(count):
        v = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
        return [PureState(row / np.linalg.norm(row)) for row in v]

    pair = [PureState([1, 0]), PureState([0, 1])]
    return [(random_channel(rng, 2, 2, 1 + i), random_states(k)) for i in range(3)] + [
        (identity_channel(2), [PureState([0.6, 0.8j])] * k),
        (depolarizing(0.3), [PureState([0.6, 0.8j])] * k),
        (identity_channel(2), pair + random_states(k - 2)),
        (identity_channel(2), [pair[i % 2] for i in range(k)]),
    ]


def _simplex_points(f):
    """Every lattice point's counts, in lexicographic order."""
    d = len(f.order)
    c = np.indices((f.n + 1,) * d).reshape(d, -1).T.astype(float)
    return c[c.sum(axis=1) <= f.n]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_simplex_search_matches_every_lattice_point(k):
    # the reference evaluates every point in one batch through the same kernel
    # and takes the first maximum in lexicographic order
    for ch, states in _simplex_inputs(k):
        for step in [1.0, 0.3, 0.05, 0.01] + [2e-3] * (k <= 3):
            f = oracles._ChiObjective(ch, states, step)
            c = _simplex_points(f)
            values = f.values(c)
            j = int(np.argmax(values))
            value, p = simplex_enumerate_chi(ch, states, step)
            assert value == values[j]
            assert np.array_equal(p, f.prior(c[j:j + 1])[0])


def test_simplex_values_do_not_depend_on_the_batch():
    # as for the ball and the angle grids: the search returns the maximum over
    # every point only if each point gets the same bits in every batch
    rng = np.random.default_rng(19)
    for k in (2, 3, 4):
        for ch, states in _simplex_inputs(k):
            f = oracles._ChiObjective(ch, states, 0.1)
            c = _simplex_points(f)
            full = f.values(c)
            for size in range(1, 10):
                order = rng.permutation(len(c))
                for at in np.array_split(order, -(-len(c) // size)):
                    assert f.values(c[at]).tobytes() == full[at].tobytes()


def test_simplex_search_work(monkeypatch):
    # three signals through dephasing(0.25) at step 2e-3: the search evaluates
    # 382 of the simplex's 125,751 points; this bound may only go down
    evaluated = []
    values = oracles._ChiObjective.values
    monkeypatch.setattr(oracles._ChiObjective, "values",
                        lambda self, c: evaluated.append(c.shape[0]) or values(self, c))
    signals = [PureState([1, 0]), PureState([0, 1]), PureState([np.sqrt(0.5), np.sqrt(0.5)])]
    value, _ = simplex_enumerate_chi(dephasing(0.25), signals, 2e-3)
    assert value.hex() == "0x1.fffffffffffffp-1"  # as evaluating every point gives
    assert sum(evaluated) <= 400


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
