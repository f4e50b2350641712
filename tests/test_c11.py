"""Tests for the C_{1,1} engine."""

import importlib

import numpy as np
import pytest

from qchancap.core import (
    DensityMatrix,
    Ensemble,
    HermitianMatrix,
    Povm,
    PureState,
    binary_entropy,
    channel_apply_mat,
    channel_ensemble,
    identity_channel,
    random_channel,
    random_density,
    tensor,
    coords_to_mat,
)
from qchancap.c11 import (
    ALT_TOL,
    ZERO_OUTCOME,
    C11Options,
    c11,
    induced_classical_channel,
    info_coefficient,
    information_bound,
    measurement_lp,
    measurement_pricing,
    optimize_measurement,
    stationarity_dual,
    _complete_povm,
    _ensemble_arrays,
    _measurement_objective,
    _seed_directions,
)
from qchancap.info import accessible_information_given, holevo_chi, mutual_information, JointDistribution
from qchancap.lp import LpError, column_generation, solve_lp

from helpers import erasure, random_rank_one_povm

c11_module = importlib.import_module("qchancap.c11")  # the package exports c11() by that name

TRINE = [
    np.array([1.0, 0.0]),
    np.array([-0.5, np.sqrt(3) / 2]),
    np.array([-0.5, -np.sqrt(3) / 2]),
]


def trine_signals():
    return [PureState(v) for v in TRINE]


def trine_output_ensemble():
    return channel_ensemble(identity_channel(2), Ensemble([(1 / 3, s) for s in trine_signals()]))


def two_state_output(theta):
    ens = Ensemble([(0.5, PureState([1, 0])), (0.5, PureState([np.cos(theta), np.sin(theta)]))])
    return channel_ensemble(identity_channel(2), ens)


def symmetric_basis(theta):
    a, b = theta / 2 + np.pi / 4, theta / 2 - np.pi / 4
    return [PureState([np.cos(a), np.sin(a)]), PureState([np.cos(b), np.sin(b)])]


def anti_trine():
    return [PureState([-v[1], v[0]]) for v in TRINE]


# --- measurement LP -----------------------------------------------------------

def test_measurement_lp_orthonormal_only():
    out = two_state_output(np.pi / 3)
    basis = [PureState([1, 0]), PureState([0, 1])]
    sol = solve_lp(measurement_lp(out, basis))
    assert sol.status == "optimal"
    assert np.abs(sol.x - 1.0).max() < 1e-9
    projective = Povm([(1.0, w) for w in basis])
    assert sol.objective == pytest.approx(
        accessible_information_given(out, projective), abs=1e-10
    )


def test_measurement_lp_two_state_symmetric_basis():
    theta = np.pi / 3
    out = two_state_output(theta)
    sol = solve_lp(measurement_lp(out, symmetric_basis(theta)))
    assert sol.objective == pytest.approx(
        1 - binary_entropy(0.5 - np.sin(theta) / 2), abs=1e-10
    )


def test_measurement_lp_trine_selects_anti_trine():
    out = trine_output_ensemble()
    dirs = anti_trine() + [PureState([1, 0]), PureState([0, 1])]
    sol = solve_lp(measurement_lp(out, dirs))
    assert sol.objective == pytest.approx(np.log2(3) - 1, abs=1e-9)
    assert np.abs(sol.x[:3] - 2.0 / 3.0).max() < 1e-8
    assert np.abs(sol.x[3:]).max() < 1e-9


# --- pricing --------------------------------------------------------------------

def test_measurement_pricing_gradient_matches_fd():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(k))
        mats = [random_density(rng, d).mat for _ in range(k)]
        ens = Ensemble(list(zip(probs, [DensityMatrix(m) for m in mats])))
        p, m, avg = _ensemble_arrays(ens)
        lam = random_density(rng, d).mat * rng.normal()
        fun_grad = _measurement_objective(p, m, avg, lam)
        x = rng.normal(size=2 * d)
        x /= np.linalg.norm(x)

        def f_of(xx):
            r = np.linalg.norm(xx)
            v = (xx[:d] + 1j * xx[d:]) / r
            return fun_grad(v[None])[0][0]

        v = x[:d] + 1j * x[d:]
        g = fun_grad(v[None])[1][0]
        gp = g - v * float(np.vdot(v, g).real)
        analytic = np.concatenate([gp.real, gp.imag])
        h = 1e-5
        fd = np.empty_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd[i] = (f_of(x + e) - f_of(x - e)) / (2 * h)
        assert np.linalg.norm(fd - analytic) / max(1.0, np.linalg.norm(fd)) < 1e-5


def test_pricing_optimal_trine_dual_is_clean():
    out = trine_output_ensemble()
    sol = solve_lp(measurement_lp(out, anti_trine() + [PureState([1, 0]), PureState([0, 1])]))
    lam = HermitianMatrix(coords_to_mat(sol.duals, 2))
    outcome = measurement_pricing(out, lam, starts=12, rng=np.random.default_rng(1))
    assert outcome.columns == []


def test_pricing_large_identity_dual_finds_nothing():
    out = trine_output_ensemble()
    lam = HermitianMatrix(10.0 * np.eye(2))
    assert measurement_pricing(out, lam, starts=6, rng=np.random.default_rng(2)).columns == []


def test_pricing_zero_dual_finds_violations():
    out = trine_output_ensemble()
    lam = HermitianMatrix(np.zeros((2, 2)))
    outcome = measurement_pricing(out, lam, starts=6, rng=np.random.default_rng(3))
    assert len(outcome.columns) >= 1
    assert outcome.best_violation > 1e-3


# --- optimize_measurement --------------------------------------------------------

def test_optimize_measurement_two_state_grid():
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        out = two_state_output(theta)
        povm, value, _ = optimize_measurement(out)
        expected = 1 - binary_entropy(0.5 - np.sin(theta) / 2)
        assert value == pytest.approx(expected, abs=1e-4)


def test_optimize_measurement_trine():
    povm, value, _ = optimize_measurement(trine_output_ensemble())
    assert value == pytest.approx(np.log2(3) - 1, abs=1e-4)


def test_optimize_measurement_two_copy_trine():
    states = [tensor(PureState(v), PureState(v)) for v in TRINE]
    out = channel_ensemble(identity_channel(4), Ensemble([(1 / 3, s) for s in states]))
    povm, value, _ = optimize_measurement(out)
    assert value == pytest.approx(1.369, abs=2e-3)
    # strictly better than two independent single-copy uses
    assert value > 2 * 0.6454 + 0.07


def test_optimize_measurement_povm_complete():
    rng = np.random.default_rng(4)
    for _ in range(5):
        k = int(rng.integers(2, 5))
        ens = Ensemble(list(zip(rng.dirichlet(np.ones(k)),
                                [random_density(rng, 2) for _ in range(k)])))
        povm, value, _ = optimize_measurement(ens, rng=rng)
        total = sum(q * w.projector() for q, w in zip(povm.weights, povm.directions))
        assert np.abs(total - np.eye(2)).max() < 1e-9
        assert value <= holevo_chi(ens) + 1e-9


# --- the stopping certificate -----------------------------------------------------

def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianMatrix((g + g.conj().T) / 2)


@pytest.mark.parametrize("d", [2, 3])
def test_information_bound_holds_for_random_povms(d):
    # Tr lam + d max(0, max_w c(w) - w^dag lam w) bounds every complete
    # rank-one POVM's information, whatever the Hermitian lam
    rng = np.random.default_rng(30 + d)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        ens = Ensemble(list(zip(rng.dirichlet(np.ones(k)), [random_density(rng, d) for _ in range(k)])))
        lam = random_hermitian(rng, d)
        outcome = measurement_pricing(ens, lam, starts=16, rng=rng)
        bound = information_bound(lam, outcome.best_violation)
        assert bound == pytest.approx(
            np.trace(lam.mat).real + d * max(0.0, outcome.best_violation), abs=1e-12
        )
        for _ in range(5):
            povm = random_rank_one_povm(rng, d, int(rng.integers(d, 2 * d + 2)))
            assert accessible_information_given(ens, povm) <= bound + 1e-12


def test_stationarity_dual_closes_two_state_gap():
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        out = two_state_output(theta)
        basis = symmetric_basis(theta)
        optimum = 1 - binary_entropy(0.5 - np.sin(theta) / 2)
        lam = stationarity_dual(out, [1.0, 1.0], basis)
        p, m, avg = _ensemble_arrays(out)
        for w in basis:  # Euler: w^dag lam w = c(w) on the support
            assert np.vdot(w.vec, lam.mat @ w.vec).real == pytest.approx(
                info_coefficient(p, m, avg, w.vec), abs=1e-12
            )
        outcome = measurement_pricing(out, lam, starts=8, rng=np.random.default_rng(0))
        bound = information_bound(lam, outcome.best_violation)
        assert bound >= optimum - 1e-12
        assert bound - optimum <= 1e-9


class CountingPricing:
    """Counts pricing searches (measurement_pricing_task calls), and the
    stationarity duals formed."""

    def __init__(self, monkeypatch):
        import sys

        module = sys.modules["qchancap.c11"]
        self.pricing_calls = 0
        self.stationarity_calls = 0
        real_pricing, real_dual = module.measurement_pricing_task, module.stationarity_dual

        def pricing(*args, **kwargs):
            self.pricing_calls += 1
            return real_pricing(*args, **kwargs)

        def dual(*args, **kwargs):
            self.stationarity_calls += 1
            return real_dual(*args, **kwargs)

        monkeypatch.setattr(module, "measurement_pricing_task", pricing)
        monkeypatch.setattr(module, "stationarity_dual", dual)


def test_fig1_rows_certify_in_two_pricing_calls(monkeypatch):
    # the rows run in lockstep, so a row's pricing calls are those made while
    # its own task advances
    import qchancap.cli as cli_module

    counter = CountingPricing(monkeypatch)
    per_row = []
    real_task = cli_module.optimize_measurement_task

    def tracked(task, row):
        answer = None
        while True:
            before = counter.pricing_calls
            try:
                request = task.send(answer)
            except StopIteration as stop:
                row[0] += counter.pricing_calls - before
                row[1] = stop.value[2]
                return stop.value
            row[0] += counter.pricing_calls - before
            answer = yield request

    def optimize(*args, **kwargs):
        per_row.append([0, None])
        return tracked(real_task(*args, **kwargs), per_row[-1])

    monkeypatch.setattr(cli_module, "optimize_measurement_task", optimize)
    rows = cli_module.fig1_rows(64)
    assert len(per_row) == 64
    for (theta, i_acc, _), (calls, status) in zip(rows, per_row):
        assert calls <= 2 and status == "converged"
        assert i_acc == pytest.approx(1 - binary_entropy(0.5 - np.sin(theta) / 2), abs=1e-4)


def test_two_copy_trine_certifies_in_two_pricing_calls(monkeypatch):
    counter = CountingPricing(monkeypatch)
    states = [tensor(PureState(v), PureState(v)) for v in TRINE]
    out = channel_ensemble(identity_channel(4), Ensemble([(1 / 3, s) for s in states]))
    _, value, status = optimize_measurement(out)
    assert counter.pricing_calls <= 2 and status == "converged"
    assert value == pytest.approx(1.369, abs=2e-3)


def _lp_dual_only_value(out, opts, rng):
    """Reference loop: column generation priced at the LP dual alone."""
    master = measurement_lp(out, _seed_directions(out))

    def pricing(sol):
        lam = HermitianMatrix(coords_to_mat(sol.duals, out.dim))
        return measurement_pricing(out, lam, opts.starts, rng, tol=opts.pricing_tol)

    sol, _, converged = column_generation(
        master, pricing, tol=opts.pricing_tol, max_rounds=opts.measurement_rounds
    )
    assert converged
    return sol.objective


def test_lp_dual_fallback_converges_to_reference(monkeypatch):
    opts = C11Options()
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        ens = Ensemble(list(zip(rng.dirichlet(np.ones(3)), [random_density(rng, 2) for _ in range(3)])))
        reference = _lp_dual_only_value(ens, opts, np.random.default_rng(seed))
        with monkeypatch.context() as patch:
            counter = CountingPricing(patch)
            _, value, status = optimize_measurement(ens, opts, np.random.default_rng(seed))
        assert status == "converged"
        # some round priced at the LP dual
        assert counter.pricing_calls > counter.stationarity_calls
        assert abs(value - reference) <= ens.dim * opts.pricing_tol


def test_optimize_measurement_round_limit_status():
    povm, value, status = optimize_measurement(trine_output_ensemble(), C11Options(measurement_rounds=0))
    assert status == "round-limit"
    assert value < np.log2(3) - 1 - 0.1  # the seed master's square-root measurement


def _near_complete_sets():
    """(weights, directions, dim): weights above 1e-10 whose weighted
    projectors miss the identity by about 1e-9 per entry, in both directions,
    and a set that leaves one basis direction out."""
    trine = trine_signals()
    u, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3))
                        + 1j * np.random.default_rng(5).normal(size=(3, 3)))
    basis = [PureState(u[:, k]) for k in range(3)]
    return [
        (np.full(3, 2 / 3) * (1 - 1e-9), trine, 2),
        (np.full(3, 2 / 3) * (1 + 1e-9), trine, 2),
        (np.array([1 + 1e-9, 1 - 1e-9, 1 + 2e-9]), basis, 3),
        (np.array([1.0, 1.0, 1e-10 * 1.5]), basis, 3),
        (np.ones(2), [PureState(e) for e in np.eye(3)[:2]], 3),
    ]


@pytest.mark.parametrize("case", range(5))
def test_complete_povm_keeps_the_support_and_adds_only_the_remainder(case):
    weights, directions, d = _near_complete_sets()[case]
    povm = _complete_povm(weights, directions, d)
    assert isinstance(povm, Povm)
    total = sum(q * w.projector() for q, w in zip(povm.weights, povm.directions))
    assert np.abs(total - np.eye(d)).max() <= 1e-12
    assert povm.weights.min() >= 0.0
    # the given directions, in order, each weight scaled by one factor <= 1
    n = len(directions)
    assert all(a is b for a, b in zip(povm.directions[:n], directions))
    scale = povm.weights[:n] / weights
    assert scale.max() <= 1.0
    assert np.ptp(scale) <= 1e-15
    # one extra outcome per remainder eigenvalue above 1e-12
    given = sum(q * w.projector() for q, w in zip(weights, directions))
    remainder = np.linalg.eigvalsh(np.eye(d) - scale[0] * given)
    assert len(povm.weights) - n == int((remainder > 1e-12).sum())
    assert povm.weights[n:].min(initial=np.inf) > 1e-12


# --- induced classical channel ----------------------------------------------------

def test_induced_channel_projective_identity():
    basis = Povm.projective([np.array([1, 0]), np.array([0, 1])])
    ch = induced_classical_channel(identity_channel(2), basis)
    assert ch.diagonal_output
    out0 = ch.kraus[0] @ np.array([1, 0])
    rho = channel_apply_mat(ch, np.diag([1.0, 0.0]))
    assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-12


def test_induced_channel_trine_distribution():
    povm = Povm([(2 / 3, w) for w in anti_trine()])
    ch = induced_classical_channel(identity_channel(2), povm)
    out = channel_apply_mat(ch, PureState(TRINE[0]).projector())
    assert np.abs(np.diag(out).real - np.array([0.0, 0.5, 0.5])).max() < 1e-12


def test_induced_channel_chi_equals_mutual_information():
    # commuting outputs: chi of the induced diagonal ensemble equals I(X;Y)
    rng = np.random.default_rng(5)
    ch = random_channel(rng, 2, 2, 2)
    povm = Povm.projective(np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0].T)
    induced = induced_classical_channel(ch, povm)
    states = [PureState(np.array([1, 0])), PureState(np.array([0, 1]))]
    probs = np.array([0.3, 0.7])
    out_ens = channel_ensemble(induced, Ensemble(list(zip(probs, states))))
    joint = np.stack([p * np.diag(m).real for p, m in zip(probs, out_ens.density_mats())])
    assert holevo_chi(out_ens) == pytest.approx(
        mutual_information(JointDistribution(np.clip(joint, 0, None) / joint.sum())), abs=1e-9
    )


# --- the alternation -------------------------------------------------------------

@pytest.fixture(scope="module")
def trine_run():
    return c11(identity_channel(2), restricted_signals=trine_signals(), restarts=8, seed=7)


def test_c11_two_state_channel():
    theta = np.pi / 3
    signals = [PureState([1, 0]), PureState([np.cos(theta), np.sin(theta)])]
    res = c11(identity_channel(2), restricted_signals=signals, restarts=3, seed=2)
    assert res.value == pytest.approx(1 - binary_entropy(0.5 - np.sin(theta) / 2), abs=5e-4)
    # the optimum uses both states with equal probability
    assert np.abs(np.sort(res.ensemble.probs) - 0.5).max() < 1e-3


def test_c11_trine_value(trine_run):
    assert trine_run.value == pytest.approx(1 - binary_entropy(0.5 - np.sqrt(3) / 4), abs=5e-4)


def test_c11_trine_local_optima(trine_run):
    rounded = {round(v, 3) for v in trine_run.restart_values}
    # at least two of the documented stable points show up across restarts
    assert len(rounded) >= 2
    assert any(abs(v - 0.645) < 2e-3 for v in rounded)
    assert any(abs(v - 0.585) < 2e-3 for v in rounded)


def test_c11_result_invariants(trine_run):
    res = trine_run
    out_ens = channel_ensemble(identity_channel(2), res.ensemble)
    assert res.value == pytest.approx(
        accessible_information_given(out_ens, res.povm), abs=1e-8
    )
    assert res.value <= holevo_chi(out_ens) + 1e-8
    total = sum(q * w.projector() for q, w in zip(res.povm.weights, res.povm.directions))
    assert np.abs(total - np.eye(2)).max() < 1e-9


def test_c11_holevo_bound_every_iterate(trine_run):
    for row in trine_run.trace:
        assert row["value"] <= row["chi"] + 1e-8


def test_c11_alternation_monotone(trine_run):
    by_restart = {}
    for row in trine_run.trace:
        by_restart.setdefault(row["restart"], []).append(row["value"])
    for vals in by_restart.values():
        running = np.maximum.accumulate(vals)
        assert all(b >= a - 1e-9 for a, b in zip(running, running[1:]))


def test_c11_trace_is_ordered_by_restart_then_alternation(trine_run):
    keys = [(row["restart"], row["alternation"]) for row in trine_run.trace]
    assert keys == sorted(keys)
    assert [row["step"] for row in trine_run.trace] == ["measurement", "ensemble"] * (len(keys) // 2)
    for r in range(8):
        alternations = [alt for restart, alt in keys[::2] if restart == r]
        assert alternations == list(range(len(alternations))) and alternations


def _overlap_matched_weights(ens, signals):
    """The rule that once recovered the restricted-signal weights from an
    ensemble: each member's weight goes to the first signal it equals up to
    phase (|<s|sigma>| within 1e-9 of 1), uniform if none matches."""
    weights = np.zeros(len(signals))
    for p, s in ens.items():
        for i, sig in enumerate(signals):
            if abs(abs(np.vdot(s.vec, sig.vec)) - 1.0) < 1e-9:
                weights[i] += p
                break
    if weights.sum() <= 0.0:
        weights[:] = 1.0
    return tuple(weights / weights.sum())


def test_c11_ensemble_steps_start_from_the_previous_steps_weights(monkeypatch):
    # each ensemble step starts from the weights the overlap matching would
    # recover from the ensemble before it, bit for bit
    real_task, real_initial, real_c1inf = (
        c11_module._restart_task, c11_module._initial_ensemble, c11_module.c1inf)
    current = [None]  # the restart lockstep is advancing
    initial, steps = {}, []

    def task(ch, signals, r, rng, opts):
        inner = real_task(ch, signals, r, rng, opts)
        answer = None
        while True:
            current[0] = r
            try:
                request = inner.send(answer)
            except StopIteration as stop:
                return stop.value
            answer = yield request

    def initial_ensemble(ch, signals, r, rng):
        initial[r] = real_initial(ch, signals, r, rng)
        return initial[r]

    def c1inf(problem):
        res = real_c1inf(problem)
        steps.append((current[0], problem.options.initial_weights, res))
        return res

    monkeypatch.setattr(c11_module, "_restart_task", task)
    monkeypatch.setattr(c11_module, "_initial_ensemble", initial_ensemble)
    monkeypatch.setattr(c11_module, "c1inf", c1inf)
    signals = trine_signals()
    c11(identity_channel(2), restricted_signals=signals, restarts=8, seed=7)
    assert len(steps) == 44 and sorted(initial) == list(range(8))
    previous = dict(initial)
    dropped = 0
    for r, weights, res in steps:
        want = _overlap_matched_weights(previous[r], signals)
        assert np.array(weights).tobytes() == np.array(want).tobytes()
        # signal_weights lines up with the signals: the ensemble holds the
        # signals of nonzero weight, with those weights
        assert len(res.signal_weights) == len(signals)
        support = np.flatnonzero(res.signal_weights > 0.0)
        assert res.ensemble.probs.tobytes() == res.signal_weights[support].tobytes()
        assert all(np.array_equal(s.vec, signals[i].vec) for s, i in zip(res.ensemble.states, support))
        dropped += len(signals) - len(support)
        previous[r] = res.ensemble
    assert dropped  # some step drops a signal, so the zeros are exercised


def test_c11_measurement_rows_reuse_the_previous_ensembles_chi(trine_run):
    rows = trine_run.trace
    for before, row in zip(rows, rows[1:]):
        if row["step"] == "measurement" and row["alternation"] > 0:
            assert before["step"] == "ensemble" and before["restart"] == row["restart"]
            assert np.float64(row["chi"]).tobytes() == np.float64(before["chi"]).tobytes()


class CountingSearches:
    """Counts pricing searches per random stream (one stream per c11 restart
    or sweep row), the batched calls that answer them (the
    minimize_on_spheres calls not made by c1inf's own searches), and the
    calls of the measurement objective's kernel."""

    def __init__(self, monkeypatch):
        import sys

        c11_module, c1inf_module = sys.modules["qchancap.c11"], sys.modules["qchancap.c1inf"]
        optim_module = sys.modules["qchancap.optim"]
        self.per_stream = {}
        self.calls = 0
        self.solo_calls = 0
        self.kernel_calls = 0
        real_pricing = c11_module.measurement_pricing_task
        real_batch, real_solo = optim_module.minimize_on_spheres, c1inf_module.minimize_on_sphere
        real_kernel = c11_module._measurement_rows

        def pricing(out_ens, lam, starts, rng, *args, **kwargs):
            self.per_stream[id(rng)] = self.per_stream.get(id(rng), 0) + 1
            return real_pricing(out_ens, lam, starts, rng, *args, **kwargs)

        def batch(*args, **kwargs):
            self.calls += 1
            return real_batch(*args, **kwargs)

        def solo(*args, **kwargs):
            self.solo_calls += 1
            return real_solo(*args, **kwargs)

        def kernel(*args):
            self.kernel_calls += 1
            return real_kernel(*args)

        monkeypatch.setattr(c11_module, "measurement_pricing_task", pricing)
        monkeypatch.setattr(c11_module, "_measurement_rows", kernel)
        monkeypatch.setattr(optim_module, "minimize_on_spheres", batch)
        monkeypatch.setattr(c1inf_module, "minimize_on_sphere", solo)

    @property
    def batched(self):
        return self.calls - self.solo_calls


def test_c11_restarts_share_one_batched_search_per_round(monkeypatch):
    counter = CountingSearches(monkeypatch)
    c11(identity_channel(2), restricted_signals=trine_signals(), restarts=8, seed=7)
    assert len(counter.per_stream) == 8
    # 208 searches one at a time before the restarts ran in lockstep
    assert sum(counter.per_stream.values()) >= 4 * counter.batched
    assert counter.batched == max(counter.per_stream.values()) <= 45
    # 5,534 when each search's objective was called on its own rows alone
    assert counter.kernel_calls <= 2118


def test_fig1_rows_share_one_batched_search_per_round(monkeypatch):
    import qchancap.cli as cli_module

    counter = CountingSearches(monkeypatch)
    cli_module.fig1_rows(64)
    assert len(counter.per_stream) == 64
    assert counter.batched == max(counter.per_stream.values())
    # 2,150 when each search's objective was called on its own rows alone
    assert counter.kernel_calls <= 191


def test_c11_identity_unrestricted():
    res = c11(identity_channel(2), restarts=2, seed=1)
    assert res.value == pytest.approx(1.0, abs=1e-6)


# --- batched measurement objective -------------------------------------------

def _measurement_objective_loop(probs, mats, avg, lam):
    """Reference: the objective one vector at a time, one state at a time."""

    def fun_grad(v):
        b = float(np.vdot(v, avg @ v).real)
        if b < ZERO_OUTCOME:
            return float(np.vdot(v, lam @ v).real), 2.0 * (lam @ v)
        value = 0.0
        grad = np.zeros_like(v)
        for p, m in zip(probs, mats):
            a = float(np.vdot(v, m @ v).real)
            if p > 0.0 and a > ZERO_OUTCOME:
                ratio = np.log2(a / b)
                value += p * a * ratio
                grad = grad + p * ratio * (m @ v)
        return -(value - float(np.vdot(v, lam @ v).real)), -2.0 * (grad - lam @ v)

    return fun_grad


def test_measurement_objective_batch_matches_single_rows():
    rng = np.random.default_rng(21)
    e = np.eye(3)
    for trial in range(20):
        # two states on span{e0, e1}, one of them pure; on odd trials the
        # full-rank third state gets zero weight, and then e2 and its
        # neighbours make outcomes that never occur
        mats = [np.outer(e[0], e[0]), random_density(rng, 2).mat, random_density(rng, 3).mat]
        mats[1] = np.pad(mats[1], ((0, 1), (0, 1)))
        probs = rng.dirichlet(np.ones(3))
        probs[2] = 0.0 if trial % 2 else probs[2]
        avg = sum(p * m for p, m in zip(probs, mats))
        lam = random_density(rng, 3).mat * rng.normal()
        batch = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        batch = np.vstack([batch, e[2], e[2] + 1e-9 * e[0], e[0], e[1]])
        batch /= np.linalg.norm(batch, axis=1)[:, None]
        fun_grad = _measurement_objective(probs, mats, avg, lam)
        reference = _measurement_objective_loop(probs, mats, avg, lam)
        values, grads = fun_grad(batch)
        assert values.shape == (batch.shape[0],) and grads.shape == batch.shape
        for v, f_row, g_row in zip(batch, values, grads):
            (f_one,), (g_one,) = fun_grad(v[None])  # a batch of one row
            f_ref, g_ref = reference(v)
            assert abs(f_row - f_one) <= 1e-12 and np.abs(g_row - g_one).max() <= 1e-12
            assert abs(f_row - f_ref) <= 1e-12 and np.abs(g_row - g_ref).max() <= 1e-12


# --- status ------------------------------------------------------------------

def test_c11_status_is_that_of_the_returned_restart(monkeypatch):
    # restart 0 converges within two alternations; the returned restart 2
    # still gains at its third and last one (the seed picks such a run: the
    # random streams decide it)
    alternations = 3
    monkeypatch.setattr(c11_module, "ALTERNATIONS", alternations)
    res = c11(identity_channel(2), restricted_signals=trine_signals(), restarts=3, seed=4)
    running = {}
    for row in res.trace:
        vals = running.setdefault(row["restart"], {})
        vals[row["alternation"]] = max(vals.get(row["alternation"], -np.inf), row["value"])
    best = int(np.argmax(res.restart_values))
    assert len(running[0]) < alternations
    gains = np.diff(np.maximum.accumulate([running[best][a] for a in range(alternations)]))
    assert len(running[best]) == alternations and gains[-1] >= ALT_TOL
    assert res.status == "round-limit"


@pytest.mark.parametrize("d", [
    pytest.param(2, marks=pytest.mark.xfail(
        strict=True, raises=LpError,
        reason="master objective decreased: the per-solve row presolve (ROADMAP item 3)")),
    3,
])
def test_c11_meets_the_erasure_closed_form(d):
    # (1 - eps) log2 d (Bennett, DiVincenzo and Smolin, 1997)
    res = c11(erasure(0.3, d), restarts=2, seed=0)
    assert res.status == "converged"
    assert res.value == pytest.approx(0.7 * np.log2(d), abs=1e-12)
