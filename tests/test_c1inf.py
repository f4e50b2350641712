"""Tests for the C_{1,inf} engine."""

import importlib

import numpy as np
import pytest

from qchancap.channels import bit_flip, parse_channel
from qchancap.core import (
    ENTROPY_CLIP,
    LN2,
    Ensemble,
    Povm,
    PureState,
    QuantumChannel,
    adjoint_apply,
    binary_entropy,
    channel_ensemble,
    channel_output_pure,
    entropy_of_spectrum,
    identity_channel,
    log2_safe,
    random_channel,
    random_density,
    random_pure,
    shannon_entropy,
)
from qchancap.c11 import induced_classical_channel
from qchancap.c1inf import (
    DEDUP_TOL,
    C1InfOptions,
    C1InfProblem,
    ChiMaster,
    c1inf,
    caratheodory,
    divergence_tau,
    maximize_chi,
    polish_objective,
    pricing_search,
    _add_columns,
    _pricing_objective,
)
from qchancap.info import arimoto_blahut, ClassicalChannel, holevo_chi
from qchancap.optim import EntropySum
from qchancap.oracles import simplex_enumerate_chi

from helpers import erasure, random_rank_one_povm, weyl_depolarizing

c1inf_module = importlib.import_module("qchancap.c1inf")  # the package exports c1inf() by that name

SZ = np.array([[1, 0], [0, -1]], dtype=complex)

TRINE = [
    np.array([1.0, 0.0]),
    np.array([-0.5, np.sqrt(3) / 2]),
    np.array([-0.5, -np.sqrt(3) / 2]),
]


def dephasing(q):
    return QuantumChannel([np.sqrt(1 - q) * np.eye(2), np.sqrt(q) * SZ])


def bsc_embed(p):
    e0, e1 = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    return QuantumChannel(
        [np.sqrt(1 - p) * e0, np.sqrt(1 - p) * e1,
         np.sqrt(p) * flip @ e0, np.sqrt(p) * flip @ e1]
    )


def _output_entropy(ch, vec):
    return entropy_of_spectrum(np.linalg.eigvalsh(channel_output_pure(ch, vec)))


def _vn_log2(mat):
    eigs, vecs = np.linalg.eigh(mat)
    return (vecs * np.log2(np.clip(eigs, 1e-300, None))) @ vecs.conj().T


def _divergence(sigma, omega):
    """D(sigma || omega) in bits, written out with eigendecompositions."""
    eigs = np.clip(np.linalg.eigvalsh(sigma), 0.0, None)
    neg_h = float(sum(e * np.log2(e) for e in eigs if e > 1e-15))
    return neg_h - float(np.trace(sigma @ _vn_log2(omega)).real)


def _master(ch, states):
    return ChiMaster.pure(ch, [v.vec for v in states])


DEPHASING_SIGNALS = [PureState([1.0, 0.0]), PureState([0.0, 1.0]),
                     PureState([np.sqrt(0.5), np.sqrt(0.5)])]


# --- the chi master ------------------------------------------------------------

def test_master_identity_channel_eigenvectors():
    # the eigenbasis of any state is an orthonormal basis: chi peaks at 1 bit
    # on the uniform weights, whatever the starting weights
    rng = np.random.default_rng(0)
    rho = random_density(rng, 2)
    _, vecs = np.linalg.eigh(rho.mat)
    master = _master(identity_channel(2), [PureState(vecs[:, k]) for k in range(2)])
    p, _, div = maximize_chi(master, np.array([0.9, 0.1]))
    assert float(p @ div) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(p - 0.5).max() < 1e-6


def test_master_trine_identity():
    master = _master(identity_channel(2), [PureState(v) for v in TRINE])
    p, _, div = maximize_chi(master, np.array([0.6, 0.3, 0.1]))
    assert float(p @ div) == pytest.approx(1.0, abs=1e-9)
    avg = np.einsum("m,mij->ij", p, master.outputs)
    assert np.abs(avg - np.eye(2) / 2).max() < 1e-6


def test_master_dephasing_matches_simplex_grid():
    ch = dephasing(0.25)
    diagonal = PureState([np.sqrt(0.5), -np.sqrt(0.5)])
    for signals, step in ((DEPHASING_SIGNALS, 1e-3), (DEPHASING_SIGNALS + [diagonal], 2e-3)):
        master = _master(ch, signals)
        p, _, div = maximize_chi(master, np.full(len(signals), 1.0 / len(signals)))
        oracle, _ = simplex_enumerate_chi(ch, signals, step=step)
        chi = float(p @ div)
        assert chi == pytest.approx(oracle, abs=2e-3)
        assert chi >= oracle - 1e-12  # the grid is a lower bound
        ens = Ensemble([(q, v) for q, v in zip(p, signals) if q > 0])
        assert chi == pytest.approx(holevo_chi(channel_ensemble(ch, ens)), abs=1e-12)
        assert div.max() - chi <= 1e-10  # Frank-Wolfe gap at the stop


def test_master_never_decreases_and_stays_affinely_independent(monkeypatch):
    rng = np.random.default_rng(5)
    for _ in range(10):
        ch = random_channel(rng, 2, 2, int(rng.integers(1, 4)))
        states = [random_pure(rng, 2) for _ in range(7)]
        master = _master(ch, states)
        p = rng.dirichlet(np.ones(7))
        chi0 = float(p @ master.divergences(master.average(p))[0])
        for iters in (1, 2, 4, 8, 1000):
            monkeypatch.setattr(c1inf_module, "MASTER_ITERS", iters)
            q, _, div = maximize_chi(master, p)
            assert float(q @ div) >= chi0 - 1e-12
        # a qubit output lives in a 3-dimensional affine space: at most 4 columns
        assert np.count_nonzero(q) <= 4
        assert div.max() - float(q @ div) <= 1e-10


def test_caratheodory_keeps_average_and_never_lowers_chi():
    rng = np.random.default_rng(6)
    cases = [(random_channel(rng, 2, 2, 2), 6), (random_channel(rng, 3, 3, 2), 11),
             (induced_classical_channel(random_channel(rng, 2, 2, 2),
                                        random_rank_one_povm(rng, 2, 3)), 5)]
    for ch, m in cases:
        states = [random_pure(rng, ch.dim_in) for _ in range(m)]
        master = _master(ch, states)
        p = rng.dirichlet(np.ones(m))
        omega = master.average(p)
        chi = float(p @ master.divergences(omega)[0])
        q = caratheodory(master, p)
        assert np.count_nonzero(q) < m
        assert np.abs(master.average(q) - omega).max() <= 1e-12
        assert float(q @ master.divergences(master.average(q))[0]) >= chi - 1e-12
        support = np.flatnonzero(q > 0)
        outs = master.outputs[support].reshape(support.size, -1)
        sing = np.linalg.svd(np.concatenate([outs.real, outs.imag], axis=1), compute_uv=False)
        assert sing[-1] > 1e-10 * sing[0]  # the remaining outputs are affinely independent


def test_master_hessian_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        ch = random_channel(rng, d, d, int(rng.integers(1, 4)))
        master = _master(ch, [random_pure(rng, d) for _ in range(5)])
        p = rng.dirichlet(np.ones(5))
        div, eigs, rot = master.divergences(master.average(p))
        hess = master.hessian(np.arange(5), eigs, rot)
        h = 1e-5
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            fd = (master.divergences(master.average(p + e))[0]
                  - master.divergences(master.average(p - e))[0]) / (2 * h)
            assert np.abs(fd - hess[:, j]).max() / max(1.0, np.abs(fd).max()) < 1e-5
        # and the divergences against a written-out relative entropy
        omega = master.average(p)
        ref = [_divergence(s, omega) for s in master.outputs]
        assert np.abs(div - ref).max() < 1e-9


def _sphere_fd(fun_grad, x, h=1e-5):
    n = x.size // 2

    def f_of(xx):
        return fun_grad((xx[:n] + 1j * xx[n:])[None] / np.linalg.norm(xx))[0][0]

    fd = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        fd[k] = (f_of(x + e) - f_of(x - e)) / (2 * h)
    return fd


def test_polish_objective_value_and_gradient():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        ch = random_channel(rng, d, d, int(rng.integers(1, 4)))
        m = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(m))
        states = [random_pure(rng, d) for _ in range(m)]
        v = np.concatenate([np.sqrt(q) * s.vec for q, s in zip(probs, states)])
        fun_grad = polish_objective(ch, m)
        (value,), (grad,) = fun_grad(v[None])
        chi = holevo_chi(channel_ensemble(ch, Ensemble(list(zip(probs, states)))))
        assert value == pytest.approx(-chi, abs=1e-10)
        gp = grad - v * float(np.vdot(v, grad).real)
        analytic = np.concatenate([gp.real, gp.imag])
        fd = _sphere_fd(fun_grad, np.concatenate([v.real, v.imag]))
        assert np.linalg.norm(fd - analytic) / max(1.0, np.linalg.norm(fd)) < 1e-5


# --- dual tau ---------------------------------------------------------------

def test_dual_tau_strong_duality_and_feasibility():
    # at the master's optimum, tau = -N^dag(log2 omega) - chi I is an optimal
    # dual of the fixed-average LP on the same columns: Tr(tau rho) equals
    # sum_i p_i H(N(v_i)), every column satisfies v^dag tau v <= H(N(v)),
    # and support columns hold it with equality
    ch = dephasing(0.25)
    master = _master(ch, DEPHASING_SIGNALS)
    p, _, div = maximize_chi(master, np.full(3, 1.0 / 3))
    chi = float(p @ div)
    tau = divergence_tau(ch, master.average(p), chi)
    rho = sum(q * v.projector() for q, v in zip(p, DEPHASING_SIGNALS))
    costs = [_output_entropy(ch, v.vec) for v in DEPHASING_SIGNALS]
    assert float(np.trace(tau @ rho).real) == pytest.approx(float(p @ costs), abs=1e-9)
    for q, v, cost in zip(p, DEPHASING_SIGNALS, costs):
        quad = float(np.vdot(v.vec, tau @ v.vec).real)
        assert quad <= cost + 1e-9
        if q > 1e-8:  # complementary slackness: support columns tight
            assert abs(quad - cost) <= 1e-9


def test_dual_tau_identity_basis():
    states = [PureState([1.0, 0.0]), PureState([0.0, 1.0])]
    master = _master(identity_channel(2), states)
    p, _, div = maximize_chi(master, np.array([0.5, 0.5]))
    tau = divergence_tau(identity_channel(2), master.average(p), float(p @ div))
    assert float(np.trace(tau @ np.eye(2) / 2).real) == pytest.approx(0.0, abs=1e-9)
    for v in states:
        assert float(np.vdot(v.vec, tau @ v.vec).real) <= 1e-9


def test_dual_tau_requires_optimal():
    # away from the master's optimum tau is not dual feasible: the column of
    # largest divergence violates its constraint by max_i D_i - chi
    ch = dephasing(0.25)
    master = _master(ch, DEPHASING_SIGNALS)
    p = np.array([0.8, 0.1, 0.1])
    div = master.divergences(master.average(p))[0]
    chi = float(p @ div)
    tau = divergence_tau(ch, master.average(p), chi)
    slack = [_output_entropy(ch, v.vec) - float(np.vdot(v.vec, tau @ v.vec).real)
             for v in DEPHASING_SIGNALS]
    assert min(slack) == pytest.approx(-(div.max() - chi), abs=1e-12)
    assert min(slack) < -1e-3


# --- pricing -----------------------------------------------------------------

def test_pricing_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        ch = random_channel(rng, d, d, 2)
        from qchancap.core import random_density

        tau = random_density(rng, d).mat * rng.normal()
        fun_grad = _pricing_objective(ch, tau)
        x = rng.normal(size=2 * d)
        x /= np.linalg.norm(x)

        def f_of_x(xx):
            r = np.linalg.norm(xx)
            v = (xx[:d] + 1j * xx[d:]) / r
            return fun_grad(v[None])[0][0]

        # analytic gradient of the normalized objective
        v = x[:d] + 1j * x[d:]
        g = fun_grad(v[None])[1][0]
        gp = g - v * float(np.vdot(v, g).real)
        analytic = np.concatenate([gp.real, gp.imag])
        h = 1e-5
        fd = np.empty_like(x)
        for k in range(x.size):
            e = np.zeros_like(x)
            e[k] = h
            fd[k] = (f_of_x(x + e) - f_of_x(x - e)) / (2 * h)
        scale = max(1.0, np.linalg.norm(fd))
        assert np.linalg.norm(fd - analytic) / scale < 1e-5


def test_pricing_report_value_recomputes():
    # the reported violation must match an independent re-evaluation
    ch = dephasing(0.25)
    from qchancap.core import HermitianMatrix

    tau = HermitianMatrix(0.4 * np.eye(2) + 0.2 * np.array([[0, 1], [1, 0]]))
    found = pricing_search(ch, tau, starts=6, rng=np.random.default_rng(11))
    assert [violation for violation, _ in found] == sorted((v for v, _ in found), reverse=True)
    for violation, state in found:
        f = _output_entropy(ch, state.vec) - float(np.vdot(state.vec, tau.mat @ state.vec).real)
        assert violation == pytest.approx(-f, abs=1e-9)


def test_pricing_zero_tau_finds_nothing():
    from qchancap.core import HermitianMatrix

    ch = dephasing(0.25)
    tau = HermitianMatrix(np.zeros((2, 2)))
    assert pricing_search(ch, tau, starts=4, rng=np.random.default_rng(0)) == []


def test_pricing_negative_identity_tau_finds_nothing():
    from qchancap.core import HermitianMatrix

    ch = dephasing(0.25)
    tau = HermitianMatrix(-np.eye(2))
    assert pricing_search(ch, tau, starts=4, rng=np.random.default_rng(0)) == []


def test_g_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    from qchancap.core import random_density

    for _ in range(100):
        d = int(rng.integers(2, 4))
        ch = random_channel(rng, d, d, 2)
        tau = random_density(rng, d).mat * rng.normal()
        rho = random_density(rng, d)
        obj = EntropySum([(1.0, ch)], linear=-tau)  # H(N(rho)) - Tr(tau rho)
        grad = obj.grad(rho.mat)
        # traceless Hermitian probe direction
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        delta = (g + g.conj().T) / 2
        delta -= (np.trace(delta) / d) * np.eye(d)
        h = 1e-5
        fd = (obj.value(rho.mat + h * delta) - obj.value(rho.mat - h * delta)) / (2 * h)
        analytic = float(np.trace(grad @ delta).real)
        assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd))


# --- the full loop -------------------------------------------------------------

def test_c1inf_trine_restricted():
    prob = C1InfProblem(
        identity_channel(2), restricted_signals=[PureState(v) for v in TRINE]
    )
    res = c1inf(prob)
    assert res.status == "converged"
    assert res.value == pytest.approx(1.0, abs=1e-6)
    avg = res.ensemble.average_density()
    assert np.abs(avg.mat - res.rho.mat).max() < 1e-7


def test_c1inf_signal_weights_line_up_with_the_signals():
    signals = [PureState(v) for v in TRINE]
    res = c1inf(C1InfProblem(identity_channel(2), restricted_signals=signals))
    assert res.signal_weights.shape == (3,)
    assert res.ensemble.probs.tobytes() == res.signal_weights[res.signal_weights > 0.0].tobytes()
    assert c1inf(C1InfProblem(identity_channel(2))).signal_weights is None


@pytest.mark.parametrize("weights, restricted", [
    ((0.0, 0.0, 0.0), True),
    ((np.nan, 1.0, 1.0), True),
    ((np.inf, 1.0, 1.0), True),
    ((-0.5, 1.0, 1.0), True),
    ((0.5, 0.5), True),
    ((1.0, 1.0, 1.0), False),
])
def test_c1inf_rejects_initial_weights_that_do_not_fit_the_signals(weights, restricted):
    signals = [PureState(v) for v in TRINE] if restricted else None
    with pytest.raises(ValueError, match="initial_weights"):
        C1InfProblem(identity_channel(2), restricted_signals=signals,
                     options=C1InfOptions(initial_weights=weights))


def test_c1inf_identity_qubit():
    res = c1inf(C1InfProblem(identity_channel(2)))
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert res.status == "converged"
    # at the optimum no pure state beats chi in divergence from the average
    # by more than the gap c1inf certifies
    found = pricing_search(identity_channel(2), res.tau, starts=16, rng=np.random.default_rng(5))
    assert max((violation for violation, _ in found), default=0.0) <= 1e-9


def test_c1inf_bsc_embed_matches_arimoto_blahut():
    p = 0.11
    res = c1inf(C1InfProblem(bsc_embed(p)))
    cap, _ = arimoto_blahut(ClassicalChannel([[1 - p, p], [p, 1 - p]]), tol=1e-11)
    assert res.value == pytest.approx(cap, abs=1e-5)
    assert res.value == pytest.approx(1 - binary_entropy(p), abs=1e-5)


def test_c1inf_result_invariants():
    res = c1inf(C1InfProblem(dephasing(0.25)))
    # ensemble average equals rho
    assert np.abs(res.ensemble.average_density().mat - res.rho.mat).max() < 1e-7
    # support bound
    assert len(res.ensemble.states) <= 4 + 1
    # value equals chi of the output ensemble
    out = channel_ensemble(dephasing(0.25), res.ensemble)
    assert res.value == pytest.approx(holevo_chi(out), abs=1e-8)
    # weak-duality sandwich at every round
    for row in res.trace:
        assert row["master_objective"] >= row["tr_tau_rho"] - 1e-7
    # reported value never decreases
    vals = [row["value"] for row in res.trace]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert res.pricing_residual < 1e-6


def test_trace_columns_and_residual_are_equal_by_construction():
    # Tr(tau rho) = S(N(rho)) - chi = sum_i p_i H(N(psi_i)) for tau =
    # -N^dag(log2 N(rho)) - chi I, so the two trace columns bound nothing
    from qchancap.channels import trine_signals

    rng = np.random.default_rng(2026)
    problems = [C1InfProblem(identity_channel(2), restricted_signals=trine_signals())]
    for _ in range(12):
        d = int(rng.integers(2, 5))
        problems.append(C1InfProblem(random_channel(rng, d, d, int(rng.integers(1, 4)))))
    for problem in problems:
        res = c1inf(problem)
        assert res.trace and res.pricing_residual == res.dual_gap
        for row in res.trace:
            assert abs(row["master_objective"] - row["tr_tau_rho"]) <= 1e-12


def test_c1inf_tensor_product_superadditive_regression():
    # chi_max of a product channel is at least the sum of the parts
    ch = bsc_embed(0.11)
    single = c1inf(C1InfProblem(ch, options=C1InfOptions(seed=0)))
    from qchancap.core import tensor

    double = c1inf(C1InfProblem(tensor(ch, ch), options=C1InfOptions(seed=0)))
    assert double.value >= 2 * single.value - 1e-6


def test_c1inf_restricted_matches_simplex_enumeration():
    ch = dephasing(0.25)
    signals = [PureState([1.0, 0.0]), PureState([0.0, 1.0]),
               PureState([np.sqrt(0.5), np.sqrt(0.5)])]
    res = c1inf(C1InfProblem(ch, restricted_signals=signals))
    # dense simplex oracle over chi
    from qchancap.oracles import simplex_enumerate_chi

    oracle, _ = simplex_enumerate_chi(ch, signals, step=1e-3)
    assert res.value == pytest.approx(oracle, abs=2e-3)
    assert res.value >= oracle - 2e-3


def _restricted_gap(ch, signals, res):
    """max_i D(N(psi_i) || N(rho)) - chi, written out."""
    omega = sum(q * channel_output_pure(ch, v.vec) for q, v in res.ensemble.items())
    return max(_divergence(channel_output_pure(ch, v.vec), omega) for v in signals) - res.value


def test_c1inf_restricted_gap_is_the_exact_divergence_gap(monkeypatch):
    rng = np.random.default_rng(9)
    ch = random_channel(rng, 2, 2, 2)
    signals = [random_pure(rng, 2) for _ in range(5)]
    res = c1inf(C1InfProblem(ch, restricted_signals=signals))
    assert res.status == "converged" and res.rounds == 1
    assert res.pricing_residual == pytest.approx(_restricted_gap(ch, signals, res), abs=1e-9)
    assert res.dual_gap == res.pricing_residual <= 1e-7
    # a master cut short leaves a gap, reported as it is
    monkeypatch.setattr(c1inf_module, "MASTER_ITERS", 1)
    short = c1inf(C1InfProblem(ch, restricted_signals=signals))
    assert short.status == "round-limit"
    assert short.pricing_residual > 1e-6
    assert short.pricing_residual == pytest.approx(_restricted_gap(ch, signals, short), abs=1e-9)
    assert short.value <= res.value + 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_c1inf_certifies_the_seed_dependent_channel(seed):
    # this channel once stopped "converged" up to 1.6e-2 below its capacity,
    # depending on the seed
    rng = np.random.default_rng([4, 1])
    ch = random_channel(rng, 2, 2, int(rng.integers(2, 4)))
    res = c1inf(C1InfProblem(ch, options=C1InfOptions(seed=seed)))
    assert res.status == "converged"
    assert res.dual_gap <= 1e-7
    assert res.value == pytest.approx(0.8197956, abs=1e-6)
    # the polish moves the support to the continuous optimum; column
    # generation alone approaches it one column per round
    assert res.rounds <= 2


def test_c1inf_stalls_when_no_violator_may_enter(monkeypatch):
    # the smallest positive tolerance is certified only by a gap of exactly
    # 0, and no priced state clears a pricing threshold of one bit: the loop
    # stops as soon as a round gains nothing, rather than running to the
    # round cap
    monkeypatch.setattr(c1inf_module, "PRICING_TOL", 1.0)
    opts = C1InfOptions(tol=np.nextafter(0.0, 1.0), max_rounds=50)
    res = c1inf(C1InfProblem(dephasing(0.25), options=opts))
    assert res.status == "stalled"
    assert res.rounds < 50
    assert res.dual_gap > 0.0
    assert res.value == pytest.approx(1.0, abs=1e-9)  # the basis states pass unchanged


def test_c1inf_admits_priced_columns_and_certifies_in_a_later_round(monkeypatch):
    # round 0's pricing finds two violators; the second round's master runs
    # on the grown column set and certifies
    ch = random_channel(np.random.default_rng(3), 3, 3, 2)
    admitted = []
    real = c1inf_module._add_columns

    def spy(ch, master, p, states):
        grown, q = real(ch, master, p, states)
        admitted.append(len(q) - len(p))
        return grown, q

    monkeypatch.setattr(c1inf_module, "_add_columns", spy)
    res = c1inf(C1InfProblem(ch))
    assert res.status == "converged" and res.rounds == 2
    assert admitted == [2]
    assert res.dual_gap <= 1e-7
    assert holevo_chi(channel_ensemble(ch, res.ensemble)) == pytest.approx(res.value, abs=1e-8)


def test_add_columns_skips_states_within_dedup_tol_of_a_column():
    ch = random_channel(np.random.default_rng(0), 2, 2, 2)
    master = ChiMaster.pure(ch, np.eye(2, dtype=complex))
    p = np.array([0.25, 0.75])
    near = PureState([1.0, 0.1 * DEDUP_TOL])  # projector within DEDUP_TOL of |0><0|
    phase = PureState([0.0, -1.0])  # |1> up to a phase: the same projector
    far = PureState([1.0, 10.0 * DEDUP_TOL])
    grown, q = _add_columns(ch, master, p, [near, phase, far])
    assert q.tolist() == [0.25, 0.75, 0.0]
    np.testing.assert_array_equal(grown.columns[:2], master.columns)
    np.testing.assert_array_equal(grown.columns[2], far.vec)
    np.testing.assert_allclose(grown.outputs[2], channel_output_pure(ch, far.vec), atol=1e-15)


def test_c1inf_ququart_converges():
    ch = random_channel(np.random.default_rng(1), 4, 4, 2)
    res = c1inf(C1InfProblem(ch))
    assert res.status == "converged" and res.rounds <= 3
    assert res.value >= 1.732754 - 1e-6
    assert len(res.ensemble.states) <= 16
    assert holevo_chi(channel_ensemble(ch, res.ensemble)) == pytest.approx(res.value, abs=1e-8)


# --- batched pricing objective -----------------------------------------------

def _pricing_objective_loop(ch, tau_mat):
    """Reference: the objective one vector at a time, one Kraus operator at a time."""

    def fun_grad(v):
        out = channel_output_pure(ch, v)
        if ch.diagonal_output:
            probs = np.clip(out.diagonal().real, 0.0, None)
            keep = probs > 1e-12
            f_ent = float(-(probs[keep] * np.log2(probs[keep])).sum())
            logm = np.diag(np.where(keep, np.log2(np.where(keep, probs, 1.0)), 0.0))
        else:
            f_ent = entropy_of_spectrum(np.linalg.eigvalsh(out))
            logm = log2_safe(out)
        f = f_ent - float(np.vdot(v, tau_mat @ v).real)
        return f, -2.0 * (adjoint_apply(ch, logm) @ v + v / LN2 + tau_mat @ v)

    return fun_grad


def test_pricing_objective_batch_matches_single_rows():
    rng = np.random.default_rng(22)
    channels = [random_channel(rng, d, d, k) for d in (2, 3) for k in (1, 2, 3)]
    channels.append(dephasing(0.25))
    # measurement-induced channels have diagonal outputs and take the
    # eigendecomposition-free path
    channels += [induced_classical_channel(ch, random_rank_one_povm(rng, ch.dim_out, ch.dim_out + 1))
                 for ch in channels[:3]]
    assert any(ch.diagonal_output for ch in channels)
    for ch in channels:
        d = ch.dim_in
        tau = random_density(rng, d).mat * rng.normal()
        batch = rng.normal(size=(7, d)) + 1j * rng.normal(size=(7, d))
        batch = np.vstack([batch, np.eye(d)])  # pure outputs: zero eigenvalues
        batch /= np.linalg.norm(batch, axis=1)[:, None]
        fun_grad = _pricing_objective(ch, tau)
        reference = _pricing_objective_loop(ch, tau)
        values, grads = fun_grad(batch)
        assert values.shape == (batch.shape[0],) and grads.shape == batch.shape
        for v, f_row, g_row in zip(batch, values, grads):
            (f_one,), (g_one,) = fun_grad(v[None])  # a batch of one row
            f_ref, g_ref = reference(v)
            assert abs(f_row - f_one) <= 1e-12 and np.abs(g_row - g_one).max() <= 1e-12
            assert abs(f_row - f_ref) <= 1e-12 and np.abs(g_row - g_ref).max() <= 1e-12


def test_pricing_objective_is_continuous_at_the_entropy_clip():
    # rows c|+> + s|-> walked across the s where the output's small eigenvalue
    # (0.36 s^2 c^2 under bit_flip(0.1)) or the |-> probability of measuring
    # it in the X basis (s^2) crosses ENTROPY_CLIP: dropping the eigenvalues
    # at or below the clip made f jump there by about 4.0e-11
    plus, minus = np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, -1.0]) / np.sqrt(2.0)
    measured = induced_classical_channel(bit_flip(0.1), Povm.projective([plus, minus]))
    assert measured.diagonal_output
    for ch, crossing in ((bit_flip(0.1), np.sqrt(ENTROPY_CLIP / 0.36)),
                         (measured, np.sqrt(ENTROPY_CLIP))):
        s = crossing * np.linspace(0.9, 1.1, 401)
        rows = (np.sqrt(1.0 - s**2)[:, None] * plus + s[:, None] * minus).astype(complex)
        values, _ = _pricing_objective(ch, np.zeros((2, 2)))(rows)
        assert np.abs(np.diff(values)).max() < 1e-13


def test_c1inf_certifies_bit_flip_at_one_bit():
    res = c1inf(C1InfProblem(parse_channel("bit_flip_0.1.qch").channel))
    assert res.status == "converged"
    assert abs(res.value - 1.0) <= 1e-14


@pytest.mark.parametrize("name, bound", [("bit_flip_0.1.qch", 60), ("depolarizing_0.3.qch", 30)])
def test_c1inf_search_work_on_near_pure_outputs(monkeypatch, name, bound):
    # batched calls of the search objective (pricing and polish): 45 and 22
    # with the clamped entropy, 381 and 156 when line searches halved against
    # the jump at the clip; these bounds may only go down
    calls = []
    search = c1inf_module.minimize_on_sphere

    def counted(fun_grad, *args, **kwargs):
        return search(lambda v: calls.append(len(v)) or fun_grad(v), *args, **kwargs)

    monkeypatch.setattr(c1inf_module, "minimize_on_sphere", counted)
    res = c1inf(C1InfProblem(parse_channel(name).channel))
    assert res.status == "converged"
    assert len(calls) <= bound


# --- qutrit channels ------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 3])
def test_c1inf_random_qutrit_channel_converges_with_certificates(seed):
    ch = random_channel(np.random.default_rng(seed), 3, 3, 3)
    res = c1inf(C1InfProblem(ch))
    assert res.status == "converged"
    assert res.value >= {1: 0.851946, 3: 0.906994}[seed] - 1e-6
    for row in res.trace:
        assert row["master_objective"] >= row["tr_tau_rho"] - 1e-7
    assert res.pricing_residual < 1e-6
    assert holevo_chi(channel_ensemble(ch, res.ensemble)) == pytest.approx(res.value, abs=1e-8)


# --- regression: the master's generalization leaves c1inf's arithmetic alone -----

C1INF_CAPTURED = [  # name, value.hex(), dual_gap.hex(), rounds, ensemble digest
    ("41-0", "0x1.a3bc3ea4ee845p-1", "0x1.afee990000000p-35", 1, "cf61031549f7ee024142b582443f1113"),
    ("41-1", "0x1.a3bc3ea4ee841p-1", "0x1.02bd000000000p-41", 1, "92a048cd959ad0b6dae438c88fe94b4f"),
    ("41-2", "0x1.a3bc3ea4ee84bp-1", "0x1.9267800000000p-43", 1, "f5415440871ee3931bacdbac729b2d09"),
    ("41-3", "0x1.a3bc3ea4ee843p-1", "0x1.582e800000000p-41", 1, "9b106d71f08e3eb9f0c97adab98c5cf7"),
    ("qutrit-1", "0x1.b432432d82686p-1", "0x1.26e9400000000p-35", 1, "b5dfc9f0ac18117b5a7a0714f809dec1"),
    ("qutrit-3", "0x1.d061872d8a65ep-1", "0x1.1ea4600000000p-34", 1, "f68e2b6747bc22690ab4e4518bc28f87"),
    # outputs of rank 2 of 4: their roundoff eigenvalues below ENTROPY_CLIP
    # enter the pricing objective's clamped entropy
    ("ququart", "0x1.bb95cb87c9578p+0", "0x1.24c8e70000000p-34", 1, "470d480589b433f83edc4c7d804dd14d"),
]


def _captured_case(name):
    if name.startswith("41-"):
        rng = np.random.default_rng([4, 1])
        return random_channel(rng, 2, 2, int(rng.integers(2, 4))), int(name[3:])
    if name.startswith("qutrit-"):
        return random_channel(np.random.default_rng(int(name[7:])), 3, 3, 3), 0
    return random_channel(np.random.default_rng(1), 4, 4, 2), 0


@pytest.mark.parametrize("case", C1INF_CAPTURED, ids=[c[0] for c in C1INF_CAPTURED])
def test_c1inf_output_is_bit_identical_to_the_captured_run(case):
    # captured before the master took an optional budget row: without one,
    # every arithmetic path must stay the same (OpenBLAS 0.3.31, x86-64; another
    # BLAS build may round differently)
    import hashlib

    name, value_hex, gap_hex, rounds, digest = case
    ch, seed = _captured_case(name)
    res = c1inf(C1InfProblem(ch, options=C1InfOptions(seed=seed)))
    ens = hashlib.sha256(np.asarray(res.ensemble.probs).tobytes())
    for s in res.ensemble.states:
        ens.update(s.vec.tobytes())
    assert res.value.hex() == value_hex
    assert float(res.dual_gap).hex() == gap_hex
    assert res.rounds == rounds
    assert ens.hexdigest()[:32] == digest


@pytest.mark.parametrize("d", [3, 4])
def test_c1inf_meets_the_closed_forms(d):
    # (1 - eps) log2 d for erasure (Bennett, DiVincenzo and Smolin, 1997);
    # log2 d - H(1 - p + p/d, p/d, ...) for depolarizing (King, 2003)
    res = c1inf(C1InfProblem(erasure(0.3, d)))
    assert res.status == "converged"
    assert res.value == pytest.approx(0.7 * np.log2(d), abs=1e-12)
    res = c1inf(C1InfProblem(weyl_depolarizing(0.3, d)[0]))
    assert res.status == "converged"
    spectrum = np.full(d, 0.3 / d)
    spectrum[0] += 0.7
    assert res.value == pytest.approx(np.log2(d) - shannon_entropy(spectrum), abs=1e-12)


@pytest.mark.xfail(strict=True, reason="c1inf stops at the first pricing that finds no violator; "
                                       "at d = 4 a fresh pricing still finds one (ROADMAP item 2)")
def test_converged_survives_an_independent_repricing():
    # random_channel(default_rng([9, 4, k, i]), 4, 4, k) at a c1inf seed: each
    # run ends converged with dual_gap near 5e-11, while 256 starts from
    # another stream find violations of 4.2e-3, 2.2e-2 and 1.3e-3 bits
    excess = []
    for key, seed in (([9, 4, 3, 8], 0), ([9, 4, 2, 6], 2), ([9, 4, 3, 7], 0)):
        ch = random_channel(np.random.default_rng(key), 4, 4, key[2])
        res = c1inf(C1InfProblem(ch, options=C1InfOptions(seed=seed)))
        if res.status == "converged":
            found = pricing_search(ch, res.tau, 256, np.random.default_rng([7, seed]))
            excess.append(max((v for v, _ in found), default=0.0) - res.dual_gap)
    assert max(excess, default=0.0) <= 1e-7


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pure_outputs_of_a_stack_are_those_of_each_vector(d):
    rng = np.random.default_rng([16, d])
    for k in (1, 2, 3):
        ch = random_channel(rng, d, d, k)
        vecs = np.stack([random_pure(rng, d).vec for _ in range(5)])
        stacked = channel_output_pure(ch, vecs)
        assert stacked.tobytes() == np.stack([channel_output_pure(ch, v) for v in vecs]).tobytes()
        assert stacked.tobytes() == ChiMaster.pure(ch, vecs).outputs.tobytes()
