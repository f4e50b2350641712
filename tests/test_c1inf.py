"""Tests for the C_{1,inf} engine."""

import numpy as np
import pytest

from qchancap.core import (
    LN2,
    DensityMatrix,
    PureState,
    adjoint_apply,
    binary_entropy,
    channel_ensemble,
    channel_output_pure,
    entropy_of_spectrum,
    identity_channel,
    random_channel,
    random_density,
    random_rank_one_povm,
    validate_channel,
)
from qchancap.c11 import induced_classical_channel
from qchancap.c1inf import (
    C1InfOptions,
    C1InfProblem,
    build_fixed_rho_lp,
    c1inf,
    dual_tau,
    g_objective,
    output_entropy_pure,
    pricing_search,
    update_rho,
    _pricing_objective,
)
from qchancap.info import arimoto_blahut, ClassicalChannel, holevo_chi
from qchancap.lp import solve_lp
from qchancap.optim import log2_safe

SZ = np.array([[1, 0], [0, -1]], dtype=complex)

TRINE = [
    np.array([1.0, 0.0]),
    np.array([-0.5, np.sqrt(3) / 2]),
    np.array([-0.5, -np.sqrt(3) / 2]),
]


def dephasing(q):
    return validate_channel([np.sqrt(1 - q) * np.eye(2), np.sqrt(q) * SZ])


def bsc_embed(p):
    e0, e1 = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    return validate_channel(
        [np.sqrt(1 - p) * e0, np.sqrt(1 - p) * e1,
         np.sqrt(p) * flip @ e0, np.sqrt(p) * flip @ e1]
    )


def simplex_grid_min(ch, states, rho, step=1e-3):
    """Brute-force oracle for the fixed-rho master on 3 states: dense grid
    over the probability simplex, keeping only grids matching rho."""
    costs = np.array([output_entropy_pure(ch, v.vec) for v in states])
    projs = np.stack([v.projector() for v in states])
    n = int(round(1.0 / step))
    counts = n + 1 - np.arange(n + 1)  # lattice points (i, j, n - i - j) for each i
    i = np.repeat(np.arange(n + 1), counts)
    j = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
    p = np.stack([i, j, n - i - j], axis=1) / n
    avg = np.einsum("sk,kab->sab", p, projs)
    keep = np.abs(avg - rho.mat).max(axis=(1, 2)) < 2e-3
    return float((p[keep] @ costs).min()) if keep.any() else np.inf


# --- master LP ---------------------------------------------------------------

def test_master_identity_channel_eigenvectors():
    rng = np.random.default_rng(0)
    from qchancap.core import random_density

    rho = random_density(rng, 2)
    eigs, vecs = np.linalg.eigh(rho.mat)
    states = [PureState(vecs[:, k]) for k in range(2)]
    lp = build_fixed_rho_lp(identity_channel(2), states, rho)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert np.abs(np.sort(sol.x) - np.sort(eigs)).max() < 1e-8


def test_master_trine_identity():
    states = [PureState(v) for v in TRINE]
    lp = build_fixed_rho_lp(identity_channel(2), states, DensityMatrix(np.eye(2) / 2))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_master_infeasible_outside_hull():
    # rho = |0><0| is not in the hull of states that both lean on |1>
    states = [PureState([0.0, 1.0]), PureState([np.sqrt(0.5), np.sqrt(0.5)])]
    lp = build_fixed_rho_lp(identity_channel(2), states, DensityMatrix(np.diag([1.0, 0.0])))
    assert solve_lp(lp).status == "infeasible"


def test_master_dephasing_matches_simplex_grid():
    ch = dephasing(0.25)
    states = [PureState([1.0, 0.0]), PureState([0.0, 1.0]),
              PureState([np.sqrt(0.5), np.sqrt(0.5)])]
    rho = DensityMatrix(np.eye(2) / 2)
    sol = solve_lp(build_fixed_rho_lp(ch, states, rho))
    assert sol.status == "optimal"
    oracle = simplex_grid_min(ch, states, rho, step=1e-3)
    assert sol.objective == pytest.approx(oracle, abs=2e-3)


# --- dual tau ---------------------------------------------------------------

def test_dual_tau_strong_duality_and_feasibility():
    ch = dephasing(0.25)
    states = [PureState([1.0, 0.0]), PureState([0.0, 1.0]),
              PureState([np.sqrt(0.5), np.sqrt(0.5)])]
    rho = DensityMatrix(np.eye(2) / 2)
    lp = build_fixed_rho_lp(ch, states, rho)
    sol = solve_lp(lp)
    tau = dual_tau(sol, 2)
    assert float(np.trace(tau.mat @ rho.mat).real) == pytest.approx(sol.objective, abs=1e-7)
    for j, v in enumerate(states):
        quad = float(np.vdot(v.vec, tau.mat @ v.vec).real)
        assert quad <= lp.c[j] + 1e-7
        if sol.x[j] > 1e-8:  # complementary slackness: support columns tight
            assert abs(quad - lp.c[j]) <= 1e-6


def test_dual_tau_identity_basis():
    states = [PureState([1.0, 0.0]), PureState([0.0, 1.0])]
    rho = DensityMatrix(np.eye(2) / 2)
    sol = solve_lp(build_fixed_rho_lp(identity_channel(2), states, rho))
    tau = dual_tau(sol, 2)
    assert float(np.trace(tau.mat @ rho.mat).real) == pytest.approx(0.0, abs=1e-9)
    for v in states:
        assert float(np.vdot(v.vec, tau.mat @ v.vec).real) <= 1e-9


def test_dual_tau_requires_optimal():
    sol = solve_lp(build_fixed_rho_lp(
        identity_channel(2),
        [PureState([0.0, 1.0])],
        DensityMatrix(np.diag([1.0, 0.0])),
    ))
    with pytest.raises(ValueError):
        dual_tau(sol, 2)


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
            return fun_grad(v)[0]

        # analytic gradient of the normalized objective
        v = x[:d] + 1j * x[d:]
        _, g = fun_grad(v)
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
    # the reported reduced cost must match an independent re-evaluation
    ch = dephasing(0.25)
    from qchancap.core import HermitianMatrix

    tau = HermitianMatrix(0.4 * np.eye(2) + 0.2 * np.array([[0, 1], [1, 0]]))
    reports = pricing_search(ch, tau, starts=6, rng=11)
    for rep in reports:
        f = output_entropy_pure(ch, rep.state.vec) - float(
            np.vdot(rep.state.vec, tau.mat @ rep.state.vec).real
        )
        assert rep.reduced_cost == pytest.approx(f, abs=1e-9)
        assert rep.start_class in ("random", "support")


def test_pricing_zero_tau_finds_nothing():
    from qchancap.core import HermitianMatrix

    ch = dephasing(0.25)
    tau = HermitianMatrix(np.zeros((2, 2)))
    assert pricing_search(ch, tau, starts=4, rng=0) == []


def test_pricing_negative_identity_tau_finds_nothing():
    from qchancap.core import HermitianMatrix

    ch = dephasing(0.25)
    tau = HermitianMatrix(-np.eye(2))
    assert pricing_search(ch, tau, starts=4, rng=0) == []


def test_pricing_two_state_optimal_tau_is_clean():
    # tau from the globally optimal two-state master leaves nothing to add
    theta = np.pi / 3
    states = [PureState([1.0, 0.0]), PureState([np.cos(theta), np.sin(theta)])]
    ch = identity_channel(2)
    prob = C1InfProblem(ch, restricted_signals=states)
    res = c1inf(prob)
    reports = pricing_search(ch, res.tau, starts=8, rng=3)
    assert all(r.reduced_cost > -1e-6 for r in reports) or reports == []


# --- rho update ---------------------------------------------------------------

def test_update_rho_fixed_point_at_optimum():
    from qchancap.core import HermitianMatrix

    ch = identity_channel(2)
    tau = HermitianMatrix(np.zeros((2, 2)))
    rho = DensityMatrix(np.eye(2) / 2)  # entropy maximizer
    out = update_rho(ch, tau, rho)
    assert np.abs(out.mat - rho.mat).max() < 1e-9


def test_update_rho_ascends_toward_maximally_mixed():
    from qchancap.core import HermitianMatrix

    ch = identity_channel(2)
    tau = HermitianMatrix(np.zeros((2, 2)))
    rho = DensityMatrix(np.diag([0.9, 0.1]))
    cur = rho
    g = g_objective(ch, tau.mat)
    vals = [g.value(cur.mat)]
    for _ in range(50):
        cur = update_rho(ch, tau, cur)
        vals.append(g.value(cur.mat))
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # fixed point is the entropy maximizer I/2 (12-round steps cap the state
    # resolution, so compare in value and coarsely in state)
    assert vals[-1] == pytest.approx(1.0, abs=1e-6)
    assert np.abs(cur.mat - np.eye(2) / 2).max() < 1e-3


def test_update_rho_monotone_and_matches_grid_dephasing():
    from qchancap.core import HermitianMatrix

    ch = dephasing(0.25)
    tau = HermitianMatrix(np.array([[0.3, 0.05], [0.05, 0.1]], dtype=complex))
    cur = DensityMatrix(np.diag([0.8, 0.2]))
    g = g_objective(ch, tau.mat)
    vals = [g.value(cur.mat)]
    for _ in range(50):
        cur = update_rho(ch, tau, cur)
        vals.append(g.value(cur.mat))
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # Bloch-ball grid oracle, step 0.01
    best = -np.inf
    for x in np.arange(-1, 1.0001, 0.01):
        for z in np.arange(-1, 1.0001, 0.01):
            if x * x + z * z > 1.0:
                continue
            mat = 0.5 * (np.eye(2) + x * np.array([[0, 1], [1, 0]]) + z * SZ)
            best = max(best, g.value(mat))
    assert vals[-1] == pytest.approx(best, abs=1e-4)


def test_g_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    from qchancap.core import random_density

    for _ in range(100):
        d = int(rng.integers(2, 4))
        ch = random_channel(rng, d, d, 2)
        tau = random_density(rng, d).mat * rng.normal()
        rho = random_density(rng, d)
        obj = g_objective(ch, tau)
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


def test_c1inf_identity_qubit():
    res = c1inf(C1InfProblem(identity_channel(2)))
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert res.status == "converged"


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
            f_one, g_one = fun_grad(v)
            f_ref, g_ref = reference(v)
            assert isinstance(f_one, float) and g_one.shape == v.shape
            assert abs(f_row - f_one) <= 1e-12 and np.abs(g_row - g_one).max() <= 1e-12
            assert abs(f_row - f_ref) <= 1e-12 and np.abs(g_row - g_ref).max() <= 1e-12


# --- qutrit channels ------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 3])
def test_c1inf_random_qutrit_channel_converges_with_certificates(seed):
    ch = random_channel(np.random.default_rng(seed), 3, 3, 3)
    res = c1inf(C1InfProblem(ch))
    assert res.status == "converged"
    for row in res.trace:
        assert row["master_objective"] >= row["tr_tau_rho"] - 1e-7
    assert res.pricing_residual < 1e-6
    assert holevo_chi(channel_ensemble(ch, res.ensemble)) == pytest.approx(res.value, abs=1e-8)
