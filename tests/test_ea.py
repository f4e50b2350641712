"""Tests for the entanglement-assisted engines."""

import numpy as np
import pytest

from qchancap.core import (
    identity_channel,
    random_channel,
    random_density,
    validate_channel,
)
from qchancap.c1inf import C1InfOptions, C1InfProblem, c1inf
from qchancap.ea import (
    c_ea,
    coherent_info_max,
    limited_ea,
    qmi_objective,
)
from qchancap.info import coherent_information, quantum_mutual_information

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def depolarizing(p):
    return validate_channel(
        [np.sqrt(1 - p) * np.eye(2), np.sqrt(p / 3) * SX,
         np.sqrt(p / 3) * SY, np.sqrt(p / 3) * SZ]
    )


def dephasing(q):
    return validate_channel([np.sqrt(1 - q) * np.eye(2), np.sqrt(q) * SZ])


# --- C_E -------------------------------------------------------------------

def test_cea_identity_superdense():
    res = c_ea(identity_channel(2))
    assert res.value == pytest.approx(2.0, abs=1e-6)
    assert res.gradient_residual < 1e-6
    assert res.entanglement_rate == pytest.approx(1.0, abs=1e-6)
    assert np.abs(res.rho_star.mat - np.eye(2) / 2).max() < 1e-6


def test_cea_fully_depolarizing():
    res = c_ea(depolarizing(0.75))
    assert res.value == pytest.approx(0.0, abs=1e-6)
    assert res.gradient_residual < 1e-6


def test_cea_depolarizing_vs_grid():
    from qchancap.oracles import grid_density_objective

    res = c_ea(depolarizing(0.3))
    oracle, _ = grid_density_objective(depolarizing(0.3), "qmi", 0.02)
    assert res.value >= oracle - 1e-9  # oracle is a lower bound
    assert res.value == pytest.approx(oracle, abs=1e-3)


def test_cea_value_is_qmi_of_rho_star():
    rng = np.random.default_rng(0)
    for _ in range(5):
        ch = random_channel(rng, 2, 2, 2)
        res = c_ea(ch)
        assert res.value == pytest.approx(
            quantum_mutual_information(ch, res.rho_star), abs=1e-9
        )
        assert res.gradient_residual < 1e-6


def test_cea_at_least_c1inf():
    rng = np.random.default_rng(1)
    for i in range(5):
        ch = random_channel(rng, 2, 2, int(rng.integers(1, 4)))
        ce = c_ea(ch)
        c1 = c1inf(C1InfProblem(ch, options=C1InfOptions(seed=i)))
        assert ce.value >= c1.value - 1e-6


def test_qmi_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        ch = random_channel(rng, d, d, 2)
        rho = random_density(rng, d)
        qmi = qmi_objective(ch)
        grad = qmi.grad(rho.mat)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        delta = (g + g.conj().T) / 2
        delta -= (np.trace(delta) / d) * np.eye(d)
        h = 1e-5
        fd = (qmi.value(rho.mat + h * delta) - qmi.value(rho.mat - h * delta)) / (2 * h)
        analytic = float(np.trace(grad @ delta).real)
        assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd))


# --- coherent information -----------------------------------------------------

def test_coherent_max_identity():
    res = coherent_info_max(identity_channel(2), starts=4, seed=0)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert np.abs(res.rho_star.mat - np.eye(2) / 2).max() < 1e-4


def test_coherent_max_fully_depolarizing():
    res = coherent_info_max(depolarizing(0.75), starts=4, seed=0)
    # maximum 0 is attained at pure inputs; the center sits at -1
    assert res.value == pytest.approx(0.0, abs=1e-6)
    top = float(np.linalg.eigvalsh(res.rho_star.mat)[-1])
    assert top > 1 - 1e-3


def test_coherent_max_dephasing_vs_grid():
    from qchancap.oracles import grid_density_objective

    res = coherent_info_max(dephasing(0.25), starts=4, seed=0)
    oracle, _ = grid_density_objective(dephasing(0.25), "coherent", 0.01)
    assert res.value == pytest.approx(oracle, abs=1e-4)
    assert res.value >= oracle - 1e-9


def test_coherent_leq_qmi():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ch = random_channel(rng, 2, 2, 2)
        rho = random_density(rng, 2)
        assert coherent_information(ch, rho) <= quantum_mutual_information(ch, rho) + 1e-12


# --- limited entanglement --------------------------------------------------------

def test_limited_ea_rejects_negative_budget():
    with pytest.raises(ValueError):
        limited_ea(identity_channel(2), -0.5)


def test_limited_ea_endpoints_identity():
    ch = identity_channel(2)
    v0, ens0 = limited_ea(ch, 0.0)
    assert v0 == pytest.approx(1.0, abs=2e-3)
    v1, ens1 = limited_ea(ch, 1.0)
    assert v1 == pytest.approx(2.0, abs=2e-3)
    vh, _ = limited_ea(ch, 0.5)
    assert 1.0 - 1e-6 <= vh <= 2.0 + 1e-6
    assert vh == pytest.approx(1.5, abs=2e-3)  # the known 1 + B line


def test_limited_ea_endpoints_depolarizing():
    ch = depolarizing(0.3)
    c1 = c1inf(C1InfProblem(ch))
    ce = c_ea(ch)
    v0, _ = limited_ea(ch, 0.0)
    assert v0 == pytest.approx(c1.value, abs=2e-3)
    v1, _ = limited_ea(ch, 1.0)
    assert v1 == pytest.approx(ce.value, abs=2e-3)


def test_limited_ea_monotone_in_budget():
    ch = identity_channel(2)
    values = [limited_ea(ch, b)[0] for b in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))


def test_limited_ea_budget_respected():
    from qchancap.info import limited_ea_objective

    ch = depolarizing(0.3)
    for budget in (0.0, 0.4):
        value, ens = limited_ea(ch, budget)
        _, avg_entropy = limited_ea_objective(ch, ens)
        assert avg_entropy <= budget + 1e-6
