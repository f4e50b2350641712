"""Tests for the batched multistart sphere search."""

import numpy as np
import pytest

from qchancap.optim import batched_objective, minimize_on_sphere


def _rayleigh(h):
    """f(v) = v^dag H v on a batch, with its complex gradient 2 H v."""

    @batched_objective
    def fun_grad(v):
        hv = v @ h.T
        return np.einsum("si,si->s", v.conj(), hv).real, 2.0 * hv

    return fun_grad


def _random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def _random_starts(rng, d, count):
    v = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return list(v / np.linalg.norm(v, axis=1)[:, None])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sphere_search_returns_lowest_eigenvector_first(d):
    rng = np.random.default_rng(30 + d)
    h = _random_hermitian(rng, d)
    eigs, vecs = np.linalg.eigh(h)
    # random starts all descend to the lowest eigenvector; starts placed on
    # the other eigenvectors are stationary and stay there
    starts = _random_starts(rng, d, 8) + [vecs[:, k] for k in range(1, d)]
    minima = minimize_on_sphere(_rayleigh(h), d, starts)
    assert len(minima) == d
    for k, (f, v) in enumerate(minima):
        assert f == pytest.approx(eigs[k], abs=1e-10)
        assert abs(np.vdot(vecs[:, k], v)) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_sphere_search_is_deterministic():
    rng = np.random.default_rng(36)
    h = _random_hermitian(rng, 4)
    starts = _random_starts(rng, 4, 6) + [np.linalg.eigh(h)[1][:, 2]]
    runs = [minimize_on_sphere(_rayleigh(h), 4, starts) for _ in range(2)]
    as_bytes = [[(np.float64(f).tobytes(), v.tobytes()) for f, v in run] for run in runs]
    assert as_bytes[0] == as_bytes[1]

