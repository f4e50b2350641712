"""Tests for the test-side helper forms."""

import numpy as np
import pytest

from qchancap.core import (
    DensityMatrix,
    channel_apply_mat,
    environment_output,
    identity_channel,
    random_channel,
    random_density,
    random_pure,
    tensor,
    von_neumann_entropy,
)

from helpers import purify


def _trace_out_second(mat, da, db):
    # independent oracle: naive triple-loop index contraction over the second factor
    out = np.zeros((da, da), dtype=complex)
    for i in range(da):
        for k in range(da):
            for j in range(db):
                out[i, k] += mat[i * db + j, k * db + j]
    return out


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
        joint = channel_apply_mat(tensor(ch, identity_channel(2)), phi.projector())
        ents.append(von_neumann_entropy(DensityMatrix(joint)))
    assert ents[0] == pytest.approx(ents[1], abs=1e-8)
    # and both agree with the environment view
    env = environment_output(ch, rho.mat)
    assert ents[0] == pytest.approx(
        von_neumann_entropy(DensityMatrix(env)), abs=1e-9
    )
