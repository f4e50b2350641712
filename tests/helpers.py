"""Forms only the test suite needs: a purification, a random POVM, the
erasure and Weyl-depolarizing channels of the closed-form checks, a
channel-file writer and readers for the CLI's ensemble and POVM dumps.

The package never calls these, so they live beside the tests that use them.
"""

import json
from pathlib import Path

import numpy as np

from qchancap.core import (
    DensityMatrix,
    DimensionError,
    Ensemble,
    Povm,
    PureState,
    QuantumChannel,
    fix_phase,
    normalized_state,
)


def purify(rho: DensityMatrix, reference_unitary: np.ndarray = None) -> PureState:
    """A purification on system (x) reference, reference dimension = rank(rho).

    Phi = sum_k sqrt(l_k) e_k (x) f_k with {l_k, e_k} the nonzero eigenpairs
    and {f_k} the reference basis (optionally rotated by `reference_unitary`);
    the partial trace over the reference recovers rho.
    """
    eigs, vecs = np.linalg.eigh(rho.mat)
    order = np.argsort(eigs)[::-1]
    eigs, vecs = eigs[order], vecs[:, order]
    keep = eigs > 1e-12
    eigs, vecs = eigs[keep], vecs[:, keep]
    r = int(eigs.size)
    ref = np.eye(r, dtype=complex)
    if reference_unitary is not None:
        ref = np.asarray(reference_unitary, dtype=complex)
        if ref.shape != (r, r):
            raise DimensionError(f"reference unitary must be {r}x{r}, got {ref.shape}")
    phi = np.zeros(rho.dim * r, dtype=complex)
    for k in range(r):
        phi += np.sqrt(eigs[k]) * np.kron(vecs[:, k], ref[:, k])
    phi /= np.linalg.norm(phi)
    return PureState(phi)


def random_rank_one_povm(rng: np.random.Generator, dim: int, outcomes: int) -> Povm:
    """Random rank-one POVM from the first dim columns of a Haar-ish unitary."""
    if outcomes < dim:
        raise DimensionError("need at least dim outcomes")
    g = rng.normal(size=(outcomes, outcomes)) + 1j * rng.normal(size=(outcomes, outcomes))
    q, _ = np.linalg.qr(g)
    iso = q[:, :dim]
    items = []
    for row in iso:
        v = row.conj()
        w = float(np.vdot(v, v).real)
        items.append((w, normalized_state(fix_phase(v))))
    return Povm(items)


def erasure(eps, d):
    """The erasure channel on C^d: the input, or with probability eps the flag |d>."""
    keep = np.sqrt(1 - eps) * np.eye(d + 1, d)
    flag = np.eye(d + 1)[d]
    return QuantumChannel([keep, *[np.sqrt(eps) * np.outer(flag, e) for e in np.eye(d)]])


def weyl_depolarizing(p, d):
    """The depolarizing channel on C^d from the d^2 Weyl operators X^a Z^b, and
    its error probabilities: 1 - p + p/d^2 for the identity, p/d^2 for each other."""
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    ops = [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
           for a in range(d) for b in range(d)]
    probs = np.full(d * d, p / d**2)
    probs[0] += 1 - p
    return QuantumChannel([np.sqrt(q) * op for q, op in zip(probs, ops)]), probs


def write_channel_file(path, name, kraus=None, signals=None, transition=None, metadata=None):
    """Write a .qch file that `channels.parse_channel` reads back."""
    doc = {"name": name}
    if transition is not None:
        doc["transition"] = [[float(x) for x in row] for row in np.asarray(transition)]
    else:
        ops = [np.asarray(a, dtype=complex) for a in kraus]
        doc["dim_out"], doc["dim_in"] = ops[0].shape
        doc["kraus"] = [
            [[[float(x.real), float(x.imag)] for x in row] for row in op] for op in ops
        ]
        if signals is not None:
            doc["signals"] = [
                [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]
                for v in signals
            ]
    if metadata:
        doc["metadata"] = metadata
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_ensemble(dumped) -> Ensemble:
    """The ensemble of a report's `ensemble` field (`cli.dump_ensemble`)."""
    items = []
    for p, payload in dumped:
        arr = np.asarray(payload, dtype=float)
        if arr.ndim == 2:  # vector of [re, im] pairs
            items.append((p, PureState(arr[:, 0] + 1j * arr[:, 1])))
        else:
            items.append((p, DensityMatrix(arr[..., 0] + 1j * arr[..., 1])))
    return Ensemble(items)


def load_povm(dumped) -> Povm:
    """The POVM of a report's `povm` field (`cli.dump_povm`)."""
    items = []
    for q, vec in dumped:
        arr = np.asarray(vec, dtype=float)
        items.append((q, PureState(arr[:, 0] + 1j * arr[:, 1])))
    return Povm(items)
