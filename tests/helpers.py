"""Forms only the test suite needs: a purification, a random POVM, the
erasure, Weyl-depolarizing and random Pauli channels of the closed-form
checks, the every-point reference for the Bloch-ball oracle, a channel-file
writer and readers for the CLI's ensemble and POVM dumps.

The package never calls these, so they live beside the tests that use them.
"""

import json
from pathlib import Path

import numpy as np

from qchancap.core import (
    DensityMatrix,
    DimensionError,
    Ensemble,
    SX,
    SY,
    SZ,
    Povm,
    PureState,
    QuantumChannel,
    binary_entropy,
    fix_phase,
    normalized_state,
    random_channel,
    shannon_entropy,
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


def random_pauli(s):
    """Random Pauli channel s, sqrt(p_i) U_out P_i U_in for the Paulis P_i = I,
    X, Y, Z, with its closed forms.  From default_rng([41, s]): p is Dirichlet
    with every parameter 0.5 (odd s) or 2.0 (even s), then U_in and U_out are
    random unitaries, which leave the closed forms as they are.  Returns (channel,
    C_1inf, C_E): C_1inf = C_11 = 1 - h((1 - max|lambda_i|)/2), lambda the Pauli
    eigenvalues of the Bloch map (King, 2002), and C_E = 2 - H(p) (Bennett,
    Shor, Smolin and Thapliyal, 2002)."""
    rng = np.random.default_rng([41, s])
    p = rng.dirichlet(np.ones(4) * (0.5 if s % 2 else 2.0))
    u_in = random_channel(rng, 2, 2, 1).kraus[0]
    u_out = random_channel(rng, 2, 2, 1).kraus[0]
    paulis = [np.eye(2), SX, SY, SZ]
    ch = QuantumChannel([np.sqrt(q) * u_out @ op @ u_in for q, op in zip(p, paulis)])
    lam = 2.0 * (p[0] + p[1:]) - 1.0  # p_0 + p_i - p_j - p_k
    return ch, 1.0 - binary_entropy((1.0 - np.abs(lam).max()) / 2.0), 2.0 - shannon_entropy(p)


def sweep_ball(f):
    """Every lattice point of a Bloch-ball objective (`oracles._BallObjective`)
    in the ball, one z slice at a time: its largest value and the first
    maximal point in (z, x, y) index order, the reference for the search."""
    xs, ys = np.meshgrid(f.axis, f.axis, indexing="ij")
    best_val, best_n = -np.inf, np.zeros(3)
    for z in f.axis:
        keep = f.inside(xs, ys, z)
        if not keep.any():
            continue
        n = np.stack([xs[keep], ys[keep], np.full(keep.sum(), z)], axis=1)  # (N, 3)
        vals = f.values(n)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_n = float(vals[k]), n[k]
    return best_val, best_n


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
