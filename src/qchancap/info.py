"""Classical and quantum information functionals.

Mutual information, Holevo chi, accessible information for a fixed
measurement, quantum mutual information, coherent information, the
limited-entanglement objective, and the Arimoto-Blahut iteration for
classical channel capacity.  Everything is in bits.
"""

import numpy as np

from .core import (
    DensityMatrix,
    DimensionError,
    Ensemble,
    InvariantError,
    Povm,
    QuantumChannel,
    channel_apply_mat,
    check_tolerance,
    environment_output,
    log2_clipped,
    matrix_entropy,
    povm_probabilities,
    von_neumann_entropy,
)

AB_ITERS = 200_000  # arimoto_blahut's iteration cap


class JointDistribution:
    """A joint probability matrix P(x, y): nonnegative entries summing to 1."""

    __slots__ = ("table",)

    def __init__(self, table):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2:
            raise DimensionError(f"joint distribution must be a matrix, got shape {table.shape}")
        if not table.min() >= 0.0:  # NaN fails every comparison
            raise InvariantError(f"joint probabilities must be nonnegative: min {table.min():.3e}")
        if not abs(table.sum() - 1.0) <= 1e-9:
            raise InvariantError(f"joint probabilities sum to {table.sum()!r}")
        self.table = table.copy()
        self.table.flags.writeable = False

    def marginal_x(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def marginal_y(self) -> np.ndarray:
        return self.table.sum(axis=0)


class ClassicalChannel:
    """Transition matrix P(y|x); one row per input, each row stochastic (1e-10)."""

    __slots__ = ("transitions",)

    def __init__(self, transitions):
        t = np.asarray(transitions, dtype=float)
        if t.ndim != 2 or not t.min() >= -1e-12:  # NaN fails every comparison
            raise InvariantError("transition matrix must be nonnegative and 2-d")
        rows = t.sum(axis=1)
        if not np.abs(rows - 1.0).max() <= 1e-10:
            raise InvariantError(f"rows must sum to 1; max deviation {np.abs(rows - 1.0).max():.3e}")
        self.transitions = np.clip(t, 0.0, None)
        self.transitions.flags.writeable = False


def _entropy_raw(p: np.ndarray) -> float:
    return float(-(p * log2_clipped(p, 0.0)).sum())


def mutual_information(joint: JointDistribution) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y), cross-checked against H(Y) - H(Y|X)."""
    t = joint.table
    px, py = joint.marginal_x(), joint.marginal_y()
    value = _entropy_raw(px) + _entropy_raw(py) - _entropy_raw(t.reshape(-1))
    # second form as a numerical self-check
    h_cond = 0.0
    for x in range(t.shape[0]):
        if px[x] > 1e-300:
            h_cond += px[x] * _entropy_raw(t[x] / px[x])
    alt = _entropy_raw(py) - h_cond
    if abs(value - alt) > 1e-10:
        raise ArithmeticError(
            f"mutual information self-check failed: {value!r} vs {alt!r}"
        )
    return max(value, 0.0)


def holevo_chi(ens: Ensemble) -> float:
    """chi = H(sum_i p_i s_i) - sum_i p_i H(s_i); nonnegative."""
    avg = ens.average_density()
    inner = sum(
        p * von_neumann_entropy(DensityMatrix(m))
        for p, m in zip(ens.probs, ens.density_mats())
        if p > 0.0
    )
    return max(von_neumann_entropy(avg) - inner, 0.0)


def accessible_information_given(ens: Ensemble, povm: Povm) -> float:
    """I(X;Y) for the joint P(i, j) = p_i q_j w_j^dag s_i w_j of one fixed
    rank-one measurement."""
    if ens.dim != povm.dim:
        raise DimensionError(f"ensemble dim {ens.dim} != POVM dim {povm.dim}")
    rows = [
        p * povm_probabilities(povm, DensityMatrix(m))
        for p, m in zip(ens.probs, ens.density_mats())
    ]
    table = np.clip(np.stack(rows), 0.0, None)
    table = table / table.sum()
    return mutual_information(JointDistribution(table))


def coherent_information(ch: QuantumChannel, rho: DensityMatrix) -> float:
    """H(N(rho)) - H(N^c(rho)); may be negative."""
    if rho.dim != ch.dim_in:
        raise DimensionError(f"state dim {rho.dim} != channel input dim {ch.dim_in}")
    out = DensityMatrix(channel_apply_mat(ch, rho.mat))
    return von_neumann_entropy(out) - matrix_entropy(environment_output(ch, rho.mat))


def quantum_mutual_information(ch: QuantumChannel, rho: DensityMatrix) -> float:
    """H(rho) + H(N(rho)) - H(N^c(rho)).

    Built as H(rho) + coherent_information so the identity
    qmi = coherent + H(rho) holds exactly, sharing intermediates.
    """
    return von_neumann_entropy(rho) + coherent_information(ch, rho)


def limited_ea_objective(ch: QuantumChannel, ens: Ensemble) -> tuple:
    """Value of the limited-entanglement formula for one ensemble of densities.

    Returns (value, average input entropy); the latter is the quantity the
    entanglement budget constrains.
    """
    if ens.dim != ch.dim_in:
        raise DimensionError(f"ensemble dim {ens.dim} != channel input dim {ch.dim_in}")
    avg_in = ens.average_density()
    avg_entropy = 0.0
    value = von_neumann_entropy(DensityMatrix(channel_apply_mat(ch, avg_in.mat)))
    for p, m in zip(ens.probs, ens.density_mats()):
        if p <= 0.0:
            continue
        rho_i = DensityMatrix(m)
        h_i = von_neumann_entropy(rho_i)
        avg_entropy += p * h_i
        value += p * (h_i - matrix_entropy(environment_output(ch, rho_i.mat)))
    return value, avg_entropy


def arimoto_blahut(channel: ClassicalChannel, tol: float = 1e-9, trace: list = None) -> tuple:
    """Capacity of a discrete memoryless channel with a two-sided stopping rule.

    Returns (capacity, input distribution).  Iterates the standard
    multiplicative update, at most AB_ITERS times; stops once the
    max-vs-mean divergence bounds pinch to within tol.  The achievable lower
    bound I(r) is reported; when `trace` is a list it collects (lower,
    upper) per iteration.
    """
    check_tolerance(tol, "tol")
    p = channel.transitions
    m = p.shape[0]
    r = np.full(m, 1.0 / m)
    logp = log2_clipped(p, 0.0)
    lower = -np.inf
    for _ in range(AB_ITERS):
        s = r @ p  # output marginal
        logs = log2_clipped(s, 0.0)
        # divergence of each row from the output marginal
        d = np.einsum("xy,xy->x", p, logp - logs[None, :])
        lower = float(r @ d)
        upper = float(d.max())
        if trace is not None:
            trace.append((lower, upper))
        if upper - lower < tol:
            break
        r = r * np.exp2(d - d.max())
        r = r / r.sum()
    return lower, r
