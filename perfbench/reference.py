"""Reference values computed apart from the program.

numpy only; nothing here imports qchancap.  Everything is in bits.  The
closed forms are the textbook ones for qubit Pauli channels and the binary
symmetric channel; the amplitude-damping values come from a 1-D scan over
diagonal inputs (the optimum is diagonal by phase covariance).  The
re-evaluation helpers turn a report's dumped ensemble and POVM back into
their mutual information, and an ensemble into its Holevo chi.  For qubit
channels without a closed form, the divergence radius bounds the Holevo
capacity from above and an explicit ensemble search bounds it from below.
"""

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
CLIP = 1e-15


# --------------------------------------------------------------------- entropies

def shannon(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > CLIP]
    return float(-(p * np.log2(p)).sum())


def h2(p) -> float:
    return shannon([p, 1.0 - p])


def h2_array(p: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        m = q > CLIP
        out[m] -= q[m] * np.log2(q[m])
    return out


def von_neumann(mat: np.ndarray) -> float:
    return shannon(np.linalg.eigvalsh((mat + mat.conj().T) / 2))


def logm2(mat: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    logs = np.log2(np.clip(eigs, CLIP, None))
    return (vecs * logs) @ vecs.conj().T


# ----------------------------------------------------------------- trine / fig1

TRINE_C11 = 1.0 - h2(0.5 - np.sqrt(3.0) / 4.0)
TRINE_IACC = np.log2(3.0) - 1.0
TRINE_VECTORS = [
    np.array([1.0, 0.0]),
    np.array([-0.5, np.sqrt(3.0) / 2.0]),
    np.array([-0.5, -np.sqrt(3.0) / 2.0]),
]


def fig1_iacc(theta: float) -> float:
    """Accessible information of two equiprobable pure states at angle theta."""
    return 1.0 - h2(0.5 - np.sin(theta) / 2.0)


def fig1_hvn(theta: float) -> float:
    """von Neumann entropy of their average state."""
    return h2(0.5 - np.cos(theta) / 2.0)


def srm_accessible_information(vectors) -> float:
    """Mutual information of equiprobable pure states under their
    square-root measurement."""
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    k = len(vecs)
    rho = sum(np.outer(v, v.conj()) for v in vecs) / k
    eigs, u = np.linalg.eigh(rho)
    keep = eigs > 1e-12
    inv_sqrt = (u[:, keep] / np.sqrt(eigs[keep])) @ u[:, keep].conj().T
    elements = [inv_sqrt @ np.outer(v, v.conj()) @ inv_sqrt / k for v in vecs]
    joint = np.array([[np.vdot(v, e @ v).real / k for e in elements] for v in vecs])
    return joint_mutual_information(joint)


# ----------------------------------------------------------- closed-form capacities

def bsc_c1inf(p):
    return 1.0 - h2(p)


def bsc_ce(p):
    # the channel measures first, so entanglement cannot help
    return 1.0 - h2(p)


def depolarizing_c1inf(p):
    """rho -> (1 - 4p/3) rho + (2p/3) I."""
    return 1.0 - h2(2.0 * p / 3.0)


def depolarizing_ce(p):
    return 2.0 - shannon([1.0 - p, p / 3.0, p / 3.0, p / 3.0])


def dephasing_c1inf(q):
    return 1.0


def dephasing_ce(q):
    return 2.0 - h2(q)


bit_flip_c1inf = dephasing_c1inf
bit_flip_ce = dephasing_ce


def _scan_max(fun, points: int = 20001, rounds: int = 60) -> float:
    """Maximum of a unimodal function on [0, 1]: grid, then golden section."""
    grid = np.linspace(0.0, 1.0, points)
    vals = fun(grid)
    j = int(np.argmax(vals))
    lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, points - 1)]
    g = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(rounds):
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        if fun(np.array([a]))[0] >= fun(np.array([b]))[0]:
            hi = b
        else:
            lo = a
    return float(max(vals[j], fun(np.array([(lo + hi) / 2]))[0]))


def amplitude_damping_ce(gamma):
    """max over p of H2(p) + H2((1 - gamma) p) - H2(gamma p)."""
    return _scan_max(lambda p: h2_array(p) + h2_array((1 - gamma) * p) - h2_array(gamma * p))


def amplitude_damping_q1(gamma):
    """max over p of H2((1 - gamma) p) - H2(gamma p)."""
    return _scan_max(lambda p: h2_array((1 - gamma) * p) - h2_array(gamma * p))


# ----------------------------------------------------------- channel evaluation

def apply(kraus, mat):
    return sum(a @ mat @ a.conj().T for a in kraus)


def adjoint(kraus, mat):
    return sum(a.conj().T @ mat @ a for a in kraus)


def environment(kraus, mat):
    return np.array([[np.trace(ai @ mat @ aj.conj().T) for aj in kraus] for ai in kraus])


def environment_adjoint(kraus, x):
    k = len(kraus)
    return sum(x[i, j] * (kraus[i].conj().T @ kraus[j]) for i in range(k) for j in range(k))


def chi(kraus, probs, states) -> float:
    """Holevo chi of an input ensemble pushed through the channel.  States
    are vectors or density matrices."""
    mats = [_as_density(s) for s in states]
    outs = [apply(kraus, m) for m in mats]
    avg = sum(p * o for p, o in zip(probs, outs))
    return von_neumann(avg) - sum(p * von_neumann(o) for p, o in zip(probs, outs))


def _as_density(s):
    s = np.asarray(s, dtype=complex)
    return np.outer(s, s.conj()) if s.ndim == 1 else s


def joint_mutual_information(joint: np.ndarray) -> float:
    joint = np.clip(np.asarray(joint, dtype=float), 0.0, None)
    joint = joint / joint.sum()
    return shannon(joint.sum(axis=1)) + shannon(joint.sum(axis=0)) - shannon(joint)


def ensemble_povm_information(probs, states, weights, directions) -> float:
    """I(X;Y) for P(i, j) = p_i q_j <w_j| s_i |w_j>."""
    mats = [_as_density(s) for s in states]
    joint = np.array([
        [p * q * np.vdot(w, m @ w).real for q, w in zip(weights, directions)]
        for p, m in zip(probs, mats)
    ])
    return joint_mutual_information(joint)


def povm_defect(weights, directions) -> float:
    d = len(directions[0])
    total = sum(q * np.outer(w, w.conj()) for q, w in zip(weights, directions))
    return float(np.abs(total - np.eye(d)).max())


def qmi(kraus, rho) -> float:
    """Quantum mutual information H(rho) + H(N(rho)) - H(N^c(rho))."""
    return von_neumann(rho) + von_neumann(apply(kraus, rho)) - von_neumann(environment(kraus, rho))


def qmi_fw_gap(kraus, rho) -> float:
    """Frank-Wolfe gap of the (concave) mutual information at rho: an upper
    bound on C_E - qmi(rho)."""
    d = rho.shape[0]
    grad = (-logm2(rho) - adjoint(kraus, logm2(apply(kraus, rho)))
            + environment_adjoint(kraus, logm2(environment(kraus, rho)))
            - np.eye(d) / np.log(2.0))
    grad = (grad + grad.conj().T) / 2
    return float(np.linalg.eigvalsh(grad)[-1] - np.trace(grad @ rho).real)


def _sphere_states(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)


def _sphere_grid(n: int):
    """Polar and azimuth angles of an n x 2n grid on the Bloch sphere."""
    t, f = np.meshgrid(np.linspace(0.0, np.pi, n), np.linspace(0.0, 2 * np.pi, 2 * n, endpoint=False),
                       indexing="ij")
    return t.ravel(), f.ravel()


def _pure_outputs(kraus, theta, phi) -> np.ndarray:
    """Channel outputs of the pure inputs at these Bloch angles, (N, d, d)."""
    vecs = _sphere_states(np.ravel(theta), np.ravel(phi))
    imgs = np.stack([vecs @ a.T for a in kraus], axis=1)  # (N, k, d_out)
    return np.einsum("nki,nkj->nij", imgs, imgs.conj())


def _neg_entropies(mats: np.ndarray) -> np.ndarray:
    eigs = np.clip(np.linalg.eigvalsh(mats), 0.0, None)
    return np.where(eigs > CLIP, eigs * np.log2(np.where(eigs > CLIP, eigs, 1.0)), 0.0).sum(axis=-1)


def divergence_radius(kraus, sigma, n: int = 121, top: int = 8, levels: int = 6) -> float:
    """max over pure qubit inputs psi of D(N(psi) || sigma).

    For every sigma this is an upper bound on the Holevo capacity, and at the
    optimal output average it equals it.  A polar/azimuth grid of the Bloch
    sphere finds the candidates; the best `top` are refined by shrinking
    local grids to well below 1e-9 in value.
    """
    log_sigma = logm2(sigma)

    def div(theta, phi):
        outs = _pure_outputs(kraus, theta, phi)
        return _neg_entropies(outs) - np.einsum("nij,ji->n", outs, log_sigma).real

    t, f = _sphere_grid(n)
    vals = div(t, f)
    best = float(vals.max())
    offsets = np.linspace(-1.0, 1.0, 11)
    for j in np.argsort(vals)[-top:]:
        ct, cf, width = t[j], f[j], 2 * np.pi / n
        for _ in range(levels):
            dt, df = np.meshgrid(offsets * width, offsets * width, indexing="ij")
            tt, ff = ct + dt.ravel(), cf + df.ravel()
            v = div(tt, ff)
            k = int(np.argmax(v))
            ct, cf, width = tt[k], ff[k], width / 4
            best = max(best, float(v[k]))
    return best


def restricted_chi_max(output_mats, tol: float = 1e-12, max_iter: int = 100000):
    """max over p of chi({p_i, output_i}) by classical-quantum Blahut-Arimoto.

    Returns (lower, upper, p): chi at the last evaluated p, the certified
    upper bound max_i D(out_i || avg) there, and p.
    """
    outs = np.asarray(output_mats, dtype=complex)
    flat = outs.reshape(len(outs), -1)
    neg_h = _neg_entropies(outs)
    p = np.full(len(outs), 1.0 / len(outs))
    for _ in range(max_iter):
        avg = (p @ flat).reshape(outs.shape[1:])
        div = neg_h - (flat @ logm2(avg).T.ravel()).real
        lower, upper = float(p @ div), float(div.max())
        if upper - lower < tol:
            break
        p = p * np.exp2(div)
        p /= p.sum()
    return lower, upper, p


def holevo_capacity_lower(kraus, n: int = 20, size: int = 4, h_min: float = 1e-8) -> float:
    """A lower bound on the Holevo capacity C_{1,inf} of a qubit-input channel:
    chi of an explicit ensemble of `size` pure states (a qubit optimum needs
    at most four).

    Blahut-Arimoto over an n x 2n grid of pure inputs picks `size` well
    separated states and their weights; a compass search over their Bloch
    angles and weights then climbs chi until its step is below h_min.  On the
    channels of the benchmark the bound lies within 2e-8 of the divergence
    radius of its own average, that is, of the capacity.
    """
    t, f = _sphere_grid(n)
    _, _, p = restricted_chi_max(_pure_outputs(kraus, t, f), 1e-4, 5000)
    bloch = np.stack([np.sin(t) * np.cos(f), np.sin(t) * np.sin(f), np.cos(t)], axis=-1)
    pick = []
    for i in np.argsort(-p):
        if len(pick) < size and all(np.linalg.norm(bloch[i] - bloch[j]) > 0.3 for j in pick):
            pick.append(i)
    m = len(pick)

    def value(x):  # x = polar angles, azimuths, square roots of the weights
        outs = _pure_outputs(kraus, x[:m], x[m:2 * m])
        w = x[2 * m:] ** 2 / (x[2 * m:] ** 2).sum()
        return w @ _neg_entropies(outs) - _neg_entropies(np.einsum("n,nij->ij", w, outs)[None])[0]

    x = np.concatenate([t[pick], f[pick], np.ones(m)])
    best, h = value(x), np.pi / n
    while h > h_min:
        moved = False
        for i in range(3 * m):
            for step in (h, -h):
                y = x.copy()
                y[i] += step
                v = value(y)
                if v > best:
                    x, best, moved = y, v, True
                    break
        if not moved:
            h /= 2
    return float(best)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
