"""Tests for the entanglement-assisted engines."""

import importlib

import numpy as np
import pytest

from qchancap.channels import amplitude_damping
from qchancap.core import (
    QuantumChannel,
    identity_channel,
    random_channel,
    random_density,
    random_pure,
    shannon_entropy,
)
from qchancap.c1inf import (
    C1InfOptions,
    C1InfProblem,
    _newton_direction,
    c1inf,
    caratheodory,
    maximize_chi,
)
from qchancap.ea import (
    _budget_master,
    _density_master,
    c_ea,
    coherent_info_max,
    limited_ea,
    qmi_objective,
)
from qchancap.info import coherent_information, limited_ea_objective, quantum_mutual_information

from helpers import erasure, weyl_depolarizing

c1inf_module = importlib.import_module("qchancap.c1inf")  # the package exports c1inf() by that name
ea_module = importlib.import_module("qchancap.ea")

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def depolarizing(p):
    return QuantumChannel(
        [np.sqrt(1 - p) * np.eye(2), np.sqrt(p / 3) * SX,
         np.sqrt(p / 3) * SY, np.sqrt(p / 3) * SZ]
    )


def dephasing(q):
    return QuantumChannel([np.sqrt(1 - q) * np.eye(2), np.sqrt(q) * SZ])


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


@pytest.mark.parametrize("seed, kraus_count, value", [(39, 3, 1.960701620323),
                                                      (142, 3, 1.975339655543),
                                                      (48, 4, 1.375818026867)])
def test_cea_converges_on_ququarts(seed, kraus_count, value):
    # an ascent of Frank-Wolfe steps and projected-gradient steps ended these
    # below these values, at its iteration cap
    res = c_ea(random_channel(np.random.default_rng(seed), 4, 2, kraus_count))
    assert res.status == "converged" and res.gradient_residual < 1e-7
    assert res.value >= value - 1e-9


@pytest.mark.parametrize("d", [3, 4])
def test_cea_meets_the_closed_forms(d):
    # Bennett, DiVincenzo and Smolin (1997) for erasure; Bennett, Shor, Smolin
    # and Thapliyal (2002) for depolarizing
    res = c_ea(erasure(0.3, d))
    assert res.status == "converged"
    assert res.value == pytest.approx(2 * 0.7 * np.log2(d), abs=1e-12)
    ch, probs = weyl_depolarizing(0.3, d)
    res = c_ea(ch)
    assert res.status == "converged"
    assert res.value == pytest.approx(2 * np.log2(d) - shannon_entropy(probs), abs=1e-12)


@pytest.mark.parametrize("ch", [amplitude_damping(0.3),
                                random_channel(np.random.default_rng(48), 4, 2, 4)],
                         ids=["amplitude damping", "two-round ququart"])
def test_cea_takes_one_frank_wolfe_step_per_round(ch, monkeypatch):
    real, steps = ea_module.ascend_density_step, []

    def spy(*args, **kwargs):
        steps.append(real(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(ea_module, "ascend_density_step", spy)
    res = c_ea(ch)
    assert len(steps) == res.iterations
    assert np.float64(steps[-1][2]).tobytes() == np.float64(res.gradient_residual).tobytes()


@pytest.mark.parametrize("d", [3, 4])
def test_coherent_info_meets_the_erasure_closed_form(d):
    # max(0, 1 - 2 eps) log2 d (Bennett, DiVincenzo and Smolin, 1997)
    res = coherent_info_max(erasure(0.3, d))
    assert res.status == "converged"
    assert res.value == pytest.approx(0.4 * np.log2(d), abs=1e-12)


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


QUBIT_FILES = ["amplitude_damping_0.3.qch", "bit_flip_0.1.qch", "bsc_0.11.qch",
               "dephasing_0.25.qch", "depolarizing_0.3.qch", "fully_depolarizing.qch",
               "identity.qch", "trine.qch", "two_state_pi3.qch"]


@pytest.mark.parametrize("name", QUBIT_FILES)
def test_coherent_converges_on_the_bundled_qubit_channels(name):
    from qchancap.channels import parse_channel

    assert coherent_info_max(parse_channel(name).channel).status == "converged"


@pytest.mark.parametrize("seed, kraus_count", [(18, 3), (21, 3), (39, 3), (40, 4)])
def test_coherent_reaches_the_ball_oracle(seed, kraus_count):
    # channels where a converged Frank-Wolfe ascent once stopped below the grid
    from qchancap.oracles import grid_density_objective

    ch = random_channel(np.random.default_rng(seed), 2, 2, kraus_count)
    res = coherent_info_max(ch)
    assert res.status == "converged"
    assert res.value >= grid_density_objective(ch, "coherent", 0.02)[0] - 1e-9


COHERENT_CAPTURED = [  # channel, value.hex(), number of local maxima, digest
    # a channel is (builder in qchancap.channels, parameter) or the
    # (stream, d, Kraus count) of a random_channel
    (("depolarizing", 0.3), "0x1.8b80000000000p-39", 9, "0a499de09122f15e9ed9e6ae741af4a2"),
    (("amplitude_damping", 0.2), "0x1.032ea4e109cccp-1", 1, "e30988688a743a7f54792b890c36c14c"),
    (("dephasing", 0.25), "0x1.82809d5be7074p-3", 1, "f672f7a4abf160df2c4eaa32617e1a88"),
    ((0, 2, 2), "0x1.1313ab2c2d886p-2", 1, "40893cf1d3cb7f72c33fced2327b6396"),
    ((1, 2, 3), "0x1.7eb9800000000p-38", 9, "9454c7dc748429379c861e32ff9d7597"),
    ((2, 3, 2), "0x1.42c7dbeb55e8cp-1", 1, "b03d0ea43b5863d4f94761e571761b7d"),
    ((3, 4, 2), "0x1.131c889b36f24p+0", 1, "4b0fbdba564f2ab01d73610131d7f426"),
]


@pytest.mark.parametrize("case", COHERENT_CAPTURED, ids=lambda case: str(case[0]))
def test_coherent_starts_keep_their_values_bit_for_bit(case):
    # captured while each start's objective was called on its own row alone;
    # all starts now share one call per evaluation
    import hashlib

    from qchancap import channels

    spec, value_hex, count, digest = case
    if isinstance(spec[0], str):
        ch = getattr(channels, spec[0])(spec[1])
    else:
        stream, d, k = spec
        ch = random_channel(np.random.default_rng([19, stream]), d, d, k)
    res = coherent_info_max(ch)
    h = hashlib.sha256()
    for value, rho in res.local_maxima:
        h.update(np.float64(value).tobytes())
        h.update(rho.mat.tobytes())
    h.update(res.rho_star.mat.tobytes())
    assert (res.value.hex(), res.status, len(res.local_maxima)) == (value_hex, "converged", count)
    assert h.hexdigest()[:32] == digest


def test_cea_status_compares_its_gap_with_tol(monkeypatch):
    full = c_ea(amplitude_damping(0.3))
    assert full.status == "converged" and full.gradient_residual < 1e-7
    # one round leaves this channel's gap above 1e-7; a second round closes it
    monkeypatch.setattr(ea_module, "CEA_ROUNDS", 1)
    short = c_ea(random_channel(np.random.default_rng(142), 4, 2, 3))
    assert short.status == "round-limit" and short.gradient_residual >= 1e-7


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
    v0, ens0, _ = limited_ea(ch, 0.0)
    assert v0 == pytest.approx(1.0, abs=2e-3)
    v1, ens1, _ = limited_ea(ch, 1.0)
    assert v1 == pytest.approx(2.0, abs=2e-3)
    vh, _, _ = limited_ea(ch, 0.5)
    assert 1.0 - 1e-6 <= vh <= 2.0 + 1e-6
    assert vh == pytest.approx(1.5, abs=2e-3)  # the known 1 + B line


def test_limited_ea_endpoints_depolarizing():
    ch = depolarizing(0.3)
    c1 = c1inf(C1InfProblem(ch))
    ce = c_ea(ch)
    v0, _, _ = limited_ea(ch, 0.0)
    assert v0 == pytest.approx(c1.value, abs=2e-3)
    v1, _, _ = limited_ea(ch, 1.0)
    assert v1 == pytest.approx(ce.value, abs=2e-3)


def test_limited_ea_monotone_in_budget():
    ch = identity_channel(2)
    values = [limited_ea(ch, b)[0] for b in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))


def test_limited_ea_budget_respected():
    from qchancap.info import limited_ea_objective

    ch = depolarizing(0.3)
    for budget in (0.0, 0.4):
        value, ens, _ = limited_ea(ch, budget)
        _, avg_entropy = limited_ea_objective(ch, ens)
        assert avg_entropy <= budget + 1e-6


# --- limited entanglement on the chi master with a budget row -------------------

def _time_sharing_channels():
    fixed = [("identity", identity_channel(2)), ("depolarizing", depolarizing(0.3)),
             ("amplitude", amplitude_damping(0.3))]
    return fixed + [(f"rng8-{i}", random_channel(np.random.default_rng([8, i]), 2, 2, 1 + i % 3))
                    for i in range(6)]


TIME_SHARING = _time_sharing_channels()


@pytest.mark.parametrize("seed_key", [5, (8, 8)], ids=["rng5", "rng8-8"])
def test_limited_ea_former_lp_failures_return_within_budget(seed_key):
    # the simplex master of earlier versions raised LpError on these channels
    rng = np.random.default_rng(list(np.atleast_1d(seed_key)))
    ch = random_channel(rng, 2, 2, 2 if seed_key == 5 else 3)
    for budget in (0.0, 0.25, 0.5, 0.75, 1.0):
        value, ens, status = limited_ea(ch, budget)
        got, avg_entropy = limited_ea_objective(ch, ens)
        assert avg_entropy <= budget + 1e-9
        assert got == value
        assert status == "converged"


@pytest.mark.parametrize("case", TIME_SHARING, ids=[name for name, _ in TIME_SHARING])
def test_limited_ea_meets_the_time_sharing_line_and_the_endpoints(case):
    # the formula is concave in the ensemble measure: mixing c1inf's ensemble
    # with c_ea's rho* is a lower bound at every budget
    _, ch = case
    c1, ce = c1inf(C1InfProblem(ch)).value, c_ea(ch)
    v0, _, _ = limited_ea(ch, 0.0)
    assert v0 >= c1 - 1e-9
    for budget in (0.25, 0.5, 0.75):
        share = budget / np.log2(ch.dim_in)
        value, ens, _ = limited_ea(ch, budget)
        assert value >= (1.0 - share) * c1 + share * ce.value - 1e-9
        assert limited_ea_objective(ch, ens)[1] <= budget + 1e-9
    top, _, _ = limited_ea(ch, ce.entanglement_rate)
    assert top >= ce.value - 1e-9


@pytest.mark.parametrize("name, budget", [("identity", 0.25), ("identity", 0.5), ("identity", 0.75),
                                          ("rng8-0", 0.5), ("rng8-3", 0.25)])
def test_limited_ea_drops_members_of_roundoff_weight(name, budget, monkeypatch):
    # on these cases the master ends with a priced density at weight ~1e-16
    import qchancap.ea as ea_module

    ch = dict(TIME_SHARING)[name]
    with monkeypatch.context() as patch:
        patch.setattr(ea_module, "ROUNDOFF_WEIGHT", 0.0)
        raw_value, raw, _ = limited_ea(ch, budget)
    assert min(raw.probs) <= 1e-12
    value, ens, status = limited_ea(ch, budget)
    assert status == "converged"
    assert min(ens.probs) > 1e-12 and len(ens.probs) < len(raw.probs)
    assert abs(value - raw_value) <= 1e-12
    got, avg_entropy = limited_ea_objective(ch, ens)
    assert got == value
    assert avg_entropy <= budget + 1e-12


def test_limited_ea_admits_a_density_once_per_round(monkeypatch):
    # pricing may return one density twice in a round (two starts reaching
    # the same maximum); the master gets it once, as in c1inf's _add_columns
    real_pricing, real_master = ea_module._limited_pricing, ea_module._density_master
    rho = random_density(np.random.default_rng(3), 2).mat
    masters = []

    def pricing(*args):
        if len(masters) == 1:
            return [(1.0, rho), (0.5, rho + 1e-12 * SZ)]
        return real_pricing(*args)

    def master(ch, mats):
        masters.append(list(mats))
        return real_master(ch, mats)

    monkeypatch.setattr(ea_module, "_limited_pricing", pricing)
    monkeypatch.setattr(ea_module, "_density_master", master)
    limited_ea(depolarizing(0.3), 0.5)
    assert sum(np.abs(m - rho).max() <= 1e-9 for m in masters[1]) == 1


def _budget_cases():
    """Density masters whose unconstrained optimum spends more entropy than
    the budget, started from pure columns only (slack row)."""
    rng = np.random.default_rng(31)
    for _ in range(12):
        d = int(rng.integers(2, 4))
        ch = random_channel(rng, d, d, int(rng.integers(1, 4)))
        mats = [random_pure(rng, d).projector() for _ in range(3)]
        mats += [random_density(rng, d).mat for _ in range(4)]
        master, s = _density_master(ch, mats)
        free, _, _ = maximize_chi(master, np.full(len(mats), 1.0 / len(mats)))
        p0 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]) / 3.0
        yield ch, master, s, 0.5 * float(free @ s), p0


def test_budget_master_keeps_the_row_and_complementary_slackness(monkeypatch):
    active = 0
    for ch, master, s, bound, p0 in _budget_cases():
        last = -np.inf
        with monkeypatch.context() as patch:
            for iters in range(40):  # every iterate: the master is deterministic
                patch.setattr(c1inf_module, "MASTER_ITERS", iters)
                p, chi, _, _ = _budget_master(master, s, bound, p0)
                assert p @ s <= bound + 1e-12
                assert chi >= last - 1e-12
                last = chi
        p, chi, div, mu = _budget_master(master, s, bound, p0)
        assert p @ s <= bound + 1e-12 and mu >= 0.0
        if bound - p @ s > 1e-12:
            assert mu == 0.0
        else:
            active += mu > 0.0
        # the pricing objective D_i - mu s_i - lambda, lambda = chi - mu s.p
        reduced = div - mu * s - (chi - mu * (p @ s))
        assert np.abs(reduced[p > 0.0]).max() <= 1e-9
        assert reduced.max() <= 1e-9
    assert active >= 6  # most cases end on the budget row with a positive multiplier


def test_budget_master_on_an_unbinding_budget_is_the_free_master():
    for _, master, s, _, _ in _budget_cases():
        p0 = np.full(len(s), 1.0 / len(s))
        _, free, _ = maximize_chi(master, p0)
        for bound in (np.inf, float(s.max())):
            _, chi, _, mu = _budget_master(master, s, bound, p0)
            assert abs(chi - free) <= 1e-12
            assert mu == 0.0


def test_budget_master_on_a_budget_at_one_columns_entropy():
    # the budget equals a mixed column's entropy: that column is a vertex on
    # its own, not the end of a pair
    for _, master, s, _, p0 in _budget_cases():
        bound = float(s[3])
        p, chi, div, mu = _budget_master(master, s, bound, p0)
        assert p @ s <= bound + 1e-12 and mu >= 0.0
        if bound - p @ s > 1e-12:
            assert mu == 0.0
        reduced = div - mu * s - (chi - mu * (p @ s))
        assert np.abs(reduced[p > 0.0]).max() <= 1e-9
        assert reduced.max() <= 1e-9


def test_budget_master_kkt_hessian_and_newton_step():
    checked = 0
    for _, master, s, _, _ in _budget_cases():
        m = len(s)
        p = np.random.default_rng(m).dirichlet(np.ones(m))
        div, eigs, rot = master.divergences(master.average(p))
        hess = master.hessian(np.arange(m), eigs, rot)
        h = 1e-5
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            fd = (master.divergences(master.average(p + e))[0]
                  - master.divergences(master.average(p - e))[0]) / (2 * h)
            assert np.abs(fd - hess[:, j]).max() / max(1.0, np.abs(fd).max()) < 1e-5
        # on an affinely independent support the Newton step stays on the
        # face and makes the model's gradient constant on the support
        p = caratheodory(master, p)
        support = np.flatnonzero(p > 0.0)
        div, eigs, rot = master.divergences(master.average(p))
        step = _newton_direction(master, p, support, div, eigs, rot)
        if step is None:
            continue
        assert abs(step.sum()) <= 1e-9
        model_grad = (div + master.hessian(np.arange(m), eigs, rot) @ step)[support]
        assert np.ptp(model_grad) <= 1e-8 * max(1.0, np.abs(model_grad).max())
        checked += 1
    assert checked >= 6
