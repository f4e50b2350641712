"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import contextlib
import importlib
import io
import time

import numpy as np
import pytest

from qchancap.core import (
    Ensemble,
    PureState,
    binary_entropy,
    channel_ensemble,
    identity_channel,
    random_channel,
    random_density,
    square_root_measurement,
)
from qchancap.c1inf import (
    C1InfOptions,
    C1InfProblem,
    c1inf,
    pricing_search,
    _pricing_objective,
)
from qchancap.c11 import C11Options, c11, optimize_measurement, _ensemble_arrays, _measurement_objective
from qchancap.channels import (
    bsc_transition,
    depolarizing,
    parse_channel,
    trine_signals,
    two_copy_trine_signals,
)
from qchancap.cli import main
from qchancap.ea import c_ea, limited_ea, qmi_objective
from qchancap.info import (
    ClassicalChannel,
    accessible_information_given,
    arimoto_blahut,
)
from qchancap.optim import EntropySum
from qchancap.oracles import grid_accessible_info_2d, grid_density_objective, simplex_enumerate_chi

c11_module = importlib.import_module("qchancap.c11")  # the package exports c11() by that name


def _report(num, description, block):
    try:
        block()
    except Exception:
        print(f"criterion {num:2d} [FAIL] {description}")
        raise
    print(f"criterion {num:2d} [PASS] {description}")


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    fields = {}
    for line in buf.getvalue().strip().splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    return code, fields


TRINE_C11 = 1 - binary_entropy(0.5 - np.sqrt(3) / 4)  # ~0.6454


def test_criterion_1_trine_c11():
    def block():
        started = time.monotonic()
        code, fields = run_cli(["c11", "--channel", "trine.qch", "--restarts", "8", "--seed", "7"])
        elapsed = time.monotonic() - started
        assert code == 0
        assert float(fields["value_bits"]) == pytest.approx(TRINE_C11, abs=5e-4)
        assert fields["cert_restart_spread"] != ""
        assert elapsed <= 60.0

    _report(1, "trine C_{1,1} = 0.6454 within 5e-4, 8 restarts, <= 60 s", block)


def test_criterion_2_trine_accessible_information():
    def block():
        code, fields = run_cli(["accinfo", "--channel", "trine.qch"])
        assert code == 0
        assert float(fields["value_bits"]) == pytest.approx(np.log2(3) - 1, abs=1e-4)

    _report(2, "trine accessible information = log2(3) - 1 within 1e-4", block)


def test_criterion_3_two_copy_trine():
    def block():
        code, fields = run_cli(["accinfo", "--channel", "trine2.qch"])
        assert code == 0
        value = float(fields["value_bits"])
        assert value >= 1.367
        assert value == pytest.approx(1.369, abs=2e-3)
        # the square-root measurement alone already attains it
        states = two_copy_trine_signals()
        out_ens = channel_ensemble(identity_channel(4), Ensemble([(1 / 3, s) for s in states]))
        srm_value = accessible_information_given(out_ens, square_root_measurement(states))
        assert srm_value == pytest.approx(1.369, abs=2e-3)
        # strictly beats two independent single-copy uses
        assert value > 2 * TRINE_C11 + 1e-3
        assert value > 1.2908

    _report(3, "two-copy trine reaches 1.369 (>= 1.367), beating 2 x 0.6454", block)


def test_criterion_4_figure1_sweep(tmp_path):
    def block():
        started = time.monotonic()
        out = tmp_path / "fig1.csv"
        code = main(["sweep", "--curve", "fig1", "--steps", "64", "--out", str(out)])
        elapsed = time.monotonic() - started
        assert code == 0
        lines = out.read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "theta,i_acc_bits,h_vn_bits"
        assert len(lines) == 65
        for line in lines[1:]:
            theta, i_acc, h_vn = (float(x) for x in line.split(","))
            assert i_acc == pytest.approx(
                1 - binary_entropy(0.5 - np.sin(theta) / 2), abs=1e-4
            )
            assert h_vn == pytest.approx(
                binary_entropy(0.5 - np.cos(theta) / 2), abs=1e-9
            )
            assert i_acc <= h_vn + 1e-9  # Holevo bound pointwise
        assert elapsed <= 120.0

    _report(4, "figure-1 sweep matches both closed forms, I_acc <= H_vN, < 120 s", block)


def test_criterion_5_classical_consistency():
    def block():
        res = c1inf(C1InfProblem(parse_channel("bsc_0.11.qch").channel))
        exact = 1 - binary_entropy(0.11)
        assert res.value == pytest.approx(exact, abs=1e-5)
        ab, _ = arimoto_blahut(ClassicalChannel(bsc_transition(0.11)), tol=1e-11)
        assert res.value == pytest.approx(ab, abs=1e-5)

    _report(5, "BSC-embed(0.11) c1inf = 1 - H2(0.11) = Arimoto-Blahut within 1e-5", block)


def test_criterion_6_ce_endpoints():
    def block():
        res = c_ea(identity_channel(2))
        assert res.value == pytest.approx(2.0, abs=1e-6)
        assert res.gradient_residual < 1e-6
        res = c_ea(depolarizing(0.75))
        assert res.value == pytest.approx(0.0, abs=1e-6)
        assert res.gradient_residual < 1e-6
        res = c_ea(depolarizing(0.3))
        assert res.gradient_residual < 1e-6
        oracle, _ = grid_density_objective(depolarizing(0.3), "qmi", 0.005)
        assert res.value == pytest.approx(oracle, abs=1e-4)

    _report(6, "C_E endpoints (2.0 / 0.0) and depolarizing(0.3) vs Bloch grid, gap < 1e-6", block)


def test_criterion_7_certificate_suite(monkeypatch):
    monkeypatch.setattr(c11_module, "ALTERNATIONS", 4)  # each c11 run is a spot check

    def block():
        started = time.monotonic()
        rng = np.random.default_rng(2026)
        for i in range(50):
            ch = random_channel(rng, 2, 2, int(rng.integers(1, 4)))
            res = c1inf(C1InfProblem(ch, options=C1InfOptions(seed=i)))
            assert res.pricing_residual < 1e-6
            # an independent repricing of the returned dual tau from fresh starts
            repriced = pricing_search(ch, res.tau, 64, np.random.default_rng([7, i]))
            assert max((violation for violation, _ in repriced), default=0.0) < 1e-6
            ce = c_ea(ch)
            assert ce.value >= res.value - 1e-6
            c11_res = c11(ch, restarts=1, seed=i, opts=C11Options(starts=4))
            for row in c11_res.trace:
                assert row["value"] <= row["chi"] + 1e-8

            # gradient spot-checks at a random point per channel
            tau = random_density(rng, 2).mat * rng.normal()
            _check_pricing_grad(ch, tau, rng)
            _check_g_grad(ch, tau, rng)
            _check_qmi_grad(ch, rng)
            _check_measurement_grad(ch, rng)
        assert time.monotonic() - started <= 600.0

    _report(7, "50 random channels: residual and repricing < 1e-6, C_E >= c1inf, "
               "Holevo bound at every c11 iterate, gradients vs FD", block)


def _check_pricing_grad(ch, tau, rng):
    fun_grad = _pricing_objective(ch, tau)
    d = ch.dim_in
    x = rng.normal(size=2 * d)
    x /= np.linalg.norm(x)

    def f_of(xx):
        r = np.linalg.norm(xx)
        return fun_grad((xx[:d] + 1j * xx[d:])[None] / r)[0][0]

    v = x[:d] + 1j * x[d:]
    g = fun_grad(v[None])[1][0]
    gp = g - v * float(np.vdot(v, g).real)
    analytic = np.concatenate([gp.real, gp.imag])
    _assert_fd_match(f_of, x, analytic)


def _check_g_grad(ch, tau, rng):
    rho = random_density(rng, ch.dim_in)
    g = EntropySum([(1.0, ch)], linear=-tau)  # H(N(rho)) - Tr(tau rho)
    _assert_density_fd(g.value, rho.mat, g.grad(rho.mat), rng)


def _check_qmi_grad(ch, rng):
    rho = random_density(rng, ch.dim_in)
    qmi = qmi_objective(ch)
    _assert_density_fd(qmi.value, rho.mat, qmi.grad(rho.mat), rng)


def _check_measurement_grad(ch, rng):
    k = int(rng.integers(2, 4))
    ens = Ensemble(list(zip(rng.dirichlet(np.ones(k)),
                            [random_density(rng, 2) for _ in range(k)])))
    probs, mats, avg = _ensemble_arrays(ens)
    lam = random_density(rng, 2).mat * rng.normal()
    fun_grad = _measurement_objective(probs, mats, avg, lam)
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)

    def f_of(xx):
        r = np.linalg.norm(xx)
        return fun_grad((xx[:2] + 1j * xx[2:])[None] / r)[0][0]

    v = x[:2] + 1j * x[2:]
    g = fun_grad(v[None])[1][0]
    gp = g - v * float(np.vdot(v, g).real)
    _assert_fd_match(f_of, x, np.concatenate([gp.real, gp.imag]))


def _assert_fd_match(f_of, x, analytic, h=1e-5):
    fd = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd[i] = (f_of(x + e) - f_of(x - e)) / (2 * h)
    assert np.linalg.norm(fd - analytic) / max(1.0, np.linalg.norm(fd)) < 1e-5


def _assert_density_fd(value_fn, mat, grad, rng, h=1e-5):
    d = mat.shape[0]
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    delta = (g + g.conj().T) / 2
    delta -= (np.trace(delta) / d) * np.eye(d)
    fd = (value_fn(mat + h * delta) - value_fn(mat - h * delta)) / (2 * h)
    analytic = float(np.trace(grad @ delta).real)
    assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd))


def test_criterion_8_oracle_agreement():
    def block():
        # restricted-signal c1inf vs dense simplex enumeration (3 and 4 signals)
        from qchancap.channels import dephasing

        ch = dephasing(0.25)
        signals3 = [PureState([1.0, 0.0]), PureState([0.0, 1.0]),
                    PureState([np.sqrt(0.5), np.sqrt(0.5)])]
        res = c1inf(C1InfProblem(ch, restricted_signals=signals3))
        oracle, _ = simplex_enumerate_chi(ch, signals3, step=1e-3)
        assert res.value == pytest.approx(oracle, abs=2e-3)

        signals4 = signals3 + [PureState([np.sqrt(0.5), -np.sqrt(0.5)])]
        res4 = c1inf(C1InfProblem(ch, restricted_signals=signals4))
        oracle4, _ = simplex_enumerate_chi(ch, signals4, step=2e-3)
        assert res4.value == pytest.approx(oracle4, abs=2e-3)

        # measurement optimization vs the accessible-information grid
        grid_slack = 5e-5
        for ens in (
            Ensemble([(1 / 3, s) for s in trine_signals()]),
            Ensemble([(0.5, PureState([1, 0])),
                      (0.5, PureState([np.cos(np.pi / 3), np.sin(np.pi / 3)]))]),
        ):
            out_ens = channel_ensemble(identity_channel(2), ens)
            _, engine, _ = optimize_measurement(out_ens)
            oracle_ai = grid_accessible_info_2d(out_ens, 1e-3)
            assert engine >= oracle_ai - 1e-6  # oracle is a lower bound
            assert abs(engine - oracle_ai) <= 1e-4 + grid_slack

    _report(8, "engines agree with simplex and measurement-grid oracles", block)


def test_criterion_9_limited_ea_endpoints():
    def block():
        for ch in (identity_channel(2), depolarizing(0.3)):
            base = c1inf(C1InfProblem(ch))
            top = c_ea(ch)
            v0, _, _ = limited_ea(ch, 0.0)
            assert v0 == pytest.approx(base.value, abs=2e-3)
            v1, _, _ = limited_ea(ch, 1.0)
            assert v1 == pytest.approx(top.value, abs=2e-3)
            sweep = [limited_ea(ch, b)[0] for b in (0.0, 0.25, 0.5, 0.75, 1.0)]
            assert all(b >= a - 1e-6 for a, b in zip(sweep, sweep[1:]))

    _report(9, "limited-entanglement endpoints match c1inf / c_ea, monotone in the budget", block)


def test_criterion_10_deterministic_csv(tmp_path):
    def block():
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--curve", "fig1", "--steps", "16", "--seed", "11"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        args = ["c11", "--channel", "trine.qch", "--restarts", "4", "--seed", "3",
                "--format", "csv"]
        assert main(args + ["--out", str(c)]) == 0
        assert main(args + ["--out", str(d)]) == 0
        assert c.read_bytes() == d.read_bytes()

    _report(10, "fixed seeds give byte-identical CSV output", block)
