"""The benchmark's own tests: its checks reject wrong outputs, a failing op
is counted, tracing leaves outputs alone, and BENCHMARK.json lists what the
run reports.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import hostclock  # noqa: E402
import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402
from worker import Tally, is_correct, mismatched_ops  # noqa: E402


def rejects(check, out):
    with pytest.raises(W.CheckFailed):
        check(out)


def shift_report(out, key, delta):
    code, text = out
    lines = []
    for line in text.splitlines():
        k, _, v = line.partition(": ")
        lines.append(f"{k}: {float(v) + delta!r}" if k == key else line)
    return code, "\n".join(lines) + "\n"


# ------------------------------------------------------------- reference

def test_reference_closed_forms():
    assert ref.TRINE_C11 == pytest.approx(0.6454, abs=1e-4)
    assert ref.depolarizing_ce(0.75) == pytest.approx(0.0, abs=1e-12)
    assert ref.depolarizing_c1inf(0.0) == pytest.approx(1.0)
    assert ref.amplitude_damping_ce(0.0) == pytest.approx(2.0, abs=1e-9)
    assert ref.amplitude_damping_q1(0.5) == pytest.approx(0.0, abs=1e-9)
    assert W.TRINE2_SRM == pytest.approx(1.369, abs=1e-3)
    # qmi of the maximally mixed input equals the closed form for Pauli channels
    kraus = [np.sqrt(0.75) * np.eye(2), np.sqrt(0.25) * ref.SZ]
    assert ref.qmi(kraus, np.eye(2) / 2) == pytest.approx(ref.dephasing_ce(0.25), abs=1e-12)
    assert ref.qmi_fw_gap(kraus, np.eye(2) / 2) == pytest.approx(0.0, abs=1e-12)


def test_divergence_radius_brackets_chi():
    kraus = W.random_kraus(np.random.default_rng(5), 3)
    states = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    low = ref.chi(kraus, [0.5, 0.5], states)
    avg = ref.apply(kraus, np.eye(2) / 2)
    assert ref.divergence_radius(kraus, avg) >= low


def test_holevo_capacity_lower_is_tight():
    depol = [np.sqrt(0.7) * np.eye(2)] + [np.sqrt(0.1) * m for m in (ref.SX, ref.SY, ref.SZ)]
    lower = ref.holevo_capacity_lower(depol)
    assert ref.depolarizing_c1inf(0.3) - 1e-8 <= lower <= ref.depolarizing_c1inf(0.3) + 1e-12
    bit_flip = [np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * ref.SX]
    assert ref.holevo_capacity_lower(bit_flip) == pytest.approx(1.0, abs=1e-8)


def test_restricted_chi_max_brackets():
    outs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2]
    lower, upper, _ = ref.restricted_chi_max(outs)
    assert lower <= upper <= lower + 1e-9
    assert upper == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------- c11_accinfo

@pytest.fixture(scope="module")
def trine2_report():
    return W.run_cli(["accinfo", "--channel", "trine2.qch"])


@pytest.fixture(scope="module")
def c11_like_report():
    """A c11 report with two restarts (about 1 s instead of 5 s for eight),
    its restart list padded to eight with copies of the best one."""
    code, text = W.run_cli(["c11", "--channel", "trine.qch", "--restarts", "2",
                            "--seed", str(W.C11_SEED)])
    lines = []
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key == "restart_values":
            values = json.loads(value)
            line = f"{key}: {json.dumps(values + [max(values)] * (8 - len(values)))}"
        lines.append(line)
    return code, "\n".join(lines) + "\n"


def test_accinfo_check_accepts_and_rejects_shifts(trine2_report):
    W.check_accinfo_trine2(trine2_report)
    rejects(W.check_accinfo_trine2, shift_report(trine2_report, "value_bits", 2e-9))
    rejects(W.check_accinfo_trine2, shift_report(trine2_report, "value_bits", -3e-3))
    rejects(W.check_accinfo_trine2, (1, trine2_report[1]))


def test_c11_check_accepts_and_rejects_shifts(c11_like_report):
    W.check_c11(c11_like_report)
    rejects(W.check_c11, shift_report(c11_like_report, "value_bits", 2e-9))
    rejects(W.check_c11, shift_report(c11_like_report, "value_bits", -1e-3))
    rejects(W.check_c11, shift_report(c11_like_report, "cert_restart_spread", 1e-6))


def _sweep_csv(shift_row=None, delta=0.0):
    rows = ["theta,i_acc_bits,h_vn_bits"]
    for j in range(W.SWEEP_STEPS):
        theta = np.pi / 2 * j / (W.SWEEP_STEPS - 1)
        i_acc = ref.fig1_iacc(theta) + (delta if j == shift_row else 0.0)
        rows.append(f"{theta!r},{i_acc!r},{ref.fig1_hvn(theta)!r}")
    return 0, "\r\n".join(rows) + "\r\n"


def test_sweep_check_accepts_and_rejects_shifts():
    W.check_sweep(_sweep_csv())
    rejects(W.check_sweep, _sweep_csv(shift_row=17, delta=2e-4))
    code, text = _sweep_csv()
    rejects(W.check_sweep, (code, text.rsplit("\r\n", 2)[0] + "\r\n"))  # a row missing


# ---------------------------------------------------------- holevo_qubit

@pytest.fixture(scope="module")
def depolarizing_solve():
    from qchancap.c1inf import C1InfProblem, c1inf
    from qchancap.channels import parse_channel
    from qchancap.ea import c_ea

    ch = parse_channel("depolarizing_0.3.qch").channel
    kraus = [np.asarray(a) for a in ch.kraus]
    return (c1inf(C1InfProblem(ch)), c_ea(ch)), kraus, W.BUNDLED["depolarizing_0.3.qch"]


def test_holevo_check_accepts_and_rejects_shifts(depolarizing_solve):
    (res, ce), kraus, refs = depolarizing_solve
    W.check_holevo((res, ce), kraus, *refs)
    for delta in (2e-6, -2e-6):
        rejects(lambda out: W.check_holevo(out, kraus, *refs),
                (dataclasses.replace(res, value=res.value + delta), ce))
        rejects(lambda out: W.check_holevo(out, kraus, *refs),
                (res, dataclasses.replace(ce, value=ce.value + delta)))
    # without closed forms the reference ensemble bounds C_{1,inf} from below
    low = ref.holevo_capacity_lower(kraus)
    W.check_holevo((res, ce), kraus, None, None, low)
    W.check_holevo((res, ce), kraus, None, None, res.value + 5e-7)
    rejects(lambda out: W.check_holevo(out, kraus, None, None, res.value + 2e-6), (res, ce))
    # and the re-evaluations still catch a shift
    rejects(lambda out: W.check_holevo(out, kraus, None, None, low),
            (dataclasses.replace(res, value=res.value - 1e-7), ce))
    rejects(lambda out: W.check_holevo(out, kraus, None, None, low),
            (res, dataclasses.replace(ce, gradient_residual=2e-6)))


# ----------------------------------------------------------- oracle_grids

def test_oracle_checks_reject_shifts():
    true = ref.depolarizing_ce(0.3)
    W.check_bounded(true - W.SLACK_BALL / 2, true, true, W.SLACK_BALL, "grid")
    rejects(lambda v: W.check_bounded(v, true, true, W.SLACK_BALL, "grid"), true + 2e-9)
    rejects(lambda v: W.check_bounded(v, true, true, W.SLACK_BALL, "grid"), true - 2 * W.SLACK_BALL)

    from qchancap.channels import dephasing
    from qchancap.core import PureState
    from qchancap.oracles import simplex_enumerate_chi

    signals = [PureState([1.0, 0.0]), PureState([0.0, 1.0]), PureState([np.sqrt(0.5), np.sqrt(0.5)])]
    ch = dephasing(0.25)
    outs = [ref.apply([np.asarray(a) for a in ch.kraus], s.projector()) for s in signals]
    value, p = simplex_enumerate_chi(ch, signals, 1e-2)
    W.check_simplex((value, p), outs, 3)
    rejects(lambda out: W.check_simplex(out, outs, 3), (value + 1e-6, p))
    rejects(lambda out: W.check_simplex(out, outs, 3), (value - 2 * W.SLACK_SIMPLEX, p))


def test_oracle_work_is_counted_inside_the_oracles():
    from qchancap.channels import amplitude_damping, dephasing
    from qchancap.core import PureState

    oracles = sys.modules["qchancap.oracles"]
    signals = [PureState([1.0, 0.0]), PureState([0.0, 1.0]), PureState([np.sqrt(0.5), np.sqrt(0.5)])]
    counts = {}
    for step in (1.0, 0.5):
        tracer = Tracer()
        tracer.install()
        try:
            oracles.simplex_enumerate_chi(dephasing(0.25), signals, step)
            oracles.grid_density_objective(amplitude_damping(0.3), "coherent", step)
        finally:
            tracer.uninstall()
        counts[step] = tracer.layer_metrics(rounds=1)["oracles.entropy_evals"]
    # at step 1: three signal entropies and the simplex's three vertices, then
    # the output and environment entropies at the ball's centre and six axis points
    assert counts[1.0] == 3 + 3 + 2 * 7
    assert counts[0.5] > counts[1.0]


# ------------------------------------------------------------- the worker

def test_forced_failures_are_counted():
    def boom():
        raise RuntimeError("forced")

    ops = [
        W.Op("good", lambda: 1.0, lambda out: None, repr),
        W.Op("wrong", lambda: 1.0, lambda out: W.require(out == 2.0, "forced wrong value"), repr),
        W.Op("raises", boom, lambda out: None, repr),
    ]
    tally = Tally(calibrate=lambda: 2 * hostclock.REFERENCE_S)  # a host at half speed
    digests, _ = tally.run_round(ops, 0)
    tally.run_round(ops, 1)
    assert tally.attempted == 6
    assert tally.calibrations == [2 * hostclock.REFERENCE_S] * 16  # 2 before the first op and after each
    assert hostclock.to_reference(3.0, tally.calibrations) == pytest.approx(1.5)
    assert len(tally.failures) == 4
    assert digests == ["1.0", None, None]
    assert not is_correct(tally, [])
    # an op that fails in both copies of round 0 is a mismatch, not a match
    assert mismatched_ops(ops, digests, digests) == ["wrong", "raises"]
    clean = Tally(calibrate=lambda: hostclock.REFERENCE_S)
    clean.run_round(ops[:1], 0)
    assert is_correct(clean, mismatched_ops(ops[:1], ["1.0"], ["1.0"]))


def test_tracing_does_not_change_outputs(depolarizing_solve):
    from qchancap.c1inf import C1InfProblem
    from qchancap.channels import parse_channel

    c1inf_module = sys.modules["qchancap.c1inf"]  # the package re-exports a function of that name
    ch = parse_channel("bit_flip_0.1.qch").channel
    plain = W.holevo_digest((c1inf_module.c1inf(C1InfProblem(ch)), depolarizing_solve[0][1]))
    original = c1inf_module.minimize_on_sphere
    tracer = Tracer()
    tracer.install()
    try:
        assert c1inf_module.minimize_on_sphere is not original
        traced = W.holevo_digest((c1inf_module.c1inf(C1InfProblem(ch)), depolarizing_solve[0][1]))
    finally:
        tracer.uninstall()
    assert c1inf_module.minimize_on_sphere is original
    assert traced == plain
    metrics = tracer.layer_metrics(rounds=1)
    assert metrics["c1inf.c1inf.calls"] == 1
    assert metrics["oracles.entropy_evals"] == 0
    assert metrics["lp.solve_lp.calls"] > 0 and metrics["lp.solve_lp.pivots"] > 0
    assert 0 < metrics["optim.minimize_on_sphere.fun_s"] < metrics["optim.minimize_on_sphere.s"]
    top = [s for s in tracer.spans if s[0] == "c1inf.c1inf"][0]
    assert all(s[1] >= top[1] and s[2] <= top[2] for s in tracer.spans)


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _, _ in per_layer_metrics()]
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "wall_s", "op_p50_s", "peak_rss_mib"}
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    import run

    assert list(run.WORKLOADS) == list(W.WORKLOADS)
    assert bench["command"] == ["python3", "perfbench/run.py"]
