"""Tests for the command-line front end."""

import argparse
import csv
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qchancap
from qchancap.cli import (
    RunReport,
    build_parser,
    emit_csv,
    fig1_rows,
    main,
)
from qchancap.core import binary_entropy, channel_ensemble, DensityMatrix
from qchancap.info import accessible_information_given, holevo_chi, quantum_mutual_information

from helpers import load_ensemble, load_povm, write_channel_file


def run_text(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    fields = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    return code, fields


def test_chi_trine(capsys):
    code, fields = run_text(capsys, ["chi", "--channel", "trine.qch"])
    assert code == 0
    assert float(fields["value_bits"]) == pytest.approx(1.0, abs=1e-9)


def test_accinfo_roundtrip(capsys):
    code, fields = run_text(capsys, ["accinfo", "--channel", "trine.qch", "--seed", "5"])
    assert code == 0
    value = float(fields["value_bits"])
    assert value == pytest.approx(np.log2(3) - 1, abs=1e-4)
    # the dumped ensemble and POVM reproduce the reported value
    ens = load_ensemble(json.loads(fields["ensemble"]))
    povm = load_povm(json.loads(fields["povm"]))
    from qchancap.channels import parse_channel

    out_ens = channel_ensemble(parse_channel("trine.qch").channel, ens)
    assert accessible_information_given(out_ens, povm) == pytest.approx(value, abs=1e-7)


def test_c1inf_roundtrip(capsys):
    code, fields = run_text(capsys, ["c1inf", "--channel", "bsc_0.11.qch", "--seed", "1"])
    assert code == 0
    value = float(fields["value_bits"])
    assert value == pytest.approx(1 - binary_entropy(0.11), abs=1e-5)
    ens = load_ensemble(json.loads(fields["ensemble"]))
    from qchancap.channels import parse_channel

    out_ens = channel_ensemble(parse_channel("bsc_0.11.qch").channel, ens)
    assert holevo_chi(out_ens) == pytest.approx(value, abs=1e-7)


def test_cea_roundtrip(capsys):
    code, fields = run_text(capsys, ["cea", "--channel", "identity.qch"])
    assert code == 0
    value = float(fields["value_bits"])
    assert value == pytest.approx(2.0, abs=1e-6)
    arr = np.asarray(json.loads(fields["rho"]), dtype=float)
    rho = DensityMatrix(arr[..., 0] + 1j * arr[..., 1])
    from qchancap.channels import parse_channel

    ch = parse_channel("identity.qch").channel
    assert quantum_mutual_information(ch, rho) == pytest.approx(value, abs=1e-7)


def test_c11_roundtrip(capsys):
    code, fields = run_text(
        capsys, ["c11", "--channel", "two_state_pi3.qch", "--restarts", "2", "--seed", "4"]
    )
    assert code == 0
    value = float(fields["value_bits"])
    ens = load_ensemble(json.loads(fields["ensemble"]))
    povm = load_povm(json.loads(fields["povm"]))
    from qchancap.channels import parse_channel

    out_ens = channel_ensemble(parse_channel("two_state_pi3.qch").channel, ens)
    assert accessible_information_given(out_ens, povm) == pytest.approx(value, abs=1e-7)
    assert value == pytest.approx(1 - binary_entropy(0.5 - np.sin(np.pi / 3) / 2), abs=5e-4)


def test_coherent_report(capsys):
    code, fields = run_text(capsys, ["coherent", "--channel", "dephasing_0.25.qch"])
    assert code == 0
    assert float(fields["value_bits"]) == pytest.approx(0.188722, abs=1e-4)


def _coherent_qutrit(capsys, tmp_path):
    from qchancap.core import random_channel

    path = tmp_path / "qutrit.qch"
    ch = random_channel(np.random.default_rng([5, 3, 2]), 3, 3, 2)
    write_channel_file(path, "qutrit", kraus=ch.kraus)
    return run_text(capsys, ["coherent", "--channel", str(path)])


def _capped_coherent_qutrit(capsys, monkeypatch, tmp_path):
    # after 3 search iterations every start on this qutrit channel still
    # gains more than COHERENT_GAIN in one more
    monkeypatch.setattr(importlib.import_module("qchancap.ea"), "COHERENT_ITERS", 3)
    return _coherent_qutrit(capsys, tmp_path)


def test_cea_converges_on_a_ququart(capsys, tmp_path):
    # an ascent of Frank-Wolfe and projected-gradient steps hit its cap here
    from qchancap.core import random_channel

    path = tmp_path / "ququart.qch"
    ch = random_channel(np.random.default_rng(142), 4, 2, 3)
    write_channel_file(path, "ququart", kraus=ch.kraus)
    code, fields = run_text(capsys, ["cea", "--channel", str(path)])
    assert code == 0 and fields["status"] == "converged"
    assert float(fields["value_bits"]) >= 1.975339655543 - 1e-9


def test_coherent_converges_on_a_qutrit(capsys, tmp_path):
    code, fields = _coherent_qutrit(capsys, tmp_path)
    assert code == 0 and fields["status"] == "converged"
    assert float(fields["value_bits"]) >= 0.69737


def test_coherent_exits_2_when_its_best_start_hits_the_cap(capsys, monkeypatch, tmp_path):
    code, fields = _capped_coherent_qutrit(capsys, monkeypatch, tmp_path)
    assert code == 2 and fields["status"] == "round-limit"


def test_coherent_lists_no_maxima_when_no_start_converges(capsys, monkeypatch, tmp_path):
    # the points where capped starts stopped are not local maxima
    code, fields = _capped_coherent_qutrit(capsys, monkeypatch, tmp_path)
    assert code == 2
    assert fields["cert_local_maxima"] == "0" and json.loads(fields["local_values"]) == []


def _corrupt_file(tmp_path, bundled, place, value):
    """A copy of a bundled channel file with one number replaced by a
    literal that Python's json reads (NaN, Infinity)."""
    from qchancap.channels import resolve_channel_path

    doc = json.loads(resolve_channel_path(bundled).read_text())
    place(doc)[0] = value
    path = tmp_path / "corrupt.qch"
    path.write_text(json.dumps(doc))
    return path


CORRUPT = [
    ("arimoto-blahut", "bsc_0.11_classical.qch", lambda doc: doc["transition"][0],
     "transition matrix"),
    ("chi", "trine.qch", lambda doc: doc["signals"][1][0], "not a unit vector"),
    *[(command, "identity.qch", lambda doc: doc["kraus"][0][0][0], "not trace-preserving")
      for command in ("cea", "coherent", "c1inf")],
]


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("command, bundled, place, invariant", CORRUPT,
                         ids=[case[0] for case in CORRUPT])
def test_a_non_finite_entry_is_rejected(capsys, tmp_path, command, bundled, place, invariant,
                                        value):
    # NaN fails every comparison, so a check of the form defect > tol let it through
    path = _corrupt_file(tmp_path, bundled, place, value)
    assert main([command, "--channel", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert invariant in captured.err


def test_arimoto_blahut_cli(capsys):
    code, fields = run_text(
        capsys, ["arimoto-blahut", "--channel", "bsc_0.11_classical.qch", "--tol", "1e-11"]
    )
    assert code == 0
    assert float(fields["value_bits"]) == pytest.approx(1 - binary_entropy(0.11), abs=1e-9)


def test_arimoto_blahut_reports_round_limit_at_its_iteration_cap(capsys, tmp_path, monkeypatch):
    from qchancap import info

    monkeypatch.setattr(info, "AB_ITERS", 1)
    transition = [[0.9, 0.1], [0.2, 0.8]]
    path = tmp_path / "capped.qch"
    write_channel_file(path, "capped", transition=transition)
    code, fields = run_text(capsys, ["arimoto-blahut", "--channel", str(path)])
    assert code == 2
    assert fields["status"] == "round-limit"
    assert float(fields["cert_gap"]) == pytest.approx(0.025139, abs=1e-6)
    # the returned distribution is the one whose lower bound is returned
    value, dist = info.arimoto_blahut(info.ClassicalChannel(transition))
    joint = info.JointDistribution(dist[:, None] * np.asarray(transition))
    assert abs(info.mutual_information(joint) - value) <= 1e-12


def test_the_package_runs_on_numpy_alone():
    # a None entry in sys.modules makes every import of scipy raise ImportError
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from qchancap.cli import main\n"
              "assert main(['accinfo', '--channel', 'trine.qch']) == 0\n"
              "assert main(['c11', '--channel', 'trine.qch', '--restarts', '2']) == 0\n")
    src = os.path.dirname(os.path.dirname(qchancap.__file__))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr


def test_arimoto_blahut_rejects_quantum_file(capsys):
    assert main(["arimoto-blahut", "--channel", "identity.qch"]) == 1
    assert "transition" in capsys.readouterr().err


QUANTUM_ONLY_ARGV = {
    "chi": [], "accinfo": [], "c11": [], "c1inf": [], "cea": [], "coherent": [],
    "limited-ea": ["--B", "0.5"], "oracle": ["--name", "qmi"],
}


@pytest.mark.parametrize("command", sorted(QUANTUM_ONLY_ARGV))
def test_quantum_subcommands_reject_a_classical_file(capsys, command):
    argv = [command, "--channel", "bsc_0.11_classical.qch", *QUANTUM_ONLY_ARGV[command]]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bsc_0.11_classical.qch: ")
    assert "is classical" in captured.err


def test_c11_on_dephasing_at_seed_2_finishes(capsys):
    # a negligible pivot in one of its measurement masters once lifted an
    # artificial off zero, and the run ended in an LP error
    assert main(["c11", "--channel", "dephasing_0.25.qch", "--seed", "2"]) == 0


def test_missing_channel_is_error(capsys):
    assert main(["chi", "--channel", "nowhere.qch"]) == 1
    assert "not found" in capsys.readouterr().err


def test_unknown_flag_maps_to_error_code(capsys):
    assert main(["chi", "--channel", "trine.qch", "--bogus"]) == 1


def test_chi_requires_signals(capsys):
    assert main(["chi", "--channel", "identity.qch"]) == 1
    assert "signal set" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--channel", "identity.qch", "--name", "simplex-chi"], "simplex-chi needs a channel file with signals"),
    (["sweep", "--curve", "fig2"], "unknown sweep curve 'fig2'"),
], ids=["simplex-chi-without-signals", "unknown-curve"])
def test_unusable_request_is_an_error(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_oracle_subcommand(capsys):
    code, fields = run_text(
        capsys,
        ["oracle", "--channel", "trine.qch", "--name", "simplex-chi", "--step", "0.01"],
    )
    assert code == 0
    assert float(fields["value_bits"]) == pytest.approx(1.0, abs=1e-3)


def test_oracle_accinfo_subcommand(capsys):
    code, fields = run_text(
        capsys, ["oracle", "--channel", "trine.qch", "--name", "accinfo", "--step", "0.01"],
    )
    assert code == 0
    assert fields["status"] == "converged"
    # the grid is a lower bound on the trine's log2(3) - 1, within the
    # README's slack of ~2 step L, L at most a few bits per radian
    exact = np.log2(3) - 1
    assert exact - 2 * 0.01 * 3 <= float(fields["value_bits"]) <= exact + 1e-9


@pytest.mark.parametrize("name", ["accinfo", "qmi", "coherent", "simplex-chi"])
@pytest.mark.parametrize("step", ["-0.1", "0", "nan"])
def test_oracle_subcommand_rejects_bad_step(capsys, name, step):
    code = main(["oracle", "--channel", "trine.qch", "--name", name, "--step", step])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "step must be finite and positive" in captured.err


@pytest.mark.parametrize("name, step", [("qmi", "1e-7"), ("simplex-chi", "1e-7"), ("accinfo", "1e-300"),
                                        ("qmi", "1e-300"), ("coherent", "1e-300"), ("simplex-chi", "1e-300")])
def test_oracle_subcommand_rejects_steps_below_1e_6(capsys, name, step):
    code = main(["oracle", "--channel", "trine.qch", "--name", name, "--step", step])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "grid step must be at least 1e-6" in captured.err


def test_oracle_subcommand_accepts_step_1e_6(capsys):
    code = main(["oracle", "--channel", "identity.qch", "--name", "qmi", "--step", "1e-6"])
    assert code == 0
    assert "value_bits: 2\n" in capsys.readouterr().out


def test_oracle_subcommand_rejects_simplex_step_above_one(capsys):
    code = main(["oracle", "--channel", "trine.qch", "--name", "simplex-chi", "--step", "3"])
    assert code == 1
    assert "simplex step must be at most 1" in capsys.readouterr().err


def test_oracle_subcommand_rejects_step_with_no_ball_point(capsys):
    code = main(["oracle", "--channel", "identity.qch", "--name", "qmi", "--step", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "no lattice point" in captured.err


def test_limited_ea_cli(capsys):
    code, fields = run_text(
        capsys, ["limited-ea", "--channel", "identity.qch", "--B", "0.5"]
    )
    assert code == 0
    value = float(fields["value_bits"])
    assert 1.0 - 1e-6 <= value <= 2.0 + 1e-6
    assert fields["experimental"] == "true"
    ens = load_ensemble(json.loads(fields["ensemble"]))
    from qchancap.channels import parse_channel
    from qchancap.info import limited_ea_objective

    got, _ = limited_ea_objective(parse_channel("identity.qch").channel, ens)
    assert got == pytest.approx(value, abs=1e-7)


def test_limited_ea_cli_reports_the_engine_status(capsys, monkeypatch):
    code, fields = run_text(capsys, ["limited-ea", "--channel", "identity.qch", "--B", "0.5"])
    assert fields["status"] == "converged" and code == 0
    from qchancap import cli
    from qchancap.ea import limited_ea

    for status in ("stalled", "round-limit"):
        monkeypatch.setattr(cli, "limited_ea", lambda *a, s=status: (*limited_ea(*a)[:2], s))
        code, fields = run_text(capsys, ["limited-ea", "--channel", "identity.qch", "--B", "0.5"])
        assert fields["status"] == status and code == 2


def test_round_limit_exit_code(capsys):
    # with no pricing round the initial master is returned uncertified: status
    # round-limit, exit 2
    code, fields = run_text(
        capsys, ["c1inf", "--channel", "amplitude_damping_0.3.qch", "--max-rounds", "0"]
    )
    assert fields["status"] == "round-limit"
    assert code == 2


def test_accinfo_round_limit_status(capsys):
    # with no column-generation round the seed master's square-root
    # measurement is returned, which falls short of the trine's log2(3) - 1
    code, fields = run_text(capsys, ["accinfo", "--channel", "trine.qch", "--max-rounds", "0"])
    assert fields["status"] == "round-limit"
    assert code == 2
    assert float(fields["value_bits"]) == pytest.approx(0.459147917027, abs=1e-11)
    code, fields = run_text(capsys, ["accinfo", "--channel", "trine.qch"])
    assert fields["status"] == "converged" and code == 0


def test_c11_status_follows_its_measurement_steps(capsys):
    # with no column-generation round no measurement step certifies, so the
    # restarts stop gaining without converging
    code, fields = run_text(capsys, ["c11", "--channel", "trine.qch", "--max-rounds", "0",
                                     "--restarts", "2", "--seed", "7"])
    assert fields["status"] == "round-limit"
    assert code == 2


def test_emit_csv_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    with open(path, "w", newline="") as fh:
        emit_csv(("a", "b"), [], fh)
    assert path.read_bytes() == b"a,b\r\n"


def test_emit_csv_float_format(tmp_path):
    path = tmp_path / "row.csv"
    with open(path, "w", newline="") as fh:
        emit_csv(("x",), [(np.pi,)], fh)
    assert path.read_bytes() == b"x\r\n3.14159265359\r\n"


def test_sweep_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--curve", "fig1", "--steps", "5", "--seed", "3", "--out", str(a)]) == 0
    assert main(["sweep", "--curve", "fig1", "--steps", "5", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fig1_endpoints():
    rows = fig1_rows(5)
    theta0, i0, h0 = rows[0]
    assert theta0 == 0.0 and i0 == pytest.approx(0.0, abs=1e-9) and h0 == pytest.approx(0.0, abs=1e-12)
    theta_end, i_end, h_end = rows[-1]
    assert theta_end == pytest.approx(np.pi / 2)
    assert i_end == pytest.approx(1.0, abs=1e-6)
    assert h_end == pytest.approx(1.0, abs=1e-12)


def test_report_csv_row(tmp_path, capsys):
    code = main(["cea", "--channel", "identity.qch", "--format", "csv",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 0
    text = (tmp_path / "r.csv").read_bytes().decode()
    lines = text.strip().split("\r\n")
    assert lines[0].startswith("capacity,value_bits,status")
    assert lines[1].startswith("cea,2,converged")


def test_run_report_text_fields():
    rep = RunReport(capacity="demo", value_bits=0.5, status="converged", seed=3)
    text = rep.to_text()
    assert "capacity: demo" in text
    assert "value_bits: 0.5" in text
    assert "version:" in text


# --- regression: captured reports and the fig1 CSV ---------------------------
# the fig1 digest was captured before the sweep's rows ran in lockstep
# (OpenBLAS 0.3.31, x86-64; another BLAS build may round differently)

CAPTURED_REPORTS = {
    "c11": (["c11", "--channel", "trine.qch", "--restarts", "8", "--seed", "7"], [
        "capacity: c11",
        "value_bits: 0.645421097335",
        "status: converged",
        "seed: 7",
        "cert_restart_spread: 0.0604586755558",
        "restart_values: [0.584962459331, 0.645421097335, 0.645421097335, 0.645421097335, "
        "0.645421097335, 0.584962421779, 0.645421097335, 0.645421097335]",
        "ensemble: [[0.5000000000001622, [[1.0, 0.0], [0.0, 0.0]]], "
        "[0.4999999999998378, [[-0.5, 0.0], [-0.8660254037844386, 0.0]]]]",
        "povm: [[0.9999999999999996, [[0.9659258262890684, 0.0], [-0.2588190451025207, 0.0]]], "
        "[0.9999999999999986, [[0.25881904510252096, 0.0], [0.9659258262890684, 0.0]]]]",
        "version: 0.1.0",
    ]),
    "accinfo": (["accinfo", "--channel", "trine2.qch", "--seed", "5"], [
        "capacity: accinfo",
        "value_bits: 1.36906842294",
        "status: converged",
        "seed: 5",
        "cert_holevo_gap: 0.130931577057",
        "ensemble: [[0.3333333333333333, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]], "
        "[0.3333333333333333, [[0.25, 0.0], [-0.4330127018922193, 0.0], [-0.4330127018922193, 0.0], "
        "[0.7499999999999999, 0.0]]], [0.3333333333333333, [[0.25, 0.0], [0.4330127018922193, 0.0], "
        "[0.4330127018922193, 0.0], [0.7499999999999999, 0.0]]]]",
        "povm: [[0.9999999999999998, [[-1.9626155733547205e-17, 0.0], [-0.7071067811865474, 0.0], "
        "[0.7071067811865475, 0.0], [1.1102230246251565e-16, 0.0]]], [0.9999999999999991, "
        "[[0.985598559653489, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.1691019787257627, 0.0]]], "
        "[0.9999999999999994, [[0.11957315586905015, 0.0], [-0.5, 0.0], [-0.5, 0.0], "
        "[0.696923425058676, 0.0]]], "
        "[0.999999999999999, [[0.11957315586905015, 0.0], [0.5, 0.0], [0.5, 0.0], "
        "[0.696923425058676, 0.0]]]]",
        "version: 0.1.0",
    ]),
    "arimoto-blahut": (["arimoto-blahut", "--channel", "bsc_0.11_classical.qch"], [
        "capacity: arimoto-blahut",
        "value_bits: 0.500084041835",
        "status: converged",
        "cert_gap: 0",
        "input_distribution: [0.5, 0.5]",
        "version: 0.1.0",
    ]),
}


@pytest.mark.parametrize("name", sorted(CAPTURED_REPORTS))
def test_report_is_byte_identical_to_the_captured_run(capsys, name):
    argv, expected = CAPTURED_REPORTS[name]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if not ln.startswith("wall_time_s:")] == expected


def test_sweep_csv_is_byte_identical_to_the_captured_run(tmp_path):
    import hashlib

    path = tmp_path / "fig1.csv"
    assert main(["sweep", "--curve", "fig1", "--steps", "64", "--seed", "3", "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "cfef7c2cf6e028c60194fae5b4d5321cdb5996ae5b0bbf19538a51b2108a66da"


# --- each subcommand takes only the flags its handler reads -------------------

def subcommand_flags():
    """{subcommand: set of its option strings}, --help aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for act in p._actions for s in act.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


OUTPUT_FLAGS = {"--out", "--format"}
SEARCH_FLAGS = {"--channel", "--tol", "--seed", "--starts", "--max-rounds"} | OUTPUT_FLAGS
EXPECTED_FLAGS = {
    "chi": {"--channel"} | OUTPUT_FLAGS,
    "accinfo": SEARCH_FLAGS,
    "c1inf": SEARCH_FLAGS,
    "c11": SEARCH_FLAGS | {"--restarts"},
    "cea": {"--channel", "--tol"} | OUTPUT_FLAGS,
    "arimoto-blahut": {"--channel", "--tol"} | OUTPUT_FLAGS,
    "coherent": {"--channel", "--seed", "--starts"} | OUTPUT_FLAGS,
    "limited-ea": {"--channel", "--seed", "--tol", "--B"} | OUTPUT_FLAGS,
    "oracle": {"--channel", "--name", "--step"} | OUTPUT_FLAGS,
    "sweep": {"--curve", "--steps", "--seed", "--tol", "--out"},
}

# the flags a shared flag set would give every subcommand: each one its
# handler does not read must be rejected
FORMER_COMMON_FLAGS = {"--tol", "--seed", "--starts", "--restarts", "--max-rounds", "--format"}
VALID_ARGV = {
    "chi": ["--channel", "trine.qch"],
    "cea": ["--channel", "identity.qch"],
    "arimoto-blahut": ["--channel", "bsc_0.11_classical.qch"],
    "coherent": ["--channel", "identity.qch"],
    "limited-ea": ["--channel", "identity.qch", "--B", "0.5"],
    "oracle": ["--channel", "trine.qch", "--name", "simplex-chi", "--step", "0.01"],
    "accinfo": ["--channel", "trine.qch"],
    "c1inf": ["--channel", "identity.qch"],
    "sweep": ["--steps", "3"],
}
REMOVED = sorted((cmd, flag) for cmd in VALID_ARGV
                 for flag in FORMER_COMMON_FLAGS - EXPECTED_FLAGS[cmd])


def test_each_subcommand_takes_exactly_its_flags():
    assert subcommand_flags() == EXPECTED_FLAGS
    assert sum(map(len, EXPECTED_FLAGS.values())) == 54
    assert len(REMOVED) == 30


@pytest.mark.parametrize("command, flag", REMOVED)
def test_a_flag_the_handler_does_not_read_is_rejected(capsys, command, flag):
    value = "csv" if flag == "--format" else "1"
    assert main([command, *VALID_ARGV[command], flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


def _fields(cls):
    return [f.name for f in dataclasses.fields(cls)]


def _parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_each_option_is_one_a_caller_sets():
    # option fields are those the CLI or c11 sets; the solver, the chi master,
    # the channel, the pricing, the measurements and the ball oracle take no
    # parameter that only tests would pass
    from qchancap.c11 import C11Options
    from qchancap.c1inf import C1InfOptions, maximize_chi, pricing_search
    from qchancap.core import Povm, QuantumChannel, square_root_measurement
    from qchancap.ea import LimitedEaOptions
    from qchancap.lp import LinearProgram, PricingOutcome, solve_lp
    from qchancap.oracles import grid_density_objective

    assert _fields(C11Options) == ["starts", "pricing_tol", "measurement_rounds"]
    assert _fields(C1InfOptions) == ["tol", "starts", "seed", "max_rounds", "initial_weights"]
    assert _fields(LimitedEaOptions) == ["seed", "tol"]
    assert _fields(LinearProgram) == ["c", "A", "b", "tags"]
    assert _parameters(solve_lp) == ["lp", "warm_basis"]
    assert _parameters(maximize_chi) == ["master", "p"]
    assert _parameters(QuantumChannel) == ["kraus"]
    assert _parameters(grid_density_objective) == ["ch", "objective", "step"]
    assert _parameters(pricing_search) == ["ch", "tau", "starts", "rng", "support"]
    assert _parameters(square_root_measurement) == ["states"]
    assert _parameters(Povm) == ["items"]
    assert _fields(PricingOutcome) == ["columns", "best_violation"]


def test_readme_lists_each_subcommand_with_the_parsers_flags():
    import pathlib
    import re

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    synopsis = section.split("```", 2)[1]
    listed, command = {}, None
    for line in synopsis.splitlines():
        if line.startswith("qchancap "):
            command = line.split()[1]
            listed[command] = set()
        if command is not None:
            listed[command] |= set(re.findall(r"--[A-Za-z][\w-]*", line))
    assert listed == subcommand_flags()


def test_cea_reports_no_seed(capsys):
    code, fields = run_text(capsys, ["cea", "--channel", "identity.qch"])
    assert code == 0 and "seed" not in fields


@pytest.mark.parametrize("steps", [1, 0, -3])
def test_sweep_rejects_fewer_than_two_steps(capsys, steps):
    with pytest.raises(ValueError, match="at least 2 steps"):
        fig1_rows(steps)
    assert main(["sweep", "--curve", "fig1", "--steps", str(steps)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 2 steps" in captured.err


def test_limited_ea_cli_rejects_a_nan_budget(capsys):
    assert main(["limited-ea", "--channel", "identity.qch", "--B", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "entanglement budget must be nonnegative, got nan" in captured.err


def test_limited_ea_cli_infinite_budget_gives_cea(capsys):
    code, fields = run_text(capsys, ["limited-ea", "--channel", "identity.qch", "--B", "inf"])
    assert code == 0
    assert float(fields["value_bits"]) == pytest.approx(2.0, abs=1e-9)


def test_limited_ea_cli_exits_2_when_stalled(capsys, monkeypatch):
    # a pricing that proposes only the master's own columns admits nothing,
    # so the run stalls at the first round that does not gain
    ea_module = importlib.import_module("qchancap.ea")
    monkeypatch.setattr(ea_module, "_limited_pricing",
                        lambda ch, tau, mu, columns, *rest: [(1.0, m) for m in columns])
    argv = ["limited-ea", "--channel", "depolarizing_0.3.qch", "--B", "0.5"]
    code, fields = run_text(capsys, argv)
    assert code == 2 and fields["status"] == "stalled"


# --- a CSV report carries what the text report does ----------------------------

REPORT_ARGV = {
    "chi": ["--channel", "trine.qch"],
    "accinfo": ["--channel", "trine.qch"],
    "c11": ["--channel", "trine.qch", "--restarts", "2"],
    "c1inf": ["--channel", "amplitude_damping_0.3.qch"],
    "cea": ["--channel", "identity.qch"],
    "coherent": ["--channel", "amplitude_damping_0.3.qch"],
    "arimoto-blahut": ["--channel", "bsc_0.11_classical.qch"],
    "limited-ea": ["--channel", "identity.qch", "--B", "0.5"],
    "oracle": ["--channel", "identity.qch", "--name", "qmi", "--step", "0.1"],
}


@pytest.mark.parametrize("command", sorted(c for c in subcommand_flags() if c != "sweep"))
def test_csv_report_carries_the_text_reports_certificates(capsys, tmp_path, command):
    code, fields = run_text(capsys, [command, *REPORT_ARGV[command]])
    path = tmp_path / "r.csv"
    assert main([command, *REPORT_ARGV[command], "--format", "csv", "--out", str(path)]) == code
    with open(path, newline="") as fh:
        header, row = list(csv.reader(fh))
    certs = sorted(key for key in fields if key.startswith("cert_"))
    assert header == ["capacity", "value_bits", "status", "seed", *certs, "version"]
    got = dict(zip(header, row))
    assert {key: got[key] for key in certs} == {key: fields[key] for key in certs}
    for key in ("capacity", "value_bits", "status", "version"):
        assert got[key] == fields[key]
    assert got["seed"] == fields.get("seed", "")


# --- a stopping tolerance must be finite and positive --------------------------

TOL_ARGV = {
    "accinfo": ["--channel", "trine.qch"],
    "c11": ["--channel", "trine.qch"],
    "c1inf": ["--channel", "identity.qch"],
    "cea": ["--channel", "identity.qch"],
    "arimoto-blahut": ["--channel", "bsc_0.11_classical.qch"],
    "limited-ea": ["--channel", "identity.qch", "--B", "0.5"],
    "sweep": ["--steps", "3"],
}


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", sorted(c for c, flags in subcommand_flags().items()
                                           if "--tol" in flags))
def test_a_tolerance_that_certifies_nothing_is_rejected(capsys, command, tol):
    assert main([command, *TOL_ARGV[command], "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must be finite and > 0" in captured.err


@pytest.mark.parametrize("command", sorted(c for c, flags in subcommand_flags().items()
                                           if "--max-rounds" in flags))
def test_a_negative_round_count_is_rejected(capsys, command):
    assert main([command, *TOL_ARGV[command], "--max-rounds", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-rounds must be >= 0, got -1" in captured.err


def test_options_reject_a_negative_round_count():
    from qchancap.c11 import C11Options
    from qchancap.c1inf import C1InfOptions

    with pytest.raises(ValueError, match="^C11Options.measurement_rounds must be >= 0"):
        C11Options(measurement_rounds=-1)
    with pytest.raises(ValueError, match="^C1InfOptions.max_rounds must be >= 0"):
        C1InfOptions(max_rounds=-1)
    assert C11Options(measurement_rounds=0).measurement_rounds == 0
    assert C1InfOptions(max_rounds=0).max_rounds == 0


@pytest.mark.parametrize("command", ["accinfo", "c1inf"])
def test_a_start_count_below_one_is_rejected(capsys, command):
    # a restricted-signal c1inf run never prices, so only the options catch it
    assert main([command, "--channel", "trine.qch", "--starts", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "starts must be >= 1, got -3" in captured.err


def test_options_reject_a_start_count_below_one():
    from qchancap.c11 import C11Options
    from qchancap.c1inf import C1InfOptions

    with pytest.raises(ValueError, match="^C11Options.starts must be >= 1, got 0"):
        C11Options(starts=0)
    with pytest.raises(ValueError, match="^C1InfOptions.starts must be >= 1, got 0"):
        C1InfOptions(starts=0)
    assert C11Options(starts=1).starts == C1InfOptions(starts=1).starts == 1


def test_library_entry_points_reject_a_tolerance_that_certifies_nothing():
    from qchancap.c11 import C11Options
    from qchancap.c1inf import C1InfOptions
    from qchancap.core import identity_channel
    from qchancap.ea import LimitedEaOptions, c_ea
    from qchancap.info import ClassicalChannel, arimoto_blahut

    channel = identity_channel(2)
    checks = {
        "C11Options.pricing_tol": lambda tol: C11Options(pricing_tol=tol),
        "C1InfOptions.tol": lambda tol: C1InfOptions(tol=tol),
        "LimitedEaOptions.tol": lambda tol: LimitedEaOptions(tol=tol),
        "tol": lambda tol: c_ea(channel, tol=tol),
    }
    for tol in (np.nan, np.inf, 0.0, -1.0):
        for name, make in checks.items():
            with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
                make(tol)
        with pytest.raises(ValueError, match="^tol must be finite and > 0"):
            arimoto_blahut(ClassicalChannel(np.eye(2)), tol=tol)
        with pytest.raises(ValueError, match="^C11Options.pricing_tol must be"):
            fig1_rows(3, tol=tol)
