"""Tests for channel files and the built-in library."""

import json

import numpy as np
import pytest

from qchancap.channels import (
    ChannelFileError,
    amplitude_damping,
    bit_flip,
    bsc_embed,
    bsc_transition,
    dephasing,
    depolarizing,
    parse_channel,
    resolve_channel_path,
    trine_signals,
    two_copy_trine_signals,
    two_state_signals,
)
from qchancap.c1inf import C1InfProblem, c1inf
from qchancap.core import QuantumChannel, channel_apply_mat, identity_channel

from helpers import write_channel_file


def test_builtin_channels_are_valid():
    for ch in (identity_channel(2), bit_flip(0.1), dephasing(0.25),
               depolarizing(0.3), depolarizing(0.75), amplitude_damping(0.3),
               bsc_embed(0.11)):
        acc = sum(a.conj().T @ a for a in ch.kraus)
        assert np.abs(acc - np.eye(ch.dim_in)).max() < 1e-12


def test_fully_depolarizing_erases_input():
    ch = depolarizing(0.75)
    rng = np.random.default_rng(0)
    from qchancap.core import random_density

    for _ in range(5):
        out = channel_apply_mat(ch, random_density(rng, 2).mat)
        assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_bsc_embed_acts_as_classical_bsc():
    ch = bsc_embed(0.11)
    out = channel_apply_mat(ch, np.diag([1.0, 0.0]))
    assert np.abs(np.diag(out).real - np.array([0.89, 0.11])).max() < 1e-12
    assert np.abs(out - np.diag(np.diag(out))).max() < 1e-12


def test_diagonal_output_is_derived_from_the_kraus_operators():
    from_file, built = parse_channel("bsc_0.11.qch").channel, bsc_embed(0.11)
    assert from_file.diagonal_output and built.diagonal_output
    assert not identity_channel(2).diagonal_output and not dephasing(0.25).diagonal_output
    a, b = c1inf(C1InfProblem(from_file)), c1inf(C1InfProblem(built))
    assert a.value.hex() == b.value.hex()
    assert float(a.dual_gap).hex() == float(b.dual_gap).hex()
    assert a.ensemble.probs.tobytes() == b.ensemble.probs.tobytes()
    assert [s.vec.tobytes() for s in a.ensemble.states] == [s.vec.tobytes() for s in b.ensemble.states]
    # the same channel with its operators mixed by a unitary: each operator
    # now has two nonzero rows, and the outputs take the eigvalsh path
    g = np.random.default_rng(7).normal(size=(4, 4, 2)) @ [1.0, 1j]
    u, _ = np.linalg.qr(g)
    mixed = QuantumChannel([sum(u[i, j] * built.kraus[j] for j in range(4)) for i in range(4)])
    assert not mixed.diagonal_output
    assert c1inf(C1InfProblem(mixed)).value == pytest.approx(a.value, abs=1e-9)


def test_parse_identity_file():
    cf = parse_channel("identity.qch")
    assert cf.channel.dim_in == 2
    assert cf.signals is None


def test_parse_trine_file():
    cf = parse_channel("trine.qch")
    assert cf.signals is not None and len(cf.signals) == 3
    expected = [v.vec for v in trine_signals()]
    for got, want in zip(cf.signals, expected):
        assert np.abs(got.vec - want).max() < 1e-12


def test_parse_classical_file():
    cf = parse_channel("bsc_0.11_classical.qch")
    assert cf.channel is None
    assert np.abs(cf.transition - bsc_transition(0.11)).max() < 1e-12


def test_parse_syntax_error_reports_location(tmp_path):
    p = tmp_path / "broken.qch"
    p.write_text('{"name": "x",\n "kraus": [}\n')
    with pytest.raises(ChannelFileError) as err:
        parse_channel(p)
    assert "line 2" in str(err.value)


def test_parse_trace_violation_reports_defect(tmp_path):
    p = tmp_path / "bad.qch"
    ident = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    p.write_text(json.dumps({"name": "bad", "kraus": [ident, ident]}))
    with pytest.raises(ChannelFileError) as err:
        parse_channel(p)
    assert "trace-preserving" in str(err.value)
    assert "1.0" in str(err.value)


def test_parse_bad_signal(tmp_path):
    p = tmp_path / "sig.qch"
    ident = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    p.write_text(json.dumps({"name": "sig", "kraus": [ident], "signals": [[[2, 0], [0, 0]]]}))
    with pytest.raises(ChannelFileError) as err:
        parse_channel(p)
    assert "unit vector" in str(err.value)


@pytest.mark.parametrize("fields, key", [
    ({"kraus": 5}, "kraus"),
    ({"kraus": None}, "kraus"),
    ({"signals": 3}, "signals"),
    ({"signals": 0}, "signals"),
    ({"signals": [1, 2]}, "signals[0]"),
], ids=["kraus-int", "kraus-null", "signals-int", "signals-zero", "signal-int"])
def test_parse_non_list_fields_is_an_error_not_a_traceback(tmp_path, capsys, fields, key):
    from qchancap.cli import main

    p = tmp_path / "bad.qch"
    ident = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    p.write_text(json.dumps({"name": "bad", "kraus": [ident], **fields}))
    with pytest.raises(ChannelFileError) as err:
        parse_channel(p)
    assert f"{p}: {key}: expected a list" in str(err.value)
    assert main(["c1inf", "--channel", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: {key}: ")


IDENT = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


@pytest.mark.parametrize("doc, message", [
    ({"kraus": [[[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]]}, "kraus[0][0][0]: expected an [re, im] pair"),
    ({"kraus": [[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]]}, "kraus[0][0][0]: non-numeric entry"),
    ({"kraus": [[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]]}, "kraus[0][0][0]: non-numeric entry [True, 0]"),
    ({"kraus": [[]]}, "kraus[0]: expected a nonempty matrix"),
    ({"kraus": [[5, [[0, 0], [1, 0]]]]}, "kraus[0]: row 0 is not a list"),
    ({"kraus": [[[[1, 0], [0, 0]], [[1, 0]]]]}, "kraus[0]: ragged rows (2 vs 1)"),
    ([IDENT], "top level must be an object"),
    ({"name": "bad"}, "needs either 'kraus' or 'transition'"),
    ({"kraus": [IDENT], "signals": [[[1, 0], [0, 0], [0, 0]]]}, "signal 0 has dim 3, channel input is 2"),
    ({"kraus": [IDENT], "dim_in": "2"}, "declared dim_in='2' but Kraus operators give 2"),
], ids=["not-a-pair", "non-numeric", "boolean", "empty-matrix", "row-not-a-list", "ragged",
        "top-level-list", "no-kraus", "signal-dim", "dim-as-string"])
def test_parse_malformed_file_names_the_place(tmp_path, capsys, doc, message):
    from qchancap.cli import main

    p = tmp_path / "bad.qch"
    p.write_text(json.dumps(doc))
    with pytest.raises(ChannelFileError) as err:
        parse_channel(p)
    assert f"{p}: {message}" in str(err.value)
    assert main(["c1inf", "--channel", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: {message}")


def test_parse_dim_mismatch(tmp_path):
    p = tmp_path / "dims.qch"
    ident = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    p.write_text(json.dumps({"name": "dims", "dim_in": 3, "kraus": [ident]}))
    with pytest.raises(ChannelFileError) as err:
        parse_channel(p)
    assert "dim_in" in str(err.value)


def test_resolve_missing_file():
    with pytest.raises(ChannelFileError):
        resolve_channel_path("no_such_channel.qch")


def test_write_parse_roundtrip(tmp_path):
    p = tmp_path / "round.qch"
    ch = amplitude_damping(0.37)
    write_channel_file(p, "round", kraus=ch.kraus,
                       signals=[s.vec for s in two_state_signals(0.7)])
    cf = parse_channel(p)
    for a, b in zip(cf.channel.kraus, ch.kraus):
        assert np.abs(a - b).max() < 1e-15
    assert len(cf.signals) == 2


def test_two_copy_trine_signals():
    sigs = two_copy_trine_signals()
    assert all(s.dim == 4 for s in sigs)
    assert abs(np.vdot(sigs[0].vec, sigs[1].vec) - 0.25) < 1e-12
