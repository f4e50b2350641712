"""Smoke test of tools/audit.py on one case per engine."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import qchancap

TOOL = Path(__file__).resolve().parent.parent / "tools" / "audit.py"


def test_audit_runs_one_case_per_engine_and_restores_what_it_wraps(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends --src
    spec = importlib.util.spec_from_file_location("audit", TOOL)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    for name, grid in [("C1INF_CHANNELS", [(3, 2, 0)]), ("C1INF_SEEDS", [0]),
                       ("EA_CHANNELS", ["identity"]), ("EA_BUDGETS", [0.5]),
                       ("C11_FILES", ["identity.qch"]), ("C11_SEEDS", [0])]:
        monkeypatch.setattr(audit, name, grid)
    wrapped = [(importlib.import_module(f"qchancap.{module}"), attr) for module, attr in
               [("c1inf", "minimize_on_sphere"), ("ea", "minimize_on_sphere"),
                ("ea", "_limited_pricing"), ("c11", "_measurement_rows"), ("lp", "solve_lp")]]
    originals = [getattr(module, attr) for module, attr in wrapped]

    assert audit.main(["--src", str(Path(qchancap.__file__).parent.parent)]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert list(summary) == ["c1inf", "limited_ea", "c11"]
    assert [counts["runs"] for counts in summary.values()] == [1, 1, 1]
    assert summary["c1inf"]["runs_per_d"] == {"3": 1}
    assert summary["c1inf"]["search_calls"] > 0
    assert summary["c11"]["kernel_calls"] > 0
    assert [getattr(module, attr) for module, attr in wrapped] == originals
