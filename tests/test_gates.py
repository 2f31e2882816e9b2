"""The gate evaluator in ``benchmarks/perf/gates.py``, with stubbed gates.

Each gate function is replaced by a stub that returns chosen values, so
these tests check the table and the verdicts, not the simulator: a
value exactly on its bound passes, and a value just past it fails.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "perf" \
    / "gates.py"
_spec = importlib.util.spec_from_file_location("perf_gates", _PATH)
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)


def on_bounds(quick):
    """gate -> {quantity: the bound of its row in this mode}."""
    return {gate: {quantity: quick_bound if quick else full_bound
                   for quantity, _, quick_bound, full_bound in rows}
            for gate, rows in gates.GATES.items()}


#: (gate, quantity, a value just past its quick bound), written out
#: here rather than derived from the table, so a flipped ``op`` or a
#: loosened bound fails a case.
PAST_QUICK = [
    ("warmup", "speedup", 1.19),
    ("warmup", "warmups_executed", 0),
    ("warmup", "warmups_executed", 2),
    ("warmup", "checkpoint_restores", 0),
    ("warmup", "checkpoint_restores", 2),
    ("sampling", "speedup", 2.99),
    ("sampling", "ipc_error_pct", 5.01),
    ("sampling", "write_blp_error_pct", 5.01),
    ("telemetry", "overhead_pct", 3.01),
    ("telemetry", "measure_traced", False),
    ("adaptive", "instruction_savings_x", 1.99),
    ("adaptive", "winners_match", False),
    ("adaptive", "rounds", 0),
]
#: Values that pass the quick bounds but not the full ones.
PAST_FULL = [
    ("warmup", "speedup", 2.99),
    ("sampling", "speedup", 4.99),
    ("sampling", "ipc_error_pct", 2.01),
    ("sampling", "write_blp_error_pct", 2.01),
]


def stub(monkeypatch, values):
    for gate in gates.GATES:
        monkeypatch.setattr(gates, gate,
                            lambda quick, out=values[gate]: dict(out))


@pytest.mark.parametrize("quick", [True, False])
def test_every_value_on_its_bound_passes(monkeypatch, quick):
    stub(monkeypatch, on_bounds(quick))
    assert gates.main(["--quick"] if quick else []) == 0


def test_every_row_has_a_failing_case():
    rows = {(gate, quantity) for gate, rows in gates.GATES.items()
            for quantity, *_ in rows}
    assert {(gate, quantity) for gate, quantity, _ in PAST_QUICK} == rows


@pytest.mark.parametrize("gate,quantity,value", PAST_QUICK)
def test_one_value_past_its_bound_fails(monkeypatch, gate, quantity, value):
    values = on_bounds(quick=True)
    values[gate][quantity] = value
    stub(monkeypatch, values)
    assert gates.main(["--quick"]) == 1


@pytest.mark.parametrize("gate,quantity,value", PAST_FULL)
def test_full_mode_uses_the_full_bounds(monkeypatch, gate, quantity, value):
    values = on_bounds(quick=False)
    values[gate][quantity] = value
    stub(monkeypatch, values)
    assert gates.main([]) == 1
    quick = on_bounds(quick=True)
    quick[gate][quantity] = value
    stub(monkeypatch, quick)
    assert gates.main(["--quick"]) == 0


def test_json_records_each_verdict(monkeypatch, tmp_path):
    values = on_bounds(quick=True)
    values["sampling"]["speedup"] = 2.9
    stub(monkeypatch, values)
    path = tmp_path / "gates.json"
    assert gates.main(["--quick", "--json", str(path)]) == 1
    report = json.loads(path.read_text())
    assert report["mode"] == "quick" and report["ok"] is False
    failed = [(gate, check["quantity"])
              for gate, body in report["gates"].items()
              for check in body["checks"] if not check["ok"]]
    assert failed == [("sampling", "speedup")]


def test_telemetry_pairs_alternate_which_leg_runs_first(monkeypatch):
    """A host-speed drift inside a pair must not bias every pair one way:
    after the untimed priming run, the timed pairs go off/on, on/off,
    off/on, on/off, off/on."""
    legs = []

    def timed(run):
        legs.append("on" if gates.tele.enabled() else "off")
        return 1.0, type("Result", (), {"phase_breakdown": {"measure": 1}})

    monkeypatch.setattr(gates, "_cpu", timed)
    was_enabled = gates.tele.enabled()
    gates.telemetry(quick=True)
    assert gates.tele.enabled() == was_enabled
    assert legs == ["off"] + ["off", "on", "on", "off"] * 2 + ["off", "on"]
