"""Tests of the benchmark harness itself: its metric tables, the
correctness gate, and a negative control showing that the gate fails a
deliberately broken model.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402


def _record(check_id, outcome="PASS", info=None):
    return {"id": check_id, "claim": "c", "params": {}, "outcome": outcome,
            "witness": None, "info": info or {}}


def test_benchmark_json_lists_the_emitted_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_gate_holds_records_to_stored_digests():
    good = [_record("a"), _record("b")]
    reference = {"w": {"ids": ["a", "b"], "seeds": {"0": [run.record_digest(r) for r in good]}}}
    gate = run.Gate("w", 0, reference)
    gate.add(good, "same records")
    assert (gate.attempted, gate.failed) == (2, 0)
    gate.add([_record("a", info={"n": 1})], "a changed, b missing")
    assert (gate.attempted, gate.failed) == (4, 2)
    gate.add([_record("a"), _record("b", outcome="SKIPPED")], "b skipped")
    assert (gate.attempted, gate.failed) == (6, 3)


def test_gate_without_stored_digests_compares_passes():
    gate = run.Gate("w", 7, {})
    assert not gate.stored
    gate.add([_record("a"), _record("b", outcome="FAIL")], "first pass")
    assert gate.failed == 1
    gate.add([_record("a", info={"n": 1}), _record("b", outcome="FAIL")], "second pass")
    assert (gate.attempted, gate.failed) == (4, 3)


def test_stored_reference_covers_every_workload():
    reference = run.load_reference()
    for workload in run.WORKLOADS:
        assert run.expected_digests(reference, workload, 0) is not None


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "tower", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_negative_control_flipped_cover_sign_fails_the_gate(tmp_path, monkeypatch):
    """One flipped sign in dualgroup.cover_class_values must make the all-j2
    campaign fail the gate (run in-process at --jobs 1)."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from depthzero import driver, dualgroup  # noqa: F401  (imports every module)

    original = dualgroup.cover_class_values

    @functools.lru_cache(maxsize=None)
    def flipped(kind, order=24):
        values = dict(original(kind, order))
        key = max(values)
        values[key] = -values[key]
        return values

    for name, module in list(sys.modules.items()):
        if name == "depthzero" or name.startswith("depthzero."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, flipped)
    res = child.run_pass("all-j2", 0, 1, tmp_path)
    gate = run.Gate("all-j2", 0)
    gate.add(res["records"], "broken model")
    assert gate.failed > 0
    assert gate.failed / gate.attempted > 0
