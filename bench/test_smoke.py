"""Smoke test of the benchmark harness, with a tiny run length.

    python3 -m pytest bench/test_smoke.py

Each workload runs its input set once; checks that every metric
BENCHMARK.json names is printed with its unit, that an injected wrong
verdict raises error_rate and clears ``correct``, and that repeated
passes count each operation once and flag a verdict that changes.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)), m["name"]


def test_injected_wrong_verdict_raises_error_rate(monkeypatch):
    sys.path.insert(0, str(HERE))
    import run
    import worker
    from workloads import CheckStream

    lapctrl = worker.load_lapctrl()

    def one_block():
        # The block runs in this interpreter, so the patched verdict is used.
        workload = CheckStream(lapctrl, seed=3)
        job = {"workload": workload.name, "seed": 3, "batch": 0,
               "inputs": workload.generate(0), "trace": False, "climb": False}
        result = worker.execute(job, lapctrl)
        unexpected = [msg for op in result["ops"] for msg in op["unexpected"]]
        return run.end_to_end(workload, [result], 0.0)["error_rate"][0], unexpected

    base_rate, base_unexpected = one_block()
    real = lapctrl.cli.pbh_verdict

    def flipped(L, B):
        verdict = real(L, B)
        return dataclasses.replace(verdict, controllable=not verdict.controllable)

    monkeypatch.setattr(lapctrl.cli, "pbh_verdict", flipped)
    rate, unexpected = one_block()
    assert not base_unexpected
    assert rate > base_rate
    assert unexpected


def test_repeated_passes_count_each_operation_once():
    sys.path.insert(0, str(HERE))
    import run
    from workloads import CheckStream

    def op(batch, op_id, failed):
        return {"batch": batch, "id": op_id, "decisions": 1, "failed": failed, "wrong": []}

    # Pass 4 repeats input batch 0 and pass 5 input batch 1, whose op 0
    # now fails.
    ops = [op(0, 0, 1), op(0, 1, 0), op(1, 0, 0), op(4, 0, 1), op(4, 1, 0), op(5, 0, 1)]
    fixed, changed = run.checked(CheckStream, ops)
    assert CheckStream.SET_BATCHES == 4
    assert len(fixed) == 3 and sum(o["failed"] for o in fixed) == 1
    assert len(changed) == 1 and "input batch 1 op 0" in changed[0]
