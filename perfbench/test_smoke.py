"""Smoke test of the harness on the trivial group: realize plus verify.

It runs the workload runner, the correctness gate, the span writer and the
metric printer in about two seconds, without the long C2 runs:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_smoke(trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seconds", "0",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check_printed(lines: list[str], result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1, 0)
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith("%s = " % metric["name"]) for line in lines)
    assert set(result["metrics"]) == {metric["name"] for metric in SPEC[section]}


def test_untraced_run_prints_every_end_to_end_metric():
    lines, result = run_smoke(0)
    check_printed(lines, result, "end_to_end")
    assert result["metrics"]["cert_bytes"]["value"] == 1040
    assert result["metrics"]["setup_s"]["value"] > 0


def test_traced_run_writes_spans_whose_self_times_sum_to_the_wall():
    lines, result = run_smoke(1)
    check_printed(lines, result, "per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["cli.main.calls"] == 1
    assert metrics["realize.run_pipeline.calls"] == 1
    assert metrics["realize.verify_certificate.calls"] == 1
    assert metrics["park.witness.calls"] == 0
    self_total = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert abs(self_total - metrics["harness.op.s"]) < 1e-9

    span_file = next(line.split(" to ", 1)[1] for line in lines if line.startswith("spans written"))
    spans = [json.loads(line) for line in (ROOT / span_file).read_text().splitlines()]
    assert len(spans) == metrics["trace.spans"]
    assert len({span["run"] for span in spans}) == 1
    roots = [span for span in spans if span["parent"] is None]
    assert [span["name"] for span in roots] == ["harness.op"]
    for span in spans:
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_gate_counts_and_reports_a_wrong_answer(tmp_path):
    worker.import_library()
    expected = json.loads((HERE / "expected.json").read_text())
    expected["smoke"]["sha256"] = "0" * 64
    workload = worker.Smoke(expected, None, tmp_path)
    workload.setup()
    records = [workload.collect(workload.operation())]
    attempted, failed, failures = workload.check(records)
    assert (attempted, failed) == (1, 1)
    assert len(failures) == 1 and failures[0].startswith("certificate sha256")
