"""Run one benchmark workload and print every metric by name with its unit.

    python3 perfbench/run.py --workload c2_realize --seed 1 --seconds 60 --trace 0

Workloads, metrics and units are listed in BENCHMARK.json; the known answers
the outputs are checked against are in perfbench/expected.json.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Set-up is timed in several
fresh processes and ``setup_s`` is their median; the last of them goes on to
run the workload.  ``--trace 1`` runs the workload once more with every
library layer wrapped, writes the spans under .perfbench/spans/ and reports
the per-layer metrics.

c2_verify reads the C2 certificate that this checkout's library writes.
It is made once per source tree and kept under .perfbench/, so the first
run of a checkout takes about a minute longer.  ``--seed`` is accepted
and recorded; every workload is deterministic, so it changes nothing."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import worker

ROOT = worker.ROOT
WORKER = Path(worker.__file__).resolve()
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
FIXTURE_TIMEOUT_S = 600.0


class HarnessError(RuntimeError):
    pass


def source_key() -> str:
    """Hash of the library sources: a fixture is reused only by the source
    tree that wrote it."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def fixture_path() -> Path:
    return worker.WORK / ("fixture-" + source_key()) / "c2.cert.json"


def worker_command(args, *extra: str) -> list[str]:
    return [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--fixture", str(fixture_path()),
        *extra,
    ]


def run_child(cmd: list[str], timeout: float) -> tuple[float, str]:
    """Start a worker, time it from start to its ``ready`` line, and wait for
    it to end.  Returns that time and the rest of its standard output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise HarnessError("worker %s exited with code %s" % (" ".join(cmd[2:]), code))
    return ready, rest


def machine_facts(numpy_version: str) -> dict:
    facts = {"nproc": os.cpu_count(), "cpu": platform.machine()}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    facts["python"] = platform.python_version()
    facts["numpy"] = numpy_version
    return facts


def print_layer_table(metrics: dict) -> None:
    names = sorted(
        (name[: -len(".self_s")] for name in metrics if name.endswith(".self_s")),
        key=lambda n: -metrics[n + ".self_s"],
    )
    print("%-34s %7s %10s %10s" % ("span (per operation)", "calls", "total s", "self s"))
    for name in names:
        if metrics[name + ".calls"]:
            print("%-34s %7g %10.4f %10.4f" % (
                name, metrics[name + ".calls"], metrics[name + ".s"], metrics[name + ".self_s"]))
    total_self = sum(metrics[n + ".self_s"] for n in names)
    print("self times sum to %.4f s; traced wall %.4f s; tracing overhead about %.6f s (%d spans)" % (
        total_self, metrics["harness.op.s"], metrics["trace.overhead_s"], metrics["trace.spans"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    try:
        if worker.WORKLOADS[args.workload].needs_fixture and not fixture_path().exists():
            print("making the C2 certificate fixture for this source tree", flush=True)
            subprocess.run(worker_command(args, "--make-fixture"), cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL, timeout=FIXTURE_TIMEOUT_S)
        ready_times = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                ready_times.append(run_child(worker_command(args, "--probe"), CHILD_TIMEOUT_S)[0])
        ready, out = run_child(worker_command(args), CHILD_TIMEOUT_S)
        ready_times.append(ready)
        result = json.loads(out.strip().splitlines()[-1])
    except (HarnessError, subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(ready_times)
    if set(metrics) != set(units):
        print("perfbench: metrics %s differ from BENCHMARK.json %s" % (
            sorted(set(metrics) ^ set(units)), section), file=sys.stderr)
        return 1

    facts = machine_facts(result["numpy"])
    print("workload %s, seed %d, trace %d, %d operation(s)" % (
        args.workload, args.seed, args.trace, result["ops"]))
    print("machine: " + ", ".join("%s %s" % kv for kv in facts.items()))
    print("operation seconds: " + " ".join("%.4f" % t for t in result["op_seconds"]))
    if not args.trace:
        print("median reference piece seconds: " + " ".join("%.6f" % t for t in result["piece_seconds"]))
        print("setup seconds: " + " ".join("%.4f" % t for t in ready_times))
    for point in result["missing_patch_points"]:
        print("trace: this library has no %s" % point)
    for failure in result["failures"]:
        print("INCORRECT: %s" % failure)
    if args.trace:
        print_layer_table(metrics)
        print("spans written to %s" % result["span_file"])
    for name in units:
        print("%s = %r %s" % (name, metrics[name], units[name]))
    print("failed_ratio = %d/%d" % (result["failed"], result["attempted"]))

    print(json.dumps({
        "correct": result["failed"] == 0 and not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
