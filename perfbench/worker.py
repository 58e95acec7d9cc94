"""One benchmark process for one workload.

It sets the workload up, prints ``ready``, runs the workload's operation
until the run's time is used, checks every output against the known answers
in ``expected.json`` and prints one JSON line with its measurements.
``run.py`` starts it and adds the set-up time, which only the parent can see:

    python3 perfbench/worker.py --workload c2_verify --fixture FILE --seconds 30

``--probe`` stops after ``ready`` (run.py times several set-ups this way);
``--make-fixture`` writes the C2 certificate to FILE and exits."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def import_library() -> None:
    """Import automizer from this checkout's src/ and from nowhere else."""
    package = SRC / "automizer"
    if not (package / "__init__.py").is_file():
        raise SystemExit("perfbench: no automizer sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    automizer = importlib.import_module("automizer")
    if Path(automizer.__file__).resolve().parent != package:
        raise SystemExit("perfbench: automizer imported from %s" % automizer.__file__)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(value) -> str:
    """The certificate's own serialization: sorted keys, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def witness_share(payload: dict, total: int) -> float:
    return len(canonical(payload["embedding"]["witnesses"])) / total


def fixture_failures(data: bytes, pinned: dict) -> list[str]:
    if sha256(data) == pinned["sha256"]:
        return []
    return [
        "fixture certificate: sha256 %s (%d bytes), expected %s (%d bytes)"
        % (sha256(data), len(data), pinned["sha256"], pinned["bytes"])
    ]


def compare(what: str, got, want) -> list[str]:
    return [] if got == want else ["%s: got %r, expected %r" % (what, got, want)]


# -- workloads ----------------------------------------------------------------------


class Workload:
    """setup() runs untimed before ``ready``, operation() is timed,
    collect(outcome) runs untimed right after each operation, and
    check(records) returns (attempted, failed, failure messages).  Library
    names are looked up through their modules at call time, so that trace
    wrappers apply."""

    needs_fixture = False

    def __init__(self, expected: dict, fixture: Path | None, workdir: Path):
        self.expected = expected
        self.fixture = fixture
        self.workdir = workdir

    def collect(self, outcome):
        return outcome


class Realize(Workload):
    """``automizer realize --group C2 --policy full --out FILE``: the whole
    pipeline, witness construction included, and the certificate write."""

    group = "C2"
    key = "c2_realize"

    def setup(self) -> None:
        self.out = self.workdir / ("%s.cert.json" % self.group)
        self.cli = importlib.import_module("automizer.cli")
        self.realize = importlib.import_module("automizer.realize")
        self.grouprep = importlib.import_module("automizer.grouprep")

    def _realize(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["realize", "--group", self.group, "--policy", "full", "--out", str(self.out)]
            return self.cli.main(argv)

    def operation(self):
        return self._realize()

    def collect(self, outcome) -> dict:
        data = self.out.read_bytes()
        return {"exit_code": outcome, "sha256": sha256(data), "bytes": len(data), "data": data}

    def cert_bytes(self, records: list[dict]) -> int:
        return records[0]["bytes"]

    def check(self, records: list[dict]) -> tuple[int, int, list[str]]:
        pinned = self.expected["certificate"]
        want = self.expected[self.key]
        per_op = []
        for rec in records:
            per_op.append(
                compare("exit code", rec["exit_code"], want["exit_code"])
                + compare("certificate sha256", rec["sha256"], pinned["sha256"])
                + compare("certificate bytes", rec["bytes"], pinned["bytes"])
            )
        data = records[0]["data"]
        payload = json.loads(data)
        facts = {
            "accepted": payload.get("accepted"),
            "ambient_order": payload.get("ambient", {}).get("order"),
            "fusion_generators": len(payload.get("fusion_generators", [])),
            "orbit_count": payload.get("biset", {}).get("orbit_count"),
            "m": payload.get("biset", {}).get("m"),
            "n": payload.get("biset", {}).get("n"),
            "prime": payload.get("prime"),
        }
        for name, value in facts.items():
            per_op[0] += compare(name, value, want[name])
        # stored morphisms are not in the file: regenerate the closure once
        A = self.grouprep.InputGroupA.from_name(self.group)
        _, system, _ = self.realize.build_fusion_for(A)
        stored = sum(len(bucket) for bucket in system.store.values())
        per_op[0] += compare("stored morphisms", stored, want["stored_morphisms"])
        # a correct certificate is the fixture c2_verify reads
        if not per_op[0] and self.fixture is not None and not self.fixture.exists():
            write_atomic(self.fixture, data)
        failures = [msg for msgs in per_op for msg in msgs]
        return len(records), sum(1 for msgs in per_op if msgs), failures

    def witness_share(self, records: list[dict]) -> float:
        return witness_share(json.loads(records[0]["data"]), records[0]["bytes"])


class Verify(Workload):
    """Parse the pinned C2 certificate and run verify_certificate on it."""

    key = "c2_verify"
    needs_fixture = True

    def setup(self) -> None:
        self.realize = importlib.import_module("automizer.realize")
        self.data = self.fixture.read_bytes()
        self.input_failures = fixture_failures(self.data, self.expected["certificate"])

    def operation(self):
        cert = self.realize.Certificate.from_json_bytes(self.data)
        ok, _ = self.realize.verify_certificate(cert)
        return ok

    def cert_bytes(self, records) -> int:
        return len(self.data)

    def check(self, records) -> tuple[int, int, list[str]]:
        want = self.expected[self.key]["verdict"]
        failures = list(self.input_failures)
        failed = 0
        for verdict in records:
            msgs = compare("verdict", verdict, want)
            failures += msgs
            failed += bool(msgs or self.input_failures)
        return len(records), failed, failures

    def witness_share(self, records) -> float:
        return witness_share(json.loads(self.data), len(self.data))


class Smoke(Realize):
    """Harness self-test on the trivial group: realize, then verify the file."""

    group = "1"
    key = "smoke"

    def operation(self):
        code = self._realize()
        cert = self.realize.Certificate.from_json_bytes(self.out.read_bytes())
        return code, self.realize.verify_certificate(cert)[0]

    def collect(self, outcome) -> dict:
        code, verdict = outcome
        rec = super().collect(code)
        rec["verdict"] = verdict
        return rec

    def check(self, records) -> tuple[int, int, list[str]]:
        want = self.expected[self.key]
        per_op = [
            compare("exit code", rec["exit_code"], want["exit_code"])
            + compare("certificate sha256", rec["sha256"], want["sha256"])
            + compare("certificate bytes", rec["bytes"], want["bytes"])
            + compare("verdict", rec["verdict"], want["verdict"])
            for rec in records
        ]
        failures = [msg for msgs in per_op for msg in msgs]
        return len(records), sum(1 for msgs in per_op if msgs), failures

    def witness_share(self, records) -> float:
        return 0.0


WORKLOADS = {cls.key: cls for cls in (Realize, Verify, Smoke)}


def write_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".%d.tmp" % os.getpid())
    tmp.write_bytes(data)
    os.replace(tmp, path)


def make_fixture(path: Path) -> None:
    """The C2 certificate as this checkout's library writes it."""
    realize = importlib.import_module("automizer.realize")
    grouprep = importlib.import_module("automizer.grouprep")
    cert = realize.run_pipeline(grouprep.InputGroupA.from_name("C2"))
    write_atomic(path, cert.to_json_bytes())


# -- measurement --------------------------------------------------------------------


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def layer_metrics(tracer: tracing.Tracer, ops: int, workload, records) -> dict:
    """Per-layer figures per operation: inclusive and self seconds and calls
    for every span name, the size counters and the tracing overhead."""
    table = tracer.layer_table()
    metrics = {}
    for name in tracing.SPAN_NAMES:
        row = table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[name + ".s"] = row["s"] / ops
        metrics[name + ".self_s"] = row["self_s"] / ops
        metrics[name + ".calls"] = row["calls"] / ops
    for name in tracing.COUNTER_NAMES:
        metrics[name] = tracer.counters.get(name, 0) / ops
    metrics["realize.witness_bytes_share"] = workload.witness_share(records)
    metrics["trace.spans"] = len(tracer.spans) / ops
    metrics["trace.overhead_s"] = tracing.wrapper_cost() * len(tracer.spans) / ops
    return metrics


def run(args, expected: dict) -> dict:
    workdir = WORK / ("run-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, expected: dict, workdir: Path) -> dict:
    fixture = Path(args.fixture) if args.fixture else None
    workload = WORKLOADS[args.workload](expected, fixture, workdir)
    workload.setup()
    tracer = None
    missing: list[str] = []
    if args.trace:
        run_id = "%s-seed%d-%d" % (args.workload, args.seed, time.time_ns())
        tracer = tracing.Tracer(run_id)
        restore, missing = tracing.install(tracer)
    print("ready", flush=True)
    if args.probe:
        return {}

    times: list[float] = []
    # untraced operations run under the speed sampler, traced ones do not;
    # piece_times holds the median reference piece seconds of each operation
    sampler = None if tracer else reference.SpeedSampler()
    piece_times: list[float] = []
    records = []
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    while True:
        with tracer.root() if tracer else sampler:
            t0 = time.perf_counter()
            outcome = workload.operation()
            t1 = time.perf_counter()
        times.append(t1 - t0)
        if len(times) == 1:
            # a user's process runs one operation: later ones only add heap
            # fragmentation, and how many fit depends on the machine's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if sampler:
            piece_times.append(statistics.median(sampler.samples))
        records.append(workload.collect(outcome))
        # another operation only if it is expected to end within the run
        if (t1 - start) + statistics.mean(times) > args.seconds:
            break
    cpu = cpu_seconds() - cpu0
    if tracer:
        restore()

    attempted, failed, failures = workload.check(records)
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "ops": len(times),
        "op_seconds": times,
        "piece_seconds": piece_times,
        "missing_patch_points": missing,
        "numpy": importlib.import_module("numpy").__version__,
    }
    if tracer:
        metrics = layer_metrics(tracer, len(times), workload, records)
        metrics["proc.cpu_s"] = cpu / len(times)
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        span_file = spans_dir / (tracer.run_id + ".jsonl")
        tracer.write(span_file)
        result["span_file"] = str(span_file.relative_to(ROOT))
    else:
        relative = [op / piece for op, piece in zip(times, piece_times)]
        metrics = {
            "wall_rel": statistics.median(relative),
            "peak_rss_mb": peak_rss_mb,
            "cert_bytes": workload.cert_bytes(records),
        }
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture", help="C2 certificate file read by c2_verify")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--make-fixture", action="store_true", help="write the fixture and exit")
    args = parser.parse_args(argv)
    expected = json.loads((HERE / "expected.json").read_text())
    import_library()
    if args.make_fixture:
        make_fixture(Path(args.fixture))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args, expected)
    if not args.probe:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
