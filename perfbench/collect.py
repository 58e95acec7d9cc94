"""Repeat benchmark runs over several seeds and summarize them.

    python3 perfbench/collect.py run --workloads c2_realize c2_verify \\
        --seeds 1-10 --log .perfbench/collect.jsonl
    python3 perfbench/collect.py run --workloads c2_realize c2_verify \\
        --seeds 11-13 --trace 0 1 --log .perfbench/collect.jsonl
    python3 perfbench/collect.py summarize --log .perfbench/collect.jsonl \\
        --out perfbench/baseline.json

``run`` starts run.py once per seed, workload and trace setting, one run at
a time, and appends each result line to the log.  ``summarize`` reports, per
workload and end-to-end metric, the median and quartiles
(``statistics.quantiles`` with n=4) and the spread (q3 - q1) / median, and
flags every spread other than set-up time's that exceeds a third of the
metric's bound.  It also reports the raw wall seconds of the operations,
which no bound applies to, next to ``wall_rel``.  Traced runs give the
per-layer figures (medians).  The tracing overhead is the median, over
untraced runs followed directly by a traced run of the same workload and
seed, of traced minus untraced wall time: the machine's speed drifts by more
than the overhead over minutes, so only back-to-back pairs are compared."""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    log = Path(args.log)
    log.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    runs = [(seed, workload, trace) for seed in parse_seeds(args.seeds)
            for workload in args.workloads for trace in args.trace]
    for seed, workload, trace in runs:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        lines = proc.stdout.splitlines()
        record = {"workload": workload, "seed": seed, "trace": trace,
                  "exit_code": proc.returncode, "run_seconds": elapsed}
        if proc.returncode == 0 and lines:
            record["result"] = json.loads(lines[-1])
            record["machine"] = next((ln for ln in lines if ln.startswith("machine: ")), "")[9:]
            op_line = next((ln for ln in lines if ln.startswith("operation seconds: ")), "")
            record["op_seconds"] = [float(v) for v in op_line.split()[2:]]
        else:
            status = 1
            record["stderr"] = proc.stderr[-2000:]
        with open(log, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        correct = record.get("result", {}).get("correct")
        print("%s seed %d trace %d: exit %d, correct %s, %.1f s"
              % (workload, seed, trace, proc.returncode, correct, elapsed), flush=True)
    return status


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def cmd_summarize(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    records = [json.loads(line) for line in Path(args.log).read_text().splitlines() if line]
    summary: dict = {"machine": "", "workloads": {}}
    status = 0
    for wl in spec["workloads"]:
        name = wl["name"]
        plain = [r for r in records if r["workload"] == name and r["trace"] == 0 and "result" in r]
        traced = [r for r in records if r["workload"] == name and r["trace"] == 1 and "result" in r]
        entry: dict = {
            "runs": len(plain),
            "incorrect_runs": sum(not r["result"]["correct"] for r in plain + traced),
            "run_seconds_median": statistics.median(r["run_seconds"] for r in plain) if plain else None,
            "end_to_end": {},
        }
        summary["machine"] = summary["machine"] or next((r["machine"] for r in plain), "")
        print("%s: %d untraced runs, %d traced" % (name, len(plain), len(traced)))
        for metric, meta in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in plain]
            if len(values) < 2:
                continue
            stats = quartiles(values)
            stats.update(unit=meta["unit"], bound=meta["bound"])
            steady = metric == "setup_s" or stats["spread"] <= meta["bound"] / 3
            status |= not steady
            entry["end_to_end"][metric] = stats
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (bound %.2f)%s"
                  % (metric, stats["median"], stats["q1"], stats["q3"], stats["spread"],
                     meta["bound"], "" if steady else "  NOT STEADY"))
        raw = [statistics.median(r["op_seconds"]) for r in plain if r.get("op_seconds")]
        if len(raw) >= 2:
            entry["raw_op_seconds"] = quartiles(raw)
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (raw wall, no bound)"
                  % ("op_s", *(entry["raw_op_seconds"][k] for k in ("median", "q1", "q3", "spread"))))
        if traced:
            layers = {k: statistics.median(r["result"]["metrics"][k]["value"] for r in traced)
                      for k in traced[0]["result"]["metrics"]}
            entry["traced_runs"] = len(traced)
            entry["per_layer"] = layers
            diffs = [
                b["result"]["metrics"]["harness.op.s"]["value"] - statistics.median(a["op_seconds"])
                for a, b in zip(records, records[1:])
                if a in plain and b in traced and a["seed"] == b["seed"]
            ]
            entry["tracing_overhead_s"] = {
                "back_to_back_pairs": len(diffs),
                "median_traced_minus_untraced": statistics.median(diffs) if diffs else None,
                "wrapper_cost_estimate": layers["trace.overhead_s"],
            }
            print("  tracing overhead: %d back-to-back pairs, median %s s; wrapper estimate %.6f s"
                  % (len(diffs), "%+.4f" % statistics.median(diffs) if diffs else "n/a",
                     layers["trace.overhead_s"]))
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    p_run = subs.add_parser("run", help="run workloads over seeds and log the results")
    p_run.add_argument("--workloads", nargs="+", required=True)
    p_run.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    p_run.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    p_run.add_argument("--log", default=str(ROOT / ".perfbench" / "collect.jsonl"))
    p_run.set_defaults(func=cmd_run)
    p_sum = subs.add_parser("summarize", help="medians, quartiles and spreads from a log")
    p_sum.add_argument("--log", default=str(ROOT / ".perfbench" / "collect.jsonl"))
    p_sum.add_argument("--out", help="write the summary as JSON")
    p_sum.set_defaults(func=cmd_summarize)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
