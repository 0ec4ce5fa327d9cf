"""Run one workload once per seed and report how much each metric spreads.

    python3 bench/spread.py --workload chain16 --seeds 1-10 [--out FILE]

For each end-to-end metric it prints the median over the runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(Q3 - Q1) / median``, next to the metric's bound from BENCHMARK.json.
Runs are made one after another.  ``--out`` writes every run's metadata and
result plus the summary as JSON, for a ``BENCH_<label>.json`` record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        meta, result = json.loads(lines[0])["meta"], json.loads(lines[-1])
        runs.append({"meta": meta, "result": result})
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    summary = {}
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "bound": m["bound"],
                              "values": values}
        print(f"{m['name']:14s} median {med:.6g} {m['unit']:6s} "
              f"spread {(q3 - q1) / med:.4f} (bound {m['bound']})")
    all_correct = all(r["result"]["correct"] for r in runs)
    print(f"all correct: {all_correct}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
