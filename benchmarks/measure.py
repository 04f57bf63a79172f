"""Re-measure the reference figures: repeated runs of every workload, summarised.

    python3 benchmarks/measure.py --runs 10 --first-seed 1 --trace-runs 2

Runs benchmarks/run.py once per seed and workload (one process each, one
after another, with the run length from BENCHMARK.json), then prints for each
end-to-end metric its median, first and third quartile and the spread
(q3 - q1) / median, together with the share of failed ops.  With
--trace-runs N it also makes N traced runs of each workload on the first seed
and reports whether their counts agree exactly.  The summary is written to
benchmarks/out/summary.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        results = [run(workload, seed, spec["run_seconds"], 0)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        entry = {
            "correct": all(r["correct"] for r in results),
            "failed_fraction": sorted({r["failed"] / r["attempted"] for r in results}),
            "metrics": {name: summarise([r["metrics"][name]["value"] for r in results]) for name in bounds},
            "runs": results,
        }
        for seed, r in enumerate(results, args.first_seed):
            values = "  ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items())
            print(f"{workload} seed {seed}: attempted {r['attempted']} failed {r['failed']} correct {r['correct']}  {values}")
        print(f"{workload}: correct={entry['correct']} failed share {entry['failed_fraction']}")
        for name, s in entry["metrics"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (spread above a third of the bound)"
            print(f"  {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        if args.trace_runs:
            traces = [run(workload, args.first_seed, spec["run_seconds"], 1) for _ in range(args.trace_runs)]
            counts = [{k: v["value"] for k, v in t["metrics"].items() if not k.endswith("self_ms")} for t in traces]
            entry["trace_counts_repeat"] = all(c == counts[0] for c in counts)
            entry["traces"] = traces
            print(f"  traced runs: counts repeat exactly = {entry['trace_counts_repeat']}")
            for name, value in traces[0]["metrics"].items():
                print(f"    {name:26s} {value['value']:.6g} {value['unit']}")
        summary[workload] = entry

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
