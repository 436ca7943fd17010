"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance as a share of the median).

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--label NAME]

Runs go one at a time, in the order given, with the run length from
BENCHMARK.json. The summary is printed and written to
`perfbench/out/steadiness-<label>.json`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--label", default=time.strftime("%Y%m%dT%H%M%S"))
    args = p.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            runs.append(result)
            print(workload, seed, f"{wall:.1f}s",
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  proc.stderr.strip().splitlines()[-1], flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        summary[workload] = {
            "metrics": metrics,
            "correct": all(r["correct"] for r in runs),
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "wall_s": sum(r["wall_s"] for r in runs),
        }
        for name, m in metrics.items():
            print(f"  {workload} {name}: median {m['median']:.4g} "
                  f"q1 {m['q1']:.4g} q3 {m['q3']:.4g} spread {m['spread']:.3f}",
                  flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"steadiness-{args.label}.json").write_text(
        json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
