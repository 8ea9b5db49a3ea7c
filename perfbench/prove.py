"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 perfbench/prove.py [--workloads a,b] [--seeds 0-9] [--out FILE]

For every workload, runs perfbench/run.py once per seed (untraced, with the
run_seconds of BENCHMARK.json) and reports, per metric, the median, the
quartiles, and the spread: the distance between the quartiles of
`statistics.quantiles(values, n=4)` as a share of the median. A spread above
a third of the metric's bound is flagged. With --out, writes the summary and
every run's values as JSON (perfbench/baseline.json is such a file).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1]),
            "run_s": time.perf_counter() - start}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, bench["run_seconds"])
            result = run["result"]
            ok &= result["correct"]
            runs.append({
                "seed": seed, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "passes": run["detail"]["passes"], "run_s": run["run_s"],
                "samples": {k: run["detail"][k] for k in (
                    "warmup_wall_s", "wall_s_samples", "setup_s_samples",
                    "wall_s_measured", "setup_s_measured",
                    "speed_readings_s", "speed_scale")},
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(workload, seed, runs[-1]["passes"], runs[-1]["metrics"],
                  file=sys.stderr, flush=True)
        metrics = {}
        for name in bounds:
            stats = summarise([r["metrics"][name] for r in runs])
            stats["steady"] = stats["spread"] < bounds[name] / 3
            ok &= stats["steady"]
            metrics[name] = stats
            print(f"{workload:16} {name:15} median {stats['median']:.4g} "
                  f"spread {stats['spread']:.3f} bound {bounds[name]}"
                  f"{'' if stats['steady'] else '  NOT STEADY'}", flush=True)
        summary["workloads"][workload] = {
            "environment": run["detail"]["environment"],
            "inputs": run["detail"]["inputs"],
            "metrics": metrics, "runs": runs,
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
