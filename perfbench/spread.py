"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs run.py once per seed, one run at a time, from the root of the
checkout, and prints for every end-to-end metric the median of the
runs and the distance between the first and third quartile as a share
of that median, next to the bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} "
                  "operations failed")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:16s} median {q2:12.4f}  spread {(q3 - q1) / q2:7.2%}"
              f"  bound {bounds.get(name, float('nan')):.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
