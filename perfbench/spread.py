"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload NAME [NAME ...] [--seeds 1-10]
                                [--seconds S] [--out FILE]

Runs perfbench/run.py once per workload and seed, one run at a time, each in
a fresh process with PYTHONHASHSEED=0, and prints for every metric the median
and the distance between the first and third quartiles as a share of the
median (statistics.quantiles with n=4).  Compare each share with the
metric's bound in BENCHMARK.json.  --out writes the same figures, with the
machine's CPU model and count and the Python version, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
HASH_SEED = "0"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def measure(workload: str, seeds: list[int], seconds: int) -> dict[str, dict]:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        runs.append(metrics)
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{name} {m['value']:.4g}" for name, m in metrics.items()), flush=True)
    summary = {}
    for name in runs[0]:
        q1, median, q3 = statistics.quantiles([r[name]["value"] for r in runs], n=4)
        summary[name] = {"unit": runs[0][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    seconds = args.seconds or json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    report = {}
    for workload in args.workload:
        report[workload] = summary = measure(workload, args.seeds, seconds)
        print(f"{workload}: {len(args.seeds)} seeds, {seconds} s each")
        for name, s in summary.items():
            print(f"  {name:14s} median {s['median']:.6g} {s['unit']:4s} spread {s['spread']:.3f}")
    if args.out:
        meta = {"cpu": cpu_model(), "nproc": os.cpu_count(), "python": platform.python_version(),
                "PYTHONHASHSEED": HASH_SEED, "seeds": args.seeds, "run_seconds": seconds}
        Path(args.out).write_text(json.dumps({"run": meta, "workloads": report}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
