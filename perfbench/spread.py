#!/usr/bin/env python3
"""Run the benchmark ten times per workload and report the spread.

    python3 perfbench/spread.py [--json out.json]

Every workload of BENCHMARK.json is run with seeds 1 to 10 and the spec's
run_seconds, one run after another.  For every end-to-end metric it prints
the median of the runs and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median, next
to the metric's bound, and the same for the machine_ref_ms each run printed
in its header.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = re.compile(r"machine_ref_ms=([0-9.]+)")
SEEDS = range(1, 11)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in [*bounds, "machine_ref_ms"]}
        for seed in SEEDS:
            done = subprocess.run([*spec["command"], "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True)
            result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {done.returncode}, "
                      f"{result and (result['failed'], result['attempted'])}\n{done.stderr}")
                status = 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            values["machine_ref_ms"].append(float(REFERENCE.search(done.stdout).group(1)))
        summary[workload] = {}
        for name, bound in [*bounds.items(), ("machine_ref_ms", None)]:
            if len(values[name]) < 2:
                continue
            q1, mid, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / mid
            summary[workload][name] = {"median": mid, "q1": q1, "q3": q3, "spread": spread,
                                       "values": values[name]}
            verdict = ("  (machine speed, not a metric)" if bound is None else
                       f"  bound {bound:.2f}{'  OVER A THIRD' if spread > bound / 3 else ''}")
            print(f"{workload:<13} {name:<14} median {mid:12.4f}  spread {spread:6.3f}{verdict}",
                  flush=True)
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
