"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper batch chain --seeds 1-10 [--trace 1] [--json out.json]

For every workload and end-to-end metric (per-layer with ``--trace 1``)
it prints the median of the runs and the distance between their first
and third quartiles as a share of that median, the figure the bounds in
BENCHMARK.json are set against, plus the share of failed operations and
the wall time of each run.  Runs are sequential, as the benchmark
expects a quiet machine.
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


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {}
    for workload in args.workload:
        runs, walls = [], []
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - t0)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
            runs[-1]["log"] = proc.stderr
        record[workload] = {"seeds": args.seeds, "walls": walls, "runs": runs}
        failed = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"correct {all(r['correct'] for r in runs)}, failed share {failed}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = f"  (bound {bound}, a third {bound / 3:.3f})" if bound else ""
            print(f"  {name:28s} median {med:12.4f}  iqr/median {spread:7.4f}{note}")
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
