"""Reference figures: per-stage times at three sizes, and batch workers 1 vs 2.

    python3 perfbench/reference.py [--seed 1] [--repeats 3]

Part one reproduces the ROADMAP "Baseline" table: three generated
graphs (500 functions / 20k nodes and 2,000 functions / 80k nodes with
the fixture model, 3,420 functions / 68k nodes with the default
6 x 8 x 256 model), each taken through ``ingest``, ``lift``,
``build-ssckg``, ``forward`` and ``score``, one subcommand per fresh
interpreter, timed like ``report_s``.  Part two runs the ``batch``
workload's binaries through ``report`` with ``--workers`` 1 and 2,
alternating, and prints the medians of ``report_s``, ``cpu_s`` and
``peak_rss_mb``.  Takes several minutes; exit codes are checked, outputs
are not.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
from pathlib import Path

import checks
import gencpg
import run

SIZES = [  # (functions, nodes per function, default model)
    (500, 40, False),
    (2000, 40, False),
    (3420, 20, True),
]
STAGES = ("ingest", "lift", "build-ssckg", "forward", "score")


def child(root: Path, commands: list) -> dict:
    """One operation that must succeed; the repository stays empty, so no alert."""
    result = run.run_child(root, {"commands": commands})
    if result["codes"] != [0] * len(commands):
        raise SystemExit(f"{commands[0][0]} exited {result['codes']}")
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    root = Path.cwd()
    work = run.HERE / "out" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    repo = work / "repo"
    repo.mkdir()
    try:
        callee_names = gencpg.callees(root / "fixtures" / "rules.json")
        print("| graph | " + " | ".join(STAGES) + " |")
        print("|---|" + "---|" * len(STAGES))
        for functions, k, default_model in SIZES:
            spec = run.Workload(1, functions, k, default_model=default_model, workers=1)
            bid = f"ref_{functions}"
            doc, _ = gencpg.generate([args.seed, functions], functions, k, bid, callee_names)
            cpg = work / f"{bid}.json"
            gencpg.write(doc, cpg)
            config, cfg = run.make_config(root, work, spec, repo)
            commands = run.chain_commands(config, cpg, repo, work / bid, bid)[:len(STAGES)]
            times = [child(root, [argv])["report_s"] for argv in commands]
            kg = checks.load_json(work / bid / f"{bid}.kg.json")
            model = "x".join(str(cfg[key]) for key in
                             ("model_layers", "model_heads", "model_hidden_dim"))
            print(f"| {functions:,} fn, {len(doc['nodes']) // 1000}k nodes -> "
                  f"{len(kg['entities']):,} entities, {len(kg['relations']) // 1000}k "
                  f"relations, model {model} | "
                  + " | ".join(f"{t:.2f} s" for t in times) + " |", flush=True)
            shutil.rmtree(work / bid)

        spec = run.WORKLOADS["full"]["batch"]
        cpgs = []
        for i in range(spec.binaries):
            bid = f"batch_{args.seed}_{i}"
            doc, _ = gencpg.generate([args.seed, i + 1], spec.functions,
                                     spec.nodes_per_function, bid, callee_names)
            cpgs.append(work / f"{bid}.json")
            gencpg.write(doc, cpgs[-1])
        config, _ = run.make_config(root, work, spec, repo)
        results: dict[int, list[dict]] = {1: [], 2: []}
        for _ in range(args.repeats):
            for workers in (1, 2):
                outdir = work / f"w{workers}"
                cmd = run.report_commands(config, cpgs, outdir, workers)
                results[workers].append(child(root, cmd))
                shutil.rmtree(outdir)
        print(f"\nbatch ({spec.binaries} x {spec.functions} fn x {spec.nodes_per_function} "
              f"nodes), medians of {args.repeats}:")
        print("| workers | report_s | cpu_s | peak_rss_mb |\n|---|---|---|---|")
        for workers, rows in results.items():
            med = {k: statistics.median(r[k] for r in rows)
                   for k in ("report_s", "cpu_s", "peak_rss_mb")}
            print(f"| {workers} | {med['report_s']:.2f} | {med['cpu_s']:.2f} | "
                  f"{med['peak_rss_mb']:.0f} |")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
