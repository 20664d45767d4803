"""Benchmark of `binrisk report`, end to end and per module.

    PYTHONPATH=src python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark generates seeded CPGs
(``gencpg.py``), then drives the public CLI entry point, one operation
at a time with a single client (a closed loop).  Every operation runs in
a fresh interpreter (``child.py``) with BLAS pinned to one thread, so
its peak memory is its own and the interpreter start-up can be timed
apart from the work.  Workloads:

* ``paper``: one relation-dense binary through the default model
  (6 layers x 8 heads x 256 dims); the graph transformer dominates.
* ``batch``: four CPG-heavy binaries through one ``report --workers 2``
  with the fixture model (2 x 4 x 64); parsing, files and the pool dominate.
* ``chain``: one CPG-heavy binary through the seven stage subcommands,
  in one process, each reading the files of the one before.

Set-up writes a decoy fingerprint, runs one untimed warm-up report over
the target binary and cuts a planted fingerprint from a seeded choice of
its output vectors.  Operations then start until ``--seconds`` would be
exceeded, at least ``MIN_OPS`` of them.  The first operation's outputs
are checked (``checks.py``), every later one must write the same bytes,
and on ``chain`` the stage outputs must equal those of one ``report``.

``--trace 0`` prints the end-to-end metrics (medians over operations):
``report_s`` (wall time of one operation, interpreter start-up
excluded), ``cpu_s`` (user plus system time of that operation),
``peak_rss_mb`` and ``setup_s`` (import of the CLI up to a built parser
in a fresh interpreter).  ``--trace 1`` runs one worker, alternates
untraced and traced operations, and prints the per-layer metrics of
``tracer.py`` plus the import split of ``python -X importtime`` and the
tracing overhead (traced minus untraced ``report_s``).  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import gencpg

HERE = Path(__file__).resolve().parent
MIN_OPS = 3
OP_TIMEOUT = 60
PLANTED_NODES = 3
DECOY_NODES = 3
DEFAULT_MODEL = {"model_layers": 6, "model_heads": 8, "model_hidden_dim": 256,
                 "model_max_dist": 20}


@dataclass(frozen=True)
class Workload:
    binaries: int
    functions: int
    nodes_per_function: int
    default_model: bool
    workers: int
    planted: bool = True
    chain: bool = False


WORKLOADS = {
    "full": {
        "paper": Workload(1, 800, 8, default_model=True, workers=1, planted=False),
        "batch": Workload(4, 200, 16, default_model=False, workers=2),
        "chain": Workload(1, 400, 50, default_model=False, workers=1, planted=False,
                          chain=True),
    },
    # Smallest sizes, for the harness self-check.
    "smoke": {
        "paper": Workload(1, 12, 8, default_model=True, workers=1, planted=False),
        "batch": Workload(2, 10, 20, default_model=False, workers=2),
        "chain": Workload(1, 10, 20, default_model=False, workers=1, planted=False,
                          chain=True),
    },
}

END_TO_END_UNITS = {"report_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(root: Path, spec: dict, importtime: bool = False) -> dict:
    """Run one operation in a fresh interpreter; return its JSON result."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else [])
    argv += [str(HERE / "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(argv, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"operation exceeded {OP_TIMEOUT} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if importtime:
        result["imports"] = import_split(proc.stderr)
    return result


def import_split(stderr: str) -> dict:
    """Self time of binrisk's own modules and of everything they pull in."""
    own = deps = 0
    inside = False
    for line in stderr.splitlines():
        if line.startswith("@@perfbench import"):
            inside = line.endswith("begin")
            continue
        if not inside or not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the column header
        us, module = int(fields[0]), fields[2].strip()
        if module.split(".")[0] == "binrisk":
            own += us
        else:
            deps += us
    return {"cli.import_deps_s": deps / 1e6, "cli.import_own_s": own / 1e6}


def make_config(root: Path, work: Path, spec: Workload, repo: Path) -> tuple[Path, dict]:
    fixtures = root / "fixtures"
    cfg = json.loads((fixtures / "config_firmware.json").read_text(encoding="utf-8"))
    for key in ("lattice_path", "rules_path", "cves_path"):
        cfg[key] = str((fixtures / cfg[key]).resolve())
    cfg["fingerprints_dir"] = str(repo)
    if spec.default_model:
        cfg.update(DEFAULT_MODEL)
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8")
    return path, cfg


def write_fingerprint(path: Path, name: str, vectors: np.ndarray, provenance: str) -> None:
    doc = {"name": name, "provenance": provenance,
           "embeddings": [v.tolist() for v in vectors]}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def report_commands(config: Path, cpgs: list[Path], outdir: Path, workers: int) -> list:
    argv = ["report", "--config", str(config), "--cpg", *map(str, cpgs),
            "--outdir", str(outdir)]
    return [argv + (["--workers", str(workers)] if workers > 1 else [])]


def chain_commands(config: Path, cpg: Path, repo: Path, outdir: Path, bid: str) -> list:
    f = {suffix: str(outdir / (bid + suffix)) for suffix in checks.SHARED_SUFFIXES}
    c = ["--config", str(config)]
    return [
        ["ingest", "--cpg", str(cpg), "--out", f[".cpg.json"]],
        ["lift", *c, "--cpg", f[".cpg.json"], "--out", f[".corpus.jsonl"]],
        ["build-ssckg", *c, "--cpg", f[".cpg.json"], "--corpus", f[".corpus.jsonl"],
         "--out", f[".kg.json"]],
        ["forward", *c, "--kg", f[".kg.json"], "--out", f[".embeddings.json"]],
        ["score", *c, "--kg", f[".kg.json"], "--out", f[".risk.json"]],
        ["match", *c, "--kg-embeddings", f[".embeddings.json"], "--repo", str(repo),
         "--out", f[".alerts.json"]],
        ["export-dot", *c, "--kg", f[".kg.json"], "--risk", f[".risk.json"],
         "--out", f[".dot"]],
    ]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


@dataclass
class Inputs:
    config: Path
    cfg: dict
    cpgs: list[Path]
    truths: list[dict]
    repo: Path
    fingerprints: dict

    @property
    def target(self) -> str:
        return self.truths[0]["binary_id"]


def make_inputs(root: Path, work: Path, name: str, spec: Workload, seed: int) -> Inputs:
    """Seeded CPGs, the config, and a repository holding a decoy fingerprint."""
    rng = np.random.default_rng([seed, 0])
    callee_names = gencpg.callees(root / "fixtures" / "rules.json")
    cpgs, truths = [], []
    for i in range(spec.binaries):
        doc, truth = gencpg.generate([seed, i + 1], spec.functions, spec.nodes_per_function,
                                     f"{name}_{seed}_{i}", callee_names)
        cpgs.append(work / f"{truth['binary_id']}.json")
        gencpg.write(doc, cpgs[-1])
        truths.append(truth)
    repo = work / "repo"
    repo.mkdir()
    config, cfg = make_config(root, work, spec, repo)
    decoy = rng.standard_normal((DECOY_NODES, cfg["model_hidden_dim"]))
    write_fingerprint(repo / "decoy.json", "decoy", decoy, "seeded random directions")
    return Inputs(config, cfg, cpgs, truths, repo, {"decoy": {"vectors": decoy, "decoy": True}})


def plant_fingerprint(root: Path, work: Path, inputs: Inputs, seed: int) -> None:
    """Warm up with one untimed report, then cut a fingerprint from its vectors."""
    warm = work / "warm"
    result = run_child(root, {"commands": report_commands(inputs.config, inputs.cpgs[:1],
                                                          warm, 1)})
    if result["codes"] != [0]:
        raise BenchError(f"warm-up report exited {result['codes']}, expected [0]")
    emb = checks.load_json(warm / f"{inputs.target}.embeddings.json")
    ids = sorted(int(key) for key in emb)
    rng = np.random.default_rng([seed, 1])
    chosen = sorted(ids[j] for j in rng.choice(len(ids), size=PLANTED_NODES, replace=False))
    planted = np.asarray([emb[str(i)] for i in chosen])
    write_fingerprint(inputs.repo / "planted.json", "planted", planted,
                      f"entities {chosen} of {inputs.target}")
    inputs.fingerprints["planted"] = {"vectors": planted, "target": inputs.target}
    shutil.rmtree(warm)


def run(root: Path, work: Path, name: str, spec: Workload, seed: int, seconds: float,
        trace: bool) -> dict:
    inputs = make_inputs(root, work, name, spec, seed)
    if spec.planted:
        plant_fingerprint(root, work, inputs, seed)
    alert = 2 if spec.planted else 0
    expected_codes = [0, 0, 0, 0, 0, alert, 0] if spec.chain else [alert]
    workers = 1 if trace else spec.workers

    results, traced, reference = [], [], None
    failed = 0
    problems: list[str] = []
    t_loop = time.monotonic()
    while True:
        i = len(results) + len(traced) + failed
        outdir = work / f"op{i}"
        if spec.chain:
            commands = chain_commands(inputs.config, inputs.cpgs[0], inputs.repo, outdir,
                                      inputs.target)
        else:
            commands = report_commands(inputs.config, inputs.cpgs, outdir, workers)
        op_trace = trace and i % 2 == 1
        op = {"commands": commands, "trace": op_trace, "binary": inputs.target}
        if op_trace:
            op["spans_out"] = str(HERE / "out" / f"spans-{name}-{seed}.json")
        t0 = time.monotonic()
        try:
            result = run_child(root, op, importtime=op_trace)
            if result["codes"] != expected_codes:
                raise BenchError(f"exit codes {result['codes']}, expected {expected_codes}")
        except BenchError as exc:
            failed += 1
            print(f"operation {i} failed: {exc}", file=sys.stderr)
        else:
            (traced if op_trace else results).append(result)
            print(f"operation {i}{' traced' if op_trace else ''}: "
                  + " ".join(f"{k} {result[k]:.4f}" for k in END_TO_END_UNITS), file=sys.stderr)
            files = checks.digests(outdir)
            if reference is None:
                reference = files
                if not spec.chain:
                    for truth in inputs.truths:
                        problems += checks.check_binary(outdir, truth, inputs.cfg,
                                                        inputs.fingerprints)
            elif files != reference:
                problems.append(f"operation {i}: outputs differ from the first operation's")
        shutil.rmtree(outdir, ignore_errors=True)
        # Stop when the next operation would end more than half of one past
        # the run length; a traced run ends on a whole untraced/traced pair.
        done = i + 1
        next_end = time.monotonic() - t_loop + (time.monotonic() - t0) / 2
        if done >= MIN_OPS and next_end > seconds and (not trace or done % 2 == 0):
            break

    if spec.chain and reference is not None:
        # Once per run: the stage chain writes what `report` writes.
        ref = work / "report"
        result = run_child(root, {"commands": report_commands(inputs.config, inputs.cpgs,
                                                              ref, 1)})
        if result["codes"] != [alert]:
            problems.append(f"reference report exited {result['codes']}, expected [{alert}]")
        problems += checks.check_binary(ref, inputs.truths[0], inputs.cfg, inputs.fingerprints)
        shared = {k: v for k, v in checks.digests(ref).items()
                  if k.endswith(checks.SHARED_SUFFIXES)}
        if shared != reference:
            problems.append("stage chain outputs differ from report outputs")

    for line in problems:
        print("check failed:", line, file=sys.stderr)
    if not results or (trace and not traced):
        raise BenchError("no operation succeeded")
    metrics = layer_metrics(results, traced) if trace else {
        k: {"value": median([r[k] for r in results]), "unit": unit}
        for k, unit in END_TO_END_UNITS.items()}
    return {"correct": not problems, "attempted": len(results) + len(traced) + failed,
            "failed": failed, "metrics": metrics}


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    layers = {key: median([t["layers"][key] for t in traced]) for key in traced[0]["layers"]}
    for key in traced[0]["imports"]:
        layers[key] = median([t["imports"][key] for t in traced])
    layers["trace.report_s"] = median([t["report_s"] for t in traced])
    layers["trace.overhead_s"] = layers["trace.report_s"] - median(
        [r["report_s"] for r in untraced])
    return {k: {"value": v, "unit": "s"} if k.endswith("_s")
            else {"value": int(v), "unit": "bytes" if k.endswith("bytes_written") else "count"}
            for k, v in sorted(layers.items())}


def main() -> int:
    ap = argparse.ArgumentParser(description="binrisk report benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(WORKLOADS), default="full")
    args = ap.parse_args()

    root = Path.cwd()
    for needed in ("src/binrisk/cli.py", "fixtures/config_firmware.json", "fixtures/rules.json"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of a binrisk checkout",
                  file=sys.stderr)
            return 1
    work = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        out = run(root, work, args.workload, WORKLOADS[args.size][args.workload], args.seed,
                  args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
