"""Seeded synthetic code property graphs for the benchmark.

Modelled on ``fixtures/make_derived.py``: the graphs are built from a
seed, written as plain CPG JSON, and come with the ground truth the
output checks need (node ids, function membership, ``call`` edges), so
nothing is compared against a stored copy of an earlier run.

Shape, per function of ``nodes_per_function`` nodes:

* the nodes form a chain of ``Cfg`` edges, and about half of the links
  also get a ``Pdg`` edge;
* node 0 is the entry (it carries ``function_name``), node 1 a ``Param``,
  the last node a ``Return``, and every 7th node a ``Call`` to a callee
  named by a pattern of ``fixtures/rules.json``;
* the first call of each function names its label's rule, and the rules
  are dealt out evenly over the functions in a seeded order; later calls
  pick among the same or later rules, so the label stays that of the
  first.  Each label then covers the same share of functions on every
  seed, which keeps the taint and reach closures, and the work, alike
  across seeds;
* 30% of the functions of each label are external;
* each function gets 3 ``call`` AST edges to entries of other functions;
* 30% of the functions get one ``Pdg`` edge into another function.

Run standalone to write one graph and its truth file:

    python3 perfbench/gencpg.py --seed 1 --functions 200 --nodes 50 --out g.cpg.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Sequence

import numpy as np

OPCODES = ("mov", "add", "cmp", "ldr", "str", "sub", "xor", "jmp")
CALLS_PER_FUNCTION = 3
EXTERNAL_SHARE = 0.3
CROSS_PDG_SHARE = 0.3


def callees(rules_path: str | Path) -> list[str]:
    """One callee name per rule: the pattern itself, or its prefix."""
    rules = json.loads(Path(rules_path).read_text(encoding="utf-8"))
    return [r["pattern"].rstrip("*") for r in rules]


def generate(seed: int | Sequence[int], functions: int, nodes_per_function: int,
             binary_id: str, callee_names: list[str]) -> tuple[dict, dict]:
    """Return (CPG document, ground truth) for one synthetic binary."""
    if functions < 2 or nodes_per_function < 8:
        raise ValueError("need at least 2 functions of 8 nodes")
    rng = np.random.default_rng(seed)
    k = nodes_per_function
    n_rules = len(callee_names)
    primary = rng.permutation(np.arange(functions) % n_rules)
    external = set()
    for rule in range(n_rules):
        members = np.flatnonzero(primary == rule)
        n_ext = round(EXTERNAL_SHARE * len(members))
        external.update(rng.choice(members, size=n_ext, replace=False).tolist())
    nodes, edges = [], []
    for f in range(functions):
        base = f * k
        opcodes = rng.choice(len(OPCODES), size=k)
        targets = rng.integers(primary[f], n_rules, size=k)
        targets[6] = primary[f]
        for j in range(k):
            attrs = {}
            if j == 0:
                kind, opcode = "Instruction", "entry"
                attrs["function_name"] = f"fn_{f}"
                if f in external:
                    attrs["external"] = "true"
            elif j == 1:
                kind, opcode = "Param", "param"
            elif j == k - 1:
                kind, opcode = "Return", "ret"
            elif j % 7 == 6:
                kind, opcode = "Call", "call"
                attrs["callee"] = callee_names[targets[j]]
            else:
                kind, opcode = "Instruction", OPCODES[opcodes[j]]
            nodes.append({"id": base + j, "kind": kind, "opcode": opcode,
                          "function_id": f, "block_id": f, "attrs": attrs})
        pdg = rng.random(k - 1) < 0.5
        for j in range(k - 1):
            edges.append({"src": base + j, "dst": base + j + 1, "kind": "Cfg", "label": ""})
            if pdg[j]:
                edges.append({"src": base + j, "dst": base + j + 1, "kind": "Pdg", "label": ""})

    call_edges = []
    for f in range(functions):
        others = rng.choice(functions - 1, size=CALLS_PER_FUNCTION)
        sites = rng.choice(k, size=CALLS_PER_FUNCTION)
        for other, site in zip(others.tolist(), sites.tolist()):
            g = other + (other >= f)
            call_edges.append((f * k + site, g * k))
    for src, dst in call_edges:
        edges.append({"src": src, "dst": dst, "kind": "Ast", "label": "call"})

    n_cross = round(CROSS_PDG_SHARE * functions)
    for f in sorted(rng.choice(functions, size=n_cross, replace=False).tolist()):
        other = int(rng.integers(functions - 1))
        g = other + (other >= f)
        src = f * k + int(rng.integers(k))
        dst = g * k + int(rng.integers(k))
        edges.append({"src": src, "dst": dst, "kind": "Pdg", "label": ""})

    doc = {"binary_id": binary_id, "nodes": nodes, "edges": edges}
    truth = {
        "binary_id": binary_id,
        "nodes": functions * k,
        "functions": functions,
        "nodes_per_function": k,
        "call_edges": call_edges,
    }
    return doc, truth


def write(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--functions", type=int, required=True)
    ap.add_argument("--nodes", type=int, required=True, help="nodes per function")
    ap.add_argument("--rules", default="fixtures/rules.json")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = Path(args.out)
    doc, truth = generate(args.seed, args.functions, args.nodes, out.name.split(".")[0],
                          callees(args.rules))
    write(doc, out)
    write(truth, out.with_suffix(".truth.json"))


if __name__ == "__main__":
    main()
