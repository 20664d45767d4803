"""Load a binary's program graph and check data-flow claims against it.

The graph file is plain JSON: typed nodes grouped into functions and
basic blocks, plus syntax / control-flow / data-dependence edges.  A
claim names a source node and a sink node; it holds when the sink is
reachable from the source over data-dependence edges only.  A list of
claims is an int64 array with one (source, sink) row per claim.  Everything
downstream of this file trusts only claims that survive that check.

Run from anywhere:  python3 demos/01_graphs_and_claims.py
"""

from collections import Counter
from pathlib import Path

import numpy as np

from binrisk import SchemaError, load_cpg, loads_cpg
from binrisk.cpg import EDGE_KINDS, failing_claims
from binrisk.lifting import function_subgraph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    g = load_cpg(FIXTURES / "toy_modbus.cpg.json")
    # the graph is stored as columns: one array per node or edge field
    print(f"loaded '{g.binary_id}': {len(g)} nodes, {len(g.edge_kind)} edges")

    kinds = Counter(EDGE_KINDS[code].value for code in g.edge_kind.tolist())
    print("edge kinds:", dict(sorted(kinds.items())))

    print("\nfunctions:")
    for fid in g.function_ids:
        view = function_subgraph(g, fid)
        callee = next((attrs["callee"] for attrs in view.attrs if "callee" in attrs), "-")
        print(f"  function {fid}: {len(view.node_ids):2d} nodes, callee attr: {callee}")

    # parse_modbus (function 2) feeds write_coil's mmio node over the
    # data-dependence edges, so this claim verifies
    good = np.array([[9, 17]], dtype=np.int64)
    # failing_claims checks many claim lists at once: each list's first
    # failing claim, or None when all of them hold
    failing = failing_claims(g, [good])[0]
    print(f"\nclaim 9 -> 17: sat={failing is None}")

    # the reverse direction has no data-dependence path
    both = np.array([[9, 17], [17, 9]], dtype=np.int64)
    failing = failing_claims(g, [both])[0]
    print(f"claim set with 17 -> 9 added: sat={failing is None}, first failing={failing}")

    # validation is strict: an edge to a node that does not exist is
    # rejected at load time, not discovered later
    try:
        loads_cpg('{"binary_id": "x", "nodes": [], '
                  '"edges": [{"src": 0, "dst": 1, "kind": "Pdg"}]}')
    except SchemaError as exc:
        print(f"\nmalformed graph rejected: {exc}")


if __name__ == "__main__":
    main()
