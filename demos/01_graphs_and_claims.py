"""Load a binary's program graph and check data-flow claims against it.

The graph file is plain JSON: typed nodes grouped into functions and
basic blocks, plus syntax / control-flow / data-dependence edges.  A
claim names a source node and a sink node; it holds when the sink is
reachable from the source over data-dependence edges only.  Everything
downstream of this file trusts only claims that survive that check.

Run from anywhere:  python3 demos/01_graphs_and_claims.py
"""

from collections import Counter
from pathlib import Path

from binrisk import DataFlowClaim, SchemaError, load_cpg, loads_cpg, verify_claims
from binrisk.lifting import function_subgraph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    g = load_cpg(FIXTURES / "toy_modbus.cpg.json")
    print(f"loaded '{g.binary_id}': {len(g.nodes)} nodes, {len(g.edges)} edges")

    kinds = Counter(e.kind.value for e in g.edges)
    print("edge kinds:", dict(sorted(kinds.items())))

    print("\nfunctions:")
    for fid in g.function_ids:
        view = function_subgraph(g, fid)
        callee = next((attrs["callee"] for attrs in view.attrs if "callee" in attrs), "-")
        print(f"  function {fid}: {len(view.node_ids):2d} nodes, callee attr: {callee}")

    # parse_modbus (function 2) feeds write_coil's mmio node over the
    # data-dependence edges, so this claim verifies
    good = DataFlowClaim(source_node=9, sink_node=17)
    result = verify_claims(g, [good])
    print(f"\nclaim {good.source_node} -> {good.sink_node}: sat={result.sat}")

    # the reverse direction has no data-dependence path
    bad = DataFlowClaim(source_node=17, sink_node=9)
    result = verify_claims(g, [good, bad])
    print(f"claim set with {bad.source_node} -> {bad.sink_node} added: "
          f"sat={result.sat}, first failing={result.failing_claim}")

    # validation is strict: an edge to a node that does not exist is
    # rejected at load time, not discovered later
    try:
        loads_cpg('{"binary_id": "x", "nodes": [], '
                  '"edges": [{"src": 0, "dst": 1, "kind": "Pdg"}]}')
    except SchemaError as exc:
        print(f"\nmalformed graph rejected: {exc}")


if __name__ == "__main__":
    main()
