"""Scaling check for the freeze pass.

Builds a random DAG directly (the log and graph construction are bypassed on
purpose: the claim under test is that distributing obligations is linear in
the graph), runs calc_freeze once, and reports the measured edge touches
against the nodes + edges bound.
"""

from __future__ import annotations

import json
import random
import time

from .freeze import GraphEdge, TransferGraph, calc_freeze
from .spendlog import SpendRef


def random_dag(nodes: int, edges: int, seed: int) -> tuple[TransferGraph, dict[str, int]]:
    """A rooted random DAG with every node reachable from the root.

    Edge seqs ascend with the source index, so seqs increase along every
    path, matching what the trace construction guarantees.  Node balances are
    zero so obligations propagate as deep as the edge capacities allow.
    """
    if nodes < 2 or edges < nodes - 1:
        raise ValueError("need at least 2 nodes and a spanning set of edges")
    rng = random.Random(seed)
    names = ["n%d" % i for i in range(nodes)]
    raw: list[tuple[int, int, int]] = []  # (src index, dst index, value)
    for i in range(1, nodes):
        raw.append((rng.randint(0, i - 1), i, rng.randint(1, 100)))
    for _ in range(edges - (nodes - 1)):
        i = rng.randint(0, nodes - 2)
        j = rng.randint(i + 1, nodes - 1)
        raw.append((i, j, rng.randint(1, 100)))
    raw.sort(key=lambda e: e[0])
    graph = TransferGraph(root=names[0], root_arrival_seq=0, out={n: [] for n in names})
    # One source's edges must sit newest-first: assign seqs ascending, then
    # reverse each source's list.
    for seq, (src_i, dst_i, value) in enumerate(raw, start=1):
        graph.out[names[src_i]].append(
            GraphEdge(names[src_i], names[dst_i], value, seq, SpendRef(0, names[src_i], 0))
        )
    for edges in graph.out.values():
        edges.reverse()
    balances = {name: 0 for name in names}
    return graph, balances


def run_bench(nodes: int, edges: int, seed: int = 0) -> dict:
    graph, balances = random_dag(nodes, edges, seed)
    demand = sum(e.value for e in graph.edges) // 2 + 1
    started = time.perf_counter()
    plan = calc_freeze(graph, demand, balances.__getitem__)
    elapsed = time.perf_counter() - started
    bound = nodes + edges
    return {
        "nodes": nodes,
        "edges": edges,
        "seed": seed,
        "demand": demand,
        "nodesVisited": plan.nodes_visited,
        "edgesTouched": plan.edges_touched,
        "bound": bound,
        "withinBound": plan.nodes_visited + plan.edges_touched <= bound,
        "seconds": round(elapsed, 4),
    }


def bench_report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
