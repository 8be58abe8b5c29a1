"""The engine <-> benchmark tracer contract.

The benchmark's traced run (`perfbench/layers.py`) reads its freeze counters
off the graph objects the engine passes through `build_graph`,
`eliminate_cycles` and `calc_freeze`.  This pins that those counters still
equal what the graph and the freeze plan say.
"""

from __future__ import annotations

import sys
from pathlib import Path

from revtok.freeze import build_graph, eliminate_cycles

from conftest import GOV, make_engine

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layers  # noqa: E402


def test_tracer_counts_match_the_graph():
    led, eng = make_engine()
    led.mint("v", 100, block=1)
    ref = led.transfer("v", "a", 60, block=1)
    led.rtransfer("a", "b", 50, block=2)
    led.rtransfer("b", "a", 20, block=2)  # a -> b -> a
    led.rtransfer("b", "c", 25, block=3)
    led.rtransfer("c", "a", 10, block=3)  # a -> b -> c -> a
    led.rtransfer("a", "d", 15, block=4)

    graph = build_graph(led.log, led.log.resolve(ref), led.log.next_seq)
    nodes, edges = len(graph.nodes), len(graph.edges)
    rounds = edges - len(eliminate_cycles(graph).edges)
    assert rounds > 0

    tracer = layers.Tracer()
    with tracer.installed():
        plan = eng.claims[eng.execute_freeze(ref, "v", 4, caller=GOV)].plan
    metrics = tracer.metrics()
    assert metrics["freeze.graph_nodes"] == nodes == 4
    assert metrics["freeze.graph_edges"] == edges
    assert metrics["freeze.cycle_rounds"] == rounds
    assert metrics["freeze.edges_after_cancel"] == edges - rounds
    # the tracer derives edge_iterations from the graph; the plan counts it
    assert metrics["freeze.edge_iterations"] == plan.edge_iterations
    assert metrics["freeze.edges_touched"] == plan.edges_touched
    assert tracer.bound_violations == []
