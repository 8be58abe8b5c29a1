from __future__ import annotations

import itertools
import random
from typing import Iterator

from revtok import (
    BurnSource,
    GraphEdge,
    TransferGraph,
    build_graph,
    eliminate_cycles,
)

from revtok.oracle import _replay_on_engine, generate_trial

from conftest import edge, make_ledger


def graph_of(ledger, ref):
    return build_graph(ledger.log, ledger.log.resolve(ref), ledger.log.next_seq)


def test_root_only_graph(ledger):
    ledger.mint("v", 10, block=1)
    ref = ledger.transfer("v", "a", 10, block=1)
    g = graph_of(ledger, ref)
    assert g.root == "a"
    assert g.nodes == ["a"]
    assert g.edges == []


def test_edges_follow_arrival_order(ledger):
    ledger.mint("v", 10, block=1)
    ledger.mint("a1", 10, block=1)
    t_pre = ledger.transfer("a1", "a2", 5, block=1)   # before funds arrive
    ref = ledger.transfer("v", "a0", 10, block=1)
    ledger.rtransfer("a0", "a1", 10, block=2)
    t_post = ledger.rtransfer("a1", "a3", 5, block=2)
    g = graph_of(ledger, ref)
    dests = {(e.record.sender, e.record.to) for e in g.edges}
    assert ("a1", "a3") in dests
    assert ("a1", "a2") not in dests  # pre-arrival spend excluded
    assert set(g.nodes) == {"a0", "a1", "a3"}


def test_spends_after_freeze_seq_are_excluded(ledger):
    ledger.mint("v", 10, block=1)
    ref = ledger.transfer("v", "a0", 10, block=1)
    cutoff = ledger.log.next_seq
    ledger.rtransfer("a0", "a1", 10, block=2)
    g = build_graph(ledger.log, ledger.log.resolve(ref), cutoff)
    assert g.edges == []
    full = graph_of(ledger, ref)
    assert len(full.edges) == 1


def test_burns_collect_into_burned_at(ledger):
    ledger.mint("v", 10, block=1)
    ref = ledger.transfer("v", "a0", 10, block=1)
    ledger.burn("a0", 3, block=2, source=BurnSource.REVERSIBLE)
    ledger.burn("a0", 2, block=2, source=BurnSource.REVERSIBLE)
    g = graph_of(ledger, ref)
    assert g.burned_at == {"a0": 5}
    assert g.edges == []


def test_per_source_edges_are_newest_first(ledger):
    ledger.mint("v", 10, block=1)
    ref = ledger.transfer("v", "a0", 10, block=1)
    ledger.rtransfer("a0", "a1", 1, block=2)
    ledger.rtransfer("a0", "a2", 1, block=2)
    ledger.rtransfer("a0", "a3", 1, block=3)
    g = graph_of(ledger, ref)
    assert [e.record.to for e in g.out["a0"]] == ["a3", "a2", "a1"]
    seqs = [e.record.seq for e in g.out["a0"]]
    assert seqs == sorted(seqs, reverse=True)


def test_edge_value_is_current_remaining_amount(ledger):
    ledger.mint("v", 10, block=1)
    ref = ledger.transfer("v", "a0", 10, block=1)
    hop = ledger.rtransfer("a0", "a1", 10, block=2)
    ledger.log.resolve(hop).amount = 4  # partially claimed elsewhere
    g = graph_of(ledger, ref)
    assert g.edges[0].value == 4


def arc(e):
    """An edge as (src, dst, value)."""
    return e.record.sender, e.record.to, e.value


def manual_graph(root, edges):
    out = {root: []}
    for e in edges:
        out.setdefault(e.record.sender, []).append(e)
        out.setdefault(e.record.to, [])
    return TransferGraph(root=root, out=out, burned_at={})


def test_two_cycle_cancels_round_trip():
    g = manual_graph("a", [edge("a", "b", 5, 1), edge("b", "a", 3, 2)])
    out = eliminate_cycles(g)
    assert [arc(e) for e in out.edges] == [("a", "b", 2)]


def test_self_loop_is_removed():
    g = manual_graph("a", [edge("a", "a", 7, 1), edge("a", "b", 4, 2)])
    out = eliminate_cycles(g)
    assert [arc(e) for e in out.edges] == [("a", "b", 4)]


def test_three_cycle_discounts_by_minimum():
    g = manual_graph("a", [
        edge("a", "b", 4, 1), edge("b", "c", 7, 2), edge("c", "a", 4, 3),
    ])
    out = eliminate_cycles(g)
    got = sorted(arc(e) for e in out.edges)
    # min value 4 is shared; the lowest-seq edge of the tied pair is removed
    assert got == [("b", "c", 3), ("c", "a", 0)]
    assert find_cycle(out) is None


def test_zero_value_edges_survive_elimination():
    g = manual_graph("a", [edge("a", "b", 3, 1), edge("b", "a", 3, 2)])
    out = eliminate_cycles(g)
    assert [arc(e) for e in out.edges] == [("b", "a", 0)]


def test_parallel_edges_form_a_multigraph_cycle():
    g = manual_graph("a", [
        edge("a", "b", 2, 1), edge("a", "b", 9, 2), edge("b", "a", 5, 3),
    ])
    out = eliminate_cycles(g)
    assert find_cycle(out) is None
    # total net flow a->b is preserved: 11 out, 5 back, net 6
    net = sum(e.value for e in out.edges if e.record.to == "b") - sum(
        e.value for e in out.edges if e.record.to == "a")
    assert net == 6


def test_random_graphs_become_acyclic_and_nonnegative():
    rng = random.Random(23)
    for trial in range(300):
        n = rng.randrange(2, 6)
        nodes = [f"n{i}" for i in range(n)]
        edges = []
        for seq in range(rng.randrange(1, 10)):
            a, b = rng.choice(nodes), rng.choice(nodes)
            edges.append(edge(a, b, rng.randrange(0, 9), seq))
        out = eliminate_cycles(manual_graph("n0", list(edges)))
        assert find_cycle(out) is None, trial
        assert all(e.value >= 0 for e in out.edges), trial
        assert len(out.edges) <= len(edges)


def all_simple_cycles(edges):
    """Every distinct simple cycle (as an edge tuple), brute force."""
    out = []
    for r in range(1, len(edges) + 1):
        for combo in itertools.permutations(edges, r):
            if any(combo[i].record.to != combo[(i + 1) % r].record.sender for i in range(r)):
                continue
            nodes = [e.record.sender for e in combo]
            if len(set(nodes)) != r:
                continue
            if min(range(r), key=lambda i: combo[i].record.seq) != 0:
                continue  # canonical rotation only
            out.append(combo)
    return out


def test_elimination_never_leaves_a_simple_cycle():
    # exhaustive cross-check on small graphs: after elimination the edge set
    # admits no simple cycle at all
    rng = random.Random(4)
    for trial in range(120):
        nodes = ["p", "q", "r", "s"][: rng.randrange(2, 5)]
        edges = [
            edge(rng.choice(nodes), rng.choice(nodes), rng.randrange(1, 8), seq)
            for seq in range(rng.randrange(2, 7))
        ]
        out = eliminate_cycles(manual_graph(nodes[0], list(edges)))
        assert all_simple_cycles(out.edges) == [], trial


# -- a plain cycle search, and the restart-per-round algorithm built on it -----


def find_cycle(graph: TransferGraph) -> list[GraphEdge] | None:
    """One directed cycle as an edge list, or None if the graph is acyclic.

    Iterative DFS over the multigraph; a self-edge is a one-edge cycle.
    """
    adj = graph.out
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(adj, WHITE)
    entered_via: dict[str, GraphEdge] = {}
    for start in adj:
        if color[start] != WHITE:
            continue
        color[start] = GRAY
        stack: list[tuple[str, Iterator[GraphEdge]]] = [(start, iter(adj[start]))]
        while stack:
            node, edges = stack[-1]
            edge = next(edges, None)
            if edge is None:
                color[node] = BLACK
                stack.pop()
                continue
            dst = edge.record.to
            if color[dst] == GRAY:
                cycle = [edge]
                cur = node
                while cur != dst:
                    back = entered_via[cur]
                    cycle.append(back)
                    cur = back.record.sender
                cycle.reverse()
                return cycle
            if color[dst] == WHITE:
                color[dst] = GRAY
                entered_via[dst] = edge
                stack.append((dst, iter(adj[dst])))
    return None


def restart_eliminate_cycles(graph: TransferGraph) -> TransferGraph:
    """Cancel cycles with a fresh DFS from the first node for every round."""
    while True:
        cycle = find_cycle(graph)
        if cycle is None:
            return graph
        weakest = min(cycle, key=lambda e: (e.value, e.record.seq))
        for edge in cycle:
            if edge is not weakest:
                edge.value -= weakest.value
        graph.out[weakest.record.sender].remove(weakest)


def per_source(graph):
    return [
        (node, [(e.record.sender, e.record.to, e.value, e.record.seq) for e in edges])
        for node, edges in graph.out.items()
    ]


def assert_matches_reference(build):
    """`build()` must make a fresh graph on each call."""
    graph = build()
    before = len(graph.edges)
    got = per_source(eliminate_cycles(graph))
    assert got == per_source(restart_eliminate_cycles(build()))
    return before - len(graph.edges)


def test_matches_restart_reference_on_random_multigraphs():
    rng = random.Random(5)
    rounds = 0
    for trial in range(2500):
        nodes = [f"n{i}" for i in range(rng.randrange(1, 9))]
        # self-loops, parallel edges and zero values all occur
        specs = [
            (rng.choice(nodes), rng.choice(nodes), rng.randrange(0, 6), seq)
            for seq in rng.sample(range(100), rng.randrange(0, 25))
        ]
        rounds += assert_matches_reference(
            lambda: manual_graph(nodes[0], [edge(*s) for s in specs])
        )
    assert rounds > 5000


def test_matches_restart_reference_on_oracle_trials():
    master = random.Random(17)
    rounds = 0
    for _ in range(1000):
        spec = generate_trial(random.Random(master.getrandbits(64)), "generic", False)

        def build():
            runner, ref = _replay_on_engine(spec)
            log = runner.ledger.log
            return build_graph(log, log.resolve(ref), log.next_seq)

        rounds += assert_matches_reference(build)
    assert rounds > 500


def test_matches_restart_reference_on_a_ledger_economy():
    """500 addresses, 10k transfers, 30% of them to a lower-index address."""

    def build():
        rng = random.Random(11)
        ledger = make_ledger()
        names = [f"a{i:03d}" for i in range(500)]
        for name in names:
            ledger.mint(name, 10**6, block=1)
        disputed = ledger.transfer("a000", "a001", 500, block=1)
        for t in range(10_000):
            i = rng.randrange(len(names) - 1)
            j = rng.randrange(i) if i and rng.random() < 0.3 else rng.randrange(i + 1, len(names))
            ledger.transfer(names[i], names[j], rng.randint(1, 100), block=2 + t // 10)
        return build_graph(ledger.log, ledger.log.resolve(disputed), ledger.log.next_seq)

    assert assert_matches_reference(build) > 1000
