from __future__ import annotations

import random

from revtok import build_graph, calc_freeze, eliminate_cycles

from conftest import make_ledger, random_dag


def plan_for(ledger, ref, demand=None):
    g = eliminate_cycles(build_graph(ledger.log, ledger.log.resolve(ref), ledger.log.next_seq))
    if demand is None:
        demand = ledger.log.resolve(ref).amount
    return calc_freeze(g, demand, ledger.available_rbalance)


def test_full_amount_still_at_root(ledger):
    ledger.mint("v", 60, block=1)
    ref = ledger.transfer("v", "a0", 60, block=1)
    plan = plan_for(ledger, ref)
    assert plan.to_freeze == {"a0": 60}
    assert plan.total_frozen == 60
    assert plan.total_residual == 0


def test_split_between_children(ledger):
    ledger.mint("v", 100, block=1)
    ref = ledger.transfer("v", "a0", 100, block=1)
    ledger.rtransfer("a0", "a1", 25, block=2)
    ledger.rtransfer("a0", "a2", 25, block=2)
    plan = plan_for(ledger, ref)
    assert plan.to_freeze == {"a0": 50, "a1": 25, "a2": 25}
    assert plan.total_frozen == 100


def test_recent_spends_absorb_obligation_first(ledger):
    ledger.mint("v", 10, block=1)
    ledger.mint("a1", 10, block=1)
    ref = ledger.transfer("v", "a0", 10, block=1)
    ledger.rtransfer("a0", "a1", 10, block=2)
    ledger.transfer("a1", "a2", 10, block=3)   # older outgoing
    ledger.rtransfer("a1", "a3", 10, block=4)  # newer outgoing
    plan = plan_for(ledger, ref)
    assert plan.to_freeze == {"a3": 10}
    by_edge = {(e.record.sender, e.record.to): ob for e, ob in plan.per_edge}
    assert by_edge[("a1", "a3")] == 10
    # the older edge is never reached: the newest one covered the obligation
    assert ("a1", "a2") not in by_edge


def test_obligation_splits_across_paths(ledger):
    ledger.mint("v", 20, block=1)
    ref = ledger.transfer("v", "a0", 20, block=1)
    ledger.rtransfer("a0", "a1", 10, block=2)
    ledger.rtransfer("a1", "a2", 10, block=2)
    ledger.rtransfer("a0", "a1", 10, block=3)
    ledger.rtransfer("a1", "a3", 10, block=3)
    plan = plan_for(ledger, ref)
    assert plan.to_freeze == {"a2": 10, "a3": 10}
    assert plan.total_frozen == 20
    assert plan.obligations["a1"] == 20


def test_cycle_before_freeze(ledger):
    ledger.mint("v", 10, block=1)
    ref = ledger.transfer("v", "a0", 10, block=1)
    ledger.rtransfer("a0", "a1", 5, block=2)
    ledger.rtransfer("a1", "a0", 3, block=3)
    plan = plan_for(ledger, ref)
    assert plan.to_freeze == {"a0": 8, "a1": 2}
    assert plan.total_frozen == 10


def test_burn_absorbs_unmet_demand(ledger):
    from revtok import BurnSource

    ledger.mint("v", 10, block=1)
    ref = ledger.transfer("v", "a0", 10, block=1)
    ledger.burn("a0", 6, block=2, source=BurnSource.REVERSIBLE)
    plan = plan_for(ledger, ref)
    assert plan.to_freeze == {"a0": 4}
    assert plan.absorbed_by_burn == {"a0": 6}
    assert plan.total_frozen + plan.total_absorbed == 10


def test_residual_when_funds_left_before_dispute(ledger):
    # a0 spent 7 before the dispute was even possible to trace (freeze cut
    # excludes the spend), so only 3 remain anywhere: 7 is residual
    ledger.mint("v", 10, block=1)
    ref = ledger.transfer("v", "a0", 10, block=1)
    cutoff = ledger.log.next_seq
    ledger.rtransfer("a0", "a1", 7, block=2)
    g = build_graph(ledger.log, ledger.log.resolve(ref), cutoff)
    plan = calc_freeze(g, 10, ledger.available_rbalance)
    assert plan.to_freeze == {"a0": 3}
    assert plan.residual == {"a0": 7}
    assert plan.total_frozen + plan.total_residual == 10


def test_identity_demand_equals_frozen_plus_burn_plus_residual():
    rng = random.Random(99)
    for _ in range(200):
        ledger = make_ledger()
        addrs = [f"a{i}" for i in range(rng.randrange(2, 6))]
        ledger.mint("v", 500, block=1)
        ref = ledger.transfer("v", addrs[0], rng.randrange(1, 200), block=1)
        for _ in range(rng.randrange(0, 12)):
            src, dst = rng.choice(addrs), rng.choice(addrs)
            amt = rng.randrange(1, 60)
            avail = ledger.available_rbalance(src)
            if avail < amt:
                continue
            if rng.random() < 0.2:
                from revtok import BurnSource

                ledger.burn(src, amt, block=2, source=BurnSource.REVERSIBLE)
            else:
                ledger.rtransfer(src, dst, amt, block=2)
        demand = ledger.log.resolve(ref).amount
        plan = plan_for(ledger, ref)
        assert (plan.total_frozen + plan.total_absorbed + plan.total_residual
                == demand)
        for addr, amt in plan.to_freeze.items():
            assert 0 <= amt <= ledger.available_rbalance(addr)


def test_instrumentation_is_linear(ledger):
    ledger.mint("v", 100, block=1)
    ref = ledger.transfer("v", "a0", 100, block=1)
    for i in range(10):
        ledger.rtransfer("a0", f"b{i}", 5, block=2)
    plan = plan_for(ledger, ref)
    assert plan.nodes_visited <= 11
    assert plan.edges_touched <= 10


def test_random_dag_is_acyclic_and_sized():
    graph, balances = random_dag(nodes=200, edges=600, seed=7)
    assert len(graph.edges) == 600
    assert len(balances) == 200
    # every edge goes from a lower to a higher node index: acyclic by shape
    for e in graph.edges:
        assert int(e.record.sender[1:]) < int(e.record.to[1:])
    # within one source, the edge list runs newest-first
    per_src: dict[str, list[int]] = {}
    for e in graph.edges:
        per_src.setdefault(e.record.sender, []).append(e.record.seq)
    for seqs in per_src.values():
        assert seqs == sorted(seqs, reverse=True)


def test_random_dag_touch_counts_are_linear():
    graph, balances = random_dag(nodes=300, edges=900, seed=3)
    demand = sum(e.value for e in graph.edges) // 2 + 1
    plan = calc_freeze(graph, demand, balances.__getitem__)
    assert plan.nodes_visited <= 300
    assert plan.edges_touched <= 900
    assert plan.nodes_visited + plan.edges_touched <= 1200
    assert plan.edge_iterations == 2 * 900 + plan.edges_touched
