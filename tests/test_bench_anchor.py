"""The benchmark's behaviour anchor: end state and work counters per workload.

One traced seed-1 pass of each benchmark workload must end in the pinned
state digest and report the pinned value of every `count` and `ratio` layer
metric.  These are the work the engine does, not its speed, so a change that
only makes a layer faster keeps every value here; a change that moves one on
purpose regenerates the pin in its own commit and logs old -> new.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402

DIGEST_PREFIX = {
    "dispute-dag": "44911a7b9ac7af61",
    "dispute-cyclic": "bce18cc02a2d4625",
    "churn-clean": "dcdd926f8a8cda3f",
}

COUNTERS = {
    "dispute-dag": {
        "freeze.cycle_rounds": 0,
        "freeze.edges_after_cancel": 38_361,
        "freeze.graph_nodes": 3_528,
        "freeze.graph_edges": 38_361,
        "spendlog.outgoing_between_calls": 3_528,
        "spendlog.records_returned": 38_361,
        "freeze.edges_touched": 60,
        "freeze.edge_iterations": 76_782,
        "freeze.frozen_ratio": 1.0,
        "governance.vote_calls": 38_400,
        "governance.cases_closed": 800,
        "ledger.buckets_cleaned": 0,
        "ledger.records_matured": 0,
        "ledger.clean_useful_ratio": 0.0,
        "spendlog.pop_bucket_calls": 0,
        "spendlog.sender_live_at_pop": 0.0,
        "ledger.transfer_calls": 24_000,
        "spendlog.record_calls": 24_400,
        "nft.transfer_calls": 0,
        "nft.records_dropped": 0,
    },
    "dispute-cyclic": {
        "freeze.cycle_rounds": 4_809,
        "freeze.edges_after_cancel": 5_559,
        "freeze.graph_nodes": 813,
        "freeze.graph_edges": 10_368,
        "spendlog.outgoing_between_calls": 813,
        "spendlog.records_returned": 10_464,
        "freeze.edges_touched": 54,
        "freeze.edge_iterations": 11_172,
        "freeze.frozen_ratio": 0.996716342510735,
        "governance.vote_calls": 38_400,
        "governance.cases_closed": 800,
        "ledger.buckets_cleaned": 0,
        "ledger.records_matured": 0,
        "ledger.clean_useful_ratio": 0.0,
        "spendlog.pop_bucket_calls": 0,
        "spendlog.sender_live_at_pop": 0.0,
        "ledger.transfer_calls": 15_859,
        "spendlog.record_calls": 16_400,
        "nft.transfer_calls": 0,
        "nft.records_dropped": 0,
    },
    "churn-clean": {
        "freeze.cycle_rounds": 0,
        "freeze.edges_after_cancel": 0,
        "freeze.graph_nodes": 0,
        "freeze.graph_edges": 0,
        "spendlog.outgoing_between_calls": 0,
        "spendlog.records_returned": 0,
        "freeze.edges_touched": 0,
        "freeze.edge_iterations": 0,
        "freeze.frozen_ratio": 0.0,
        "governance.vote_calls": 0,
        "governance.cases_closed": 0,
        "ledger.buckets_cleaned": 24_836,
        "ledger.records_matured": 56_590,
        "ledger.clean_useful_ratio": 1.0,
        "spendlog.pop_bucket_calls": 24_836,
        "spendlog.sender_live_at_pop": 40.06261072636495,
        "ledger.transfer_calls": 67_392,
        "spendlog.record_calls": 67_392,
        "nft.transfer_calls": 7_608,
        "nft.records_dropped": 6_410,
    },
}


def test_every_work_metric_is_pinned():
    # trace.overhead_ratio is a ratio of times, so it is never pinned.
    pinned = {name for name, unit, _ in PER_LAYER if unit in ("count", "ratio")}
    pinned.discard("trace.overhead_ratio")
    for counters in COUNTERS.values():
        assert set(counters) == pinned


@pytest.mark.parametrize("name", sorted(DIGEST_PREFIX))
def test_seed_1_traced_pass_matches_its_pin(name):
    p = run.run_pass(workloads.generate(name, 1), traced=True)
    assert p.errors == []
    assert p.failed == 0
    assert p.digest.startswith(DIGEST_PREFIX[name])
    got = {metric: p.layers[metric] for metric in COUNTERS[name]}
    assert got == COUNTERS[name]
