"""Per-layer spans for the traced run.

The tracer wraps the public entry points of each measured layer (ledger,
spendlog, freeze, nft, governance) for the duration of one pass, by replacing
the class or module attributes the engine resolves at call time, and restores
them afterwards.  Nothing in the engine's source is edited.

Every wrapped call is a span.  Spans nest on a stack; a span's self time is
its duration minus the time of the spans it caused.  Work counters are read
off each call's arguments and result at the same boundary.  Spans are folded
into per-layer totals as they end rather than kept as a list, because a
dispute pass makes hundreds of thousands of them.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import revtok.freeze as freeze_mod
import revtok.governance as governance_mod
from revtok.freeze import FreezeEngine
from revtok.governance import TERMINAL_PHASES, Governance
from revtok.ledger import TokenLedger
from revtok.nft import NftRegistry
from revtok.spendlog import SpendLog

# (metric name, unit, better) for every per-layer metric, in report order.
# Times are per pass; counts are per pass; ratios have their base in the name.
PER_LAYER = [
    ("freeze.eliminate_cycles_s", "s", "lower"),
    ("freeze.cycle_rounds", "count", "lower"),
    ("freeze.edges_after_cancel", "count", "lower"),
    ("freeze.build_graph_s", "s", "lower"),
    ("freeze.graph_nodes", "count", "lower"),
    ("freeze.graph_edges", "count", "lower"),
    ("spendlog.outgoing_between_s", "s", "lower"),
    ("spendlog.outgoing_between_calls", "count", "lower"),
    ("spendlog.records_returned", "count", "lower"),
    ("freeze.calc_freeze_s", "s", "lower"),
    ("freeze.edges_touched", "count", "lower"),
    ("freeze.edge_iterations", "count", "lower"),
    ("freeze.apply_s", "s", "lower"),
    ("freeze.settle_s", "s", "lower"),
    ("freeze.frozen_ratio", "ratio", "higher"),
    ("governance.submit_s", "s", "lower"),
    ("governance.select_quorum_s", "s", "lower"),
    ("governance.vote_s", "s", "lower"),
    ("governance.vote_calls", "count", "lower"),
    ("governance.tally_self_s", "s", "lower"),
    ("governance.cases_closed", "count", "higher"),
    ("ledger.clean_s", "s", "lower"),
    ("ledger.buckets_cleaned", "count", "higher"),
    ("ledger.records_matured", "count", "higher"),
    ("ledger.clean_useful_ratio", "ratio", "higher"),
    ("spendlog.pop_bucket_s", "s", "lower"),
    ("spendlog.pop_bucket_calls", "count", "lower"),
    ("spendlog.sender_live_at_pop", "count", "lower"),
    ("ledger.transfer_us", "us", "lower"),
    ("ledger.transfer_calls", "count", "lower"),
    ("spendlog.record_s", "s", "lower"),
    ("spendlog.record_calls", "count", "lower"),
    ("nft.transfer_s", "s", "lower"),
    ("nft.transfer_calls", "count", "lower"),
    ("nft.clean_s", "s", "lower"),
    ("nft.records_dropped", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        # Live records per sender, kept from the record and pop_bucket spans.
        self.live: Counter[str] = Counter()
        # Claims whose nodes_visited + edges_touched exceeded V + E.
        self.bound_violations: list[str] = []
        self._child = [0.0]

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def _span(self, layer, fn, before=None, after=None):
        """Wrap `fn` as span `layer`.  `before(*args)` runs first and its
        value reaches `after(result, state, *args)`, which runs once the span
        has ended; neither is charged to the span or to its parent."""
        child = self._child
        self_s = self.self_s
        calls = self.calls

        def wrapped(*args, **kwargs):
            entered = perf_counter()
            state = before(*args) if before else None
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self_s[layer] += end - start - child.pop()
                calls[layer] += 1
            if after:
                after(result, state, *args)
            child[-1] += perf_counter() - entered
            return result

        return wrapped

    # -- work counters, read at the span boundaries ---------------------------

    def _recorded(self, ref, _state, _log, sender, *_):
        self.live[sender] += 1

    def _before_pop(self, _log, _epoch, sender):
        self.work["sender_live_at_pop"] += self.live[sender]

    def _popped(self, records, _state, _log, _epoch, sender):
        self.live[sender] -= len(records)

    def _returned(self, window, *_):
        self.work["records_returned"] += len(window)

    def _built(self, graph, *_):
        self.work["graph_nodes"] += len(graph.nodes)
        self.work["graph_edges"] += len(graph.edges)

    def _cancelled(self, graph, edges_in, *_):
        # Each cancel round deletes exactly one edge.
        self.work["cycle_rounds"] += edges_in - len(graph.edges)
        self.work["edges_after_cancel"] += len(graph.edges)

    def _planned(self, plan, _state, graph, *_):
        nodes, edges = len(graph.nodes), len(graph.edges)
        self.work["edges_touched"] += plan.edges_touched
        # calc_freeze walks every edge in its indegree pass and again in its
        # Kahn pass, then the obligation pass touches plan.edges_touched.
        self.work["edge_iterations"] += 2 * edges + plan.edges_touched
        self.work["frozen"] += plan.total_frozen
        self.work["demand"] += plan.demand
        if plan.nodes_visited + plan.edges_touched > nodes + edges:
            self.bound_violations.append(
                f"claim at {plan.root}: visited {plan.nodes_visited} + touched "
                f"{plan.edges_touched} > V {nodes} + E {edges}"
            )

    def _tallied(self, outcome, *_):
        if outcome.phase_after in TERMINAL_PHASES:
            self.work["cases_closed"] += 1

    def _cleaned(self, report, *_):
        self.work["buckets_requested"] += len(report.buckets)
        for bucket in report.buckets:
            if bucket.status == "cleaned":
                self.work["buckets_cleaned"] += 1
                self.work["records_matured"] += bucket.deleted

    def _nft_cleaned(self, results, *_):
        self.work["records_dropped"] += sum(r.dropped for r in results)

    @contextmanager
    def installed(self):
        """Wrap every traced entry point for the duration of the block."""
        targets = [
            (TokenLedger, "transfer", "ledger.transfer", None, None),
            (TokenLedger, "rtransfer", "ledger.transfer", None, None),
            (TokenLedger, "clean", "ledger.clean", None, self._cleaned),
            (SpendLog, "record", "spendlog.record", None, self._recorded),
            (SpendLog, "outgoing_between", "spendlog.outgoing_between", None, self._returned),
            (SpendLog, "pop_bucket", "spendlog.pop_bucket", self._before_pop, self._popped),
            (freeze_mod, "build_graph", "freeze.build_graph", None, self._built),
            (freeze_mod, "eliminate_cycles", "freeze.eliminate_cycles",
             lambda graph: len(graph.edges), self._cancelled),
            (freeze_mod, "calc_freeze", "freeze.calc_freeze", None, self._planned),
            (FreezeEngine, "execute_freeze", "freeze.apply", None, None),
            (FreezeEngine, "reverse", "freeze.settle", None, None),
            (FreezeEngine, "reject_reverse", "freeze.settle", None, None),
            (Governance, "submit_freeze_request", "governance.submit", None, None),
            (governance_mod, "select_quorum", "governance.select_quorum", None, None),
            (Governance, "cast_commit", "governance.vote", None, None),
            (Governance, "cast_reveal", "governance.vote", None, None),
            (Governance, "tally", "governance.tally", None, self._tallied),
            (NftRegistry, "transfer", "nft.transfer", None, None),
            (NftRegistry, "clean", "nft.clean", None, self._nft_cleaned),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in targets]
        try:
            for owner, attr, layer, before, after in targets:
                setattr(owner, attr, self._span(layer, getattr(owner, attr), before, after))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer values of one pass, `trace.overhead_ratio` excepted."""
        s, calls, work = self.self_s, self.calls, self.work
        transfers = calls["ledger.transfer"]
        pops = calls["spendlog.pop_bucket"]
        return {
            "freeze.eliminate_cycles_s": s["freeze.eliminate_cycles"],
            "freeze.cycle_rounds": work["cycle_rounds"],
            "freeze.edges_after_cancel": work["edges_after_cancel"],
            "freeze.build_graph_s": s["freeze.build_graph"],
            "freeze.graph_nodes": work["graph_nodes"],
            "freeze.graph_edges": work["graph_edges"],
            "spendlog.outgoing_between_s": s["spendlog.outgoing_between"],
            "spendlog.outgoing_between_calls": calls["spendlog.outgoing_between"],
            "spendlog.records_returned": work["records_returned"],
            "freeze.calc_freeze_s": s["freeze.calc_freeze"],
            "freeze.edges_touched": work["edges_touched"],
            "freeze.edge_iterations": work["edge_iterations"],
            "freeze.apply_s": s["freeze.apply"],
            "freeze.settle_s": s["freeze.settle"],
            "freeze.frozen_ratio": work["frozen"] / work["demand"] if work["demand"] else 0.0,
            "governance.submit_s": s["governance.submit"],
            "governance.select_quorum_s": s["governance.select_quorum"],
            "governance.vote_s": s["governance.vote"],
            "governance.vote_calls": calls["governance.vote"],
            "governance.tally_self_s": s["governance.tally"],
            "governance.cases_closed": work["cases_closed"],
            "ledger.clean_s": s["ledger.clean"],
            "ledger.buckets_cleaned": work["buckets_cleaned"],
            "ledger.records_matured": work["records_matured"],
            "ledger.clean_useful_ratio": (
                work["buckets_cleaned"] / work["buckets_requested"]
                if work["buckets_requested"] else 0.0
            ),
            "spendlog.pop_bucket_s": s["spendlog.pop_bucket"],
            "spendlog.pop_bucket_calls": pops,
            "spendlog.sender_live_at_pop": work["sender_live_at_pop"] / pops if pops else 0.0,
            "ledger.transfer_us": 1e6 * s["ledger.transfer"] / transfers if transfers else 0.0,
            "ledger.transfer_calls": transfers,
            "spendlog.record_s": s["spendlog.record"],
            "spendlog.record_calls": calls["spendlog.record"],
            "nft.transfer_s": s["nft.transfer"],
            "nft.transfer_calls": calls["nft.transfer"],
            "nft.clean_s": s["nft.clean"],
            "nft.records_dropped": work["records_dropped"],
        }
