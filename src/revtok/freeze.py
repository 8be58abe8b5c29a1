"""Fund tracing and the freeze lifecycle.

Given a disputed transfer, the engine rebuilds where those coins could have
gone: a directed multigraph over accounts whose edges are the spend records
posted strictly after the disputed transfer, restricted to chronologically
increasing paths out of the disputed recipient.  Cycles are cancelled down to
a DAG, and a single pass over the DAG in topological order decides how much to
freeze at each account and how much obligation to pass along each edge,
newest edges first.

Freezing also consumes disputable capacity: every obligation passed along an
edge is subtracted from that record's remaining amount, so a later claim on
the same record cannot freeze the same coins twice.  A rejected claim puts the
subtracted amounts back.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Iterator

from .errors import (
    ClaimNotFrozenError,
    InvalidDisputeError,
    NotAffectedPartyError,
    NotGovernanceError,
    UnknownClaimError,
    WindowElapsedError,
)
from .ledger import Address, TokenLedger
from .spendlog import SpendLog, SpendRecord, SpendRef


@dataclass(slots=True)
class GraphEdge:
    """One spend record viewed as a graph edge.

    `record` is the spend record itself: the edge runs from its `sender` to
    its `to` at its `seq`, and a freeze debits it and a rejection restores it
    in place.  `value` is the edge's capacity, which starts as the record's
    remaining amount and may be discounted by cycle cancellation; zero-valued
    edges are legal and stay in the graph.
    """

    value: int
    record: SpendRecord


@dataclass
class TransferGraph:
    """Trace graph rooted at the disputed recipient.

    `out` is the graph's only edge store: its keys are the nodes in discovery
    order, its values each node's outgoing edges, newest-first, each one
    sent by its key.  The freeze pass relies on that order instead of
    sorting, which keeps it linear in the graph size.
    """

    root: Address
    out: dict[Address, list[GraphEdge]] = field(default_factory=dict)
    burned_at: dict[Address, int] = field(default_factory=dict)

    @property
    def nodes(self) -> list[Address]:
        return list(self.out)

    @property
    def edges(self) -> list[GraphEdge]:
        return [e for edges in self.out.values() for e in edges]


def build_graph(log: SpendLog, rec: SpendRecord, freeze_seq: int) -> TransferGraph:
    """Trace the funds of the disputed record `rec` through the spend log.

    The caller has already resolved the disputed ref to `rec` and admitted it
    (`FreezeEngine.disputed_record` refuses a burn record), and the graph is
    rooted at its recipient.  An account enters the graph when some
    increasing-seq path from the disputed transfer reaches it; its outgoing
    records strictly between that first arrival and `freeze_seq` become edges.
    Burn records in the same span accumulate into burned_at instead, since
    burned coins can absorb obligation but cannot carry it anywhere.

    Earliest arrivals are settled in ascending seq order (a heap of
    (arrival seq, account)); an account is settled once it is a key of
    `graph.out`, so each account's outgoing window is read exactly once.
    """
    graph = TransferGraph(root=rec.to)
    arrival: dict[Address, int] = {rec.to: rec.seq}
    heap: list[tuple[int, Address]] = [(rec.seq, rec.to)]
    while heap:
        at, node = heapq.heappop(heap)
        if node in graph.out:
            continue
        edges = graph.out[node] = []
        for out in log.outgoing_between(node, at, freeze_seq):
            if out.to is None:
                graph.burned_at[node] = graph.burned_at.get(node, 0) + out.amount
                continue
            edges.append(GraphEdge(out.amount, out))
            if out.to not in graph.out and out.seq < arrival.get(out.to, freeze_seq):
                arrival[out.to] = out.seq
                heapq.heappush(heap, (out.seq, out.to))
    return graph


def eliminate_cycles(graph: TransferGraph) -> TransferGraph:
    """Cancel cycles in place until the graph is a DAG.

    Each round removes the minimum-value edge of some cycle (ties broken by
    lowest seq) and discounts every other edge on that cycle by that value.
    Discounted edges stay even at value zero; only the minimum edge is
    deleted, so there are at most |edges| rounds.

    One iterative DFS finds every cycle; a self-edge is a one-edge cycle.
    After a round it resumes at the removed edge's source, whose live
    iterator has already read past that edge, with the nodes popped above it
    WHITE again.  BLACK nodes stay BLACK: all they reach is BLACK and
    acyclic, and deleting an edge creates no cycle.
    """
    adj = graph.out
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(adj, WHITE)
    entered_via: dict[Address, GraphEdge] = {}
    for start in adj:
        if color[start] != WHITE:
            continue
        color[start] = GRAY
        stack: list[tuple[Address, Iterator[GraphEdge]]] = [(start, iter(adj[start]))]
        while stack:
            node, edges = stack[-1]
            edge = next(edges, None)
            if edge is None:
                color[node] = BLACK
                stack.pop()
                continue
            dst = edge.record.to
            if color[dst] == WHITE:
                color[dst] = GRAY
                entered_via[dst] = edge
                stack.append((dst, iter(adj[dst])))
            elif color[dst] == GRAY:
                cycle = [edge]
                while cycle[-1].record.sender != dst:
                    cycle.append(entered_via[cycle[-1].record.sender])
                weakest = min(cycle, key=lambda e: (e.value, e.record.seq))
                for e in cycle:
                    if e is not weakest:
                        e.value -= weakest.value
                src = weakest.record.sender
                adj[src] = [e for e in adj[src] if e is not weakest]
                while stack[-1][0] != src:
                    color[stack.pop()[0]] = WHITE
    return graph


@dataclass
class FreezePlan:
    """Outcome of one freeze computation, before it is applied.

    Every map lists only positive amounts; an absent node holds 0.
    to_freeze maps each node to the amount locked there, and obligations
    maps each node to the total obligation that reached it.  per_edge pairs
    every edge that carried obligation, in pass order, with that obligation;
    the edges are the traced graph's own, each holding the spend record that
    obligation is debited from.  absorbed_by_burn and residual account for
    obligation that no freeze could cover: coins burned downstream, and
    obligation stranded where outgoing capacity ran out, so each node's
    obligation equals its frozen, absorbed and residual amounts plus what its
    per_edge rows passed on.  nodes_visited counts the nodes the pass popped
    and edges_touched the edges the obligation walk stepped over, zero-valued
    ones included.  edge_count counts the edges of the graph the pass ran on.
    edge_iterations is computed from those two: every step the pass took
    over an edge, one per edge in the indegree count, one per edge in the
    topological release, and edges_touched in the obligation walk.
    """

    root: Address
    demand: int
    to_freeze: dict[Address, int] = field(default_factory=dict)
    obligations: dict[Address, int] = field(default_factory=dict)
    per_edge: list[tuple[GraphEdge, int]] = field(default_factory=list)
    absorbed_by_burn: dict[Address, int] = field(default_factory=dict)
    residual: dict[Address, int] = field(default_factory=dict)
    nodes_visited: int = 0
    edges_touched: int = 0
    edge_count: int = 0

    @property
    def edge_iterations(self) -> int:
        return 2 * self.edge_count + self.edges_touched

    @property
    def total_frozen(self) -> int:
        return sum(self.to_freeze.values())

    @property
    def total_absorbed(self) -> int:
        return sum(self.absorbed_by_burn.values())

    @property
    def total_residual(self) -> int:
        return sum(self.residual.values())


def calc_freeze(graph: TransferGraph, demand: int, balance_of) -> FreezePlan:
    """Distribute `demand` over the DAG, newest edges first.

    Nodes are processed in topological order.  At each node the pending
    obligation is frozen up to the available reversible balance; whatever the
    local burn total does not absorb is passed along the outgoing edges in
    reverse-chronological order, each taking min(remaining, edge value).

    Pure: reads balances through `balance_of`, mutates nothing.  Work is
    O(nodes + edges); the plan records the node, touch and edge counts.
    """
    plan = FreezePlan(root=graph.root, demand=demand)
    adj = graph.out
    indegree = dict.fromkeys(adj, 0)
    for edges in adj.values():
        plan.edge_count += len(edges)
        for e in edges:
            indegree[e.record.to] += 1
    queue = [n for n in adj if indegree[n] == 0]
    obligations = plan.obligations
    if demand:
        obligations[graph.root] = demand
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        plan.nodes_visited += 1
        pending = obligations.get(node)
        if pending:
            frozen = min(pending, balance_of(node))
            absorbed = min(pending - frozen, graph.burned_at.get(node, 0))
            remaining = pending - frozen - absorbed
            for edge in adj[node]:
                if not remaining:
                    break
                plan.edges_touched += 1
                passed = min(remaining, edge.value)
                if passed:
                    obligations[edge.record.to] = obligations.get(edge.record.to, 0) + passed
                    plan.per_edge.append((edge, passed))
                    remaining -= passed
            if frozen:
                plan.to_freeze[node] = frozen
            if absorbed:
                plan.absorbed_by_burn[node] = absorbed
            if remaining:
                plan.residual[node] = remaining
        for edge in adj[node]:
            dst = edge.record.to
            indegree[dst] -= 1
            if indegree[dst] == 0:
                queue.append(dst)
    assert len(queue) == len(adj), "graph fed to calc_freeze must be acyclic"
    return plan


class ClaimStatus(enum.Enum):
    FROZEN = "Frozen"
    REVERSED = "Reversed"
    REJECTED = "Rejected"


@dataclass
class Claim:
    """A filed freeze.

    The plan is the claim's only record of what it locked and why: its
    to_freeze amounts are what settlement moves or releases, and its per_edge
    obligations are the record debits a rejection restores.  The claim keeps
    no copy of the traced graph; only the edges that carried obligation stay
    reachable, through per_edge.
    """

    claim_id: str
    victim: Address
    disputed: SpendRef
    status: ClaimStatus
    plan: FreezePlan


class FreezeEngine:
    """Executes freezes and settles claims against a TokenLedger.

    Only the arbitration identity fixed at construction may call the mutating
    entry points.
    """

    REVERSAL_SENDER_PREFIX = "claim:"

    def __init__(self, ledger: TokenLedger, governance: Address):
        self.ledger = ledger
        self.governance = governance
        self.claims: dict[str, Claim] = {}

    @property
    def claim_order(self) -> list[str]:
        """Claim ids in filing order."""
        return list(self.claims)

    def _require_governance(self, caller: Address) -> None:
        if caller != self.governance:
            raise NotGovernanceError(f"{caller} may not drive the freeze lifecycle")

    def _frozen_claim(self, claim_id: str, caller: Address) -> Claim:
        self._require_governance(caller)
        claim = self.claims.get(claim_id)
        if claim is None:
            raise UnknownClaimError(claim_id)
        if claim.status is not ClaimStatus.FROZEN:
            raise ClaimNotFrozenError(f"claim {claim_id} is {claim.status.value}")
        return claim

    def disputed_record(self, ref: SpendRef, victim: Address, current_block: int) -> SpendRecord:
        """The record `ref` names, if `victim` may dispute it at `current_block`.

        Raises UnknownSpenditureError when the ref dangles (its bucket was
        cleaned), InvalidDisputeError for a burn record, NotAffectedPartyError
        when `victim` did not send it and WindowElapsedError once its dispute
        window has closed.
        """
        record = self.ledger.log.resolve(ref)
        if record.to is None:
            raise InvalidDisputeError("a burn record cannot be disputed")
        if victim != record.sender:
            raise NotAffectedPartyError(f"{victim} did not send the disputed record")
        if current_block - record.block > self.ledger.config.dispute_window:
            raise WindowElapsedError(
                f"record from block {record.block} is outside the window at {current_block}"
            )
        return record

    def execute_freeze(
        self, disputed: SpendRef, victim: Address, current_block: int, caller: Address
    ) -> str:
        """Freeze the still-disputable remainder of `disputed` wherever it went.

        `disputed_record` refuses an inadmissible dispute before anything
        changes.  The demand is the record's remaining amount, so coins
        already claimed through this record cannot be frozen a second time.
        Applying the plan raises every to_freeze account's frozen total,
        subtracts each per-edge obligation from the record its edge holds, and
        files a claim that keeps the plan for later settlement.

        Funds freeze at the disputed recipient first, so the transfer graph is
        built and cycle-cancelled only when the recipient's available
        reversible balance falls short of the demand.  Otherwise the pass runs
        on the recipient alone: no obligation could leave it either way, so
        the plan is the one a full trace gives, but for its three graph-size
        counters.
        """
        self._require_governance(caller)
        record = self.disputed_record(disputed, victim, current_block)
        if self.ledger.available_rbalance(record.to) >= record.amount:
            graph = TransferGraph(record.to, {record.to: []})
        else:
            graph = eliminate_cycles(
                build_graph(self.ledger.log, record, self.ledger.log.next_seq)
            )
        plan = calc_freeze(graph, record.amount, self.ledger.available_rbalance)
        claim_id = hashlib.sha256(
            b"claim|%d|%d|%s|%d|%d"
            % (len(self.claims), disputed.epoch, disputed.sender.encode(),
               disputed.index, current_block)
        ).hexdigest()

        # All validation is done; apply.
        for addr, amount in plan.to_freeze.items():
            acct = self.ledger._acct(addr)
            acct.frozen += amount
            assert acct.frozen <= acct.reversible
        for edge, obligation in plan.per_edge:
            edge.record.amount -= obligation
            assert edge.record.amount >= 0
        claim = Claim(claim_id, victim, disputed, ClaimStatus.FROZEN, plan)
        self.claims[claim_id] = claim
        return claim_id

    def reverse(self, claim_id: str, caller: Address) -> int:
        """Move every amount the claim froze to the victim.

        The victim is credited reversibly, and the payout is logged as a spend
        from a synthetic claim sender so the reversal itself stays traceable.
        Returns the amount moved.
        """
        claim = self._frozen_claim(claim_id, caller)
        for addr, amount in claim.plan.to_freeze.items():
            acct = self.ledger._acct(addr)
            acct.reversible -= amount
            acct.frozen -= amount
            assert acct.reversible >= 0 and acct.frozen >= 0
        total = claim.plan.total_frozen
        if total:
            self.ledger._acct(claim.victim).reversible += total
            self.ledger.log.record(
                self.REVERSAL_SENDER_PREFIX + claim_id[:16],
                claim.victim,
                total,
                self.ledger.current_block,
            )
        claim.status = ClaimStatus.REVERSED
        return total

    def reject_reverse(self, claim_id: str, caller: Address) -> None:
        """Release the claim's frozen amounts and restore its record debits.

        Each debit goes back onto the record its edge holds.  If that record's
        bucket was cleaned in the meantime the restore is inert: clean matured
        the record's remaining amount when it deleted it, and no ref or
        outgoing window reaches the record any more.
        """
        claim = self._frozen_claim(claim_id, caller)
        for addr, amount in claim.plan.to_freeze.items():
            acct = self.ledger._acct(addr)
            acct.frozen -= amount
            assert acct.frozen >= 0
        for edge, obligation in claim.plan.per_edge:
            edge.record.amount += obligation
            assert edge.record.amount <= edge.record.original_amount
        claim.status = ClaimStatus.REJECTED
