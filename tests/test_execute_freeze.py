from __future__ import annotations

import copy
import functools
import hashlib
import json
import random

import pytest

from revtok import (
    BurnSource,
    ClaimNotFrozenError,
    ClaimStatus,
    InvalidDisputeError,
    NotAffectedPartyError,
    NotGovernanceError,
    UnknownClaimError,
    WindowElapsedError,
)
from revtok import SpendLog, freeze
from revtok.freeze import build_graph, calc_freeze, eliminate_cycles
from revtok.oracle import file_trial_claim, oracle_trials

from conftest import GOV, make_engine, make_ledger

def seed_theft(led, amount=50, stolen_to="a0"):
    led.mint("v", amount, block=1)
    return led.transfer("v", stolen_to, amount, block=1)


def test_only_governance_may_drive():
    led, eng = make_engine()
    ref = seed_theft(led)
    with pytest.raises(NotGovernanceError):
        eng.execute_freeze(ref, "v", 1, caller="mallory")
    cid = eng.execute_freeze(ref, "v", 1, caller=GOV)
    with pytest.raises(NotGovernanceError):
        eng.reverse(cid, caller="mallory")
    with pytest.raises(NotGovernanceError):
        eng.reject_reverse(cid, caller="mallory")


def test_victim_must_be_sender():
    led, eng = make_engine()
    ref = seed_theft(led)
    with pytest.raises(NotAffectedPartyError):
        eng.execute_freeze(ref, "a0", 1, caller=GOV)


def test_window_guard():
    led, eng = make_engine(make_ledger(window=100))
    ref = seed_theft(led)
    # exactly at the boundary is still allowed
    led.advance_block(101)
    cid = eng.execute_freeze(ref, "v", 101, caller=GOV)
    assert eng.claims[cid].plan.total_frozen == 50
    led.advance_block(102)
    with pytest.raises(WindowElapsedError):
        eng.execute_freeze(ref, "v", 102, caller=GOV)


def test_freeze_applies_plan_and_debits():
    led, eng = make_engine()
    ref = seed_theft(led)
    hop = led.rtransfer("a0", "a1", 20, block=2)
    cid = eng.execute_freeze(ref, "v", 2, caller=GOV)
    assert led.account("a0").frozen == 30
    assert led.account("a1").frozen == 20
    # traced hops are debited by their obligation, the disputed record by the
    # whole demand, so a second claim on it has nothing left to freeze
    assert led.log.resolve(hop).amount == 0
    assert led.log.resolve(ref).amount == 0
    claim = eng.claims[cid]
    assert claim.status is ClaimStatus.FROZEN
    assert claim.plan.to_freeze == {"a0": 30, "a1": 20}
    [(edge, obligation)] = claim.plan.per_edge
    assert edge.record is led.log.resolve(hop) and obligation == 20


def test_redispute_while_pending_freezes_nothing():
    # the first claim froze the full balance; a second claim over the same
    # record sees zero available everywhere and produces an empty claim
    led, eng = make_engine()
    ref = seed_theft(led)
    eng.execute_freeze(ref, "v", 1, caller=GOV)
    cid2 = eng.execute_freeze(ref, "v", 1, caller=GOV)
    assert eng.claims[cid2].plan.total_frozen == 0
    plan2 = eng.claims[cid2].plan
    assert plan2.to_freeze == {} and plan2.per_edge == []
    assert led.account("a0").frozen == 50  # unchanged


def test_a_record_is_reversed_once_unless_rejected():
    # x's innocent 50 sits beside v's at a0; a record reversed once has no
    # demand left, so a second claim on it cannot take x's coins
    led, eng = make_engine()
    led.mint("x", 50, block=1)
    led.transfer("x", "a0", 50, block=1)
    ref = seed_theft(led)
    eng.reverse(eng.execute_freeze(ref, "v", 1, caller=GOV), caller=GOV)
    again = eng.execute_freeze(ref, "v", 1, caller=GOV)
    assert eng.claims[again].plan.demand == 0
    assert eng.reverse(again, caller=GOV) == 0
    assert led.account("a0").reversible == 50
    # a rejection hands the demand back, so the record can be claimed anew
    led, eng = make_engine()
    ref = seed_theft(led)
    eng.reject_reverse(eng.execute_freeze(ref, "v", 1, caller=GOV), caller=GOV)
    assert eng.claims[eng.execute_freeze(ref, "v", 1, caller=GOV)].plan.total_frozen == 50


def test_double_freeze_through_shared_hop():
    led, eng = make_engine()
    led.mint("v", 50, block=1)
    led.mint("x", 50, block=1)
    ref_v = led.transfer("v", "a0", 50, block=1)
    led.transfer("x", "a1", 50, block=1)
    led.rtransfer("a0", "a1", 50, block=2)
    eng.execute_freeze(ref_v, "v", 2, caller=GOV)
    assert led.account("a1").frozen == 50
    # a0 disputes its own outgoing hop: the record is already zeroed, so the
    # second claim's demand is zero even though a1 still has 50 available
    from revtok import SpendRef

    hop_ref = SpendRef(0, "a0", 0)
    cid2 = eng.execute_freeze(hop_ref, "a0", 2, caller=GOV)
    assert eng.claims[cid2].plan.demand == 0
    assert eng.claims[cid2].plan.total_frozen == 0
    assert led.account("a1").frozen == 50


def test_reverse_moves_funds_and_logs_traceable_spend():
    led, eng = make_engine()
    ref = seed_theft(led)
    led.rtransfer("a0", "a1", 20, block=2)
    cid = eng.execute_freeze(ref, "v", 2, caller=GOV)
    seq_before = led.log.next_seq
    moved = eng.reverse(cid, caller=GOV)
    assert moved == 50
    assert led.account("v").reversible == 50
    assert led.account("a0").reversible == 0
    assert led.account("a0").frozen == 0
    assert led.account("a1").reversible == 0
    assert led.account("a1").frozen == 0
    payout = led.log.all_records()[-1][1]
    assert payout.seq == seq_before
    assert payout.sender.startswith("claim:")
    assert (payout.to, payout.amount) == ("v", 50)
    assert eng.claims[cid].status is ClaimStatus.REVERSED


def test_reject_releases_and_restores():
    led, eng = make_engine()
    ref = seed_theft(led)
    hop = led.rtransfer("a0", "a1", 20, block=2)
    cid = eng.execute_freeze(ref, "v", 2, caller=GOV)
    eng.reject_reverse(cid, caller=GOV)
    assert led.account("a0").frozen == 0
    assert led.account("a1").frozen == 0
    assert led.account("a0").reversible == 30   # balances untouched
    assert led.account("a1").reversible == 20
    assert led.log.resolve(ref).amount == 50    # debits restored
    assert led.log.resolve(hop).amount == 20
    assert eng.claims[cid].status is ClaimStatus.REJECTED


def test_settlement_is_single_shot():
    led, eng = make_engine()
    ref = seed_theft(led)
    cid = eng.execute_freeze(ref, "v", 1, caller=GOV)
    eng.reverse(cid, caller=GOV)
    with pytest.raises(ClaimNotFrozenError):
        eng.reverse(cid, caller=GOV)
    with pytest.raises(ClaimNotFrozenError):
        eng.reject_reverse(cid, caller=GOV)
    with pytest.raises(UnknownClaimError):
        eng.reverse("no-such-claim", caller=GOV)


def test_reject_skips_refs_cleaned_away():
    led, eng = make_engine(make_ledger(epoch_length=10, window=20))
    led.mint("v", 50, block=1)
    ref = led.transfer("v", "a0", 50, block=2)
    hop = led.rtransfer("a0", "a1", 20, block=3)
    cid = eng.execute_freeze(ref, "v", 3, caller=GOV)
    led.mint("x", 5, block=40)
    led.transfer("x", "y", 5, block=40)  # a live record the restore must miss
    # the disputed bucket ages out and is swept while the claim is pending
    led.clean(0, ["v", "a0"], block=50)
    records = [(r, rec.amount) for r, rec in led.log.all_records()]
    balances = {a: (s.reversible, s.nonreversible) for a, s in led.accounts.items()}
    eng.reject_reverse(cid, caller=GOV)
    # the hop's debit goes back onto its popped record, which nothing reads
    assert [(r, rec.amount) for r, rec in led.log.all_records()] == records
    assert {a: (s.reversible, s.nonreversible) for a, s in led.accounts.items()} == balances
    assert all(s.frozen == 0 for s in led.accounts.values())


@pytest.fixture
def resolve_calls(monkeypatch):
    """Record every ref the spend log is asked to resolve."""
    calls = []
    resolve = SpendLog.resolve

    def counting(self, ref):
        calls.append(ref)
        return resolve(self, ref)

    monkeypatch.setattr(SpendLog, "resolve", counting)
    return calls


def test_claims_debit_and_restore_without_resolving(resolve_calls):
    led, eng = make_engine()
    ref = seed_theft(led)
    hops = [led.rtransfer("a0", "a1", 30, block=2), led.rtransfer("a1", "a2", 25, block=2)]
    led.mint("x", 40, block=2)
    sibling = led.transfer("x", "b0", 40, block=2)
    led.rtransfer("b0", "b1", 40, block=2)
    sibling_id = eng.execute_freeze(sibling, "x", 2, caller=GOV)
    resolve_calls.clear()
    cid = eng.execute_freeze(ref, "v", 2, caller=GOV)
    # the disputed ref, once in execute_freeze, which hands its record to
    # build_graph; the two debited hops are reached through their edges' records
    assert resolve_calls == [ref]
    assert [ob for _, ob in eng.claims[cid].plan.per_edge] == [30, 25]
    resolve_calls.clear()
    eng.reject_reverse(cid, caller=GOV)
    assert eng.reverse(sibling_id, caller=GOV) == 40
    assert resolve_calls == []
    assert [led.log.resolve(hop).amount for hop in hops] == [30, 25]


def test_failed_freeze_leaves_no_trace():
    led, eng = make_engine(make_ledger(window=100))
    ref = seed_theft(led)
    led.rtransfer("a0", "a1", 20, block=2)
    led.advance_block(200)
    before_accounts = copy.deepcopy(led.accounts)
    before_amounts = [rec.amount for _, rec in led.log.all_records()]
    with pytest.raises(WindowElapsedError):
        eng.execute_freeze(ref, "v", 200, caller=GOV)
    assert led.accounts == before_accounts
    assert [rec.amount for _, rec in led.log.all_records()] == before_amounts
    assert eng.claims == {}


def test_claim_ids_are_deterministic_and_unique():
    ids = []
    for _ in range(2):
        led, eng = make_engine()
        ref = seed_theft(led)
        a = eng.execute_freeze(ref, "v", 1, caller=GOV)
        b = eng.execute_freeze(ref, "v", 1, caller=GOV)
        assert a != b
        assert len(a) == 64 and int(a, 16) >= 0
        ids.append((a, b))
    assert ids[0] == ids[1]


# -- a claim the disputed recipient covers traces no graph ----------------------


def assert_same_freeze(plan, traced):
    """Every per-node map, every per-edge row and the touch count agree, and
    every amount either plan lists is positive."""
    for name in ("to_freeze", "obligations", "absorbed_by_burn", "residual"):
        assert getattr(plan, name) == getattr(traced, name), name
        assert all(v > 0 for v in getattr(plan, name).values()), name
    rows = [[(e.record, e.value, ob) for e, ob in p.per_edge] for p in (plan, traced)]
    assert rows[0] == rows[1]
    assert all(ob > 0 for _, ob in plan.per_edge)
    assert plan.edges_touched == traced.edges_touched


def full_trace(led, ref):
    """The cycle-cancelled graph a full trace of `ref` builds now, the plan it
    gives, and whether `ref`'s recipient alone covers the claim."""
    record = led.log.resolve(ref)
    graph = eliminate_cycles(build_graph(led.log, record, led.log.next_seq))
    covered = led.available_rbalance(record.to) >= record.amount
    return graph, calc_freeze(graph, record.amount, led.available_rbalance), covered


def assert_like_traced(plan, traced, covered):
    """A claim's plan agrees with a full trace taken just before it was
    filed, and a claim its recipient covers ran on the recipient alone."""
    assert_same_freeze(plan, traced)
    if covered:
        assert (plan.nodes_visited, plan.edge_count) == (1, 0)
        assert list(plan.to_freeze) == ([plan.root] if plan.demand else [])


def freeze_like_traced(led, eng, ref, victim):
    """Execute a freeze and check its plan against a full trace taken just before."""
    _graph, traced, covered = full_trace(led, ref)
    plan = eng.claims[eng.execute_freeze(ref, victim, led.current_block, GOV)].plan
    assert_like_traced(plan, traced, covered)
    return plan, covered


@pytest.fixture
def build_calls(monkeypatch):
    """Count the engine's build_graph calls."""
    calls = []

    def counting(*args):
        calls.append(args)
        return build_graph(*args)

    monkeypatch.setattr(freeze, "build_graph", counting)
    return calls


@pytest.fixture
def no_trace(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a claim its recipient covers must not be traced")

    monkeypatch.setattr(freeze, "build_graph", refuse)


@functools.cache
def seed41_trial_pass() -> tuple[str, int]:
    """One pass over the trials `oracle_check(10000, 41)` runs.

    The claim the oracle files on each must freeze as a full trace taken just
    before would, and the engine must trace only when the recipient cannot
    cover the claim.  Returns the SHA-256 over every trial's traced graph and
    plan (`tests/test_golden.py` holds it to `TRIAL_DIGEST`) and how many
    claims the recipient covered.
    """
    builds = []

    def counting(*args):
        builds.append(args)
        return build_graph(*args)

    digest = hashlib.sha256()
    traces = []
    covered = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(freeze, "build_graph", counting)
        for spec in oracle_trials(10000, 41, "mixed"):
            before = len(builds)
            led, plan = file_trial_claim(spec, lambda led, ref: traces.append(full_trace(led, ref)))
            graph, traced, shortcut = traces.pop()
            assert_like_traced(plan, traced, shortcut)
            assert len(builds) - before == (0 if shortcut else 1)
            covered += shortcut
            ref_at = {rec.seq: r for r, rec in led.log.all_records()}
            row = [
                [(e.record.sender, e.record.to, e.value, e.record.seq) for e in graph.edges],
                sorted(plan.to_freeze.items()),
                sorted(plan.obligations.items()),
                sorted(plan.absorbed_by_burn.items()),
                sorted(plan.residual.items()),
                [
                    (*ref_at[e.record.seq], e.record.sender, e.record.to, e.record.seq, e.value,
                     obligation)
                    for e, obligation in plan.per_edge
                ],
                plan.nodes_visited,
                plan.edges_touched,
            ]
            digest.update(json.dumps(row).encode() + b"\n")
    return digest.hexdigest(), covered


def test_oracle_trials_freeze_as_a_full_trace_would():
    _digest, covered = seed41_trial_pass()
    assert 1000 < covered < 9000  # both paths are well exercised


def test_cyclic_economy_claims_freeze_as_a_full_trace_would(build_calls):
    # twelve accounts trading both ways, with self-transfers and reversible
    # burns; every third transfer is disputed, some twice, between rounds of
    # traffic that must respect the frozen floors the claims leave behind
    rng = random.Random(5)
    led, eng = make_engine()
    names = [f"a{i}" for i in range(12)]
    for name in names:
        led.mint(name, 200, block=1)
    refs = []
    covered = cancelled = 0
    for block in range(2, 4):
        for _ in range(150):
            sender = rng.choice(names)
            acct = led.account(sender)
            if acct.available and rng.random() < 0.05:
                led.burn(sender, rng.randint(1, acct.available), block, BurnSource.REVERSIBLE)
            elif acct.available and rng.random() < 0.7:
                refs.append(led.rtransfer(sender, rng.choice(names),
                                          rng.randint(1, acct.available), block))
            elif acct.nonreversible:
                refs.append(led.transfer(sender, rng.choice(names),
                                         rng.randint(1, min(acct.nonreversible, 40)), block))
        disputed = refs[::3]
        rng.shuffle(disputed)
        for ref in disputed + disputed[:10]:
            graph = build_graph(led.log, led.log.resolve(ref), led.log.next_seq)
            edges = len(graph.edges)
            cancelled += edges - len(eliminate_cycles(graph).edges)
            covered += freeze_like_traced(led, eng, ref, ref.sender)[1]
    assert len(build_calls) == len(eng.claims) - covered
    assert 20 < covered < len(eng.claims) - 20
    assert cancelled > 0
    assert any(claim.plan.demand == 0 for claim in eng.claims.values())


def test_balance_equal_to_demand_takes_the_shortcut(no_trace):
    led, eng = make_engine()
    led.mint("x", 30, block=1)
    ref = seed_theft(led)
    led.transfer("x", "a0", 30, block=1)
    led.rtransfer("a0", "a1", 30, block=2)
    plan, covered = freeze_like_traced(led, eng, ref, "v")
    assert covered and plan.to_freeze == {"a0": 50}
    assert led.account("a1").frozen == 0


def test_balance_one_below_demand_traces(build_calls):
    led, eng = make_engine()
    led.mint("x", 30, block=1)
    ref = seed_theft(led)
    led.transfer("x", "a0", 30, block=1)
    hop = led.rtransfer("a0", "a1", 31, block=2)
    plan, covered = freeze_like_traced(led, eng, ref, "v")
    assert not covered and len(build_calls) == 1
    assert plan.to_freeze == {"a0": 49, "a1": 1}
    assert led.log.resolve(hop).amount == 30


def test_zero_demand_redispute_takes_the_shortcut(build_calls):
    led, eng = make_engine()
    ref = seed_theft(led)
    hop = led.rtransfer("a0", "a1", 20, block=2)
    led.rtransfer("a1", "a2", 10, block=2)
    freeze_like_traced(led, eng, ref, "v")
    assert led.log.resolve(hop).amount == 0 and len(build_calls) == 1
    plan, covered = freeze_like_traced(led, eng, hop, "a0")
    assert covered and plan.demand == 0 and plan.to_freeze == {}
    assert len(build_calls) == 1


def test_root_with_burns_and_a_cycle_takes_the_shortcut(no_trace):
    led, eng = make_engine()
    led.mint("x", 40, block=1)
    ref = seed_theft(led)
    led.transfer("x", "a0", 40, block=1)
    led.burn("a0", 10, 2, BurnSource.REVERSIBLE)
    led.rtransfer("a0", "a1", 25, block=2)
    led.rtransfer("a1", "a0", 5, block=2)
    graph = build_graph(led.log, led.log.resolve(ref), led.log.next_seq)
    assert graph.burned_at == {"a0": 10}
    assert {(e.record.sender, e.record.to) for e in graph.edges} == {("a0", "a1"), ("a1", "a0")}
    plan, covered = freeze_like_traced(led, eng, ref, "v")
    assert covered and plan.to_freeze == {"a0": 50}
    assert plan.absorbed_by_burn == {} and plan.residual == {}
