from __future__ import annotations

import copy

import pytest

from revtok import (
    ClaimNotFrozenError,
    ClaimStatus,
    InvalidDisputeError,
    NotAffectedPartyError,
    NotGovernanceError,
    UnknownClaimError,
    WindowElapsedError,
)

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
    # traced hops are debited by their obligation; the disputed record itself
    # is not consumed (the frozen floor guards it instead)
    assert led.log.resolve(hop).amount == 0
    assert led.log.resolve(ref).amount == 50
    claim = eng.claims[cid]
    assert claim.status is ClaimStatus.FROZEN
    assert {a: n for a, n in claim.plan.to_freeze.items() if n} == {"a0": 30, "a1": 20}
    assert [(e.ref, ob) for e, ob in claim.plan.per_edge if ob] == [(hop, 20)]


def test_redispute_while_pending_freezes_nothing():
    # the first claim froze the full balance; a second claim over the same
    # record sees zero available everywhere and produces an empty claim
    led, eng = make_engine()
    ref = seed_theft(led)
    eng.execute_freeze(ref, "v", 1, caller=GOV)
    cid2 = eng.execute_freeze(ref, "v", 1, caller=GOV)
    assert eng.claims[cid2].plan.total_frozen == 0
    plan2 = eng.claims[cid2].plan
    assert not any(plan2.to_freeze.values()) and not any(ob for _, ob in plan2.per_edge)
    assert led.account("a0").frozen == 50  # unchanged


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
    # the disputed bucket ages out and is swept while the claim is pending
    led.clean(0, ["v", "a0"], block=50)
    eng.reject_reverse(cid, caller=GOV)
    assert led.account("a0").frozen == 0
    assert led.account("a1").frozen == 0


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
