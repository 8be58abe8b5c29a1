from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from revtok import (
    BurnSource,
    CommitMismatchError,
    DoubleVoteError,
    FeePolicy,
    FrozenAssetError,
    FungibleTarget,
    InsufficientStakeError,
    InvalidDisputeError,
    LedgerError,
    NftTarget,
    NotAffectedPartyError,
    NotQuorumMemberError,
    Phase,
    PhaseError,
    PoolTooSmallError,
    UnknownCaseError,
    UnknownSpenditureError,
    UnknownTokenError,
    Vote,
    WindowElapsedError,
    commitment_hash,
    select_quorum,
)

from conftest import make_stack, vote_round


def fungible_case(gov, led, stake=None, tip=0, amount=100):
    led.mint("v", amount + (stake or gov.policy.min_stake) + tip, block=1)
    ref = led.transfer("v", "a0", amount, block=1)
    return gov.submit_freeze_request(
        "v", FungibleTarget(ref), stake or gov.policy.min_stake, tip=tip
    ), ref


# -- commitments ---------------------------------------------------------------


def test_commitment_hash_layout_is_pinned():
    digest = commitment_hash(Vote.APPROVE, b"\x01", case_id=7)
    manual = hashlib.sha256(
        b"\x01" + b"\x00" * 31 + b"\x01" + (7).to_bytes(8, "big")
    ).digest()
    assert digest == manual
    assert commitment_hash(Vote.REJECT, b"\x01", 7)[0:32] != digest[0:32]
    # short salts are left-padded, so the padded form is identical
    assert commitment_hash(Vote.APPROVE, b"\x00" * 31 + b"\x01", 7) == digest
    with pytest.raises(ValueError):
        commitment_hash(Vote.APPROVE, b"\x00" * 33, 7)


def test_commitment_binds_case_id():
    a = commitment_hash(Vote.APPROVE, b"\x05", 1)
    b = commitment_hash(Vote.APPROVE, b"\x05", 2)
    assert a != b


# -- sortition -------------------------------------------------------------------


def test_select_quorum_is_deterministic_and_distinct():
    pool = [f"j{i}" for i in range(20)]
    q1 = select_quorum(pool, 12, b"\x07", case_id=3)
    q2 = select_quorum(list(reversed(pool)), 12, b"\x07", case_id=3)
    assert q1 == q2  # pool order does not matter
    assert len(set(q1)) == 12
    assert select_quorum(pool, 12, b"\x07", case_id=4) != q1
    with pytest.raises(PoolTooSmallError):
        select_quorum(pool[:5], 6, b"\x07", 1)


def test_select_quorum_is_roughly_uniform():
    pool = [f"j{i}" for i in range(20)]
    counts = Counter()
    draws = 10_000
    for case_id in range(draws):
        counts.update(select_quorum(pool, 12, b"\x42", case_id))
    expected = draws * 12 / 20
    for judge in pool:
        assert abs(counts[judge] - expected) <= 0.05 * expected, judge


# -- policy ----------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        FeePolicy(judge_fee=1, quorum_size=12, min_stake=23)
    with pytest.raises(ValueError):
        FeePolicy(judge_fee=1, quorum_size=3, min_stake=6, freeze_threshold=4)
    with pytest.raises(ValueError):
        FeePolicy(tip_to="claimant")
    for bad in ({"reveal_deadline": 0}, {"strike_limit": 0}, {"min_cases": 0},
                {"extreme_minority_max": -1}, {"minority_ratio": -0.1},
                {"minority_ratio": 1.5}, {"minority_ratio": float("nan")}):
        with pytest.raises(ValueError):
            FeePolicy(**bad)
    # steps raise the largest quorum the stake must cover
    with pytest.raises(ValueError):
        FeePolicy(judge_fee=1, quorum_size=3, min_stake=6,
                  quorum_steps=((100, 9),))
    # a step size below 1 draws no judges (0) or all but three (-3)
    for size in (0, -3):
        with pytest.raises(ValueError):
            FeePolicy(quorum_steps=((1, size),))
    # a case of 1000 or more draws 3 judges and could never reach 10 approvals
    for which in ("freeze_threshold", "trial_threshold"):
        with pytest.raises(ValueError):
            FeePolicy(quorum_size=12, quorum_steps=((1000, 3),), **{which: 10})
    # a step at floor 0 replaces the base size for every amount
    policy = FeePolicy(quorum_size=3, freeze_threshold=4, quorum_steps=((0, 5),))
    assert policy.threshold("freeze_threshold", policy.quorum_for(0)) == 4


def test_min_stake_defaults_to_two_rounds_of_fees_at_the_largest_quorum():
    assert FeePolicy().min_stake == 24
    assert FeePolicy(judge_fee=2).min_stake == 48
    assert FeePolicy(judge_fee=1, quorum_size=3).min_stake == 6
    assert FeePolicy(judge_fee=1, quorum_size=3, quorum_steps=((100, 9),)).min_stake == 18
    assert FeePolicy(judge_fee=0).min_stake == 0


def test_threshold_defaults_to_two_thirds():
    policy = FeePolicy(judge_fee=0, quorum_size=12, min_stake=0)
    assert policy.threshold("freeze_threshold", 12) == 8
    assert policy.threshold("freeze_threshold", 1) == 1
    assert policy.threshold("freeze_threshold", 4) == 3
    pinned = FeePolicy(judge_fee=0, quorum_size=12, min_stake=0, trial_threshold=10)
    assert pinned.threshold("trial_threshold", 12) == 10


def test_quorum_steps_scale_with_disputed_amount():
    policy = FeePolicy(judge_fee=1, quorum_size=3, min_stake=18,
                       quorum_steps=((100, 5), (1000, 9)))
    assert policy.quorum_for(0) == 3
    assert policy.quorum_for(99) == 3
    assert policy.quorum_for(100) == 5
    assert policy.quorum_for(5000) == 9


# -- case intake -----------------------------------------------------------------


def test_submit_escrows_stake_and_tip():
    led, eng, nft, gov, judges = make_stack(n_judges=1)
    cid, ref = fungible_case(gov, led, stake=5, tip=3)
    assert led.account("v").nonreversible == 0
    assert led.account("escrow").nonreversible == 8
    case = gov.cases[cid]
    assert (case.stake, case.tip, case.defendant, len(case.quorum)) == (5, 3, "a0", 1)
    assert case.phase is Phase.FREEZE_VOTE
    assert case.quorum == judges


def test_submit_guards():
    led, eng, nft, gov, judges = make_stack(n_judges=1)
    led.mint("v", 200, block=1)
    ref = led.transfer("v", "a0", 100, block=1)
    with pytest.raises(NotAffectedPartyError):
        gov.submit_freeze_request("a0", FungibleTarget(ref), 2)
    with pytest.raises(InsufficientStakeError):
        gov.submit_freeze_request("v", FungibleTarget(ref), 1)
    from revtok import BurnSource

    led.transfer("v", "b", 50, block=1)
    burn_ref = led.burn("b", 10, block=1, source=BurnSource.REVERSIBLE)
    with pytest.raises(InvalidDisputeError):
        gov.submit_freeze_request("b", FungibleTarget(burn_ref), 2)
    with pytest.raises(UnknownCaseError):
        gov.tally(99)
    led.advance_block(1 + led.config.dispute_window + 1)
    with pytest.raises(WindowElapsedError):
        gov.submit_freeze_request("v", FungibleTarget(ref), 2, tip=1)
    assert led.account("v").nonreversible == 50
    assert led.account(gov.escrow).nonreversible == 0
    assert gov.cases == {}


def test_submit_refuses_a_negative_tip_before_escrow():
    # stake 6 with tip -1 would escrow 5, and a dismissal would then pay out
    # more than escrow holds halfway through the tally
    led, eng, nft, gov, judges = make_stack(n_judges=3)
    led.mint("v", 106, block=1)
    ref = led.transfer("v", "a0", 100, block=1)
    with pytest.raises(ValueError):
        gov.submit_freeze_request("v", FungibleTarget(ref), 6, tip=-1)
    assert led.account("v").nonreversible == 6
    assert led.account(gov.escrow).nonreversible == 0
    assert gov.cases == {}


def test_submit_nft_guards():
    led, eng, nft, gov, judges = make_stack(n_judges=1)
    led.mint("a", 10, block=1)
    nft.mint(1, "a", block=1)
    nft.transfer(1, "b", block=2)
    with pytest.raises(UnknownTokenError):
        gov.submit_freeze_request("a", NftTarget(9, 0), 2)
    with pytest.raises(InvalidDisputeError):
        gov.submit_freeze_request("a", NftTarget(1, 1), 2)
    with pytest.raises(NotAffectedPartyError):
        gov.submit_freeze_request("b", NftTarget(1, 0), 2)
    cid = gov.submit_freeze_request("a", NftTarget(1, 0), 2)
    assert gov.cases[cid].defendant == "b"
    led.advance_block(2 + nft.dispute_window + 1)
    with pytest.raises(WindowElapsedError):
        gov.submit_freeze_request("a", NftTarget(1, 0), 2)
    assert led.account("a").nonreversible == 8
    assert list(gov.cases) == [cid]


def _dangling_ref(led, nft):
    ref = led.transfer("v", "a0", 10, block=1)
    led.clean(0, ["v"], block=30)
    return "v", FungibleTarget(ref)


def _burn_record(led, nft):
    led.transfer("v", "b", 10, block=1)
    return "b", FungibleTarget(led.burn("b", 5, block=1, source=BurnSource.REVERSIBLE))


def _not_the_sender(led, nft):
    return "a0", FungibleTarget(led.transfer("v", "a0", 10, block=1))


def _record_window_over(led, nft):
    ref = led.transfer("v", "a0", 10, block=1)
    led.advance_block(12)
    return "v", FungibleTarget(ref)


def _unknown_token(led, nft):
    return "a", NftTarget(9, 0)


def _no_such_hop(led, nft):
    return "a", NftTarget(1, 1)


def _hop_cleaned_away(led, nft):
    nft.transfer(1, "c", block=20)
    nft.clean([1], current_block=20)
    led.advance_block(20)
    return "a", NftTarget(1, 0)


def _not_the_prior_owner(led, nft):
    return "b", NftTarget(1, 0)


def _hop_window_over(led, nft):
    led.advance_block(13)
    return "a", NftTarget(1, 0)


def _token_already_frozen(led, nft):
    nft.freeze(1, 0, "a", led.current_block, nft.governance)
    return "a", NftTarget(1, 0)


@pytest.mark.parametrize("dispute, error", [
    (_dangling_ref, UnknownSpenditureError),
    (_burn_record, InvalidDisputeError),
    (_not_the_sender, NotAffectedPartyError),
    (_record_window_over, WindowElapsedError),
    (_unknown_token, UnknownTokenError),
    (_no_such_hop, InvalidDisputeError),
    (_hop_cleaned_away, InvalidDisputeError),
    (_not_the_prior_owner, NotAffectedPartyError),
    (_hop_window_over, WindowElapsedError),
    (_token_already_frozen, FrozenAssetError),
], ids=lambda x: getattr(x, "__name__", "").strip("_"))
def test_submit_and_freeze_refuse_the_same_disputes(dispute, error):
    # window 10 blocks; token 1 went a -> b at block 2
    led, eng, nft, gov, judges = make_stack(n_judges=1, epoch_length=10, window=10)
    for addr in ("v", "a", "b"):
        led.mint(addr, 50, block=1)
    nft.mint(1, "a", block=1)
    nft.transfer(1, "b", block=2)
    claimant, target = dispute(led, nft)
    held = led.account(claimant).nonreversible
    frozen = {token_id: token.frozen for token_id, token in nft.tokens.items()}
    with pytest.raises(LedgerError) as submitted:
        gov.submit_freeze_request(claimant, target, 2, tip=1)
    block = led.current_block
    with pytest.raises(LedgerError) as froze:
        if isinstance(target, FungibleTarget):
            eng.execute_freeze(target.ref, claimant, block, gov.identity)
        else:
            nft.freeze(target.token_id, target.index, claimant, block, gov.identity)
    assert type(submitted.value) is type(froze.value) is error
    assert led.account(claimant).nonreversible == held
    assert led.account(gov.escrow).nonreversible == 0
    assert gov.cases == {} and eng.claims == {}
    assert {token_id: token.frozen for token_id, token in nft.tokens.items()} == frozen


def test_submit_needs_a_big_enough_pool():
    led, eng, nft, gov, judges = make_stack(n_judges=3, pool_size=2)
    with pytest.raises(PoolTooSmallError):
        fungible_case(gov, led)


# -- voting guards ----------------------------------------------------------------


def test_commit_reveal_guards():
    led, eng, nft, gov, judges = make_stack(n_judges=2)
    cid, _ = fungible_case(gov, led)
    j1, j2 = judges
    c = commitment_hash(Vote.APPROVE, b"\x01", cid)
    with pytest.raises(NotQuorumMemberError):
        gov.cast_commit(cid, "outsider", c)
    gov.cast_commit(cid, j1, c)
    with pytest.raises(DoubleVoteError):
        gov.cast_commit(cid, j1, c)
    with pytest.raises(PhaseError):
        gov.cast_reveal(cid, j2, Vote.APPROVE, b"\x01")  # never committed
    with pytest.raises(CommitMismatchError):
        gov.cast_reveal(cid, j1, Vote.REJECT, b"\x01")
    with pytest.raises(CommitMismatchError):
        gov.cast_reveal(cid, j1, Vote.APPROVE, b"\x02")
    gov.cast_reveal(cid, j1, Vote.APPROVE, b"\x01")
    with pytest.raises(DoubleVoteError):
        gov.cast_reveal(cid, j1, Vote.APPROVE, b"\x01")


def test_tally_waits_for_reveals_until_deadline():
    led, eng, nft, gov, judges = make_stack(n_judges=2, reveal_deadline=10)
    cid, _ = fungible_case(gov, led)
    j1, j2 = judges
    gov.cast_commit(cid, j1, commitment_hash(Vote.APPROVE, b"\x01", cid))
    gov.cast_commit(cid, j2, commitment_hash(Vote.APPROVE, b"\x02", cid))
    gov.cast_reveal(cid, j1, Vote.APPROVE, b"\x01")
    with pytest.raises(PhaseError):
        gov.tally(cid)
    led.advance_block(gov.cases[cid].deadline_block)
    outcome = gov.tally(cid)  # one reveal of two, threshold 2: dismissed
    assert outcome.phase_after is Phase.CLOSED_DISMISSED
    assert gov.pool.strikes[j2] == 1
    assert gov.pool.strikes[j1] == 0


def test_no_votes_after_close():
    led, eng, nft, gov, judges = make_stack(n_judges=1)
    cid, _ = fungible_case(gov, led)
    vote_round(gov, cid, {judges[0]: Vote.REJECT})
    with pytest.raises(PhaseError):
        gov.cast_commit(cid, judges[0], b"\x00" * 32)
    with pytest.raises(PhaseError):
        gov.tally(cid)


# -- tally outcomes ----------------------------------------------------------------


def test_dismissal_burns_remaining_stake_and_tips_defendant():
    led, eng, nft, gov, judges = make_stack(n_judges=1)
    cid, _ = fungible_case(gov, led, stake=10, tip=4)
    supply_before = led.circulating()
    outcome = vote_round(gov, cid, {judges[0]: Vote.REJECT})
    assert outcome.phase_after is Phase.CLOSED_DISMISSED
    assert outcome.fees_paid == 1
    assert gov.cases[cid].burned == 9
    assert led.account(judges[0]).nonreversible == 1
    assert led.account("a0").nonreversible == 4        # tip to the accused
    assert led.account("a0").reversible == 100         # untouched
    assert led.account("escrow").nonreversible == 0
    assert led.circulating() == supply_before - 9
    assert led.account("a0").frozen == 0


def test_reversal_pays_victim_and_returns_stake():
    led, eng, nft, gov, judges = make_stack(n_judges=1)
    cid, ref = fungible_case(gov, led, stake=10, tip=4)
    out1 = vote_round(gov, cid, {judges[0]: Vote.APPROVE})
    assert out1.phase_after is Phase.TRIAL
    assert led.account("a0").frozen == 100
    out2 = vote_round(gov, cid, {judges[0]: Vote.APPROVE}, salt_base=50)
    assert out2.phase_after is Phase.CLOSED_REVERSED
    v = led.account("v")
    assert v.reversible == 100                         # recovered coins
    assert v.nonreversible == 8 + 4                    # stake minus 2 fees, plus tip
    assert led.account("a0").reversible == 0
    assert led.account("a0").frozen == 0
    assert led.account("escrow").nonreversible == 0
    assert led.account(judges[0]).nonreversible == 2


def test_trial_loss_compensates_defendant():
    led, eng, nft, gov, judges = make_stack(n_judges=1)
    cid, ref = fungible_case(gov, led, stake=10, tip=4)
    vote_round(gov, cid, {judges[0]: Vote.APPROVE})
    out = vote_round(gov, cid, {judges[0]: Vote.REJECT}, salt_base=50)
    assert out.phase_after is Phase.CLOSED_REJECTED
    assert gov.cases[cid].paid_defendant == 8
    a0 = led.account("a0")
    assert a0.reversible == 100                        # freeze released
    assert a0.frozen == 0
    assert a0.nonreversible == 8 + 4                   # stake remainder + tip
    assert led.log.resolve(ref).amount == 100          # record still disputable
    assert led.account("v").nonreversible == 0


def test_window_elapsing_mid_vote_dismisses():
    led, eng, nft, gov, judges = make_stack(n_judges=1, window=100)
    cid, _ = fungible_case(gov, led)
    led.advance_block(500)
    out = vote_round(gov, cid, {judges[0]: Vote.APPROVE})
    assert out.phase_after is Phase.CLOSED_DISMISSED
    assert led.account("a0").frozen == 0


def test_nft_freeze_failure_dismisses():
    led, eng, nft, gov, judges = make_stack(n_judges=1, window=100)
    led.mint("a", 10, block=1)
    nft.mint(1, "a", block=1)
    nft.transfer(1, "b", block=2)
    cid = gov.submit_freeze_request("a", NftTarget(1, 0), 2)
    led.advance_block(500)  # window over before the vote finishes
    out = vote_round(gov, cid, {judges[0]: Vote.APPROVE})
    assert out.phase_after is Phase.CLOSED_DISMISSED
    assert not nft.tokens[1].frozen
    assert nft.tokens[1].current_owner == "b"


def test_nft_case_full_reverse():
    led, eng, nft, gov, judges = make_stack(n_judges=1)
    led.mint("a", 10, block=1)
    nft.mint(1, "a", block=1)
    nft.transfer(1, "b", block=2)
    cid = gov.submit_freeze_request("a", NftTarget(1, 0), 2)
    vote_round(gov, cid, {judges[0]: Vote.APPROVE})
    assert nft.tokens[1].frozen
    vote_round(gov, cid, {judges[0]: Vote.APPROVE}, salt_base=50)
    assert nft.tokens[1].current_owner == "a"
    assert not nft.tokens[1].frozen


def test_second_case_on_a_frozen_nft_is_dismissed():
    led, eng, nft, gov, judges = make_stack(n_judges=1)
    led.mint("a", 20, block=1)
    nft.mint(1, "a", block=1)
    nft.transfer(1, "b", block=2)
    first = gov.submit_freeze_request("a", NftTarget(1, 0), 2)
    second = gov.submit_freeze_request("a", NftTarget(1, 0), 4, tip=3)
    vote_round(gov, first, {judges[0]: Vote.APPROVE})
    out = vote_round(gov, second, {judges[0]: Vote.APPROVE})
    assert out.phase_after is Phase.CLOSED_DISMISSED
    assert (gov.cases[second].burned, gov.cases[second].tip_paid_to) == (3, "b")
    assert led.account("b").nonreversible == 3
    assert gov.cases[first].phase is Phase.TRIAL
    assert nft.tokens[1].frozen
    vote_round(gov, first, {judges[0]: Vote.APPROVE}, salt_base=50)
    assert nft.tokens[1].current_owner == "a"
    assert not nft.tokens[1].frozen
    assert led.account(gov.escrow).nonreversible == 0


@pytest.mark.parametrize("votes, phase, stake_to", [
    ((Vote.REJECT,), Phase.CLOSED_DISMISSED, (9, 0, 0)),
    ((Vote.APPROVE, Vote.APPROVE), Phase.CLOSED_REVERSED, (0, 8, 0)),
    ((Vote.APPROVE, Vote.REJECT), Phase.CLOSED_REJECTED, (0, 0, 8)),
])
def test_tip_to_burn_burns_the_tip_however_the_case_closes(votes, phase, stake_to):
    led, eng, nft, gov, judges = make_stack(n_judges=1, tip_to="burn")
    cid, _ = fungible_case(gov, led, stake=10, tip=4)
    burned_before = led.total_burned
    for i, vote in enumerate(votes):
        out = vote_round(gov, cid, {judges[0]: vote}, salt_base=50 * i)
    case = gov.cases[cid]
    assert out.phase_after is case.phase is phase
    assert (case.burned, case.returned, case.paid_defendant) == stake_to
    assert case.tip_paid_to == "(burned)"
    assert led.total_burned - burned_before == 4 + case.burned
    assert led.account(gov.escrow).nonreversible == 0


def test_fees_go_to_every_revealing_judge():
    led, eng, nft, gov, judges = make_stack(n_judges=3, judge_fee=2)
    cid, _ = fungible_case(gov, led, stake=12)
    votes = {judges[0]: Vote.APPROVE, judges[1]: Vote.APPROVE,
             judges[2]: Vote.REJECT}
    out = vote_round(gov, cid, votes)
    assert out.fees_paid == 6
    for j in judges:
        assert led.account(j).nonreversible == 2  # losers are paid too
    assert gov.cases[cid].stake == 6


def test_escrow_conservation_through_any_outcome():
    for trial_vote in (Vote.APPROVE, Vote.REJECT):
        led, eng, nft, gov, judges = make_stack(n_judges=3)
        cid, _ = fungible_case(gov, led, stake=10, tip=1)
        minted = led.circulating()
        votes = {j: Vote.APPROVE for j in judges}
        vote_round(gov, cid, votes)
        vote_round(gov, cid, {j: trial_vote for j in judges}, salt_base=50)
        # nothing minted or burned along the way: totals still match
        assert led.circulating() == minted
        assert led.account("escrow").nonreversible == 0


# -- conduct and discipline ----------------------------------------------------------


def test_minority_counted_only_when_bloc_is_extreme():
    led, eng, nft, gov, judges = make_stack(n_judges=3, extreme_minority_max=1)
    cid, _ = fungible_case(gov, led)
    votes = {judges[0]: Vote.APPROVE, judges[1]: Vote.APPROVE,
             judges[2]: Vote.REJECT}
    vote_round(gov, cid, votes)  # losing bloc of one: counted
    assert gov.pool.minority[judges[2]] == 1
    assert gov.pool.participated[judges[0]] == 1

    led, eng, nft, gov, judges = make_stack(n_judges=3, extreme_minority_max=0)
    cid, _ = fungible_case(gov, led)
    vote_round(gov, cid, votes_for(judges))
    assert gov.pool.minority[judges[2]] == 0  # bloc of one, max zero


def votes_for(judges):
    return {judges[0]: Vote.APPROVE, judges[1]: Vote.APPROVE,
            judges[2]: Vote.REJECT}


def test_discipline_removes_strikers_and_lone_dissenters():
    led, eng, nft, gov, judges = make_stack(
        n_judges=12, pool_size=12, min_cases=5, minority_ratio=0.8,
    )
    lone = judges[-1]
    led.mint("v", 12 * 124, block=1)
    for i in range(10):
        ref = led.transfer("v", "a0", 100, block=1)
        cid = gov.submit_freeze_request("v", FungibleTarget(ref), stake=24)
        votes = {j: (Vote.REJECT if j == lone else Vote.APPROVE) for j in judges}
        vote_round(gov, cid, votes)
    assert gov.pool.participated[lone] == 10
    assert gov.pool.minority[lone] == 10
    removed = gov.discipline_judges()
    assert removed == [lone]
    assert lone not in gov.pool.judges

    # strike path: three missed reveals
    led, eng, nft, gov, judges = make_stack(n_judges=2, strike_limit=3,
                                            reveal_deadline=5)
    led.mint("v", 400, block=1)
    sleeper = judges[1]
    for i in range(3):
        ref = led.transfer("v", "a0", 10, block=led.current_block)
        cid = gov.submit_freeze_request("v", FungibleTarget(ref), stake=4)
        gov.cast_commit(cid, judges[0], commitment_hash(Vote.REJECT, b"\x01", cid))
        gov.cast_reveal(cid, judges[0], Vote.REJECT, b"\x01")
        led.advance_block(gov.cases[cid].deadline_block)
        gov.tally(cid)
    assert gov.pool.strikes[sleeper] == 3
    assert gov.discipline_judges() == [sleeper]
