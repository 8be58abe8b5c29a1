from __future__ import annotations

import random

import pytest

from revtok import (
    BlockOrderError,
    DuplicateTokenError,
    FrozenAssetError,
    InvalidDisputeError,
    NftRegistry,
    NotAffectedPartyError,
    NotFrozenError,
    NotGovernanceError,
    NotOwnerError,
    UnknownTokenError,
    WindowElapsedError,
)

from conftest import disputable_indexes

GOV = "governance"


def make_registry(window: int = 100) -> NftRegistry:
    return NftRegistry(GOV, window)


def test_mint_and_transfer():
    reg = make_registry()
    reg.mint(1, "a", block=1)
    assert reg.tokens[1].current_owner == "a"
    reg.transfer(1, "b", block=5)
    assert reg.tokens[1].current_owner == "b"
    assert [(r.owner, r.block) for r in reg.tokens[1].owners] == [("a", 1), ("b", 5)]
    with pytest.raises(DuplicateTokenError):
        reg.mint(1, "c", block=6)
    with pytest.raises(UnknownTokenError):
        reg.transfer(99, "c", block=6)


def test_transfer_guards():
    reg = make_registry()
    reg.mint(1, "a", block=5)
    with pytest.raises(NotOwnerError):
        reg.transfer(1, "c", block=6, sender="b")
    with pytest.raises(BlockOrderError):
        reg.transfer(1, "b", block=4)
    reg.transfer(1, "b", block=5)  # same block as the head record is fine


def test_freeze_blocks_transfers_until_reverse():
    reg = make_registry()
    reg.mint(1, "a", block=1)
    reg.transfer(1, "b", block=10)
    reg.freeze(1, 0, "a", current_block=20, caller=GOV)
    with pytest.raises(FrozenAssetError):
        reg.transfer(1, "c", block=21)
    reg.reverse(1, 0, current_block=30, caller=GOV)
    assert reg.tokens[1].current_owner == "a"
    assert reg.tokens[1].owners[-1].block == 30
    assert not reg._token(1).frozen
    reg.transfer(1, "c", block=31)
    assert reg.tokens[1].current_owner == "c"


def test_freeze_failure_modes_raise():
    reg = make_registry(window=100)
    reg.mint(1, "a", block=1)
    reg.transfer(1, "b", block=10)
    with pytest.raises(InvalidDisputeError):  # no such hop
        reg.freeze(1, 5, "a", current_block=20, caller=GOV)
    with pytest.raises(NotAffectedPartyError):  # b was not the owner before the hop
        reg.freeze(1, 0, "b", current_block=20, caller=GOV)
    with pytest.raises(WindowElapsedError):
        reg.freeze(1, 0, "a", current_block=111, caller=GOV)
    assert not reg._token(1).frozen
    reg.freeze(1, 0, "a", current_block=110, caller=GOV)  # boundary
    with pytest.raises(FrozenAssetError):
        reg.freeze(1, 0, "a", current_block=110, caller=GOV)


def test_reverse_requires_freeze_and_governance():
    reg = make_registry()
    reg.mint(1, "a", block=1)
    reg.transfer(1, "b", block=2)
    with pytest.raises(NotFrozenError):
        reg.reverse(1, 0, current_block=3, caller=GOV)
    reg.freeze(1, 0, "a", current_block=3, caller=GOV)
    with pytest.raises(NotGovernanceError):
        reg.reverse(1, 0, current_block=3, caller="mallory")
    with pytest.raises(NotGovernanceError):
        reg.freeze(1, 0, "a", current_block=3, caller="mallory")


def test_reject_reverse_unfreezes_in_place():
    reg = make_registry()
    reg.mint(1, "a", block=1)
    reg.transfer(1, "b", block=2)
    reg.freeze(1, 0, "a", current_block=3, caller=GOV)
    reg.reject_reverse(1, caller=GOV)
    assert not reg._token(1).frozen
    assert reg.tokens[1].current_owner == "b"
    assert len(reg.tokens[1].owners) == 2


def test_disputable_indexes():
    reg = make_registry(window=50)
    reg.mint(1, "a", block=1)
    reg.transfer(1, "b", block=10)
    reg.transfer(1, "c", block=40)
    # at block 70 the hop at 10 is stale (70-10 > 50) but 40 is disputable
    assert disputable_indexes(reg, 1, current_block=70) == [1]
    assert disputable_indexes(reg, 1, current_block=40) == [0, 1]


def test_clean_keeps_window_relevant_suffix():
    reg = make_registry(window=50)
    reg.mint(1, "a", block=1)
    reg.transfer(1, "b", block=10)
    reg.transfer(1, "c", block=100)
    res = reg.clean([1], current_block=120)[0]
    # (a,1) fell out: its successor hop at 10 is older than the window.
    # (b,10) stays: the hop away from b at block 100 is still disputable.
    assert (res.token_id, res.dropped) == (1, 1)
    assert [(r.owner, r.block) for r in reg.tokens[1].owners] == [("b", 10), ("c", 100)]
    again = reg.clean([1], current_block=120)[0]
    assert again.dropped == 0


def test_indexes_survive_clean():
    reg = make_registry(window=10)
    reg.mint(1, "a", block=1)
    for owner, block in (("b", 2), ("c", 3), ("d", 4), ("e", 14)):
        reg.transfer(1, owner, block=block)
    assert reg.clean([1], current_block=14)[0].dropped == 2
    assert disputable_indexes(reg, 1, current_block=14) == [2, 3]
    with pytest.raises(InvalidDisputeError):  # cleaned away
        reg.freeze(1, 1, "b", current_block=14, caller=GOV)
    reg.freeze(1, 2, "c", current_block=14, caller=GOV)
    reg.reverse(1, 2, current_block=15, caller=GOV)
    assert reg.tokens[1].current_owner == "c"


def test_clean_skips_frozen_tokens():
    reg = make_registry(window=10)
    reg.mint(1, "a", block=1)
    reg.transfer(1, "b", block=2)
    reg.freeze(1, 0, "a", current_block=5, caller=GOV)
    res = reg.clean([1], current_block=500)[0]
    assert (res.status, res.reason) == ("skipped", "frozen")
    assert len(reg.tokens[1].owners) == 2


def test_clean_preserves_freezability():
    # every hop that was disputable before a sweep must still be freezable
    # after it, at the same absolute index and naming the same record
    rng = random.Random(17)
    for trial in range(60):
        window = rng.randrange(5, 30)
        reg = make_registry(window=window)
        reg.mint(1, "a0", block=0)
        block = 0
        for i in range(rng.randrange(1, 12)):
            block += rng.randrange(0, 8)
            reg.transfer(1, f"a{i + 1}", block=block)
        now = block + rng.randrange(0, 2 * window)
        token = reg._token(1)
        before = {(i, token.record(i + 1)) for i in disputable_indexes(reg, 1, now)}
        reg.clean([1], current_block=now)
        after = {(i, token.record(i + 1)) for i in disputable_indexes(reg, 1, now)}
        assert before == after, trial
