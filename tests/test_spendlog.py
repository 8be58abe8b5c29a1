from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from revtok import (
    BurnSource,
    EpochConfig,
    SpendLog,
    SpendRef,
    UnknownSpenditureError,
)

from conftest import make_ledger, make_stack, vote_round, Vote


def test_epoch_of():
    cfg = EpochConfig(epoch_length=1000, dispute_window=24000)
    assert cfg.epoch_of(0) == 0
    assert cfg.epoch_of(999) == 0
    assert cfg.epoch_of(1000) == 1
    assert cfg.epoch_of(24999) == 24


def test_config_validation():
    with pytest.raises(ValueError):
        EpochConfig(epoch_length=0)
    with pytest.raises(ValueError):
        EpochConfig(dispute_window=0)


def test_refs_are_per_sender_per_epoch():
    log = SpendLog(EpochConfig(epoch_length=10, dispute_window=100))
    r1 = log.record("a", "b", 5, block=1)
    r2 = log.record("a", "c", 5, block=2)
    r3 = log.record("b", "c", 5, block=2)
    r4 = log.record("a", "b", 5, block=10)  # next epoch resets the index
    assert (r1.epoch, r1.sender, r1.index) == (0, "a", 0)
    assert (r2.epoch, r2.sender, r2.index) == (0, "a", 1)
    assert (r3.epoch, r3.sender, r3.index) == (0, "b", 0)
    assert (r4.epoch, r4.sender, r4.index) == (1, "a", 0)
    assert log.resolve(r2).to == "c"
    with pytest.raises(UnknownSpenditureError):
        log.resolve(SpendRef(0, "a", 9))


def test_seq_is_globally_increasing():
    log = SpendLog()
    refs = [log.record("a", "b", 1, block=1) for _ in range(5)]
    seqs = [log.resolve(r).seq for r in refs]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 5
    assert log.next_seq == seqs[-1] + 1


def test_outgoing_between_bounds_are_strict_and_newest_first():
    log = SpendLog()
    refs = [log.record("a", "b", i, block=1) for i in range(6)]
    seqs = [log.resolve(r).seq for r in refs]
    got = log.outgoing_between("a", after_seq=seqs[1], before_seq=seqs[4])
    assert [rec.seq for rec in got] == [seqs[3], seqs[2]]
    assert [rec.index for rec in got] == [3, 2]
    assert log.outgoing_between("a", seqs[4], seqs[4]) == []
    assert log.outgoing_between("nobody", 0, 99) == []


def test_bucket_status_follows_newest_record():
    cfg = EpochConfig(epoch_length=10, dispute_window=50)
    log = SpendLog(cfg)
    assert log.bucket_status(0, "a", current_block=100) == "empty"
    log.record("a", "b", 1, block=3)
    log.record("a", "b", 1, block=9)
    # newest record at block 9: ready only when current - 9 > 50
    assert log.bucket_status(0, "a", current_block=59) == "window-open"
    assert log.bucket_status(0, "a", current_block=60) == "ready"
    # with a window shorter than an epoch, the window has passed at block 60
    # but epoch 0 lasts until block 99
    log = SpendLog(EpochConfig(epoch_length=100, dispute_window=50))
    log.record("a", "b", 1, block=9)
    assert log.bucket_status(0, "a", current_block=60) == "epoch-open"
    assert log.bucket_status(0, "a", current_block=100) == "ready"


def test_pop_bucket_removes_records_and_dangles_refs():
    cfg = EpochConfig(epoch_length=10, dispute_window=10)
    log = SpendLog(cfg)
    ref0 = log.record("a", "b", 1, block=1)
    log.record("a", "c", 2, block=2)
    keep = log.record("a", "d", 3, block=11)
    popped = log.pop_bucket(0, "a")
    assert [r.to for r in popped] == ["b", "c"]
    with pytest.raises(UnknownSpenditureError):
        log.resolve(ref0)
    assert log.resolve(keep).to == "d"
    # the per-sender index survives for records in other epochs
    assert [rec.to for rec in log.outgoing_between("a", -1, 10**9)] == ["d"]


def test_clean_skips_open_buckets_and_is_idempotent():
    ledger = make_ledger(epoch_length=10, window=20)
    ledger.mint("a", 30, block=1)
    ledger.transfer("a", "b", 30, block=5)
    rep = ledger.clean(0, ["a"], block=20)
    assert rep.buckets[0].status == "skipped"
    assert rep.buckets[0].reason == "window-open"
    rep = ledger.clean(0, ["a"], block=26)
    assert rep.buckets[0].status == "cleaned"
    assert rep.buckets[0].deleted == 1
    assert rep.buckets[0].moved == {"b": 30}
    acct = ledger.account("b")
    assert (acct.reversible, acct.nonreversible) == (0, 30)
    rep = ledger.clean(0, ["a"], block=27)
    assert rep.buckets[0].status == "skipped"
    assert rep.buckets[0].reason == "empty"


def test_clean_ignores_burn_records():
    ledger = make_ledger(epoch_length=10, window=20)
    ledger.mint("a", 30, block=1)
    ledger.transfer("a", "b", 30, block=2)
    ledger.burn("b", 10, block=5, source=BurnSource.REVERSIBLE)
    rep = ledger.clean(0, ["b"], block=40)
    assert rep.buckets[0].deleted == 1
    assert rep.buckets[0].moved == {}


def test_clean_clamps_to_remaining_reversible():
    # b received 40 long ago and 30 recently; the recent 30 is frozen by a
    # claim and b spent its spare 10.  Cleaning the old bucket may only
    # mature what is actually above the frozen floor.
    led, engine, nft, gov, judges = make_stack(n_judges=1, epoch_length=10, window=20)
    led.mint("x", 40, block=1)
    led.mint("v", 32, block=1)
    x_ref = led.transfer("x", "b", 40, block=2)     # old epoch 0
    v_ref = led.transfer("v", "b", 30, block=31)    # epoch 3, disputed
    case = gov.submit_freeze_request("v", target_for(v_ref), stake=2)
    vote_round(gov, case, {judges[0]: Vote.APPROVE})
    assert led.account("b").frozen == 30
    led.rtransfer("b", "c", 40, block=32)           # spends everything spare
    assert led.account("b").reversible == 30
    rep = led.clean(0, ["x"], block=40)
    assert rep.buckets[0].status == "cleaned"
    # record said 40, but only reversible - frozen = 0 can mature
    assert rep.buckets[0].moved == {}
    acct = led.account("b")
    assert (acct.reversible, acct.frozen, acct.nonreversible) == (30, 30, 0)


def test_clean_partial_clamp():
    led, engine, nft, gov, judges = make_stack(n_judges=1, epoch_length=10, window=20)
    led.mint("x", 40, block=1)
    led.mint("v", 32, block=1)
    led.transfer("x", "b", 40, block=2)
    v_ref = led.transfer("v", "b", 30, block=31)
    case = gov.submit_freeze_request("v", target_for(v_ref), stake=2)
    vote_round(gov, case, {judges[0]: Vote.APPROVE})
    led.rtransfer("b", "c", 30, block=32)           # leaves 40 r, 30 frozen
    rep = led.clean(0, ["x"], block=40)
    assert rep.buckets[0].moved == {"b": 10}
    acct = led.account("b")
    assert (acct.reversible, acct.frozen, acct.nonreversible) == (30, 30, 10)


def test_clean_report_shape():
    ledger = make_ledger(epoch_length=10, window=10)
    ledger.mint("a", 5, block=1)
    ledger.transfer("a", "b", 5, block=1)
    rep = ledger.clean(0, ["a", "z"], block=30)
    d = asdict(rep)
    assert d["buckets"][0]["status"] == "cleaned"
    assert d["buckets"][1] == {
        "epoch": 0, "sender": "z", "status": "skipped", "reason": "empty",
        "deleted": 0, "moved": {},
    }


def test_random_log_roundtrip():
    rng = random.Random(7)
    # a window shorter than an epoch lets every bucket status occur
    log = SpendLog(EpochConfig(epoch_length=50, dispute_window=30))
    window = log.config.dispute_window
    mirror = []
    block = 0
    for _ in range(500):
        block += rng.choice((0, 0, 1, 2, 30))
        sender = rng.choice("abc")
        ref = log.record(sender, rng.choice("abc"), rng.randrange(1, 9), block)
        mirror.append((ref, log.resolve(ref)))
    for ref, rec in mirror:
        assert log.resolve(ref) is rec
    assert [rec.seq for _, rec in log.all_records()] == list(range(500))

    # Pop every bucket in random order, so most pops cut from the middle of
    # a sender's list, and check each query against the plain-list mirror.
    buckets = sorted({(ref.epoch, ref.sender) for ref, _ in mirror})
    rng.shuffle(buckets)
    dangling = set()
    for epoch, sender in buckets:
        in_bucket = [(ref, rec) for ref, rec in mirror if (ref.epoch, ref.sender) == (epoch, sender)]
        popped = log.pop_bucket(epoch, sender)
        assert len(popped) == len(in_bucket)
        assert all(got is rec for got, (_, rec) in zip(popped, in_bucket))
        gone = {ref for ref, _ in in_bucket}
        dangling |= gone
        mirror = [pair for pair in mirror if pair[0] not in gone]
        for ref, rec in mirror:
            assert log.resolve(ref) is rec
        for ref in dangling:
            with pytest.raises(UnknownSpenditureError):
                log.resolve(ref)
        for who in "abc":
            after, before = sorted(rng.randrange(-1, 502) for _ in range(2))
            want = [rec for ref, rec in reversed(mirror)
                    if ref.sender == who and after < rec.seq < before]
            assert log.outgoing_between(who, after, before) == want
        newest = {(ref.epoch, ref.sender): rec.block for ref, rec in mirror}
        now = rng.randrange(block + 100)
        for key in buckets:
            if key not in newest:
                status = "empty"
            elif now - newest[key] <= window:
                status = "window-open"
            elif log.config.epoch_of(now) <= key[0]:
                status = "epoch-open"
            else:
                status = "ready"
            assert log.bucket_status(*key, now) == status
        assert log.all_records() == mirror
    assert mirror == []


def target_for(ref):
    from revtok import FungibleTarget

    return FungibleTarget(ref)
