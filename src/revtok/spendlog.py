"""Epoch-bucketed log of outgoing spends.

Every transfer (and every burn of reversible funds) appends one record under
the key (epoch, sender), where epoch = block // epoch_length.  Records are
append-only: the `amount` field may be decremented by freezes and restored by
rejected claims, but records are only ever deleted a whole bucket at a time,
once every record in the bucket has outlived the dispute window.

A record is addressed by SpendRef(epoch, sender, index), which the log derives
from the record (its block's epoch, its sender, the index it carries) and
never stores.  After a bucket is cleaned, refs into it dangle and resolve()
raises UnknownSpenditureError.

Each record also carries a globally unique, strictly increasing sequence
number.  The sequence order is the engine's notion of time within a block and
is what the trace-graph construction sorts by.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from .errors import UnknownSpenditureError

Address = str

DEFAULT_EPOCH_LENGTH = 1_000
DEFAULT_DISPUTE_WINDOW = 24_000

_block = attrgetter("block")
_seq = attrgetter("seq")


@dataclass(frozen=True)
class EpochConfig:
    """Epoch granularity and dispute window, both in blocks."""

    epoch_length: int = DEFAULT_EPOCH_LENGTH
    dispute_window: int = DEFAULT_DISPUTE_WINDOW

    def __post_init__(self):
        if self.epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        if self.dispute_window <= 0:
            raise ValueError("dispute_window must be positive")

    def epoch_of(self, block: int) -> int:
        return block // self.epoch_length


class SpendRef(NamedTuple):
    """Stable address of a spend record: (epoch, sender, index in bucket)."""

    epoch: int
    sender: Address
    index: int


@dataclass(slots=True)
class SpendRecord:
    """One outgoing spend.

    `to` is None for burns.  `amount` is the still-disputable remainder; it
    starts equal to `original_amount` and is decremented when a freeze passes
    an obligation along this record.  `index` is the record's place in its
    (epoch, sender) bucket.
    """

    sender: Address
    to: Address | None
    amount: int
    original_amount: int
    block: int
    seq: int
    index: int = 0


class SpendLog:
    """Storage and retrieval for spend records.

    Balance effects of cleaning (maturing reversible funds) are applied by the
    ledger; the log only decides maturity and owns the record storage.
    """

    def __init__(self, config: EpochConfig | None = None):
        self.config = config or EpochConfig()
        # The only record store: each sender's records in seq order.  Blocks
        # never decrease, so neither do a sender's epochs, and each bucket is
        # one contiguous run of its sender's list, found by bisecting on block.
        self._by_sender: dict[Address, list[SpendRecord]] = {}
        self._next_seq = 0
        self._last_block = 0

    @property
    def next_seq(self) -> int:
        """The seq the next record will receive; greater than every existing seq."""
        return self._next_seq

    def record(self, sender: Address, to: Address | None, amount: int, block: int) -> SpendRef:
        """Append a spend record and return its ref.

        The caller (the ledger) is responsible for block monotonicity; the log
        only asserts it so seq order and block order can never disagree.
        """
        assert block >= self._last_block, "records must arrive in block order"
        self._last_block = block
        length = self.config.epoch_length
        epoch = block // length
        records = self._by_sender.setdefault(sender, [])
        index = records[-1].index + 1 if records and records[-1].block // length == epoch else 0
        records.append(SpendRecord(sender, to, amount, amount, block, self._next_seq, index))
        self._next_seq += 1
        return SpendRef(epoch, sender, index)

    def _bucket(self, epoch: int, sender: Address) -> tuple[list[SpendRecord], int, int]:
        """The sender's list and the bounds [lo, hi) of the bucket's run in it."""
        records = self._by_sender.get(sender, [])
        length = self.config.epoch_length
        lo = bisect.bisect_left(records, epoch * length, key=_block)
        hi = bisect.bisect_left(records, (epoch + 1) * length, lo, key=_block)
        return records, lo, hi

    def resolve(self, ref: SpendRef) -> SpendRecord:
        records, lo, hi = self._bucket(ref.epoch, ref.sender)
        if not 0 <= ref.index < hi - lo:
            raise UnknownSpenditureError(f"no record at {ref}")
        return records[lo + ref.index]

    def outgoing_between(
        self, sender: Address, after_seq: int, before_seq: int
    ) -> list[SpendRecord]:
        """Records of `sender` with after_seq < seq < before_seq, newest first.

        Cost is proportional to the size of the result (plus a bisect).
        """
        records = self._by_sender.get(sender)
        if not records:
            return []
        lo = bisect.bisect_right(records, after_seq, key=_seq)
        hi = bisect.bisect_left(records, before_seq, lo, key=_seq)
        window = records[lo:hi]
        window.reverse()
        return window

    def bucket_status(self, epoch: int, sender: Address, current_block: int) -> str:
        """Cleanability of a bucket: 'empty', 'window-open', 'epoch-open' or 'ready'.

        A bucket is ready only once every record in it has outlived the
        dispute window.  Blocks are non-decreasing within a bucket, so the
        newest record decides.  A bucket of the current epoch is never ready
        either, even with a window shorter than an epoch: its sender's next
        record would take the index, and so the ref, of a deleted one.
        """
        records, lo, hi = self._bucket(epoch, sender)
        if lo == hi:
            return "empty"
        if current_block - records[hi - 1].block <= self.config.dispute_window:
            return "window-open"
        if self.config.epoch_of(current_block) <= epoch:
            return "epoch-open"
        return "ready"

    def pop_bucket(self, epoch: int, sender: Address) -> list[SpendRecord]:
        """Delete a bucket wholesale and return its records.

        Refs into the bucket dangle from this point on.
        """
        records, lo, hi = self._bucket(epoch, sender)
        popped = records[lo:hi]
        del records[lo:hi]
        return popped

    def all_records(self) -> list[tuple[SpendRef, SpendRecord]]:
        """Every live record with its ref, in seq order (test and report helper)."""
        out = [rec for records in self._by_sender.values() for rec in records]
        out.sort(key=_seq)
        length = self.config.epoch_length
        return [(SpendRef(rec.block // length, rec.sender, rec.index), rec) for rec in out]


@dataclass
class BucketCleanResult:
    epoch: int
    sender: Address
    status: str  # "cleaned" or "skipped"
    reason: str = ""  # skip reason: "empty", "window-open" or "epoch-open"
    deleted: int = 0
    moved: dict[Address, int] = field(default_factory=dict)


@dataclass
class CleanReport:
    buckets: list[BucketCleanResult] = field(default_factory=list)
