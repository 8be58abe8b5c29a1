"""Epoch-bucketed log of outgoing spends.

Every transfer (and every burn of reversible funds) appends one record under
the key (epoch, sender), where epoch = block // epoch_length.  Records are
append-only: the `amount` field may be decremented by freezes and restored by
rejected claims, but records are only ever deleted a whole bucket at a time,
once every record in the bucket has outlived the dispute window.

A record is addressed by SpendRef(epoch, sender, index).  After a bucket is
cleaned, refs into it dangle and resolve() raises UnknownSpenditureError.

Each record also carries a globally unique, strictly increasing sequence
number.  The sequence order is the engine's notion of time within a block and
is what the trace-graph construction sorts by.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .errors import UnknownSpenditureError

Address = str

DEFAULT_EPOCH_LENGTH = 1_000
DEFAULT_DISPUTE_WINDOW = 24_000


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


@dataclass(frozen=True)
class SpendRef:
    """Stable address of a spend record: (epoch, sender, index in bucket)."""

    epoch: int
    sender: Address
    index: int


@dataclass
class SpendRecord:
    """One outgoing spend.

    `to` is None for burns.  `amount` is the still-disputable remainder; it
    starts equal to `original_amount` and is decremented when a freeze passes
    an obligation along this record.
    """

    sender: Address
    to: Address | None
    amount: int
    original_amount: int
    block: int
    seq: int


class SpendLog:
    """Storage and retrieval for spend records.

    Balance effects of cleaning (maturing reversible funds) are applied by the
    ledger; the log only decides maturity and owns the record storage.
    """

    def __init__(self, config: EpochConfig | None = None):
        self.config = config or EpochConfig()
        self._buckets: dict[tuple[int, Address], list[SpendRecord]] = {}
        # Chronological (= seq-ordered) per-sender view used for windowed
        # retrieval.  Rebuilt on clean; kept parallel to _sender_seqs.
        self._by_sender: dict[Address, list[tuple[SpendRef, SpendRecord]]] = {}
        self._sender_seqs: dict[Address, list[int]] = {}
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
        epoch = self.config.epoch_of(block)
        rec = SpendRecord(sender, to, amount, amount, block, self._next_seq)
        self._next_seq += 1
        bucket = self._buckets.setdefault((epoch, sender), [])
        bucket.append(rec)
        ref = SpendRef(epoch, sender, len(bucket) - 1)
        self._by_sender.setdefault(sender, []).append((ref, rec))
        self._sender_seqs.setdefault(sender, []).append(rec.seq)
        return ref

    def resolve(self, ref: SpendRef) -> SpendRecord:
        bucket = self._buckets.get((ref.epoch, ref.sender))
        if bucket is None or not 0 <= ref.index < len(bucket):
            raise UnknownSpenditureError(f"no record at {ref}")
        return bucket[ref.index]

    def outgoing_between(
        self, sender: Address, after_seq: int, before_seq: int
    ) -> list[tuple[SpendRef, SpendRecord]]:
        """Records of `sender` with after_seq < seq < before_seq, newest first.

        Cost is proportional to the size of the result (plus a bisect).
        """
        seqs = self._sender_seqs.get(sender)
        if not seqs:
            return []
        lo = bisect.bisect_right(seqs, after_seq)
        hi = bisect.bisect_left(seqs, before_seq, lo)
        window = self._by_sender[sender][lo:hi]
        window.reverse()
        return window

    def bucket_status(self, epoch: int, sender: Address, current_block: int) -> str:
        """Cleanability of a bucket: 'empty', 'window-open', or 'ready'.

        A bucket is ready only once every record in it has outlived the
        dispute window.  Blocks are non-decreasing within a bucket, so the
        newest record decides.
        """
        bucket = self._buckets.get((epoch, sender))
        if not bucket:
            return "empty"
        if current_block - bucket[-1].block <= self.config.dispute_window:
            return "window-open"
        return "ready"

    def pop_bucket(self, epoch: int, sender: Address) -> list[SpendRecord]:
        """Delete a bucket wholesale and return its records.

        Refs into the bucket dangle from this point on.
        """
        records = self._buckets.pop((epoch, sender))
        kept = [(ref, rec) for ref, rec in self._by_sender[sender] if ref.epoch != epoch]
        self._by_sender[sender] = kept
        self._sender_seqs[sender] = [rec.seq for _, rec in kept]
        return records

    def all_records(self) -> list[tuple[SpendRef, SpendRecord]]:
        """Every live record in seq order (test and report helper)."""
        out = [pair for pairs in self._by_sender.values() for pair in pairs]
        out.sort(key=lambda pair: pair[1].seq)
        return out


@dataclass
class BucketCleanResult:
    epoch: int
    sender: Address
    status: str  # "cleaned" or "skipped"
    reason: str = ""  # skip reason: "empty" or "window-open"
    deleted: int = 0
    moved: dict[Address, int] = field(default_factory=dict)


@dataclass
class CleanReport:
    buckets: list[BucketCleanResult] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "buckets": [
                {
                    "epoch": b.epoch,
                    "sender": b.sender,
                    "status": b.status,
                    "reason": b.reason,
                    "deleted": b.deleted,
                    "moved": dict(sorted(b.moved.items())),
                }
                for b in self.buckets
            ]
        }
