"""Dual-balance fungible token ledger.

Every account splits its holdings into a reversible balance (recently received
funds, still inside the dispute window) and a non-reversible balance (matured
funds).  Plain transfers spend matured funds; rtransfer spends reversible
funds.  Either way the recipient is credited reversibly, so received money
stays disputable until the sender-side record is cleaned.

A cumulative frozen total per account marks reversible funds locked by open
claims; no spend may take the reversible balance below it.

All amounts are checked non-negative integers bounded by MAX_AMOUNT, and every
operation validates before it mutates, so a raised error never leaves partial
state behind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import (
    AmountOverflowError,
    BlockOrderError,
    FrozenFloorError,
    InsufficientBalanceError,
    InsufficientNonReversibleError,
    InsufficientReversibleError,
)
from .spendlog import Address, BucketCleanResult, CleanReport, EpochConfig, SpendLog, SpendRef

MAX_AMOUNT = (1 << 128) - 1


class BurnSource(enum.Enum):
    NONREVERSIBLE = "nonreversible"
    REVERSIBLE = "reversible"


@dataclass
class AccountState:
    reversible: int = 0
    nonreversible: int = 0
    frozen: int = 0

    @property
    def available(self) -> int:
        """Reversible funds not locked by open claims."""
        return self.reversible - self.frozen

    @property
    def total(self) -> int:
        return self.reversible + self.nonreversible


def _check_amount(amount: int) -> int:
    if not isinstance(amount, int) or isinstance(amount, bool):
        raise TypeError("amount must be an int")
    if amount < 0:
        raise ValueError("amount must be non-negative")
    if amount > MAX_AMOUNT:
        raise AmountOverflowError(f"amount {amount} exceeds MAX_AMOUNT")
    return amount


class TokenLedger:
    """Account state, supply counters, block clock, and the spend log."""

    def __init__(self, config: EpochConfig | None = None):
        self.config = config or EpochConfig()
        self.log = SpendLog(self.config)
        self.accounts: dict[Address, AccountState] = {}
        self.total_minted = 0
        self.total_burned = 0
        self.current_block = 0

    # -- state access ------------------------------------------------------

    def account(self, addr: Address) -> AccountState:
        acct = self.accounts.get(addr)
        return acct if acct is not None else AccountState()

    def available_rbalance(self, addr: Address) -> int:
        return self.account(addr).available

    def circulating(self) -> int:
        return sum(a.total for a in self.accounts.values())

    def _acct(self, addr: Address) -> AccountState:
        acct = self.accounts.get(addr)
        if acct is None:
            acct = self.accounts[addr] = AccountState()
        return acct

    def _touch_block(self, block: int) -> None:
        if block < self.current_block:
            raise BlockOrderError(
                f"block {block} is behind the engine clock {self.current_block}"
            )
        self.current_block = block

    # -- operations ----------------------------------------------------------

    def advance_block(self, block: int) -> None:
        """Move the engine clock forward (never backward)."""
        self._touch_block(block)

    def mint(self, to: Address, amount: int, block: int) -> None:
        """Create `amount` new tokens in `to`'s non-reversible balance."""
        _check_amount(amount)
        acct = self.account(to)
        if acct.nonreversible + amount > MAX_AMOUNT:
            raise AmountOverflowError("mint would overflow the account balance")
        self._touch_block(block)
        self._acct(to).nonreversible += amount
        self.total_minted += amount

    def transfer(self, sender: Address, to: Address, amount: int, block: int) -> SpendRef:
        """Spend matured funds; the recipient is credited reversibly.

        Self-transfers are legal and recorded like any other spend.
        """
        _check_amount(amount)
        src = self.account(sender)
        if src.nonreversible < amount:
            raise InsufficientNonReversibleError(
                f"{sender} holds {src.nonreversible} non-reversible, needs {amount}"
            )
        if self.account(to).reversible + amount > MAX_AMOUNT:
            raise AmountOverflowError("transfer would overflow the recipient balance")
        self._touch_block(block)
        self._acct(sender).nonreversible -= amount
        self._acct(to).reversible += amount
        return self.log.record(sender, to, amount, block)

    def rtransfer(self, sender: Address, to: Address, amount: int, block: int) -> SpendRef:
        """Spend reversible funds, which must stay above the frozen floor."""
        _check_amount(amount)
        src = self.account(sender)
        if src.reversible < amount:
            raise InsufficientReversibleError(
                f"{sender} holds {src.reversible} reversible, needs {amount}"
            )
        if src.reversible - amount < src.frozen:
            raise FrozenFloorError(
                f"{sender} has {src.frozen} frozen; spending {amount} would breach it"
            )
        if self.account(to).reversible + amount > MAX_AMOUNT:
            raise AmountOverflowError("transfer would overflow the recipient balance")
        self._touch_block(block)
        self._acct(sender).reversible -= amount
        self._acct(to).reversible += amount
        return self.log.record(sender, to, amount, block)

    def burn(
        self, sender: Address, amount: int, block: int,
        source: BurnSource = BurnSource.NONREVERSIBLE,
    ) -> SpendRef | None:
        """Destroy tokens.

        Burning matured funds is final and unlogged.  Burning reversible funds
        appends a null-recipient spend record, because those coins may have
        been part of someone's stolen money and the trace graph must be able
        to account for them.
        """
        _check_amount(amount)
        acct = self.account(sender)
        if source is BurnSource.NONREVERSIBLE:
            if acct.nonreversible < amount:
                raise InsufficientBalanceError(
                    f"{sender} holds {acct.nonreversible} non-reversible, burning {amount}"
                )
            self._touch_block(block)
            self._acct(sender).nonreversible -= amount
            self.total_burned += amount
            return None
        if acct.reversible < amount:
            raise InsufficientBalanceError(
                f"{sender} holds {acct.reversible} reversible, burning {amount}"
            )
        if acct.reversible - amount < acct.frozen:
            raise FrozenFloorError(
                f"{sender} has {acct.frozen} frozen; burning {amount} would breach it"
            )
        self._touch_block(block)
        self._acct(sender).reversible -= amount
        self.total_burned += amount
        return self.log.record(sender, None, amount, block)

    def clean(self, epoch: int, senders: list[Address], block: int) -> CleanReport:
        """Delete matured buckets and mature their recipients' funds.

        For every deleted transfer record the recipient moves
        min(remaining record amount, reversible - frozen) from reversible to
        non-reversible, so cleaning never touches an account's total and never
        digs into the frozen floor.  Buckets containing any record still
        inside the dispute window, and buckets of the current epoch, are
        skipped and reported, which also makes clean idempotent per bucket.
        """
        self._touch_block(block)
        report = CleanReport()
        for sender in senders:
            status = self.log.bucket_status(epoch, sender, block)
            if status != "ready":
                report.buckets.append(
                    BucketCleanResult(epoch, sender, "skipped", reason=status)
                )
                continue
            records = self.log.pop_bucket(epoch, sender)
            moved: dict[Address, int] = {}
            for rec in records:
                if rec.to is None:
                    continue
                step = self._mature(rec.to, rec.amount)
                if step:
                    moved[rec.to] = moved.get(rec.to, 0) + step
            report.buckets.append(
                BucketCleanResult(epoch, sender, "cleaned", deleted=len(records), moved=moved)
            )
        return report

    def _mature(self, addr: Address, amount: int) -> int:
        """Move up to `amount` from reversible to non-reversible, clamped so
        the reversible balance never drops below the frozen total."""
        acct = self._acct(addr)
        step = min(amount, acct.reversible - acct.frozen)
        if step <= 0:
            return 0
        acct.reversible -= step
        acct.nonreversible += step
        return step

    # -- arbitration-only balance plumbing ----------------------------------
    # Escrow movements are bookkeeping between the claimant, the arbitration
    # escrow account, and fee recipients.  They are not token transfers: no
    # spend record, no reversible credit.

    def move_nonreversible(self, sender: Address, to: Address, amount: int) -> None:
        _check_amount(amount)
        src = self.account(sender)
        if src.nonreversible < amount:
            raise InsufficientNonReversibleError(
                f"{sender} holds {src.nonreversible} non-reversible, needs {amount}"
            )
        if self.account(to).nonreversible + amount > MAX_AMOUNT:
            raise AmountOverflowError("move would overflow the recipient balance")
        self._acct(sender).nonreversible -= amount
        self._acct(to).nonreversible += amount
