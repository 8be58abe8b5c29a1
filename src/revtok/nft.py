"""Reversible non-fungible tokens.

Each token keeps an append-only queue of (owner, block) records; the last
entry is the current owner.  Record indexes are absolute: the i-th record ever
appended keeps index i.  Disputing the transfer that made record i+1 the owner
means freezing at index i: the token stops moving, and a reversal appends the
index-i owner back on top of the queue instead of rewriting history.  Only the
index-i owner may dispute that transfer, and only inside the window
(`disputed_owner`); `freeze` refuses whatever that rule refuses.

Cleaning drops queue prefixes that can no longer be disputed, keeping every
record whose successor is still inside the dispute window plus the current
owner, so any freeze that was admissible before a clean is admissible after
it, at the same index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BlockOrderError,
    DuplicateTokenError,
    FrozenAssetError,
    InvalidDisputeError,
    NotAffectedPartyError,
    NotFrozenError,
    NotGovernanceError,
    NotOwnerError,
    UnknownTokenError,
    WindowElapsedError,
)
from .spendlog import Address


@dataclass(frozen=True)
class OwnerRecord:
    owner: Address
    block: int


@dataclass
class NftToken:
    token_id: int
    owners: list[OwnerRecord] = field(default_factory=list)
    frozen: bool = False
    dropped: int = 0  # records cleaned away; owners[0] has index `dropped`

    @property
    def current_owner(self) -> Address:
        return self.owners[-1].owner

    def record(self, index: int) -> OwnerRecord | None:
        """The record at absolute `index`, or None if it was cleaned away or
        not yet appended."""
        position = index - self.dropped
        return self.owners[position] if 0 <= position < len(self.owners) else None


@dataclass
class NftCleanResult:
    token_id: int
    status: str  # "cleaned" or "skipped"
    reason: str = ""
    dropped: int = 0


class NftRegistry:
    def __init__(self, governance: Address, dispute_window: int):
        if dispute_window <= 0:
            raise ValueError("dispute_window must be positive")
        self.governance = governance
        self.dispute_window = dispute_window
        self.tokens: dict[int, NftToken] = {}

    def _token(self, token_id: int) -> NftToken:
        token = self.tokens.get(token_id)
        if token is None:
            raise UnknownTokenError(f"token {token_id}")
        return token

    def _require_governance(self, caller: Address) -> None:
        if caller != self.governance:
            raise NotGovernanceError(f"{caller} may not drive the freeze lifecycle")

    def _frozen_token(self, token_id: int, caller: Address) -> NftToken:
        self._require_governance(caller)
        token = self._token(token_id)
        if not token.frozen:
            raise NotFrozenError(f"token {token_id} is not frozen")
        return token

    def mint(self, token_id: int, to: Address, block: int) -> None:
        if token_id in self.tokens:
            raise DuplicateTokenError(f"token {token_id}")
        self.tokens[token_id] = NftToken(token_id, [OwnerRecord(to, block)])

    def transfer(self, token_id: int, to: Address, block: int, sender: Address | None = None) -> None:
        """Append a new owner record.  `sender`, when given, must be the
        current owner; the queue's blocks must stay non-decreasing."""
        token = self._token(token_id)
        if token.frozen:
            raise FrozenAssetError(f"token {token_id} is frozen")
        if sender is not None and sender != token.current_owner:
            raise NotOwnerError(f"{sender} does not own token {token_id}")
        if block < token.owners[-1].block:
            raise BlockOrderError(
                f"block {block} is behind the token's last record {token.owners[-1].block}"
            )
        token.owners.append(OwnerRecord(to, block))

    def disputed_owner(
        self, token_id: int, index: int, claimant: Address, current_block: int
    ) -> Address:
        """The owner the disputed hop index -> index+1 gave the token to, if
        `claimant` may dispute it at `current_block`.

        Raises UnknownTokenError for an unknown token, InvalidDisputeError
        when the index does not name a kept transfer (it was never made or
        was cleaned away), NotAffectedPartyError when `claimant` is not the
        index-i owner, WindowElapsedError once the hop's window has closed
        and FrozenAssetError while the token is frozen.
        """
        token = self._token(token_id)
        prior, hop = token.record(index), token.record(index + 1)
        if prior is None or hop is None:
            raise InvalidDisputeError(f"token {token_id} has no transfer at index {index}")
        if claimant != prior.owner:
            raise NotAffectedPartyError(
                f"{claimant} did not own token {token_id} before the transfer"
            )
        if current_block - hop.block > self.dispute_window:
            raise WindowElapsedError(
                f"transfer from block {hop.block} is outside the window at {current_block}"
            )
        if token.frozen:
            raise FrozenAssetError(f"token {token_id} is already frozen")
        return hop.owner

    def freeze(
        self, token_id: int, index: int, claimant: Address, current_block: int, caller: Address
    ) -> None:
        """Freeze the token over the transfer that made record index+1 the
        owner.  Raises what `disputed_owner` raises."""
        self._require_governance(caller)
        self.disputed_owner(token_id, index, claimant, current_block)
        self.tokens[token_id].frozen = True

    def reverse(self, token_id: int, index: int, current_block: int, caller: Address) -> None:
        """Return the token to the owner at record `index` by appending a
        fresh record, and unfreeze it."""
        token = self._frozen_token(token_id, caller)
        prior = token.record(index)
        if prior is None:
            raise UnknownTokenError(f"token {token_id} has no record {index}")
        token.owners.append(OwnerRecord(prior.owner, current_block))
        token.frozen = False

    def reject_reverse(self, token_id: int, caller: Address) -> None:
        self._frozen_token(token_id, caller).frozen = False

    def clean(self, token_ids: list[int], current_block: int) -> list[NftCleanResult]:
        """Drop history that is out of reach of any future dispute.

        Frozen tokens are skipped entirely.  For the rest, a record survives
        if its successor's block is still inside the window (its transfer can
        still be disputed) or it is the current owner.  Blocks are
        non-decreasing, so the kept records form a suffix and every still
        admissible freeze stays admissible at its index.
        """
        results = []
        for token_id in token_ids:
            token = self._token(token_id)
            if token.frozen:
                results.append(NftCleanResult(token_id, "skipped", reason="frozen"))
                continue
            owners = token.owners
            kept = [
                rec
                for i, rec in enumerate(owners)
                if i == len(owners) - 1
                or current_block - owners[i + 1].block <= self.dispute_window
            ]
            dropped = len(owners) - len(kept)
            token.owners = kept
            token.dropped += dropped
            results.append(NftCleanResult(token_id, "cleaned", dropped=dropped))
        return results
