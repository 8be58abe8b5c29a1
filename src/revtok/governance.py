"""Judge-based arbitration over the freeze lifecycle.

A victim stakes tokens to open a case.  A deterministic quorum of judges is
drawn from the pool, votes by commit-reveal whether to freeze, and, if the
freeze goes through, votes a second time at trial whether to reverse.  Fees,
stake, and tip all move through a dedicated escrow account on the ledger so
token conservation can be checked end to end:

    stake + tip  =  judge fees paid  +  burned  +  returned to claimant
                    +  paid to defendant  +  tip paid out

Every revealing judge earns the fixed fee regardless of vote direction, so a
judge cannot profit by voting strategically.  A dismissed freeze burns the
rest of the stake; a lost trial hands it to the defendant; a won trial returns
it.  Judges who fail to reveal collect strikes, and judges who land in an
extreme minority too often can be removed from the pool.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field

from .errors import (
    CommitMismatchError,
    DoubleVoteError,
    FrozenAssetError,
    InsufficientStakeError,
    InvalidDisputeError,
    NotQuorumMemberError,
    PhaseError,
    PoolTooSmallError,
    UnknownCaseError,
    UnknownSpenditureError,
    WindowElapsedError,
)
from .freeze import FreezeEngine
from .ledger import Address, TokenLedger, _check_amount
from .nft import NftRegistry
from .spendlog import SpendRef


class Phase(enum.Enum):
    FREEZE_VOTE = "FreezeVote"
    TRIAL = "Trial"
    CLOSED_DISMISSED = "ClosedDismissed"
    CLOSED_REVERSED = "ClosedReversed"
    CLOSED_REJECTED = "ClosedRejected"


TERMINAL_PHASES = {Phase.CLOSED_DISMISSED, Phase.CLOSED_REVERSED, Phase.CLOSED_REJECTED}


class Vote(enum.Enum):
    APPROVE = "approve"
    REJECT = "reject"


_VOTE_BYTE = {Vote.APPROVE: b"\x01", Vote.REJECT: b"\x00"}

SALT_LENGTH = 32


def commitment_hash(vote: Vote, salt: bytes, case_id: int) -> bytes:
    """SHA-256 of vote byte (0x01 approve / 0x00 reject), the salt left-padded
    to 32 bytes, and the case id as 8 big-endian bytes.  This layout is fixed
    so scenario files can precompute commitments."""
    if len(salt) > SALT_LENGTH:
        raise ValueError("salt may be at most 32 bytes")
    padded = salt.rjust(SALT_LENGTH, b"\x00")
    return hashlib.sha256(
        _VOTE_BYTE[vote] + padded + case_id.to_bytes(8, "big")
    ).digest()


@dataclass(frozen=True)
class FeePolicy:
    """Quorum sizing, thresholds, fees, and discipline parameters.

    Thresholds default to ceil(2n/3).  The minimum stake must cover the judge
    fees of both voting rounds at the largest configured quorum, so fee
    payment can never run out of escrow; unless given, it is exactly that.
    """

    judge_fee: int = 1
    quorum_size: int = 12
    min_stake: int | None = None
    freeze_threshold: int | None = None
    trial_threshold: int | None = None
    reveal_deadline: int = 100  # blocks per voting round
    strike_limit: int = 3
    minority_ratio: float = 0.8
    min_cases: int = 5
    extreme_minority_max: int = 1
    tip_to: str = "prevailing"  # or "burn"
    quorum_steps: tuple[tuple[int, int], ...] = ()  # (min disputed amount, n)

    def __post_init__(self):
        if self.judge_fee < 0 or self.quorum_size <= 0:
            raise ValueError("judge_fee must be >= 0 and quorum_size positive")
        if self.tip_to not in ("prevailing", "burn"):
            raise ValueError("tip_to must be 'prevailing' or 'burn'")
        if min(self.reveal_deadline, self.strike_limit, self.min_cases) < 1:
            raise ValueError("reveal_deadline, strike_limit and min_cases must be positive")
        if self.extreme_minority_max < 0 or not 0 <= self.minority_ratio <= 1:
            raise ValueError("extreme_minority_max must be >= 0 and minority_ratio in [0, 1]")
        largest = max([self.quorum_size, *(n for _, n in self.quorum_steps)])
        fees = 2 * largest * self.judge_fee
        if self.min_stake is None:
            object.__setattr__(self, "min_stake", fees)
        elif self.min_stake < fees:
            raise ValueError(
                "min_stake must cover two rounds of judge fees at the largest quorum"
            )
        for name in ("freeze_threshold", "trial_threshold"):
            value = getattr(self, name)
            if value is not None and not 0 < value <= largest:
                raise ValueError(f"{name} must fall within the quorum size")

    def quorum_for(self, amount: int) -> int:
        n = self.quorum_size
        for floor, size in sorted(self.quorum_steps):
            if amount >= floor:
                n = size
        return n

    def threshold(self, which: str, n: int) -> int:
        configured = getattr(self, which)
        return configured if configured is not None else math.ceil(2 * n / 3)


def select_quorum(pool: list[Address], n: int, beacon_seed: bytes, case_id: int) -> list[Address]:
    """Draw n distinct judges, uniformly, as a pure function of the inputs.

    Every judge gets a priority SHA-256(seed, case id, judge id); the n
    smallest priorities win.  Different case ids reshuffle independently even
    under the same seed.
    """
    if len(pool) < n:
        raise PoolTooSmallError(f"pool has {len(pool)} judges, quorum needs {n}")
    tag = beacon_seed + case_id.to_bytes(8, "big")
    ranked = sorted(pool, key=lambda j: hashlib.sha256(tag + j.encode()).digest())
    return ranked[:n]


@dataclass
class VoteRound:
    commits: dict[Address, bytes] = field(default_factory=dict)
    reveals: dict[Address, Vote] = field(default_factory=dict)

    def approvals(self) -> int:
        return sum(1 for v in self.reveals.values() if v is Vote.APPROVE)


@dataclass(frozen=True)
class FungibleTarget:
    ref: SpendRef


@dataclass(frozen=True)
class NftTarget:
    token_id: int
    index: int  # absolute record index: cleaning the token's history never shifts it


@dataclass
class Case:
    case_id: int
    target: FungibleTarget | NftTarget
    claimant: Address
    defendant: Address
    stake: int  # remaining escrowed stake
    tip: int
    quorum: list[Address]
    phase: Phase = Phase.FREEZE_VOTE
    round: VoteRound = field(default_factory=VoteRound)
    deadline_block: int = 0
    claim_id: str | None = None
    evidence: str = ""
    # escrow audit trail
    fees_paid: int = 0
    burned: int = 0
    returned: int = 0
    paid_defendant: int = 0
    tip_paid_to: str = ""


@dataclass
class TallyOutcome:
    phase_after: Phase
    fees_paid: int


class JudgePool:
    """Roster plus per-judge conduct counters."""

    def __init__(self, judges: list[Address] | None = None):
        self.judges: list[Address] = []
        self.strikes: dict[Address, int] = {}
        self.participated: dict[Address, int] = {}
        self.minority: dict[Address, int] = {}
        for judge in judges or []:
            self.add(judge)

    def add(self, judge: Address) -> None:
        if judge not in self.strikes:
            self.judges.append(judge)
            self.strikes[judge] = 0
            self.participated[judge] = 0
            self.minority[judge] = 0

    def remove(self, judge: Address) -> None:
        self.judges.remove(judge)


class Governance:
    """The arbitration court: the only identity the engines obey."""

    def __init__(
        self,
        ledger: TokenLedger,
        freeze_engine: FreezeEngine,
        nft: NftRegistry,
        pool: JudgePool,
        policy: FeePolicy | None = None,
        identity: Address = "governance",
        escrow: Address = "escrow",
    ):
        self.ledger = ledger
        self.freeze_engine = freeze_engine
        self.nft = nft
        self.pool = pool
        self.policy = policy or FeePolicy()
        self.identity = identity
        self.escrow = escrow
        self.cases: dict[int, Case] = {}

    def _case(self, case_id: int) -> Case:
        case = self.cases.get(case_id)
        if case is None:
            raise UnknownCaseError(f"case {case_id}")
        return case

    # -- case intake ---------------------------------------------------------

    def submit_freeze_request(
        self,
        claimant: Address,
        target: FungibleTarget | NftTarget,
        stake: int,
        tip: int = 0,
        evidence: str = "",
        beacon_seed: bytes = b"\x00",
    ) -> int:
        """Open a case.  The engine that owns the target decides whether the
        claimant may dispute it now (`FreezeEngine.disputed_record`,
        `NftRegistry.disputed_owner`) and raises if not.  A stake below the
        minimum or a negative tip is refused too; stake+tip is then escrowed
        from the claimant's non-reversible balance up front."""
        block = self.ledger.current_block
        if isinstance(target, FungibleTarget):
            record = self.freeze_engine.disputed_record(target.ref, claimant, block)
            defendant, disputed_amount = record.to, record.amount
        else:
            defendant = self.nft.disputed_owner(target.token_id, target.index, claimant, block)
            disputed_amount = 0
        if stake < self.policy.min_stake:
            raise InsufficientStakeError(
                f"stake {stake} is below the minimum {self.policy.min_stake}"
            )
        _check_amount(tip)
        n = self.policy.quorum_for(disputed_amount)
        case_id = len(self.cases) + 1  # cases are never deleted
        quorum = select_quorum(self.pool.judges, n, beacon_seed, case_id)
        # Checks done; escrow and register.
        self.ledger.move_nonreversible(claimant, self.escrow, stake + tip)
        case = Case(
            case_id=case_id,
            target=target,
            claimant=claimant,
            defendant=defendant,
            stake=stake,
            tip=tip,
            quorum=quorum,
            deadline_block=block + self.policy.reveal_deadline,
            evidence=evidence,
        )
        self.cases[case_id] = case
        return case_id

    # -- voting ---------------------------------------------------------------

    def cast_commit(self, case_id: int, judge: Address, commitment: bytes) -> None:
        case = self._case(case_id)
        if case.phase in TERMINAL_PHASES:
            raise PhaseError(f"case {case_id} is closed")
        if judge not in case.quorum:
            raise NotQuorumMemberError(f"{judge} is not on case {case_id}")
        if judge in case.round.commits:
            raise DoubleVoteError(f"{judge} already committed on case {case_id}")
        case.round.commits[judge] = commitment

    def cast_reveal(self, case_id: int, judge: Address, vote: Vote, salt: bytes) -> None:
        case = self._case(case_id)
        if case.phase in TERMINAL_PHASES:
            raise PhaseError(f"case {case_id} is closed")
        if judge not in case.quorum:
            raise NotQuorumMemberError(f"{judge} is not on case {case_id}")
        commitment = case.round.commits.get(judge)
        if commitment is None:
            raise PhaseError(f"{judge} has not committed on case {case_id}")
        if judge in case.round.reveals:
            raise DoubleVoteError(f"{judge} already revealed on case {case_id}")
        if commitment_hash(vote, salt, case_id) != commitment:
            raise CommitMismatchError(
                f"reveal by {judge} does not match the commitment"
            )
        case.round.reveals[judge] = vote

    # -- tally ------------------------------------------------------------------

    def tally(self, case_id: int) -> TallyOutcome:
        """Close the current voting round.

        Callable once all quorum members revealed or the round deadline has
        passed; unrevealed commits count as abstentions and earn a strike.
        """
        case = self._case(case_id)
        if case.phase in TERMINAL_PHASES:
            raise PhaseError(f"case {case_id} is closed")
        block = self.ledger.current_block
        reveals = case.round.reveals
        if len(reveals) < len(case.quorum) and block < case.deadline_block:
            raise PhaseError(
                f"case {case_id} still has open reveals before block {case.deadline_block}"
            )
        approvals = case.round.approvals()
        threshold = self.policy.threshold(
            "freeze_threshold" if case.phase is Phase.FREEZE_VOTE else "trial_threshold",
            len(case.quorum),
        )
        approved = approvals >= threshold

        if case.phase is Phase.FREEZE_VOTE:
            froze = approved and self._try_freeze(case, block)
            case.phase = Phase.TRIAL if froze else Phase.CLOSED_DISMISSED
        elif approved:
            self._settle_reverse(case, block)
            case.phase = Phase.CLOSED_REVERSED
        else:
            self._settle_reject(case, block)
            case.phase = Phase.CLOSED_REJECTED

        fees_paid = self._pay_judge_fees(case)
        self._record_conduct(case, approved)
        if case.phase is Phase.TRIAL:
            case.round = VoteRound()
            case.deadline_block = block + self.policy.reveal_deadline
        else:
            self._close(case, block)
        return TallyOutcome(case.phase, fees_paid)

    def _try_freeze(self, case: Case, block: int) -> bool:
        """Run the approved freeze and report whether it happened.  The
        engine re-checks the dispute, so a freeze it refuses dismisses the
        case rather than crashing the tally: the window elapsed while the vote
        ran, the disputed bucket or hop was cleaned since submission, or an
        earlier case already froze the NFT."""
        target = case.target
        try:
            if isinstance(target, FungibleTarget):
                case.claim_id = self.freeze_engine.execute_freeze(
                    target.ref, case.claimant, block, self.identity
                )
            else:
                self.nft.freeze(target.token_id, target.index, case.claimant, block, self.identity)
        except (WindowElapsedError, UnknownSpenditureError, InvalidDisputeError, FrozenAssetError):
            return False
        return True

    def _settle_reverse(self, case: Case, block: int) -> None:
        if isinstance(case.target, FungibleTarget):
            self.freeze_engine.reverse(case.claim_id, self.identity)
        else:
            self.nft.reverse(case.target.token_id, case.target.index, block, self.identity)

    def _settle_reject(self, case: Case, block: int) -> None:
        if isinstance(case.target, FungibleTarget):
            self.freeze_engine.reject_reverse(case.claim_id, self.identity)
        else:
            self.nft.reject_reverse(case.target.token_id, self.identity)

    def _pay_judge_fees(self, case: Case) -> int:
        """Pay the fixed fee to every judge who revealed, whatever they voted."""
        paid = 0
        for judge in case.round.reveals:
            self.ledger.move_nonreversible(self.escrow, judge, self.policy.judge_fee)
            paid += self.policy.judge_fee
        case.stake -= paid
        case.fees_paid += paid
        assert case.stake >= 0, "min_stake guarantees fee coverage"
        return paid

    def _record_conduct(self, case: Case, approved: bool) -> None:
        losing_side = Vote.REJECT if approved else Vote.APPROVE
        losers = [j for j, v in case.round.reveals.items() if v is losing_side]
        extreme = len(losers) <= self.policy.extreme_minority_max
        for judge in case.quorum:
            vote = case.round.reveals.get(judge)
            if vote is None:
                self.pool.strikes[judge] += 1
                continue
            self.pool.participated[judge] += 1
            if vote is losing_side and extreme:
                self.pool.minority[judge] += 1

    def _close(self, case: Case, block: int) -> None:
        """Empty a closed case's escrow.  A dismissal burns the rest of the
        stake; otherwise it goes to the prevailing side (the claimant after a
        reversal, the defendant, frozen for nothing, after a rejection).  The
        tip goes to the prevailing side, the defendant on a dismissal, unless
        the policy burns it."""
        won = case.phase is Phase.CLOSED_REVERSED
        prevailing = case.claimant if won else case.defendant
        if case.stake:
            if case.phase is Phase.CLOSED_DISMISSED:
                self.ledger.burn(self.escrow, case.stake, block)
                case.burned = case.stake
            else:
                self.ledger.move_nonreversible(self.escrow, prevailing, case.stake)
                if won:
                    case.returned = case.stake
                else:
                    case.paid_defendant = case.stake
            case.stake = 0
        if case.tip:
            if self.policy.tip_to == "burn":
                self.ledger.burn(self.escrow, case.tip, block)
                case.tip_paid_to = "(burned)"
            else:
                self.ledger.move_nonreversible(self.escrow, prevailing, case.tip)
                case.tip_paid_to = prevailing
            case.tip = 0

    # -- discipline --------------------------------------------------------------

    def discipline_judges(self) -> list[Address]:
        """Remove judges over the strike limit or stuck in extreme minorities.

        A judge qualifies for the minority removal only after participating in
        at least min_cases tallies with minority share >= minority_ratio.
        """
        removed = []
        for judge in list(self.pool.judges):
            strikes = self.pool.strikes[judge]
            cases = self.pool.participated[judge]
            minority = self.pool.minority[judge]
            if strikes >= self.policy.strike_limit or (
                cases >= self.policy.min_cases
                and minority / cases >= self.policy.minority_ratio
            ):
                self.pool.remove(judge)
                removed.append(judge)
        return removed
