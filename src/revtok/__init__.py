"""Reversible-token ledger engine and scenario simulator."""

from .errors import (
    AmountOverflowError,
    BlockOrderError,
    ClaimNotFrozenError,
    CommitMismatchError,
    DoubleVoteError,
    DuplicateTokenError,
    FrozenAssetError,
    FrozenFloorError,
    InsufficientBalanceError,
    InsufficientNonReversibleError,
    InsufficientReversibleError,
    InsufficientStakeError,
    InvalidDisputeError,
    LedgerError,
    NotAffectedPartyError,
    NotFrozenError,
    NotGovernanceError,
    NotOwnerError,
    NotQuorumMemberError,
    ParseError,
    PhaseError,
    PoolTooSmallError,
    UnknownCaseError,
    UnknownClaimError,
    UnknownSpenditureError,
    UnknownTokenError,
    WindowElapsedError,
)
from .freeze import (
    Claim,
    ClaimStatus,
    FreezeEngine,
    FreezePlan,
    GraphEdge,
    TransferGraph,
    build_graph,
    calc_freeze,
    eliminate_cycles,
)
from .governance import (
    TERMINAL_PHASES,
    Case,
    FeePolicy,
    FungibleTarget,
    Governance,
    JudgePool,
    NftTarget,
    Phase,
    TallyOutcome,
    Vote,
    VoteRound,
    commitment_hash,
    select_quorum,
)
from .ledger import MAX_AMOUNT, AccountState, Address, BurnSource, TokenLedger
from .nft import NftRegistry, NftToken, OwnerRecord
from .spendlog import CleanReport, EpochConfig, SpendLog, SpendRecord, SpendRef

__version__ = "0.1.0"
