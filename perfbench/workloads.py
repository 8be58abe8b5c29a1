"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed.  It keeps its own small
model of balances and ownership, emits only operations that the model says
are valid, and never imports the engine, so the engine receives nothing but
the generated operations.  The model's expectations (final totals, owners,
live record counts) are handed to the runner, which checks the engine's final
state against them.

Operations are plain tuples whose first field is one of the op-kind
constants below; the runner dispatches on it.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

MINT, TRANSFER, RTRANSFER, BURN, NFT_MINT, NFT_TRANSFER, CLEAN = range(7)

# FeePolicy() defaults: quorum 12, approval threshold ceil(2 * 12 / 3).
QUORUM = 12
THRESHOLD = 8
MIN_STAKE = 24

JUDGES = 300  # the court's pool; a few hundred makes sortition weigh in
TRANSFERS_PER_BLOCK = 10
# Non-reversible funds minted per address for traffic; enough that the
# generators' spends never run out.
ECONOMY_SPENDABLE = 1_000_000
CHURN_SPENDABLE = 10**12
ZIPF_EXPONENT = 1.0


def _address(i: int) -> str:
    return "a%04d" % i


# -- dispute economies ---------------------------------------------------------


@dataclass(frozen=True)
class EconomySpec:
    """An economy built through the ledger, then a court backlog on it.

    The addresses form `markets` equal blocks of consecutive indexes, and
    every transfer stays inside its sender's block, so a trace never leaves
    one market.  A pass thus holds several independent economies, and the
    per-seed swings of one economy's cycle structure average out.

    `back_fraction` is the share of transfers sent to a lower-index address;
    any nonzero share creates cycles.  With back, self and burn fractions all
    zero every transfer goes to a higher-index address, so the economy is a DAG.
    """

    addresses: int
    transfers: int
    disputes: int
    back_fraction: float = 0.0
    self_fraction: float = 0.0
    burn_fraction: float = 0.0
    markets: int = 1


@dataclass(frozen=True)
class Dispute:
    """One case: the disputed record and every choice the claimant and the
    judges make.  Votes are listed by quorum position; the quorum itself is
    drawn by the engine at submission."""

    record: int  # index of the disputed record among the economy's records
    claimant: str
    stake: int
    tip: int
    beacon: bytes
    freeze_votes: tuple[bool, ...]
    trial_votes: tuple[bool, ...]


@dataclass
class DisputeWorkload:
    name: str
    setup: list[tuple]
    disputes: list[Dispute]
    judges: list[str]
    expected_totals: dict[str, int]  # every account's total after setup
    burn_free: bool

    def digest(self) -> str:
        return _digest((self.setup, self.disputes, self.judges))


def _votes(rng: random.Random, approve: bool) -> tuple[bool, ...]:
    approvals = rng.randint(THRESHOLD, QUORUM) if approve else rng.randint(0, THRESHOLD - 1)
    yes = set(rng.sample(range(QUORUM), approvals))
    return tuple(i in yes for i in range(QUORUM))


def dispute_workload(name: str, spec: EconomySpec, seed: int) -> DisputeWorkload:
    rng = random.Random(seed)
    n = spec.addresses
    names = [_address(i) for i in range(n)]
    nonrev = [ECONOMY_SPENDABLE] * n
    rev = [0] * n
    traffic: list[tuple] = []
    disputable: list[tuple[int, int]] = []  # (record index, sender index)
    records = 0
    forward_only = not (spec.back_fraction or spec.self_fraction or spec.burn_fraction)
    size = n // spec.markets
    # Senders take turns: each round lets every sender send once, in a
    # shuffled order, so activity is even across addresses and over time.
    # In a DAG the last address of a market has no higher-index peer to pay.
    senders = [i for i in range(n) if not (forward_only and i % size == size - 1)]
    schedule: list[int] = []
    while len(schedule) < spec.transfers:
        rng.shuffle(senders)
        schedule += senders
    for t, i in enumerate(schedule[:spec.transfers]):
        block = 1 + t // TRANSFERS_PER_BLOCK
        if rev[i] and rng.random() < spec.burn_fraction:
            amount = rng.randint(1, rev[i])
            rev[i] -= amount
            traffic.append((BURN, names[i], amount, block))
            records += 1
            continue
        base = i - i % size
        roll = rng.random()
        if roll < spec.self_fraction:
            j = i
        elif (roll < spec.self_fraction + spec.back_fraction and i > base) or i == base + size - 1:
            j = rng.randrange(base, i)
        else:
            j = rng.randrange(i + 1, base + size)
        amount = rng.randint(1, 100)
        if rev[i] >= amount and rng.random() < 0.7:
            rev[i] -= amount
            kind = RTRANSFER
        else:
            if nonrev[i] < amount:
                raise AssertionError("spendable mint too small for the traffic")
            nonrev[i] -= amount
            kind = TRANSFER
        rev[j] += amount
        traffic.append((kind, names[i], names[j], amount, block))
        disputable.append((records, i))
        records += 1

    # Stratified uniform choice: one record from each of `disputes` equal
    # slices of the history, then a shuffled court order.  Every record is
    # equally likely to be picked, but early (expensive) records are drawn at
    # a steady rate, which keeps the per-seed cost from swinging.
    picks = []
    slots = len(disputable)
    for k in range(spec.disputes):
        lo = k * slots // spec.disputes
        hi = max(lo + 1, (k + 1) * slots // spec.disputes)
        picks.append(disputable[rng.randrange(lo, hi)])
    rng.shuffle(picks)
    reserve = [0] * n
    disputes = []
    for k, (record, sender) in enumerate(picks):
        stake = MIN_STAKE + rng.randint(0, 16)
        tip = rng.randint(0, 4)
        reserve[sender] += stake + tip
        disputes.append(Dispute(
            record, names[sender], stake, tip, rng.randbytes(8),
            _votes(rng, True), _votes(rng, k % 2 == 0),
        ))

    mints = [(MINT, names[i], ECONOMY_SPENDABLE + reserve[i], 0) for i in range(n)]
    totals = {names[i]: nonrev[i] + rev[i] + reserve[i] for i in range(n)}
    return DisputeWorkload(
        name=name,
        setup=mints + traffic,
        disputes=disputes,
        judges=["j%03d" % i for i in range(JUDGES)],
        expected_totals=totals,
        burn_free=not spec.burn_fraction,
    )


# -- steady-state churn ------------------------------------------------------------


@dataclass(frozen=True)
class ChurnSpec:
    """Ledger and NFT traffic with a clean step at the end of every epoch
    once the window has filled.  Senders are Zipf-distributed by address
    index, so a few hot senders hold most of the live records."""

    addresses: int
    ops_per_epoch: int
    epoch_length: int
    window_epochs: int
    epochs: int
    nft_fraction: float
    tokens: int

    @property
    def window(self) -> int:
        return self.window_epochs * self.epoch_length


@dataclass
class ChurnWorkload:
    name: str
    spec: ChurnSpec
    setup: list[tuple]  # mints plus one full window of warm-up traffic
    measured: list[tuple]
    expected_totals: dict[str, int]
    expected_owners: dict[int, str]
    expected_live_records: int

    def digest(self) -> str:
        return _digest((self.setup, self.measured))


def churn_workload(name: str, spec: ChurnSpec, seed: int) -> ChurnWorkload:
    rng = random.Random(seed)
    n = spec.addresses
    names = [_address(i) for i in range(n)]
    cum_weights = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(n)))
    nonrev = [CHURN_SPENDABLE] * n
    totals = [CHURN_SPENDABLE] * n
    owners = {tok: names[rng.randrange(n)] for tok in range(1, spec.tokens + 1)}
    setup: list[tuple] = [(MINT, names[i], CHURN_SPENDABLE, 0) for i in range(n)]
    setup += [(NFT_MINT, tok, owner, 0) for tok, owner in owners.items()]
    measured: list[tuple] = []
    senders_of: list[set[str]] = []
    tokens_of: list[set[int]] = []
    L = spec.epoch_length
    for epoch in range(spec.epochs):
        out = setup if epoch < spec.window_epochs else measured
        senders: set[str] = set()
        tokens: set[int] = set()
        picks = rng.choices(range(n), cum_weights=cum_weights, k=spec.ops_per_epoch)
        for m, i in enumerate(picks):
            block = epoch * L + m * L // spec.ops_per_epoch
            if rng.random() < spec.nft_fraction:
                tok = rng.randint(1, spec.tokens)
                to = names[rng.randrange(n)]
                out.append((NFT_TRANSFER, tok, owners[tok], to, block))
                owners[tok] = to
                tokens.add(tok)
                continue
            j = rng.randrange(n)
            amount = rng.randint(1, 100)
            if nonrev[i] < amount:
                raise AssertionError("spendable mint too small for the traffic")
            nonrev[i] -= amount
            totals[i] -= amount
            totals[j] += amount
            out.append((TRANSFER, names[i], names[j], amount, block))
            senders.add(names[i])
        senders_of.append(senders)
        tokens_of.append(tokens)
        if epoch >= spec.window_epochs:
            # Every record of this epoch is older than the window one block
            # after the epoch `window_epochs` later has ended.
            old = epoch - spec.window_epochs
            measured.append((CLEAN, old, tuple(sorted(senders_of[old])),
                             tuple(sorted(tokens_of[old])), (epoch + 1) * L))
    cleaned = spec.epochs - spec.window_epochs
    live = sum(1 for op in setup + measured if op[0] == TRANSFER and op[4] // L >= cleaned)
    return ChurnWorkload(
        name=name,
        spec=spec,
        setup=setup,
        measured=measured,
        expected_totals={names[i]: totals[i] for i in range(n)},
        expected_owners=owners,
        expected_live_records=live,
    )


# -- registry ----------------------------------------------------------------------

SPECS: dict[str, EconomySpec | ChurnSpec] = {
    # Back edges make eliminate_cycles dominate: it restarts a full DFS for
    # every cancelled cycle.
    "dispute-cyclic": EconomySpec(
        addresses=640, transfers=16_000, disputes=800, markets=32,
        back_fraction=0.2, self_fraction=0.01, burn_fraction=0.01,
    ),
    # Forward-only and burn-free: no cycles, so eliminate_cycles makes one DFS
    # pass; graph construction and the court do the work.
    "dispute-dag": EconomySpec(addresses=800, transfers=24_000, disputes=800, markets=4),
    # No disputes: the write and delete side of the spend log.
    "churn-clean": ChurnSpec(
        addresses=1_000, ops_per_epoch=500, epoch_length=20, window_epochs=24,
        epochs=150, nft_fraction=0.1, tokens=200,
    ),
}


def generate(name: str, seed: int) -> DisputeWorkload | ChurnWorkload:
    spec = SPECS[name]
    if isinstance(spec, ChurnSpec):
        return churn_workload(name, spec, seed)
    return dispute_workload(name, spec, seed)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()
