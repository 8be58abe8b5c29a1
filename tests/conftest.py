from __future__ import annotations

import functools
import random
import time

import pytest

from revtok import (
    EpochConfig,
    FeePolicy,
    FreezeEngine,
    GraphEdge,
    Governance,
    JudgePool,
    NftRegistry,
    SpendRecord,
    TokenLedger,
    TransferGraph,
    Vote,
    commitment_hash,
)
from revtok.oracle import oracle_check
from revtok.spendlog import DEFAULT_DISPUTE_WINDOW, DEFAULT_EPOCH_LENGTH

GOV = "governance"


def make_ledger(
    epoch_length: int = DEFAULT_EPOCH_LENGTH, window: int = DEFAULT_DISPUTE_WINDOW
) -> TokenLedger:
    return TokenLedger(EpochConfig(epoch_length=epoch_length, dispute_window=window))


def make_engine(ledger: TokenLedger | None = None) -> tuple[TokenLedger, FreezeEngine]:
    led = ledger or make_ledger()
    return led, FreezeEngine(led, GOV)


def make_stack(
    n_judges: int = 1,
    pool_size: int | None = None,
    epoch_length: int = DEFAULT_EPOCH_LENGTH,
    window: int = DEFAULT_DISPUTE_WINDOW,
    **policy_kwargs,
):
    """Full environment: ledger, freeze engine, NFT registry, governance."""
    led = make_ledger(epoch_length, window)
    engine = FreezeEngine(led, GOV)
    nft = NftRegistry(GOV, window)
    judges = [f"j{i:02d}" for i in range(pool_size or n_judges)]
    policy_kwargs.setdefault("quorum_size", n_judges)
    policy = FeePolicy(**policy_kwargs)
    gov = Governance(led, engine, nft, JudgePool(judges), policy, identity=GOV)
    return led, engine, nft, gov, judges


def vote_round(gov: Governance, case_id: int, votes: dict[str, Vote], salt_base: int = 0):
    """Commit, reveal, and tally one full round for the given judges."""
    for i, (judge, vote) in enumerate(votes.items()):
        salt = bytes([salt_base + i])
        gov.cast_commit(case_id, judge, commitment_hash(vote, salt, case_id))
    for i, (judge, vote) in enumerate(votes.items()):
        salt = bytes([salt_base + i])
        gov.cast_reveal(case_id, judge, vote, salt)
    return gov.tally(case_id)


def disputable_indexes(reg: NftRegistry, token_id: int, current_block: int) -> list[int]:
    """Indexes i whose i -> i+1 transfer of the token is still inside the
    registry's dispute window."""
    token = reg.tokens[token_id]
    return [
        token.dropped + i
        for i in range(len(token.owners) - 1)
        if current_block - token.owners[i + 1].block <= reg.dispute_window
    ]


def edge(src: str, dst: str, value: int, seq: int) -> GraphEdge:
    """An edge of `value` over a hand-built spend record src -> dst at `seq`."""
    return GraphEdge(value, SpendRecord(src, dst, value, value, 0, seq))


def random_dag(nodes: int, edges: int, seed: int) -> tuple[TransferGraph, dict[str, int]]:
    """A rooted random DAG with every node reachable from the root, built
    directly (bypassing the log and graph construction) to measure calc_freeze
    alone.

    Edge seqs ascend with the source index, so seqs increase along every
    path, matching what the trace construction guarantees.  Node balances are
    zero so obligations propagate as deep as the edge capacities allow.
    """
    rng = random.Random(seed)
    names = ["n%d" % i for i in range(nodes)]
    raw: list[tuple[int, int, int]] = []  # (src index, dst index, value)
    for i in range(1, nodes):
        raw.append((rng.randint(0, i - 1), i, rng.randint(1, 100)))
    for _ in range(edges - (nodes - 1)):
        i = rng.randint(0, nodes - 2)
        j = rng.randint(i + 1, nodes - 1)
        raw.append((i, j, rng.randint(1, 100)))
    raw.sort(key=lambda e: e[0])
    graph = TransferGraph(root=names[0], out={n: [] for n in names})
    # One source's edges must sit newest-first: assign seqs ascending, then
    # reverse each source's list.
    for seq, (src_i, dst_i, value) in enumerate(raw, start=1):
        graph.out[names[src_i]].append(edge(names[src_i], names[dst_i], value, seq))
    for out in graph.out.values():
        out.reverse()
    return graph, {name: 0 for name in names}


@functools.cache
def oracle_10000_41() -> tuple[dict, float]:
    """`oracle_check(10000, 41, "mixed")` and the seconds it took, computed
    once per session: criterion 4 and the oracle golden both read it."""
    started = time.perf_counter()
    report = oracle_check(10_000, 41, "mixed")
    return report, time.perf_counter() - started


@pytest.fixture
def ledger() -> TokenLedger:
    return make_ledger()


# Filled by tests/test_acceptance.py; one entry per acceptance criterion.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, label, ok, note in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        suffix = f" [{note}]" if note else ""
        terminalreporter.write_line(
            f"criterion {num}: {status} - {label}{suffix}", green=ok, red=not ok
        )
