"""Acceptance suite: one test per shipped guarantee.

Each test exercises one headline behavior end to end — scenario replays with
exact integer outcomes, the two freeze-sum/obligation-bound property suites at
ten thousand trials each, cycle elimination with an exhaustive independent
cycle enumeration, double-freeze prevention, the linear work bound at desk
scale, a cross-cutting invariant fuzz, and the full governance lifecycle.

Every test records its verdict so the terminal summary prints one PASS/FAIL
line per criterion (see conftest.pytest_terminal_summary).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from pathlib import Path

import conftest
from conftest import edge
from test_freeze_graph import all_simple_cycles, find_cycle, manual_graph

from revtok import NftRegistry, SpendRef, calc_freeze, eliminate_cycles
from revtok.oracle import SHAPES, _replay_on_engine, generate_trial, oracle_check, run_and_check
from revtok.scenario import run_scenario_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@contextmanager
def criterion(num: int, label: str, info: dict):
    """Record one acceptance verdict for the terminal summary."""
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_RESULTS.append((num, label, False, info.get("note", "")))
        raise
    conftest.ACCEPTANCE_RESULTS.append((num, label, True, info.get("note", "")))


def run_scenario_file(name: str):
    text = (SCENARIOS / name).read_text()
    return run_scenario_text(text, name.removesuffix(".scn"))


def assert_green(result) -> None:
    failed = [c for c in result.report["checks"] if not c["pass"]]
    assert result.report["failedOps"] == [], result.report["failedOps"]
    assert failed == [], failed
    assert result.exit_code == 0


# -- 1: worked examples ----------------------------------------------------


def test_criterion_1_worked_examples_replay_exactly():
    info = {}
    with criterion(1, "worked-example scenarios replay exactly, under 1 s each", info):
        slowest = 0.0
        for name in (
            "freeze_at_root.scn",
            "freeze_split_children.scn",
            "freeze_pre_arrival_excluded.scn",
        ):
            started = time.perf_counter()
            result = run_scenario_file(name)
            elapsed = time.perf_counter() - started
            slowest = max(slowest, elapsed)
            assert_green(result)
            assert elapsed < 1.0, name
        info["note"] = f"slowest replay {slowest:.3f}s"


# -- 2: recency and two-path splitting --------------------------------------


def test_criterion_2_recent_edge_and_split_freeze_maps():
    info = {}
    with criterion(2, "recent-edge priority and two-path split freeze maps exact", info):
        result = run_scenario_file("freeze_recent_edge_priority.scn")
        assert_green(result)
        claim = result.report["claims"][0]
        assert claim["toFreeze"]["a3"] == 10
        assert "a2" not in claim["toFreeze"]

        result = run_scenario_file("freeze_two_paths_split.scn")
        assert_green(result)
        claim = result.report["claims"][0]
        assert claim["totalFrozen"] == 20
        assert claim["obligations"]["a3"] == 10
        info["note"] = "both freeze maps integer-exact"


# -- 3: exact freeze sum over random burn-free economies ---------------------


def test_criterion_3_freeze_sum_property_suite():
    info = {}
    with criterion(3, "frozen total equals the disputed amount on 10k burn-free trials", info):
        started = time.perf_counter()
        report = oracle_check(trials=10_000, seed=20260814, burns="none")
        elapsed = time.perf_counter() - started
        assert report["pass"] is True
        assert report["violations"] == []
        assert report["burnTrials"] == 0
        assert report["trials"] == 10_000
        assert elapsed < 60.0
        info["note"] = f"10000 trials, 0 violations, {elapsed:.1f}s"


# -- 4: per-edge obligation bound --------------------------------------------


def test_criterion_4_obligation_bound_property_suite():
    info = {}
    with criterion(4, "per-edge obligations never exceed what reached the sender", info):
        report, elapsed = conftest.oracle_10000_41()
        assert report["pass"] is True
        assert report["violations"] == []
        assert report["trials"] == 10_000
        # the hub shape alternates in/out transfers at one account, the
        # stress case for the newest-first rule
        assert report["shapes"]["interleaved"] >= 3_000
        assert elapsed < 60.0
        info["note"] = f"10000 trials incl. {report['shapes']['interleaved']} interleaved, {elapsed:.1f}s"


# -- 5: cycle elimination -----------------------------------------------------


def test_criterion_5_cycle_elimination_always_yields_a_dag():
    info = {}
    with criterion(5, "cycle elimination: round-trip scenario plus DAG guarantee", info):
        result = run_scenario_file("cycle_roundtrip.scn")
        assert_green(result)
        claim = result.report["claims"][0]
        assert any(e[0] == "a0" and e[1] == "a1" and e[2] == 2 for e in claim["perEdge"])

        # exhaustive independent verification: after elimination no simple
        # cycle can be assembled from the surviving edges at all
        rng = random.Random(20260814)
        enumerated = 0
        for trial in range(150):
            nodes = ["a", "b", "c", "d", "e", "f"][: rng.randrange(2, 7)]
            edges = [
                edge(rng.choice(nodes), rng.choice(nodes), rng.randrange(1, 9), seq)
                for seq in range(rng.randrange(2, 8))
            ]
            out = eliminate_cycles(manual_graph(nodes[0], edges))
            assert all_simple_cycles(out.edges) == [], trial
            assert all(e.value >= 0 for e in out.edges), trial
            enumerated += 1
        # denser graphs, checked with a plain depth-first cycle search
        for trial in range(400):
            nodes = ["a", "b", "c", "d", "e", "f"][: rng.randrange(3, 7)]
            edges = [
                edge(rng.choice(nodes), rng.choice(nodes), rng.randrange(1, 9), seq)
                for seq in range(rng.randrange(4, 15))
            ]
            out = eliminate_cycles(manual_graph(nodes[0], edges))
            assert find_cycle(out) is None, trial
        info["note"] = f"{enumerated} graphs exhaustively enumerated, 400 more DFS-checked"


# -- 6: double-freeze prevention ----------------------------------------------


def test_criterion_6_double_freeze_contributes_nothing():
    info = {}
    with criterion(6, "second freeze adds 0 frozen; rejection restores the record", info):
        result = run_scenario_file("double_freeze.scn")
        assert_green(result)
        claims = result.report["claims"]
        assert len(claims) == 2
        assert claims[1]["totalFrozen"] == 0  # the re-dispute finds nothing left
        assert claims[0]["status"] == "Rejected"
        hop = next(
            s for s in result.report["spends"]
            if s["sender"] == "a0" and s["epoch"] == 0 and s["index"] == 0
        )
        assert hop["amount"] == 50 and hop["original"] == 50  # exact restoration
        assert all(a["frozen"] == 0 for a in result.report["accounts"].values())
        info["note"] = "re-dispute froze 0; decremented record restored to 50"


# -- 7: linear work bound at desk scale ---------------------------------------


def test_criterion_7_work_is_linear_at_desk_scale():
    info = {}
    label = ("10k-node / 100k-edge graph: work <= V+E, edge iterations <= 2(V+E), "
             "freeze calc < 2 s")
    with criterion(7, label, info):
        graph, balances = conftest.random_dag(nodes=10_000, edges=100_000, seed=7)
        demand = sum(e.value for e in graph.edges) // 2 + 1
        started = time.perf_counter()
        plan = calc_freeze(graph, demand, balances.__getitem__)
        seconds = round(time.perf_counter() - started, 4)
        assert plan.nodes_visited + plan.edges_touched <= 10_000 + 100_000
        assert plan.edge_iterations == 2 * plan.edge_count + plan.edges_touched
        assert plan.edge_iterations <= 2 * (10_000 + 100_000)
        assert seconds < 2.0
        info["note"] = (
            f"{plan.nodes_visited} nodes + {plan.edges_touched} edge touches, "
            f"{plan.edge_iterations} edge iterations, {seconds}s"
        )


# -- 8: cross-cutting invariants ------------------------------------------------
# The fuzzes compare `runner.state()`: every account, spend, claim and case,
# the supply and the clock.


def _fuzz_engine_trials(violations: list[str]) -> None:
    rng = random.Random(77)
    for i in range(200):
        spec = generate_trial(random.Random(rng.getrandbits(64)), SHAPES[i % 3], bool(i % 2))
        violations.extend(run_and_check(spec))


def _fuzz_clean_idempotence(violations: list[str]) -> None:
    rng = random.Random(78)
    for t in range(40):
        spec = generate_trial(random.Random(rng.getrandbits(64)), "generic", burns=True)
        runner, _ref = _replay_on_engine(spec)
        led = runner.ledger
        led.advance_block(led.current_block + led.config.dispute_window + 1)
        buckets = sorted({(ref.epoch, ref.sender) for ref, _ in led.log.all_records()})
        epochs = sorted({e for e, _ in buckets})
        for epoch in epochs:
            led.clean(epoch, [s for e, s in buckets if e == epoch], led.current_block)
        first = runner.state()
        total_after_first = sum(
            acct.reversible + acct.nonreversible for acct in led.accounts.values()
        )
        for epoch in epochs:
            led.clean(epoch, [s for e, s in buckets if e == epoch], led.current_block)
        if runner.state() != first:
            violations.append(f"clean not idempotent on trial {t}")
        total = sum(acct.reversible + acct.nonreversible for acct in led.accounts.values())
        if total != total_after_first:
            violations.append(f"clean moved net value on trial {t}")


def _fuzz_nft_freezability(violations: list[str]) -> None:
    rng = random.Random(79)
    for t in range(60):
        window = rng.randrange(5, 30)
        reg = NftRegistry(conftest.GOV, window)
        reg.mint(1, "a0", block=0)
        block = 0
        for i in range(rng.randrange(1, 12)):
            block += rng.randrange(0, 8)
            reg.transfer(1, f"a{i + 1}", block=block)
        now = block + rng.randrange(0, 2 * window)
        token = reg._token(1)
        before = {(i, token.record(i + 1)) for i in conftest.disputable_indexes(reg, 1, now)}
        reg.clean([1], current_block=now)
        after = {(i, token.record(i + 1)) for i in conftest.disputable_indexes(reg, 1, now)}
        if before != after:
            violations.append(f"nft clean lost a freezable hop on trial {t}")


def _fuzz_atomicity(violations: list[str]) -> None:
    rng = random.Random(80)
    for t in range(100):
        spec = generate_trial(random.Random(rng.getrandbits(64)), "generic", burns=False)
        runner, ref = _replay_on_engine(spec)
        led, engine = runner.ledger, runner.freeze
        accounts = sorted(led.accounts)
        frm = rng.choice(accounts)
        acct = led.accounts[frm]
        block = led.current_block
        doomed = [
            lambda: led.transfer(frm, "x", acct.nonreversible + 1, block),
            lambda: led.rtransfer(frm, "x", acct.reversible - acct.frozen + 1, block),
            lambda: led.transfer(frm, "x", 1, block - 1) if block > 0 else None,
            lambda: led.mint(frm, -5, block),
            lambda: engine.execute_freeze(SpendRef(99, "zz", 0), "zz", block, conftest.GOV),
            lambda: engine.execute_freeze(ref, "zz", block, "mallory"),
            lambda: engine.reverse("deadbeef" * 8, conftest.GOV),
            lambda: engine.reject_reverse("deadbeef" * 8, conftest.GOV),
        ]
        attempt = rng.choice(doomed)
        snap = runner.state()
        try:
            attempt()
        except Exception:
            if runner.state() != snap:
                violations.append(f"failed call left residue on trial {t}")
        else:
            violations.append(f"doomed call succeeded on trial {t}")


def test_criterion_8_invariants_hold_under_fuzz():
    info = {}
    with criterion(8, "floors, conservation, clean idempotence, freezability, atomicity", info):
        violations: list[str] = []
        _fuzz_engine_trials(violations)
        _fuzz_clean_idempotence(violations)
        _fuzz_nft_freezability(violations)
        _fuzz_atomicity(violations)
        assert violations == []
        info["note"] = "400 fuzzed runs, 0 violations"


# -- 9: governance lifecycle -----------------------------------------------------


def test_criterion_9_governance_lifecycle_conserves_escrow():
    info = {}
    with criterion(9, "submit/quorum/commit-reveal/freeze/trial/reverse + dismissal burn", info):
        result = run_scenario_file("governance_lifecycle.scn")
        assert_green(result)
        report = result.report
        cases = {c["id"]: c for c in report["cases"]}
        assert cases[1]["phase"] == "ClosedReversed"
        assert cases[2]["phase"] == "ClosedDismissed"
        assert len(cases[1]["quorum"]) == 12
        # escrow conserves to the token: nothing stranded, every case fully paid out
        escrow = report["accounts"]["escrow"]
        assert escrow["nonreversible"] == 0 and escrow["reversible"] == 0
        for case in cases.values():
            assert case["stakeRemaining"] == 0 and case["tipRemaining"] == 0
        # dismissal burns the claimant's remaining stake
        assert cases[2]["burned"] > 0
        assert report["supply"]["burned"] == 18
        assert (
            report["supply"]["circulating"]
            == report["supply"]["minted"] - report["supply"]["burned"]
        )
        info["note"] = "escrow drained to 0; dismissal burned 18"
