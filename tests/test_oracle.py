from __future__ import annotations

import random

from revtok.cli import main as cli_main
from revtok.oracle import (
    SHAPES,
    _check_obligation_bound,
    _replay_on_engine,
    _trace_raw,
    file_trial_claim,
    generate_trial,
    oracle_check,
    oracle_trials,
    reference_freeze,
    run_and_check,
    trial_text,
)
from revtok.scenario import ScenarioRunner, parse_scenario, report_json, run_scenario_text


def test_every_shape_generates_and_checks_clean():
    rng = random.Random(3)
    for shape in SHAPES:
        for _ in range(40):
            spec = generate_trial(rng, shape, burns=False)
            assert run_and_check(spec) == []


def test_burn_trials_check_clean():
    rng = random.Random(5)
    for _ in range(60):
        spec = generate_trial(rng, "generic", burns=True)
        assert run_and_check(spec) == []


def test_layered_trials_match_reference_map():
    # layered specs are cycle-free, so the brute-force map is exact and the
    # checker compares against it; any disagreement shows up as a violation
    rng = random.Random(9)
    seen_nonempty = 0
    for _ in range(50):
        spec = generate_trial(rng, "layered", burns=False)
        ref_map = reference_freeze(spec, _trace_raw(spec))
        assert run_and_check(spec) == []
        if any(ref_map.values()):
            seen_nonempty += 1
    assert seen_nonempty > 10  # the generator produces real traces


def test_oracle_check_report_is_deterministic():
    a = oracle_check(trials=30, seed=12, burns="mixed")
    b = oracle_check(trials=30, seed=12, burns="mixed")
    assert a == b
    assert a["pass"] is True
    assert a["violations"] == []
    assert a["trials"] == 30
    assert set(a["shapes"]) <= set(SHAPES)
    assert report_json(a) == report_json(b)
    assert report_json(a).endswith("\n")


def test_oracle_check_distinguishes_seeds():
    a = oracle_check(trials=20, seed=1)
    b = oracle_check(trials=20, seed=2)
    assert a["seed"] != b["seed"]


def test_trials_stay_within_the_advertised_bounds():
    # every generated economy fits in 8 addresses, 15 transfers, amounts <= 100
    rng = random.Random(11)
    for shape in SHAPES:
        for _ in range(500):
            spec = generate_trial(rng, shape, burns=True)
            addresses = set()
            transfers = 0
            for op in spec.ops:
                p = op.params
                if op.name in ("transfer", "rtransfer"):
                    addresses.update((p["from"], p["to"]))
                    transfers += 1
                    assert 1 <= p["amount"] <= 100
                elif op.name == "mint":
                    addresses.add(p["to"])
                    assert 1 <= p["amount"] <= 100
                elif op.name == "burn":
                    addresses.add(p["from"])
                    assert 1 <= p["amount"] <= 100
            assert len(addresses) <= 8, spec.ops
            assert transfers <= 15, spec.ops


def test_oracle_catches_a_broken_engine(monkeypatch, tmp_path):
    # sanity: the checker is not vacuous.  Sabotage the freeze calculation
    # and the identity invariant must start failing; what it reports is the
    # failing trial as a scenario `revtok replay` runs.
    from revtok import freeze as freeze_mod
    from revtok import oracle as oracle_mod

    original = freeze_mod.calc_freeze

    def lying_calc(graph, demand, balance_of):
        plan = original(graph, demand, balance_of)
        for addr in list(plan.to_freeze):
            if plan.to_freeze[addr] > 0:
                plan.to_freeze[addr] -= 1
                break
        return plan

    monkeypatch.setattr(oracle_mod, "calc_freeze", lying_calc, raising=False)
    monkeypatch.setattr(freeze_mod, "calc_freeze", lying_calc)
    rng = random.Random(3)
    reported = []
    for _ in range(40):
        spec = generate_trial(rng, "generic", burns=False)
        reported.extend((spec, violation) for violation in run_and_check(spec))
    assert reported  # at least one trial trips the invariants
    spec, violation = reported[0]
    assert violation.startswith("# ") and parse_scenario(violation) == spec.ops
    scenario = tmp_path / "violation.scn"
    scenario.write_text(violation)
    assert cli_main(["replay", str(scenario), "--out", str(tmp_path / "report.json")]) == 0


def test_trial_text_replays_the_trial():
    # the text a violation carries parses back to its trial's ops, the
    # scenario runner reaches the state the oracle's own replay reaches, and
    # the trial's raw books agree with that state's balances and spend records
    for spec in oracle_trials(3000, 41, "mixed"):
        text = trial_text(spec, "finding")
        assert parse_scenario(text) == spec.ops
        result = run_scenario_text(text)
        assert result.exit_code == 0
        state = _replay_on_engine(spec)[0].state()
        assert {block: result.report[block] for block in state} == state
        for books, field in ((spec.books.r, "reversible"), (spec.books.nr, "nonreversible")):
            assert {addr: n for addr, n in books.items() if n} == {
                addr: acct[field] for addr, acct in state["accounts"].items() if acct[field]
            }
        assert spec.books.records == [
            (row["sender"], row["to"], row["original"]) for row in state["spends"]
        ]


def test_oracle_catches_an_inflated_edge_obligation():
    # sanity for the per-edge audit: a plan that over-attributes
    # responsibility along an edge must be flagged by the obligationBound checks.
    # The tampering happens after execution because the engine itself refuses
    # to apply an over-debit, so the lie can only exist in the reported plan.
    rng = random.Random(5)
    tripped = 0
    for _ in range(40):
        spec = generate_trial(rng, "interleaved", burns=False)
        _ledger, plan = file_trial_claim(spec)
        if not plan.per_edge:
            continue
        trace = _trace_raw(spec)
        assert not _check_obligation_bound(trace, plan)
        edge, obligation = plan.per_edge[0]
        plan.per_edge[0] = (edge, obligation + plan.demand)
        violations = _check_obligation_bound(trace, plan)
        assert any("obligationBound" in v for v in violations)
        tripped += 1
    assert tripped > 10


def test_oracle_never_builds_the_state_view(monkeypatch):
    # the oracle only dispatches ops, so it must not pay for the report view
    calls = []
    state = ScenarioRunner.state

    def counted(self):
        calls.append(self)
        return state(self)

    monkeypatch.setattr(ScenarioRunner, "state", counted)
    run_scenario_text("mint to=a amount=1\nexpect kind=supply minted=1\n")
    assert len(calls) == 2  # one expect line and the final report: the counter counts
    calls.clear()
    oracle_check(200, 41)
    assert calls == []
