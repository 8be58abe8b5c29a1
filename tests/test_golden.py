"""Byte-exact golden reports.

Every scenario under `scenarios/` must replay to exactly the JSON committed in
`tests/golden/<name>.json`, and the report of `oracle_check(10000, 41)`, as
`revtok oracle --trials 10000 --seed 41` prints it, must be exactly
`tests/golden/oracle_10000_41.json` (`test_cli_oracle` checks that the CLI
prints `report_json`'s bytes); no other golden file may exist, so a
renamed or deleted scenario leaves none behind.  The oracle report carries
only counts, so the same 10000 trials are also hashed, freeze output and all,
against a committed digest.

A golden file changes only in a change that means to change that report; it is
regenerated with `revtok replay SCENARIO --out FILE` (or `revtok oracle ...
--out FILE`) and the reason goes into CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import conftest
import pytest

from revtok.cli import main as cli_main
from revtok.freeze import build_graph, eliminate_cycles
from revtok.oracle import GOVERNANCE, _replay_on_engine, oracle_trials
from revtok.scenario import report_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.scn"))

ORACLE_GOLDEN = GOLDEN / "oracle_10000_41.json"
# SHA-256 over the freeze output of each of the 10000 trials above.
TRIAL_DIGEST = "6c17b21eb2bf9e46f6f4b2f73eb480d49bdb080e9fb4e116d1da4d6cb467857b"


def test_every_golden_report_has_its_scenario():
    stems = {p.stem for p in GOLDEN.glob("*.json")} - {ORACLE_GOLDEN.stem}
    assert stems == {p.stem for p in SCENARIOS}


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_report_is_byte_identical(path, tmp_path):
    out = tmp_path / "report.json"
    cli_main(["replay", str(path), "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / f"{path.stem}.json").read_bytes()


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_claim_books_close_from_the_report(path):
    # obligation reaching a node = frozen + absorbed by burn + stranded + passed on
    report = json.loads((GOLDEN / f"{path.stem}.json").read_text())
    for claim in report["claims"]:
        passed_on: dict[str, int] = {}
        for src, _dst, _value, _seq, obligation in claim["perEdge"]:
            passed_on[src] = passed_on.get(src, 0) + obligation
        for node, reached in claim["obligations"].items():
            books = (claim["toFreeze"].get(node, 0) + claim["absorbedByBurn"].get(node, 0)
                     + claim["residual"].get(node, 0) + passed_on.get(node, 0))
            assert books == reached, (claim["id"], node)


def test_oracle_report_is_byte_identical():
    report, _seconds = conftest.oracle_10000_41()
    assert report_json(report).encode() == ORACLE_GOLDEN.read_bytes()


def trial_digest(trials: int, seed: int) -> str:
    """Hash every trial's traced graph and freeze plan, in the order
    `oracle_check(trials, seed, "mixed")` generates them."""
    digest = hashlib.sha256()
    for spec in oracle_trials(trials, seed, "mixed"):
        runner, ref = _replay_on_engine(spec)
        ledger, engine = runner.ledger, runner.freeze
        record = ledger.log.resolve(ref)
        graph = eliminate_cycles(build_graph(ledger.log, record, ledger.log.next_seq))
        ref_at = {rec.seq: r for r, rec in ledger.log.all_records()}
        plan = engine.claims[
            engine.execute_freeze(ref, record.sender, ledger.current_block, GOVERNANCE)
        ].plan
        row = [
            [(e.record.sender, e.record.to, e.value, e.record.seq) for e in graph.edges],
            sorted(plan.to_freeze.items()),
            sorted(plan.obligations.items()),
            sorted(plan.absorbed_by_burn.items()),
            sorted(plan.residual.items()),
            [
                (*ref_at[e.record.seq], e.record.sender, e.record.to, e.record.seq, e.value,
                 obligation)
                for e, obligation in plan.per_edge
            ],
            plan.nodes_visited,
            plan.edges_touched,
        ]
        digest.update(json.dumps(row).encode() + b"\n")
    return digest.hexdigest()


def test_oracle_trials_freeze_identically():
    assert trial_digest(10000, 41) == TRIAL_DIGEST
