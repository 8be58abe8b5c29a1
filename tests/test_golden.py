"""Byte-exact golden reports.

Every scenario under `scenarios/` must replay to exactly the JSON committed in
`tests/golden/<name>.json`, and the report of `oracle_check(10000, 41)`, as
`revtok oracle --trials 10000 --seed 41` prints it, must be exactly
`tests/golden/oracle_10000_41.json` (`test_cli_oracle` checks that the CLI
prints `report_json`'s bytes); no other golden file may exist, so a
renamed or deleted scenario leaves none behind.  The oracle report carries
only counts, so the same 10000 trials are also hashed, freeze output and all,
against `TRIAL_DIGEST`, in the same pass that checks each trial's claim
against a full trace (`seed41_trial_pass` in `tests/test_execute_freeze.py`).

A golden file changes only in a change that means to change that report; it is
regenerated with `revtok replay SCENARIO --out FILE` (or `revtok oracle ...
--out FILE`) and the reason goes into CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import conftest
import pytest

from revtok.cli import main as cli_main
from revtok.scenario import report_json, run_scenario_text
from test_execute_freeze import seed41_trial_pass

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.scn"))
# Scenarios whose expect lines hold only once a known bug is fixed.
PENDING = sorted((ROOT / "tests" / "pending").glob("*.scn"))

ORACLE_GOLDEN = GOLDEN / "oracle_10000_41.json"
# SHA-256 over the traced graph and freeze plan of each of the 10000 trials above.
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


def test_oracle_trials_freeze_identically():
    digest, _covered = seed41_trial_pass()
    assert digest == TRIAL_DIGEST


@pytest.mark.xfail(strict=True, reason="pins a known bug, named in the scenario's header")
@pytest.mark.parametrize("path", PENDING, ids=lambda p: p.stem)
def test_pending_scenario_passes(path):
    # each becomes a golden scenario in the change that fixes its bug
    assert run_scenario_text(path.read_text(), path.stem).exit_code == 0
