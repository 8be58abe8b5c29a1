from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from revtok import EpochConfig, FeePolicy, ParseError
from revtok.cli import main as cli_main
from revtok.ledger import BurnSource
from revtok.oracle import oracle_check
from revtok.scenario import _parse_config, parse_scenario, report_json, run_scenario_text

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

BASIC = """
config delta=10 window=50
advanceBlock to=1
mint to=a amount=30
transfer from=a to=b amount=20
expect kind=balance addr=a nr=10
expect kind=balance addr=b r=20 nr=0 frozen=0 available=20
expect kind=supply minted=30 circulating=30 burned=0
"""


# -- parsing ---------------------------------------------------------------------


def test_comments_and_blanks_are_skipped():
    ops = parse_scenario(
        "# full line\n\n  \nmint to=a amount=1  # tail\nmint to=a amount=1\t# tab\n"
    )
    assert len(ops) == 2
    assert ops[0].params == ops[1].params == {"to": "a", "amount": 1}
    assert ops[0].line == 4


def test_values_are_typed_by_their_spec():
    nft_clean, judges, reveal, frozen, burn = parse_scenario(
        "nftClean tokens=1,,2\n"
        "judges ids=a,,b\n"
        "reveal case=1 judge=j vote=approve salt=1\n"
        "expect kind=nftFrozen token=1 value=true\n"
        "burn from=a amount=1 source=reversible\n"
    )
    assert nft_clean.params["tokens"] == [1, 2]
    assert judges.params["ids"] == ["a", "b"]
    assert reveal.params["salt"] == b"\x01"
    assert frozen.params["value"] is True
    assert burn.params["source"] is BurnSource.REVERSIBLE


def test_unknown_op_reports_position():
    with pytest.raises(ParseError) as err:
        parse_scenario("mint to=a amount=1\nfoo to=a\n")
    assert err.value.line == 2
    assert err.value.column == 1
    assert "foo" in str(err.value)


def test_malformed_pairs():
    with pytest.raises(ParseError) as err:
        parse_scenario("mint to=a amount")
    assert err.value.line == 1


@pytest.mark.parametrize("line", [
    "expect kind=nftOwner token=1 value=c",  # nftOwner compares owner=
    "expect kind=balance addr=a",  # compares nothing
    "expect kind=balance addr=a nonreversible=5",  # the key is nr=
    "expect kind=edge src=a dst=b",  # an edge check needs value=
    "mint to=a amount=1 amout=3",
    "submitFreeze kind=fungible claimant=v from=v epoch=0 index=0 stake=2 tpi=5",
    "expect kind=phase case=x value=Trial",
    "expect kind=freeze claim=x addr=a amount=1",
    "nftClean tokens=1,x",
    f"commit case=1 judge=j vote=approve salt={'01' * 33}",  # salt over 32 bytes
    f"reveal case=1 judge=j vote=approve salt={'01' * 33}",
    "commit case=1 judge=j commitment=zz",
    "reveal case=1 judge=j vote=approve salt=0x",
    "submitFreeze kind=nft claimant=v token=1 index=0 stake=2 seed=g0",
    "expect kind=nftFrozen token=1 value=yes",  # a boolean is true or false
    "mint to=a amount=1,2",  # a key without `*` holds exactly one integer
    "mint to=a amount=,",
    "config delta=5 expectError=Nope",  # config and expect lines cannot fail
    "expect kind=balance addr=a nr=1 expectError=Nope",
    "mint to=a amount=",  # a pair needs a value
    "mint to=a to=b amount=1",  # and a key appears once
    "mint to=a amount=ten",
    "mint to=a amount=-4",
    "advanceBlock to=later",
    "mint amount=5",  # a required key is missing
    "submitFreeze kind=fungible claimant=v stake=2",
    "commit case=1 judge=j",  # neither commitment nor vote
    "submitFreeze kind=magic claimant=v stake=2",
    "commit case=1 judge=j vote=maybe salt=01",
    "expect kind=vibes",
    "burn from=a amount=1 source=gold",
])
def test_unknown_vacuous_and_malformed_keys_fail(line):
    with pytest.raises(ParseError):
        parse_scenario(line)


def test_claim_selector_accepts_last_and_numbers():
    for claim, selector in (("last", "last"), ("2", 2)):
        op, = parse_scenario(f"expect kind=freeze claim={claim} addr=a amount=1")
        assert op.params["claim"] == selector


# -- running ---------------------------------------------------------------------


def test_basic_scenario_passes():
    res = run_scenario_text(BASIC, "basic")
    assert res.exit_code == 0
    report = json.loads(report_json(res.report))
    assert all(c["pass"] for c in report["checks"])
    assert report["accounts"]["a"]["nonreversible"] == 10
    assert report["failedOps"] == []


def test_check_label_is_the_text_as_written():
    res = run_scenario_text("mint to=a amount=10\nexpect kind=balance addr=a nr=010\n", "label")
    assert res.exit_code == 0
    check, = json.loads(report_json(res.report))["checks"]
    assert check["label"] == "kind=balance addr=a nr=010"


def test_failing_check_sets_exit_code():
    res = run_scenario_text("mint to=a amount=5\nexpect kind=balance addr=a nr=6\n", "bad")
    assert res.exit_code == 1
    check = json.loads(report_json(res.report))["checks"][0]
    assert check["pass"] is False
    assert "expected 6" in check["detail"]


def test_expect_error_matches_and_mismatches():
    ok = run_scenario_text(
        "mint to=a amount=5\ntransfer from=a to=b amount=9 expectError=InsufficientNonReversibleError\n",
        "ok",
    )
    assert ok.exit_code == 0
    wrong = run_scenario_text(
        "mint to=a amount=5\ntransfer from=a to=b amount=9 expectError=FrozenFloorError\n",
        "wrong",
    )
    assert wrong.exit_code == 1
    silent = run_scenario_text(
        "mint to=a amount=5\ntransfer from=a to=b amount=1 expectError=FrozenFloorError\n",
        "silent",
    )
    assert silent.exit_code == 1  # the op succeeded but an error was promised


def test_unexpected_error_is_a_failed_op():
    res = run_scenario_text("transfer from=a to=b amount=1\n", "boom")
    assert res.exit_code == 1
    report = json.loads(report_json(res.report))
    assert report["failedOps"][0]["error"] == "InsufficientNonReversibleError"
    assert report["failedOps"][0]["line"] == 1


def test_config_defaults_come_from_the_settings_classes():
    assert _parse_config({}) == (EpochConfig(), FeePolicy())
    for n, fee in itertools.product((1, 3, 12), (0, 1, 2, 5)):
        policy = _parse_config({"n": str(n), "judgeFee": str(fee)})[1]
        assert policy == FeePolicy(quorum_size=n, judge_fee=fee)
    assert _parse_config({"delta": "10", "window": "50"})[0] == EpochConfig(10, 50)


def test_config_must_precede_operations():
    with pytest.raises(ParseError) as err:
        parse_scenario("config delta=5\nmint to=a amount=1\nconfig window=9\n")
    assert err.value.line == 3


def test_unknown_config_key_fails():
    with pytest.raises(ParseError) as err:
        parse_scenario("config delta=5\nconfig speed=11\n")
    assert err.value.line == 2
    assert "speed" in str(err.value)


@pytest.mark.parametrize("setting", [
    "n=x", "minorityRatio=abc", "minStake=5", "delta=0", "revealDeadline=-5", "strikeLimit=-1",
    "minCases=-3", "extremeMinority=-2", "minorityRatio=7", "minorityRatio=nan",
])
def test_malformed_config_value_fails(setting):
    with pytest.raises(ParseError) as err:
        parse_scenario(f"config window=9\nconfig {setting}\n")
    assert err.value.line == 2


def test_reports_are_byte_deterministic():
    a = report_json(run_scenario_text(BASIC, "basic").report)
    b = report_json(run_scenario_text(BASIC, "basic").report)
    assert a == b
    assert a.endswith("\n")
    # canonical JSON: sorted keys, no timestamps
    parsed = json.loads(a)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == a
    assert "wallTime" not in a and "time" not in parsed


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")),
                         ids=lambda p: p.stem)
def test_golden_scenarios_pass(path):
    res = run_scenario_text(path.read_text(), path.stem)
    report = json.loads(report_json(res.report))
    failing = [c for c in report["checks"] if not c["pass"]]
    assert failing == [] and report["failedOps"] == []
    assert res.exit_code == 0


def report_facts(report: dict) -> list[str]:
    """One expect line per fact in the report's state blocks."""
    lines = [
        f"expect kind=balance addr={addr} r={a['reversible']} nr={a['nonreversible']} "
        f"frozen={a['frozen']} available={a['reversible'] - a['frozen']}"
        for addr, a in report["accounts"].items()
    ]
    supply = report["supply"]
    lines.append(f"expect kind=supply minted={supply['minted']} burned={supply['burned']} "
                 f"circulating={supply['circulating']}")
    lines += [
        f"expect kind=spend epoch={s['epoch']} from={s['sender']} index={s['index']} "
        f"amount={s['amount']} original={s['original']}"
        for s in report["spends"]
    ]
    lines += [f"expect kind=phase case={c['id']} value={c['phase']}" for c in report["cases"]]
    for token, nft in report["nfts"].items():
        lines += [
            f"expect kind=nftOwner token={token} owner={nft['owners'][-1][0]}",
            f"expect kind=nftFrozen token={token} value={str(nft['frozen']).lower()}",
            f"expect kind=nftHistory token={token} length={len(nft['owners'])}",
        ]
    for n, claim in enumerate(report["claims"], start=1):
        lines += [
            f"expect kind=claimStatus claim={n} value={claim['status']}",
            f"expect kind=freezeTotal claim={n} amount={claim['totalFrozen']}",
        ]
        to_freeze, obligations = claim["toFreeze"], claim["obligations"]
        for node in sorted(to_freeze.keys() | obligations.keys()):
            lines += [
                f"expect kind=freeze claim={n} addr={node} amount={to_freeze.get(node, 0)}",
                f"expect kind=oblig claim={n} addr={node} amount={obligations.get(node, 0)}",
            ]
        lines += [
            f"expect kind=edge claim={n} src={src} dst={dst} value={value}"
            for src, dst, value, _seq, _obligation in claim["perEdge"]
        ]
    return lines


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")),
                         ids=lambda p: p.stem)
def test_expect_lines_agree_with_the_report(path):
    # every fact the final report shows, asserted by an expect line appended
    # after the last op, must pass: the checks and the report read one state
    text = path.read_text()
    report = run_scenario_text(text, path.stem).report
    facts = report_facts(report)
    appended = run_scenario_text(text + "\n" + "\n".join(facts) + "\n", path.stem).report
    checks = appended["checks"][len(report["checks"]):]
    assert len(checks) == len(facts)
    assert [c for c in checks if not c["pass"]] == []


# -- command line ------------------------------------------------------------------


def test_cli_replay_roundtrip(tmp_path, capsys):
    scn = tmp_path / "demo.scn"
    scn.write_text(BASIC)
    out = tmp_path / "report.json"
    assert cli_main(["replay", str(scn), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["scenario"] == "demo"
    capsys.readouterr()


def test_cli_replay_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("mint to=a amount=5\nexpect kind=balance addr=a nr=6\n")
    assert cli_main(["replay", str(bad)]) == 1
    syn = tmp_path / "syn.scn"
    syn.write_text("warp to=a\n")
    assert cli_main(["replay", str(syn)]) == 2
    selector = tmp_path / "selector.scn"
    selector.write_text("expect kind=phase case=x value=Trial\n")
    assert cli_main(["replay", str(selector)]) == 2
    commitment = tmp_path / "commitment.scn"
    commitment.write_text("commit case=1 judge=j commitment=zz\n")
    assert cli_main(["replay", str(commitment)]) == 2
    late = tmp_path / "late.scn"
    late.write_text("mint to=a amount=1\nconfig delta=5\n")
    assert cli_main(["replay", str(late)]) == 2
    assert cli_main(["replay", str(tmp_path / "missing.scn")]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    latin = tmp_path / "latin.scn"
    latin.write_bytes("mint to=caf\xe9 amount=1\n".encode("latin-1"))
    assert cli_main(["replay", str(latin)]) == 2
    assert capsys.readouterr().err.startswith(f"revtok: {latin}: ")
    unwritable = tmp_path / "missing" / "report.json"
    assert cli_main(["replay", str(bad), "--out", str(unwritable)]) == 2
    assert capsys.readouterr().err == f"revtok: {unwritable}: No such file or directory\n"


def test_cli_oracle(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    assert cli_main(["oracle", "--trials", "40", "--seed", "5",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == report_json(oracle_check(40, 5)).encode()
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["trials"] == 40
    unwritable = tmp_path / "missing" / "oracle.json"
    assert cli_main(["oracle", "--trials", "1", "--out", str(unwritable)]) == 2
    assert capsys.readouterr().err == f"revtok: {unwritable}: No such file or directory\n"
