"""Scenario files: a line-based format driving the whole engine.

Each non-comment line is one operation, `op key=value key=value ...`.  A `#`
(at line start or after whitespace) starts a comment.  `parse_scenario` is the
only reader of scenario text: it checks each line and stores each value as
the type its `OP_KEYS` spec marks.  `config` lines precede every other line
and are checked when parsed; the runner wires one engine from them, then
executes the other operations in order.  `expect` lines assert on the state
reached so far, read from `ScenarioRunner.state()`, the view that fills the
report's state blocks; any other operation may carry `expectError=SomeError`
to assert that it fails with exactly that error.

Replaying a scenario produces a JSON report that is byte-identical across
runs: the report is a pure function of the scenario text.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from typing import Any

from .errors import (
    LedgerError,
    ParseError,
    UnknownCaseError,
    UnknownClaimError,
    UnknownSpenditureError,
    UnknownTokenError,
)
from .freeze import FreezeEngine
from .governance import (
    FeePolicy,
    FungibleTarget,
    Governance,
    JudgePool,
    NftTarget,
    SALT_LENGTH,
    Vote,
    commitment_hash,
)
from .ledger import AccountState, BurnSource, TokenLedger
from .nft import NftRegistry
from .spendlog import EpochConfig, SpendRef

# The keys each operation takes.  In a spec, `#` marks a non-negative integer
# (stored as int), `*` a comma-separated list whose empty items are skipped
# (list[str], or list[int] as `#*`), `%` hex bytes (bytes), `!` true or false
# (bool), and `?` an optional key; `source` and `vote` values are stored as
# the enum `_CHOICES` names.  submitFreeze and expect take different keys per
# kind=; an expect kind's compared keys follow the `|`, and its line must
# carry at least one of them.  `config` keys are those `_parse_config` knows.
_SUBMIT = "claimant stake# tip#? evidence? seed%?"
OP_KEYS: dict[str, str | dict[str, str] | None] = {
    "config": None,
    "judges": "ids*",
    "advanceBlock": "to#",
    "mint": "to amount#",
    "transfer": "from to amount#",
    "rtransfer": "from to amount#",
    "burn": "from amount# source?",
    "clean": "epoch# senders*",
    "nftMint": "token# to",
    "nftTransfer": "token# to from?",
    "nftClean": "tokens#*",
    "submitFreeze": {
        "fungible": f"{_SUBMIT} epoch# from index#",
        "nft": f"{_SUBMIT} token# index#",
    },
    "commit": "case# judge commitment%? vote? salt%?",  # commitment, or vote and salt
    "reveal": "case# judge vote salt%",
    "tally": "case#",
    "expect": {
        "balance": "addr | r# nr# frozen# available#",
        "supply": "| minted# burned# circulating#",
        "spend": "epoch# from index# | amount# original#",
        "phase": "case# | value",
        "nftOwner": "token# | owner",
        "nftFrozen": "token# | value!",
        "nftHistory": "token# | length#",
        # claim= picks the claim: its 1-based number, or `last` (the default)
        "freeze": "claim#? addr | amount#",
        "freezeTotal": "claim#? | amount#",
        "oblig": "claim#? addr | amount#",
        "claimStatus": "claim#? | value",
        "edge": "claim#? src dst | value#",
    },
}

_MARKS = "#*%!?"
# Keys whose value is one of a fixed set, on whichever line they appear.
_CHOICES = {"source": BurnSource, "vote": Vote}
# A `#` at line start or after whitespace starts a comment.
_COMMENT = re.compile(r"(?:^|\s)#")


@dataclass
class ScenarioOp:
    line: int
    name: str
    params: dict[str, Any]  # each value typed as its OP_KEYS spec marks
    expect_error: str | None = None
    label: str = ""  # the key=value pairs as written, expectError aside


def parse_scenario(text: str) -> list[ScenarioOp]:
    ops: list[ScenarioOp] = []
    config: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        name = tokens[0]
        if name not in OP_KEYS:
            raise ParseError(f"unknown operation '{name}'", line_no, raw.find(name) + 1)
        params: dict[str, Any] = {}
        expect_error = None
        for token in tokens[1:]:
            if "=" not in token:
                raise ParseError(
                    f"expected key=value, got '{token}'", line_no, raw.find(token) + 1
                )
            key, value = token.split("=", 1)
            if not key or not value:
                raise ParseError(
                    f"empty key or value in '{token}'", line_no, raw.find(token) + 1
                )
            if key == "expectError" and name not in ("config", "expect"):
                expect_error = value
            elif key in params:
                raise ParseError(f"duplicate key '{key}'", line_no, raw.find(token) + 1)
            else:
                params[key] = value
        label = " ".join(t for t in tokens[1:] if not t.startswith("expectError="))
        op = ScenarioOp(line_no, name, params, expect_error, label)
        if name == "config":
            if any(earlier.name != "config" for earlier in ops):
                raise ParseError("config lines must precede engine operations", line_no)
            config.update(params)
            try:
                _parse_config(config)
            except ValueError as err:
                raise ParseError(f"bad config: {err}", line_no) from None
        else:
            _validate_op(op, raw)
        ops.append(op)
    return ops


def _validate_op(op: ScenarioOp, raw: str) -> None:
    """Check a line against its OP_KEYS spec (every required key present, no
    other key) and replace each value with the value its spec word types."""
    spec = OP_KEYS[op.name]
    params = op.params
    if isinstance(spec, dict):
        if params.get("kind") not in spec:
            raise ParseError(f"'{op.name}' needs kind= one of {', '.join(spec)}", op.line)
        spec = "kind " + spec[params["kind"]]
    fixed, _, compared = spec.partition("|")
    words = {w.rstrip(_MARKS): w for w in fixed.split() + [w + "?" for w in compared.split()]}
    unknown = sorted(params.keys() - words)
    if unknown:
        column = raw.find(f" {unknown[0]}=") + 2
        raise ParseError(f"'{op.name}' takes no key '{unknown[0]}'", op.line, column)
    for key, word in words.items():
        value = params.get(key)
        if value is None:
            if not word.endswith("?"):
                raise ParseError(f"'{op.name}' needs {key}=", op.line)
        elif not (key == "claim" and value == "last"):
            column = raw.find(f"{key}={value}") + len(key) + 2
            params[key] = _typed(key, word, value, op.line, column)
    compared_keys = [word.rstrip(_MARKS) for word in compared.split()]
    if compared_keys and not params.keys() & set(compared_keys):
        raise ParseError(
            f"expect kind={params['kind']} compares none of {', '.join(compared_keys)}", op.line
        )
    if op.name == "commit" and not ("commitment" in params or {"vote", "salt"} <= params.keys()):
        raise ParseError("'commit' needs commitment=, or vote= and salt=", op.line)


def _typed(key: str, word: str, value: str, line: int, column: int) -> Any:
    """`value` as the type spec word `word` marks; ParseError if malformed."""
    if "*" in word:
        item_word = word.replace("*", "")
        return [_typed(key, item_word, item, line, column) for item in value.split(",") if item]
    if "#" in word:
        try:
            n = int(value)
        except ValueError:
            raise ParseError(f"malformed {key} '{value}'", line, column) from None
        if n < 0:
            raise ParseError(f"{key} must be non-negative", line, column)
        return n
    if "%" in word:
        try:
            data = bytes.fromhex(value if len(value) % 2 == 0 else "0" + value)
        except ValueError:
            raise ParseError(f"malformed {key} '{value}'", line, column) from None
        if key == "salt" and len(data) > SALT_LENGTH:
            raise ParseError(f"salt may be at most {SALT_LENGTH} bytes", line, column)
        return data
    if "!" in word:
        if value not in ("true", "false"):
            raise ParseError(f"{key} must be true or false", line, column)
        return value == "true"
    if key in _CHOICES:
        choices = _CHOICES[key]
        if value not in {c.value for c in choices}:
            raise ParseError(
                f"{key} must be one of {', '.join(c.value for c in choices)}", line, column
            )
        return choices(value)
    return value


@dataclass
class RunResult:
    report: dict[str, Any]
    exit_code: int


def report_json(report: dict[str, Any]) -> str:
    """A scenario or oracle report as its byte-stable JSON text."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# Config key -> (settings class, field, parser).  An absent key leaves the
# field at its class default.
_CONFIG_KEYS = {
    "delta": (EpochConfig, "epoch_length", int),
    "window": (EpochConfig, "dispute_window", int),
    "judgeFee": (FeePolicy, "judge_fee", int),
    "n": (FeePolicy, "quorum_size", int),
    "minStake": (FeePolicy, "min_stake", int),
    "freezeThreshold": (FeePolicy, "freeze_threshold", int),
    "trialThreshold": (FeePolicy, "trial_threshold", int),
    "revealDeadline": (FeePolicy, "reveal_deadline", int),
    "strikeLimit": (FeePolicy, "strike_limit", int),
    "minorityRatio": (FeePolicy, "minority_ratio", float),
    "minCases": (FeePolicy, "min_cases", int),
    "extremeMinority": (FeePolicy, "extreme_minority_max", int),
    "tipTo": (FeePolicy, "tip_to", str),
}


def _parse_config(cfg: dict[str, str]) -> tuple[EpochConfig, FeePolicy]:
    """The engine settings a config describes; ValueError if a key is
    unknown or a value is malformed or out of range."""
    unknown = sorted(cfg.keys() - _CONFIG_KEYS.keys())
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    kwargs: dict[type, dict[str, Any]] = {EpochConfig: {}, FeePolicy: {}}
    for key, (cls, name, parse) in _CONFIG_KEYS.items():
        if key in cfg:
            kwargs[cls][name] = parse(cfg[key])
    return EpochConfig(**kwargs[EpochConfig]), FeePolicy(**kwargs[FeePolicy])


class ScenarioRunner:
    """Executes parsed operations against one freshly wired engine."""

    def __init__(self, config: dict[str, str], name: str = "scenario"):
        """Wire one engine from `config`, the merged `config` line keys."""
        epoch_config, policy = _parse_config(config)
        self.name = name
        # The run blocks of the report, kept in report form as they happen.
        self.checks: list[dict[str, Any]] = []
        self.failed_ops: list[dict[str, Any]] = []
        self.clean_reports: list[dict[str, Any]] = []
        self.ledger = TokenLedger(epoch_config)
        self.freeze = FreezeEngine(self.ledger, governance="governance")
        self.nft = NftRegistry("governance", epoch_config.dispute_window)
        self.gov = Governance(
            self.ledger,
            self.freeze,
            self.nft,
            JudgePool(),
            policy,
            identity="governance",
        )

    # -- running ----------------------------------------------------------------

    def run(self, ops: list[ScenarioOp]) -> RunResult:
        for op in ops:
            if op.name != "config":
                self._run_op(op)
        return RunResult(self._report(ops), self._exit_code())

    def _exit_code(self) -> int:
        if self.failed_ops or any(not c["pass"] for c in self.checks):
            return 1
        return 0

    def _run_op(self, op: ScenarioOp) -> None:
        if op.name == "expect":
            self._check(op.line, op.label, self._evaluate_expect(op))
            return
        try:
            self.dispatch(op)
        except LedgerError as err:
            kind = type(err).__name__
            if op.expect_error is not None:
                self._check(
                    op.line, f"{op.name} raises {op.expect_error}",
                    "" if kind == op.expect_error else f"raised {kind}: {err}",
                )
            else:
                self.failed_ops.append(
                    {"line": op.line, "op": op.name, "error": kind, "message": str(err)}
                )
            return
        if op.expect_error is not None:
            self._check(op.line, f"{op.name} raises {op.expect_error}", "operation succeeded")

    def _check(self, line: int, label: str, detail: str) -> None:
        """Record a check; it passes when `detail`, what went wrong, is empty."""
        self.checks.append({"line": line, "label": label, "pass": not detail, "detail": detail})

    def dispatch(self, op: ScenarioOp) -> Any:
        """Run one engine operation; return what its engine call returns."""
        p = op.params
        ledger, block = self.ledger, self.ledger.current_block
        if op.name == "judges":
            for judge in p["ids"]:
                self.gov.pool.add(judge)
            return None
        if op.name == "advanceBlock":
            return ledger.advance_block(p["to"])
        if op.name == "mint":
            return ledger.mint(p["to"], p["amount"], block)
        if op.name == "transfer":
            return ledger.transfer(p["from"], p["to"], p["amount"], block)
        if op.name == "rtransfer":
            return ledger.rtransfer(p["from"], p["to"], p["amount"], block)
        if op.name == "burn":
            return ledger.burn(p["from"], p["amount"], block,
                               p.get("source", BurnSource.NONREVERSIBLE))
        if op.name == "clean":
            report = ledger.clean(p["epoch"], p["senders"], block)
            self.clean_reports.append({"line": op.line, **asdict(report)})
            return report
        if op.name == "nftMint":
            return self.nft.mint(p["token"], p["to"], block)
        if op.name == "nftTransfer":
            return self.nft.transfer(p["token"], p["to"], block, p.get("from"))
        if op.name == "nftClean":
            return self.nft.clean(p["tokens"], block)
        if op.name == "submitFreeze":
            if p["kind"] == "fungible":
                target = FungibleTarget(SpendRef(p["epoch"], p["from"], p["index"]))
            else:
                target = NftTarget(p["token"], p["index"])
            return self.gov.submit_freeze_request(
                claimant=p["claimant"],
                target=target,
                stake=p["stake"],
                tip=p.get("tip", 0),
                evidence=p.get("evidence", ""),
                beacon_seed=p.get("seed", b"\x00"),
            )
        if op.name == "commit":
            if "commitment" in p:
                commitment = p["commitment"]
            else:
                commitment = commitment_hash(p["vote"], p["salt"], p["case"])
            return self.gov.cast_commit(p["case"], p["judge"], commitment)
        if op.name == "reveal":
            return self.gov.cast_reveal(p["case"], p["judge"], p["vote"], p["salt"])
        if op.name == "tally":
            return self.gov.tally(p["case"])
        raise AssertionError(f"unhandled op {op.name}")  # pragma: no cover - parser screens names

    # -- expectations -----------------------------------------------------------

    def _evaluate_expect(self, op: ScenarioOp) -> str:
        """The expect line's failures, joined; empty when it passes."""
        p = op.params
        failures: list[str] = []
        try:
            facts = _view_facts(self.state(), p)
        except LedgerError as err:
            facts, failures = {}, [f"{type(err).__name__}: {err}"]
        for key, actual in facts.items():
            if key not in p:
                continue
            if isinstance(actual, list):  # edge: some perEdge row src->dst has the value
                if p[key] not in actual:
                    failures.append(
                        f"no perEdge row {p['src']}->{p['dst']} with value {p[key]}; saw {actual}"
                    )
                continue
            if actual != p[key]:
                failures.append(f"{key}: expected {p[key]}, got {actual}")
        return "; ".join(failures)

    # -- state view and report ------------------------------------------------

    def state(self) -> dict[str, Any]:
        """The report's state blocks: `currentBlock`, `accounts`, `supply`,
        `spends`, `claims`, `cases` and `nfts`.  The report and every `expect`
        line read engine state only through this view, built when one of them
        needs it; `dispatch` never builds it."""
        accounts = {addr: asdict(acct) for addr, acct in sorted(self.ledger.accounts.items())}
        spends = [
            {
                **ref._asdict(),
                "to": rec.to,
                "amount": rec.amount,
                "original": rec.original_amount,
                "block": rec.block,
                "seq": rec.seq,
            }
            for ref, rec in self.ledger.log.all_records()
        ]
        claims = [
            {
                "id": claim.claim_id,
                "victim": claim.victim,
                "status": claim.status.value,
                "disputed": self.ledger.log.ref(claim.record)._asdict(),
                "toFreeze": dict(sorted(claim.plan.to_freeze.items())),
                "obligations": dict(sorted(claim.plan.obligations.items())),
                "absorbedByBurn": dict(sorted(claim.plan.absorbed_by_burn.items())),
                "residual": dict(sorted(claim.plan.residual.items())),
                "totalFrozen": claim.plan.total_frozen,
                "perEdge": [[e.record.sender, e.record.to, e.value, e.record.seq, ob]
                            for e, ob in claim.plan.per_edge],
            }
            for claim in self.freeze.claims.values()
        ]
        cases = []
        for case_id in sorted(self.gov.cases):
            case = self.gov.cases[case_id]
            cases.append({
                "id": case.case_id,
                "phase": case.phase.value,
                "claimant": case.claimant,
                "defendant": case.defendant,
                "stakeRemaining": case.stake,
                "tipRemaining": case.tip,
                "feesPaid": case.fees_paid,
                "burned": case.burned,
                "returned": case.returned,
                "paidDefendant": case.paid_defendant,
                "tipPaidTo": case.tip_paid_to,
                "quorum": case.quorum,
                "claimId": case.claim_id,
            })
        nfts = {
            str(token_id): {
                "frozen": token.frozen,
                "owners": [[r.owner, r.block] for r in token.owners],
            }
            for token_id, token in sorted(self.nft.tokens.items())
        }
        return {
            "currentBlock": self.ledger.current_block,
            "accounts": accounts,
            "supply": {
                "minted": self.ledger.total_minted,
                "burned": self.ledger.total_burned,
                "circulating": self.ledger.circulating(),
            },
            "spends": spends,
            "claims": claims,
            "cases": cases,
            "nfts": nfts,
        }

    def _report(self, ops: list[ScenarioOp]) -> dict[str, Any]:
        return {
            "scenario": self.name,
            "ops": len(ops),
            **self.state(),
            "cleans": self.clean_reports,
            "checks": self.checks,
            "failedOps": self.failed_ops,
            "stats": {
                "nodesVisited": sum(c.plan.nodes_visited for c in self.freeze.claims.values()),
                "edgesTouched": sum(c.plan.edges_touched for c in self.freeze.claims.values()),
            },
        }


def _view_facts(view: dict[str, Any], p: dict[str, Any]) -> dict[str, Any]:
    """What an expect line of kind p["kind"] can compare, read from one path
    of the state view, under the compared key names its OP_KEYS spec gives.  A
    case, token, spend or claim the view lacks raises the engine's error."""
    kind = p["kind"]
    if kind == "balance":
        acct = view["accounts"].get(p["addr"], asdict(AccountState()))
        return {
            "r": acct["reversible"],
            "nr": acct["nonreversible"],
            "frozen": acct["frozen"],
            "available": acct["reversible"] - acct["frozen"],
        }
    if kind == "supply":
        return view["supply"]
    if kind == "spend":
        ref = SpendRef(p["epoch"], p["from"], p["index"])
        for row in view["spends"]:
            if (row["epoch"], row["sender"], row["index"]) == ref:
                return {"amount": row["amount"], "original": row["original"]}
        raise UnknownSpenditureError(f"no record at {ref}")
    if kind == "phase":
        for case in view["cases"]:
            if case["id"] == p["case"]:
                return {"value": case["phase"]}
        raise UnknownCaseError(f"case {p['case']}")
    if kind.startswith("nft"):
        token = view["nfts"].get(str(p["token"]))
        if token is None:
            raise UnknownTokenError(f"token {p['token']}")
        if kind == "nftOwner":
            return {"owner": token["owners"][-1][0]}
        if kind == "nftFrozen":
            return {"value": token["frozen"]}
        return {"length": len(token["owners"])}  # nftHistory
    claims = view["claims"]
    selector = p.get("claim", "last")
    index = len(claims) - 1 if selector == "last" else selector - 1
    if not 0 <= index < len(claims):
        raise UnknownClaimError(f"no claim matches selector '{selector}'")
    claim = claims[index]
    if kind == "edge":
        return {"value": [
            value for src, dst, value, _seq, _ob in claim["perEdge"]
            if (src, dst) == (p["src"], p["dst"])
        ]}
    if kind == "claimStatus":
        return {"value": claim["status"]}
    if kind == "freeze":
        return {"amount": claim["toFreeze"].get(p["addr"], 0)}
    if kind == "oblig":
        return {"amount": claim["obligations"].get(p["addr"], 0)}
    return {"amount": claim["totalFrozen"]}  # freezeTotal


def run_scenario_text(text: str, name: str = "scenario") -> RunResult:
    ops = parse_scenario(text)
    config = {k: v for op in ops if op.name == "config" for k, v in op.params.items()}
    return ScenarioRunner(config, name).run(ops)
