"""Scenario files: a line-based format driving the whole engine.

Each non-comment line is one operation, `op key=value key=value ...`.  A `#`
(at line start or after whitespace) starts a comment.  Operations execute in
order against a single engine; `expect` lines assert on the state reached so
far, and any operation may carry `expectError=SomeError` to assert that it
fails with exactly that error.

Replaying a scenario produces a JSON report that is byte-identical across
runs: the report is a pure function of the scenario text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .errors import LedgerError, ParseError, UnknownClaimError
from .freeze import Claim, FreezeEngine
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
from .ledger import BurnSource, TokenLedger
from .nft import NftRegistry
from .spendlog import EpochConfig, SpendRef

# The keys each operation takes.  In a spec, `#` marks a non-negative integer,
# `#*` a comma-separated list of them, `%` hex bytes, `!` true or false, and
# `?` an optional key.  submitFreeze and expect take different keys per kind=;
# an expect kind's compared keys follow the `|`, and its line must carry at
# least one of them.  `config` keys are checked when the line runs.
_SUBMIT = "claimant stake# tip#? evidence? seed%?"
OP_KEYS: dict[str, str | dict[str, str] | None] = {
    "config": None,
    "judges": "ids",
    "advanceBlock": "to#",
    "mint": "to amount#",
    "transfer": "from to amount#",
    "rtransfer": "from to amount#",
    "burn": "from amount# source?",
    "clean": "epoch# senders",
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
_CHOICES = {"source": ("reversible", "nonreversible"), "vote": ("approve", "reject")}


@dataclass
class ScenarioOp:
    line: int
    name: str
    params: dict[str, str]
    expect_error: str | None = None


def _split_comment(line: str) -> str:
    if line.lstrip().startswith("#"):
        return ""
    cut = line.find(" #")
    return line[:cut] if cut >= 0 else line


def parse_scenario(text: str) -> list[ScenarioOp]:
    ops: list[ScenarioOp] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _split_comment(raw).strip()
        if not line:
            continue
        tokens = line.split()
        name = tokens[0]
        if name not in OP_KEYS:
            raise ParseError(f"unknown operation '{name}'", line_no, raw.find(name) + 1)
        params: dict[str, str] = {}
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
            if key == "expectError":
                expect_error = value
            elif key in params:
                raise ParseError(f"duplicate key '{key}'", line_no, raw.find(token) + 1)
            else:
                params[key] = value
        op = ScenarioOp(line_no, name, params, expect_error)
        _validate_op(op, raw)
        ops.append(op)
    return ops


def _validate_op(op: ScenarioOp, raw: str) -> None:
    """Check a line against its OP_KEYS spec: every required key present, no
    other key, integers and hex well formed, choices among their values."""
    spec = OP_KEYS[op.name]
    if spec is None:
        return
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
            continue
        column = raw.find(f"{key}={value}") + len(key) + 2
        if "#" in word and not (key == "claim" and value == "last"):
            items = value.split(",") if "*" in word else [value]
            for item in filter(None, items):  # an empty list item is skipped
                try:
                    n = int(item)
                except ValueError:
                    raise ParseError(f"malformed {key} '{value}'", op.line, column) from None
                if n < 0:
                    raise ParseError(f"{key} must be non-negative", op.line, column)
        elif "%" in word:
            data = _parse_hex(value, key, op.line, column)
            if key == "salt" and len(data) > SALT_LENGTH:
                raise ParseError(f"salt may be at most {SALT_LENGTH} bytes", op.line, column)
        elif "!" in word and value not in ("true", "false"):
            raise ParseError(f"{key} must be true or false", op.line, column)
        elif key in _CHOICES and value not in _CHOICES[key]:
            raise ParseError(f"{key} must be one of {', '.join(_CHOICES[key])}", op.line)
    compared_keys = [word.rstrip(_MARKS) for word in compared.split()]
    if compared_keys and not params.keys() & set(compared_keys):
        raise ParseError(
            f"expect kind={params['kind']} compares none of {', '.join(compared_keys)}", op.line
        )
    if op.name == "commit" and not ("commitment" in params or {"vote", "salt"} <= params.keys()):
        raise ParseError("'commit' needs commitment=, or vote= and salt=", op.line)


def _parse_hex(value: str, what: str, line: int, column: int = 1) -> bytes:
    padded = value if len(value) % 2 == 0 else "0" + value
    try:
        return bytes.fromhex(padded)
    except ValueError:
        raise ParseError(f"malformed {what} '{value}'", line, column) from None


@dataclass
class Check:
    line: int
    label: str
    passed: bool
    detail: str = ""


@dataclass
class RunResult:
    report: dict[str, Any]
    exit_code: int

    def to_json(self) -> str:
        return json.dumps(self.report, sort_keys=True, indent=2) + "\n"


# Config key -> (FeePolicy field, parser).  delta and window configure the
# EpochConfig instead.
_POLICY_KEYS = {
    "judgeFee": ("judge_fee", int),
    "n": ("quorum_size", int),
    "minStake": ("min_stake", int),
    "freezeThreshold": ("freeze_threshold", int),
    "trialThreshold": ("trial_threshold", int),
    "revealDeadline": ("reveal_deadline", int),
    "strikeLimit": ("strike_limit", int),
    "minorityRatio": ("minority_ratio", float),
    "minCases": ("min_cases", int),
    "extremeMinority": ("extreme_minority_max", int),
    "tipTo": ("tip_to", str),
}
_CONFIG_KEYS = {"delta", "window", *_POLICY_KEYS}


def _parse_config(cfg: dict[str, str]) -> tuple[EpochConfig, FeePolicy]:
    """The engine settings a config describes; ValueError if a value is
    malformed or out of range."""
    epoch_config = EpochConfig(
        epoch_length=int(cfg.get("delta", 1000)),
        dispute_window=int(cfg.get("window", 24000)),
    )
    policy_kwargs: dict[str, Any] = {
        name: parse(cfg[key]) for key, (name, parse) in _POLICY_KEYS.items() if key in cfg
    }
    n = policy_kwargs.get("quorum_size", FeePolicy.quorum_size)
    fee = policy_kwargs.get("judge_fee", FeePolicy.judge_fee)
    # Unless configured, the stake covers two rounds of judge fees.
    policy_kwargs.setdefault("min_stake", 2 * n * fee)
    return epoch_config, FeePolicy(**policy_kwargs)


class ScenarioRunner:
    """Executes parsed operations against one freshly wired engine."""

    def __init__(self, name: str = "scenario"):
        self.name = name
        self._config: dict[str, str] = {}
        self._built = False
        self.ledger: TokenLedger | None = None
        self.freeze: FreezeEngine | None = None
        self.nft: NftRegistry | None = None
        self.gov: Governance | None = None
        self.checks: list[Check] = []
        self.failed_ops: list[dict[str, Any]] = []
        self.clean_reports: list[dict[str, Any]] = []

    # -- engine wiring -------------------------------------------------------

    def _build(self) -> None:
        if self._built:
            return
        epoch_config, policy = _parse_config(self._config)
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
        self._built = True

    # -- running ----------------------------------------------------------------

    def run(self, ops: list[ScenarioOp]) -> RunResult:
        for op in ops:
            self._run_op(op)
        return RunResult(self._report(ops), self._exit_code())

    def _exit_code(self) -> int:
        if self.failed_ops or any(not c.passed for c in self.checks):
            return 1
        return 0

    def _configure(self, params: dict[str, str]) -> tuple[str, str] | None:
        """Apply one config line, or return the (error, message) rejecting it."""
        if self._built:
            return "ConfigAfterStart", "config lines must precede engine operations"
        unknown = set(params) - _CONFIG_KEYS
        if unknown:
            return "ConfigKeyError", f"unknown config keys: {sorted(unknown)}"
        config = {**self._config, **params}
        try:
            _parse_config(config)
        except ValueError as err:
            return "ConfigValueError", str(err)
        self._config = config
        return None

    def _run_op(self, op: ScenarioOp) -> None:
        if op.name == "config":
            rejected = self._configure(op.params)
            if rejected:
                error, message = rejected
                self.failed_ops.append(
                    {"line": op.line, "op": op.name, "error": error, "message": message}
                )
            return
        self._build()
        if op.name == "expect":
            self.checks.append(self._evaluate_expect(op))
            return
        try:
            self._dispatch(op)
        except LedgerError as err:
            kind = type(err).__name__
            if op.expect_error is not None:
                self.checks.append(Check(
                    op.line, f"{op.name} raises {op.expect_error}",
                    kind == op.expect_error,
                    "" if kind == op.expect_error else f"raised {kind}: {err}",
                ))
            else:
                self.failed_ops.append(
                    {"line": op.line, "op": op.name, "error": kind, "message": str(err)}
                )
            return
        if op.expect_error is not None:
            self.checks.append(Check(
                op.line, f"{op.name} raises {op.expect_error}", False,
                "operation succeeded",
            ))

    def _dispatch(self, op: ScenarioOp) -> None:
        p = op.params
        ledger, block = self.ledger, self.ledger.current_block
        if op.name == "judges":
            for judge in p["ids"].split(","):
                if judge:
                    self.gov.pool.add(judge)
        elif op.name == "advanceBlock":
            ledger.advance_block(int(p["to"]))
        elif op.name == "mint":
            ledger.mint(p["to"], int(p["amount"]), block)
        elif op.name == "transfer":
            ledger.transfer(p["from"], p["to"], int(p["amount"]), block)
        elif op.name == "rtransfer":
            ledger.rtransfer(p["from"], p["to"], int(p["amount"]), block)
        elif op.name == "burn":
            source = BurnSource(p.get("source", "nonreversible"))
            ledger.burn(p["from"], int(p["amount"]), block, source)
        elif op.name == "clean":
            senders = [s for s in p["senders"].split(",") if s]
            report = ledger.clean(int(p["epoch"]), senders, block)
            self.clean_reports.append({"line": op.line, **report.as_dict()})
        elif op.name == "nftMint":
            self.nft.mint(int(p["token"]), p["to"], block)
        elif op.name == "nftTransfer":
            self.nft.transfer(int(p["token"]), p["to"], block, p.get("from"))
        elif op.name == "nftClean":
            tokens = [int(t) for t in p["tokens"].split(",") if t]
            self.nft.clean(tokens, block)
        elif op.name == "submitFreeze":
            if p["kind"] == "fungible":
                target = FungibleTarget(SpendRef(int(p["epoch"]), p["from"], int(p["index"])))
            else:
                target = NftTarget(int(p["token"]), int(p["index"]))
            self.gov.submit_freeze_request(
                claimant=p["claimant"],
                target=target,
                stake=int(p["stake"]),
                tip=int(p.get("tip", 0)),
                evidence=p.get("evidence", ""),
                beacon_seed=_parse_hex(p.get("seed", "00"), "seed", op.line),
            )
        elif op.name == "commit":
            case_id = int(p["case"])
            if "commitment" in p:
                commitment = _parse_hex(p["commitment"], "commitment", op.line)
            else:
                commitment = commitment_hash(
                    Vote(p["vote"]), _parse_hex(p["salt"], "salt", op.line), case_id
                )
            self.gov.cast_commit(case_id, p["judge"], commitment)
        elif op.name == "reveal":
            self.gov.cast_reveal(
                int(p["case"]), p["judge"], Vote(p["vote"]),
                _parse_hex(p["salt"], "salt", op.line),
            )
        elif op.name == "tally":
            self.gov.tally(int(p["case"]))
        else:  # pragma: no cover - parser screens op names
            raise AssertionError(f"unhandled op {op.name}")

    # -- expectations -----------------------------------------------------------

    def _evaluate_expect(self, op: ScenarioOp) -> Check:
        p = op.params
        label = " ".join(f"{k}={v}" for k, v in p.items())
        failures: list[str] = []
        try:
            facts = self._expect_facts(p)
        except LedgerError as err:
            facts, failures = {}, [f"{type(err).__name__}: {err}"]
        for key, actual in facts.items():
            if key not in p:
                continue
            if isinstance(actual, list):  # edge: some touched src->dst edge has the value
                if int(p[key]) not in actual:
                    failures.append(
                        f"no touched edge {p['src']}->{p['dst']} with value {p[key]}; saw {actual}"
                    )
                continue
            expected: Any = p[key]
            if isinstance(actual, bool):
                expected = expected == "true"
            elif isinstance(actual, int):
                expected = int(expected)
            if actual != expected:
                failures.append(f"{key}: expected {expected}, got {actual}")
        return Check(op.line, label, not failures, "; ".join(failures))

    def _expect_facts(self, p: dict[str, str]) -> dict[str, Any]:
        """What an expect line of kind p["kind"] can compare, under the
        compared key names its OP_KEYS spec gives."""
        kind = p["kind"]
        if kind == "balance":
            acct = self.ledger.account(p["addr"])
            return {
                "r": acct.reversible,
                "nr": acct.nonreversible,
                "frozen": acct.frozen,
                "available": acct.available,
            }
        if kind == "supply":
            return {
                "minted": self.ledger.total_minted,
                "burned": self.ledger.total_burned,
                "circulating": self.ledger.circulating(),
            }
        if kind == "spend":
            record = self.ledger.log.resolve(SpendRef(int(p["epoch"]), p["from"], int(p["index"])))
            return {"amount": record.amount, "original": record.original_amount}
        if kind == "phase":
            return {"value": self.gov._case(int(p["case"])).phase.value}
        if kind.startswith("nft"):
            token = self.nft._token(int(p["token"]))
            if kind == "nftOwner":
                return {"owner": token.current_owner}
            if kind == "nftFrozen":
                return {"value": token.frozen}
            return {"length": len(token.owners)}  # nftHistory
        claim = self._pick_claim(p.get("claim", "last"))
        if kind == "edge":
            return {"value": [
                edge.value for edge, _ in claim.plan.per_edge
                if (edge.src, edge.dst) == (p["src"], p["dst"])
            ]}
        if kind == "claimStatus":
            return {"value": claim.status.value}
        if kind == "freeze":
            return {"amount": claim.plan.to_freeze.get(p["addr"], 0)}
        if kind == "oblig":
            return {"amount": claim.plan.obligations.get(p["addr"], 0)}
        return {"amount": claim.plan.total_frozen}  # freezeTotal

    def _pick_claim(self, selector: str) -> Claim:
        order = self.freeze.claim_order
        index = len(order) - 1 if selector == "last" else int(selector) - 1
        if not 0 <= index < len(order):
            raise UnknownClaimError(f"no claim matches selector '{selector}'")
        return self.freeze.claims[order[index]]

    # -- report ---------------------------------------------------------------

    def _report(self, ops: list[ScenarioOp]) -> dict[str, Any]:
        self._build()  # a config-only scenario still reports empty state
        accounts = {
            addr: {
                "reversible": acct.reversible,
                "nonreversible": acct.nonreversible,
                "frozen": acct.frozen,
            }
            for addr, acct in sorted(self.ledger.accounts.items())
        }
        spends = [
            {
                "epoch": ref.epoch,
                "sender": ref.sender,
                "index": ref.index,
                "to": rec.to,
                "amount": rec.amount,
                "original": rec.original_amount,
                "block": rec.block,
                "seq": rec.seq,
            }
            for ref, rec in self.ledger.log.all_records()
        ]
        filed = [self.freeze.claims[c] for c in self.freeze.claim_order]
        claims = [
            {
                "id": claim.claim_id,
                "victim": claim.victim,
                "status": claim.status.value,
                "disputed": {
                    "epoch": claim.disputed.epoch,
                    "sender": claim.disputed.sender,
                    "index": claim.disputed.index,
                },
                "toFreeze": dict(sorted(claim.plan.to_freeze.items())),
                "obligations": dict(sorted(claim.plan.obligations.items())),
                "absorbedByBurn": dict(sorted(claim.plan.absorbed_by_burn.items())),
                "residual": dict(sorted(claim.plan.residual.items())),
                "totalFrozen": claim.plan.total_frozen,
                "perEdge": [[e.src, e.dst, e.value, e.seq, ob] for e, ob in claim.plan.per_edge],
            }
            for claim in filed
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
        stats = {
            "nodesVisited": sum(claim.plan.nodes_visited for claim in filed),
            "edgesTouched": sum(claim.plan.edges_touched for claim in filed),
        }
        return {
            "scenario": self.name,
            "ops": len(ops),
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
            "cleans": self.clean_reports,
            "checks": [
                {"line": c.line, "label": c.label, "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "failedOps": self.failed_ops,
            "stats": stats,
        }


def run_scenario_text(text: str, name: str = "scenario") -> RunResult:
    return ScenarioRunner(name).run(parse_scenario(text))
