"""The revtok benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports the engine from ./src.  Workloads
are listed in workloads.SPECS and explained in perfbench/README.md.

A run repeats *passes* until `--seconds` of measured time have accumulated
(at least two passes).  A pass wires a fresh engine, feeds the workload's
set-up ops (timed as set-up), then feeds its measured ops as a closed loop
with one caller: each engine call returns before the next is made.  Every
pass of a run replays the same generated ops, so every pass must end in the
same state; the run checks that, and the output invariants, after each pass.

With --trace 1, passes alternate untraced and traced; the traced ones report
per-layer self times and work counters, and must end in the same state as
the untraced ones.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every check passed, 1 when a check failed, 2 on a usage error or when
the engine source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "revtok" / "__init__.py").is_file():
    print(f"perfbench: the engine source {SRC / 'revtok'} is missing", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

from revtok import (  # noqa: E402
    TERMINAL_PHASES,
    BurnSource,
    EpochConfig,
    FeePolicy,
    FreezeEngine,
    FungibleTarget,
    Governance,
    JudgePool,
    LedgerError,
    NftRegistry,
    Phase,
    TokenLedger,
    Vote,
    commitment_hash,
)

import workloads as W  # noqa: E402
from layers import PER_LAYER, Tracer  # noqa: E402

GOV = "governance"
# Percentiles tried for the tail, highest first; the tail is the highest one
# that leaves at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10
SALTS = [b"salt%02d" % i for i in range(W.QUORUM)]

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    traced: bool
    setup_s: float = 0.0
    measured_s: float = 0.0
    wall_s: float = 0.0
    measured_ops: int = 0
    attempted: int = 0
    failed: int = 0
    steps_ms: list[float] = field(default_factory=list)
    digest: str = ""
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None
    layer_cover: float = 0.0  # layer self time / measured wall time
    contested: int = 0  # burn-free claims short of demand where earlier claims reached


def wire(config: EpochConfig, judges: list[str]):
    ledger = TokenLedger(config)
    engine = FreezeEngine(ledger, GOV)
    nft = NftRegistry(GOV, config.dispute_window)
    gov = Governance(ledger, engine, nft, JudgePool(judges), FeePolicy(), identity=GOV)
    return ledger, engine, nft, gov


def feed(ledger: TokenLedger, nft: NftRegistry, ops: list[tuple], refs: list, p: Pass) -> None:
    """Issue `ops` in order.  Records' refs are appended to `refs` (None for
    a failed op, so indexes stay aligned).  A clean op is one clean step,
    `clean` then `nftClean`, timed into p.steps_ms."""
    transfer, rtransfer, burn, clean = ledger.transfer, ledger.rtransfer, ledger.burn, ledger.clean
    nft_transfer, nft_clean = nft.transfer, nft.clean
    failed = 0
    for op in ops:
        kind = op[0]
        try:
            if kind == W.TRANSFER:
                refs.append(transfer(op[1], op[2], op[3], op[4]))
            elif kind == W.NFT_TRANSFER:
                nft_transfer(op[1], op[3], op[4], op[2])
            elif kind == W.CLEAN:
                p.attempted += 1  # the step's second call
                start = perf_counter()
                try:
                    clean(op[1], list(op[2]), op[4])
                except LedgerError:
                    failed += 1
                nft_clean(list(op[3]), op[4])
                p.steps_ms.append(1e3 * (perf_counter() - start))
            elif kind == W.RTRANSFER:
                refs.append(rtransfer(op[1], op[2], op[3], op[4]))
            elif kind == W.BURN:
                refs.append(burn(op[1], op[2], op[3], BurnSource.REVERSIBLE))
            elif kind == W.MINT:
                ledger.mint(op[1], op[2], op[3])
            elif kind == W.NFT_MINT:
                nft.mint(op[1], op[2], op[3])
            else:
                raise ValueError(f"unknown op kind {kind}")
        except LedgerError:
            failed += 1
            if kind in (W.TRANSFER, W.RTRANSFER, W.BURN):
                refs.append(None)
    p.attempted += len(ops)
    p.failed += failed


def run_court(wl: W.DisputeWorkload, gov: Governance, refs: list, p: Pass) -> None:
    """Each dispute's full lifecycle, one call at a time; the engine time of
    all of a case's calls is that case's step time."""
    submit, commit, reveal, tally = (
        gov.submit_freeze_request, gov.cast_commit, gov.cast_reveal, gov.tally
    )
    for d in wl.disputes:
        spent = 0.0
        ref = refs[d.record]
        p.attempted += 1
        try:
            if ref is None:
                raise LedgerError("disputed record was never created")
            start = perf_counter()
            case_id = submit(d.claimant, FungibleTarget(ref), d.stake, d.tip, "", d.beacon)
            spent += perf_counter() - start
        except LedgerError:
            p.failed += 1
            continue
        quorum = gov.cases[case_id].quorum
        for votes in (d.freeze_votes, d.trial_votes):
            ballots = [
                (judge, Vote.APPROVE if yes else Vote.REJECT, salt)
                for judge, yes, salt in zip(quorum, votes, SALTS)
            ]
            sealed = [(judge, commitment_hash(vote, salt, case_id)) for judge, vote, salt in ballots]
            calls = 0
            start = perf_counter()
            try:
                for judge, commitment in sealed:
                    calls += 1
                    commit(case_id, judge, commitment)
                for judge, vote, salt in ballots:
                    calls += 1
                    reveal(case_id, judge, vote, salt)
                calls += 1
                outcome = tally(case_id)
            except LedgerError:
                p.failed += 1
                break
            finally:
                spent += perf_counter() - start
                p.attempted += calls
            if outcome.phase_after is not Phase.TRIAL:
                break
        p.steps_ms.append(1e3 * spent)


def check_common(ledger: TokenLedger, gov: Governance) -> list[str]:
    errors = []
    circulating = ledger.circulating()
    if ledger.total_minted - ledger.total_burned != circulating:
        errors.append(
            f"supply: minted {ledger.total_minted} - burned {ledger.total_burned}"
            f" != circulating {circulating}"
        )
    open_cases = [c for c in gov.cases.values() if c.phase not in TERMINAL_PHASES]
    held = sum(c.stake + c.tip for c in open_cases)
    escrow = ledger.account(gov.escrow).total
    if escrow != held:
        errors.append(f"escrow: balance {escrow} != open stake+tip {held}")
    if open_cases:
        errors.append(f"{len(open_cases)} cases did not reach a terminal phase")
    for addr, acct in ledger.accounts.items():
        if not 0 <= acct.frozen <= acct.reversible:
            errors.append(f"{addr}: frozen {acct.frozen} outside [0, reversible {acct.reversible}]")
    return errors


def check_totals(ledger: TokenLedger, expected: dict[str, int]) -> list[str]:
    return [
        f"{addr}: total {ledger.account(addr).total} != generator's {want}"
        for addr, want in expected.items()
        if ledger.account(addr).total != want
    ]


def check_claims(wl: W.DisputeWorkload, engine: FreezeEngine, p: Pass) -> list[str]:
    """Every claim's books balance.  On a burn-free economy a claim freezes
    its whole demand unless an earlier claim of the pass already reached the
    node where the rest is stranded: the freeze is greedy per claim, so an
    earlier claim can freeze or reverse coins that a later claim traces to
    the same node.  Such claims are counted as contested."""
    errors = []
    reached: set[str] = set()
    for claim_id in engine.claim_order:
        plan = engine.claims[claim_id].plan
        books = plan.total_frozen + plan.total_absorbed + plan.total_residual
        if books != plan.demand:
            errors.append(f"claim {claim_id[:12]}: frozen+absorbed+residual {books} != demand {plan.demand}")
        if wl.burn_free and plan.total_frozen != plan.demand:
            stranded = {node for node, amount in plan.residual.items() if amount}
            if stranded <= reached:
                p.contested += 1
            else:
                errors.append(f"claim {claim_id[:12]}: burn-free freeze {plan.total_frozen}"
                              f" != demand {plan.demand}, stranded at {sorted(stranded - reached)}")
        reached.update(node for node, amount in plan.obligations.items() if amount)
    if len(engine.claims) != len(wl.disputes):
        errors.append(f"{len(engine.claims)} claims filed for {len(wl.disputes)} disputes")
    return errors


def state_digest(ledger: TokenLedger, nft: NftRegistry, gov: Governance) -> str:
    h = hashlib.sha256()
    for addr in sorted(ledger.accounts):
        a = ledger.accounts[addr]
        h.update(f"{addr}:{a.reversible}:{a.nonreversible}:{a.frozen};".encode())
    for ref, rec in ledger.log.all_records():
        h.update(f"{ref.epoch},{ref.sender},{ref.index},{rec.to},{rec.amount},"
                 f"{rec.original_amount},{rec.block},{rec.seq};".encode())
    for tok in sorted(nft.tokens):
        h.update(f"{tok}:{[(r.owner, r.block) for r in nft.tokens[tok].owners]};".encode())
    for case_id in sorted(gov.cases):
        h.update(f"{case_id}:{gov.cases[case_id].phase.value};".encode())
    return h.hexdigest()


def run_pass(wl, traced: bool) -> Pass:
    p = Pass(traced)
    tracer = Tracer()
    churn = isinstance(wl, W.ChurnWorkload)
    config = EpochConfig(wl.spec.epoch_length, wl.spec.window) if churn else EpochConfig()
    gc.collect()
    begin = perf_counter()
    with tracer.installed() if traced else nullcontext():
        ledger, engine, nft, gov = wire(config, [] if churn else wl.judges)
        refs: list = []
        feed(ledger, nft, wl.setup, refs, p)
        p.setup_s = perf_counter() - begin
        if not churn:
            p.errors += check_totals(ledger, wl.expected_totals)
        attempted, covered = p.attempted, tracer.total_self_s()
        start = perf_counter()
        if churn:
            feed(ledger, nft, wl.measured, refs, p)
        else:
            run_court(wl, gov, refs, p)
        end = perf_counter()
    p.measured_s = end - start
    p.wall_s = end - begin
    p.measured_ops = p.attempted - attempted
    p.errors += check_common(ledger, gov)
    if churn:
        p.errors += check_totals(ledger, wl.expected_totals)
        live = len(ledger.log.all_records())
        if live != wl.expected_live_records:
            p.errors.append(f"live records {live} != generator's {wl.expected_live_records}")
        owners = {tok: t.current_owner for tok, t in nft.tokens.items()}
        if owners != wl.expected_owners:
            p.errors.append("NFT owners differ from the generator's")
    else:
        p.errors += check_claims(wl, engine, p)
    p.digest = state_digest(ledger, nft, gov)
    if traced:
        p.layers = tracer.metrics()
        p.layer_cover = (tracer.total_self_s() - covered) / p.measured_s
        p.errors += tracer.bound_violations
    return p


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(n: int) -> float:
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100 * n) >= TAIL_BEYOND:
            return pct
    return 50.0


def end_to_end(wl, passes: list[Pass]) -> tuple[dict[str, float], list[str]]:
    # A step's latency is its median over the passes, which replay the same
    # steps; percentiles are then taken over the steps.
    steps = sorted(statistics.median(s) for s in zip(*(p.steps_ms for p in passes)))
    tail = tail_percentile(len(steps))
    values = {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "ops_per_s": statistics.median(p.measured_ops / p.measured_s for p in passes),
        "step_p50_ms": nearest_rank(steps, 50.0),
        "step_tail_ms": nearest_rank(steps, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    step = "dispute case (all of its calls)" if isinstance(wl, W.DisputeWorkload) else "clean step (clean + nftClean)"
    n = len(passes)
    notes = [
        f"setup_s       {values['setup_s']:.4f} s    median of {n} set-ups",
        f"ops_per_s     {values['ops_per_s']:.1f} 1/s  median of {n} passes, {passes[0].measured_ops} engine calls each",
        f"step_p50_ms   {values['step_p50_ms']:.4f} ms   p50 of {len(steps)} steps x {n} passes; a step is one {step}",
        f"step_tail_ms  {values['step_tail_ms']:.4f} ms   p{tail:g} of {len(steps)} steps, "
        f"{len(steps) - math.ceil(tail / 100 * len(steps))} beyond it",
        f"peak_rss_mb   {values['peak_rss_mb']:.1f} MB",
    ]
    if isinstance(wl, W.DisputeWorkload):
        cases = len(passes[0].steps_ms)
        notes.insert(2, f"disputes_per_s {statistics.median(cases / p.measured_s for p in passes):.2f} 1/s"
                        f"  cases closed per measured second")
    return values, notes


def per_layer(passes: list[Pass]) -> tuple[dict[str, float], list[str]]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    values = {name: statistics.median_low(p.layers[name] for p in traced) for name in traced[0].layers}
    values["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain)
    )
    cover = statistics.median(p.layer_cover for p in traced)
    notes = [f"{name:34s} {values[name]:.6g} {unit}" for name, unit, _ in PER_LAYER]
    notes.append(f"layer self time covers {100 * cover:.1f}% of the measured wall time "
                 f"(median of {len(traced)} traced passes; values are per pass)")
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl = W.generate(args.workload, args.seed)
    passes: list[Pass] = []
    measured = 0.0
    while len(passes) < 2 or measured < args.seconds:
        passes.append(run_pass(wl, traced=bool(args.trace) and len(passes) % 2 == 1))
        measured += passes[-1].measured_s

    errors = [f"pass {i}: {e}" for i, p in enumerate(passes) for e in p.errors]
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        errors.append(f"passes of one seed ended in {len(digests)} different states")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if args.trace:
        values, notes = per_layer(passes)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, notes = end_to_end(wl, [p for p in passes if not p.traced])
        units = END_TO_END
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"{measured:.2f} s measured, PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'random')}")
    for line in notes:
        print("  " + line)
    print("  passes (set-up s / measured s): " + ", ".join(
        f"{'T' if p.traced else ''}{p.setup_s:.3f}/{p.measured_s:.3f}" for p in passes))
    print(f"  failed_op_ratio {failed}/{attempted} = {failed / attempted:g}")
    if isinstance(wl, W.DisputeWorkload) and wl.burn_free:
        print(f"  contested claims (froze less than demand where an earlier claim reached):"
              f" {passes[0].contested} of {len(wl.disputes)}")
    print(f"  checks: {'all passed' if not errors else f'{len(errors)} FAILED'}; state digest {passes[0].digest[:16]}")
    for e in errors[:20]:
        print("perfbench: check failed: " + e, file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
