"""Randomized verification of the freeze algorithm's guarantees.

Each trial builds a small random economy, disputes one transfer, runs the real
engine end to end, and then checks properties that do not depend on trusting
the engine's own arithmetic:

* burn-free trials must freeze exactly the disputed amount, read from the
  trial's raw books rather than from the engine's record of the transfer;
* every obligation handed to an edge must be covered by the obligation that
  reached the sender before it sent anything on, with arrivals, record
  identities, and value caps all re-derived from the trial's raw records and
  the per-node books required to balance exactly;
* the frozen/absorbed/residual split must account for the full demand;
* account floors, token conservation, and the linear work bound must hold;
* on generated DAG economies, the whole freeze map is cross-checked against a
  separate brute-force freeze over the raw records and balances that never
  touches the engine's log or graph machinery.

Trials come in three shapes: free-form (cycles welcome), layered (indexes only
flow upward, guaranteeing a DAG so the brute-force freeze applies), and
interleaved (one hub account alternates incoming and outgoing transfers, the
shape that stresses the newest-first obligation rule).

A trial is a list of the `ScenarioOp`s that `parse_scenario` reads from its
scenario text, replayed through `ScenarioRunner.dispatch`.  As the generator
adds each op it also books the op's effect in the trial's `RawBooks`, the
oracle's one model of what an op does: the generators draw amounts from its
balances, and the raw trace and the brute-force freeze read its final records
and balances.  Each violation is the trial's text under a comment naming the
finding and the disputed transfer's line.  `revtok replay` runs that text as
is, rebuilding the economy, but files no claim: dispute the named line to
reproduce the finding.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from .ledger import BurnSource
from .scenario import ScenarioOp, ScenarioRunner


@dataclass
class RawBooks:
    """What a trial's ops do, booked from the ops alone: reversible `r` and
    non-reversible `nr` balances, and one raw (sender, to, amount) record per
    transfer or burn in seq order, `to` None for a burn.  `apply` is the only
    oracle code that maps an op to these effects; it shares no code with the
    engine."""

    r: Counter[str] = field(default_factory=Counter)
    nr: Counter[str] = field(default_factory=Counter)
    records: list[tuple[str, str | None, int]] = field(default_factory=list)

    def apply(self, name: str, p: dict[str, Any]) -> None:
        if name == "mint":
            self.nr[p["to"]] += p["amount"]
        elif name in ("transfer", "rtransfer"):
            (self.r if name == "rtransfer" else self.nr)[p["from"]] -= p["amount"]
            self.r[p["to"]] += p["amount"]
            self.records.append((p["from"], p["to"], p["amount"]))
        elif name == "burn":  # trials burn reversible funds only
            self.r[p["from"]] -= p["amount"]
            self.records.append((p["from"], None, p["amount"]))


@dataclass
class TrialSpec:
    shape: str
    burns: bool
    ops: list[ScenarioOp] = field(default_factory=list)  # starting with advanceBlock to=1
    dispute: int = 0  # index into ops of the disputed transfer
    t0: int = 0  # index into books.records of the disputed transfer
    books: RawBooks = field(default_factory=RawBooks)  # booked as each op is added


def trial_text(spec: TrialSpec, finding: str) -> str:
    """The trial as scenario text, under a comment naming `finding` and the
    disputed transfer's line; `parse_scenario` reads `spec.ops` back from it."""
    head = f"# {finding}; disputed transfer on line {spec.ops[spec.dispute].line}\n"
    return head + "".join(f"{op.name} {op.label}\n" for op in spec.ops)


def _add(spec: TrialSpec, name: str, params: dict[str, Any], disputed: bool = False) -> None:
    """Append the op `parse_scenario` reads from line `name key=value ...` of
    `trial_text`, whose first line is its comment, and book it; `disputed`
    marks it as the transfer the trial disputes."""
    if disputed:
        spec.dispute, spec.t0 = len(spec.ops), len(spec.books.records)
    label = " ".join(f"{key}={getattr(value, 'value', value)}" for key, value in params.items())
    spec.ops.append(ScenarioOp(len(spec.ops) + 2, name, params, label=label))
    spec.books.apply(name, params)


# -- generation ----------------------------------------------------------------


def generate_trial(rng: random.Random, shape: str, burns: bool) -> TrialSpec:
    spec = TrialSpec(shape, burns)
    _add(spec, "advanceBlock", {"to": 1})
    if shape == "interleaved":
        _generate_interleaved(rng, spec)
    elif shape == "layered":
        _generate_layered(rng, spec)
    else:
        _generate_generic(rng, spec)
    return spec


def _generate_generic(rng: random.Random, spec: TrialSpec) -> None:
    addrs = ["a%d" % i for i in range(rng.randint(2, 7))]
    victim = "v"
    nr = spec.books.nr
    for a in rng.sample(addrs, rng.randint(0, len(addrs) // 2 + 1)):
        _add(spec, "mint", {"to": a, "amount": rng.randint(1, 100)})
    # a little pre-dispute traffic, eligible for exclusion by the trace rules
    for _ in range(rng.randint(0, 3)):
        senders = [a for a in addrs if nr[a] > 0]
        if not senders:
            break
        frm = rng.choice(senders)
        amount = rng.randint(1, nr[frm])
        _add(spec, "transfer", {"from": frm, "to": rng.choice(addrs), "amount": amount})
    s = rng.randint(1, 100)
    _add(spec, "mint", {"to": victim, "amount": s})
    _add(spec, "transfer", {"from": victim, "to": rng.choice(addrs), "amount": s}, disputed=True)
    everyone = addrs + [victim]  # self- and back-transfers welcome
    _traffic(rng, spec, rng.randint(1, 11), everyone, lambda _frm: rng.choice(everyone))


def _generate_layered(rng: random.Random, spec: TrialSpec) -> None:
    """Post-dispute transfers only flow from lower to higher index: a DAG by
    construction, so the brute-force freeze can check the whole freeze map."""
    count = rng.randint(2, 6)
    addrs = ["n%d" % i for i in range(count)]
    victim = "v"
    for a in rng.sample(addrs, rng.randint(0, count - 1)):
        amount = rng.randint(1, 60)
        if rng.random() < 0.5:
            _add(spec, "mint", {"to": a, "amount": amount})
        else:  # prior reversible funds arrive via a funder
            _add(spec, "mint", {"to": "fund", "amount": amount})
            _add(spec, "transfer", {"from": "fund", "to": a, "amount": amount})
    s = rng.randint(1, 100)
    _add(spec, "mint", {"to": victim, "amount": s})
    _add(spec, "transfer", {"from": victim, "to": addrs[0], "amount": s}, disputed=True)
    _traffic(rng, spec, rng.randint(1, 9), addrs[:-1],
             lambda frm: addrs[rng.randint(addrs.index(frm) + 1, count - 1)])


def _traffic(rng: random.Random, spec: TrialSpec, steps: int, senders: list[str],
             pick_to) -> None:
    """Up to `steps` post-dispute moves: a fifth skip one to three blocks, the
    rest are by one of `senders` holding funds, until none does.  With burns,
    a quarter of those burn reversible funds; the others transfer to
    pick_to(sender) from reversible funds, or from non-reversible ones when
    the sender has no reversible funds or, having both, three times in ten."""
    r, nr = spec.books.r, spec.books.nr
    block = 1
    for _ in range(steps):
        if rng.random() < 0.2:
            block += rng.randint(1, 3)
            _add(spec, "advanceBlock", {"to": block})
            continue
        funded = [a for a in senders if r[a] > 0 or nr[a] > 0]
        if not funded:
            break
        frm = rng.choice(funded)
        if spec.burns and r[frm] > 0 and rng.random() < 0.25:
            amount = rng.randint(1, min(r[frm], 100))
            _add(spec, "burn", {"from": frm, "amount": amount, "source": BurnSource.REVERSIBLE})
            continue
        use_r = r[frm] > 0 and (nr[frm] == 0 or rng.random() < 0.7)
        amount = rng.randint(1, min((r if use_r else nr)[frm], 100))
        name = "rtransfer" if use_r else "transfer"
        _add(spec, name, {"from": frm, "to": pick_to(frm), "amount": amount})


def _generate_interleaved(rng: random.Random, spec: TrialSpec) -> None:
    """The disputed recipient drips funds into a hub, which spends between the
    arrivals, so obligations must respect which money was there when."""
    victim, parent, hub = "v", "p", "h"
    r = spec.books.r
    m = rng.randint(1, 4)
    sinks = ["b%d" % j for j in range(m)]
    block = 1
    if rng.random() < 0.5:  # optional prior reversible funds at the hub
        prior = rng.randint(1, 30)
        _add(spec, "mint", {"to": "fund", "amount": prior})
        _add(spec, "transfer", {"from": "fund", "to": hub, "amount": prior})
    s = rng.randint(m + 1, 100)
    _add(spec, "mint", {"to": victim, "amount": s})
    _add(spec, "transfer", {"from": victim, "to": parent, "amount": s}, disputed=True)
    parent_r = s  # what the chunks below have yet to take, not a balance
    chunks = []
    for _ in range(m + 1):
        if parent_r == 0:
            break
        x = rng.randint(1, max(1, parent_r // 2))
        chunks.append(x)
        parent_r -= x
    for j, x in enumerate(chunks):
        _add(spec, "rtransfer", {"from": parent, "to": hub, "amount": x})
        if j < len(sinks) and r[hub] > 0:
            burn = spec.burns and rng.random() < 0.25
            y = rng.randint(1, min(r[hub], 100))
            if burn:
                _add(spec, "burn", {"from": hub, "amount": y, "source": BurnSource.REVERSIBLE})
            else:
                _add(spec, "rtransfer", {"from": hub, "to": sinks[j], "amount": y})
        if rng.random() < 0.3:
            block += 1
            _add(spec, "advanceBlock", {"to": block})


# -- execution -------------------------------------------------------------------


def _replay_on_engine(spec: TrialSpec):
    """A default-config scenario runner that has dispatched the trial's ops,
    and the disputed transfer's ref."""
    runner = ScenarioRunner({})
    results = [runner.dispatch(op) for op in spec.ops]
    return runner, results[spec.dispute]


def file_trial_claim(spec: TrialSpec, before=lambda ledger, ref: None):
    """Replay the trial on the engine and file its victim's claim on the
    disputed transfer; `before(ledger, ref)` sees the ledger just before the
    claim is filed.  Returns the ledger and the claim's plan."""
    runner, ref = _replay_on_engine(spec)
    before(runner.ledger, ref)
    engine, victim = runner.freeze, spec.books.records[spec.t0][0]
    claim_id = engine.execute_freeze(ref, victim, runner.ledger.current_block, engine.governance)
    return runner.ledger, engine.claims[claim_id].plan


def _trace_raw(spec: TrialSpec):
    """The taint trace over the trial's raw records, `spec.books.records`.

    Returns the raw records as (sender, to, amount) per seq, the disputed
    record's seq t0, each tainted address's earliest arrival seq, the tainted
    edges as (src, dst, amount, seq), and the burns each tainted address made
    after its arrival.
    """
    records, t0 = spec.books.records, spec.t0
    arrival = {records[t0][1]: t0}
    edges = []  # (src, dst, amount, seq)
    burned: dict[str, int] = {}
    for seq in range(t0 + 1, len(records)):
        sender, to, amount = records[seq]
        at = arrival.get(sender)
        if at is None or seq <= at:
            continue
        if to is None:
            burned[sender] = burned.get(sender, 0) + amount
            continue
        edges.append((sender, to, amount, seq))
        if to not in arrival or seq < arrival[to]:
            arrival[to] = seq
    return records, t0, arrival, edges, burned


def reference_freeze(spec: TrialSpec, trace) -> dict[str, int]:
    """Brute-force freeze map for DAG-shaped trials, positive amounts only.

    Reads final reversible balances from `spec.books`, takes the tainted
    edges from `trace`, the `_trace_raw(spec)` result, topologically sorts
    with Kahn's algorithm, and hands out obligations newest-first.  Shares no
    code or data structures with the engine path.
    """
    r = spec.books.r
    records, t0, arrival, edges, burned = trace
    _victim, root, demand = records[t0]

    nodes = list(arrival)
    outgoing: dict[str, list[tuple[str, str, int, int]]] = {n: [] for n in nodes}
    indegree = {n: 0 for n in nodes}
    for edge in edges:
        outgoing[edge[0]].append(edge)
        indegree[edge[1]] += 1
    for n in nodes:
        outgoing[n].sort(key=lambda e: -e[3])
    queue = [n for n in nodes if indegree[n] == 0]
    oblig = {n: 0 for n in nodes}
    oblig[root] = demand
    to_freeze = {}
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        pending = oblig[node]
        frozen = min(pending, r[node])
        if frozen:
            to_freeze[node] = frozen
        remaining = pending - frozen - burned.get(node, 0)
        if remaining > 0:
            for _src, dst, amount, _seq in outgoing[node]:
                passed = min(remaining, amount)
                oblig[dst] += passed
                remaining -= passed
                if remaining <= 0:
                    break
        for edge in outgoing[node]:
            indegree[edge[1]] -= 1
            if indegree[edge[1]] == 0:
                queue.append(edge[1])
    assert len(queue) == len(nodes), "reference freeze requires a DAG trial"
    return to_freeze


# -- checks -----------------------------------------------------------------------


def run_and_check(spec: TrialSpec) -> list[str]:
    """All violations found in one trial (empty list means it passed)."""
    ledger, plan = file_trial_claim(spec)
    trace = _trace_raw(spec)
    demand = spec.books.records[spec.t0][2]
    violations: list[str] = []

    def bad(kind: str, detail: str) -> None:
        violations.append(trial_text(spec, f"{kind}: {detail}"))

    # Raw demand accounting: frozen + absorbed-by-burns + stranded == demand.
    accounted = plan.total_frozen + plan.total_absorbed + plan.total_residual
    if accounted != demand:
        bad("identity", f"frozen {plan.total_frozen} + absorbed {plan.total_absorbed} "
                        f"+ residual {plan.total_residual} != s {demand}")
    if not spec.burns and plan.total_frozen != demand:
        bad("freezeSum", f"froze {plan.total_frozen} of {demand}")
    violations.extend(trial_text(spec, v) for v in _check_obligation_bound(trace, plan))

    # Work is linear in the traced graph.
    if plan.nodes_visited > len(trace[2]):
        bad("linearity", f"visited {plan.nodes_visited} of {len(trace[2])} tainted addresses")
    if plan.edges_touched > plan.edge_count:
        bad("linearity", f"touched {plan.edges_touched} of {plan.edge_count} edges")

    # Burn absorption can never exceed what was actually burned post-arrival.
    expected_burn = trace[4]
    for addr, absorbed in plan.absorbed_by_burn.items():
        if absorbed > expected_burn.get(addr, 0):
            bad("burn", f"{addr} absorbed {absorbed} > burned {expected_burn.get(addr, 0)}")

    # Engine state: floors, claim/frozen agreement, conservation.
    for addr, acct in ledger.accounts.items():
        if not 0 <= acct.frozen <= acct.reversible:
            bad("floor", f"{addr} frozen {acct.frozen} reversible {acct.reversible}")
        if acct.frozen != plan.to_freeze.get(addr, 0):
            bad("claim", f"{addr} frozen {acct.frozen} != plan {plan.to_freeze.get(addr, 0)}")
    if ledger.circulating() != ledger.total_minted - ledger.total_burned:
        bad("conservation", f"{ledger.circulating()} != "
                            f"{ledger.total_minted} - {ledger.total_burned}")

    if spec.shape == "layered":
        expected = reference_freeze(spec, trace)
        if plan.to_freeze != expected:
            bad("reference", f"engine {plan.to_freeze} != brute force {expected}")
    return violations


def _check_obligation_bound(trace, plan) -> list[str]:
    """Audit the per-edge rows against the raw records `_trace_raw` returns.

    All obligation into a node is assigned while its senders are processed,
    strictly before the node hands anything on, so the obligation reaching a
    node bounds what any one of its outgoing edges may carry.  That reached
    total is re-derived here by summing the inflow rows after each row is
    checked against the raw records: it must point at a real transfer with
    matching endpoints, dated after tainted funds could first have arrived at
    the sender, and neither its value nor its obligation may exceed what the
    raw transfer moved.  Finally, at the root and every node a row or a
    plan map names, the books must balance exactly: frozen +
    absorbed-by-burn + stranded + passed-on == reached, and the plan's
    obligation must be that reached total.  A trial files one claim, so the
    demand reaching the root is the disputed transfer's raw amount.
    """
    records, t0, arrival, _edges, _burned = trace
    _victim, root, demand = records[t0]
    violations: list[str] = []

    inflow: dict[str, int] = {}
    outflow: dict[str, int] = {}
    for edge, obligation in plan.per_edge:
        src, dst, seq = edge.record.sender, edge.record.to, edge.record.seq
        if not 0 <= seq < len(records):
            violations.append(f"obligationBound: row seq {seq} is not a raw record")
            continue
        sender, to, amount = records[seq]
        if sender != src or to != dst:
            violations.append(
                f"obligationBound: per-edge row at seq {seq} does not match the raw record"
            )
        if seq <= arrival.get(src, len(records)):
            violations.append(
                f"obligationBound: edge {src}->{dst} seq {seq} predates "
                f"the funds' arrival at {src}"
            )
        if edge.value > amount:
            violations.append(
                f"obligationBound: edge {src}->{dst} value {edge.value} "
                f"> raw transfer amount {amount}"
            )
        if obligation > edge.value:
            violations.append(
                f"obligationBound: edge {src}->{dst} obligation {obligation} "
                f"exceeds edge value {edge.value}"
            )
        inflow[dst] = inflow.get(dst, 0) + obligation
        outflow[src] = outflow.get(src, 0) + obligation

    def reached(node: str) -> int:
        return inflow.get(node, 0) + (demand if node == root else 0)

    for edge, obligation in plan.per_edge:
        src = edge.record.sender
        if obligation > reached(src):
            violations.append(
                f"obligationBound: edge {src}->{edge.record.to} obligation {obligation} "
                f"> obligation reaching {src} ({reached(src)})"
            )
    named = {root}.union(inflow, outflow, plan.to_freeze, plan.obligations,
                         plan.absorbed_by_burn, plan.residual)
    for node in sorted(named):
        books = (
            plan.to_freeze.get(node, 0)
            + plan.absorbed_by_burn.get(node, 0)
            + plan.residual.get(node, 0)
            + outflow.get(node, 0)
        )
        listed = plan.obligations.get(node, 0)
        if books != reached(node) or listed != reached(node):
            violations.append(
                f"obligationBound: node {node} accounts for {books} of obligation {listed} "
                f"but obligation {reached(node)} reached it"
            )
    return violations


# -- the batch entry point ---------------------------------------------------------


SHAPES = ("generic", "layered", "interleaved")


def oracle_trials(trials: int, seed: int, burns: str) -> Iterator[TrialSpec]:
    """The trials `oracle_check(trials, seed, burns)` runs, in its order."""
    master = random.Random(seed)
    for index in range(trials):
        rng = random.Random(master.getrandbits(64))
        with_burns = burns == "mixed" and rng.random() < 0.3
        yield generate_trial(rng, SHAPES[index % len(SHAPES)], with_burns)


def oracle_check(trials: int, seed: int, burns: str = "mixed") -> dict:
    """Run `trials` random trials; burns is 'none' or 'mixed'.

    Deterministic for a given (trials, seed, burns), and the report carries no
    wall-clock data, so its JSON form is byte-stable.
    """
    violations: list[dict] = []
    shape_counts = dict.fromkeys(SHAPES, 0)
    burn_trials = 0
    for index, spec in enumerate(oracle_trials(trials, seed, burns)):
        shape_counts[spec.shape] += 1
        burn_trials += int(spec.burns)
        for violation in run_and_check(spec):
            violations.append({"trial": index, "detail": violation})
    return {
        "trials": trials,
        "seed": seed,
        "burns": burns,
        "shapes": shape_counts,
        "burnTrials": burn_trials,
        "violations": violations,
        "pass": not violations,
    }

