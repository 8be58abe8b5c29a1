"""What the behaviour anchors leave unreached in the engine.

Every golden scenario and `oracle_check(200, 41)` are traced line by line
with the stdlib `trace` module.  Each statement inside a function of
`src/revtok` (`cli.py` aside: it only wires arguments to the modules) that
none of them reaches must be listed in UNREACHED with the reason no anchor
needs it; a `raise` needs no entry, since the error tests reach those.  So a
statement that drops out of the anchors' reach fails this test until an
anchor reaches it again or it is listed, and a listed statement that an
anchor starts to reach must leave the list.
"""

from __future__ import annotations

import ast
import sys
import trace
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

import revtok
from revtok.oracle import oracle_check
from revtok.scenario import report_json, run_scenario_text

SRC = Path(revtok.__file__).resolve().parent
SCENARIOS = sorted((SRC.parent.parent / "scenarios").glob("*.scn"))

# Why no anchor reaches each listed statement.  A statement is named by its
# module, its function and its first line, and listed once per statement, so
# a first line that two statements share appears twice.
UNREACHED: dict[str, list[tuple[str, str, str]]] = {
    "graph views and the claims' filing order, read only by perfbench and the "
    "tests; claim_order goes once perfbench reads `engine.claims`": [
        ("freeze.py", "TransferGraph.nodes", "return list(self.out)"),
        ("freeze.py", "TransferGraph.edges",
         "return [e for edges in self.out.values() for e in edges]"),
        ("freeze.py", "FreezeEngine.claim_order", "return list(self.claims)"),
    ],
    "the plan's edge-iteration total, computed from its edge and touch counts "
    "on demand; only the tests read it, and perfbench derives its own": [
        ("freeze.py", "FreezePlan.edge_iterations",
         "return 2 * self.edge_count + self.edges_touched"),
    ],
    "a pool seeded at construction, which only perfbench and the tests build; "
    "scenarios add judges with the `judges` op": [
        ("governance.py", "JudgePool.__init__", "self.add(judge)"),
    ],
    "judge discipline and amount-scaled quorums, which no scenario op or config "
    "key drives": [
        ("governance.py", "FeePolicy.quorum_for", "if amount >= floor:"),
        ("governance.py", "FeePolicy.quorum_for", "n = size"),
        ("governance.py", "Governance._record_conduct", "self.pool.minority[judge] += 1"),
        ("governance.py", "Governance.discipline_judges", "removed = []"),
        ("governance.py", "Governance.discipline_judges", "for judge in list(self.pool.judges):"),
        ("governance.py", "Governance.discipline_judges", "strikes = self.pool.strikes[judge]"),
        ("governance.py", "Governance.discipline_judges",
         "cases = self.pool.participated[judge]"),
        ("governance.py", "Governance.discipline_judges", "minority = self.pool.minority[judge]"),
        ("governance.py", "Governance.discipline_judges",
         "if strikes >= self.policy.strike_limit or ("),
        ("governance.py", "Governance.discipline_judges", "self.pool.remove(judge)"),
        ("governance.py", "Governance.discipline_judges", "removed.append(judge)"),
        ("governance.py", "Governance.discipline_judges", "return removed"),
        ("governance.py", "JudgePool.remove", "self.judges.remove(judge)"),
    ],
    "oracle violations, reported only when a trial fails": [
        ("oracle.py", "trial_text",
         'head = f"# {finding}; disputed transfer on line {spec.ops[spec.dispute].line}\\n"'),
        ("oracle.py", "trial_text",
         'return head + "".join(f"{op.name} {op.label}\\n" for op in spec.ops)'),
        ("oracle.py", "run_and_check.bad",
         'violations.append(trial_text(spec, f"{kind}: {detail}"))'),
        ("oracle.py", "run_and_check",
         'bad("identity", f"frozen {plan.total_frozen} + absorbed {plan.total_absorbed} "'),
        ("oracle.py", "run_and_check",
         'bad("freezeSum", f"froze {plan.total_frozen} of {demand}")'),
        ("oracle.py", "run_and_check",
         'bad("linearity", f"visited {plan.nodes_visited} of {len(trace[2])} tainted addresses")'),
        ("oracle.py", "run_and_check",
         'bad("linearity", f"touched {plan.edges_touched} of {plan.edge_count} edges")'),
        ("oracle.py", "run_and_check",
         'bad("burn", f"{addr} absorbed {absorbed} > burned {expected_burn.get(addr, 0)}")'),
        ("oracle.py", "run_and_check",
         'bad("floor", f"{addr} frozen {acct.frozen} reversible {acct.reversible}")'),
        ("oracle.py", "run_and_check",
         'bad("claim", f"{addr} frozen {acct.frozen} != plan {plan.to_freeze.get(addr, 0)}")'),
        ("oracle.py", "run_and_check", 'bad("conservation", f"{ledger.circulating()} != "'),
        ("oracle.py", "run_and_check",
         'bad("reference", f"engine {plan.to_freeze} != brute force {expected}")'),
        ("oracle.py", "_check_obligation_bound",
         'violations.append(f"obligationBound: row seq {seq} is not a raw record")'),
        ("oracle.py", "_check_obligation_bound", "continue"),
        *[("oracle.py", "_check_obligation_bound", "violations.append(")] * 6,
        ("oracle.py", "oracle_check",
         'violations.append({"trial": index, "detail": violation})'),
    ],
    "trial generator exits that none of the 200 trials takes": [
        ("oracle.py", "_generate_interleaved", "break"),
    ],
    "scenario failures, reported only when a check or an operation fails; "
    "every golden scenario parses and passes": [
        ("errors.py", "ParseError.__init__",
         'super().__init__(f"line {line}, col {column}: {message}")'),
        ("errors.py", "ParseError.__init__", "self.line = line"),
        ("errors.py", "ParseError.__init__", "self.column = column"),
        ("scenario.py", "_validate_op", 'column = raw.find(f" {unknown[0]}=") + 2'),
        ("scenario.py", "ScenarioRunner._exit_code", "return 1"),
        ("scenario.py", "ScenarioRunner._run_op", "self.failed_ops.append("),
        ("scenario.py", "ScenarioRunner._run_op",
         'self._check(op.line, f"{op.name} raises {op.expect_error}", "operation succeeded")'),
        ("scenario.py", "ScenarioRunner._evaluate_expect",
         'facts, failures = {}, [f"{type(err).__name__}: {err}"]'),
        ("scenario.py", "ScenarioRunner._evaluate_expect", "failures.append("),
        ("scenario.py", "ScenarioRunner._evaluate_expect",
         'failures.append(f"{key}: expected {p[key]}, got {actual}")'),
    ],
}


def _body_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """The statements of a function body, nested blocks included, without
    a leading docstring and without the bodies of nested functions."""
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        for name in ("body", "orelse", "finalbody"):
            yield from _body_statements(getattr(stmt, name, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _body_statements(handler.body)


def _lines(stmt: ast.stmt) -> range:
    """The lines a statement executes on: a simple statement's whole span,
    a compound statement's header."""
    body = getattr(stmt, "body", None)
    if body and not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return range(stmt.lineno, max(body[0].lineno, stmt.lineno + 1))
    return range(stmt.lineno, stmt.end_lineno + 1)


def _function_statements(path: Path) -> Iterator[tuple[str, ast.stmt]]:
    """(qualified function name, statement) for every statement inside a
    function of the module at `path`."""
    def walk(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.stmt]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                name = prefix + child.name
                for stmt in _body_statements(child.body):
                    yield name, stmt
                yield from walk(child, f"{name}.")
            elif isinstance(child, ast.stmt):
                yield from walk(child, prefix)

    return walk(ast.parse(path.read_text()), "")


def _run_anchors() -> None:
    """Produce every golden report in the form its golden file holds."""
    for path in SCENARIOS:
        report_json(run_scenario_text(path.read_text(), path.stem).report)
    report_json(oracle_check(200, 41))


def unreached() -> Counter[tuple[str, str, str]]:
    """(module, function, first line) of each statement no anchor reaches,
    counted, since one function may repeat a line."""
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    tracer.runfunc(_run_anchors)
    hit = {(Path(name).resolve(), line) for name, line in tracer.results().counts}
    missed: Counter[tuple[str, str, str]] = Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        source = path.read_text().splitlines()
        for function, stmt in _function_statements(path):
            if isinstance(stmt, ast.Raise):
                continue
            if not any((path, line) in hit for line in _lines(stmt)):
                missed[path.name, function, source[stmt.lineno - 1].strip()] += 1
    return missed


def test_anchors_reach_every_unlisted_statement():
    listed = Counter(entry for entries in UNREACHED.values() for entry in entries)
    missed = unreached()
    assert sorted((missed - listed).elements()) == [], "reached by no anchor and not listed"
    assert sorted((listed - missed).elements()) == [], "listed but now reached"
