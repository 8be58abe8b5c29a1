"""Command-line front end.

    revtok replay SCENARIO [--out FILE]
    revtok oracle --trials N --seed S [--burns {none,mixed}] [--out FILE]

Exit codes: 0 success, 1 a check or trial failed, 2 usage or parse error (a
scenario file that is not UTF-8, or a line with an unknown key, a malformed
integer or hex value, an `expect` that compares nothing, or a `config` line
that follows another operation or holds an unknown key or a bad value, is a
parse error).  Reports are byte-identical for identical inputs and carry no
timing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ParseError
from .oracle import oracle_check
from .scenario import report_json, run_scenario_text


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="revtok",
        description="Reversible-token ledger engine and scenario simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    replay = sub.add_parser("replay", help="run a scenario file and report")
    replay.add_argument("scenario", help="path to a scenario file")
    replay.add_argument("--out", help="write the JSON report here instead of stdout")

    oracle = sub.add_parser("oracle", help="randomized self-verification")
    oracle.add_argument("--trials", type=int, default=500)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--burns", choices=["none", "mixed"], default="mixed")
    oracle.add_argument("--out", help="write the JSON report here instead of stdout")

    args = parser.parse_args(argv)

    if args.command == "replay":
        path = Path(args.scenario)
        if not path.is_file():
            print(f"revtok: no such scenario: {path}", file=sys.stderr)
            return 2
        try:
            result = run_scenario_text(path.read_text(encoding="utf-8"), path.stem)
        except (ParseError, UnicodeDecodeError) as err:
            print(f"revtok: {path}: {err}", file=sys.stderr)
            return 2
        _emit(report_json(result.report), args.out)
        return result.exit_code

    if args.trials <= 0:
        print("revtok: --trials must be positive", file=sys.stderr)
        return 2
    report = oracle_check(args.trials, args.seed, args.burns)
    _emit(report_json(report), args.out)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
