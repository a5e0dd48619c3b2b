"""Command-line refuter: parse a problem file, search, report a verdict.

Exit codes: 10 satisfiable, 20 unsatisfiable, 30 unknown, 2 bad input,
3 proof does not check (--check-proof), 1 internal error.  The first
stdout line is always sat/unsat/unknown (except under --fragment-check and
--check-proof, which have their own output).  Diagnostics and notices go to
stderr.
"""

from __future__ import annotations

import argparse
import sys

from .fragments import FragmentViolation, classify_branch
from .models import show_model
from .problems import ParseError, Problem, parse, parse_proof, serialize_proof
from .rules import check_proof
from .search import Refuted, Satisfiable, SearchConfig, Unknown, refute

__all__ = ["main", "Problem", "parse"]

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 30
EXIT_INPUT = 2
EXIT_PROOF_REJECTED = 3
EXIT_INTERNAL = 1


def _build_parser() -> argparse.ArgumentParser:
    default = SearchConfig()
    ap = argparse.ArgumentParser(
        prog="hotab",
        description="refutation search for higher-order tableau problems",
    )
    ap.add_argument("path", help="problem file, or - for stdin")
    ap.add_argument(
        "--mode",
        choices=("auto", "stt", "efo"),
        default="auto",
        help="calculus to use (default: route by input shape)",
    )
    ap.add_argument(
        "--fragment-check",
        action="store_true",
        help="report which decidable fragments the input falls in, then exit",
    )
    ap.add_argument(
        "--max-nodes", type=_limit(int), default=default.max_nodes, metavar="N"
    )
    ap.add_argument(
        "--timeout", type=_limit(float), default=default.timeout, metavar="SECONDS"
    )
    schedule = ",".join(map(str, default.fuel_schedule))
    ap.add_argument(
        "--fuel-schedule",
        default=schedule,
        metavar="A,B,...",
        help=f"instantiation depths for iterative deepening (default {schedule})",
    )
    ap.add_argument("--proof-out", metavar="PATH", help="write the proof here")
    ap.add_argument("--model-out", metavar="PATH", help="write the model here")
    ap.add_argument(
        "--check-proof",
        metavar="PATH",
        help="verify a previously written proof against the problem",
    )
    ap.add_argument(
        "--max-domain",
        type=_limit(int),
        default=default.max_table,
        metavar="N",
        help="cap on interpretation table sizes during model extraction",
    )
    return ap


def _limit(convert):
    """An argparse type: a number of the given kind that is not negative
    (zero keeps its meaning: no rule applications, no time, no table)."""

    def parse_limit(text: str):
        value = convert(text)
        if not value >= 0:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
        return value

    parse_limit.__name__ = convert.__name__  # argparse names it on bad input
    return parse_limit


def _read_problem(path: str) -> Problem:
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, encoding="utf-8") as f:
        return parse(f.read())


def _parse_schedule(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad fuel schedule {text!r}: expected integers") from None


def _run_check_proof(problem: Problem, path: str) -> int:
    with open(path, encoding="utf-8") as f:
        proof = parse_proof(f.read(), problem)
    # the calculus follows the problem's language, as in search
    if check_proof(problem.branch(), proof):
        print("proof ok")
        return 0
    print("proof does not check", file=sys.stderr)
    return EXIT_PROOF_REJECTED


def _write(path: str | None, text: str) -> bool:
    """Write text to path, if one is given.  Returns False, after a message
    on stderr, when the file cannot be written."""
    if path is None:
        return True
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    except OSError as ex:
        print(f"error: cannot write {path}: {ex.strerror or ex}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        problem = _read_problem(args.path)
        for note in problem.notices:
            print(note, file=sys.stderr)
        if args.check_proof is not None:
            return _run_check_proof(problem, args.check_proof)
        branch = problem.branch()
        if args.fragment_check:
            print(classify_branch(branch).describe())
            return 0
        cfg = SearchConfig(
            calculus=args.mode,
            fuel_schedule=_parse_schedule(args.fuel_schedule),
            max_nodes=args.max_nodes,
            timeout=args.timeout,
            # witnesses must not take a declared name, used or not, or the
            # proof file would not parse against the problem
            reserved=problem.variables,
            max_table=args.max_domain,
        )
        verdict = refute(branch, cfg)
    except (ParseError, FragmentViolation, OSError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as ex:  # pragma: no cover - defensive
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_INTERNAL

    if isinstance(verdict, Refuted):
        print("unsat")
        counts = ", ".join(
            f"{r}: {n}" for r, n in sorted(verdict.proof.rule_counts().items())
        )
        print(f"calculus: {verdict.calculus}", file=sys.stderr)
        print(f"proof size {verdict.proof.size()} ({counts})", file=sys.stderr)
        if not _write(args.proof_out, serialize_proof(verdict.proof)):
            return EXIT_INPUT
        return EXIT_UNSAT
    if isinstance(verdict, Satisfiable):
        print("sat")
        text = show_model(verdict.model)
        print(text, end="" if text.endswith("\n") else "\n")
        if not _write(args.model_out, text):
            return EXIT_INPUT
        return EXIT_SAT
    assert isinstance(verdict, Unknown)
    print("unknown")
    print(verdict.reason, file=sys.stderr)
    return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
