"""One workload in one process: problem text to certified verdict.

Started by run.py.  Caps its own address space, prints "ready" once hotab
is imported and the workload is built, then (unless --setup-only)
measures for --seconds, or makes a traced run, and prints one JSON result
line.

Every problem goes through the certification gate: the verdict must agree
with the known answer, a proof must replay from its serialized text, and a
model must satisfy the original assumptions.  `unknown` is accepted only
for problems run under a node budget.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus
from speed import SpeedLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

ADDRESS_SPACE_CAP = 1 << 30  # bytes, per process
CLI_TIMEOUT = 120.0  # seconds; never reached by the workloads' problems
CLI_ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
# a CLI timeout so high that the node budget always binds first
NO_TIMEOUT = ["--timeout", "1e9"]
# scheduling of a measured run, see run_interleaved
HEAVY_SECONDS = 0.5
SWEEP_SECONDS = 0.5
SWEEP_MAX = 5
# timings of the machine's speed that scale a run (see speed.py): those
# during it and up to this many seconds before or after it.  A hotab
# process may run on the other CPU than the worker's timings, so its runs
# are scaled by the speed over a longer stretch.
SPEED_WINDOW = 0.25
CLI_SPEED_WINDOW = 2.0
# failures that are wrong answers, not crashes: they make the run incorrect
WRONG = ("wrong verdict", "proof fails", "model fails", "unreadable model")

# problems of each workload run through the hotab command in the traced
# run, so the cli layer is measured on every workload: two cheap ones, or
# all of the cli workload's
CLI_SAMPLE = {
    "efo-refute": ("cliqueU(3)", "chain(1)"),
    "models": ("clique(3)", "rel(2)"),
    "stt-search": ("running(1)", "boolean-lambda"),
}


@dataclass
class Outcome:
    verdict: str | None  # sat / unsat / unknown; None when the run failed
    failure: str | None  # why the problem counts as failed
    seconds: float  # problem text to certified verdict
    solve_seconds: float  # inside decide/refute, or the CLI verdict process
    proof_nodes: int | None = None
    start: float = 0.0  # perf_counter when the run began
    scaled: float | None = None  # seconds at nominal machine speed, see speed.py


# ---------------------------------------------------------------------------
# Library path


def run_library(p, hotab) -> Outcome:
    hp, hf, hs, hsem = hotab
    t0 = time.perf_counter()
    solve = 0.0
    verdict_name, failure, nodes = None, None, None
    try:
        problem = hp.parse(p.text)
        branch = problem.branch()
        report = hf.classify_branch(branch)
        t_solve = time.perf_counter()
        if p.budget is None:
            if not report.decidable():
                raise ValueError("not in a decidable fragment")
            verdict = hf.decide(branch)
        else:
            calculus, max_nodes = p.budget
            cfg = hs.SearchConfig(calculus=calculus, max_nodes=max_nodes, timeout=None)
            verdict = hs.refute(branch, cfg)
        solve = time.perf_counter() - t_solve
        if isinstance(verdict, hs.Refuted):
            verdict_name = "unsat"
            nodes = verdict.proof.size()
            replayed = hp.parse_proof(hp.serialize_proof(verdict.proof), problem)
            if not hs.check_proof(problem.branch(), replayed, calculus=verdict.calculus):
                failure = "proof fails replay"
        elif isinstance(verdict, hs.Satisfiable):
            verdict_name = "sat"
            if not hsem.check_model(verdict.model, problem.assumptions):
                failure = "model fails check_model"
        else:
            verdict_name = "unknown"
    except Exception as ex:  # counted and named, never hidden
        failure = f"{type(ex).__name__}: {ex}"[:200]
    seconds = time.perf_counter() - t0
    return Outcome(verdict_name, failure or _judge(p, verdict_name), seconds, solve, nodes)


def _judge(p, verdict: str | None) -> str | None:
    if verdict == "unknown" and p.budget is None:
        return "unknown without a budget"
    if verdict in ("sat", "unsat") and verdict != p.expect:
        return f"wrong verdict {verdict}, expected {p.expect}"
    return None


# ---------------------------------------------------------------------------
# CLI path


class CliRunner:
    """Runs the hotab command on problem files, one process at a time."""

    def __init__(self, problems, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.problems = problems
        self.paths = {}
        for i, p in enumerate(problems):
            path = workdir / f"p{i}.tab"
            path.write_text(p.text, encoding="utf-8")
            self.paths[p.id] = path
        self.process_seconds: list[float] = []

    def _call(self, args: list[str]) -> subprocess.CompletedProcess:
        cmd = [sys.executable, "-m", "hotab.cli", *args]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, env=CLI_ENV,
                             timeout=CLI_TIMEOUT)
        self.process_seconds.append(time.perf_counter() - t0)
        return out

    def __call__(self, p, hotab) -> Outcome:
        hp, _, _, hsem = hotab
        path = self.paths[p.id]
        proof_path = path.with_suffix(".proof")
        if p.budget is None:
            mode = ["--mode", "auto"]
        else:
            mode = ["--mode", p.budget[0], "--max-nodes", str(p.budget[1])]
        t0 = time.perf_counter()
        verdict, failure = None, None
        try:
            run = self._call([str(path), *mode, *NO_TIMEOUT, "--proof-out", str(proof_path)])
            solve = time.perf_counter() - t0
            lines = run.stdout.splitlines()
            first = lines[0] if lines else ""
            expected_code = {"sat": 10, "unsat": 20, "unknown": 30}.get(first)
            if expected_code is None or run.returncode != expected_code:
                err = run.stderr.strip().splitlines()
                failure = f"exit {run.returncode}: {err[-1] if err else first}"[:200]
            else:
                verdict = first
            if verdict == "unsat":
                check = self._call([str(path), "--check-proof", str(proof_path)])
                if check.returncode != 0 or check.stdout.strip() != "proof ok":
                    failure = "proof fails replay"
        except subprocess.TimeoutExpired:
            failure = "timeout"
            solve = time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        if verdict == "sat":
            try:
                problem = hp.parse(p.text)
                model = read_model(lines[1:], problem, hsem)
                if not hsem.check_model(model, problem.assumptions):
                    failure = "model fails check_model"
            except (KeyError, ValueError, IndexError) as ex:
                failure = f"unreadable model: {ex}"[:200]
        proof_path.unlink(missing_ok=True)
        return Outcome(verdict, failure or _judge(p, verdict), seconds, solve)


_TOKEN = re.compile(r"->|[{},]|[^\s{},]+")


def read_model(lines: list[str], problem, hsem):
    """Rebuild a Model from the CLI's `show_model` text.

    A function value lists one cell per element of its domain, in the
    frame's enumeration order, so the table is the list of cell values.
    """
    from hotab.kernel import Base, Fun, o

    sizes = {}
    sorts = {s.name: s for s in problem.sorts}
    values = {}
    for line in lines:
        m = re.match(r"sort (\S+) : (\d+) element", line)
        if m:
            sizes[sorts[m.group(1)]] = int(m.group(2))
            continue
        m = re.match(r"var (\S+) : .* = (.*)$", line)
        if m:
            values[m.group(1)] = m.group(2)
    frame = hsem.Frame(sizes)

    def value(tokens, i, ty):
        if ty == o:
            return int(tokens[i]), i + 1
        if type(ty) is Base:
            tok = tokens[i]
            if not tok.startswith(ty.name):
                raise ValueError(f"bad element {tok!r}")
            return int(tok[len(ty.name):]), i + 1
        assert type(ty) is Fun
        if tokens[i] != "{":
            raise ValueError("expected a table")
        i += 1
        cells = []
        for _ in frame.domain(ty.dom):
            _, i = value(tokens, i, ty.dom)
            if tokens[i] != "->":
                raise ValueError("expected ->")
            v, i = value(tokens, i + 1, ty.cod)
            cells.append(v)
            if tokens[i] not in (",", "}"):
                raise ValueError("expected , or }")
            i += 1
        return tuple(cells), i

    interp = {}
    for n in problem.variables:
        if n.ident in values:
            interp[n] = value(_TOKEN.findall(values[n.ident]), 0, n.ty)[0]
    return hsem.Model(frame, interp)


# ---------------------------------------------------------------------------
# Scheduling and metrics


def run_once(i, p, runner, hotab, runs, tracer=None) -> None:
    """Run problem i once, from a collected heap, and record its outcome."""
    gc.collect()  # garbage of the previous problem is not this one's cost
    start = time.perf_counter()
    if tracer is None:
        runs[i].append(runner(p, hotab))
    else:
        tracer.problem_id = i
        span = tracer.open("harness.problem")
        try:
            runs[i].append(runner(p, hotab))
        finally:
            tracer.close(span)
    runs[i][-1].start = start


def run_interleaved(problems, runner, hotab, runs, seconds: float) -> int:
    """Measure for at most `seconds` (see _schedule); return the number of
    rounds.  Every time is then scaled by the machine speed measured
    around it, and for an in-process run of the first pass or of a heavy
    problem also during it (see speed.py).  A hotab process is not sampled
    while it runs, since the sampling would compete with it for the CPU.
    """
    deadline = time.perf_counter() + seconds
    in_process = runner is run_library
    speed = SpeedLog(SPEED_WINDOW if in_process else CLI_SPEED_WINDOW)

    def run(i, sampled=False):
        busy = speed.busy
        with speed.sampling() if sampled and in_process else contextlib.nullcontext():
            run_once(i, problems[i], runner, hotab, runs)
        runs[i][-1].seconds -= speed.busy - busy
        speed.sample_if_due()

    rounds = _schedule(runs, run, deadline)
    speed.sample()
    for o in (o for outcomes in runs for o in outcomes):
        o.scaled = speed.at_nominal_speed(o.start, o.seconds)
    return rounds


def _schedule(runs, run, deadline) -> int:
    """After a first pass, problems that took HEAVY_SECONDS or more run in
    turn, and after each of them the cheap problems are swept (for at
    least SWEEP_SECONDS, at most SWEEP_MAX times).  A cheap problem's runs
    are thus spread over the whole measurement rather than bunched in one
    stretch of it.  Every problem runs at least twice, and a heavy problem
    that failed no more than that.  After that, a step (one heavy problem
    and one sweep) starts only if it is expected to end before the
    deadline.
    """
    for i in range(len(runs)):
        run(i, sampled=True)  # which problems are heavy is not known yet
    heavy = [i for i, o in enumerate(runs) if o[0].seconds >= HEAVY_SECONDS]
    cheap = [i for i in range(len(runs)) if i not in heavy]
    sweep_seconds = 0.0

    def sweep():
        nonlocal sweep_seconds
        t0 = time.perf_counter()
        for _ in range(SWEEP_MAX):
            for i in cheap:
                run(i)
            if time.perf_counter() - t0 >= SWEEP_SECONDS:
                break
        sweep_seconds = time.perf_counter() - t0

    sweep()
    rounds = 1
    while True:
        again = [i for i in heavy
                 if len(runs[i]) < 2 or not any(o.failure for o in runs[i])]
        for i in again or [None]:
            step = sweep_seconds
            if i is not None:
                step += statistics.median(o.seconds for o in runs[i])
            if rounds >= 2 and deadline - time.perf_counter() < step:
                return rounds
            if i is not None:
                run(i, sampled=True)
            sweep()
        rounds += 1


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def code_hash() -> str:
    """Hash of hotab's and the benchmark's sources: a count record holds
    only for the code and the problems it was made with."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "hotab").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def write_problem_table(path: Path, problems, runs) -> None:
    """One row per problem: its outcome, number of runs and median times."""
    rows = [
        {"id": p.id, "expect": p.expect, "verdict": outcomes[0].verdict,
         "failure": next((o.failure for o in outcomes if o.failure), None),
         "proof_nodes": outcomes[0].proof_nodes, "runs": len(outcomes),
         "seconds": statistics.median(o.seconds for o in outcomes),
         "scaled_seconds": statistics.median(o.scaled for o in outcomes)}
        for p, outcomes in zip(problems, runs)
    ]
    path.write_text(json.dumps(rows, indent=1))


def check_counts(workload, seed, problems, runs, path_name, rule_apps=None) -> list[str]:
    """Verdicts, failures and proof sizes must repeat exactly: across the
    runs of each problem in this process, and across processes running the
    same code and seed (a record per seed is kept in the out directory).
    `path_name` names the way the problems went, library or command: the
    command's outcomes carry no proof size."""
    seen = {}
    mismatches = []
    for p, outcomes in zip(problems, runs):
        for o in outcomes:
            key = {"verdict": o.verdict, "failed": o.failure is not None,
                   "proof_nodes": o.proof_nodes}
            if p.id in seen and seen[p.id] != key:
                mismatches.append(f"{p.id}: {seen[p.id]} then {key}")
            seen.setdefault(p.id, key)
    record = {path_name: seen}
    if rule_apps is not None:
        record["rule_apps"] = rule_apps
    path = OUT / f"counts-{workload}-{seed}-{code_hash()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        for name, old in before.items():
            new = record.get(name)
            if new is not None and new != old:
                mismatches.append(f"{name} differs from an earlier run: {old} vs {new}")
        record = {**before, **record}
    path.write_text(json.dumps(record, sort_keys=True))
    return mismatches


def end_to_end(runs) -> dict:
    """Per problem, the median of its scaled times; then quantiles across
    problems.  problems_per_s divides the problems brought to a verdict by
    the time they take, one run each at those medians."""
    medians = [statistics.median(o.scaled for o in outcomes) for outcomes in runs]
    ok = [not any(o.failure for o in outcomes) for outcomes in runs]
    failed = len(runs) - sum(ok)
    decided = sum(k and outcomes[0].verdict in ("sat", "unsat")
                  for k, outcomes in zip(ok, runs))
    return {
        "verdict_s.p50": (statistics.median(medians), "s"),
        "verdict_s.p90": (quantile(medians, 0.9), "s"),
        "problems_per_s": (sum(ok) / sum(m for m, k in zip(medians, ok) if k), "1/s"),
        "decided_share": (decided / len(runs), "ratio"),
        "ok_share": (1 - failed / len(runs), "ratio"),
    }


def per_layer(tracer, n_problems, solve_seconds, cli_seconds, import_seconds,
              overhead) -> dict:
    total, own, calls = tracer.totals()
    c = tracer.counts
    t = lambda *names: sum(total.get(n, 0.0) for n in names)  # noqa: E731
    rule_apps = c["rule_apps"]
    return {
        "problems.parse_s": (t("problems.parse"), "s"),
        "problems.proof_io_s": (t("problems.serialize_proof", "problems.parse_proof"), "s"),
        "fragments.classify_s": (t("fragments.classify_branch"), "s"),
        "fragments.violation_checks": (c["violation_checks"] / n_problems, "count"),
        "branch.add_calls": (calls.get("branch.add", 0), "count"),
        "branch.add_s": (t("branch.add"), "s"),
        "rules.applicable_calls": (c["applicable_calls"], "count"),
        "rules.applicable_s": (t("rules.applicable_efo", "rules.applicable_stt"), "s"),
        "rules.instances_built": (c["instances_built"], "count"),
        "rules.instance_use_ratio": (rule_apps / max(c["instances_built"], 1), "ratio"),
        "rules.closing_s": (t("rules.closing_instance"), "s"),
        "rules.check_instance_s": (t("rules.check_instance"), "s"),
        "search.rule_apps": (rule_apps, "count"),
        "search.rule_apps_per_s": (rule_apps / solve_seconds, "1/s"),
        "search.proof_nodes": (c["proof_nodes"], "count"),
        "search.fuel_rounds": (c["saturation_rounds"], "count"),
        "search.check_proof_s": (t("search.check_proof"), "s"),
        "search.self_s": (sum(v for k, v in own.items() if k.startswith("search.")), "s"),
        "normalize.apply_norm_calls": (calls.get("normalize.apply_norm", 0), "count"),
        "normalize.apply_norm_s": (t("normalize.apply_norm"), "s"),
        "kernel.apps_built": (c["apps_built"], "count"),
        "semantics.extract_s": (t("semantics.extract_model"), "s"),
        "semantics.evident_s": (t("semantics.is_evident"), "s"),
        "semantics.check_model_s": (t("semantics.check_model"), "s"),
        "semantics.tables_built": (c["tables_built"], "count"),
        "semantics.peak_alloc_mb": (tracer.peak_alloc / 2**20, "MB"),
        "cli.process_s": (statistics.median(cli_seconds), "s"),
        "cli.import_s": (statistics.median(import_seconds), "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def import_probe() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hotab.cli"], env=CLI_ENV,
                   check=True, timeout=CLI_TIMEOUT)
    return time.perf_counter() - t0


def measure(args, workload, hotab, cli: CliRunner) -> dict:
    runs = [[] for _ in workload]
    layer = None
    sample, sample_runs = [], []  # problems run through the CLI, traced runs only
    if args.trace == 0:
        runner = cli if args.workload == "cli" else run_library
        rounds = run_interleaved(workload, runner, hotab, runs, args.seconds)
        e2e = end_to_end(runs)
        write_problem_table(OUT / f"problems-{args.workload}-{args.seed}.json", workload, runs)
        mismatches = check_counts(args.workload, args.seed, workload, runs,
                                  "library" if runner is run_library else "command")
    else:
        from tracer import Tracer

        # each problem runs untraced and then traced, back to back, so the
        # difference is the tracing overhead and not a drift of the machine
        rounds = 2
        tracer = Tracer()
        for i, p in enumerate(workload):
            run_once(i, p, run_library, hotab, runs)
            tracer.install()
            try:
                run_once(i, p, run_library, hotab, runs, tracer)
            finally:
                tracer.uninstall()
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
        e2e = None
        solve_seconds = sum(o[0].solve_seconds for o in runs)
        overhead = sum(o[1].seconds - o[0].seconds for o in runs)
        sample = cli.problems
        sample_runs = [[cli(p, hotab)] for p in sample]
        import_seconds = [import_probe() for _ in range(3)]
        layer = per_layer(tracer, len(workload), solve_seconds, cli.process_seconds,
                          import_seconds, overhead)
        mismatches = check_counts(args.workload, args.seed, workload, runs, "library",
                                  tracer.counts["rule_apps"])

    for p, outcomes in zip(workload + sample, runs + sample_runs):
        failure = next((o.failure for o in outcomes if o.failure), None)
        if failure:
            print(f"FAILED {args.workload}/{p.id}: {failure}", file=sys.stderr)
    for m in mismatches:
        print(f"COUNT MISMATCH {args.workload}: {m}", file=sys.stderr)
    # a problem, not a run of it, is one attempt: how often a problem runs
    # depends on the machine's speed, and a failing heavy problem runs only
    # twice, so counting runs would make the failure rate vary from run to run
    every = runs + sample_runs
    wrong = [o for outcomes in every for o in outcomes
             if o.failure and o.failure.startswith(WRONG)]
    return {
        "correct": not wrong and not mismatches,
        "attempted": len(every),
        "failed": sum(any(o.failure for o in outcomes) for outcomes in every),
        "rounds": rounds,
        "end_to_end": e2e,
        # the worker's and every process it started (CLI runs included)
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        / 1024,
        "per_layer": layer,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # runs the cleanup
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path[:0] = [str(SRC), str(HERE)]
    from hotab import fragments, problems, search, semantics

    if not Path(problems.__file__).resolve().is_relative_to(SRC):
        print(f"hotab imported from {problems.__file__}, not {SRC}", file=sys.stderr)
        return 2

    hotab = (problems, fragments, search, semantics)
    workload = corpus.build(args.workload, args.seed)
    workdir = OUT / f"cli-{os.getpid()}"
    try:
        sample = CLI_SAMPLE.get(args.workload)
        cli = CliRunner(workload if sample is None else
                        [p for p in workload if p.id in sample], workdir)
        gc.collect()
        gc.freeze()  # set-up objects are never garbage: keep them out of collections
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = measure(args, workload, hotab, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
