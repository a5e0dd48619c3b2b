"""Seeded problem families for the benchmark, written as hotab problem text.

Every problem carries a known answer that does not come from `refute` or
`decide`: either the family is sat or unsat by construction, or the answer
is computed at generation time by the brute-force oracle `enumerate_models`
(exact on the families that use it, see the generators).

A problem's `budget` is None when it goes through `decide` (no budget,
terminates on its class) or `(calculus, max_nodes)` when it goes through
`refute` with a node budget and no timeout.  `unknown` is an acceptable
outcome only for budgeted problems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("efo-refute", "models", "stt-search", "cli")

# Node budgets.  Fixed per family so counts repeat exactly from run to run.
CHAIN_BUDGET = 500
RANDOM_EFO_BUDGET = 500
FUNEQ_BUDGET = 200
FUNEQ_SAT_BUDGET = 40
STT_BUDGET = 200


@dataclass(frozen=True)
class Problem:
    id: str
    text: str
    expect: str  # "sat" or "unsat"
    budget: tuple[str, int] | None = None  # None: decide, no budget


# ---------------------------------------------------------------------------
# Fixed families


def _clique_lines(k: int) -> list[str]:
    lines = ["(sort a)"] + [f"(var c{i} a)" for i in range(k)]
    lines += [f"(assume (neq c{i} c{j}))" for i in range(k) for j in range(i + 1, k)]
    return lines


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def clique(k: int) -> Problem:
    # k pairwise-distinct constants: sat, no table to search (the control)
    return Problem(f"clique({k})", _text(_clique_lines(k)), "sat")


def clique_u(k: int) -> Problem:
    # k >= 3 distinct constants in a domain of at most two elements: unsat;
    # the proof doubles with each extra constant
    lines = _clique_lines(k) + ["(assume (forall (x a) (imp (neq x c0) (= x c1))))"]
    return Problem(f"cliqueU({k})", _text(lines), "unsat")


def fclique(k: int) -> Problem:
    # k distinct constants and f c0 /= c0: sat; extraction backtracks over
    # all k^k tables of f
    lines = _clique_lines(k) + ["(var f (> a a))", "(assume (neq (f c0) c0))"]
    return Problem(f"fclique({k})", _text(lines), "sat")


def rel(k: int) -> Problem:
    # k distinct constants, a reflexive r and not r c0 c1: sat (r is the
    # identity); extraction enumerates all tables of a -> a -> o
    lines = _clique_lines(k) + [
        "(var r (> a a o))",
        "(assume (forall (x a) (r x x)))",
        "(assume (not (r c0 c1)))",
    ]
    return Problem(f"rel({k})", _text(lines), "sat")


def chain(n: int) -> Problem:
    # r c0 c1, ..., r c(n-1) cn, transitivity, not r c0 cn: unsat
    lines = ["(sort a)", "(var r (> a a o))"] + [f"(var c{i} a)" for i in range(n + 1)]
    lines += [f"(assume (r c{i} c{i + 1}))" for i in range(n)]
    lines += [
        "(assume (forall (x a) (forall (y a) (forall (z a)"
        " (imp (r x y) (imp (r y z) (r x z)))))))",
        f"(assume (not (r c0 c{n})))",
    ]
    return Problem(f"chain({n})", _text(lines), "unsat", ("efo", CHAIN_BUDGET))


def _nots(n: int, t: str) -> str:
    for _ in range(n):
        t = f"(not {t})"
    return t


def running(d: int, sat: bool = False) -> Problem:
    # p f and not p (lam x. not^2d (f x)): unsat.  With one more negation
    # the lambda denotes the complement of f, and p = {f} is a model.
    n = 2 * d + (1 if sat else 0)
    lines = [
        "(sort a)",
        "(var p (> (> a o) o))",
        "(var f (> a o))",
        "(assume (p f))",
        f"(assume (not (p (lam (x a) {_nots(n, '(f x)')}))))",
    ]
    name = f"running-sat({d})" if sat else f"running({d})"
    return Problem(name, _text(lines), "sat" if sat else "unsat", ("stt", STT_BUDGET))


def boolean_lambda(sat: bool = False) -> Problem:
    # (lam z. z) = (lam z. y) at o -> o is unsat: the sides differ at z = not y.
    # Their disequation is therefore sat.
    rel_ = "neq" if sat else "="
    lines = ["(var y o)", f"(assume ({rel_} (lam (z o) z) (lam (z o) y)))"]
    name = "boolean-lambda-sat" if sat else "boolean-lambda"
    return Problem(name, _text(lines), "sat" if sat else "unsat", ("stt", STT_BUDGET))


def _hs(d: int, t: str) -> str:
    for _ in range(d):
        t = f"(h {t})"
    return t


def funeq(d: int, sat: bool = False) -> Problem:
    # f = g and f (h^d c) /= g (h^d c): unsat.  The variant f (h^d c) /= c is
    # sat (c = 0, h = id, f = g = swap on two elements).
    lines = [
        "(sort a)",
        "(var f (> a a))",
        "(var g (> a a))",
        "(var h (> a a))",
        "(var c a)",
        "(assume (= f g))",
    ]
    if sat:
        lines.append(f"(assume (neq (f {_hs(d, 'c')}) c))")
        return Problem(
            f"funeq-sat({d})", _text(lines), "sat", ("stt", FUNEQ_SAT_BUDGET)
        )
    lines.append(f"(assume (neq (f {_hs(d, 'c')}) (g {_hs(d, 'c')})))")
    return Problem(f"funeq({d})", _text(lines), "unsat", ("stt", FUNEQ_BUDGET))


def deep(n: int) -> Problem:
    # n (even) nested negations of p: sat with p true; only the nesting depth
    # of the input grows
    lines = ["(var p o)", f"(assume {_nots(n, 'p')})"]
    return Problem(f"deep({n})", _text(lines), "sat")


def flat(n: int) -> Problem:
    # p0, p(i) -> p(i+1) for i < n, not pn: unsat; n + 2 assumptions
    lines = [f"(var p{i} o)" for i in range(n + 1)] + ["(assume p0)"]
    lines += [f"(assume (imp p{i} p{i + 1}))" for i in range(n)]
    lines.append(f"(assume (not p{n}))")
    return Problem(f"flat({n})", _text(lines), "unsat")


# ---------------------------------------------------------------------------
# Seeded families; answers from the brute-force oracle


def _oracle_sat(text: str, max_size: int) -> bool:
    from hotab.problems import parse
    from hotab.semantics import enumerate_models

    assumptions = parse(text).assumptions
    return next(enumerate_models(assumptions, max_size), None) is not None


def _rel_term(rng, scope):
    return rng.choice(list(scope) + ["c0", "c1"])


def _rel_literal(rng, scope) -> str:
    roll = rng.random()
    if roll < 0.35:
        atom = f"(p {_rel_term(rng, scope)})"
    elif roll < 0.8:
        atom = f"(r {_rel_term(rng, scope)} {_rel_term(rng, scope)})"
    else:
        atom = f"(= {_rel_term(rng, scope)} {_rel_term(rng, scope)})"
    return f"(not {atom})" if rng.random() < 0.5 else atom


def _rel_quantified(rng, depth: int) -> str:
    # one implication: with two, the search cost grows a heavy tail
    # (a few problems in a hundred reach the node budget)
    scope = ("x", "y", "z")[:depth]
    body = f"(imp {_rel_literal(rng, scope)} {_rel_literal(rng, scope)})"
    for v in reversed(scope):
        body = f"(forall ({v} a) {body})"
    return body


def random_relational(rng, n_sat: int, n_unsat: int) -> list[Problem]:
    """Relational-prefix problems: two universal formulas nesting 2-3
    quantifiers over an implication between literals, plus two ground
    literals.

    The answer is exact: with two constants and no function symbols, a
    satisfiable universal sentence has a model of at most two elements,
    so enumerating models up to size 2 decides it.
    """
    out: list[Problem] = []
    want = {"sat": n_sat, "unsat": n_unsat}
    i = 0
    while any(want.values()):
        lines = [
            "(sort a)",
            "(var c0 a)",
            "(var c1 a)",
            "(var p (> a o))",
            "(var r (> a a o))",
            f"(assume {_rel_quantified(rng, 2)})",
            f"(assume {_rel_quantified(rng, rng.choice((2, 3)))})",
            f"(assume {_rel_literal(rng, ())})",
            f"(assume {_rel_literal(rng, ())})",
        ]
        text = _text(lines)
        expect = "sat" if _oracle_sat(text, 2) else "unsat"
        if want[expect]:
            want[expect] -= 1
            out.append(
                Problem(f"relational#{i}", text, expect, ("efo", RANDOM_EFO_BUDGET))
            )
        i += 1
    return out


def _ground_term(rng) -> str:
    c = rng.choice(("e0", "e1", "e2"))
    return f"(u {c})" if rng.random() < 0.5 else c


def _mismatched_pair(rng) -> tuple[str, str]:
    # top-level heads differ, so the disequation never decomposes
    while True:
        s, t = _ground_term(rng), _ground_term(rng)
        if s.split()[0] != t.split()[0]:  # "(u" or a constant
            return s, t


def random_sat(rng, n_pure: int, n_lambda_free: int) -> list[Problem]:
    """Small satisfiable ground problems over e0..e2 : a.

    Pure ones are two disequations between e's and u-applications
    (u : a -> a); lambda-free ones are two implications between p-atoms
    (p : a -> o), a p-literal and a disequation between constants.  Terms
    have depth <= 1 and disequations have mismatched heads, so a saturated
    branch has at most four discriminants and u at most 4^4 tables: larger
    random problems run into the table blow-up that rel(5) already shows.
    A problem is kept when the oracle finds a model of at most two
    elements, so every kept problem is sat.
    """
    out: list[Problem] = []
    decls = ["(sort a)", "(var e0 a)", "(var e1 a)", "(var e2 a)"]
    i = 0
    while n_pure or n_lambda_free:
        pure = n_pure > 0
        if pure:
            forms = ["(neq {} {})".format(*_mismatched_pair(rng)) for _ in range(2)]
            lines = decls + ["(var u (> a a))"] + [f"(assume {s})" for s in forms]
        else:
            def literal():
                atom = f"(p e{rng.randrange(3)})"
                return f"(not {atom})" if rng.random() < 0.5 else atom

            forms = [f"(imp {literal()} {literal()})" for _ in range(2)]
            forms += [literal(), "(neq e{} e{})".format(*rng.sample(range(3), 2))]
            lines = decls + ["(var p (> a o))"] + [f"(assume {s})" for s in forms]
        text = _text(lines)
        if _oracle_sat(text, 2):
            kind = "pure" if pure else "lambda-free"
            out.append(Problem(f"{kind}#{i}", text, "sat"))
            if pure:
                n_pure -= 1
            else:
                n_lambda_free -= 1
        i += 1
    return out


# ---------------------------------------------------------------------------
# Workloads


def build(workload: str, seed: int) -> list[Problem]:
    """The problems of one workload pass.  The seed picks the random
    problems.  The order is fixed: on the host the benchmark was tuned on,
    shuffling it with the seed moved the medians of millisecond problems
    by up to 15% from seed to seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "efo-refute":
        # search and proof replay: cliqueU grows the proof, chain grows the
        # search until the budget stops it (decided_share moves when search
        # gets smarter), random problems vary the shape
        problems = [clique_u(k) for k in range(3, 8)]
        problems += [chain(n) for n in range(1, 4)]
        problems += random_relational(rng, 1, 1)
    elif workload == "models":
        # model extraction: rel and fclique enumerate function tables (rel(5)
        # runs out of memory), clique has no table and is the control
        problems = [rel(k) for k in range(2, 6)]
        problems += [fclique(k) for k in range(3, 8)]
        problems += [clique(k) for k in range(3, 9)]
        # one of each random kind: they cost about as much as clique(3..6),
        # so more of them would move verdict_s.p50 with the seed
        problems += random_sat(rng, 1, 1)
        # one small refutation, so proof output and replay are timed here too
        problems.append(clique_u(3))
    elif workload == "stt-search":
        # the unrestricted calculus with fuel deepening; funeq stays open at
        # every fuel, so instance generation dominates
        problems = [running(d) for d in range(1, 17)]
        problems += [running(d, sat=True) for d in range(0, 4)]
        problems += [boolean_lambda(), boolean_lambda(sat=True)]
        problems += [funeq(d) for d in range(0, 3)]
        problems += [funeq(d, sat=True) for d in range(0, 3)]
    elif workload == "cli":
        # one hotab process per problem (plus one --check-proof process per
        # proof): interpreter start, import, parsing and proof files weigh
        # most here.  Cheap problems of the other workloads, inputs nested
        # deeper than Python's recursion limit, and a long flat file.
        # (no random relational problems: their cost varies too much with
        # the seed, from one to two processes' worth)
        problems = [clique_u(3), clique_u(4), chain(1)]
        problems += [rel(2), rel(3), fclique(5), clique(3), clique(8)]
        problems += random_sat(rng, 1, 1)
        problems += [running(8), boolean_lambda(sat=True), funeq(0)]
        problems += [deep(100), deep(1000), deep(5000), flat(300)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return problems
