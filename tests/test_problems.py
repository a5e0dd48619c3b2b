"""The reader of problem and proof text: pinned errors and a mutation fuzz.

Each entry of the error tables gives the message, line and column that an
earlier reader (a character lexer, an s-expression tree, then a walk over
the tree) reported, and that the one-pass reader must keep reporting,
except in two marked rows where the reader now accepts more or reports a
`ParseError` in place of a `ValueError`, and in the proof rows whose columns
now count from the line as written (marked re-pinned).  They cover each place
`hotab.problems` raises a `ParseError`, the precedence of an unbalanced
parenthesis over errors found earlier in the text, and inputs with tabs,
CRLF line ends, comments and characters that are whitespace to Python but
part of a symbol here.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from hotab import cli
from hotab.problems import ParseError, parse, parse_proof, serialize_proof
from hotab.search import Refuted, refute

from helpers import Gen

SELF = "(sort a)(var x a)(assume (neq x x))"
FUNS = "(sort a)(var f (> a a))(var x a)(assume (neq f f))"
ALL = "(sort a)(var x a)(assume (forall (y a) (neq y y)))"
IMPS = "(var p o)(var q o)(assume (imp p q))(assume p)(assume (not q))"

# (problem text, message, line, column)
PROBLEM_ERRORS = [
    ("(sort a", "unclosed parenthesis", 1, 1),
    ("(sort a))", "unmatched ')'", 1, 9),
    ("(var x o)\n(assume (x (x)", "unclosed parenthesis", 2, 9),
    ("(assume ())", "empty application", 1, 9),
    ("(var x o)(assume (not x x))", "not takes 1 argument", 1, 18),
    ("(var x o)(assume (imp x))", "imp takes 2 arguments", 1, 18),
    ("(var x o)(assume (= x))", "= takes 2 arguments", 1, 18),
    ("(var x o)(assume (neq x x x))", "neq takes 2 arguments", 1, 18),
    ("(sort a)(assume (forall (x a)))", "forall takes 2 arguments", 1, 17),
    ("(sort a)(assume (lam (x a) x x))", "lam takes 2 arguments", 1, 17),
    ("(var x o)(assume (x))", "application needs at least one argument", 1, 18),
    ("(assume x)", "undeclared name 'x'", 1, 9),
    ("(sort a)\n(var x a)\n(assume (= x zz))", "undeclared name 'zz'", 3, 14),
    ("(var f (> a o))", "undeclared sort 'a'", 1, 11),
    ("(var not o)", "'not' is reserved", 1, 6),
    ("(sort lam)", "'lam' is reserved", 1, 7),
    ("(sort a)(assume (forall (imp a) (= imp imp)))", "'imp' is reserved", 1, 26),
    ("(sort a)(assume (forall x (= x x)))", "expected a binder: (name type)", 1, 25),
    ("(sort a)(assume (lam (x a b) x))", "expected a binder: (name type)", 1, 22),
    ("(sort a)(assume (lam ((x) a) x))", "expected a binder: (name type)", 1, 22),
    (
        "(sort a)(assume (forall (f (> a o)) (= f f)))",
        "quantification needs a declared sort, got (> a o)", 1, 25,
    ),
    ("(assume (forall (x o) x))", "quantification needs a declared sort, got o", 1, 17),
    (
        "(var x o)(assume (= x (lam (z o) z)))",
        "equation between distinct types o and (> o o)", 1, 18,
    ),
    (
        "(sort a)(var p (> a o))(assume (p p))",
        "type mismatch in application: expected a, got p : (> a o)", 1, 35,
    ),
    ("(sort a)(var x a)(assume (x x))", "cannot apply non-function x : a", 1, 29),
    ("(sort a)(var x a)(assume x)", "assumption must have type o, got a", 1, 26),
    (
        "(sort a)(assume (forall (x a) (lam (y a) y)))",
        "forall needs a predicate, got (> a a a)", 1, 17,
    ),
    ("(sort a)(sort a)", "duplicate sort 'a'", 1, 15),
    ("(sort a)(var x a)(var x o)", "duplicate variable 'x'", 1, 23),
    ("(frob x)", "unknown form 'frob'", 1, 2),
    ("x", "expected (sort ...), (var ...), or (assume ...)", 1, 1),
    ("()", "expected (sort ...), (var ...), or (assume ...)", 1, 1),
    ("((sort a))", "expected (sort ...), (var ...), or (assume ...)", 1, 1),
    ("(sort)", "expected (sort name)", 1, 1),
    ("(sort a b)", "expected (sort name)", 1, 1),
    ("(sort (a))", "expected (sort name)", 1, 1),
    ("(var x)", "expected (var name type)", 1, 1),
    ("(var (x) o)", "expected (var name type)", 1, 1),
    ("(var x zz extra)", "expected (var name type)", 1, 1),
    ("(assume)", "expected (assume term)", 1, 1),
    ("(var x o)(assume x x)", "expected (assume term)", 1, 10),
    ("(var f (a o))", "expected a type: o, a sort, or (> ...)", 1, 8),
    ("(var f ())", "expected a type: o, a sort, or (> ...)", 1, 8),
    ("(var f (> o))", "(> ...) needs at least two types", 1, 8),
    ("(var f (> zz))", "(> ...) needs at least two types", 1, 8),
    ("(var f (> o zz))", "undeclared sort 'zz'", 1, 13),
    ("(assume (not zz yy))", "not takes 1 argument", 1, 9),
    ("(assume (= (lam (x zz) x)))", "= takes 2 arguments", 1, 9),
    ("(sort a)\n\t(var x\ta)\n\t(assume  (= x\tzz))", "undeclared name 'zz'", 3, 16),
    ("(sort a)\r\n(var x a)\r\n(assume (= x zz))\r\n", "undeclared name 'zz'", 3, 14),
    (
        "; header (\n(sort a) ; a sort )\n(var x a)(assume (= x q)) ; trailing",
        "undeclared name 'q'", 3, 23,
    ),
    ("(assume zz)\n(sort a)\n(var x a)\n(assume (= x x)", "unclosed parenthesis", 4, 1),
    ("(assume zz)\n(assume yy)", "undeclared name 'zz'", 1, 9),
    ("(var x o)\n(assume x))\n(assume (", "unmatched ')'", 2, 11),
    (
        "(var x o)\x0c(assume x)",
        "expected (sort ...), (var ...), or (assume ...)", 1, 10,
    ),
    ("(var x\xa0y o)(assume x)", "undeclared name 'x'", 1, 20),
    ("(var é o)(assume (é zz))", "undeclared name 'zz'", 1, 21),
    ("(var p o)(assume (imp p (p p)))", "cannot apply non-function p : o", 1, 28),
    (
        "(var x o)(assume (lam (y o) y))",
        "assumption must have type o, got (> o o)", 1, 18,
    ),
    (
        "(sort a)(var x a)(assume (forall (y a) x))",
        "forall needs a predicate, got (> a a)", 1, 26,
    ),
    ("(var o o)", "'o' is reserved", 1, 6),
    (
        "(var x o)(assume ((lam (y o) y) x x x))",
        "cannot apply non-function ((lam (y o) y) x) : o", 1, 35,
    ),
]

# (problem text, proof text, message, line, column); a proof text is read
# line by line, and its columns count from the line as written (the earlier
# readers counted term errors from the first character after the dots, and
# alternative-index errors from the first one that is not whitespace)
PROOF_ERRORS = [
    (SELF, "", "empty proof", None, None),
    (SELF, "; only a comment\n\n", "empty proof", None, None),
    (SELF, "frobnicate ((neq x x))", "unknown rule 'frobnicate'", 1, 1),
    (
        SELF,
        "decompose ((neq x x))\ndecompose ((neq x x))",
        "a proof has a single root line", 2, 1,
    ),
    (SELF, ". 0 decompose ((neq x x))", "indentation skips a level", 1, 1),
    (SELF, "decompose ((neq x x)) (x)", "decompose takes no instantiation", 1, 1),
    (
        SELF,
        "mate ((neq x x))",
        "mate: premises have the wrong shape: (not (= x x))", 1, 1,
    ),
    (SELF, "decompose ((neq x zz))", "undeclared name 'zz'", 1, 19),
    (SELF, "decompose", "expected a premise list", 1, 1),
    (SELF, "decompose (neq x x)", "undeclared name 'neq'", 1, 12),
    (SELF, "decompose x", "expected a premise list", 1, 1),
    (SELF, "(decompose) ((neq x x))", "expected a rule name", 1, 1),
    (SELF, ". decompose ((neq x x))", "expected an alternative index", 1, 2),
    (SELF, "...", "expected an alternative index", 1, 4),
    (SELF, ". a decompose ((neq x x))", "expected an alternative index", 1, 2),
    (SELF, "decompose ((neq x x)", "unclosed parenthesis", 1, 11),
    (SELF, "decompose ((neq x x)))", "unmatched ')'", 1, 22),
    (SELF, "decompose\t((neq x\tzz))", "undeclared name 'zz'", 1, 19),
    (SELF, "; header\ndecompose ((neq x zz)) ; why", "undeclared name 'zz'", 2, 19),
    (SELF, "decompose ((neq x zz))\r\n", "undeclared name 'zz'", 1, 19),
    (SELF, "  decompose ((neq x x))  \n  . 0 frob", "unknown rule 'frob'", 2, 1),
    # leading whitespace counts (added with the true columns)
    (SELF, "  decompose ((neq x zz))", "undeclared name 'zz'", 1, 21),
    (SELF, "\t. decompose ((neq x x))", "expected an alternative index", 1, 3),
    (
        SELF,
        "decompose ((= x x))",
        "decompose: premises have the wrong shape: (= x x)", 1, 1,
    ),
    (SELF, "decompose ((neq x (x x)))", "cannot apply non-function x : a", 1, 22),
    (
        SELF,
        "decompose ((neq x x) (neq (lam (y a) y) x))",
        "equation between distinct types (> a a) and a", 1, 22,
    ),
    (SELF, "decompose ()", "decompose: premises have the wrong shape: ", 1, 1),
    (SELF, ")", "unmatched ')'", 1, 1),
    (SELF, "decompose ((neq x x)) (x) (y)", "decompose takes no instantiation", 1, 1),
    (
        ALL,
        "forall-inst ((forall (y a) (neq y y)))",
        "forall-inst needs an instantiation", 1, 1,
    ),
    (
        ALL,
        "forall-inst ((forall (y a) (neq y y))) (x x)",
        "forall-inst takes one instantiation term", 1, 1,
    ),
    (
        ALL,
        "forall-inst ((forall (y a) (neq y y))) ()",
        "forall-inst takes one instantiation term", 1, 1,
    ),
    (
        ALL,
        "forall-inst ((forall (y a) (neq y y))) (x) (x)",
        "forall-inst needs an instantiation", 1, 1,
    ),
    (
        ALL,
        "forall-inst ((forall (y a) (neq y y))) (zz) (x)",
        "forall-inst needs an instantiation", 1, 1,
    ),
    # an undeclared name as the whole instantiation is a new variable of the
    # quantifier's sort (the earlier reader said "undeclared name 'zz'")
    (
        ALL,
        "forall-inst ((forall (y a) (neq y y))) (zz)",
        "forall-inst has 1 alternatives, 0 subtrees given", 1, 1,
    ),
    (
        ALL,
        "forall-inst ((forall (y a) (neq y y))) x",
        "forall-inst needs an instantiation", 1, 1,
    ),
    (
        ALL,
        "forall-inst ((forall (y a) (neq y y))) ((= x x))",
        "type mismatch in application: expected a, got (= x x) : o", 1, 1,
    ),
    (
        ALL,
        "forall-inst ((forall (y a) (neq y y))) (x)\n. 0 decompose ((neq x zz))",
        "undeclared name 'zz'", 2, 23,  # re-pinned: 2, 22 before
    ),
    (FUNS, "fun-ext ((neq f f)) (x a)", "witness 'x' is already in scope", 1, 1),
    (FUNS, "fun-ext ((neq f f)) x", "fun-ext needs an instantiation", 1, 1),
    (FUNS, "fun-ext ((neq f f)) (w)", "expected a binder: (name type)", 1, 21),
    (FUNS, "fun-ext ((neq f f)) (w a b)", "expected a binder: (name type)", 1, 21),
    (FUNS, "fun-ext ((neq f f)) (not a)", "'not' is reserved", 1, 22),
    (FUNS, "fun-ext ((neq f f)) (w zz)", "undeclared sort 'zz'", 1, 24),
    (FUNS, "fun-ext ((neq f f)) (w zz) extra", "fun-ext needs an instantiation", 1, 1),
    (
        FUNS,
        "fun-ext ((neq f f)) (w a)\n"
        ". 0 decompose ((neq (f w) (f w)))\n"
        ".. 0 decompose ((neq w zz))",
        "undeclared name 'zz'", 3, 24,  # re-pinned: 3, 22 before
    ),
    (
        FUNS,
        "fun-ext ((neq f f)) (w a)\n"
        ". 0 decompose ((neq (f w) (f w)))\n"
        ". 1 decompose ((neq w w))",
        "decompose has 1 alternatives, 0 subtrees given", 2, 1,
    ),
    (
        IMPS,
        "imp ((imp p q))\n. 1 mate (p (not p))",
        "alternative 0 expected, got 1", 2, 2,
    ),
    (
        IMPS,
        "imp ((imp p q))\n   . 1 mate (p (not p))",
        "alternative 0 expected, got 1", 2, 5,
    ),
    (
        IMPS,
        "imp ((imp p q))\n. 0 mate (p (not p))\nmate (q",
        "unclosed parenthesis", 3, 6,
    ),
    (
        IMPS,
        "imp ((imp p q))\n. 0 mate (p (not p))\nmate (q (not q))",
        "imp has 2 alternatives, 1 subtrees given", 1, 1,
    ),
    (
        IMPS,
        "imp ((imp p q))\n. 0 mate (p (not p))\n.. 0 mate (q (not q))",
        "mate has 0 alternatives, 1 subtrees given", 2, 1,
    ),
    (
        IMPS,
        "imp ((imp p q))\n. 0 mate (p (not p))\n"
        ". 1 mate (q (not q))\n. 2 mate (q (not q))",
        "imp has 2 alternatives, 3 subtrees given", 1, 1,
    ),
    (
        IMPS,
        "imp ((imp p q))\n. 0 mate (p (not p))\n. 1 mate (q (not q)) (p)",
        "mate takes no instantiation", 3, 1,
    ),
    (
        IMPS,
        "imp ((imp p q))\n.\t0 mate (p (not p))",
        "imp has 2 alternatives, 1 subtrees given", 1, 1,
    ),
    (
        IMPS,
        "imp ((imp p q))\n. 0 mate (p (not p))\r. 1 mate (q (not q)) extra",
        "mate takes no instantiation", 3, 1,
    ),
    (
        IMPS,
        "mate (p (not p))\n. 0 mate (p (not p))",
        "mate has 0 alternatives, 1 subtrees given", 1, 1,
    ),
    (
        IMPS,
        "imp ((imp p q))\n. 0 mate (p (not p))\n. 1 mate (q (not q))\n\u2028. 2 x",
        "unknown rule 'x'", 5, 1,
    ),
    (
        IMPS,
        "imp ((imp p q))\n. \u0661 mate (p (not p))",
        "alternative 0 expected, got 1", 2, 2,
    ),
    # a digit that int() cannot read (the earlier reader raised ValueError)
    (
        IMPS,
        "imp ((imp p q))\n. \u00b2 mate (p (not p))",
        "expected an alternative index", 2, 2,
    ),
]


def _raised(fn, *args) -> tuple[str, int | None, int | None]:
    with pytest.raises(ParseError) as e:
        fn(*args)
    return str(e.value), e.value.line, e.value.col


def _where(msg, line, col) -> tuple[str, int | None, int | None]:
    return (f"{line}:{col}: {msg}" if line is not None else msg), line, col


@pytest.mark.parametrize("text, msg, line, col", PROBLEM_ERRORS)
def test_problem_errors_keep_message_and_position(text, msg, line, col):
    assert _raised(parse, text) == _where(msg, line, col)


@pytest.mark.parametrize("problem, text, msg, line, col", PROOF_ERRORS)
def test_proof_errors_keep_message_and_position(problem, text, msg, line, col):
    assert _raised(parse_proof, text, parse(problem)) == _where(msg, line, col)


# ---------------------------------------------------------------------------
# Ill-typed operands of `not` and `imp`


@pytest.mark.parametrize(
    "text, msg, col",
    [
        ("(assume (not c))", "expected o, got c : a", 35),
        ("(assume (imp c p))", "expected o, got c : a", 35),
        ("(assume (imp p c))", "expected o, got c : a", 35),
        ("(assume (imp p (not (not c))))", "expected o, got c : a", 47),
    ],
)
def test_ill_typed_connective_operands_are_parse_errors(text, msg, col):
    problem = "(sort a)(var c a)(var p o)" + text
    assert _raised(parse, problem) == _where(
        f"type mismatch in application: {msg}", 1, col
    )


def test_ill_typed_connective_operands_in_proofs_are_parse_errors():
    problem = parse("(sort a)(var c a)(assume (neq c c))")
    assert _raised(parse_proof, "decompose ((not c))", problem) == _where(
        "type mismatch in application: expected o, got c : a", 1, 12
    )


def test_ill_typed_connective_operands_exit_2(tmp_path, capsys):
    path = tmp_path / "problem.p"
    path.write_text("(sort a)(var c a)(assume (not c))")
    assert cli.main([str(path)]) == 2
    assert "1:26: type mismatch" in capsys.readouterr().err
    path.write_text("(sort a)(var c a)(assume (neq c c))")
    proof = tmp_path / "bad.proof"
    proof.write_text("decompose ((not c))\n")
    assert cli.main([str(path), "--check-proof", str(proof)]) == 2
    err = capsys.readouterr().err
    assert "1:12: type mismatch" in err and "internal error" not in err


# ---------------------------------------------------------------------------
# Mutation fuzz: the reader returns or raises ParseError, nothing else


def _benchmark_texts() -> list[str]:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # dataclasses looks the module up
    spec.loader.exec_module(corpus)
    texts = []
    for workload in corpus.WORKLOADS:
        for problem in corpus.build(workload, 1):
            # deep(1000) and deep(5000) nest beyond Python's recursion limit
            # (ROADMAP item 5); they fail before and after any mutation
            if not problem.id.startswith("deep(") or problem.id == "deep(100)":
                texts.append(problem.text)
    return texts


_PIECE = re.compile(r"[()]|[^ \t\r\n();]+")


def _mutate(text: str, rng) -> str:
    """One edit: a character or token deleted, inserted, replaced or
    duplicated, or a parenthesised group replaced by one of its items."""
    toks = [m.span() for m in _PIECE.finditer(text)]
    kind = rng.randrange(6)
    if kind == 0 or not toks:
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice("() \t\n\r;x0.é\f\xa0") + text[i:]
    if kind == 1:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1 :]
    s, e = rng.choice(toks)
    if kind == 2:
        return text[:s] + text[e:]
    if kind == 3:
        s2, e2 = rng.choice(toks)
        return text[:s] + text[s2:e2] + text[e:]
    if kind == 4:
        return text[:e] + " " + text[s:e] + text[e:]
    opens = [k for k, (s, e) in enumerate(toks) if text[s] == "("]
    if not opens:
        return text
    k = rng.choice(opens)
    items, depth = [], 0  # [start, end] of each item of the group
    for s, e in toks[k + 1 :]:
        c = text[s]
        if depth == 0:
            if c == ")":
                if not items:
                    return text
                i0, i1 = rng.choice(items)
                return text[: toks[k][0]] + text[i0:i1] + text[e:]
            items.append([s, e])
        depth += (c == "(") - (c == ")")
        items[-1][1] = e
    return text


def _outcome(fn, *args) -> str:
    try:
        fn(*args)
    except ParseError:
        return "error"
    return "ok"


def test_mutated_texts_parse_or_raise_parse_error():
    g = Gen(9)
    texts = _benchmark_texts()
    proofs = []
    for text in texts[:8]:  # efo-refute's cliques and chains, refuted fast
        problem = parse(text)
        verdict = refute(problem.branch())
        if isinstance(verdict, Refuted):
            proofs.append((problem, serialize_proof(verdict.proof)))
    assert len(proofs) >= 5
    crashes, seen = [], {"ok": 0, "error": 0}
    for _ in range(1500):
        mutant = _mutate(g.rng.choice(texts), g.rng)
        try:
            seen[_outcome(parse, mutant)] += 1
        except Exception as ex:  # anything but ParseError is the failure
            crashes.append((mutant, repr(ex)))
        problem, proof = g.rng.choice(proofs)
        mutant = _mutate(proof, g.rng)
        try:
            seen[_outcome(parse_proof, mutant, problem)] += 1
        except Exception as ex:  # anything but ParseError is the failure
            crashes.append((mutant, repr(ex)))
    assert not crashes, crashes[:3]
    assert seen["ok"] > 100 and seen["error"] > 1000
