"""Problem files, proof files, and the command-line front end."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hotab import cli
from hotab.branch import branch_of
from hotab.fragments import classify_branch, decide
from hotab.kernel import (
    Base,
    Fun,
    Name,
    app,
    eq,
    forall,
    fun,
    lam,
    neg,
    o,
    ref,
    show_term,
    show_type,
    sort,
)
from hotab.normalize import normalize
from hotab.problems import (
    ParseError,
    Problem,
    parse,
    parse_proof,
    serialize_problem,
    serialize_proof,
)
from hotab.models import Frame, Model, check_model
from hotab.rules import RuleId, check_proof
from hotab.search import Refuted, SearchConfig, refute
from hotab.semantics import sorts_in, variables_in

from helpers import Gen, acceptance_corpus

a = sort("a")


def app_(f, *args):
    from hotab.kernel import app

    for u in args:
        f = app(f, u)
    return f

RUNNING = """\
(sort a)
(var f (> a o))
(var p (> (> a o) o))
(assume (p f))
(assume (not (p (lam (x a) (not (not (f x)))))))
"""

BOOLEAN_LAM = """\
(var x o) (var y o)
(assume (= (lam (z o) z) (lam (z o) y)))
"""


# ---------------------------------------------------------------------------
# Problem grammar


def test_running_example_problem_parses():
    p = parse(RUNNING)
    assert [s.name for s in p.sorts] == ["a"]
    f, pv = p.variables
    assert (f.ident, f.ty) == ("f", fun(a, o))
    assert (pv.ident, pv.ty) == ("p", fun(fun(a, o), o))
    xa = Name("x", a)
    expected = (
        app_(ref(pv), ref(f)),
        neg(app_(ref(pv), lam(xa, neg(neg(app_(ref(f), ref(xa))))))),
    )
    assert p.assumptions == expected
    assert p.notices == ()
    assert set(p.branch().formulas) == set(expected)


def test_boolean_lambda_problem_parses():
    p = parse(BOOLEAN_LAM)
    (s,) = p.assumptions
    z = Name("z", o)
    y = next(n for n in p.variables if n.ident == "y")
    assert s == eq(lam(z, ref(z)), lam(z, ref(y)))


def test_arrow_types_are_right_associative():
    p = parse("(sort a)\n(var f (> a a o))\n(var g (> a (> a o)))\n")
    f, g = p.variables
    assert f.ty == g.ty == Fun(a, Fun(a, o))


def test_neq_abbreviates_negated_equation():
    p = parse("(sort a)(var x a)(var y a)(assume (neq x y))")
    x, y = p.variables
    assert p.assumptions == (neg(eq(ref(x), ref(y))),)


def test_binders_shadow_declarations_and_each_other():
    p = parse(
        "(sort a)(var x a)(var q (> a a o))"
        "(assume (forall (x a) (forall (x a) (q x x))))"
    )
    (s,) = p.assumptions
    # the body applies q to the innermost binder twice; spelling the same
    # closed term by hand must agree
    x1, x2 = Name("x", a), Name("u", a)
    q = next(n for n in p.variables if n.ident == "q")
    hand = forall(lam(x1, forall(lam(x2, app_(ref(q), ref(x2), ref(x2))))))
    assert s == hand


def test_assumptions_are_normalized_with_a_notice():
    p = parse(
        "(sort a)(var p (> a o))(var y a)(assume ((lam (x a) (p x)) y))"
    )
    (s,) = p.assumptions
    pv, y = p.variables
    assert s == app_(ref(pv), ref(y))
    assert len(p.notices) == 1
    assert "normalized" in p.notices[0]


def test_undeclared_name_has_a_position():
    with pytest.raises(ParseError) as e:
        parse("(assume x)")
    assert (e.value.line, e.value.col) == (1, 9)
    with pytest.raises(ParseError) as e:
        parse("(sort a)\n(var x a)\n(assume (= x zz))")
    assert e.value.line == 3
    assert "zz" in str(e.value)


def test_duplicates_and_reserved_words_are_rejected():
    with pytest.raises(ParseError, match="duplicate sort"):
        parse("(sort a)(sort a)")
    with pytest.raises(ParseError, match="duplicate variable"):
        parse("(sort a)(var x a)(var x o)")
    with pytest.raises(ParseError, match="reserved"):
        parse("(var not o)")
    with pytest.raises(ParseError, match="reserved"):
        parse("(sort lam)")
    with pytest.raises(ParseError, match="reserved"):
        parse("(sort a)(assume (forall (imp a) (= imp imp)))")


def test_sorts_must_be_declared_before_use():
    with pytest.raises(ParseError, match="undeclared sort"):
        parse("(var f (> a o))")


def test_assumptions_must_be_propositions():
    with pytest.raises(ParseError, match=r"type o, got a"):
        parse("(sort a)(var x a)(assume x)")


def test_type_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse("(var x o)(assume (= x (lam (z o) z)))")
    assert "distinct types" in str(e.value)
    with pytest.raises(ParseError):
        parse("(sort a)(var p (> a o))(assume (p p))")


def test_quantifier_binders_need_sorts():
    with pytest.raises(ParseError, match="declared sort"):
        parse("(sort a)(assume (forall (f (> a o)) (= f f)))")
    with pytest.raises(ParseError, match="declared sort"):
        parse("(assume (forall (x o) x))")


def test_malformed_applications_are_rejected():
    with pytest.raises(ParseError, match="empty application"):
        parse("(assume ())")
    with pytest.raises(ParseError, match="at least one argument"):
        parse("(var x o)(assume (x))")
    with pytest.raises(ParseError, match="unclosed"):
        parse("(sort a")
    with pytest.raises(ParseError, match="unmatched"):
        parse("(sort a))")


def test_comments_are_ignored():
    p = parse("; a problem\n(var x o) ; the variable\n(assume x);end")
    assert len(p.assumptions) == 1


def test_serialize_problem_round_trips():
    for text in (RUNNING, BOOLEAN_LAM):
        p = parse(text)
        again = parse(serialize_problem(p))
        assert again == p
        assert serialize_problem(again) == serialize_problem(p)


def test_serialize_problem_eta_expands_a_bare_quantifier():
    # a quantifier over a term that is not an abstraction has no grammar form:
    # it is written eta-expanded, parsing gives the expanded problem, and its
    # text is the same
    f, r = Name("f", fun(a, o)), Name("r", fun(a, a, o))
    x, y = Name("x0", a), Name("y", a)
    cases = [
        # acceptance corpus entry 1 (lambda-free)
        (
            (forall(ref(f)), neg(app(ref(f), ref(y)))),
            (forall(lam(x, app(ref(f), ref(x)))), neg(app(ref(f), ref(y)))),
        ),
        # under a binder, where the operand has a dangling index
        (
            (neg(forall(lam(y, forall(app(ref(r), ref(y)))))),),
            (neg(forall(lam(y, forall(lam(x, app(ref(r), ref(y), ref(x))))))),),
        ),
    ]
    for built, expanded in cases:
        p = Problem(sorts_in(built), variables_in(built), built)
        text = serialize_problem(p)
        again = parse(text)
        assert (again.sorts, again.variables) == (p.sorts, p.variables)
        assert again.assumptions == expanded, text
        assert serialize_problem(again) == text



def test_proofs_of_library_built_problems_parse_back():
    # each refutation of the acceptance corpus, written as a problem file and
    # a proof file: both parse, and the proof replays against the parsed
    # problem.  A bare quantifier premise is written eta-expanded, as
    # serialize_problem writes the assumption it comes from
    refuted = 0
    for tag, forms in acceptance_corpus():
        v = decide(branch_of(*forms))
        if not isinstance(v, Refuted):
            continue
        built = Problem(sorts_in(forms), variables_in(forms), forms)
        problem = parse(serialize_problem(built))
        proof = parse_proof(serialize_proof(v.proof), problem)
        assert check_proof(problem.branch(), proof, "efo"), (tag, forms)
        refuted += 1
    assert refuted == 19

def _decls_for(formulas):
    """Sort and variable declaration lines covering the formulas."""

    def sorts_of(ty, acc):
        if isinstance(ty, Base):
            if ty != o:
                acc.add(ty)
        else:
            sorts_of(ty.dom, acc)
            sorts_of(ty.cod, acc)

    names = sorted(variables_in(formulas), key=lambda n: n.ident)
    sorts: set[Base] = set(sorts_in(formulas))
    for n in names:
        sorts_of(n.ty, sorts)
    lines = [f"(sort {s.name})" for s in sorted(sorts, key=lambda s: s.name)]
    lines += [f"(var {n.ident} {show_type(n.ty)})" for n in names]
    return "\n".join(lines), names


def test_printed_terms_reparse_to_the_same_term():
    # the printer promises grammar-exactness; drive it with both term
    # languages and feed the output back through the parser
    hits = 0
    for seed in range(120):
        g = Gen(seed + 31000)
        forms = [normalize(g.formula(2)), normalize(g.efo_formula(2, quasi=True))]
        decls, _ = _decls_for(forms)
        for s in forms:
            text = f"{decls}\n(assume {show_term(s)})"
            p = parse(text)
            assert p.assumptions == (s,), text
            hits += 1
    assert hits >= 200


def test_binders_past_the_sixth_print_with_numbered_names_and_reparse():
    # the display names run x y z u v w, then x1 y1 ...: an 8-deep
    # abstraction at a, compared with itself so that it is a formula
    names = [Name(f"b{i}", a) for i in range(8)]
    t = ref(names[-1])
    for n in reversed(names):
        t = lam(n, t)
    text = show_term(t)
    assert text == (
        "(lam (x a) (lam (y a) (lam (z a) (lam (u a) (lam (v a) (lam (w a) "
        "(lam (x1 a) (lam (y1 a) y1))))))))"
    )
    assert parse(f"(sort a)(assume (= {text} {text}))").assumptions == (eq(t, t),)


# ---------------------------------------------------------------------------
# Proof files


def test_proof_file_round_trips_on_the_running_example():
    problem = parse(RUNNING)
    verdict = refute(problem.branch())
    assert isinstance(verdict, Refuted)
    text = serialize_proof(verdict.proof)
    again = parse_proof(text, problem)
    assert again == verdict.proof
    assert check_proof(problem.branch(), again)
    assert serialize_proof(again) == text


def test_proof_file_round_trips_instantiation_rules():
    # quantifier instantiation carries a term, witness rules a typed name
    problem = parse(
        "(sort a)(var p (> a o))(var y a)"
        "(assume (forall (x a) (p x)))(assume (not (p y)))"
    )
    verdict = refute(problem.branch())
    assert isinstance(verdict, Refuted)
    text = serialize_proof(verdict.proof)
    assert "forall-inst" in text and "(y)" in text
    again = parse_proof(text, problem)
    assert again == verdict.proof and check_proof(problem.branch(), again)

    problem2 = parse(BOOLEAN_LAM)
    verdict2 = refute(problem2.branch(), SearchConfig(calculus="stt"))
    text2 = serialize_proof(verdict2.proof)
    assert "fun-eq" in text2
    again2 = parse_proof(text2, problem2)
    assert again2 == verdict2.proof
    assert check_proof(problem2.branch(), again2, calculus="stt")


def test_deep_proofs_compare_without_recursion():
    # p0, p(i) -> p(i+1), not p300: a 601-node proof, 301 levels deep
    n = 300
    lines = [f"(var p{i} o)" for i in range(n + 1)] + ["(assume p0)"]
    lines += [f"(assume (imp p{i} p{i + 1}))" for i in range(n)]
    lines.append(f"(assume (not p{n}))")
    problem = parse("\n".join(lines))
    verdict = refute(problem.branch())
    assert isinstance(verdict, Refuted) and verdict.proof.size() == 2 * n + 1
    text = serialize_proof(verdict.proof)
    again = parse_proof(text, problem)
    assert again == verdict.proof and hash(again) == hash(verdict.proof)
    # the deepest leaf closed by the leaf rule instead: same shape, other proof
    head, last = text.rstrip("\n").rsplit("\n", 1)
    assert last.endswith(f"mate (p{n} (not p{n}))")
    tampered = parse_proof(
        head + "\n" + last.replace(" mate ", " close-compl ") + "\n", problem
    )
    assert tampered.size() == verdict.proof.size()
    assert tampered != verdict.proof and verdict.proof != tampered


def test_hand_written_proof_with_comments_checks():
    problem = parse("(sort a)(var x a)(assume (neq x x))")
    text = "decompose ((neq x x))  ; closes by reflexivity\n"
    proof = parse_proof(text, problem)
    assert proof.instance.rule is RuleId.DECOMPOSE
    assert proof.children == ()
    assert check_proof(problem.branch(), proof)


def test_parse_proof_rejects_malformed_files():
    problem = parse("(sort a)(var x a)(assume (neq x x))")
    cases = {
        "": "empty proof",
        "frobnicate ((neq x x))": "unknown rule",
        "decompose ((neq x x))\ndecompose ((neq x x))": "single root",
        ". 0 decompose ((neq x x))": "skips a level",
        "decompose ((neq x x)) (x)": "takes no instantiation",
        "mate ((neq x x))": "wrong shape",
        "decompose ((neq x zz))": "undeclared name",
    }
    for text, msg in cases.items():
        with pytest.raises(ParseError, match=msg):
            parse_proof(text, problem)


def test_parse_proof_checks_alternative_indices_and_arity():
    problem = parse(RUNNING)
    good = serialize_proof(refute(problem.branch()).proof)
    # renumber a child line out of order
    broken = good.replace("... 1 close-compl", "... 0 close-compl")
    with pytest.raises(ParseError, match="alternative"):
        parse_proof(broken, problem)
    # drop a required subtree
    truncated = "\n".join(good.splitlines()[:-1])
    with pytest.raises(ParseError, match="subtrees"):
        parse_proof(truncated, problem)
    # the alternative index must be present on nested lines
    with pytest.raises(ParseError, match="alternative index"):
        parse_proof(". decompose ((neq x x))", problem)


def test_parse_proof_rejects_witness_shadowing():
    problem = parse("(sort a)(var f (> a a))(var x a)(assume (neq f f))")
    shadowed = (
        "fun-ext ((neq f f)) (x a)\n"
        ". 0 decompose ((neq (f x) (f x)))\n"
        ".. 0 decompose ((neq x x))\n"
    )
    with pytest.raises(ParseError, match="already in scope"):
        parse_proof(shadowed, problem)
    # the same proof under a genuinely fresh witness parses and checks
    ok = (
        "fun-ext ((neq f f)) (w a)\n"
        ". 0 decompose ((neq (f w) (f w)))\n"
        ".. 0 decompose ((neq w w))\n"
    )
    proof = parse_proof(ok, problem)
    assert proof.instance.rule is RuleId.FUN_EXT
    assert check_proof(problem.branch(), proof)


def test_parse_proof_witness_scope_reaches_subtrees():
    # the witness from the root line must resolve in every nested premise;
    # parsing succeeds even though replay rejects the fabricated mates
    problem = parse("(sort a)(var f (> a o))(var g (> a o))(assume (neq f g))")
    text = (
        "fun-ext ((neq f g)) (x0 a)\n"
        ". 0 bool-ext ((neq (f x0) (g x0)))\n"
        ".. 0 mate ((f x0) (not (f x0)))\n"
        "... 0 decompose ((neq x0 x0))\n"
        ".. 1 mate ((g x0) (not (g x0)))\n"
        "... 0 decompose ((neq x0 x0))\n"
    )
    proof = parse_proof(text, problem)
    assert proof.size() == 6
    assert check_proof(problem.branch(), proof) is False


def test_parse_proof_types_a_new_variable_as_its_rule_instantiates():
    # fun-eq's new variable has the domain type a, and its subtree sees it
    problem = parse("(sort a)(var f (> a o))(var g (> a o))(assume (= f g))")
    text = "fun-eq ((= f g)) (w)\n. 0 decompose ((neq w (f w)))"
    with pytest.raises(ParseError, match="equation between distinct types a and o"):
        parse_proof(text, problem)


# ---------------------------------------------------------------------------
# Command line


def _run(tmp_path, text, *flags, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        argv = ["-", *flags]
    else:
        path = tmp_path / "problem.p"
        path.write_text(text)
        argv = [str(path), *flags]
    return cli.main(argv)


def test_cli_unsat_writes_and_checks_a_proof(tmp_path, capsys):
    proof_path = tmp_path / "out.proof"
    code = _run(tmp_path, RUNNING, "--proof-out", str(proof_path))
    out = capsys.readouterr()
    assert code == 20
    assert out.out.splitlines()[0] == "unsat"
    assert "calculus: efo" in out.err
    assert proof_path.exists()

    code = _run(tmp_path, RUNNING, "--check-proof", str(proof_path))
    out = capsys.readouterr()
    assert code == 0
    assert out.out.strip() == "proof ok"


def test_cli_witnesses_avoid_declared_names_the_assumptions_never_use(
    tmp_path, capsys
):
    # x0 is declared but unused, so it is not free on the branch; a witness
    # named x0 would be rejected by the proof reader as already in scope
    text = (
        "(sort a)(var x0 a)(var p (> a o))"
        "(assume (not (forall (y a) (p y))))(assume (forall (z a) (p z)))"
    )
    proof_path = tmp_path / "out.proof"
    assert _run(tmp_path, text, "--proof-out", str(proof_path)) == 20
    capsys.readouterr()
    assert "(x0 a)" not in proof_path.read_text()
    assert _run(tmp_path, text, "--check-proof", str(proof_path)) == 0
    assert capsys.readouterr().out.strip() == "proof ok"


def test_cli_checks_a_proof_that_instantiates_with_an_undeclared_variable(
    tmp_path, capsys
):
    # sort a has no term on the branch, so forall-inst takes a variable the
    # problem never declares; the proof reader brings it into scope
    text = (
        "(sort a)(var p (> a o))"
        "(assume (forall (x a) (p x)))(assume (forall (x a) (not (p x))))"
    )
    proof_path = tmp_path / "out.proof"
    assert _run(tmp_path, text, "--proof-out", str(proof_path)) == 20
    capsys.readouterr()
    assert "forall-inst ((forall (x a) (p x))) (x0)" in proof_path.read_text()
    assert _run(tmp_path, text, "--check-proof", str(proof_path)) == 0
    assert capsys.readouterr().out.strip() == "proof ok"


def test_cli_sat_prints_and_writes_a_model(tmp_path, capsys):
    model_path = tmp_path / "out.model"
    code = _run(
        tmp_path,
        "(sort a)(var x a)(var y a)(assume (neq x y))",
        "--model-out",
        str(model_path),
    )
    out = capsys.readouterr()
    assert code == 10
    lines = out.out.splitlines()
    assert lines[0] == "sat"
    assert any("sort a : 2 elements" in l for l in lines)
    assert model_path.read_text().strip() in out.out
    # an empty file has no assumptions, so any interpretation satisfies it
    assert _run(tmp_path, "") == 10
    assert capsys.readouterr().out.splitlines()[0] == "sat"


def test_cli_unknown_on_exhausted_fuel(tmp_path, capsys):
    text = (
        "(sort a)(var f (> a a))(var g (> a a))(var p (> (> a a) o))"
        "(assume (= f g))(assume (p f))"
    )
    code = _run(tmp_path, text, "--mode", "stt", "--fuel-schedule", "1")
    out = capsys.readouterr()
    assert code == 30
    assert out.out.splitlines()[0] == "unknown"
    assert "functional equations" in out.err


def test_cli_input_errors_exit_2(tmp_path, capsys):
    assert _run(tmp_path, "(assume zz)") == 2
    assert "undeclared" in capsys.readouterr().err
    assert cli.main([str(tmp_path / "missing.p")]) == 2
    assert "error" in capsys.readouterr().err
    assert _run(tmp_path, "(var x o)(assume x)", "--fuel-schedule", "a,b") == 2
    assert "fuel schedule" in capsys.readouterr().err
    # the input is decidable; the schedule is checked all the same
    for schedule in ("0", "3,1"):
        assert _run(tmp_path, "(var x o)(assume x)", "--fuel-schedule", schedule) == 2
        assert "fuel_schedule must be strictly increasing" in capsys.readouterr().err
    # input that is not UTF-8 is reported, not raised
    path = tmp_path / "latin1.p"
    path.write_bytes(b"(var x o)\xff(assume x)")
    assert cli.main([str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert "Traceback" not in out.err
    # calculus/input mismatch is an input error, not a crash
    assert _run(tmp_path, BOOLEAN_LAM, "--mode", "efo") == 2
    assert "fragment" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, flag, verdict",
    [
        ("(sort a)(var x a)(assume (neq x x))", "--proof-out", "unsat"),
        ("(sort a)(var x a)(var y a)(assume (neq x y))", "--model-out", "sat"),
    ],
)
def test_cli_unwritable_output_exits_2(tmp_path, capsys, text, flag, verdict):
    target = tmp_path / "missing-dir" / "out"
    assert _run(tmp_path, text, flag, str(target)) == 2
    out = capsys.readouterr()
    assert out.out.splitlines()[0] == verdict
    assert f"error: cannot write {target}: " in out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize(
    "flag, value", [("--max-nodes", "-1"), ("--timeout", "-1"), ("--max-domain", "-3")]
)
def test_cli_negative_limits_exit_2(tmp_path, capsys, flag, value):
    # no function variables, so max-domain used to go unread
    with pytest.raises(SystemExit) as exit_:
        _run(tmp_path, "(sort a)(var x a)(assume (neq x x))", flag, value)
    assert exit_.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {flag}: must be >= 0, got {value}" in out.err


def test_cli_zero_limits_keep_their_meaning(tmp_path, capsys):
    assert _run(tmp_path, RUNNING, "--mode", "efo", "--max-nodes", "0") == 30
    assert "node budget exhausted (0)" in capsys.readouterr().err
    text = "(sort a)(var f (> a o))(var x a)(var y a)(assume (neq (f x) (f y)))"
    assert _run(tmp_path, text, "--max-domain", "0") == 30
    assert "exceeds the ceiling 0" in capsys.readouterr().err


def test_cli_limits_bound_decidable_input(tmp_path):
    # chain(4) is in a decidable class, so auto mode decides it; the node
    # budget must still stop it.  A child process with a timeout fails the
    # test instead of hanging it if the budget is ignored.
    lines = ["(sort a)", "(var r (> a a o))"] + [f"(var c{i} a)" for i in range(5)]
    lines += [f"(assume (r c{i} c{i + 1}))" for i in range(4)]
    lines += [
        "(assume (forall (x a) (forall (y a) (forall (z a)"
        " (imp (r x y) (imp (r y z) (r x z)))))))",
        "(assume (not (r c0 c4)))",
    ]
    path = tmp_path / "chain4.p"
    path.write_text("\n".join(lines) + "\n")
    assert classify_branch(parse(path.read_text()).branch()).decidable()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "hotab.cli", str(path), "--max-nodes", "10"],
        capture_output=True,
        text=True,
        timeout=20,
        env=env,
    )
    assert done.returncode == 30, done.stderr
    assert done.stdout.splitlines()[0] == "unknown"
    assert "node budget exhausted (10)" in done.stderr


def test_cli_fragment_check(tmp_path, capsys):
    code = _run(tmp_path, RUNNING, "--fragment-check")
    out = capsys.readouterr()
    assert code == 0
    assert "efo: yes" in out.out
    assert "lambda-free: no" in out.out


def test_cli_reads_stdin(tmp_path, capsys, monkeypatch):
    code = _run(
        tmp_path, "", stdin="(var x o)(assume x)", monkeypatch=monkeypatch
    )
    out = capsys.readouterr()
    assert code == 10
    assert out.out.splitlines()[0] == "sat"


def test_cli_reports_normalization(tmp_path, capsys):
    code = _run(
        tmp_path,
        "(sort a)(var p (> a o))(var y a)(assume ((lam (x a) (p x)) y))",
    )
    out = capsys.readouterr()
    assert code == 10
    assert "normalized" in out.err


def test_cli_rejects_a_wrong_proof(tmp_path, capsys):
    problem = "(sort a)(var x a)(var y a)(assume (neq x x))"
    bad = tmp_path / "bad.proof"
    bad.write_text("decompose ((neq y y))\n")
    code = _run(tmp_path, problem, "--check-proof", str(bad))
    out = capsys.readouterr()
    assert code == 3  # apart from exit 1, an internal error
    assert "does not check" in out.err


def test_cli_max_domain_caps_extraction(tmp_path, capsys):
    text = (
        "(sort a)(var f (> a o))(var x a)(var y a)"
        "(assume (neq (f x) (f y)))"
    )
    assert _run(tmp_path, text) == 10
    capsys.readouterr()
    # a cap far above any table is no cap
    assert _run(tmp_path, text, "--max-domain", str(10**32)) == 10
    assert capsys.readouterr().out.splitlines()[0] == "sat"
    code = _run(tmp_path, text, "--max-domain", "1")
    out = capsys.readouterr()
    assert code == 30
    assert out.out.splitlines()[0] == "unknown"


def test_cli_many_truth_variables_without_recursion(tmp_path, capsys):
    # model search keeps one stack entry per variable, not one Python frame
    text = "".join(f"(var p{i} o)(assume p{i})" for i in range(1500))
    code = _run(tmp_path, text)
    lines = capsys.readouterr().out.splitlines()
    assert code == 10 and lines[0] == "sat"
    interp = {}
    for line in lines[1:]:
        ident, _, value = line.removeprefix("var ").partition(" : o = ")
        interp[Name(ident, o)] = int(value)
    assert len(interp) == 1500
    assert check_model(Model(Frame({}), interp), parse(text).assumptions)


def test_cli_has_one_closure_notion(tmp_path, capsys):
    # closing on a formula and its negation is no option
    with pytest.raises(SystemExit) as ex:
        _run(tmp_path, "(var y o)(assume y)", "--eager-close")
    assert ex.value.code == 2
    assert "unrecognized arguments: --eager-close" in capsys.readouterr().err


@pytest.mark.parametrize(
    "decls, s, t, calculus",
    [
        ("(var P (> a o))", "(P c)", "(P (f c))", "efo"),
        ("(var p o)", "(= p (= c c))", "(= p p)", "stt"),
    ],
)
def test_cli_checks_the_leaf_rules(tmp_path, capsys, decls, s, t, calculus):
    # s with its negation closes at once, in either calculus; a leaf rule
    # whose premise is not on the branch does not check (exit 3), and one
    # whose premises do not close does not read (exit 2)
    decls = f"(sort a)(var f (> a a))(var c a){decls}"
    text = f"{decls}(assume {s})(assume (not {s}))(assume {t})"
    proof_path = tmp_path / "out.proof"
    assert _run(tmp_path, text, "--proof-out", str(proof_path)) == 20
    assert f"calculus: {calculus}" in capsys.readouterr().err
    assert proof_path.read_text() == f"close-compl ({s} (not {s}))\n"
    assert _run(tmp_path, text, "--check-proof", str(proof_path)) == 0
    assert capsys.readouterr().out == "proof ok\n"
    refl = "(neq (f c) (f c))"
    for leaf, code in (
        (f"close-compl ({t} (not {t}))", 3),
        (f"close-refl ({refl})", 3),
        (f"close-compl ({s} (not {t}))", 2),
        (f"close-compl ((not {s}) {s})", 2),
        ("close-refl ((neq (f c) c))", 2),
    ):
        proof_path.write_text(leaf + "\n")
        assert _run(tmp_path, text, "--check-proof", str(proof_path)) == code, leaf
        out = capsys.readouterr()
        assert out.out == ""
        assert ("does not check" if code == 3 else "wrong shape") in out.err, leaf
