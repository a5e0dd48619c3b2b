"""Rule engine: schema matching, enumeration, applicability, checking."""

import itertools
import math
from collections import Counter

import pytest

from hotab import rules
from hotab.branch import Branch, FormulaKind, branch_of, classify
from hotab.fragments import FragmentViolation
from hotab.kernel import (
    NOT,
    App,
    Bound,
    Lam,
    Name,
    Ref,
    app,
    diseq,
    eq,
    forall,
    fun,
    imp,
    lam,
    neg,
    o,
    ref,
    shift,
    show_term,
    sort,
)
from hotab.models import CardinalityError, Frame, Model, eval_term
from hotab.normalize import is_normal, normalize
from hotab.problems import ParseError, Problem, parse_proof, serialize_proof
from hotab.rules import (
    RULES,
    RuleId,
    RuleInstance,
    check_instance,
    check_proof,
    concluded,
    make_instance,
    as_branch,
    match_schema,
)
from hotab.search import Proof, Refuted, Satisfiable, SearchConfig, refute
from hotab.selection import (
    TermEnumerator,
    applicable_efo,
    applicable_stt,
    closing_instance,
    fresh_var,
    instantiation_candidates,
    support,
)
from hotab.semantics import enumerate_models, sorts_in, variables_in

from helpers import Gen, reference_support, subterms
from test_outputs import problems as pinned_problems

a = sort("a")
b = sort("b")


def V(ident, ty):
    return Name(ident, ty)


# ---------------------------------------------------------------------------
# Schema matching


def test_match_schema_finds_unique_filler():
    h = V("hole", a)
    p = V("p", fun(a, o))
    c = V("c", a)
    schema = app(ref(p), ref(h))
    ok, filler = match_schema(schema, app(ref(p), ref(c)), h)
    assert ok and filler == ref(c)
    q = V("q", fun(a, o))
    assert match_schema(schema, app(ref(q), ref(c)), h) == (False, None)


def test_match_schema_requires_consistent_fillers():
    h = V("hole", a)
    r = V("r", fun(a, a, o))
    c, d = V("c", a), V("d", a)
    schema = app(ref(r), ref(h), ref(h))
    ok, filler = match_schema(schema, app(ref(r), ref(c), ref(c)), h)
    assert ok and filler == ref(c)
    assert match_schema(schema, app(ref(r), ref(c), ref(d)), h) == (False, None)


def test_match_schema_no_hole_occurrence_matches_exactly():
    h = V("hole", a)
    q = V("q", o)
    assert match_schema(ref(q), ref(q), h) == (True, None)
    assert match_schema(ref(q), neg(ref(q)), h) == (False, None)


def test_match_schema_rejects_fillers_using_bound_variables():
    # schema: forall y. r hole y   against   forall y. r y y — the would-be
    # filler is the bound y, which no branch-level term can name.
    h = V("hole", a)
    r = V("r", fun(a, a, o))
    y = V("y", a)
    schema = forall(lam(y, app(ref(r), ref(h), ref(y))))
    w = forall(lam(y, app(ref(r), ref(y), ref(y))))
    assert match_schema(schema, w, h) == (False, None)


def test_witness_queries():
    f = V("f", fun(a, o))
    g = V("g", fun(a, o))
    x = V("x", a)
    fg = classify(diseq(ref(f), ref(g)))
    base = branch_of(diseq(ref(f), ref(g)))
    assert not concluded(base, RuleId.FUN_EXT, fg)
    extended = branch_of(*base, diseq(app(ref(f), ref(x)), app(ref(g), ref(x))))
    assert concluded(extended, RuleId.FUN_EXT, fg)

    p = V("p", fun(a, o))
    y = V("y", a)
    pred = lam(y, app(ref(p), ref(y)))
    no_px = classify(neg(forall(pred)))
    all_px = classify(forall(pred))
    br = branch_of(neg(forall(pred)))
    assert not concluded(br, RuleId.FORALL_NEG, no_px)
    br2 = branch_of(*br, neg(app(ref(p), ref(x))))
    assert concluded(br2, RuleId.FORALL_NEG, no_px)
    assert concluded(branch_of(*br2, app(ref(p), ref(x))), RuleId.FORALL_INST, all_px)
    assert not concluded(br2, RuleId.FORALL_INST, all_px)


def test_witness_query_constant_function_sides():
    # When both sides ignore their argument, a disequation between the
    # bodies already witnesses every variable at once.
    p, q = V("p", o), V("q", o)
    x = V("x", a)
    l = lam(x, ref(p))
    r = lam(x, ref(q))
    br = branch_of(diseq(ref(p), ref(q)))
    assert concluded(br, RuleId.FUN_EXT, classify(diseq(l, r)))


# ---------------------------------------------------------------------------
# Term enumeration


def test_enumerator_small_boolean_terms_in_order():
    y = V("y", o)
    en = TermEnumerator((y,), (o,))
    got = list(en.terms(o, 3))
    assert got == [
        ref(y),
        neg(ref(y)),
        neg(neg(ref(y))),
        eq(ref(y), ref(y)),
    ]
    assert all(is_normal(t) and t.ty == o for t in got)


def test_enumerator_functional_terms_and_identity():
    en = TermEnumerator((), ())
    got = list(en.terms(fun(a, a), 2))
    x = V("x", a)
    assert got == [lam(x, ref(x))]

    g = V("g", fun(a, o))
    y = V("y", o)
    en2 = TermEnumerator((g, y), ())
    got2 = list(en2.terms(fun(a, o), 2))
    assert got2 == [ref(g), lam(x, ref(y))]


def test_enumerator_never_emits_partial_constants():
    y = V("y", o)
    en = TermEnumerator((y,), (o, fun(a, a)))
    for t in en.terms(o, 5):
        assert "!partial" not in repr(t)
        assert is_normal(t)


def test_instantiation_candidates_discriminating_sides_first():
    u, v = V("u", a), V("v", a)
    br = branch_of(diseq(ref(u), ref(v)))
    got = list(instantiation_candidates(br, a, 2))
    assert got == [ref(u), ref(v)]


# ---------------------------------------------------------------------------
# Applicability: golden instances


def fig_branch():
    """The running two-member example: p f with not (p (lam x. not not (f x)))."""
    p = V("p", fun(fun(a, o), o))
    f = V("f", fun(a, o))
    x = V("x", a)
    tricky = lam(x, neg(neg(app(ref(f), ref(x)))))
    m1 = app(ref(p), ref(f))
    m2 = neg(app(ref(p), tricky))
    return branch_of(m1, m2), m1, m2, ref(f), tricky


def test_mate_golden_instance():
    br, m1, m2, lhs, rhs = fig_branch()
    for engine in (lambda: applicable_stt(br), lambda: applicable_efo(br)):
        got = engine()
        assert len(got) == 1
        (inst,) = got
        assert inst.rule is RuleId.MATE
        assert inst.premises == (m1, m2)
        assert inst.alternatives == ((diseq(lhs, rhs),),)
        assert check_instance(br, inst)


def test_fun_ext_golden_and_blocked_by_witness():
    f = V("f", fun(a, b))
    g = V("g", fun(a, b))
    br = branch_of(diseq(ref(f), ref(g)))
    got = applicable_stt(br)
    assert [r.rule for r in got] == [RuleId.FUN_EXT]
    (fe,) = got
    assert fe.inst == ref(Name("x0", a))
    assert fe.alternatives == (
        (diseq(app(ref(f), fe.inst), app(ref(g), fe.inst)),),
    )
    assert check_instance(br, fe)

    x = V("x", a)
    blocked = branch_of(*br, diseq(app(ref(f), ref(x)), app(ref(g), ref(x))))
    assert [r.rule for r in applicable_stt(blocked)] == []
    assert not check_instance(blocked, fe)


def test_decompose_golden():
    x = V("x", fun(a, b))
    s, t = V("s", a), V("t", a)
    d = diseq(app(ref(x), ref(s)), app(ref(x), ref(t)))
    br = branch_of(d)
    got = [r for r in applicable_stt(br) if r.rule is RuleId.DECOMPOSE]
    assert got == [
        RuleInstance(RuleId.DECOMPOSE, (d,), ((diseq(ref(s), ref(t)),),))
    ]


def test_confront_golden():
    s, t, u, v = (V(i, a) for i in "stuv")
    e = eq(ref(s), ref(t))
    d = diseq(ref(u), ref(v))
    br = branch_of(e, d)
    got = [r for r in applicable_stt(br) if r.rule is RuleId.CONFRONT]
    assert len(got) == 1
    assert got[0].premises == (e, d)
    assert got[0].alternatives == (
        (diseq(ref(s), ref(u)), diseq(ref(t), ref(u))),
        (diseq(ref(s), ref(v)), diseq(ref(t), ref(v))),
    )
    assert check_instance(br, got[0])


def test_bool_rules_golden():
    p, q = V("p", o), V("q", o)
    br = branch_of(eq(ref(p), ref(q)))
    (bq,) = applicable_stt(br)
    assert bq.rule is RuleId.BOOL_EQ
    assert bq.alternatives == (
        (ref(p), ref(q)),
        (neg(ref(p)), neg(ref(q))),
    )
    br2 = branch_of(diseq(ref(p), ref(q)))
    (be,) = applicable_stt(br2)
    assert be.rule is RuleId.BOOL_EXT
    assert be.alternatives == (
        (ref(p), neg(ref(q))),
        (neg(ref(p)), ref(q)),
    )


def test_imp_rules_golden():
    p, q = V("p", o), V("q", o)
    br = branch_of(imp(ref(p), ref(q)))
    (im,) = applicable_efo(br)
    assert im.rule is RuleId.IMP
    assert im.alternatives == ((neg(ref(p)),), (ref(q),))
    br2 = branch_of(neg(imp(ref(p), ref(q))))
    (imn,) = applicable_efo(br2)
    assert imn.rule is RuleId.IMP_NEG
    assert imn.alternatives == ((ref(p), neg(ref(q))),)


def test_fun_eq_instances_under_fuel():
    f = V("f", fun(o, o))
    g = V("g", fun(o, o))
    e = eq(ref(f), ref(g))
    br = branch_of(e)
    assert applicable_stt(br, fuel=2) == []  # no o-sized candidates yet
    got = applicable_stt(br, fuel=3)
    assert got and all(r.rule is RuleId.FUN_EQ for r in got)
    insts = [r.inst for r in got]
    assert all(t.ty == o and is_normal(t) for t in insts)
    for r in got:
        (alt,) = r.alternatives
        (concl,) = alt
        assert concl == eq(
            normalize(app(ref(f), r.inst)), normalize(app(ref(g), r.inst))
        )
        assert check_instance(br, r)


# ---------------------------------------------------------------------------
# Quantifier restrictions


def qbranch(*extra):
    p = V("p", fun(a, o))
    y = V("y", a)
    body = lam(y, app(ref(p), ref(y)))
    f = forall(body)
    return branch_of(f, *extra), f, body, p


def test_forall_uses_first_free_variable_of_sort():
    y = V("y", a)
    q = V("q", fun(a, o))
    br, f, body, p = qbranch(app(ref(q), ref(y)))
    got = [r for r in applicable_efo(br) if r.rule is RuleId.FORALL_INST]
    assert [r.inst for r in got] == [ref(y)]
    assert got[0].alternatives == ((app(ref(p), ref(y)),),)
    assert check_instance(br, got[0])


def test_forall_fresh_variable_when_no_free_variable_of_sort():
    br, f, body, p = qbranch()
    got = [r for r in applicable_efo(br) if r.rule is RuleId.FORALL_INST]
    assert len(got) == 1
    assert got[0].inst == ref(Name("x0", a))
    assert check_instance(br, got[0])


def test_forall_silent_once_an_instance_exists():
    x = V("x", a)
    p = V("p", fun(a, o))
    y = V("y", a)
    body = lam(y, app(ref(p), ref(y)))
    br = branch_of(forall(body), app(ref(p), ref(x)))
    assert [r for r in applicable_efo(br) if r.rule is RuleId.FORALL_INST] == []


def test_forall_restricted_to_discriminating_terms():
    u, v, w = V("u", a), V("v", a), V("w", a)
    br, f, body, p = qbranch(diseq(ref(u), ref(v)))
    got = [r for r in applicable_efo(br) if r.rule is RuleId.FORALL_INST]
    assert [r.inst for r in got] == [ref(u), ref(v)]
    for r in got:
        assert check_instance(br, r)
    # a non-discriminating instance is rejected even though u, v exist
    bad = RuleInstance(
        RuleId.FORALL_INST, (f,), ((app(ref(p), ref(w)),),), ref(w)
    )
    assert not check_instance(br, bad)
    # once every discriminating instance is present, the quantifier rests
    done = branch_of(*br, app(ref(p), ref(u)), app(ref(p), ref(v)))
    assert [r for r in applicable_efo(done) if r.rule is RuleId.FORALL_INST] == []


def test_forall_bare_predicate_variable():
    from hotab.kernel import forall_const

    F = V("F", fun(a, o))
    br = branch_of(app(ref(forall_const(a)), ref(F)))
    got = [r for r in applicable_efo(br) if r.rule is RuleId.FORALL_INST]
    assert len(got) == 1
    (alt,) = got[0].alternatives
    assert alt == (app(ref(F), got[0].inst),)


def test_forall_neg_golden_and_blocked():
    p = V("p", fun(a, o))
    y = V("y", a)
    body = lam(y, app(ref(p), ref(y)))
    br = branch_of(neg(forall(body)))
    (fn,) = applicable_efo(br)
    assert fn.rule is RuleId.FORALL_NEG
    assert fn.inst == ref(Name("x0", a))
    assert fn.alternatives == ((neg(app(ref(p), fn.inst)),),)
    assert check_instance(br, fn)
    z = V("z", a)
    blocked = branch_of(*br, neg(app(ref(p), ref(z))))
    assert applicable_efo(blocked) == []
    assert not check_instance(blocked, fn)


# ---------------------------------------------------------------------------
# Productivity, closure, ordering


def test_unproductive_instances_are_withheld():
    p = V("p", o)
    br = branch_of(neg(neg(ref(p))), ref(p))
    assert applicable_stt(br) == []

    g = V("g", fun(a, o))
    y, z = V("y", a), V("z", a)
    br2 = branch_of(app(ref(g), ref(y)), neg(app(ref(g), ref(z))), diseq(ref(y), ref(z)))
    assert [r.rule for r in applicable_efo(br2)] == []

    q = V("q", o)
    br3 = branch_of(imp(ref(p), ref(q)), ref(q))
    assert applicable_efo(br3) == []


def test_rule_priority_order():
    p, q = V("p", o), V("q", o)
    g = V("g", fun(a, o))
    y, z = V("y", a), V("z", a)
    br = branch_of(
        app(ref(g), ref(y)),
        neg(app(ref(g), ref(z))),
        diseq(ref(p), ref(q)),
        neg(neg(ref(q))),
    )
    rules = [r.rule for r in applicable_stt(br)]
    assert rules == [RuleId.DOUBLE_NEG, RuleId.BOOL_EXT, RuleId.MATE]


def test_applicable_is_deterministic():
    def build():
        p, q = V("p", o), V("q", o)
        u, v = V("u", a), V("v", a)
        return branch_of(
            neg(neg(ref(p))),
            diseq(ref(p), ref(q)),
            eq(ref(u), ref(v)),
            diseq(ref(u), ref(v)),
        )

    assert applicable_stt(build()) == applicable_stt(build())
    assert applicable_efo(build()) == applicable_efo(build())


def test_closed_branch_admits_nothing_and_yields_leaf():
    x = V("x", o)
    p = V("p", o)
    br = branch_of(ref(x), neg(ref(x)), neg(neg(ref(p))))
    assert applicable_stt(br) == [] and applicable_efo(br) == []
    leaf = closing_instance(br)
    assert leaf == RuleInstance(RuleId.MATE, (ref(x), neg(ref(x))), ())
    assert check_instance(br, leaf)
    # a branching instance is rejected on a closed branch
    dn = RuleInstance(RuleId.DOUBLE_NEG, (neg(neg(ref(p))),), ((ref(p),),))
    assert not check_instance(br, dn)


def test_reflexive_disequation_leaf():
    x = V("x", a)
    br = branch_of(diseq(ref(x), ref(x)))
    assert br.is_closed
    leaf = closing_instance(br)
    assert leaf == RuleInstance(RuleId.DECOMPOSE, (diseq(ref(x), ref(x)),), ())
    assert check_instance(br, leaf)


def test_leaf_rules_close_what_the_branch_does_not():
    # the branch's own closure is atomic; a formula with its negation, or a
    # reflexive disequation between non-variables, closes by a leaf rule
    p, q = V("p", o), V("q", o)
    s = eq(ref(p), ref(q))
    br = branch_of(s, neg(s))
    assert not br.is_closed
    leaf = closing_instance(br)
    assert leaf == RuleInstance(RuleId.CLOSE_COMPL, (s, neg(s)), ())
    assert check_instance(br, leaf)

    f = V("f", fun(a, a))
    d = diseq(ref(f), ref(f))
    br2 = branch_of(d)
    assert not br2.is_closed
    leaf2 = closing_instance(br2)
    assert leaf2 == RuleInstance(RuleId.CLOSE_REFL, (d,), ())
    assert check_instance(br2, leaf2)


def test_check_proof_refuses_leaf_rules_that_do_not_close():
    # in both calculi: close-compl needs both premises on the branch and
    # the second the negation of the first, close-refl a disequation
    # between identical sides
    P, f, g = V("P", fun(a, o)), V("f", fun(a, a)), V("g", fun(a, a))
    c = ref(V("c", a))
    s, t = app(ref(P), c), app(ref(P), app(ref(f), c))
    fc, gc = app(ref(f), c), app(ref(g), c)
    same, other = diseq(fc, fc), diseq(fc, gc)

    def leaf(rule, *premises):
        return Proof(RuleInstance(rule, premises, ()), ())

    compl, refl = RuleId.CLOSE_COMPL, RuleId.CLOSE_REFL
    for calculus in ("efo", "stt"):
        assert check_proof([s, neg(s)], leaf(compl, s, neg(s)), calculus)
        assert not check_proof([s], leaf(compl, s, neg(s)), calculus)
        assert not check_proof([neg(s)], leaf(compl, s, neg(s)), calculus)
        assert not check_proof([s, neg(t)], leaf(compl, s, neg(t)), calculus)
        assert not check_proof([s, neg(s)], leaf(compl, neg(s), s), calculus)
        assert not check_proof([s, s], leaf(compl, s, s), calculus)
        assert check_proof([same], leaf(refl, same), calculus)
        assert not check_proof([other], leaf(refl, other), calculus)
        assert not check_proof([other], leaf(refl, same), calculus)


def test_leaf_is_the_first_member_closing_at_once():
    # a non-variable atom with its negation, a reflexive disequation between
    # non-variables; of two complementary pairs, the one whose later member
    # comes first, even where the other's first member comes first
    x, y = V("x", a), V("y", a)
    f, g = V("f", fun(a, a)), V("g", fun(a, o))
    s, t, u = app(ref(g), ref(x)), app(ref(f), ref(x)), app(ref(g), ref(y))

    def leaf(*formulas, added=None):
        return closing_instance(branch_of(*formulas), added=added)

    compl = RuleInstance(RuleId.CLOSE_COMPL, (s, neg(s)), ())
    assert leaf(s, neg(s)) == compl
    refl = RuleInstance(RuleId.CLOSE_REFL, (diseq(t, t),), ())
    assert leaf(diseq(t, t)) == refl
    assert leaf(s, eq(ref(x), ref(y))) is None
    pair = RuleInstance(RuleId.CLOSE_COMPL, (u, neg(u)), ())
    assert leaf(s, u, neg(u), neg(s)) == pair
    # a complement before the first of added counts; added is searched alone
    assert leaf(s, u, neg(u), neg(s), added=(neg(u), neg(s))) == pair
    assert leaf(neg(s), s, added=(s,)) == compl
    assert leaf(s, neg(s), added=()) is None


# ---------------------------------------------------------------------------
# check_instance rejections


def test_check_rejects_tampering():
    p, q = V("p", o), V("q", o)
    br = branch_of(eq(ref(p), ref(q)))
    (bq,) = applicable_stt(br)
    wrong_alts = RuleInstance(bq.rule, bq.premises, bq.alternatives[:1])
    assert not check_instance(br, wrong_alts)
    foreign = RuleInstance(
        RuleId.DOUBLE_NEG, (neg(neg(ref(p))),), ((ref(p),),)
    )
    assert not check_instance(br, foreign)  # premise not on the branch
    # rules that take a premise reject a node without one
    x = ref(V("x", a))
    for rule, inst in (
        (RuleId.FUN_EXT, x),
        (RuleId.DECOMPOSE, None),
        (RuleId.FORALL_INST, x),
        (RuleId.FORALL_NEG, x),
    ):
        bare = RuleInstance(rule, (), (), inst)
        assert not check_instance(br, bare)
        assert not check_proof(br, Proof(bare, ()), calculus="efo")


def test_a_redex_under_a_binder_is_refused():
    # lam x. (lam y. y) x, built with the raw constructors: the redex sits
    # below the outer binder, where only the children's normal flags see it
    buried = Lam(o, App(Lam(o, Bound(0, o)), Bound(0, o)))
    assert not buried.normal
    p = V("p", fun(fun(o, o), o))
    with pytest.raises(ValueError):
        Branch().add(App(Ref(p), buried))
    f, g = V("f", fun(fun(o, o), o)), V("g", fun(fun(o, o), o))
    e = eq(ref(f), ref(g))
    br = branch_of(e)
    assert check_instance(br, make_instance(RuleId.FUN_EQ, (e,), normalize(buried)))
    assert not check_instance(br, make_instance(RuleId.FUN_EQ, (e,), buried))


def test_check_rejects_bad_instantiations():
    f = V("f", fun(o, o))
    g = V("g", fun(o, o))
    p = V("p", o)
    e = eq(ref(f), ref(g))
    br = branch_of(e)
    redex = app(lam(p, ref(p)), ref(p))
    bad = RuleInstance(
        RuleId.FUN_EQ,
        (e,),
        ((eq(normalize(app(ref(f), redex)), normalize(app(ref(g), redex))),),),
        redex,
    )
    assert not check_instance(br, bad)  # instance term must be normal
    wrong_ty = RuleInstance(
        RuleId.FUN_EQ, (e,), ((eq(app(ref(f), ref(p)), app(ref(g), ref(p))),),),
        ref(V("u", a)),
    )
    assert not check_instance(br, wrong_ty)
    # carrying the row's own alternatives does not admit a non-normal term
    assert check_instance(br, make_instance(RuleId.FUN_EQ, (e,), ref(p)))
    assert not check_instance(br, make_instance(RuleId.FUN_EQ, (e,), redex))


def test_check_refuses_mistyped_instantiation_terms():
    # the row rebuilds the alternatives from the claimed term, and the typed
    # constructors refuse a term of the wrong type: the instance is refused
    # even when it claims the alternatives of a well-typed one
    p, y = V("p", fun(a, o)), V("y", a)
    f, g = V("f", fun(a, o)), V("g", fun(a, o))
    quantified = forall(lam(y, app(ref(p), ref(y))))
    for rule, premise in (
        (RuleId.FORALL_INST, quantified),
        (RuleId.FORALL_NEG, neg(quantified)),
        (RuleId.FUN_EQ, eq(ref(f), ref(g))),
        (RuleId.FUN_EXT, diseq(ref(f), ref(g))),
    ):
        br = branch_of(premise)
        good = make_instance(rule, (premise,), ref(V("x", a)))
        assert check_instance(br, good), rule
        mistyped = RuleInstance(rule, good.premises, good.alternatives, ref(V("x", b)))
        assert not check_instance(br, mistyped), rule


def test_check_rejects_stale_witness_variables():
    f = V("f", fun(a, b))
    g = V("g", fun(a, b))
    br = branch_of(diseq(ref(f), ref(g)))
    (fe,) = applicable_stt(br)
    # reusing a variable already free on the branch is not "fresh"
    reused = RuleInstance(
        RuleId.FUN_EXT,
        fe.premises,
        ((diseq(app(ref(f), ref(V("x", a))), app(ref(g), ref(V("x", a)))),),),
        ref(V("x", a)),
    )
    assert check_instance(branch_of(*br, eq(ref(V("x", a)), ref(V("x", a)))), reused) is False


def test_check_refuses_a_logical_constant_as_a_witness():
    # F != G at (o -> o) -> o: F and G may differ at the identity and agree
    # at `not`, so a fresh-witness rule must take a variable
    F, G = (ref(V(n, fun(fun(o, o), o))) for n in "FG")
    premise = diseq(F, G)
    br = branch_of(premise)
    variable = make_instance(RuleId.FUN_EXT, (premise,), ref(V("x", fun(o, o))))
    assert check_instance(br, variable)
    constant = make_instance(RuleId.FUN_EXT, (premise,), ref(NOT))
    assert constant.alternatives == ((diseq(app(F, ref(NOT)), app(G, ref(NOT))),),)
    assert not check_instance(br, constant)


def test_check_refuses_a_discriminating_term_outside_the_restricted_language():
    # f (p = q) is a side of c != f (p = q), so it discriminates at a, but
    # it uses equality at o: forall-inst may take c and not it, however the
    # calculus was chosen
    P, f, x = V("P", fun(a, o)), V("f", fun(o, a)), V("x", a)
    c, p, q = ref(V("c", a)), ref(V("p", o)), ref(V("q", o))
    u = app(ref(f), eq(p, q))
    quantified = forall(lam(x, app(ref(P), ref(x))))
    br = branch_of(quantified, diseq(c, u))
    assert set(br.discriminating_terms(a)) == {c, u}
    assert check_instance(br, make_instance(RuleId.FORALL_INST, (quantified,), c))
    assert not check_instance(br, make_instance(RuleId.FORALL_INST, (quantified,), u))


def _forall_inst(*members):
    """The quantifier forall x. P x at a sort with no disequation, on a
    branch with the given members, and its forall-inst with a term."""
    P, x = V("P", fun(a, o)), V("x", a)
    quantified = forall(lam(x, app(ref(P), ref(x))))
    br = branch_of(quantified, *members)
    return br, lambda u: make_instance(RuleId.FORALL_INST, (quantified,), u)


def test_check_refuses_a_second_forall_instance_without_discriminating_terms():
    # with no discriminating term at a, a quantifier gets one instance: once
    # P c is on the branch, the instance with the free variable d is refused
    P, Q = V("P", fun(a, o)), V("Q", fun(a, o))
    c, d = ref(V("c", a)), ref(V("d", a))
    br, inst = _forall_inst(app(ref(Q), d))
    assert check_instance(br, inst(d))
    assert not check_instance(branch_of(*br, app(ref(P), c)), inst(d))


def test_check_refuses_a_non_variable_forall_instance_without_discriminating_terms():
    # with c : a free and no discriminating term at a, the instance takes a
    # free variable, not f c.  check_instance would refuse f c anyway, as
    # f c has no name to look up, so the condition is also read directly
    Q, f = V("Q", fun(a, o)), V("f", fun(a, a))
    c = ref(V("c", a))
    br, inst = _forall_inst(app(ref(Q), c))
    assert check_instance(br, inst(c))
    assert not check_instance(br, inst(app(ref(f), c)))
    info = br.info(br.formulas[0])
    assert rules._forall_admissible(br, info, app(ref(f), c)) is False


def test_check_refuses_a_forall_instance_with_a_variable_not_free():
    # with c : a free and no discriminating term at a, the instance takes a
    # free variable: d, which is not free, is refused; with no variable of
    # a free, d is admitted
    Q = V("Q", fun(a, o))
    c, d = ref(V("c", a)), ref(V("d", a))
    br, inst = _forall_inst(app(ref(Q), c))
    assert not check_instance(br, inst(d))
    br, inst = _forall_inst()
    assert check_instance(br, inst(d))


def test_check_proof_refuses_what_it_cannot_route_or_read():
    # auto mode routes by language, and implication beside an equation at o
    # fits neither calculus; a list holding a non-formula is no branch.
    # Both are refused, not raised; forcing efo replays the proof
    p, q = ref(V("p", o)), ref(V("q", o))
    v = refute([imp(p, q), p, neg(q)], SearchConfig(calculus="efo"))
    mixed = [imp(p, q), p, neg(q), eq(p, q)]
    assert check_proof(mixed, v.proof, "efo")
    assert not check_proof(mixed, v.proof)
    for stray in (ref(V("c", a)), "p", None, V("p", o)):
        assert not check_proof([imp(p, q), p, neg(q), stray], v.proof, "efo")


# ---------------------------------------------------------------------------
# The instance table: search, proof reading and replay share its instances


def test_a_forged_instance_is_refused_after_the_genuine_one_is_built():
    # the table holds the genuine instance under (rule, premises, term); a
    # claimed instance with that key but other alternatives is compared with
    # it and refused, and the table keeps the genuine one
    p, q, r = (ref(V(n, o)) for n in "pqr")
    f, g = V("f", fun(a, b)), V("g", fun(a, b))
    for rule, premise, inst in (
        (RuleId.IMP, imp(p, q), None),
        (RuleId.BOOL_EQ, eq(p, q), None),
        (RuleId.FUN_EXT, diseq(ref(f), ref(g)), ref(V("x", a))),
    ):
        br = branch_of(premise)
        genuine = make_instance(rule, (premise,), inst)
        assert rules.instance_of(rule, (premise,), inst) is genuine
        assert check_instance(br, genuine)
        n = len(genuine.alternatives)
        for alts in ((), genuine.alternatives + ((r,),), ((r,),) * n):
            assert not check_instance(br, RuleInstance(rule, (premise,), alts, inst))
        assert rules.instance_of(rule, (premise,), inst) is genuine


def test_premises_a_shape_rejects_stay_refused_after_search_looked_them_up():
    # p c with not (q c) for mate, c = d with e1 != e2 for confront, and
    # e1 != e2 for decompose: each row's shape rejects its premises, so
    # search's index never looks them up, and the table keeps the rejection
    # that proof reading finds, so reading and replay still refuse them
    from hotab.problems import parse

    problem = parse(
        "(sort a)(sort b)(var c a)(var d a)(var e1 b)(var e2 b)"
        "(var p (> a o))(var q (> a o))"
        "(assume (p c))(assume (not (q c)))(assume (= c d))(assume (neq e1 e2))"
    )
    pc, nqc, cd, e12 = problem.assumptions
    rejected = [
        (RuleId.MATE, (pc, nqc), "mate ((p c) (not (q c)))"),
        (RuleId.CONFRONT, (cd, e12), "confront ((= c d) (neq e1 e2))"),
        (RuleId.DECOMPOSE, (e12,), "decompose ((neq e1 e2))"),
    ]
    rules._built.clear()
    v = refute(problem.branch(), SearchConfig(calculus="efo"))
    assert isinstance(v, Satisfiable)
    br = problem.branch()
    for rule, premises, line in rejected:
        assert (rule, premises, None) not in rules._built  # search never asked
        with pytest.raises(ValueError, match="wrong shape"):
            make_instance(rule, premises)
        with pytest.raises(ParseError, match="wrong shape"):
            parse_proof(line + "\n", problem)
        assert not check_instance(br, RuleInstance(rule, premises, ()))
        assert not check_instance(br, RuleInstance(rule, premises, ((neg(pc),),)))
        assert rules._built[rule, premises, None] is None


def test_check_proof_refuses_a_node_with_a_child_missing():
    # p -> q and p are satisfiable; the imp node's first alternative (not p)
    # closes, and without its second child nothing would look at q
    p, q = ref(V("p", o)), ref(V("q", o))
    v = refute([imp(p, q), p, neg(q)], SearchConfig(calculus="efo"))
    assert isinstance(v, Refuted) and v.proof.instance.rule is RuleId.IMP
    assert check_proof([imp(p, q), p, neg(q)], v.proof, "efo")
    with pytest.raises(ValueError):
        Proof(v.proof.instance, v.proof.children[:1])
    short = object.__new__(Proof)
    object.__setattr__(short, "instance", v.proof.instance)
    object.__setattr__(short, "children", v.proof.children[:1])
    assert not check_proof([imp(p, q), p], short, "efo")
    assert not check_proof([imp(p, q), p, neg(q)], short, "efo")


def _space_at_two(formulas) -> float:
    """The number of assignments `enumerate_models` tries at sort size 2."""
    frame = Frame(dict.fromkeys(sorts_in(formulas), 2), max_table=2**14)
    try:
        return math.prod(frame.size(n.ty) for n in variables_in(formulas))
    except CardinalityError:
        return math.inf


def test_check_proof_rejects_every_proof_of_a_weakened_satisfiable_problem():
    # the checker's one promise: a proof of the pinned problems, replayed
    # with one assumption dropped, fails wherever brute force finds a model
    refutations = rejected = 0
    for key, forms, reserved, budget in pinned_problems():
        cfg = SearchConfig(max_nodes=budget, timeout=None, reserved=reserved)
        try:
            v = refute(forms, cfg)
        except FragmentViolation:
            continue
        if not isinstance(v, Refuted):
            continue
        refutations += 1
        for i in range(len(forms)):
            weaker = forms[:i] + forms[i + 1 :]
            if _space_at_two(weaker) > 2**14:
                continue
            if next(enumerate_models(weaker, 2), None) is not None:
                rejected += 1
                assert not check_proof(weaker, v.proof, v.calculus), key
    assert (refutations, rejected) == (55, 80)


def _depth(line: str) -> int:
    return len(line) - len(line.lstrip("."))


def _mutants(text: str):
    """(kind, text) for every single-point mutant of a proof file: a line
    dropped or duplicated, an alternative index flipped (0 and 1, 2 and 3,
    ...), a rule renamed to each rule with as many premises and the same
    instantiation kind, and two sibling subtrees swapped, each taking the
    other's alternative index."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        d, toks = _depth(line), line.split(" ")
        yield "drop", lines[:i] + lines[i + 1 :]
        yield "dup", lines[: i + 1] + lines[i:]
        if d:
            flipped = toks[:1] + [str(int(toks[1]) ^ 1)] + toks[2:]
            yield "alt", lines[:i] + [" ".join(flipped)] + lines[i + 1 :]
        at = 2 if d else 0  # the rule name's token
        row = RULES[RuleId(toks[at])]
        for rule, other in RULES.items():
            if rule.value != toks[at] and (len(other.kinds), other.inst) == (
                len(row.kinds),
                row.inst,
            ):
                renamed = toks[:at] + [rule.value] + toks[at + 1 :]
                yield "rule", lines[:i] + [" ".join(renamed)] + lines[i + 1 :]
        kids, end = [], len(lines)
        for j in range(i + 1, len(lines)):
            if _depth(lines[j]) <= d:
                end = j
                break
            if _depth(lines[j]) == d + 1:
                kids.append(j)
        spans = list(zip(kids, kids[1:] + [end]))
        for (b0, b1), (c0, c1) in itertools.combinations(spans, 2):
            first, second = lines[b0:b1], lines[c0:c1]
            tf, ts = first[0].split(" "), second[0].split(" ")
            first[0] = " ".join(tf[:1] + ts[1:2] + tf[2:])
            second[0] = " ".join(ts[:1] + tf[1:2] + ts[2:])
            yield "swap", lines[:b0] + second + lines[b1:c0] + first + lines[c1:]


def _branch_mutants(proof: Proof, root: Branch):
    """(kind, proof) for every single-point mutant of a proof that puts in
    place of a premise another member of its node's branch of the same kind
    ("premise"), swaps the premises of a pair rule ("swap-premises"), or
    puts in place of an instantiation term another closed term of its type
    on the branch ("term").  The mutated node is built as `parse_proof`
    builds a line, with `make_instance` and `Proof`; where they refuse it
    the proof is None."""
    r = proof.instance

    def mutant(premises, inst):
        try:
            return Proof(make_instance(r.rule, premises, inst), proof.children)
        except ValueError:
            return None

    for k, p in enumerate(r.premises):
        for m in root.members(root.info(p).kind):
            if m != p:
                premises = r.premises[:k] + (m,) + r.premises[k + 1 :]
                yield "premise", mutant(premises, r.inst)
    if len(r.premises) == 2:
        yield "swap-premises", mutant(r.premises[::-1], r.inst)
    if RULES[r.rule].inst == "term":
        terms = (t for s in root for t in subterms(s) if t.ty == r.inst.ty)
        for t in dict.fromkeys(t for t in terms if t != r.inst and shift(t, 1) is t):
            yield "term", mutant(r.premises, t)
    for i, (alt, child) in enumerate(zip(r.alternatives, proof.children)):
        for kind, m in _branch_mutants(child, branch_of(*root, *alt)):
            kids = proof.children[:i] + (m,) + proof.children[i + 1 :]
            yield kind, m and Proof(r, kids)


def _read(lines, problem) -> Proof | None:
    try:
        return parse_proof("\n".join(lines), problem)
    except ParseError:
        return None


def test_check_proof_refuses_every_mutant_of_a_proof_of_a_weakened_problem():
    # the 80 pairs above, with each proof file mutated at one point, and
    # each proof with a premise or an instantiation term replaced by what
    # its node's branch offers: no mutant that reads may replay on the
    # weakened problem, which has a model.  A swapped pair of sibling
    # subtrees replays each on the other's branch, which catches a replay
    # whose undo leaks a sibling's members.  Swapped premises never read:
    # a pair rule's premises are of two kinds
    seen = Counter()
    for key, forms, reserved, budget in pinned_problems():
        cfg = SearchConfig(max_nodes=budget, timeout=None, reserved=reserved)
        try:
            v = refute(forms, cfg)
        except FragmentViolation:
            continue
        if not isinstance(v, Refuted):
            continue
        weaker = [
            w
            for i in range(len(forms))
            for w in [forms[:i] + forms[i + 1 :]]
            if _space_at_two(w) <= 2**14
            and next(enumerate_models(w, 2), None) is not None
        ]
        if not weaker:
            continue
        names = tuple(dict.fromkeys((*variables_in(forms), *reserved)))
        declared = Problem(sorts_in(forms), names, forms)
        read = (
            (kind, _read(lines, declared))
            for kind, lines in _mutants(serialize_proof(v.proof))
        )
        built = _branch_mutants(v.proof, as_branch(forms))
        for kind, proof in itertools.chain(read, built):
            seen[kind] += len(weaker)
            if proof is None:
                continue
            seen[kind, "replayed"] += len(weaker)
            for w in weaker:
                assert not check_proof(w, proof, v.calculus), (key, kind)
    assert seen == {
        "drop": 841,
        "dup": 841,
        "alt": 761,
        "rule": 2660,
        "swap": 274,
        "premise": 3593,
        "swap-premises": 319,
        "term": 988,
        ("rule", "replayed"): 96,
        ("swap", "replayed"): 274,
        ("premise", "replayed"): 2023,
        ("term", "replayed"): 988,
    }


# ---------------------------------------------------------------------------
# Language gates


def test_stt_rejects_quantifier_language():
    p = V("p", o)
    q = V("q", o)
    with pytest.raises(FragmentViolation):
        applicable_stt(branch_of(imp(ref(p), ref(q))))
    y = V("y", a)
    with pytest.raises(FragmentViolation):
        applicable_stt(branch_of(forall(lam(y, ref(p)))))


def test_efo_rejects_non_quasi_members():
    p, q = V("p", o), V("q", o)
    with pytest.raises(FragmentViolation):
        applicable_efo(branch_of(eq(ref(p), ref(q))))  # equation at o
    f = V("f", fun(a, a))
    with pytest.raises(FragmentViolation):
        applicable_efo(branch_of(eq(ref(f), ref(f))))  # equation at a function type
    # ...but the corresponding disequations are quasi-members
    applicable_efo(branch_of(diseq(ref(p), ref(q))))
    applicable_efo(branch_of(diseq(ref(f), lam(V("z", a), app(ref(f), ref(V("z", a)))))))


def test_gate_and_routing_messages():
    # the texts that tell a user why the input fits no calculus
    def message(call, *args):
        with pytest.raises(FragmentViolation) as e:
            call(*args)
        return str(e.value)

    p, q, x = V("p", o), V("q", o), V("x", a)
    f, g = V("f", fun(a, a)), V("g", fun(a, a))
    funeq = eq(ref(f), ref(g))
    quant = forall(lam(x, eq(ref(x), ref(x))))
    top = ref(Name("top", o, is_var=False))  # a constant atom: no rule takes it
    assert message(applicable_efo, branch_of(funeq)) == (
        "(= f g) is outside the restricted fragment (offending subterm =)"
    )
    assert message(applicable_stt, branch_of(imp(ref(p), ref(q)))) == (
        "no rule for (imp p q): implication and quantifiers are outside this "
        "calculus — use the restricted calculus"
    )
    assert message(applicable_stt, branch_of(top)) == "no rule for top"
    # ...but a closed branch needs no rule for it
    assert applicable_stt(branch_of(top, ref(p), neg(ref(p)))) == []
    # routing: top is outside the restricted language, so it goes to stt
    assert message(refute, [top]) == "no rule for top"
    assert message(refute, [quant, funeq]) == (
        "mixed input: (forall (x a) (= x x)) needs the restricted calculus, "
        "but other members use equality outside its fragment"
    )


def test_support_keeps_every_instance_checkable():
    # backjumping keeps a closed subtree where only its instances' supports
    # are known to be on the branch, so each instance must check on the
    # branch of its support alone; for forall-inst that takes the member
    # that keeps the term admissible, not only the premise
    seen = Counter()
    for seed in range(1500):
        g = Gen(seed + 27000)
        efo = branch_of(*(normalize(g.efo_formula(2, quasi=True)) for _ in range(3)))
        g = Gen(seed + 28000)
        stt = branch_of(*(normalize(g.formula(2)) for _ in range(3)))
        for br, listed in ((efo, applicable_efo(efo)), (stt, applicable_stt(stt, 2))):
            for r in listed:
                assert check_instance(branch_of(*support(br, r)), r), (seed, r)
                seen[r.rule] += 1
    assert sum(seen.values()) >= 5000 and seen[RuleId.FORALL_INST] >= 1000, seen


def test_support_names_what_the_member_scan_names():
    # support looks a forall-inst term up in the branch's sides, then in its
    # free names; for every quantifier on random branches and every term at
    # its sort (each side, each free variable, a fresh one) it must name
    # what the scan over disequations and members names (reference_support)
    seen = Counter()
    for seed in range(300):
        g = Gen(seed + 29000)
        forms = [normalize(g.efo_formula(2, quasi=True)) for _ in range(4)]
        us = [ref(g.var(a)) for _ in range(3)]
        forms += [diseq(u, v) for u, v in itertools.combinations(us, 2)][: seed % 4]
        br = branch_of(*forms)
        for s in br.members(FormulaKind.FORALL):
            at = br.info(s).sort
            terms = [*br.discriminating_terms(at), *map(ref, br.vars_of_type(at))]
            for u in dict.fromkeys([*terms, ref(fresh_var(at, br.free_names))]):
                r = rules.instance_of(RuleId.FORALL_INST, (s,), u)
                want = reference_support(br, r)
                assert support(br, r) == want, (seed, r)
                side = u in br.discriminating_terms(at)
                seen["side" if side else "free" if len(want) > 1 else "none"] += 1
    assert min(seen["side"], seen["free"], seen["none"]) >= 100, seen


# ---------------------------------------------------------------------------
# Soundness: every applicable instance preserves satisfiability


def _alternative_holds(model, alt):
    extra = []
    for s in alt:
        for n in variables_in([s]):
            if n not in model.interp and n not in extra:
                extra.append(n)
    domains = [model.frame.domain(n.ty) for n in extra]
    for values in itertools.product(*domains):
        interp = dict(model.interp)
        interp.update(zip(extra, values))
        m = Model(model.frame, interp)
        if all(eval_term(m, s) == 1 for s in alt):
            return True
    return False


def test_rule_soundness_on_random_branches():
    checked = 0
    for seed in range(60):
        g = Gen(seed + 5000)
        formulas = [normalize(g.efo_formula(2, quasi=True)) for _ in range(2)]
        br = branch_of(*formulas)
        if len(variables_in(br.formulas)) > 4:
            continue
        try:
            instances = applicable_efo(br)
        except FragmentViolation:
            raise AssertionError("generator produced a non-quasi branch")
        if not instances:
            continue
        models = list(itertools.islice(enumerate_models(br.formulas, max_size=2), 8))
        for inst in instances[:4]:
            for model in models:
                assert any(
                    _alternative_holds(model, alt) for alt in inst.alternatives
                ), f"unsound {inst!r} on {br!r}"
                checked += 1
    assert checked >= 30


def test_alternatives_stay_normal_and_quasi():
    from hotab.fragments import quasi_efo_violation

    for seed in range(120):
        g = Gen(seed + 9000)
        formulas = [normalize(g.efo_formula(2, quasi=True)) for _ in range(2)]
        br = branch_of(*formulas)
        for inst in applicable_efo(br):
            # search, proof parsing and proof checking agree on the instance
            assert make_instance(inst.rule, inst.premises, inst.inst) == inst
            assert check_instance(br, inst)
            for alt in inst.alternatives:
                for s in alt:
                    assert s.ty == o
                    assert is_normal(s)
                    assert quasi_efo_violation(s) is None
