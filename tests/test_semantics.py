"""Semantics tests: frames, evaluation, enumeration, extraction mechanics."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hotab.branch import Branch, branch_of
from hotab.fragments import decide
from hotab.kernel import (
    NOT,
    IMP,
    Name,
    app,
    diseq,
    eq,
    eq_const,
    forall,
    forall_const,
    fun,
    imp,
    lam,
    neg,
    o,
    ref,
    sort,
)
from hotab.normalize import normalize, substitute
from hotab.models import (
    CardinalityError,
    Frame,
    Model,
    check_model,
    eval_term,
    show_model,
    show_value,
)
from hotab.search import Satisfiable
from hotab.semantics import (
    ExtractionFailure,
    discriminants,
    enumerate_models,
    extract_model,
    has_model,
    sorts_in,
    variables_in,
)
from helpers import Gen

a = sort("a")
b = sort("b")
x, y, z = Name("x", a), Name("y", a), Name("z", a)
p, q = Name("p", o), Name("q", o)


# ---------------------------------------------------------------------------
# Frames


def test_domains():
    f = Frame({a: 3})
    assert f.domain(o) == (0, 1)
    assert f.domain(a) == (0, 1, 2)
    assert f.size(fun(a, o)) == 8
    assert len(f.domain(fun(a, o))) == 8
    assert f.domain(fun(a, o))[0] == (0, 0, 0)  # deterministic order
    assert f.index(fun(a, o), (0, 0, 0)) == 0
    with pytest.raises(ValueError):
        f.domain(b)  # undeclared sort
    with pytest.raises(ValueError):
        Frame({a: 0})


def test_cardinality_ceiling():
    f = Frame({a: 40}, max_table=2**20)
    with pytest.raises(CardinalityError):
        f.size(fun(a, a))  # 40^40 tables
    with pytest.raises(CardinalityError):
        f.domain(fun(a, a))


def test_canonical_constants():
    f = Frame({a: 2})
    assert f.constant(NOT) == (1, 0)
    assert f.constant(IMP) == ((1, 1), (0, 1))
    assert f.constant(eq_const(a)) == ((1, 0), (0, 1))
    # forall at a: true exactly on the constant-1 predicate
    fa = f.constant(forall_const(a))
    preds = f.domain(fun(a, o))
    assert all(
        (fa[i] == 1) == (pred == (1, 1)) for i, pred in enumerate(preds)
    )


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_basics():
    f = Frame({a: 2})
    m = Model(f, {x: 0, y: 1, p: 1})
    assert eval_term(m, ref(x)) == 0
    assert eval_term(m, eq(ref(x), ref(y))) == 0
    assert eval_term(m, diseq(ref(x), ref(y))) == 1
    assert eval_term(m, neg(ref(p))) == 0
    # lambda evaluates to its table
    assert eval_term(m, lam(z, ref(z))) == (0, 1)
    assert eval_term(m, lam(z, ref(x))) == (0, 0)
    # application via table lookup
    g = Name("g", fun(a, o))
    m2 = Model(f, {g: (1, 0), x: 1})
    assert eval_term(m2, app(ref(g), ref(x))) == 0
    # env overrides
    assert eval_term(m2, app(ref(g), ref(x)), env={x: 0}) == 1


def test_eval_forall():
    f = Frame({a: 2})
    m = Model(f, {y: 1})
    everything_is_y = forall(lam(z, eq(ref(z), ref(y))))
    assert eval_term(m, everything_is_y) == 0
    f1 = Frame({a: 1})
    m1 = Model(f1, {y: 0})
    assert eval_term(m1, everything_is_y) == 1


def test_applied_constants_agree_with_their_tables():
    # applied constants are evaluated from their definitions; the tables
    # of the constants themselves must give the same values
    f = Frame({a: 2})
    r = Name("r", fun(a, o))
    for vx, vy, vp, vq, vr in itertools.product(
        range(2), range(2), range(2), range(2), f.domain(fun(a, o))
    ):
        m = Model(f, {x: vx, y: vy, p: vp, q: vq, r: vr})
        cases = [
            (ref(NOT), (ref(p),)),
            (ref(IMP), (ref(p), ref(q))),
            (ref(eq_const(a)), (ref(x), ref(y))),
            (ref(eq_const(o)), (ref(p), ref(q))),
            (ref(eq_const(fun(a, o))), (ref(r), lam(z, ref(p)))),
            (ref(forall_const(a)), (ref(r),)),
        ]
        for head, args in cases:
            want, ty = eval_term(m, head), head.ty
            for arg in args:
                want = f.apply(ty, want, eval_term(m, arg))
                ty = ty.cod
            assert eval_term(m, app(head, *args)) == want


def test_quantifier_over_many_constants_builds_no_predicate_space():
    # 18 distinct constants and (forall x. r x): checking the quantifier
    # once indexed all 2^18 predicates on the sort (2.2 s, 68 MB)
    cs = [ref(Name(f"c{i}", a)) for i in range(18)]
    r = Name("r", fun(a, o))
    formulas = [diseq(c, d) for c, d in itertools.combinations(cs, 2)]
    formulas.append(forall(lam(z, app(ref(r), ref(z)))))
    formulas = [normalize(s) for s in formulas]
    tracemalloc.start()
    try:
        verdict = decide(branch_of(*formulas))
        assert isinstance(verdict, Satisfiable)
        assert verdict.model.frame.sort_sizes == {a: 18}
        assert check_model(verdict.model, formulas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_eval_missing_variable_is_loud():
    m = Model(Frame({a: 2}), {})
    with pytest.raises(KeyError):
        eval_term(m, ref(x))


def test_model_rejects_constant_interpretations():
    with pytest.raises(ValueError):
        Model(Frame({}), {NOT: (1, 0)})


@settings(max_examples=300)
@given(st.integers(0, 10**9))
def test_eval_invariant_under_normalization(seed):
    g = Gen(random.Random(seed))
    t = g.term(g.type(2), depth=3, redex_prob=0.35)
    m = g.model_for([t] if t.ty == o else [], max_size=3)
    # the model must cover t's sorts and variables even when t is not a formula
    from hotab.models import Frame as F

    frame = g.frame_for([t])
    interp = {n: g.value(frame, n.ty) for n in variables_in([t])}
    m = Model(frame, interp)
    assert eval_term(m, t) == eval_term(m, normalize(t))


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_eval_substitution_bridge(seed):
    # eval(theta(t)) == eval(t) with variables reassigned to eval(theta(x))
    g = Gen(random.Random(seed))
    t = g.term(g.type(2), depth=3, redex_prob=0.2)
    theta = g.subst(t)
    st_ = substitute(theta, t)
    frame = g.frame_for([t, st_] if t.ty == o else [])
    frame = g.frame_for([st_, t])
    names = set(variables_in([t])) | set(variables_in([st_]))
    interp = {n: g.value(frame, n.ty) for n in names}
    m = Model(frame, interp)
    env = {n: interp[n] for n in interp}
    for v, u in theta.items():
        env[v] = eval_term(m, u)
    assert eval_term(m, st_) == eval_term(m, t, env=env)


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_models_truth_variable():
    ms = list(enumerate_models([ref(p)]))
    assert len(ms) == 1 and ms[0].interp[p] == 1
    assert not has_model([ref(p), neg(ref(p))])


def test_enumerate_models_disequation_needs_two_elements():
    goal = [diseq(ref(x), ref(y))]
    assert not has_model(goal, max_size=1)
    ms = list(enumerate_models(goal, max_size=2))
    assert ms and all(m.interp[x] != m.interp[y] for m in ms)
    assert all(check_model(m, goal) for m in ms)


def test_enumerate_models_is_deterministic():
    goal = [eq(ref(x), ref(y))]
    c1 = [tuple(sorted((n.ident, v) for n, v in m.interp.items()))
          for m in enumerate_models(goal, max_size=2)]
    c2 = [tuple(sorted((n.ident, v) for n, v in m.interp.items()))
          for m in enumerate_models(goal, max_size=2)]
    assert c1 == c2 and len(c1) == 1 + 2  # size 1: one model; size 2: diagonal


def test_sorts_and_variables_collection():
    t = forall(lam(x, app(ref(Name("g", fun(a, b, o))), ref(x), ref(Name("w", b)))))
    assert sorts_in([t]) == (a, b)
    assert variables_in([t]) == (Name("g", fun(a, b, o)), Name("w", b))


# ---------------------------------------------------------------------------
# Discriminants


def test_discriminants_hand_cases():
    assert discriminants(Branch(), a) == (frozenset(),)
    b1 = branch_of(diseq(ref(x), ref(y)))
    assert set(discriminants(b1, a)) == {frozenset([ref(x)]), frozenset([ref(y)])}
    tri = branch_of(
        diseq(ref(x), ref(y)), diseq(ref(y), ref(z)), diseq(ref(x), ref(z))
    )
    assert set(discriminants(tri, a)) == {
        frozenset([ref(x)]),
        frozenset([ref(y)]),
        frozenset([ref(z)]),
    }
    path = branch_of(diseq(ref(x), ref(y)), diseq(ref(y), ref(z)))
    assert set(discriminants(path, a)) == {
        frozenset([ref(x), ref(z)]),
        frozenset([ref(y)]),
    }


def test_discriminants_with_self_conflict():
    t = app(ref(Name("f", fun(a, a))), ref(x))
    b1 = branch_of(diseq(t, t))
    # t conflicts with itself, so the only maximal independent set is empty
    assert discriminants(b1, a) == (frozenset(),)


def _oracle_discriminants(vertices, diseq_pairs):
    """Exhaustive subset check: maximal conflict-free subsets."""
    conf = set()
    for u, v in diseq_pairs:
        conf.add((u, v))
        conf.add((v, u))

    def independent(s):
        return all((u, v) not in conf for u in s for v in s)

    subsets = []
    for r in range(len(vertices) + 1):
        for c in itertools.combinations(vertices, r):
            if independent(set(c)):
                subsets.append(frozenset(c))
    return {
        s for s in subsets if not any(s < t for t in subsets)
    }


def test_discriminants_match_exhaustive_oracle():
    rng = random.Random(99)
    f = Name("f", fun(a, a))
    pool = [ref(Name(f"d{i}", a)) for i in range(6)] + [
        app(ref(f), ref(Name(f"d{i}", a))) for i in range(2)
    ]
    for _ in range(300):
        k = rng.randint(0, 6)
        pairs = [
            (rng.choice(pool), rng.choice(pool)) for _ in range(k)
        ]
        b1 = Branch()
        for u, v in pairs:
            b1 = branch_of(*b1, diseq(u, v))
        got = discriminants(b1, a)
        vertices = b1.discriminating_terms(a)
        want = _oracle_discriminants(vertices, pairs)
        assert set(got) == want
        assert len(got) == len(set(got))
        assert len(got) <= 2 ** len(b1.disequations(a))
        # deterministic
        assert discriminants(b1, a) == got
        # distinct discriminants are separated by some disequation
        conf = {(u, v) for u, v in pairs} | {(v, u) for u, v in pairs}
        for d1 in got:
            for d2 in got:
                if d1 != d2:
                    assert any(
                        (u, v) in conf for u in d1 for v in d2
                    ) or any((u, v) in conf for u in d2 for v in d1)


# ---------------------------------------------------------------------------
# Extraction mechanics (evidence-integrated tests live with the search tests)


def test_extract_model_simple_disequation():
    e = branch_of(diseq(ref(x), ref(y)))
    m = extract_model(e)
    assert m.frame.sort_sizes[a] == 2
    assert m.interp[x] != m.interp[y]
    assert check_model(m, e.formulas)
    # the sort's elements are labelled by the discriminants
    labels = m.frame.sort_labels[a]
    assert frozenset([ref(x)]) in labels and frozenset([ref(y)]) in labels


def test_extract_model_seeds_truth_variables():
    g = Name("g", fun(a, o))
    e = branch_of(app(ref(g), ref(x)), neg(app(ref(g), ref(y))), diseq(ref(x), ref(y)))
    m = extract_model(e)
    assert check_model(m, e.formulas)
    gv = m.interp[g]
    assert gv[m.interp[x]] == 1 and gv[m.interp[y]] == 0


def test_extract_model_no_disequations_gives_singletons():
    e = branch_of(eq(ref(x), ref(y)))
    m = extract_model(e)
    assert m.frame.sort_sizes[a] == 1
    assert m.interp[x] == m.interp[y] == 0


def test_extract_model_fails_loudly_when_unrealizable():
    # not evident and in fact unsatisfiable: mechanics must refuse
    e = branch_of(ref(p), neg(ref(p)))
    with pytest.raises(ExtractionFailure):
        extract_model(e)


def test_extract_model_backtracks_past_the_branch_read_table():
    # r c is on the branch and r d is not, so r's first streamed table is
    # (1, 0); the unexpanded implication rejects it and (1, 1) is taken
    c, d = Name("c", a), Name("d", a)
    r = Name("r", fun(a, o))
    e = branch_of(
        diseq(ref(c), ref(d)),
        app(ref(r), ref(c)),
        imp(app(ref(r), ref(c)), app(ref(r), ref(d))),
    )
    m = extract_model(e)
    assert m.frame.sort_labels[a] == (frozenset([ref(c)]), frozenset([ref(d)]))
    assert m.interp[r] == (1, 1)
    assert check_model(m, e.formulas)


def test_show_model_format():
    e = branch_of(diseq(ref(x), ref(y)))
    m = extract_model(e)
    text = show_model(m)
    assert "sort a : 2 elements" in text
    assert "var x : a = a" in text
    g = Name("g", fun(a, o))
    m2 = Model(m.frame, {g: (1, 0)})
    assert show_value(m2.frame, fun(a, o), (1, 0)) == "{a0 -> 1, a1 -> 0}"
