"""Normalization and substitution laws, checked against independent oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from hotab.kernel import (
    App,
    Name,
    app,
    eq,
    free_vars,
    fun,
    lam,
    neg,
    o,
    ref,
    sort,
    spine,
    type_of,
)
from hotab.normalize import apply_norm, is_normal, normalize, substitute
from hotab.rules import as_branch
from helpers import Gen, subterms

a = sort("a")
b = sort("b")


def _has_redex(t) -> bool:
    """Independent redex scan used as the oracle for is_normal."""
    return any(type(s) is App and type(s.fun).__name__ == "Lam" for s in subterms(t))


# ---------------------------------------------------------------------------
# Hand-picked reductions


def test_classic_reductions():
    x = Name("x", a)
    y = Name("y", a)
    ident = lam(x, ref(x))
    assert normalize(app(ident, ref(y))) == ref(y)
    k = lam(x, lam(y, ref(x)))
    u, v = Name("u", a), Name("v", a)
    assert normalize(app(k, ref(u), ref(v))) == ref(u)
    # reduction under binders
    f = Name("f", fun(a, a))
    t = lam(y, app(ident, app(ref(f), ref(y))))
    assert normalize(t) == lam(y, app(ref(f), ref(y)))


def test_nested_redex_created_by_contraction():
    # ((lam g. g x) (lam y. y)) needs a second contraction after the first
    x = Name("x", a)
    g = Name("g", fun(a, a))
    y = Name("y", a)
    t = app(lam(g, app(ref(g), ref(x))), lam(y, ref(y)))
    assert normalize(t) == ref(x)


def test_reduction_under_a_binder_cannot_capture_the_argument():
    # inside lam h. (lam y. lam z. y) (h v) w, the argument (h v) mentions
    # the enclosing binder; pushing it under lam z must not bind it to z
    v = Name("v", a)
    w = Name("w", fun(a, a))
    h = Name("h", fun(a, a))
    y = Name("y", a)
    z = Name("z", fun(a, a))
    k = lam(y, lam(z, ref(y)))
    t = lam(h, app(k, app(ref(h), ref(v)), ref(w)))
    assert normalize(t) == lam(h, app(ref(h), ref(v)))
    # the same reduction two binders deep
    u = Name("u", a)
    t2 = lam(h, lam(u, app(k, app(ref(h), ref(u)), ref(w))))
    assert normalize(t2) == lam(h, lam(u, app(ref(h), ref(u))))


def test_normalize_examples_with_equations():
    x = Name("x", o)
    y = Name("y", o)
    fx = lam(x, ref(x))
    fy = lam(x, ref(y))
    t = eq(app(fx, ref(y)), app(fy, ref(x)))
    assert normalize(t) == eq(ref(y), ref(y))


def test_a_deep_normal_term_is_returned_without_a_walk():
    t = ref(Name("p", o))
    for _ in range(5000):  # far deeper than the interpreter's recursion limit
        t = neg(t)
    assert normalize(t) is t
    assert as_branch([t]).formulas == [t]


# ---------------------------------------------------------------------------
# Laws on random terms


def test_is_normal_matches_redex_scan_and_fixpoint():
    g = Gen(7)
    for i in range(500):
        t = g.term(g.type(2), depth=3, redex_prob=0.25)
        assert is_normal(t) == (not _has_redex(t))
        assert is_normal(t) == (normalize(t) == t)


def test_normalize_idempotent_and_type_preserving():
    g = Gen(11)
    for i in range(500):
        t = g.term(g.type(2), depth=3, redex_prob=0.3)
        n = normalize(t)
        assert is_normal(n)
        assert normalize(n) == n
        assert type_of(n) == type_of(t)
        assert free_vars(n) <= free_vars(t)


def test_prenormalizing_the_function_is_harmless():
    g = Gen(13)
    for i in range(400):
        ty = g.type(1)
        f = g.term(fun(ty, g.base()), depth=3, redex_prob=0.3)
        u = g.term(ty, depth=2, redex_prob=0.3)
        assert normalize(App(normalize(f), u)) == normalize(App(f, u))


def test_name_headed_base_terms_normalize_argumentwise():
    g = Gen(17)
    for i in range(400):
        t = g.term(g.rng.choice([o, a, b]), depth=3, redex_prob=0.25)
        head, args = spine(t)
        if type(head).__name__ != "Ref" or not args:
            continue
        expect = app(head, *[normalize(s) for s in args])
        assert normalize(t) == expect


def test_apply_norm_agrees_with_normalize():
    g = Gen(19)
    for i in range(400):
        ty = g.type(1)
        cod = g.base()
        f = normalize(g.term(fun(ty, cod), depth=3, redex_prob=0.3))
        u = normalize(g.term(ty, depth=2, redex_prob=0.3))
        assert apply_norm(f, u) == normalize(App(f, u))
        assert is_normal(apply_norm(f, u))


# ---------------------------------------------------------------------------
# Substitution


def test_substitute_name_clause():
    x = Name("x", a)
    y = Name("y", b)
    u = ref(Name("u", a))
    theta = {x: u}
    assert substitute(theta, ref(x)) == u
    assert substitute(theta, ref(y)) == ref(y)  # untouched name


def test_substitute_application_homomorphism():
    g = Gen(23)
    for i in range(400):
        ty = g.type(1)
        f = g.term(fun(ty, g.base()), depth=2)
        u = g.term(ty, depth=2)
        theta = g.subst(App(f, u))
        assert substitute(theta, App(f, u)) == App(
            substitute(theta, f), substitute(theta, u)
        )


def test_substitute_rejects_bad_maps():
    x = Name("x", a)
    with pytest.raises(TypeError):
        substitute({x: ref(Name("y", b))}, ref(x))
    from hotab.kernel import NOT

    with pytest.raises(TypeError):
        substitute({NOT: ref(Name("y", NOT.ty))}, ref(x))


def test_substitution_cannot_capture():
    x = Name("x", a)
    y = Name("y", a)
    # lam y. x  under  x := y  must stay a constant function returning free y
    t = lam(y, ref(x))
    s = substitute({x: ref(y)}, t)
    assert s.body == ref(y)  # a free reference, not the binder
    assert free_vars(s) == {y}
    assert normalize(app(s, ref(Name("z", a)))) == ref(y)


def test_empty_substitution_is_identity():
    g = Gen(29)
    for i in range(100):
        t = g.term(g.type(2), depth=3, redex_prob=0.2)
        assert substitute({}, t) is t
        assert normalize(substitute({}, t)) == normalize(t)


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_substitution_commutes_with_beta(seed):
    # normalize((theta lam(x, s)) t) == normalize((theta | {x := t}) s)
    rng = random.Random(seed)
    g = Gen(rng)
    dom = g.type(1)
    x = Name("subst_target", dom)
    s = g.term(g.base(), depth=3, scope=(x,), redex_prob=0.2)
    t = g.term(dom, depth=2, redex_prob=0.2)
    theta = g.subst(s)
    theta.pop(x, None)
    lhs = normalize(App(substitute(theta, lam(x, s)), t))
    rhs = normalize(substitute({**theta, x: t}, s))
    assert lhs == rhs


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_substitution_then_normalize_is_stable(seed):
    # normalizing before a normality-preserving use never changes the result:
    # normalize(substitute(theta, normalize(s))) == normalize(substitute(theta, s))
    g = Gen(random.Random(seed))
    s = g.term(g.type(2), depth=3, redex_prob=0.3)
    theta = g.subst(s)
    assert normalize(substitute(theta, normalize(s))) == normalize(
        substitute(theta, s)
    )
