"""Kernel tests: the canonical representation against a naive named oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from hotab import kernel
from hotab.kernel import (
    App,
    Base,
    Bound,
    Fun,
    IMP,
    Lam,
    Name,
    NOT,
    Ref,
    app,
    as_diseq,
    as_eq,
    as_forall,
    as_imp,
    as_neg,
    diseq,
    eq,
    eq_const,
    eq_operand_type,
    forall,
    forall_const,
    forall_sort,
    free_vars,
    free_vars_ordered,
    fun,
    imp,
    instantiate,
    is_sort,
    lam,
    names,
    neg,
    o,
    ref,
    shift,
    show_term,
    show_type,
    sort,
    spine,
    type_of,
)
from hotab.branch import FormulaKind, _shape, classify
from hotab.normalize import is_normal, substitute
from hotab.problems import parse
from hotab.rules import efo_violation, quasi_efo_violation
from hotab.search import Refuted, SearchConfig, refute
from hotab.selection import fresh_var
from helpers import (
    Gen,
    chain_text,
    named_alpha_eq,
    named_to_term,
    napp,
    nlam,
    nvar,
    rename_binders,
    subterms,
)

a = sort("a")
b = sort("b")


# ---------------------------------------------------------------------------
# Construction and typing


def test_types():
    assert fun(a, b, o) == Fun(a, Fun(b, o))
    assert fun(a, b, o) != Fun(Fun(a, b), o)
    assert show_type(fun(a, b, o)) == "(> a b o)"
    assert show_type(fun(fun(a, o), o)) == "(> (> a o) o)"
    with pytest.raises(ValueError):
        sort("o")


def test_application_typechecks():
    f = Name("f", fun(a, b))
    x = Name("x", a)
    y = Name("y", b)
    t = app(ref(f), ref(x))
    assert type_of(t) == b
    with pytest.raises(TypeError):
        app(ref(f), ref(y))
    with pytest.raises(TypeError):
        app(ref(x), ref(y))


def test_formula_builders():
    x = Name("x", a)
    y = Name("y", a)
    p = Name("p", o)
    assert as_eq(eq(ref(x), ref(y))) == (a, ref(x), ref(y))
    assert as_diseq(diseq(ref(x), ref(y))) == (a, ref(x), ref(y))
    assert as_neg(neg(ref(p))) == ref(p)
    assert as_imp(imp(ref(p), ref(p))) == (ref(p), ref(p))
    q = lam(x, eq(ref(x), ref(y)))
    assert as_forall(forall(q)) == (a, q)
    with pytest.raises(TypeError):
        eq(ref(x), ref(p))
    with pytest.raises(TypeError):
        forall(ref(p))
    with pytest.raises(ValueError):
        forall_const(fun(a, a))  # only sorts are quantifiable


def test_constants_interned():
    assert eq_const(a) is eq_const(a)
    assert eq_const(a) != eq_const(b)
    assert forall_const(a) is forall_const(a)
    assert not eq_const(a).is_var


def test_spine():
    f = Name("f", fun(a, a, b))
    x = Name("x", a)
    t = app(ref(f), ref(x), ref(x))
    assert spine(t) == (ref(f), (ref(x), ref(x)))
    assert spine(ref(x)) == (ref(x), ())


# ---------------------------------------------------------------------------
# Sharing: a term built from equal arguments is the same object


def _sample():
    x = Name("x", a)  # names are kept for good: the same object on every call
    return lam(x, app(ref(Name("f", fun(a, a, o))), ref(x), ref(Name("y", a))))


def test_an_equal_term_is_built_once():
    kernel._shared.clear()
    assert _sample() is _sample()
    assert Bound(0, a) is Bound(0, a) and Ref(Name("y", a)) is Ref(Name("y", a))


def test_terms_built_after_the_table_is_emptied_equal_those_built_before():
    before = _sample()
    kernel._shared.clear()
    after = _sample()
    assert after is not before and after.body is not before.body
    assert after == before and hash(after) == hash(before)


def test_the_table_never_grows_past_its_bound(monkeypatch):
    monkeypatch.setattr(kernel, "SHARED_BOUND", 5)
    kernel._shared.clear()
    sizes = []
    for i in range(20):
        t = Ref(Name(f"c{i}", a))
        sizes.append(len(kernel._shared))
        assert Ref(Name(f"c{i}", a)) is t  # the newest term is always kept
    assert max(sizes) == 5 and sizes[5] == 1


def test_an_ill_typed_application_leaves_no_entry():
    f, y = ref(Name("f", fun(a, b))), ref(Name("y", b))
    size = len(kernel._shared)
    with pytest.raises(TypeError):
        App(f, y)
    assert len(kernel._shared) == size


def _one_object_each():
    assert Fun(a, o) is Fun(a, o)
    assert sort("a") is Base("a")
    x = Name("x", a)
    assert Name("x", a, True) is x and Name("x", a, is_var=True) is x
    assert Name("x", a, False) is not x
    assert eq_const(a) is eq_const(a)
    return x


def test_equal_types_and_names_are_one_object():
    x = _one_object_each()
    kernel._shared.clear()  # empties the term table only
    assert _one_object_each() is x


def test_solving_a_problem_again_keeps_no_new_type_or_name():
    def solve():
        p = parse(chain_text(3))
        return refute(p.assumptions, SearchConfig(reserved=p.variables))

    assert isinstance(solve(), Refuted)
    size = len(kernel._kept)
    assert isinstance(solve(), Refuted)
    assert len(kernel._kept) == size


# ---------------------------------------------------------------------------
# Alpha-canonicity


def test_binding_basics():
    x = Name("x", a)
    y = Name("y", a)
    f = Name("f", fun(a, a))
    # lam stores an index, not the name
    t = lam(x, app(ref(f), ref(x)))
    assert type(t.body) is App and type(t.body.arg) is Bound
    # equal no matter which name was bound
    assert t == lam(y, app(ref(f), ref(y)))
    # constant functions keep their free variable
    k = lam(x, ref(y))
    assert k.body == ref(y)
    assert free_vars(k) == {y}
    # instantiate undoes lam
    assert instantiate(t.body, ref(y)) == app(ref(f), ref(y))


def test_shadowing():
    x = Name("x", a)
    inner = lam(x, ref(x))  # binds its own x
    t = lam(x, app(inner, ref(x)))
    # outer binder only captures the occurrence outside the inner lam
    assert t.body == App(Lam(a, Bound(0, a)), Bound(0, a))



# ---------------------------------------------------------------------------
# The binder operations return what they leave unchanged as the same object


def test_shift_returns_a_term_without_dangling_indices_itself():
    x, y, c = Name("x", a), Name("y", a), Name("c", a)
    f = Name("f", fun(a, a, a))
    # lam y. f ((lam x. f x y) y) c: every index is bound inside the term
    t = lam(y, app(ref(f), app(lam(x, app(ref(f), ref(x), ref(y))), ref(y)), ref(c)))
    assert shift(t, 1) is t
    # under the outer binder y dangles: it is raised, and c is kept
    shifted = shift(t.body, 1)
    assert shifted != t.body and shifted.arg is t.body.arg


def _sharing_parts():
    """k = g (g c) and m = h (lam y. g y), which mention no x; the head f;
    and a term u = g c to instantiate with."""
    y, c = Name("y", a), Name("c", a)
    f, g = Name("f", fun(a, a, a)), Name("g", fun(a, a))
    h = Name("h", fun(fun(a, a), a))
    k = app(ref(g), app(ref(g), ref(c)))
    m = app(ref(h), lam(y, app(ref(g), ref(y))))
    return k, m, ref(f), app(ref(g), ref(c))


def test_lam_shares_the_subterms_without_the_variable():
    k, m, f, _ = _sharing_parts()
    x = Name("x", a)
    body = app(f, app(f, ref(x), k), m)  # f (f x k) m
    t = lam(x, body)
    assert t.body == app(f, app(f, Bound(0, a), k), m)
    assert t.body.arg is m and t.body.fun.arg.arg is k and t.body.fun.fun is f


def test_instantiate_shares_the_subterms_without_the_variable():
    k, m, f, u = _sharing_parts()
    out = instantiate(app(f, app(f, Bound(0, a), k), m), u)
    assert out == app(f, app(f, u, k), m)
    assert out.arg is m and out.fun.arg.arg is k and out.fun.fun is f
    assert out.fun.arg.fun.arg is u


def test_substitute_returns_a_term_without_the_variable_itself():
    x, y = Name("x", a), Name("y", a)
    f = Name("f", fun(a, a, a))
    t = lam(y, app(ref(f), ref(y), ref(y)))
    assert substitute({x: ref(y)}, t) is t
    assert substitute({x: ref(y)}, app(t, ref(x))).fun is t

def test_free_vars():
    p = Name("p", fun(fun(a, o), o))
    f = Name("f", fun(a, o))
    formula = neg(app(ref(p), ref(f)))
    assert free_vars(formula) == {p, f}  # the negation constant is excluded
    x = Name("x", a)
    y = Name("y", a)
    assert free_vars(lam(x, eq(ref(x), ref(y)))) == {y}
    assert free_vars_ordered(app(ref(f), ref(x))) == (f, x)


def test_names_are_leftmost_first_across_binders_and_constants():
    f = Name("f", fun(a, a, o))
    x, y, z = Name("x", a), Name("y", a), Name("z", a)
    p = Name("p", o)
    # imp (forall z. f y z) (not (= x y)) and p
    body = imp(forall(lam(z, app(ref(f), ref(y), ref(z)))), neg(eq(ref(x), ref(y))))
    t = app(ref(Name("and", fun(o, o, o), is_var=False)), body, ref(p))
    idents = [n.ident for n in names(t)]
    assert idents == ["and", "imp", "forall", "f", "y", "not", "=", "x", "y", "p"]
    assert free_vars_ordered(t) == (f, y, x, p)


def test_name_walks_survive_deep_nesting():
    p = Name("p", o)
    t = ref(p)
    for _ in range(5000):
        t = neg(t)
    assert free_vars(t) == {p}
    assert free_vars_ordered(t) == (p,)
    assert len(list(names(t))) == 5001
    assert efo_violation(t) is None and quasi_efo_violation(t) is None
    assert classify(t).kind is FormulaKind.DOUBLE_NEG


# ---------------------------------------------------------------------------
# Facts carried from construction (fv, normal, efo) and kept on first use
# (negation, info)


def _fv_reference(t):
    """Free variables in first-occurrence order, by a walk over names(t)."""
    return tuple(dict.fromkeys(n for n in names(t) if n.is_var))


def _normal_reference(t):
    """No beta redex anywhere in t, by the recursive definition."""
    if type(t) is App:
        fn = t.fun
        return type(fn) is not Lam and _normal_reference(fn) and _normal_reference(t.arg)
    if type(t) is Lam:
        return _normal_reference(t.body)
    return True


def _efo_reference(t):
    """First subterm using a constant outside the restricted signature, by
    the recursive walk: negation, implication, equality at sorts and
    quantifiers at sorts are inside, and so are variables of any type."""
    if type(t) is Ref:
        n = t.name
        if n.is_var or n == NOT or n == IMP:
            return None
        ty = eq_operand_type(n) or forall_sort(n)
        return None if ty is not None and is_sort(ty) else t
    if type(t) is App:
        return _efo_reference(t.fun) or _efo_reference(t.arg)
    if type(t) is Lam:
        return _efo_reference(t.body)
    return None


def _carried_sample(seed):
    """800 terms: redexes (under binders too) and formulas over constants,
    among them quantified implications whose two sides may each leave the
    restricted signature."""
    g = Gen(seed)
    out = []
    for _ in range(200):
        out.append(g.term(g.type(2), depth=4, redex_prob=0.3))
        out.append(g.formula(3))
        out.append(g.efo_formula(3, quasi=True))
        x = g.binder(g.sort_type())
        out.append(forall(lam(x, imp(g.formula(2), g.formula(2)))))
    return out


def test_fv_and_normal_match_their_walks():
    kernel._shared.clear()
    before = _carried_sample(23)
    kernel._shared.clear()
    after = _carried_sample(23)
    assert sum(s is t for s, t in zip(before, after)) == 0
    assert any(not t.normal for t in before)
    assert any(type(s) is Lam and not s.normal for t in before for s in subterms(t))
    assert any(not n.is_var for t in before for n in names(t))
    assert any(t.efo is not None for t in before)
    assert any(type(s) is Lam and s.efo is not None for t in before for s in subterms(t))
    apps = [s for t in before for s in subterms(t) if type(s) is App]
    sides = [(s.fun.efo, s.arg.efo) for s in apps]
    assert any(None not in two and two[0] != two[1] for two in sides)  # leftmost
    assert any(t.ty == o and t.efo is None for t in before)
    for terms in (before, after):
        for t in terms:
            assert t.fv == free_vars_ordered(t) == _fv_reference(t)
            assert free_vars(t) == frozenset(_fv_reference(t))
            assert t.normal == is_normal(t) == _normal_reference(t)
            assert t.efo == efo_violation(t) == _efo_reference(t)
            if t.ty == o:
                assert neg(t) is neg(t) == App(Ref(NOT), t)
                assert classify(t) is classify(t) == _shape(t)
    for s, t in zip(before, after):
        assert s == t and (s.fv, s.normal) == (t.fv, t.normal)
        assert s.efo == t.efo
        if s.ty == o:
            assert neg(s) == neg(t) and classify(s) == classify(t)
    kernel._shared.clear()
    rebuilt = _carried_sample(23)  # after the table is emptied once more
    for s, t in zip(before, rebuilt):
        assert s is not t and s.efo == t.efo
        if s.ty == o:
            assert neg(s) == neg(t) == App(Ref(NOT), t)
            assert classify(s) == classify(t)


def test_fresh_var():
    assert fresh_var(a, []) == Name("x0", a)
    avoid = [Name("x0", a), Name("x2", b)]
    assert fresh_var(b, avoid) == Name("x1", b)
    avoid2 = [Name("x0", a), Name("x1", b)]
    assert fresh_var(o, avoid2).ident == "x2"
    # deterministic under reordering
    assert fresh_var(o, avoid2) == fresh_var(o, list(reversed(avoid2)))


def _named_gen(rng: random.Random, ty, scope, sig, depth):
    """Random well-typed named term; binders reuse x/y/z to force shadowing."""
    if depth > 0 and type(ty) is Fun and rng.random() < 0.5:
        ident = rng.choice(["x", "y", "z"])
        body = _named_gen(rng, ty.cod, scope + ((ident, ty.dom),), sig, depth - 1)
        return nlam(ident, ty.dom, body)
    visible = dict(scope)  # innermost binding per identifier wins
    cands = [(i, t) for (i, t) in visible.items() if t == ty]
    if depth <= 0:
        if cands and rng.random() < 0.7:
            return nvar(*rng.choice(cands))
        ident = f"g{len(sig)}"
        n = sig.setdefault(ident, Name(ident, ty))
        return nvar(ident, n.ty)
    k = rng.choice([0, 0, 1, 2])
    dts = [rng.choice([o, a, b]) for _ in range(k)]
    hty = fun(*dts, ty) if dts else ty
    hcands = [(i, t) for (i, t) in visible.items() if t == hty]
    if hcands and rng.random() < 0.5:
        head = nvar(*rng.choice(hcands))
    else:
        ident = f"g{len(sig)}"
        n = sig.setdefault(ident, Name(ident, hty))
        head = nvar(ident, n.ty)
    args = [_named_gen(rng, d, scope, sig, depth - 1) for d in dts]
    return napp(head, *args)


def _rand_ty(rng: random.Random, depth=2):
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice([o, a, b])
    return Fun(_rand_ty(rng, depth - 1), _rand_ty(rng, depth - 1))


def test_alpha_equality_matches_naive_oracle():
    rng = random.Random(2024)
    for _ in range(400):
        sig: dict[str, Name] = {}
        ty = _rand_ty(rng)
        s = _named_gen(rng, ty, (), sig, rng.randint(1, 4))
        # binder renaming preserves both oracle and canonical equality
        r = rename_binders(s, rng)
        assert named_alpha_eq(s, r)
        assert named_to_term(s, sig) == named_to_term(r, sig)
        # an independently drawn term agrees with the oracle either way
        t = _named_gen(rng, ty, (), sig, rng.randint(1, 4))
        assert named_alpha_eq(s, t) == (named_to_term(s, sig) == named_to_term(t, sig))


def test_alpha_hand_cases():
    x, y = Name("x", a), Name("y", a)
    assert lam(x, lam(y, ref(x))) == lam(y, lam(x, ref(y)))
    assert lam(x, lam(y, ref(x))) != lam(x, lam(y, ref(y)))
    assert ref(x) != ref(y)
    assert lam(x, ref(x)) != lam(Name("x", b), ref(Name("x", b)))


@given(st.integers(0, 10**9))
def test_equal_terms_equal_hashes(seed):
    rng = random.Random(seed)
    sig: dict[str, Name] = {}
    ty = _rand_ty(rng)
    s = _named_gen(rng, ty, (), sig, 3)
    t1 = named_to_term(s, sig)
    t2 = named_to_term(rename_binders(s, rng), sig)
    assert t1 == t2 and hash(t1) == hash(t2)
    assert type_of(t1) == ty


# ---------------------------------------------------------------------------
# Printing


def test_show_term_basics():
    x = Name("x", a)
    y = Name("y", a)
    f = Name("f", fun(a, o))
    assert show_term(ref(x)) == "x"
    assert show_term(neg(app(ref(f), ref(x)))) == "(not (f x))"
    assert show_term(eq(ref(x), ref(y))) == "(= x y)"
    assert show_term(imp(ref(Name("p", o)), ref(Name("q", o)))) == "(imp p q)"


def test_show_term_picks_unclashing_binder():
    x = Name("x", a)
    y = Name("y", a)
    # display name for the binder must avoid the free variables x and y
    t = lam(x, eq(ref(x), ref(y)))
    s = show_term(app(ref(Name("x", fun(fun(a, o), o))), t))
    assert s == "(x (lam (z a) (= z y)))"
    assert show_term(forall(t)) == "(forall (x a) (= x y))"


def test_show_bare_forall_is_marked():
    f = Name("f", fun(a, o))
    assert show_term(forall(ref(f))) == "(!forall f)"


def test_show_term_with_one_memo_prints_what_it_prints_without():
    # one memo across many terms, with binders, redexes and variables named
    # like display names: the memo keeps only text no binder name reaches
    memo: dict = {}
    printed = 0
    for seed in range(300):
        g = Gen(seed + 31000)
        for t in (g.formula(3), g.term(g.type(2), 3, redex_prob=0.3)):
            for u in (t, forall(lam(Name("x", a), t)) if t.ty == o else t):
                assert show_term(u, memo) == show_term(u), seed
                printed += 1
    assert printed >= 900 and memo
