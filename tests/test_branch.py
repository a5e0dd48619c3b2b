"""Branch tests: classification, construction and undo, closure, and
discriminating terms."""

from __future__ import annotations

import random

import pytest

from hotab.branch import Branch, FormulaKind, branch_of, classify
from hotab.kernel import (
    Name,
    app,
    diseq,
    eq,
    forall,
    free_vars_ordered,
    fun,
    imp,
    lam,
    neg,
    o,
    ref,
    sort,
)
from hotab.normalize import is_normal, normalize
from hotab.semantics import discriminants

from helpers import Gen

a = sort("a")
b = sort("b")

x, y, z = Name("x", a), Name("y", a), Name("z", a)
p, q = Name("p", o), Name("q", o)
f = Name("f", fun(a, a))
g = Name("g", fun(a, o))


# ---------------------------------------------------------------------------
# Classification


def test_classify_kinds():
    cases = [
        (neg(neg(ref(p))), FormulaKind.DOUBLE_NEG),
        (eq(ref(p), ref(q)), FormulaKind.BOOL_EQ),
        (diseq(ref(p), ref(q)), FormulaKind.BOOL_DISEQ),
        (eq(ref(f), ref(f)), FormulaKind.FUN_EQ),
        (diseq(ref(f), ref(f)), FormulaKind.FUN_DISEQ),
        (eq(ref(x), ref(y)), FormulaKind.SORT_EQ),
        (diseq(ref(x), ref(y)), FormulaKind.SORT_DISEQ),
        (app(ref(g), ref(x)), FormulaKind.POS_ATOM),
        (neg(app(ref(g), ref(x))), FormulaKind.NEG_ATOM),
        (imp(ref(p), ref(q)), FormulaKind.IMP),
        (neg(imp(ref(p), ref(q))), FormulaKind.NEG_IMP),
        (forall(ref(g)), FormulaKind.FORALL),
        (neg(forall(ref(g))), FormulaKind.NEG_FORALL),
    ]
    for formula, kind in cases:
        assert classify(formula).kind is kind, formula


def test_classify_decomposable():
    s = diseq(app(ref(f), ref(x)), app(ref(f), ref(y)))
    info = classify(s)
    assert info.kind is FormulaKind.SORT_DISEQ and info.decomposable
    assert info.head == f and info.largs == (ref(x),) and info.rargs == (ref(y),)
    t = diseq(app(ref(f), ref(x)), ref(y))
    assert not classify(t).decomposable
    # a variable pair x != y decomposes only when the heads coincide
    assert not classify(diseq(ref(x), ref(y))).decomposable
    assert classify(diseq(ref(x), ref(x))).decomposable


def test_classify_negated_equality_is_disequation_not_atom():
    info = classify(neg(eq(ref(x), ref(y))))
    assert info.kind is FormulaKind.SORT_DISEQ
    info2 = classify(neg(ref(p)))
    assert info2.kind is FormulaKind.NEG_ATOM and info2.head == p


def test_classify_rejects_non_formulas():
    with pytest.raises(TypeError):
        classify(ref(x))


# ---------------------------------------------------------------------------
# Branch construction


def test_add_is_in_place_and_a_noop_records_nothing():
    b0 = Branch()
    s = app(ref(g), ref(x))
    assert b0.add(s) is None and list(b0) == [s]
    mark = len(b0.trail)
    b0.add(s)
    assert list(b0) == [s] and len(b0.trail) == mark
    b0.add(neg(s))
    assert list(b0) == [s, neg(s)]


def _state(br: Branch) -> tuple:
    # undo may leave a type's sides or a group empty, as it leaves a kind's
    # members; the groups are the tuple-keyed lists beside the kinds' members
    groups = {k: ms for k, ms in br._by_kind.items() if type(k) is tuple and ms}
    assert all(br.group(*k) is ms for k, ms in groups.items())
    return (
        list(br),
        [br.members(kind) for kind in FormulaKind],
        list(br.free_names.items()),
        br.closing_witness,
        {ty: list(ts.items()) for ty, ts in br.sides.items() if ts},
        groups,
    )


def test_undo_restores_the_branch_of_the_prefix():
    # random add/undo walks, with the discriminant queries asked between
    # steps; after every step the branch (its sides and groups too) answers
    # as a fresh branch_of its members would
    walks = 0
    for seed in range(40):
        gen, rng = Gen(seed + 5100), random.Random(seed)
        pool = [normalize(gen.formula(2)) for _ in range(8)]
        pool += [normalize(gen.efo_formula(2, quasi=True)) for _ in range(4)]
        us = [ref(gen.var(a)) for _ in range(3)] + [ref(gen.var(b))]
        pool += [diseq(u, v) for u in us for v in us if u.ty == v.ty][:8]
        pool += [ref(p), neg(ref(p))]
        types = {a, b, o} | {classify(d).ty for d in pool if classify(d).ty}
        br, prefix, marks = Branch(), [], []
        for _ in range(40):
            if marks and rng.random() < 0.3:
                i = rng.randrange(len(marks))
                mark, n = marks[i]
                del marks[i:]
                br.undo(mark)
                del prefix[n:]
            else:
                marks.append((len(br.trail), len(prefix)))
                s = rng.choice(pool)
                if s not in prefix:
                    prefix.append(s)
                br.add(s)
            fresh = branch_of(*prefix)
            assert _state(br) == _state(fresh), (seed, prefix)
            for ty in sorted(types, key=repr)[: rng.randint(0, len(types))]:
                assert br.discriminating_terms(ty) == fresh.discriminating_terms(ty)
                assert discriminants(br, ty) == discriminants(fresh, ty)
        walks += 1
    assert walks == 40


def test_add_rejects_bad_members():
    ident = lam(x, ref(x))
    with pytest.raises(TypeError):
        Branch().add(ref(x))  # not a formula
    with pytest.raises(ValueError):
        Branch().add(app(lam(p, ref(p)), ref(q)))  # not normal


def test_free_names_in_first_occurrence_order():
    b1 = branch_of(app(ref(g), ref(x)), eq(ref(y), ref(x)))
    assert tuple(b1.free_names) == (g, x, y)
    assert b1.vars_of_type(a) == (x, y)


def test_members_by_kind_keep_insertion_order_across_heads():
    s, t = app(ref(g), ref(x)), neg(app(ref(g), ref(y)))
    u = app(ref(g), ref(z))
    b1 = branch_of(s, t, ref(p), neg(ref(q)), u)
    assert b1.members(FormulaKind.POS_ATOM) == (s, ref(p), u)
    assert b1.members(FormulaKind.NEG_ATOM) == (t, neg(ref(q)))
    assert b1.members(FormulaKind.FORALL) == ()


def test_groups_list_members_by_type_or_head_with_positions():
    s, t = app(ref(g), ref(x)), neg(app(ref(g), ref(y)))
    xy, xz = diseq(ref(x), ref(y)), eq(ref(x), ref(z))
    b1 = branch_of(s, ref(p), xy, t, xz, eq(ref(p), ref(q)))
    assert b1.group(FormulaKind.POS_ATOM, g) == [(s, 0)]
    assert b1.group(FormulaKind.POS_ATOM, p) == [(ref(p), 1)]
    assert b1.group(FormulaKind.NEG_ATOM, g) == [(t, 3)]
    assert b1.group(FormulaKind.SORT_DISEQ, a) == [(xy, 2)]
    assert b1.group(FormulaKind.SORT_EQ, a) == [(xz, 4)]
    assert b1.group(FormulaKind.NEG_ATOM, p) == b1.group(FormulaKind.SORT_EQ, b) == ()
    # no reader pairs or lists equations at o, so they are not grouped
    assert b1.group(FormulaKind.BOOL_EQ, o) == ()


def test_disequations_and_their_sides_at_every_type():
    h, k = Name("h", fun(a, a)), Name("k", fun(a, o))
    pq, qp = diseq(ref(p), ref(q)), diseq(ref(q), ref(p))
    fh, gk, xy = diseq(ref(f), ref(h)), diseq(ref(g), ref(k)), diseq(ref(x), ref(y))
    b1 = branch_of(pq, fh, xy, gk, qp, eq(ref(x), ref(z)))
    assert b1.disequations(o) == (pq, qp)
    assert b1.disequations(fun(a, a)) == (fh,)
    assert b1.disequations(fun(a, o)) == (gk,)
    assert b1.disequations(a) == (xy,)
    assert b1.disequations(b) == () and b1.disequations(fun(a, b)) == ()
    assert b1.discriminating_terms(o) == (ref(p), ref(q))
    assert b1.discriminating_terms(fun(a, a)) == (ref(f), ref(h))
    assert b1.discriminating_terms(fun(a, o)) == (ref(g), ref(k))
    assert b1.discriminating_terms(fun(a, b)) == ()
    # each side to the first disequation it is a side of, as they arrived
    assert b1.sides == {
        o: {ref(p): pq, ref(q): pq},
        fun(a, a): {ref(f): fh, ref(h): fh},
        a: {ref(x): xy, ref(y): xy},
        fun(a, o): {ref(g): gk, ref(k): gk},
    }
    assert list(b1.sides) == [o, fun(a, a), a, fun(a, o)]
    assert set(discriminants(b1, o)) == {frozenset([ref(p)]), frozenset([ref(q)])}


# ---------------------------------------------------------------------------
# Closure


def test_closed_by_complementary_variable():
    assert not branch_of(ref(p)).is_closed
    b1 = branch_of(ref(p), neg(ref(p)))
    assert b1.is_closed and b1.closing_witness == ("compl", ref(p), neg(ref(p)))
    # order of arrival does not matter
    assert branch_of(neg(ref(p)), ref(p)).is_closed


def test_closed_by_reflexive_sort_disequation():
    b1 = branch_of(diseq(ref(x), ref(x)))
    assert b1.is_closed and b1.closing_witness == ("refl", diseq(ref(x), ref(x)))


def test_not_closed_by_compound_witnesses():
    s = app(ref(g), ref(x))
    assert not branch_of(s, neg(s)).is_closed  # head is applied, not a bare variable
    t = app(ref(f), ref(x))
    assert not branch_of(diseq(t, t)).is_closed  # sides are not variables
    assert not branch_of(diseq(ref(p), ref(p))).is_closed  # o is not a sort


# ---------------------------------------------------------------------------
# Discriminating terms


def test_discriminating_terms_order_and_dedup():
    b1 = branch_of(diseq(ref(x), ref(y)), diseq(ref(y), ref(z)))
    assert b1.discriminating_terms(a) == (ref(x), ref(y), ref(z))
    assert b1.discriminating_terms(b) == ()


def test_branch_equality_is_extensional():
    b1 = branch_of(ref(p), ref(q))
    b2 = branch_of(ref(q), ref(p))
    assert b1 == b2
    assert b1 != branch_of(ref(p))


def test_a_5000_deep_negation_chain_is_added_without_recursion():
    s = ref(p)
    for _ in range(5000):
        s = neg(s)
    assert is_normal(s)
    assert free_vars_ordered(s) == (p,)
    br = Branch()
    br.add(s)
    assert list(br) == [s] and br.free_names == {p: s}
