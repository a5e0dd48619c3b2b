"""Fragment classifiers, witnesses, and the terminating decision procedure."""

from collections import Counter

import pytest

from hotab.branch import branch_of
from hotab.fragments import (
    FragmentViolation,
    bsr_violation,
    classify_branch,
    decide,
    efo_violation,
    lam_subterm,
    pure_violation,
    quasi_efo_violation,
)
from hotab.kernel import (
    Name,
    app,
    diseq,
    eq,
    eq_const,
    forall,
    fun,
    imp,
    lam,
    neg,
    o,
    ref,
    sort,
)
from hotab.normalize import normalize
from hotab.models import check_model
from hotab.rules import check_proof
from hotab.search import Refuted, Satisfiable
from hotab.selection import applicable_efo
from hotab.semantics import enumerate_models

from helpers import Gen

a = sort("a")
b = sort("b")


def V(ident, ty):
    return Name(ident, ty)


# ---------------------------------------------------------------------------
# Term/formula classifiers


def test_restricted_signature_accepts_connectives_and_sort_equality():
    p = V("p", fun(a, o))
    x, y = V("x", a), V("y", o)
    s = forall(lam(x, imp(app(ref(p), ref(x)), neg(eq(ref(x), ref(x))))))
    assert efo_violation(s) is None
    assert efo_violation(neg(imp(ref(y), ref(y)))) is None


def test_equality_outside_sorts_is_flagged():
    f, g = V("f", fun(a, a)), V("g", fun(a, a))
    s = eq(ref(f), ref(g))
    assert efo_violation(s) == ref(eq_const(fun(a, a)))
    y, z = V("y", o), V("z", o)
    assert efo_violation(eq(ref(y), ref(z))) == ref(eq_const(o))


def test_foreign_constants_are_flagged():
    # the term constructors only mint the four logical constants, but the
    # classifier must not trust that: a hand-built constant is rejected
    choice = Name("choice", fun(fun(a, o), a), is_var=False)
    p = V("p", fun(a, o))
    s = app(ref(p), app(ref(choice), ref(p)))
    assert efo_violation(s) == ref(choice)
    assert quasi_efo_violation(s) == ref(choice)


def test_quasi_admits_disequations_at_any_type():
    f, g = V("f", fun(a, a)), V("g", fun(a, a))
    assert quasi_efo_violation(diseq(ref(f), ref(g))) is None
    assert quasi_efo_violation(eq(ref(f), ref(g))) is not None
    y, z = V("y", o), V("z", o)
    assert quasi_efo_violation(diseq(ref(y), ref(z))) is None
    # sides of the disequation must still use the restricted signature
    bad = diseq(ref(f), lam(V("x", a), app(ref(g), eqish())))
    assert quasi_efo_violation(bad) == ref(eq_const(fun(a, a)))


def eqish():
    """A term smuggling a function-type equality inside an argument."""
    f, g = V("f", fun(a, a)), V("g", fun(a, a))
    h = V("h", fun(o, a))
    return app(ref(h), eq(ref(f), ref(g)))


def test_lambda_subterm_detection():
    x = V("x", a)
    p = V("p", fun(a, o))
    assert lam_subterm(app(ref(p), ref(x))) is None
    t = forall(lam(x, app(ref(p), ref(x))))
    found = lam_subterm(t)
    assert found is not None and lam_subterm(found) is found


def test_pure_members_are_disequations_over_o_free_names():
    f = V("f", fun(a, b))
    x, y = V("x", a), V("x2", a)
    assert pure_violation(diseq(app(ref(f), ref(x)), app(ref(f), ref(y)))) is None
    p = V("p", fun(a, o))
    s = diseq(ref(p), ref(p))
    assert pure_violation(s) == ref(p)
    atom = app(ref(p), ref(x))
    assert pure_violation(atom) == atom  # not a disequation at all


def test_bsr_relational_types_and_unguarded_prefix():
    p = V("p", fun(a, o))
    x, y = V("x", a), V("y", a)
    s = forall(lam(x, forall(lam(y, imp(app(ref(p), ref(x)), app(ref(p), ref(y)))))))
    assert bsr_violation(s) is None
    guarded = neg(forall(lam(x, app(ref(p), ref(x)))))
    v = bsr_violation(guarded)
    assert v is not None and "forall" in repr(v)
    f = V("f", fun(a, a))
    nonrel = forall(lam(x, app(ref(p), app(ref(f), ref(x)))))
    assert bsr_violation(nonrel) == ref(f)


def test_bsr_rejects_quantifier_under_implication():
    p = V("p", fun(a, o))
    x, y = V("x", a), V("y", o)
    s = imp(ref(y), forall(lam(x, app(ref(p), ref(x)))))
    assert bsr_violation(s) is not None


# ---------------------------------------------------------------------------
# Branch-level report


def test_classify_branch_flags_and_witnesses():
    p = V("p", fun(a, o))
    x, y = V("x", a), V("y", a)
    rep = classify_branch([forall(lam(x, app(ref(p), ref(x)))), neg(app(ref(p), ref(y)))])
    assert rep.is_efo and rep.is_quasi_efo and rep.is_bsr
    assert not rep.is_lambda_free and not rep.is_pure
    assert rep.witnesses["lambda-free"] is not None
    assert rep.decidable()
    assert "bsr: yes" in rep.describe()


def test_classify_branch_lambda_free_requires_restricted_language():
    f, g = V("f", fun(a, a)), V("g", fun(a, a))
    rep = classify_branch([eq(ref(f), ref(g))])  # no lambda, but not quasi
    assert not rep.is_lambda_free and not rep.is_quasi_efo
    member, sub = rep.witnesses["lambda-free"]
    assert member == eq(ref(f), ref(g))
    assert "lambda-free: no" in rep.describe()
    assert not rep.decidable()


def test_classify_branch_reports_on_terms_nested_5000_deep():
    # the classifiers walk an explicit stack: a negation nested 5,000 deep
    # and a disequation with a side 5,000 applications deep are classified
    # in full (the report's describe() still prints them recursively)
    s = ref(V("p", o))
    for _ in range(5000):
        s = neg(s)
    rep = classify_branch([s])
    assert rep.is_quasi_efo and rep.is_lambda_free and rep.is_bsr
    assert not rep.is_pure and rep.witnesses["pure"][1] is s
    f, c = ref(V("f", fun(a, a))), ref(V("c", a))
    t = c
    for _ in range(5000):
        t = app(f, t)
    rep = classify_branch([diseq(t, c)])
    assert rep.is_quasi_efo and rep.is_lambda_free and rep.is_pure
    assert not rep.is_bsr and rep.witnesses["bsr"][1] is f


def test_classify_accepts_branch_objects():
    p, y = V("p", fun(a, o)), V("y", a)
    br = branch_of(app(ref(p), ref(y)))
    rep = classify_branch(br)
    assert rep.is_lambda_free and rep.is_bsr and rep.decidable()


# ---------------------------------------------------------------------------
# decide(): terminating saturation on the decidable classes


def test_decide_lambda_free_unsat():
    p, y = V("p", fun(a, o)), V("y", a)
    br = branch_of(app(ref(p), ref(y)), neg(app(ref(p), ref(y))))
    v = decide(br)
    assert isinstance(v, Refuted)
    assert check_proof(br, v.proof, calculus="efo")


def test_decide_bare_quantified_variable():
    f, y = V("f", fun(a, o)), V("y", a)
    br = branch_of(forall(ref(f)), neg(app(ref(f), ref(y))))
    v = decide(br)
    assert isinstance(v, Refuted)


def test_decide_pure_fragment():
    f = V("f", fun(a, b))
    x, y = V("x", a), V("y", a)
    sat = branch_of(diseq(app(ref(f), ref(x)), app(ref(f), ref(y))))
    v = decide(sat)
    assert isinstance(v, Satisfiable)
    assert check_model(v.model, sat.formulas)
    unsat = branch_of(diseq(app(ref(f), ref(x)), app(ref(f), ref(x))))
    assert isinstance(decide(unsat), Refuted)


def test_decide_bsr_fragment():
    p = V("p", fun(a, o))
    x, y = V("x", a), V("z", a)
    unsat = branch_of(
        forall(lam(x, app(ref(p), ref(x)))),
        forall(lam(x, neg(app(ref(p), ref(x))))),
    )
    assert isinstance(decide(unsat), Refuted)
    q = V("q", fun(a, o))
    sat = branch_of(
        forall(lam(x, imp(app(ref(p), ref(x)), app(ref(q), ref(x))))),
        app(ref(p), ref(y)),
    )
    v = decide(sat)
    assert isinstance(v, Satisfiable)
    assert check_model(v.model, sat.formulas)


def test_decide_refuses_undecidable_branches():
    p, f = V("p", fun(a, o)), V("f", fun(a, a))
    x = V("x", a)
    br = branch_of(forall(lam(x, app(ref(p), app(ref(f), ref(x))))))
    with pytest.raises(FragmentViolation) as e:
        decide(br)
    assert "bsr: no" in str(e.value)
    g, h = V("g", fun(a, a)), V("h", fun(a, a))
    with pytest.raises(FragmentViolation):
        decide(branch_of(eq(ref(g), ref(h))))


# ---------------------------------------------------------------------------
# Closure properties backing termination


def _lambda_free_branches(n, seed0):
    out = []
    for seed in range(seed0, seed0 + n * 6):
        g = Gen(seed)
        forms = [normalize(g.efo_formula(2, quasi=True)) for _ in range(2)]
        if all(lam_subterm(s) is None for s in forms):
            out.append(branch_of(*forms))
            if len(out) == n:
                break
    assert len(out) == n
    return out


def test_rule_alternatives_preserve_lambda_freedom():
    checked = 0
    for br in _lambda_free_branches(40, 21000):
        for inst in applicable_efo(br):
            for alt in inst.alternatives:
                for s in alt:
                    assert lam_subterm(s) is None
                    assert quasi_efo_violation(s) is None
                    checked += 1
    assert checked >= 40


def test_rule_alternatives_preserve_bsr():
    checked = 0
    for seed in range(60):
        g = Gen(seed + 23000)
        forms = [normalize(g.bsr_formula()) for _ in range(2)]
        if any(bsr_violation(s) is not None for s in forms):
            continue
        br = branch_of(*forms)
        for inst in applicable_efo(br):
            for alt in inst.alternatives:
                for s in alt:
                    assert bsr_violation(s) is None, f"seed {seed}: {s}"
                    checked += 1
    assert checked >= 40


def test_decide_terminates_and_agrees_with_model_enumeration():
    refuted = satisfiable = 0
    for br in _lambda_free_branches(30, 25000):
        v = decide(br)
        if isinstance(v, Refuted):
            refuted += 1
            assert next(enumerate_models(br.formulas, max_size=2), None) is None
        else:
            assert isinstance(v, Satisfiable)
            satisfiable += 1
            assert check_model(v.model, br.formulas)
    assert refuted + satisfiable == 30 and satisfiable >= 5


def test_decide_terminates_on_random_bsr_branches():
    # pairs of formulas with a prefix of 0-2 quantifiers each, then pairs
    # with 2 or 3 nested quantifiers each
    inputs = [(seed + 27000, None) for seed in range(40)]
    inputs += [(seed + 27500, 2 + seed % 2) for seed in range(40)]
    done = {None: Counter(), 2: Counter(), 3: Counter()}
    for seed, n_quant in inputs:
        g = Gen(seed)
        forms = [normalize(g.bsr_formula(n_quant)) for _ in range(2)]
        if any(bsr_violation(s) is not None for s in forms):
            continue
        v = decide(branch_of(*forms))
        if isinstance(v, Satisfiable):
            assert check_model(v.model, forms)
        else:
            assert isinstance(v, Refuted)
            assert check_proof(forms, v.proof), seed
            assert next(enumerate_models(forms, max_size=2), None) is None
        done[n_quant][type(v)] += 1
    assert sum(done[None].values()) >= 25
    for n_quant in (2, 3):  # the deeper prefixes give both verdicts
        assert done[n_quant][Refuted] >= 5 and done[n_quant][Satisfiable] >= 5
