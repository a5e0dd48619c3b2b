"""Search engine: saturation, verdicts, proof checking, and evidence."""

import itertools
from collections import Counter

import pytest

from hotab import rules
from hotab.branch import FormulaKind, branch_of
from hotab.fragments import FragmentViolation
from hotab.kernel import (
    Name,
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
    sort,
)
from hotab.models import check_model, eval_term
from hotab.normalize import normalize
from hotab.rules import (
    CALCULI,
    RULES,
    RuleId,
    check_proof,
    complements,
    is_reflexive,
    make_instance,
    route_calculus,
)
from hotab.search import Proof, Refuted, Satisfiable, SearchConfig, Unknown, refute
from hotab.selection import applicable_efo, applicable_stt, instances, is_evident
from hotab.semantics import enumerate_models

from helpers import (
    Gen,
    chain_text,
    clique_text,
    double_neg_mate_text,
    fclique_text,
    reference_instances,
    reference_pair_violations,
    rel_text,
)

a = sort("a")
b = sort("b")


def V(ident, ty):
    return Name(ident, ty)


def running_example():
    """{p f, not (p (lam x. not not (f x)))} — jointly unsatisfiable."""
    f = V("f", fun(a, o))
    p = V("p", fun(fun(a, o), o))
    x = V("x", a)
    s1 = app(ref(p), ref(f))
    s2 = neg(app(ref(p), lam(x, neg(neg(app(ref(f), ref(x)))))))
    return [normalize(s1), normalize(s2)]


# each alternative of bool-ext closes on a formula and its negation
RUNNING_COUNTS = {
    "mate": 1,
    "fun-ext": 1,
    "bool-ext": 1,
    "double-neg": 1,
    "close-compl": 2,
}


# ---------------------------------------------------------------------------
# End-to-end refutations


def test_running_example_refuted_in_every_mode():
    forms = running_example()
    for mode in ("auto", "efo", "stt"):
        v = refute(forms, SearchConfig(calculus=mode))
        assert isinstance(v, Refuted)
        assert v.calculus == ("stt" if mode == "stt" else "efo")
        assert v.proof.rule_counts() == RUNNING_COUNTS
        assert check_proof(forms, v.proof, calculus=v.calculus)
    # the first applicable instance on the initial branch is the mate pair
    v = refute(forms)
    assert v.proof.instance.rule is RuleId.MATE
    assert v.proof.size() == sum(RUNNING_COUNTS.values())


def test_running_example_deterministic():
    forms = running_example()
    v1 = refute(forms)
    v2 = refute(forms)
    assert v1.proof == v2.proof


def _as_given(br) -> tuple:
    return (
        list(br),
        [br.members(kind) for kind in FormulaKind],
        list(br.free_names),
        br.closing_witness,
    )


def test_callers_branches_are_left_as_given():
    # search and replay extend a copy in place and undo it; the branch a
    # caller passes in never changes, whatever the verdict or exception
    from hotab.fragments import decide
    from hotab.problems import parse

    def untouched(call, br, *args):
        before = _as_given(br)
        try:
            out = call(br, *args)
        except FragmentViolation:
            out = None
        assert _as_given(br) == before, call
        return out

    refutable = parse(chain_text(2)).branch()
    v = untouched(refute, refutable, SearchConfig(calculus="efo", timeout=None))
    assert isinstance(v, Refuted)
    assert isinstance(untouched(decide, refutable), Refuted)
    assert untouched(check_proof, refutable, v.proof, "efo")
    # an inner node fails: the root instance checks, its first child's
    # mate has a premise no branch holds
    p = V("p", o)
    stray = Proof(make_instance(RuleId.MATE, (ref(p), neg(ref(p)))), ())
    broken = Proof(v.proof.instance, (stray, *v.proof.children[1:]))
    assert v.proof.children and not untouched(check_proof, refutable, broken, "efo")

    satisfiable = parse(rel_text(2)).branch()
    v = untouched(refute, satisfiable, SearchConfig(timeout=None))
    assert isinstance(v, Satisfiable) and v.branch is not satisfiable
    assert isinstance(untouched(decide, satisfiable), Satisfiable)
    assert untouched(is_evident, v.branch).evident

    budget = SearchConfig(max_nodes=100, timeout=None)
    v = untouched(refute, parse(chain_text(4)).branch(), budget)
    assert isinstance(v, Unknown) and "node budget" in v.reason

    # bool-eq adds the implication q => r, which the gate then refuses
    q, r = V("q", o), V("r", o)
    mixed = branch_of(eq(ref(p), imp(ref(q), ref(r))))
    assert untouched(refute, mixed, SearchConfig(calculus="stt")) is None


def test_identity_vs_constant_function_refuted():
    y = V("y", o)
    x = V("x", o)
    t = normalize(eq(lam(x, ref(x)), lam(x, ref(y))))
    v = refute([t])
    assert isinstance(v, Refuted) and v.calculus == "stt"
    assert v.proof.rule_counts() == {
        "fun-eq": 2,
        "bool-eq": 3,
        "mate": 3,
        "close-compl": 1,
    }
    assert check_proof([t], v.proof)


def test_confrontation_closes_equation_against_disequation():
    x, y = V("x", a), V("y", a)
    forms = [eq(ref(x), ref(y)), diseq(ref(y), ref(x))]
    v = refute(forms)
    assert isinstance(v, Refuted)
    assert v.proof.rule_counts() == {"confront": 1, "decompose": 2}
    assert check_proof(forms, v.proof)
    # x = y with its own negation closes at once, without confront
    forms = [eq(ref(x), ref(y)), diseq(ref(x), ref(y))]
    v = refute(forms)
    assert v.proof.rule_counts() == {"close-compl": 1}
    assert check_proof(forms, v.proof)


def test_negated_forall_closes_by_reflexivity():
    x = V("x", a)
    t = neg(forall(lam(x, eq(ref(x), ref(x)))))
    v = refute([t])
    assert isinstance(v, Refuted) and v.calculus == "efo"
    assert v.proof.rule_counts() == {"forall-neg": 1, "decompose": 1}
    assert check_proof([t], v.proof)


def test_forall_instantiates_with_existing_variable():
    p = V("p", fun(a, o))
    x, y = V("x", a), V("y", a)
    forms = [forall(lam(x, app(ref(p), ref(x)))), neg(app(ref(p), ref(y)))]
    v = refute(forms)
    assert isinstance(v, Refuted)
    assert v.proof.rule_counts() == {"forall-inst": 1, "close-compl": 1}
    insts = [
        n.instance.inst
        for n in v.proof.nodes()
        if n.instance.rule is RuleId.FORALL_INST
    ]
    assert insts == [ref(y)]  # reused the free variable, introduced nothing


def test_forall_instantiates_every_discriminating_term():
    p = V("p", fun(a, o))
    x, y, z = V("x", a), V("y", a), V("z", a)
    forms = [
        forall(lam(x, app(ref(p), ref(x)))),
        diseq(ref(y), ref(z)),
        neg(app(ref(p), ref(y))),
    ]
    v = refute(forms)
    assert isinstance(v, Refuted)
    # search instantiates with y first, and that instance already closes
    # against not (p y): backjumping drops the instance with z
    assert v.proof.rule_counts() == {"forall-inst": 1, "close-compl": 1}
    assert check_proof(forms, v.proof)
    insts = [
        n.instance.inst
        for n in v.proof.nodes()
        if n.instance.rule is RuleId.FORALL_INST
    ]
    assert insts == [ref(y)]
    # without not (p y) the branch saturates, with every discriminating term
    twin = refute(forms[:2])
    assert isinstance(twin, Satisfiable)
    assert app(ref(p), ref(y)) in twin.branch
    assert app(ref(p), ref(z)) in twin.branch


def test_forall_with_no_constraints_yields_singleton_model():
    x, y = V("x", a), V("y", a)
    t = forall(lam(x, eq(ref(x), ref(y))))
    v = refute([t])
    assert isinstance(v, Satisfiable)
    assert v.model.frame.sort_sizes[a] == 1
    assert eval_term(v.model, t) == 1
    assert check_model(v.model, v.branch.formulas)


def test_empty_input_is_satisfiable():
    v = refute([])
    assert isinstance(v, Satisfiable)
    assert v.model.frame.sort_sizes == {}


def test_refute_accepts_branch_input():
    forms = running_example()
    v = refute(branch_of(*forms))
    assert isinstance(v, Refuted)
    assert v.proof.rule_counts() == RUNNING_COUNTS


# ---------------------------------------------------------------------------
# Routing


def test_route_calculus():
    f, g = V("f", fun(a, a)), V("g", fun(a, a))
    x, y = V("x", a), V("y", o)
    quant = forall(lam(x, eq(ref(x), ref(x))))
    funeq = eq(ref(f), ref(g))
    assert route_calculus(branch_of(quant)) == "efo"
    assert route_calculus(branch_of(diseq(ref(f), ref(g)))) == "efo"
    assert route_calculus(branch_of(funeq)) == "stt"
    assert route_calculus(branch_of(neg(neg(ref(y))))) == "efo"
    assert route_calculus(branch_of()) == "efo"
    with pytest.raises(FragmentViolation):
        route_calculus(branch_of(quant, funeq))


def test_forced_calculus_rejects_foreign_members():
    x = V("x", a)
    quant = forall(lam(x, eq(ref(x), ref(x))))
    with pytest.raises(FragmentViolation):
        refute([quant], SearchConfig(calculus="stt"))
    f, g = V("f", fun(a, a)), V("g", fun(a, a))
    with pytest.raises(FragmentViolation):
        refute([eq(ref(f), ref(g))], SearchConfig(calculus="efo"))

    # search gates the members once, as they arrive, with the message the
    # applicable_* reference gives on the whole branch
    def message(call, *args):
        with pytest.raises(FragmentViolation) as e:
            call(*args)
        return str(e.value)

    p, q, r = V("p", o), V("q", o), V("r", o)
    efo_last = [ref(p), neg(ref(q)), eq(ref(f), ref(g))]
    assert message(refute, efo_last, SearchConfig(calculus="efo")) == message(
        applicable_efo, branch_of(*efo_last)
    )
    stt_last = [ref(p), neg(ref(q)), quant]
    assert message(refute, stt_last, SearchConfig(calculus="stt")) == message(
        applicable_stt, branch_of(*stt_last)
    )
    # an implication that only an alternative of bool-eq brings in
    bool_eq = eq(ref(p), imp(ref(q), ref(r)))
    got = message(refute, [bool_eq], SearchConfig(calculus="stt"))
    assert "imp" in got and got == message(
        applicable_stt, branch_of(bool_eq, ref(p), imp(ref(q), ref(r)))
    )


# ---------------------------------------------------------------------------
# Budgets and inconclusive saturation


def test_unknown_when_functional_equations_survive():
    f, g = V("f", fun(a, a)), V("g", fun(a, a))
    forms = [eq(ref(f), ref(g))]
    v = refute(forms, SearchConfig(fuel_schedule=(1, 2)))
    assert isinstance(v, Unknown)
    assert v.reason.startswith("saturation left functional equations")
    rep = is_evident(forms)
    assert rep.scope == "stt" and rep.bounded and rep.evident
    assert "bounded" in rep.describe()


def test_node_budget_exhaustion():
    v = refute(running_example(), SearchConfig(max_nodes=1))
    assert isinstance(v, Unknown)
    assert "node budget" in v.reason


def test_timeout_exhaustion():
    v = refute(running_example(), SearchConfig(timeout=0.0))
    assert isinstance(v, Unknown)
    assert v.reason == "timeout"


def test_search_config_validation():
    # an unknown calculus name is an error wherever one is taken, not a
    # silent fallback to one of the calculi
    v = refute(running_example())
    for name in ("classical", "STT", ""):
        with pytest.raises(ValueError, match="unknown calculus"):
            SearchConfig(calculus=name)
        with pytest.raises(ValueError, match="unknown calculus"):
            check_proof(running_example(), v.proof, calculus=name)
        with pytest.raises(ValueError, match="unknown calculus"):
            is_evident(running_example(), scope=name)
    with pytest.raises(ValueError):
        SearchConfig(fuel_schedule=())
    with pytest.raises(ValueError):
        SearchConfig(fuel_schedule=(2, 1))
    with pytest.raises(ValueError):
        SearchConfig(fuel_schedule=(1, 1))
    with pytest.raises(ValueError):
        SearchConfig(fuel_schedule=(0, 1))
    with pytest.raises(ValueError):
        SearchConfig(fuel_schedule=(1.5,))


def test_search_config_rejects_negative_limits():
    for limits in (
        {"max_nodes": -1},
        {"timeout": -1.0},
        {"timeout": float("nan")},
        {"max_table": -1},
        {"max_table": float("nan")},
    ):
        with pytest.raises(ValueError, match=next(iter(limits))):
            SearchConfig(**limits)
    # zero keeps its meaning: the first rule application exceeds the budget
    v = refute(running_example(), SearchConfig(max_nodes=0, timeout=None))
    assert isinstance(v, Unknown) and v.reason == "node budget exhausted (0)"
    v = refute(running_example(), SearchConfig(max_nodes=None, timeout=0))
    assert isinstance(v, Unknown) and v.reason == "timeout"


# ---------------------------------------------------------------------------
# Closing on a formula and its negation, or a reflexive disequation


def test_close_complement():
    # not y with not not y closes at once, before double-neg, in both calculi
    y = V("y", o)
    forms = [neg(ref(y)), neg(neg(ref(y)))]
    for calculus in ("efo", "stt"):
        v = refute(forms, SearchConfig(calculus=calculus))
        assert v.proof.rule_counts() == {"close-compl": 1}
        assert check_proof(forms, v.proof, calculus)


def test_close_reflexivity():
    # f x != f x closes at once, without decomposing it, in both calculi
    f, x = V("f", fun(a, a)), V("x", a)
    forms = [diseq(app(ref(f), ref(x)), app(ref(f), ref(x)))]
    for calculus in ("efo", "stt"):
        v = refute(forms, SearchConfig(calculus=calculus))
        assert v.proof.rule_counts() == {"close-refl": 1}
        assert check_proof(forms, v.proof, calculus)


# ---------------------------------------------------------------------------
# Proof objects and proof checking


def test_proof_arity_mismatch_rejected_at_construction():
    forms = running_example()
    v = refute(forms)
    root = v.proof.instance
    with pytest.raises(ValueError):
        Proof(root, ())  # the mate instance has one alternative


def test_check_proof_rejects_foreign_branch():
    forms = running_example()
    v = refute(forms)
    other = [forms[0]]  # second assumption missing: premises unavailable
    assert not check_proof(other, v.proof)


def test_check_proof_rejects_wrong_calculus():
    y, x = V("y", o), V("x", o)
    t = normalize(eq(lam(x, ref(x)), lam(x, ref(y))))
    v = refute([t])
    assert check_proof([t], v.proof, calculus="stt")
    assert not check_proof([t], v.proof, calculus="efo")


def test_check_proof_permits_redundant_steps():
    # re-deriving an already-present conclusion is wasteful but sound, and
    # the checker cares about soundness only
    forms = running_example()
    v = refute(forms)
    padded = Proof(v.proof.instance, (v.proof,))
    assert check_proof(forms, padded)


def test_check_proof_rejects_tampered_instance():
    import dataclasses

    forms = running_example()
    v = refute(forms)
    # fabricated closing leaf: its premise is on no branch of this tableau
    y = V("stray", a)
    fake_leaf = Proof(
        dataclasses.replace(
            v.proof.instance, rule=RuleId.DECOMPOSE, premises=(diseq(ref(y), ref(y)),)
        ),
        (v.proof,),
    )
    assert not check_proof(forms, fake_leaf)
    # duplicated premise: the pair no longer has complementary polarity
    twisted = dataclasses.replace(
        v.proof.instance, premises=(forms[0], forms[0])
    )
    assert not check_proof(forms, Proof(twisted, v.proof.children))


# ---------------------------------------------------------------------------
# Evidence


def test_evident_set_golden_example():
    f = V("f", fun(a, o))
    p = V("p", fun(fun(a, o), o))
    x = V("x", a)
    flip = lam(x, neg(app(ref(f), ref(x))))
    fx = app(ref(f), ref(x))
    forms = [
        app(ref(p), ref(f)),
        neg(app(ref(p), flip)),
        diseq(ref(f), flip),
        diseq(fx, neg(fx)),
        neg(fx),
    ]
    rep = is_evident(forms)
    assert rep.scope == "efo" and rep.evident and not rep.bounded
    assert rep.violations == ()
    v = refute(forms)
    assert isinstance(v, Satisfiable)
    assert check_model(v.model, forms)


def test_not_evident_constant_predicate_needs_default_instance():
    x, y = V("x", a), V("y", o)
    from hotab.kernel import imp

    t = forall(lam(x, neg(imp(ref(y), ref(y)))))
    rep = is_evident([t])
    assert not rep.evident
    assert [w.condition for w in rep.violations] == ["forall-inst-default"]
    v = refute([t])  # the body is contradictory, so the input refutes
    assert isinstance(v, Refuted)


def test_evidence_names_missing_discriminating_instance():
    p = V("p", fun(a, o))
    x, y, z = V("x", a), V("y", a), V("z", a)
    br = branch_of(
        forall(lam(x, app(ref(p), ref(x)))),
        diseq(ref(y), ref(z)),
        app(ref(p), ref(y)),
    )
    rep = is_evident(br)
    assert not rep.evident
    assert [w.condition for w in rep.violations] == ["forall-inst"]
    done = branch_of(*br, app(ref(p), ref(z)))
    assert is_evident(done).evident


def test_evidence_scope_gates():
    x = V("x", a)
    quant = forall(lam(x, eq(ref(x), ref(x))))
    with pytest.raises(FragmentViolation):
        is_evident([quant], scope="stt")
    f, g = V("f", fun(a, a)), V("g", fun(a, a))
    with pytest.raises(FragmentViolation):
        is_evident([eq(ref(f), ref(g))], scope="efo")


def test_closed_branches_are_never_evident():
    x = V("x", o)
    rep = is_evident([ref(x), neg(ref(x))])
    assert not rep.evident
    assert [w.condition for w in rep.violations] == ["mate"]
    y = V("y", a)
    rep = is_evident([diseq(ref(y), ref(y))])
    assert not rep.evident
    assert [w.condition for w in rep.violations] == ["decompose"]


def test_mate_and_confront_violations_pair_by_head_and_by_sort():
    r, s = V("r", fun(a, o)), V("s", fun(b, o))
    x1, x2, x3 = V("x1", a), V("x2", a), V("x3", a)
    u1, u2, u3, u4 = V("u1", b), V("u2", b), V("u3", b), V("u4", b)
    rx1, rx2, rx3 = (app(ref(r), ref(x)) for x in (x1, x2, x3))
    su1, su2 = app(ref(s), ref(u1)), app(ref(s), ref(u2))
    e1, e2 = eq(ref(x1), ref(x2)), eq(ref(u1), ref(u2))
    d2 = diseq(ref(u3), ref(u4))
    br = branch_of(
        rx1, su1, neg(su2), neg(rx2), rx3, e1, e2, d2,
        diseq(ref(x3), ref(x2)),  # separates r x3 from not (r x2) ...
        diseq(ref(x1), ref(x3)),  # ... and with the next confronts e1 with it
        diseq(ref(x2), ref(x3)),
    )
    rep = is_evident(br)
    got = [(v.condition, v.members) for v in rep.violations]
    assert len(got) == 3 and set(got) == {
        ("mate", (rx1, neg(rx2))),
        ("mate", (su1, neg(su2))),
        ("confront", (e2, d2)),
    }


def test_pair_violations_agree_with_the_walk_over_all_pairs():
    # is_evident pairs a member only with the branch's group of the other
    # kind at its sort or head; on random literal sets over two heads per
    # sort and two sorts, its mate and confront violations (condition,
    # premises and order) are those of the walk over every pair
    import random

    r, s = V("r", fun(a, o)), V("s", fun(a, o))
    t, k = V("t", fun(b, o)), V("k", fun(b, fun(b, o)))
    xs = [ref(V(f"x{i}", a)) for i in range(4)]
    us = [ref(V(f"u{i}", b)) for i in range(3)]
    not_evident = 0
    for seed in range(200):
        rng = random.Random(seed)
        pool = [app(ref(h), x) for h in (r, s) for x in xs]
        pool += [app(ref(t), u) for u in us]
        pool += [app(ref(k), u, v) for u in us for v in us]
        pool += [eq(x, y) for x in xs for y in xs if x != y]
        pool += [eq(u, v) for u in us for v in us if u != v]
        pool = pool + [neg(f) for f in pool]
        br = branch_of(*rng.sample(pool, rng.randint(2, 12)))
        rep = is_evident(br, scope="efo")
        pairs = [(v.condition, v.members) for v in rep.violations]
        pairs = [p for p in pairs if p[0] in ("mate", "confront")]
        assert pairs == reference_pair_violations(br), seed
        not_evident += bool(pairs)
    assert not_evident >= 100


def _evidence_cases():
    """Per model-existence condition: a minimal branch that violates it and
    no other, with the report's pinned text."""
    p, q = ref(V("p", o)), ref(V("q", o))
    x, z, w, u = (ref(V(n, a)) for n in ("x", "z", "w", "u"))
    f, g = ref(V("f", fun(a, a))), ref(V("g", fun(a, a)))
    P = V("P", fun(a, o))
    all_P = forall(lam(V("y", a), app(ref(P), ref(V("y", a)))))
    efo, stt = "not evident [efo]\n  ", "not evident [stt] (bounded check)\n  "
    return [
        (
            "double-neg",
            (neg(neg(p)),),
            efo + "double-neg: body is missing (on (not (not p)))",
        ),
        (
            "bool-eq",
            (eq(p, q),),
            "not evident [stt]\n  bool-eq: sides are not jointly settled (on (= p q))",
        ),
        (
            "bool-ext",
            (diseq(p, q),),
            efo + "bool-ext: sides are not settled opposite (on (not (= p q)))",
        ),
        (
            "fun-eq",
            (eq(f, g), app(ref(P), x)),
            stt + "fun-eq: instance x is missing (on (= f g))",
        ),
        (
            "fun-ext",
            (diseq(f, g),),
            efo + "fun-ext: no variable witnesses the sides apart (on (not (= f g)))",
        ),
        ("imp", (imp(p, q),), efo + "imp: neither side is settled (on (imp p q))"),
        (
            "imp-neg",
            (neg(imp(p, q)),),
            efo + "imp-neg: components are missing (on (not (imp p q)))",
        ),
        (
            "forall-inst",
            (all_P, diseq(x, z), app(ref(P), z)),
            efo + "forall-inst: discriminating term x is not instantiated "
            "(on (forall (x a) (P x)))",
        ),
        (
            "forall-inst-default",
            (all_P,),
            efo + "forall-inst-default: no instance on the branch "
            "(on (forall (x a) (P x)))",
        ),
        (
            "forall-neg",
            (neg(all_P),),
            efo + "forall-neg: no variable witnesses the negation "
            "(on (not (forall (x a) (P x))))",
        ),
        (
            "decompose",
            (diseq(app(f, x), app(f, z)),),
            efo + "decompose: no argument disequation supports the disequation "
            "(on (not (= (f x) (f z))))",
        ),
        (
            "mate",
            (app(ref(P), x), neg(app(ref(P), z))),
            efo + "mate: no argument disequation separates the pair "
            "(on (P x), (not (P z)))",
        ),
        (
            "confront",
            (eq(x, z), diseq(w, u)),
            efo + "confront: equation is not confronted with the disequation "
            "(on (= x z), (not (= w u)))",
        ),
    ]


@pytest.mark.parametrize("condition, formulas, text", _evidence_cases())
def test_each_evidence_condition_describes_its_violation(condition, formulas, text):
    rep = is_evident(formulas)
    assert [v.condition for v in rep.violations] == [condition]
    assert rep.describe() == text


def test_refute_raises_not_evident_before_extracting(monkeypatch):
    import hotab.search as search
    from hotab.selection import EvidenceReport, Violation
    from hotab.semantics import NotEvident

    def extract(*args, **kwargs):
        raise AssertionError("extraction ran on a branch that is not evident")

    report = EvidenceReport(
        False, "efo", False, None, (Violation("mate", (), "pinned"),)
    )
    monkeypatch.setattr(search, "is_evident", lambda branch: report)
    monkeypatch.setattr(search, "extract_model", extract)
    with pytest.raises(NotEvident) as e:
        refute([ref(V("p", o))])
    assert e.value.report is report


def test_refute_answers_unknown_when_its_proof_fails_replay(
    tmp_path, capsys, monkeypatch
):
    # a fault in selection: every branching instance it reads keeps only its
    # first alternative, so search closes chain(2) with a proof that does not
    # replay (replay reads the instance table, which the fault leaves alone)
    import dataclasses

    import hotab.selection as selection
    from hotab import cli
    from hotab.problems import parse

    built = selection.instance_of

    def first_alternative_only(*key):
        r = built(*key)
        if r is not None and len(r.alternatives) >= 2:
            r = dataclasses.replace(r, alternatives=r.alternatives[:1])
        return r

    monkeypatch.setattr(selection, "instance_of", first_alternative_only)
    v = refute(parse(chain_text(2)).branch())
    assert isinstance(v, Unknown) and "failed replay" in v.reason
    path = tmp_path / "chain2.p"
    path.write_text(chain_text(2))
    assert cli.main([str(path)]) == 30
    assert capsys.readouterr().out.splitlines() == ["unknown"]


def test_evident_iff_no_applicable_instance_restricted():
    agree = 0
    for seed in range(140):
        g = Gen(seed + 9000)
        forms = [normalize(g.efo_formula(2, quasi=True)) for _ in range(2)]
        br = branch_of(*forms)
        ev = is_evident(br, scope="efo").evident
        assert ev == (applicable_efo(br) == [] and not br.is_closed)
        agree += 1
    assert agree == 140


def test_evident_iff_no_applicable_instance_unrestricted():
    for seed in range(140):
        g = Gen(seed + 11000)
        forms = [normalize(g.formula(2)) for _ in range(2)]
        br = branch_of(*forms)
        ev = is_evident(br, scope="stt", fuel=2).evident
        assert ev == (applicable_stt(br, fuel=2) == [] and not br.is_closed)


def test_open_saturations_are_evident_and_models_check():
    import hotab.search as search

    refuted = satisfiable = 0
    cfg = SearchConfig(max_nodes=3000, timeout=5.0)
    for seed in range(80):
        g = Gen(seed + 13000)
        forms = [normalize(g.efo_formula(2, quasi=True)) for _ in range(2)]
        v = refute(forms, cfg)
        if isinstance(v, Refuted):
            refuted += 1
            assert check_proof(forms, v.proof, calculus="efo")
            assert (
                next(enumerate_models(forms, max_size=2), None) is None
            ), f"seed {seed}: refuted input has a model"
        elif isinstance(v, Satisfiable):
            satisfiable += 1
            assert check_model(v.model, forms)
            rep = is_evident(v.branch)
            assert rep.evident and not rep.bounded
    assert refuted >= 10 and satisfiable >= 10


def test_unsatisfiable_random_instances_refute():
    # formula & its negation-at-the-model level: s together with not s
    hits = 0
    cfg = SearchConfig(max_nodes=3000, timeout=5.0)
    for seed in range(60):
        g = Gen(seed + 17000)
        s = normalize(g.efo_formula(2, quasi=False))
        v = refute([s, neg(s)], cfg)
        if isinstance(v, Unknown):
            continue
        assert isinstance(v, Refuted), f"seed {seed}: {s} with its negation"
        hits += 1
    assert hits >= 40


# ---------------------------------------------------------------------------
# Search reads the applicable_* reference lazily


def _first(instances):
    return instances[0] if instances else None


def closing_first(br, listed):
    """The instance search applies, chosen without caches from the list of
    the instances applicable on br, in search order: the first with two or
    more alternatives, all of which close at once but one at most (a
    formula has a complement on br, or is reflexive), else the first."""

    def closes(s):
        return is_reflexive(s) or any(c in br for c in complements(s))

    for r in listed:
        shut = [any(map(closes, alt)) for alt in r.alternatives]
        if len(shut) >= 2 and shut.count(False) <= 1:
            return r
    return _first(listed)


def _in_search_order(br, instances) -> bool:
    """Rule priority first, then the insertion order of the last premise."""
    at = {s: i for i, s in enumerate(br.formulas)}
    keys = [
        (RULES[r.rule].priority, max(at[p] for p in r.premises)) for r in instances
    ]
    return keys == sorted(keys)


_APPLICABLE = {
    "efo": lambda b, fuel, reserved: applicable_efo(b, reserved),
    "stt": applicable_stt,
}


def test_search_instance_is_the_reference_first_on_random_branches():
    runs = [("efo", lambda g: g.efo_formula(2, quasi=True), 3)]
    runs += [("stt", lambda g: g.formula(2), fuel) for fuel in (1, 2, 3)]
    compared = 0
    for name, formula, fuel in runs:
        calc = CALCULI[name]
        for seed in range(60):
            g = Gen(seed + 21000)
            br = branch_of(*(normalize(formula(g)) for _ in range(3)))
            for step in range(12):
                where = (name, fuel, seed, step)
                rules._built.clear()  # each listing reads an emptied table
                try:
                    listed = _APPLICABLE[name](br, fuel, ())
                except FragmentViolation:
                    break
                rules._built.clear()
                assert reference_instances(calc, br, fuel) == listed, where
                assert _in_search_order(br, listed), where
                expected = _first(listed)
                rules._built.clear()  # cold, then warm
                assert next(instances(calc, br, fuel), None) == expected, where
                assert next(instances(calc, br, fuel), None) == expected, where
                compared += 1
                if expected is None:
                    break
                alts = expected.alternatives
                br = branch_of(*br, *alts[(seed + step) % len(alts)])
    assert compared >= 700


def _check_every_node(monkeypatch, forced: list | None = None) -> list:
    """Make search's agenda check, at every node where it walks its queues,
    that `reference_instances` and `applicable_*` list the same instances,
    each read from an emptied instance table, that its walk's first
    instance is the listing's first, and that search applies `closing_first`
    over the listing; returns the list the formulas of each visited branch
    are appended to.  forced gets the branches where the choice is not the
    listing's first."""
    import hotab.search as search

    visited = []
    choice = []  # the reference's choice on the branch last visited

    class Checked(search.Agenda):
        def __init__(self, calculus):
            super().__init__(calculus)
            self.calculus = calculus

        def instances(self, b, fuel, reserved):
            rules._built.clear()
            listed = reference_instances(self.calculus, b, fuel, reserved)
            rules._built.clear()
            assert _APPLICABLE[self.calculus.name](b, fuel, reserved) == listed
            assert next(super().instances(b, fuel, reserved), None) == _first(listed)
            visited.append(tuple(b))
            choice[:] = [closing_first(b, listed)]
            if forced is not None and choice[0] != _first(listed):
                forced.append(b)
            return super().instances(b, fuel, reserved)

    def applied(r, *rest):
        assert r == choice[0]
        return frame(r, *rest)

    frame = search._Frame
    monkeypatch.setattr(search, "Agenda", Checked)
    monkeypatch.setattr(search, "_Frame", applied)
    return visited


def _search_chain_checked(monkeypatch, n: int, budget: int):
    """Search chain(n) under a node budget, comparing the instance at every
    node with the reference; returns the root, the verdict and the branches
    visited."""
    from hotab.problems import parse

    root = parse(chain_text(n)).branch()
    visited = _check_every_node(monkeypatch)
    v = refute(root, SearchConfig(max_nodes=budget, timeout=None))
    return root, v, visited


def test_search_instance_is_the_reference_first_on_chain(monkeypatch):
    # closing-first refutes chain(2) in 40 rule applications (35 without)
    root, v, visited = _search_chain_checked(monkeypatch, 2, 500)
    assert isinstance(v, Refuted) and check_proof(root, v.proof, "efo")
    assert len(visited) == 40


def test_search_instance_is_the_reference_first_on_chain_to_the_budget(
    monkeypatch,
):
    # chain(4) needs 220 rule applications, so 100 keep the budget path covered
    root, v, visited = _search_chain_checked(monkeypatch, 4, 100)
    assert isinstance(v, Unknown) and "node budget" in v.reason
    assert len(visited) == 101  # the instance fetched past the budget too


def test_closing_first_reference():
    # an instance with all alternatives but one closing at once comes
    # first; one with two open alternatives does not, nor does a
    # non-branching one; with no closing instance the first is chosen
    p, q, r = (ref(Name(n, o)) for n in "pqr")
    br = branch_of(neg(q))
    closing = make_instance(RuleId.IMP, (imp(p, q),))  # alternatives: not p | q
    split = make_instance(RuleId.BOOL_EQ, (eq(p, r),))
    single = make_instance(RuleId.DOUBLE_NEG, (neg(neg(p)),))
    assert closing_first(br, [single, split, closing]) == closing
    assert closing_first(br, [single, split]) == single
    assert closing_first(branch_of(), [split, closing]) == split
    assert closing_first(br, []) is None


@pytest.mark.parametrize(
    "text, calculus, max_nodes, rounds, visits",
    [
        # branches and backtracks: a frame's unproductive instances must
        # not reach its sibling subtrees
        pytest.param(
            clique_text(5, "(assume (forall (x a) (imp (neq x c0) (= x c1))))"),
            "efo",
            None,
            1,
            17,
            id="cliqueU5",
        ),
        # the confront closers are equations the imp instances add, so its
        # pairs reach the agenda through side pairs shut during search
        pytest.param(
            clique_text(7, "(assume (forall (x a) (imp (neq x c0) (= x c1))))"),
            "efo",
            None,
            1,
            19,
            id="cliqueU7",
        ),
        # the unrestricted calculus under a node budget, with fresh
        # witnesses; backjumping refutes it inside the budget
        pytest.param(
            "(sort a)(var f (> a a))(var g (> a a))(var h (> a a))(var c a)"
            "(assume (= f g))(assume (neq (f (h c)) (g (h c))))",
            "stt",
            200,
            1,
            8,
            id="funeq1",
        ),
        # two fuel rounds, each with its own unproductive set
        pytest.param(
            "(var y o)(assume (= (lam (z o) z) (lam (z o) y)))",
            "stt",
            None,
            2,
            8,
            id="boolean-lambda",
        ),
        # not not (x = y) closes x != y at once, so the mate comes first:
        # all its alternatives but z != z close, and z != z closes too, so
        # the root is the one node that walks the agenda
        pytest.param(
            double_neg_mate_text("="), "efo", None, 1, 1, id="double-neg-eq"
        ),
        # the closing-first split comes before the witness rule fires; its
        # first alternative, which concludes f != g (f c != g c), closes at
        # once against q c, and the witness fires below its second
        pytest.param(
            "(sort a)(var f (> a a))(var g (> a a))(var c a)(var q (> a o))"
            "(assume (= g f))(assume (neq f g))(assume (q c))"
            "(assume (= (neq (f c) (g c)) (not (q c))))",
            "stt",
            200,
            1,
            8,
            id="split-before-witness",
        ),
    ],
)
def test_search_instance_is_the_reference_first_at_every_node(
    monkeypatch, text, calculus, max_nodes, rounds, visits
):
    from hotab.problems import parse

    visited = _check_every_node(monkeypatch)
    root = parse(text).branch()
    cfg = SearchConfig(calculus=calculus, max_nodes=max_nodes, timeout=None)
    v = refute(root, cfg)
    assert isinstance(v, Refuted) and v.calculus == calculus
    assert check_proof(root, v.proof, calculus)
    assert len(visited) == visits
    assert sum(1 for formulas in visited if formulas == tuple(root)) == rounds


def test_search_instance_is_the_reference_first_with_double_neg_diseqs(
    monkeypatch,
):
    # the mirror of double-neg-eq: not not (x != y) closes no alternative of
    # the mate, so double-neg comes first; the budget stops the search after
    # that choice, before it saturates the (satisfiable) branch
    from hotab.problems import parse

    visited = _check_every_node(monkeypatch)
    root = parse(double_neg_mate_text("neq")).branch()
    v = refute(root, SearchConfig(calculus="efo", max_nodes=1, timeout=None))
    assert isinstance(v, Unknown) and "node budget" in v.reason
    assert len(visited) == 2


def test_search_instance_is_the_reference_first_on_funeq_sat_to_the_budget(
    monkeypatch,
):
    # f = g and f c != c under the benchmark's 40-node budget: the fun-eq
    # instances add the equations that shut confront's side pairs
    from hotab.problems import parse

    visited = _check_every_node(monkeypatch)
    root = parse(
        "(sort a)(var f (> a a))(var g (> a a))(var h (> a a))(var c a)"
        "(assume (= f g))(assume (neq (f c) c))"
    ).branch()
    v = refute(root, SearchConfig(calculus="stt", max_nodes=40, timeout=None))
    assert isinstance(v, Unknown) and "node budget" in v.reason
    assert len(visited) == 41  # the instance fetched past the budget too


@pytest.mark.parametrize(
    "assumptions, visits",
    [
        # y != w meets x = z through the side pair (x, y) that x = y shut
        # before it came: the two share no side
        pytest.param(
            "(assume (= x z))(assume (= x y))(assume (neq y w))", 2, id="old-shut-pair"
        ),
        # x = y comes below the imp and shuts (x, y) between x = z and
        # y != w, which were on the branch before it
        pytest.param(
            "(var p o)(assume (= x z))(assume (neq y w))(assume p)"
            "(assume (imp p (= x y)))",
            3,
            id="new-shut-pair",
        ),
    ],
)
def test_search_instance_is_the_reference_first_through_shut_side_pairs(
    monkeypatch, assumptions, visits
):
    from hotab.problems import parse

    visited = _check_every_node(monkeypatch)
    decls = "(sort a)" + "".join(f"(var {n} a)" for n in "xyzw")
    root = parse(decls + assumptions).branch()
    v = refute(root, SearchConfig(calculus="efo", timeout=None))
    assert isinstance(v, Satisfiable)
    assert len(visited) == visits


def test_side_pairs_are_the_sides_of_the_disequation_among_the_complements():
    # side_pairs reads s itself rather than building its complements again;
    # it must name the sides of the disequation complements(s) holds
    from hotab.kernel import as_diseq
    from hotab.selection import side_pairs

    x, y = ref(V("x", a)), ref(V("y", a))
    forms = [eq(x, y), diseq(x, y), neg(neg(eq(x, y))), neg(neg(diseq(x, y)))]
    for seed in range(200):
        s = normalize(Gen(seed).formula(2))
        forms += [s, neg(s), neg(neg(s))]
    shut = 0
    for s in forms:
        want = next((d[1:] for d in map(as_diseq, complements(s)) if d), None)
        assert side_pairs(s) == want, s
        shut += want is not None
    assert shut >= 20


def test_the_agenda_indexes_a_sort_once_it_has_an_equation_and_a_disequation():
    # confront's side index records nothing for a sort with disequations
    # alone, which the branch groups; the first equation brings in the
    # earlier disequations, and undoing the branch takes the index back.  A
    # sibling that adds the equation again (its group is empty but still
    # keyed after the undo) brings them in again
    from hotab.problems import parse
    from hotab.selection import Agenda

    br = parse(clique_text(4)).branch()
    agenda = Agenda(CALCULI["efo"])
    agenda.add(br, tuple(br))
    diseqs = br.members(FormulaKind.SORT_DISEQ)
    groups = {k: [m for m, _ in v] for k, v in br._by_kind.items() if type(k) is tuple}
    assert groups == {(FormulaKind.SORT_DISEQ, sort("a")): list(diseqs)}
    assert not any(agenda.by_side.values())
    mark = len(br.trail)
    c0, c1 = (ref(Name(f"c{i}", sort("a"))) for i in (0, 1))
    # every disequation but c2 != c3 shares a side with c0 = c1
    confronts = [(RuleId.CONFRONT, (eq(c0, c1), d), None) for d in diseqs[:-1]]
    for _ in range(2):
        br.add(eq(c0, c1))
        agenda.add(br, (eq(c0, c1),))
        eqs = br.group(FormulaKind.SORT_EQ, sort("a"))
        assert eqs == [(eq(c0, c1), len(diseqs))]
        assert len(agenda.by_side[FormulaKind.SORT_DISEQ, c0]) == 3
        assert [key for _, key, _, _ in agenda.ordered] == confronts
        br.undo(mark)
        assert not any(agenda.by_side.values()) and not agenda.ordered
        assert br._by_kind[FormulaKind.SORT_EQ, sort("a")] == []
    # in one batch, an equation before the disequations waits for the
    # first of them to read it in, so the side index has it once
    br = branch_of(eq(c0, c1), *diseqs)
    agenda = Agenda(CALCULI["efo"])
    agenda.add(br, tuple(br))
    assert agenda.by_side[FormulaKind.SORT_EQ, c0] == [(eq(c0, c1), 0)]
    assert len(agenda.by_side[FormulaKind.SORT_DISEQ, c0]) == 3
    assert [key for _, key, _, _ in agenda.ordered] == confronts


def test_the_agenda_pairs_an_atom_with_the_atoms_of_its_head():
    # mate keys come from the branch's group of the other kind under the
    # atom's head, in the order of the members: the atoms of another head
    # are never read, and undoing the branch empties the groups
    from hotab.problems import parse
    from hotab.selection import Agenda

    br = parse(
        "(sort a)(var p (> a o))(var q (> a o))(var c a)(var d a)"
        "(assume (p c))(assume (q c))(assume (p d))"
    ).branch()
    pc, qc, pd = br.formulas
    agenda = Agenda(CALCULI["efo"])
    agenda.add(br, tuple(br))
    mark = len(br.trail)
    new = tuple(neg(s) for s in (qc, pd))
    for s in new:
        br.add(s)
    agenda.add(br, new)
    p, q = (Name(n, fun(sort("a"), o)) for n in "pq")
    assert [m for m, _ in br.group(FormulaKind.POS_ATOM, p)] == [pc, pd]
    assert [m for m, _ in br.group(FormulaKind.NEG_ATOM, q)] == [new[0]]
    assert agenda.queues[RULES[RuleId.MATE].priority] == [
        (RuleId.MATE, (qc, new[0]), None),
        (RuleId.MATE, (pc, new[1]), None),
        (RuleId.MATE, (pd, new[1]), None),
    ]
    br.undo(mark)
    assert br._by_kind[FormulaKind.NEG_ATOM, p] == []
    assert not agenda.queues[RULES[RuleId.MATE].priority]


def test_undoing_the_branch_cuts_the_agenda_queues_back():
    # a new member's keys join its rule's priority queue, in search order:
    # a mate key the row's shape accepts, a confront premise with its
    # position on the branch; the shape rejects
    # decompose on c != d.  Undoing the branch takes them out again
    from hotab.problems import parse
    from hotab.selection import Agenda

    br = parse(
        "(sort a)(var p (> a o))(var c a)(var d a)(assume (p c))(assume (neq c d))"
    ).branch()
    pc, cd = br.formulas
    agenda = Agenda(CALCULI["efo"])
    agenda.add(br, tuple(br))
    queue = {r: agenda.queues[RULES[r].priority] for r in CALCULI["efo"].rules}
    before = {p: list(q) for p, q in agenda.queues.items()}
    assert queue[RuleId.CONFRONT] == [(RuleId.CONFRONT, (cd,), 1)]
    assert not queue[RuleId.MATE] and not queue[RuleId.DECOMPOSE]
    mark = len(br.trail)
    c, d = (ref(Name(n, sort("a"))) for n in "cd")
    new = (neg(app(ref(Name("p", fun(sort("a"), o))), d)), eq(c, d))
    for s in new:
        br.add(s)
    agenda.add(br, new)
    assert queue[RuleId.MATE] == [(RuleId.MATE, (pc, new[0]), None)]
    assert queue[RuleId.CONFRONT][1:] == [(RuleId.CONFRONT, (new[1],), 3)]
    # the mate only adds c != d, which is on the branch: the walk finds it dead
    assert [r.rule for r in agenda.instances(br)] == [RuleId.CONFRONT]
    assert list(agenda.dead) == [queue[RuleId.MATE][0]]
    br.undo(mark)
    assert agenda.queues == before and not agenda.dead


def test_pick_drops_the_dead_entries_it_walks_past():
    # c0 = c1 confronts c0 != c2 and c1 != c2 at once (shared sides), and
    # both instances are dead: their second alternative is on the branch.
    # pick reads that off the index, builds neither, and takes both out of
    # the ordered entries until the branch is undone
    from hotab.problems import parse
    from hotab.selection import Agenda

    br = parse(
        "(sort a)(var c0 a)(var c1 a)(var c2 a)"
        "(assume (= c0 c1))(assume (neq c0 c2))(assume (neq c1 c2))"
    ).branch()
    rules._built.clear()
    agenda = Agenda(CALCULI["efo"])
    agenda.add(br, tuple(br))
    assert [key[0] for _, key, _, _ in agenda.ordered] == [RuleId.CONFRONT] * 2
    mark = len(br.trail)
    assert agenda.pick(br) is None
    assert not agenda.ordered and len(agenda.dead) == 2 and not rules._built
    br.undo(mark)
    assert len(agenda.ordered) == 2 and not agenda.dead


def test_the_agenda_orders_each_closing_key_once():
    # a key is in the ordered entries once: a confront pair met through two
    # side pairs shut in one add, then through a third; a mate woken by
    # both its closers in one add; and a mate that pick found dead and took
    # out, woken again.  Undoing the branch restores the ordered entries
    from hotab.problems import parse
    from hotab.selection import Agenda

    decls = "(sort a)(var p (> a a o))" + "".join(f"(var {n} a)" for n in "cdeg")
    c, d, e, g = (ref(V(n, a)) for n in "cdeg")

    def agenda_on(assumptions):
        br = parse(decls + assumptions).branch()
        agenda = Agenda(CALCULI["efo"])
        agenda.add(br, tuple(br))
        return br, agenda

    def extend(br, agenda, *new):
        for s in new:
            br.add(s)
        agenda.add(br, new)

    def count(agenda, key):
        return [k for _, k, _, _ in agenda.ordered].count(key)

    # confront c = d, e != g: c = e and d = g shut both alternatives
    br, agenda = agenda_on("(assume (= c d))(assume (neq e g))")
    key = (RuleId.CONFRONT, tuple(br.formulas), None)
    mark, before = len(br.trail), list(agenda.ordered)
    extend(br, agenda, eq(c, e), eq(d, g))
    extend(br, agenda, eq(c, g))
    assert count(agenda, key) == 1
    br.undo(mark)
    assert agenda.ordered == before

    # mate p c e, not p d g: alternatives c != d | e != g
    br, agenda = agenda_on("(assume (p c e))(assume (not (p d g)))")
    key = (RuleId.MATE, tuple(br.formulas), None)
    mark, before = len(br.trail), list(agenda.ordered)
    extend(br, agenda, eq(c, d), eq(e, g))
    assert count(agenda, key) == 1
    br.undo(mark)
    assert agenda.ordered == before

    # with c != d on the branch the mate is unproductive; e = g shuts its
    # other alternative, and not not (e = g) shuts it again
    br, agenda = agenda_on("(assume (p c e))(assume (not (p d g)))(assume (neq c d))")
    key = (RuleId.MATE, tuple(br.formulas[:2]), None)
    extend(br, agenda, eq(e, g))
    mark, before = len(br.trail), list(agenda.ordered)
    assert count(agenda, key) == 1
    assert agenda.pick(br) is None and list(agenda.dead) == [key]
    extend(br, agenda, neg(neg(eq(e, g))))
    assert count(agenda, key) == 0
    br.undo(mark)
    assert agenda.ordered == before and not agenda.dead


# ---------------------------------------------------------------------------
# Backjumping: a subtree that never used its alternative closes the parent
#
# Each problem below is built so that one extra dependency of `forall-inst`
# is what keeps a frame in the proof.  Without it the search would drop the
# frame, and the condensed proof would fail check_proof.


def test_backjumping_keeps_the_disequation_a_discriminating_instance_needs():
    # p c, then mate(p c, not p (f c)) adds c /= f c, which makes f c
    # discriminating; the instance with f c closes using only root members,
    # so the mate frame stays only because of the disequation
    from hotab.problems import parse

    root = parse(
        "(sort a)(var p (> a o))(var f (> a a))(var c a)"
        "(assume (forall (x a) (p x)))(assume (not (p (f c))))"
    ).branch()
    v = refute(root, SearchConfig(calculus="efo"))
    assert isinstance(v, Refuted) and check_proof(root, v.proof, "efo")
    assert [n.instance.rule.value for n in v.proof.nodes()] == [
        "forall-inst",
        "mate",
        "forall-inst",
        "close-compl",
    ]


def test_backjumping_keeps_the_member_a_free_variable_instance_needs():
    # the first witness x0 is the instance of the vacuous forall (x a) q and
    # of forall (z a) (t z); nothing else uses not (s x0), so only the
    # member x0 is free in keeps its frame: on the root plus the second
    # witness's not (t x1), x0 would not be admissible.  The second negated
    # quantifier is not the complement of forall (z a) (t z), so the
    # implication does not close at once and is applied after both
    from hotab.problems import parse

    root = parse(
        "(sort a)(var s (> a o))(var t (> a o))(var q o)"
        "(assume (not (forall (y a) (s y))))"
        "(assume (not (forall (z a) (not (not (t z))))))"
        "(assume (forall (x a) q))(assume (imp q (forall (z a) (t z))))"
    ).branch()
    v = refute(root, SearchConfig(calculus="efo"))
    assert isinstance(v, Refuted) and check_proof(root, v.proof, "efo")
    rules = [n.instance.rule.value for n in v.proof.nodes()]
    assert rules[:5] == [
        "forall-neg",
        "forall-neg",
        "double-neg",
        "forall-inst",
        "imp",
    ]
    assert v.proof.rule_counts()["forall-neg"] == 2


@pytest.mark.parametrize(
    "text, calculus, budget",
    [
        pytest.param(chain_text(2), "efo", 500, id="chain2"),
        pytest.param(
            "(sort a)(var f (> a a))(var g (> a a))(var h (> a a))(var c a)"
            "(assume (= f g))(assume (neq (f (h c)) (g (h c))))",
            "stt",
            200,
            id="funeq1",
        ),
    ],
)
def test_backjumping_refutes_within_the_benchmark_budgets(text, calculus, budget):
    # both ran out of nodes before backjumping
    from hotab.problems import parse, parse_proof, serialize_proof

    problem = parse(text)
    cfg = SearchConfig(calculus=calculus, max_nodes=budget, timeout=None)
    v = refute(problem.branch(), cfg)
    assert isinstance(v, Refuted)
    replayed = parse_proof(serialize_proof(v.proof), problem)
    assert check_proof(problem.branch(), replayed, calculus)


@pytest.mark.parametrize(
    "n, budget",
    [
        pytest.param(3, 500, id="chain3"),  # the efo-refute budget
        pytest.param(4, 999, id="chain4"),
        pytest.param(6, 2000, id="chain6"),
    ],
)
def test_closing_first_refutes_chains_within_budgets(n, budget):
    # all three ran out of nodes before closing-first selection
    from hotab.problems import parse, parse_proof, serialize_proof

    problem = parse(chain_text(n))
    cfg = SearchConfig(calculus="efo", max_nodes=budget, timeout=None)
    v = refute(problem.branch(), cfg)
    assert isinstance(v, Refuted)
    replayed = parse_proof(serialize_proof(v.proof), problem)
    assert check_proof(problem.branch(), replayed, "efo")


def _unsat(f0, f1, f2) -> list:
    """f0, f0 -> f1, not f1, f2: unsatisfiable, and no member sits beside
    its negation, so a refutation takes a rule application first."""
    return [f0, normalize(imp(f0, f1)), normalize(neg(f1)), f2]


def test_search_applies_the_reference_choice_on_random_branches(monkeypatch):
    # the per-node check on random efo and stt branches (budgets keep the
    # few slow stt branches short)
    forced: list = []
    visited = _check_every_node(monkeypatch, forced)
    seen = Counter()
    for seed in range(80):
        g = Gen(seed + 25000)
        efo_forms = [normalize(g.efo_formula(2, quasi=True)) for _ in range(3)]
        efo_unsat = _unsat(*efo_forms)
        g = Gen(seed + 26000)
        stt_forms = [normalize(g.formula(2)) for _ in range(3)]
        runs = [("efo", efo_forms, 3), ("efo", efo_unsat, 3)]
        runs += [("stt", stt_forms, fuel) for fuel in (1, 2, 3)]
        for calculus, forms, fuel in runs:
            cfg = SearchConfig(
                calculus=calculus, fuel_schedule=(fuel,), max_nodes=60, timeout=None
            )
            try:
                v = refute(forms, cfg)
            except FragmentViolation:
                continue
            seen[calculus, type(v).__name__] += 1
            if isinstance(v, Refuted) and v.proof.size() > 1:
                seen[calculus, "past the root"] += 1  # read some search choice
    for calculus in ("efo", "stt"):
        assert seen[calculus, "Refuted"] >= 10, seen
        assert seen[calculus, "Satisfiable"] >= 10, seen
    assert seen["efo", "past the root"] >= 10, seen
    assert len(visited) >= 500 and len(forced) >= 30


def test_backjumping_verdicts_certify_on_random_branches():
    # every proof replays, and every open branch is evident with a model
    # (node budgets keep the few slow stt branches short)
    seen = Counter()
    for seed in range(60):
        g = Gen(seed + 23000)
        efo_forms = [normalize(g.efo_formula(2, quasi=True)) for _ in range(3)]
        efo_unsat = _unsat(*efo_forms)
        g = Gen(seed + 24000)
        stt_forms = [normalize(g.formula(2)) for _ in range(3)]
        runs = [("efo", efo_forms, 3), ("efo", efo_unsat, 3)]
        runs += [("stt", stt_forms, fuel) for fuel in (1, 2, 3)]
        for calculus, forms, fuel in runs:
            cfg = SearchConfig(
                calculus=calculus, fuel_schedule=(fuel,), max_nodes=200, timeout=None
            )
            try:
                v = refute(forms, cfg)
            except FragmentViolation:
                continue
            where = (calculus, fuel, seed)
            if isinstance(v, Refuted):
                assert check_proof(forms, v.proof, calculus), where
            elif isinstance(v, Satisfiable):
                rep = is_evident(v.branch, scope=calculus, fuel=fuel)
                assert rep.evident, (where, rep.describe())
                assert check_model(v.model, forms), where
            seen[calculus, type(v).__name__] += 1
            if isinstance(v, Refuted) and v.proof.size() > 1:
                seen[calculus, "past the root"] += 1  # read some search choice
    for calculus in ("efo", "stt"):
        assert seen[calculus, "Refuted"] >= 10, seen
        assert seen[calculus, "Satisfiable"] >= 10, seen
    assert seen["efo", "past the root"] >= 10, seen


# ---------------------------------------------------------------------------
# Model extraction reads first-order tables off the evident branch


def test_extraction_builds_no_first_order_function_space(monkeypatch):
    import tracemalloc

    import hotab.semantics as semantics
    from hotab.fragments import decide
    from hotab.kernel import Fun, arg_types, forall_sort, is_sort, names
    from hotab.problems import parse

    domain = semantics.Frame.domain
    allowed: set = set()

    def guarded(frame, ty):
        first_order = type(ty) is Fun and all(is_sort(s) for s in arg_types(ty))
        if first_order and ty not in allowed:
            raise AssertionError(f"built the function space of {ty}")
        return domain(frame, ty)

    monkeypatch.setattr(semantics.Frame, "domain", guarded)
    problems = [rel_text(k) for k in range(2, 6)]
    problems += [fclique_text(k) for k in range(3, 8)]
    for text in problems:
        forms = parse(text).assumptions
        # check_model evaluates a quantifier over s through the table of
        # D(s -> o); that space is the quantifier's, not a variable's
        allowed = {
            Fun(forall_sort(n), o)
            for s in forms
            for n in names(s)
            if forall_sort(n) is not None
        }
        v = decide(branch_of(*forms))
        assert isinstance(v, Satisfiable), text
        assert check_model(v.model, forms)

    forms = parse(rel_text(5)).assumptions
    allowed = {Fun(a, o)}
    tracemalloc.start()
    try:
        v = decide(branch_of(*forms))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(v, Satisfiable)
    assert peak < 50 * 2**20


def _ground_problem(g: Gen) -> list:
    """Ground formulas over c, d : a, a function f : a -> a and a relation
    r : a -> a -> o (the lambda-free class, so `decide` terminates)."""
    rng = g.rng
    f, r = V("f", fun(a, a)), V("r", fun(a, a, o))
    consts = [V("c", a), V("d", a)]

    def term():
        t = ref(rng.choice(consts))
        return app(ref(f), t) if rng.random() < 0.45 else t

    def literal():
        s = app(ref(r), term(), term()) if rng.random() < 0.5 else eq(term(), term())
        return neg(s) if rng.random() < 0.5 else s

    def formula(depth):
        if depth == 0 or rng.random() < 0.5:
            return literal()
        return imp(formula(depth - 1), formula(depth - 1))

    return [normalize(formula(2)) for _ in range(rng.choice((3, 4, 5)))]


def test_decide_agrees_with_enumeration_on_function_and_relation_variables():
    # each problem is decidable, and search runs as `decide` runs it, but
    # under a node budget (the largest needs a few dozen applications): a
    # search fault ends in Unknown here, not in unbounded growth
    from hotab.fragments import classify_branch

    refuted = satisfiable = 0
    for seed in range(120):
        forms = _ground_problem(Gen(seed + 23000, sorts=("a",)))
        br = branch_of(*forms)
        assert classify_branch(br).decidable(), seed
        v = refute(br, SearchConfig(calculus="efo", max_nodes=1_000, timeout=None))
        if isinstance(v, Refuted):
            refuted += 1
            assert check_proof(forms, v.proof), seed
            assert next(enumerate_models(forms, max_size=2), None) is None, seed
        else:
            assert isinstance(v, Satisfiable), seed
            satisfiable += 1
            assert check_model(v.model, forms), seed
            size = v.model.frame.sort_sizes.get(a, 1)
            assert next(enumerate_models(forms, max_size=size), None) is not None
    assert refuted >= 20 and satisfiable >= 60
