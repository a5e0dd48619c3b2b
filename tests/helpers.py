"""Shared test machinery: a naive named-term oracle, seeded random
generators, problem texts, the acceptance corpus, and member walks that
list a branch's instances, an instance's support and the pair rules' unmet
conditions, the references for search's instance index, for
`selection.support` and for the pairs of `selection.is_evident`.

The named representation here is deliberately primitive (nested tuples with
string binders, alpha-equivalence by parallel binder stacks) so it can serve
as an independent oracle for the package's canonical representation.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from hotab.branch import FormulaKind, branch_of
from hotab.fragments import classify_branch, lam_subterm
from hotab.kernel import (
    App,
    Fun,
    Lam,
    Name,
    Term,
    Type,
    app,
    diseq,
    eq,
    forall,
    free_vars_ordered,
    fun,
    imp,
    is_var_ref,
    lam,
    neg,
    o,
    ref,
    sort,
    spine,
)
from hotab.normalize import normalize
from hotab.rules import RULES, RuleId, concluded, inst_type, instance_of
from hotab.selection import CANDIDATES, _concluded_on, fresh_var


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of t, outermost first (t itself included)."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if type(s) is App:
            stack.append(s.arg)
            stack.append(s.fun)
        elif type(s) is Lam:
            stack.append(s.body)


# ---------------------------------------------------------------------------
# Named terms (oracle representation)
#
# ("V", ident, ty)  variable occurrence
# ("A", f, a)       application
# ("L", ident, ty, body)  abstraction with a named binder


def nvar(ident: str, ty: Type):
    return ("V", ident, ty)


def napp(f, *args):
    for a in args:
        f = ("A", f, a)
    return f


def nlam(ident: str, ty: Type, body):
    return ("L", ident, ty, body)


def named_alpha_eq(a, b) -> bool:
    """Naive alpha-equivalence via parallel binder stacks."""

    def lookup(stack, ident):
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == ident:
                return len(stack) - 1 - i
        return None

    def go(a, b, ea, eb):
        if a[0] != b[0]:
            return False
        if a[0] == "V":
            ia, ib = lookup(ea, a[1]), lookup(eb, b[1])
            if (ia is None) != (ib is None):
                return False
            if ia is not None:
                return ia == ib
            return a[1] == b[1] and a[2] == b[2]
        if a[0] == "A":
            return go(a[1], b[1], ea, eb) and go(a[2], b[2], ea, eb)
        return a[2] == b[2] and go(a[3], b[3], ea + (a[1],), eb + (b[1],))

    return go(a, b, (), ())


def named_to_term(t, sig: dict[str, Name]) -> Term:
    """Convert a named tuple term to the canonical representation."""
    counter = [0]

    def go(t, scope: dict[str, Name]) -> Term:
        if t[0] == "V":
            n = scope.get(t[1])
            if n is not None:
                if n.ty != t[2]:
                    raise TypeError(f"scoped variable {t[1]} at wrong type")
                return ref(n)
            return ref(sig[t[1]])
        if t[0] == "A":
            return app(go(t[1], scope), go(t[2], scope))
        counter[0] += 1
        binder = Name(f"_b{counter[0]}", t[2])
        body = go(t[3], {**scope, t[1]: binder})
        return lam(binder, body)

    return go(t, {})


def rename_binders(t, rng: random.Random):
    """Rename every binder to a globally fresh identifier (alpha-preserving)."""
    counter = [0]

    def go(t, env: dict[str, str]):
        if t[0] == "V":
            return ("V", env.get(t[1], t[1]), t[2])
        if t[0] == "A":
            return ("A", go(t[1], env), go(t[2], env))
        counter[0] += 1
        fresh = f"_r{counter[0]}_{rng.randrange(1000)}"
        return ("L", fresh, t[2], go(t[3], {**env, t[1]: fresh}))

    return go(t, {})


def named_free_idents(t) -> set[str]:
    def go(t, bound):
        if t[0] == "V":
            return set() if t[1] in bound else {t[1]}
        if t[0] == "A":
            return go(t[1], bound) | go(t[2], bound)
        return go(t[3], bound | {t[1]})

    return go(t, frozenset())


# ---------------------------------------------------------------------------
# Random generators (seeded, deterministic)


class Gen:
    """Deterministic random builder for types, terms, and formulas."""

    def __init__(self, seed: int | random.Random, sorts: Iterable[str] = ("a", "b")):
        self.rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        self.sorts = [sort(s) for s in sorts]
        self._pool: dict[Type, list[Name]] = {}
        self._fresh = 0

    # -- types --

    def base(self) -> Type:
        return self.rng.choice([o] + self.sorts)

    def type(self, depth: int = 2) -> Type:
        if depth <= 0 or self.rng.random() < 0.55:
            return self.base()
        return Fun(self.type(depth - 1), self.type(depth - 1))

    def sort_type(self) -> Type:
        return self.rng.choice(self.sorts)

    # -- variables --

    def invent(self, ty: Type) -> Name:
        self._fresh += 1
        n = Name(f"v{self._fresh}", ty)
        self._pool.setdefault(ty, []).append(n)
        return n

    def var(self, ty: Type) -> Name:
        pool = self._pool.get(ty)
        if pool and self.rng.random() < 0.7:
            return self.rng.choice(pool)
        return self.invent(ty)

    def binder(self, ty: Type) -> Name:
        self._fresh += 1
        return Name(f"b{self._fresh}", ty)

    # -- terms --

    def term(
        self,
        ty: Type,
        depth: int = 3,
        scope: tuple[Name, ...] = (),
        redex_prob: float = 0.0,
    ) -> Term:
        rng = self.rng
        if depth > 0 and rng.random() < redex_prob:
            dom = self.type(1)
            b = self.binder(dom)
            body = self.term(ty, depth - 1, scope + (b,), redex_prob)
            arg = self.term(dom, depth - 1, scope, redex_prob)
            return app(lam(b, body), arg)
        if depth <= 0:
            cands = [n for n in scope if n.ty == ty]
            if cands and rng.random() < 0.6:
                return ref(rng.choice(cands))
            return ref(self.var(ty))
        if type(ty) is Fun and rng.random() < 0.45:
            b = self.binder(ty.dom)
            return lam(b, self.term(ty.cod, depth - 1, scope + (b,), redex_prob))
        k = rng.choice([0, 1, 1, 2])
        dts = [self.type(1) for _ in range(k)]
        hty = fun(*dts, ty) if dts else ty
        cands = [n for n in scope if n.ty == hty]
        head = rng.choice(cands) if cands and rng.random() < 0.5 else self.var(hty)
        args = [self.term(d, depth - 1, scope, redex_prob) for d in dts]
        return app(ref(head), *args)

    def subst(self, t: Term, depth: int = 2) -> dict[Name, Term]:
        from hotab.kernel import free_vars

        theta = {}
        for x in sorted(free_vars(t), key=lambda n: n.ident):
            if self.rng.random() < 0.6:
                theta[x] = self.term(x.ty, depth, redex_prob=0.2)
        return theta

    # -- formulas --

    def atom(self, depth: int = 2, efo: bool = False) -> Term:
        k = self.rng.choice([0, 1, 1, 2])
        dts = [self.sort_type() if efo else self.type(1) for _ in range(k)]
        hty = fun(*dts, o) if dts else o
        head = self.var(hty)
        mk = self.efo_term if efo else self.term
        return app(ref(head), *[mk(d, depth - 1) for d in dts])

    def formula(self, depth: int = 3) -> Term:
        """A random normal formula over negation and typed equality."""
        rng = self.rng
        if depth <= 0:
            return self.atom(0)
        shape = rng.choice(["atom", "neg", "eq", "eq", "diseq"])
        if shape == "atom":
            return self.atom(depth)
        if shape == "neg":
            return neg(self.formula(depth - 1))
        ty = self.type(1)
        s, t = self.term(ty, depth - 1), self.term(ty, depth - 1)
        return eq(s, t) if shape == "eq" else diseq(s, t)

    def efo_term(self, ty: Type, depth: int = 2, scope: tuple[Name, ...] = ()) -> Term:
        """A normal term whose constants stay in the restricted signature."""
        rng = self.rng
        if type(ty) is Fun and depth > 0 and rng.random() < 0.4:
            b = self.binder(ty.dom)
            return lam(b, self.efo_term(ty.cod, depth - 1, scope + (b,)))
        if depth <= 0:
            cands = [n for n in scope if n.ty == ty]
            if cands and rng.random() < 0.6:
                return ref(rng.choice(cands))
            return ref(self.var(ty))
        k = rng.choice([0, 1, 1, 2])
        dts = [self.sort_type() for _ in range(k)]
        hty = fun(*dts, ty) if dts else ty
        cands = [n for n in scope if n.ty == hty]
        head = rng.choice(cands) if cands and rng.random() < 0.5 else self.var(hty)
        return app(ref(head), *[self.efo_term(d, depth - 1, scope) for d in dts])

    def efo_formula(self, depth: int = 3, quasi: bool = False) -> Term:
        rng = self.rng
        if depth <= 0:
            return self.atom(0, efo=True)
        shape = rng.choice(
            ["atom", "neg", "imp", "eq", "diseq", "forall", "forall"]
            + (["anydiseq"] if quasi else [])
        )
        if shape == "atom":
            return self.atom(depth, efo=True)
        if shape == "neg":
            return neg(self.efo_formula(depth - 1, quasi=False))
        if shape == "imp":
            return imp(
                self.efo_formula(depth - 1, quasi=False),
                self.efo_formula(depth - 1, quasi=False),
            )
        if shape in ("eq", "diseq"):
            ty = self.sort_type()
            s, t = self.efo_term(ty, depth - 1), self.efo_term(ty, depth - 1)
            return eq(s, t) if shape == "eq" else diseq(s, t)
        if shape == "forall":
            ty = self.sort_type()
            b = self.binder(ty)
            return forall(lam(b, self.efo_formula(depth - 1, quasi=False)))
        ty = self.type(1)
        return diseq(self.efo_term(ty, depth - 1), self.efo_term(ty, depth - 1))

    # -- models --

    def value(self, frame, ty: Type):
        """A random element of D(ty) without enumerating function spaces."""
        if ty == o:
            return self.rng.choice((0, 1))
        if type(ty) is not Fun:
            return self.rng.randrange(frame.size(ty))
        return tuple(
            self.value(frame, ty.cod) for _ in range(frame.size(ty.dom))
        )

    def frame_for(self, formulas, max_size: int = 3):
        from hotab.models import Frame
        from hotab.semantics import sorts_in

        sizes = {s: self.rng.randint(1, max_size) for s in sorts_in(formulas)}
        return Frame(sizes)

    def model_for(self, formulas, max_size: int = 3):
        from hotab.models import Model
        from hotab.semantics import variables_in

        frame = self.frame_for(formulas, max_size)
        interp = {n: self.value(frame, n.ty) for n in variables_in(formulas)}
        return Model(frame, interp)

    def bsr_formula(self, n_quant: int | None = None) -> Term:
        """Quantifier prefix over a quantifier-free relational matrix."""
        rng = self.rng
        if n_quant is None:
            n_quant = rng.choice([0, 1, 1, 2])
        binders = [self.binder(self.sort_type()) for _ in range(n_quant)]

        def matrix(depth: int, scope: tuple[Name, ...]) -> Term:
            def leaf() -> Term:
                if rng.random() < 0.5:
                    ty = rng.choice([n.ty for n in scope] if scope else self.sorts)
                    cands = [n for n in scope if n.ty == ty]

                    def pick():
                        if cands and rng.random() < 0.7:
                            return ref(rng.choice(cands))
                        return ref(self.var(ty))

                    e = eq(pick(), pick())
                    return e if rng.random() < 0.5 else neg(e)
                k = rng.choice([1, 1, 2])
                dts = [self.sort_type() for _ in range(k)]
                head = self.var(fun(*dts, o))
                args = []
                for d in dts:
                    cs = [n for n in scope if n.ty == d]
                    if cs and rng.random() < 0.7:
                        args.append(ref(rng.choice(cs)))
                    else:
                        args.append(ref(self.var(d)))
                return app(ref(head), *args)

            if depth <= 0:
                return leaf()
            shape = rng.choice(["leaf", "leaf", "neg", "imp"])
            if shape == "leaf":
                return leaf()
            if shape == "neg":
                return neg(matrix(depth - 1, scope))
            return imp(matrix(depth - 1, scope), matrix(depth - 1, scope))

        body = matrix(2, tuple(binders))
        for b in reversed(binders):
            body = forall(lam(b, body))
        return body


# ---------------------------------------------------------------------------
# The reference listing of instances


def reference_instances(calculus, branch, fuel: int = 3, reserved=()) -> list:
    """The calculus's instances on the branch in search order, listed by a
    walk over all its members at once, per priority group of the rule table.

    It shares with `selection.Agenda`, which search reads its instances
    from, only the rule table, `rules.instance_of` and the candidate terms
    of a "term" rule (`CANDIDATES`).  The order is rule priority, then the
    insertion order of the (last) premise, then the order of the other
    premise (an earlier member of its kind) or the candidate term.  A
    witness rule takes the first variable free on neither the branch nor
    reserved, unless its conclusion is on the branch (`concluded`).  Only
    instances whose every alternative adds a formula are listed."""
    if branch.is_closed:
        return []
    groups: dict = {}
    for rule, row in RULES.items():
        if rule in calculus.rules:
            uses = groups.setdefault(row.priority, {})
            for at, kind in enumerate(row.kinds):
                uses.setdefault(kind, []).append((rule, row, at))
    out = []
    for _, uses in sorted(groups.items()):
        earlier: dict = {kind: [] for kind in uses}
        for s in branch.formulas:
            info = branch.info(s)
            for rule, row, at in uses.get(info.kind, ()):
                if row.inst == "fresh":
                    avoid = (*branch.free_names, *reserved)
                    x = ref(fresh_var(inst_type(info), avoid))
                    keys = [] if concluded(branch, rule, info) else [(rule, (s,), x)]
                elif row.inst == "term":
                    us = CANDIDATES[rule](branch, info, fuel, reserved)
                    keys = [(rule, (s,), u) for u in us]
                elif len(row.kinds) == 2:
                    others = earlier[row.kinds[1 - at]]
                    keys = [(rule, (s, p) if at == 0 else (p, s), None) for p in others]
                else:
                    keys = [(rule, (s,), None)]
                for key in keys:
                    r = instance_of(*key)
                    if r is not None and all(
                        any(f not in branch for f in alt) for alt in r.alternatives
                    ):
                        out.append(r)
            if info.kind in earlier:
                earlier[info.kind].append(s)
    return out


def reference_support(branch, r) -> tuple:
    """`selection.support` by a scan of the branch: the premises, and for
    forall-inst the first disequation at the term's type with the term as
    a side, else, for a variable, the first member it is free in."""
    if r.rule is not RuleId.FORALL_INST:
        return r.premises
    u = r.inst
    for d in branch.disequations(u.ty):
        if u in (branch.info(d).lhs, branch.info(d).rhs):
            return r.premises + (d,)
    for s in branch.formulas if is_var_ref(u) else ():
        if u.name in free_vars_ordered(s):
            return r.premises + (s,)
    return r.premises


def reference_pair_violations(branch) -> list:
    """`selection.is_evident`'s violations of the pair rules (`mate`,
    `confront`) as (condition, premises), in its order, by the walk over
    every pair of members of the row's two kinds: the row's shape rejects
    the pairs at two heads or two sorts (`_concluded_on` holds there)."""
    out = []
    for rule, row in RULES.items():
        if rule in (RuleId.MATE, RuleId.CONFRONT):
            for p in branch.members(row.kinds[0]):
                for q in branch.members(row.kinds[1]):
                    if not _concluded_on(branch, rule, (p, q)):
                        out.append((rule.value, (p, q)))
    return out


# ---------------------------------------------------------------------------
# Problem texts


def chain_text(n: int) -> str:
    """r c0 c1, ..., r c(n-1) cn, transitivity of r, and not r c0 cn."""
    decls = ["(sort a)(var r (> a a o))"] + [f"(var c{i} a)" for i in range(n + 1)]
    decls += [f"(assume (r c{i} c{i + 1}))" for i in range(n)]
    decls += [
        "(assume (forall (x a) (forall (y a) (forall (z a)"
        " (imp (r x y) (imp (r y z) (r x z)))))))",
        f"(assume (not (r c0 c{n})))",
    ]
    return "".join(decls)


def double_neg_mate_text(rel: str) -> str:
    """not not (x rel y), not not (u rel v), p x z u and not (p y z v)."""
    return (
        "(sort a)(var p (> a a a o))"
        + "".join(f"(var {n} a)" for n in "xyzuv")
        + f"(assume (not (not ({rel} x y))))(assume (not (not ({rel} u v))))"
        "(assume (p x z u))(assume (not (p y z v)))"
    )


def clique_text(k: int, *lines: str) -> str:
    """k pairwise distinct constants c0 .. c(k-1), then lines."""
    decls = ["(sort a)"] + [f"(var c{i} a)" for i in range(k)]
    decls += [f"(assume (neq c{i} c{j}))" for i in range(k) for j in range(i + 1, k)]
    return "".join(decls + list(lines))


def rel_text(k: int) -> str:
    return clique_text(
        k,
        "(var r (> a a o))",
        "(assume (forall (x a) (r x x)))",
        "(assume (not (r c0 c1)))",
    )


def fclique_text(k: int) -> str:
    return clique_text(k, "(var f (> a a))", "(assume (neq (f c0) c0))")


# ---------------------------------------------------------------------------
# The acceptance corpus, over one sort

a = sort("a")


def _random_lambda_free(g: Gen, n: int):
    forms = []
    while len(forms) < n:
        s = normalize(g.efo_formula(2, quasi=True))
        if lam_subterm(s) is None:
            forms.append(s)
    return tuple(forms)


def _hand_corpus():
    pa = Name("p", fun(a, o))
    qa = Name("q", fun(a, o))
    r2 = Name("r", fun(a, a, o))
    f_ao = Name("f", fun(a, o))
    f_aa = Name("f1", fun(a, a))
    g_aa = Name("g1", fun(a, a))
    h2 = Name("h", fun(a, a, a))
    x, y, z, c = (Name(n, a) for n in ("x", "y", "z", "c"))
    xb = Name("xb", a)
    yb = Name("yb", a)

    def fa(body_fn):
        return forall(lam(xb, body_fn(ref(xb))))

    def fa2(body_fn):
        return forall(lam(xb, forall(lam(yb, body_fn(ref(xb), ref(yb))))))

    lambda_free = [
        (app(ref(pa), ref(y)), neg(app(ref(pa), ref(y)))),
        (forall(ref(f_ao)), neg(app(ref(f_ao), ref(y)))),
        (diseq(ref(x), ref(y)),),
        (diseq(ref(x), ref(y)), diseq(ref(y), ref(z)), diseq(ref(x), ref(z))),
        (app(ref(pa), ref(x)), neg(app(ref(pa), ref(y)))),
        (
            imp(app(ref(pa), ref(x)), app(ref(qa), ref(x))),
            app(ref(pa), ref(x)),
            neg(app(ref(qa), ref(x))),
        ),
        (eq(ref(x), ref(y)), diseq(ref(x), ref(y))),
        (eq(ref(x), ref(y)), diseq(app(ref(f_aa), ref(x)), app(ref(f_aa), ref(y)))),
        (
            diseq(app(ref(h2), ref(x), ref(y)), app(ref(h2), ref(x), ref(z))),
            eq(ref(y), ref(z)),
        ),
    ]
    pure = [
        (diseq(ref(x), ref(y)),),
        (diseq(app(ref(f_aa), ref(x)), app(ref(f_aa), ref(x))),),
        (diseq(app(ref(h2), ref(x), ref(y)), app(ref(h2), ref(x), ref(y))),),
        # mismatched heads never decompose, so the two sides are the only
        # discriminating terms and the binary table stays enumerable
        (diseq(app(ref(h2), ref(x), ref(y)), ref(x)),),
        (
            diseq(ref(x), ref(y)),
            diseq(app(ref(f_aa), ref(x)), app(ref(g_aa), ref(y))),
        ),
        (diseq(app(ref(f_aa), app(ref(g_aa), ref(x))), ref(x)),),
    ]
    bsr = [
        (fa(lambda v: app(ref(pa), v)), fa(lambda v: neg(app(ref(pa), v)))),
        (
            fa(lambda v: imp(app(ref(pa), v), app(ref(qa), v))),
            app(ref(pa), ref(c)),
            neg(app(ref(qa), ref(c))),
        ),
        (fa2(lambda u, v: imp(app(ref(r2), u, v), app(ref(r2), v, u))),),
        (fa(lambda v: app(ref(r2), v, v)), neg(app(ref(r2), ref(c), ref(c)))),
        (fa(lambda v: neg(eq(v, ref(c)))),),
        (
            fa(lambda v: imp(app(ref(pa), v), neg(eq(v, ref(c))))),
            app(ref(pa), ref(c)),
        ),
    ]
    return lambda_free, pure, bsr


def acceptance_corpus():
    """The 60 problems of the acceptance gate, 20 in each decidable class:
    (class tag, formulas) pairs, the same on every call."""
    lambda_free, pure, bsr = _hand_corpus()
    g = Gen(61000, sorts=("a",))
    while len(lambda_free) < 20:
        forms = _random_lambda_free(g, g.rng.choice([1, 2, 2]))
        n_diseq = sum(
            1
            for t in forms
            if branch_of(*forms).info(t).kind is FormulaKind.SORT_DISEQ
        )
        if n_diseq <= 3:
            lambda_free.append(forms)
    g2 = Gen(63000, sorts=("a",))
    unary = [Name(f"u{i}", fun(a, a)) for i in range(3)]
    consts = [Name(f"e{i}", a) for i in range(3)]

    def small_term():
        # depth <= 1: a constant or one unary application of a constant
        if g2.rng.random() < 0.5:
            return ref(g2.rng.choice(consts))
        return app(ref(g2.rng.choice(unary)), ref(g2.rng.choice(consts)))

    def mismatched_pair():
        # top-level heads differ, so the pair never decomposes: one edge
        while True:
            l, r = small_term(), small_term()
            if spine(l)[0] != spine(r)[0]:
                return l, r

    def same_head_pair():
        # equal heads force one decomposition step; the argument pair is
        # mismatched so the chain stops there: two edges in total
        h = ref(g2.rng.choice(unary))
        l, r = mismatched_pair()
        return app(h, l), app(h, r)

    while len(pure) < 20:
        # conflict graphs are kept at <= 2 edges, so a saturated branch has
        # at most 4 discriminants and candidate function tables stay at 4**4
        roll = g2.rng.random()
        if roll < 0.35:  # syntactically equal sides: the refutable shape
            t = app(ref(g2.rng.choice(unary)), small_term())
            forms = (diseq(t, t),)
            if g2.rng.random() < 0.5:
                forms += (diseq(*mismatched_pair()),)
        elif roll < 0.7:
            forms = (diseq(*same_head_pair()),)
        else:
            forms = (diseq(*mismatched_pair()), diseq(*mismatched_pair()))
        pure.append(forms)
    g3 = Gen(67000, sorts=("a",))
    while len(bsr) < 20:
        forms = tuple(g3.bsr_formula() for _ in range(g3.rng.choice([1, 2])))
        if classify_branch(branch_of(*forms)).is_bsr:
            bsr.append(forms)
    return [
        ("lambda-free", forms) for forms in lambda_free[:20]
    ] + [("pure", forms) for forms in pure[:20]] + [
        ("bsr", forms) for forms in bsr[:20]
    ]
