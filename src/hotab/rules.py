"""Tableau rules: one table, read by search, proof parsing, checking and
evidence.  Every rule condition search relies on is stated here, once.

A rule instance names the rule, the branch members it consumes, an optional
instantiation term (the chosen instance of a functional equation or a
quantifier, or the variable a witness rule introduces), and the alternatives:
a tuple of formula tuples, one per successor branch.  An instance with no
alternatives is a leaf — it witnesses that the branch is closed.

`RULES` has one row per rule.  A row gives the formula kind of each premise,
any further shape condition on the premises, the builder of the
alternatives, the instantiation the rule takes (none, a term, or a fresh
witness variable), and the rule's priority in search.  Five consumers read
it:

  * `make_instance` validates premises against the row and builds the
    alternatives; proof files therefore carry no conclusions.  It uses
    neither cache below.
  * One lazy instance generator, `instances`, run with a row of the
    calculus table `CALCULI` (the rule set, the language test its gate and
    `route_calculus` read, and the source of instantiation terms of "efo"
    and "stt"), yields the instances the calculus admits on a branch in a
    deterministic order (rule priority first, then member insertion order),
    and skips instances that cannot make progress: an instance is withheld
    whenever one of its alternatives is already contained in the branch.
    Together with the admissibility restrictions below this makes "no
    instance applicable" coincide with the closure conditions that
    guarantee a model exists.  Its caller owns its two caches (see
    `instances`); `applicable_efo` and `applicable_stt` are the gate plus
    the full list, without them: the reference search is tested against.
  * `Agenda`, search's closing-first index, builds over the same memo and
    in the same search order the branching instances that a branch's
    newest members complete, and picks the first that closes at once in
    all alternatives but one.  It keeps the dead set `instances` skips,
    scoped to the path from the root, and shares `productive` with it.
  * `check_instance` validates a claimed instance against a branch: its
    premises are members, it equals what the row builds from them, and the
    branch-dependent admissibility conditions hold.  It is the trusted core
    behind proof checking, and rebuilds every instance from the table.
    `support` names the members an instance needs to keep passing it on a
    smaller branch, which search's backjumping relies on.
  * `is_evident` reads the table backwards: each member, and each pair of
    members, meets the model-existence condition of the row that takes
    premises of their kinds (some alternative is on the branch, or, for a
    witness rule, some variable's instance: `concluded`).

The restricted calculus (its language is checked by `quasi_efo_violation`
here) enforces, per branch A:

  * witness rules (functional disequations, negated quantifiers) only fire
    when no variable already witnesses them in A, and introduce a variable
    not free in A;
  * a quantifier at a sort with discriminating terms is instantiated only
    with those terms;
  * with no discriminating terms, a quantifier that already has some
    instance in A gets no further ones, and otherwise receives a single
    variable: the first free variable of the sort, or a fresh one if none
    is free.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .branch import Branch, FormulaInfo, FormulaKind, branch_of, classify
from .kernel import (
    IMP,
    NOT,
    App,
    Bound,
    Fun,
    Lam,
    Name,
    Ref,
    Term,
    Type,
    as_diseq,
    as_neg,
    diseq,
    eq,
    eq_const,
    eq_operand_type,
    forall_sort,
    free_vars,
    fresh_var,
    is_sort,
    is_var_ref,
    neg,
    o,
    ref,
    shift,
    show_term,
)
from .normalize import apply_norm, is_normal, normalize


class RuleId(Enum):
    DOUBLE_NEG = "double-neg"
    BOOL_EQ = "bool-eq"
    BOOL_EXT = "bool-ext"
    FUN_EQ = "fun-eq"
    FUN_EXT = "fun-ext"
    MATE = "mate"
    DECOMPOSE = "decompose"
    CONFRONT = "confront"
    IMP = "imp"
    IMP_NEG = "imp-neg"
    FORALL_INST = "forall-inst"
    FORALL_NEG = "forall-neg"
    CLOSE_COMPL = "close-compl"
    CLOSE_REFL = "close-refl"

    __hash__ = object.__hash__  # by identity, in C (Enum's hashes the name)


@dataclass(frozen=True)
class RuleInstance:
    """One admissible rule application.

    premises are branch members, in the rule's fixed order; alternatives
    hold the formulas each successor branch adds (empty tuple of
    alternatives = closing leaf); inst is the instantiation term, or the
    introduced variable for witness rules.
    """

    rule: RuleId
    premises: tuple[Term, ...]
    alternatives: tuple[tuple[Term, ...], ...]
    inst: Term | None = None

    def __repr__(self) -> str:
        parts = [self.rule.value]
        parts.append("premises=" + ", ".join(show_term(p) for p in self.premises))
        if self.inst is not None:
            parts.append("inst=" + show_term(self.inst))
        alts = " | ".join(
            "{" + ", ".join(show_term(f) for f in alt) + "}"
            for alt in self.alternatives
        )
        parts.append("alts=" + (alts or "(closed)"))
        return "RuleInstance(" + "; ".join(parts) + ")"

    @functools.cached_property
    def closers(self) -> tuple:
        """Per alternative, the formulas that close it at once (the
        `complements` of its own), or None if it is closed anyway."""
        return tuple(
            None if any(map(is_reflexive, alt)) else sum(map(complements, alt), ())
            for alt in self.alternatives
        )


# ---------------------------------------------------------------------------
# Instance detection by template matching.
#
# Several admissibility conditions ask whether the branch already contains
# an instance of a rule's conclusion: "is there a term u with [s u] in A?",
# "is there a variable x with [s x] != [t x] in A?".  We answer by building
# the conclusion once, with a reserved hole variable in the instance
# position, and matching branch members against it.  Substituting a
# variable for the hole never creates a new redex, and substituting a
# sort-typed term never does either (sort-typed terms cannot be applied), so
# in every case the calculus needs, syntactic matching against the
# normalized schema decides the question exactly.

_HOLE_IDENT = "•"  # not producible by the grammar or fresh_var


def match_schema(
    schema: Term, w: Term, hole: Name
) -> tuple[bool, Term | None]:
    """Match w against schema, solving for the hole.

    Returns (True, u) when schema[hole := u] == w for the unique filler u;
    (True, None) when schema == w and the hole does not occur (any filler
    works); (False, None) otherwise.  Fillers must be closed with respect
    to w's binders — a would-be filler mentioning a bound variable of w is
    not a term in the branch's scope, so such positions reject.
    """
    found: list[Term] = []

    def go(a: Term, b: Term) -> bool:
        if type(a) is Ref and a.name == hole:
            # b is locally closed (no dangling index) exactly when shifting
            # its dangling indices leaves it the same object
            if b.ty != hole.ty or shift(b, 1) is not b:
                return False
            if found:
                return found[0] == b
            found.append(b)
            return True
        if type(a) is not type(b):
            return False
        if type(a) is App:
            return go(a.fun, b.fun) and go(a.arg, b.arg)
        if type(a) is Lam:
            return a.dom == b.dom and go(a.body, b.body)
        return a == b

    if go(schema, w):
        return True, (found[0] if found else None)
    return False, None


def inst_type(info: FormulaInfo) -> Type:
    """The type a rule instantiates a quantifier or functional premise at."""
    return info.sort if info.sort is not None else info.ty.dom


def concluded(branch: Branch, rule: RuleId, info: FormulaInfo) -> bool:
    """Is the rule's conclusion from this premise already on the branch?

    For a witness rule the instance must be a variable; for an
    instantiation rule any term (or none, if the conclusion ignores it)
    counts.
    """
    hole = Name(_HOLE_IDENT, inst_type(info))
    ((schema,),) = RULES[rule].alts(info, ref(hole))
    var_only = RULES[rule].inst == "fresh"
    for w in branch.formulas:
        ok, filler = match_schema(schema, w, hole)
        if ok and (not var_only or filler is None or is_var_ref(filler)):
            return True
    return False


# ---------------------------------------------------------------------------
# Bounded enumeration of normal terms over a branch signature.
#
# Instances of functional equations range over all normal terms, so the
# unrestricted calculus needs a fair enumeration.  Terms are generated
# small-to-large, where the size of a term counts its leaves plus its
# abstractions.  Heads are branch variables (partial application allowed),
# bound variables, and the logical constants at full arity.  For each
# instance type the branch's discriminating terms at that type come first.


def _compositions(total: int, k: int):
    """Ordered k-tuples of positive ints summing to total, lexicographic."""
    if k == 0:
        if total == 0:
            yield ()
        return
    if k == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def _arg_chains(head_ty: Type, target: Type):
    """Argument-type tuples that take a head of head_ty to target."""
    args: list[Type] = []
    ty = head_ty
    while True:
        if ty == target:
            yield tuple(args)
        if type(ty) is Fun:
            args.append(ty.dom)
            ty = ty.cod
        else:
            return


class TermEnumerator:
    """Deterministic size-ordered enumeration of normal terms.

    The signature is a tuple of variables plus the operand types at which
    equality may be used; negation is always available.  Logical constants
    are only generated fully applied.
    """

    def __init__(self, variables: tuple[Name, ...], eq_types: tuple[Type, ...]):
        self.variables = variables
        self.eq_types = eq_types
        self._memo: dict[tuple, tuple[Term, ...]] = {}

    def terms(self, ty: Type, max_size: int):
        for size in range(1, max_size + 1):
            yield from self._pool(ty, size, ())

    def _pool(self, ty: Type, size: int, ctx: tuple[Type, ...]) -> tuple[Term, ...]:
        key = (ty, size, ctx)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        out: list[Term] = []
        # Heads: innermost bound variables first, then signature variables.
        heads: list[Term] = [
            Bound(i, ctx[len(ctx) - 1 - i]) for i in range(len(ctx))
        ]
        heads.extend(ref(n) for n in self.variables)
        for head in heads:
            for chain in _arg_chains(head.ty, ty):
                self._spines(head, chain, size, ctx, out)
        if ty == o:
            self._spines(ref(NOT), (o,), size, ctx, out)
            for ety in self.eq_types:
                self._spines(ref(eq_const(ety)), (ety, ety), size, ctx, out)
        if type(ty) is Fun:
            for body in self._pool(ty.cod, size - 1, ctx + (ty.dom,)):
                out.append(Lam(ty.dom, body))
        result = tuple(out)
        self._memo[key] = result
        return result

    def _spines(self, head, chain, size, ctx, out) -> None:
        budget = size - 1
        k = len(chain)
        if k == 0:
            if budget == 0:
                out.append(head)
            return
        if budget < k:
            return
        for split in _compositions(budget, k):
            for args in itertools.product(
                *(self._pool(aty, asize, ctx) for aty, asize in zip(chain, split))
            ):
                t = head
                for a in args:
                    t = App(t, a)
                out.append(t)


def branch_signature(branch: Branch) -> tuple[tuple[Name, ...], tuple[Type, ...]]:
    """Free variables (first occurrence order) and equality operand types."""
    eq_tys: dict[Type, None] = {}
    for kind in (
        FormulaKind.BOOL_EQ,
        FormulaKind.BOOL_DISEQ,
        FormulaKind.FUN_EQ,
        FormulaKind.FUN_DISEQ,
        FormulaKind.SORT_EQ,
        FormulaKind.SORT_DISEQ,
    ):
        for s in branch.members(kind):
            eq_tys.setdefault(branch.info(s).ty)
    return branch.free_names, tuple(eq_tys)


def instantiation_candidates(branch: Branch, ty: Type, fuel: int):
    """Candidate instances at a type: discriminating sides, then enumerated
    normal terms of size up to fuel, deduplicated, deterministic."""
    discs = branch.discriminating_terms(ty)
    yield from discs
    seen = set(discs)
    variables, eq_tys = branch_signature(branch)
    for u in TermEnumerator(variables, eq_tys).terms(ty, fuel):
        if u not in seen:
            seen.add(u)
            yield u


# ---------------------------------------------------------------------------
# Alternative builders: premise infos (and instantiation term) to alternatives


def _alts_double_neg(info) -> tuple:
    return ((info.lhs,),)


def _alts_bool_eq(info) -> tuple:
    return ((info.lhs, info.rhs), (neg(info.lhs), neg(info.rhs)))


def _alts_bool_ext(info) -> tuple:
    return ((info.lhs, neg(info.rhs)), (neg(info.lhs), info.rhs))


def _alts_fun_eq(info, u: Term) -> tuple:
    return ((eq(apply_norm(info.lhs, u), apply_norm(info.rhs, u)),),)


def _alts_fun_ext(info, x: Term) -> tuple:
    return ((diseq(apply_norm(info.lhs, x), apply_norm(info.rhs, x)),),)


def _sides_mate(pos_info, neg_info) -> tuple:
    if len(pos_info.args) != len(neg_info.args):
        raise AssertionError("same-head atoms must share arity")
    return tuple(((s, t),) for s, t in zip(pos_info.args, neg_info.args))


def _sides_decompose(info) -> tuple:
    return tuple(((s, t),) for s, t in zip(info.largs, info.rargs))


def _sides_confront(eq_info, dq_info) -> tuple:
    s, t = eq_info.lhs, eq_info.rhs
    u, v = dq_info.lhs, dq_info.rhs
    return (((s, u), (t, u)), ((s, v), (t, v)))


def _diseqs(sides):
    """The alternatives that add the disequations between the side pairs."""
    return lambda *infos: tuple(
        tuple(diseq(x, y) for x, y in alt) for alt in sides(*infos)
    )


def _alts_imp(info) -> tuple:
    return ((neg(info.lhs),), (info.rhs,))


def _alts_imp_neg(info) -> tuple:
    return ((info.lhs, neg(info.rhs)),)


def _alts_forall_inst(info, u: Term) -> tuple:
    return ((apply_norm(info.pred, u),),)


def _alts_forall_neg(info, x: Term) -> tuple:
    return ((neg(apply_norm(info.pred, x)),),)


def _alts_leaf(*infos) -> tuple:
    return ()


def _reflexive(premises, infos) -> bool:
    return is_reflexive(premises[0])


# ---------------------------------------------------------------------------
# The rule table


@dataclass(frozen=True)
class Rule:
    """One row of the rule table.

    kinds: the formula kind of each premise, in premise order (None: any
    formula).  alts: builds the alternatives from the premises' infos, plus
    the instantiation term when the rule takes one.  shape: a further
    condition on (premises, infos), or None.  inst: None, "term" (an
    instance drawn from the branch's terms) or "fresh" (a witness variable
    not free on the branch).  priority: the group search applies the rule
    in, lower first; None for the eager leaf rules, which search never
    lists.  sides: the side pairs of the disequations alts adds, if that
    is all it adds.
    """

    kinds: tuple[FormulaKind | None, ...]
    alts: Callable[..., tuple]
    shape: Callable[[tuple, tuple], bool] | None = None
    inst: str | None = None
    priority: int | None = None
    sides: Callable[..., tuple] | None = None


_K = FormulaKind

#: The rules of both calculi.  Within a priority group, instances follow the
#: insertion order of their (last) premise.
RULES: dict[RuleId, Rule] = {
    RuleId.DOUBLE_NEG: Rule((_K.DOUBLE_NEG,), _alts_double_neg, priority=0),
    RuleId.BOOL_EQ: Rule((_K.BOOL_EQ,), _alts_bool_eq, priority=5),
    RuleId.BOOL_EXT: Rule((_K.BOOL_DISEQ,), _alts_bool_ext, priority=6),
    RuleId.FUN_EQ: Rule((_K.FUN_EQ,), _alts_fun_eq, inst="term", priority=4),
    RuleId.FUN_EXT: Rule((_K.FUN_DISEQ,), _alts_fun_ext, inst="fresh", priority=2),
    RuleId.MATE: Rule(
        (_K.POS_ATOM, _K.NEG_ATOM),
        _diseqs(_sides_mate),
        shape=lambda ps, infos: infos[0].head == infos[1].head,
        priority=8,
        sides=_sides_mate,
    ),
    RuleId.DECOMPOSE: Rule(
        (_K.SORT_DISEQ,),
        _diseqs(_sides_decompose),
        shape=lambda ps, infos: infos[0].decomposable,
        priority=9,
        sides=_sides_decompose,
    ),
    RuleId.CONFRONT: Rule(
        (_K.SORT_EQ, _K.SORT_DISEQ),
        _diseqs(_sides_confront),
        shape=lambda ps, infos: infos[0].ty == infos[1].ty,
        priority=10,
        sides=_sides_confront,
    ),
    RuleId.IMP: Rule((_K.IMP,), _alts_imp, priority=7),
    RuleId.IMP_NEG: Rule((_K.NEG_IMP,), _alts_imp_neg, priority=1),
    RuleId.FORALL_INST: Rule(
        (_K.FORALL,), _alts_forall_inst, inst="term", priority=4
    ),
    RuleId.FORALL_NEG: Rule(
        (_K.NEG_FORALL,), _alts_forall_neg, inst="fresh", priority=3
    ),
    RuleId.CLOSE_COMPL: Rule(
        (None, None), _alts_leaf, shape=lambda ps, infos: ps[1] == neg(ps[0])
    ),
    RuleId.CLOSE_REFL: Rule((None,), _alts_leaf, shape=_reflexive),
}

#: Rules of the unrestricted calculus (negation and equality language).
STT_RULES = frozenset(
    {
        RuleId.DOUBLE_NEG,
        RuleId.BOOL_EQ,
        RuleId.BOOL_EXT,
        RuleId.FUN_EQ,
        RuleId.FUN_EXT,
        RuleId.MATE,
        RuleId.DECOMPOSE,
        RuleId.CONFRONT,
    }
)

#: Rules of the restricted calculus (implication and quantifier language).
EFO_RULES = frozenset(
    {
        RuleId.DOUBLE_NEG,
        RuleId.BOOL_EXT,
        RuleId.IMP,
        RuleId.IMP_NEG,
        RuleId.MATE,
        RuleId.DECOMPOSE,
        RuleId.CONFRONT,
        RuleId.FUN_EXT,
        RuleId.FORALL_INST,
        RuleId.FORALL_NEG,
    }
)

#: Rules whose instances can branch; they come after every other rule.
BRANCHING_RULES = frozenset(
    map(RuleId, ("bool-eq", "bool-ext", "imp", "mate", "decompose", "confront"))
)

#: Leaf rules available only in eager-closing mode (plus n = 0 mate and
#: decompose instances, which both calculi already provide).
EAGER_RULES = frozenset({RuleId.CLOSE_COMPL, RuleId.CLOSE_REFL})


def _premise_kinds(rules) -> frozenset[FormulaKind]:
    return frozenset(k for r in rules for k in RULES[r].kinds)


#: Formula kinds that only the restricted calculus has rules for.
EFO_ONLY_KINDS = _premise_kinds(EFO_RULES) - _premise_kinds(STT_RULES)


def _instance(rule, premises, infos, inst) -> RuleInstance:
    """The instance the rule's row builds from premises with these infos."""
    row = RULES.get(rule)
    if row is None:
        raise ValueError(f"unknown rule {rule!r}")
    if not (
        len(premises) == len(row.kinds)
        and (inst is None) == (row.inst is None)
        and all(k is None or i.kind is k for k, i in zip(row.kinds, infos))
        and (row.shape is None or row.shape(premises, infos))
    ):
        shown = ", ".join(show_term(p) for p in premises)
        raise ValueError(f"{rule.value}: premises have the wrong shape: {shown}")
    if inst is None:
        return RuleInstance(rule, premises, row.alts(*infos))
    return RuleInstance(rule, premises, row.alts(*infos, inst), inst)


def make_instance(
    rule: RuleId, premises: tuple[Term, ...], inst: Term | None = None
) -> RuleInstance:
    """Reconstruct a rule instance from the data that determines it.

    Alternatives are a function of the rule, its premises, and the
    instantiation term, so external representations (proof files) need not
    carry conclusions.  Raises ValueError when the premises do not have the
    shape the rule consumes.  Branch-dependent admissibility is not
    examined here; check_instance enforces it during replay.
    """
    premises = tuple(premises)
    return _instance(rule, premises, tuple(classify(p) for p in premises), inst)


# ---------------------------------------------------------------------------
# The restricted language.  Each check returns the first offending subterm,
# or None when the term is inside, so reports carry witnesses.


class FragmentViolation(Exception):
    """Input lies outside the fragment a caller committed to."""


def efo_violation(t: Term) -> Term | None:
    """First subterm using a constant outside the restricted signature.

    Allowed: negation, implication, equality at sorts, quantifiers at sorts.
    Variables of any type and abstractions are fine.
    """
    if type(t) is Ref:
        n = t.name
        if n.is_var or n == NOT or n == IMP:
            return None
        ty = eq_operand_type(n) or forall_sort(n)
        return None if ty is not None and is_sort(ty) else t
    if type(t) is App:
        return efo_violation(t.fun) or efo_violation(t.arg)
    if type(t) is Lam:
        return efo_violation(t.body)
    return None


def quasi_efo_violation(t: Term) -> Term | None:
    """Restricted formula, or a disequation (at any type) between such terms."""
    w = efo_violation(t)
    d = None if w is None else as_diseq(t)
    return w if d is None else efo_violation(d[1]) or efo_violation(d[2])


# ---------------------------------------------------------------------------
# Applicability


def _outside_efo(branch: Branch, s: Term) -> str | None:
    """Why the restricted calculus cannot take member s: it is outside the
    fragment.  None when it is inside."""
    w = quasi_efo_violation(s)
    if w is None:
        return None
    return (
        f"{show_term(s)} is outside the restricted fragment "
        f"(offending subterm {show_term(w)})"
    )


def _outside_stt(branch: Branch, s: Term) -> str | None:
    """Why the unrestricted calculus cannot take member s: it is an
    implication or a quantifier.  None when it is neither."""
    if branch.info(s).kind not in EFO_ONLY_KINDS:
        return None
    return (
        f"no rule for {show_term(s)}: implication and quantifiers "
        "are outside this calculus — use the restricted calculus"
    )


@functools.cache
def _groups(rules: frozenset[RuleId]) -> tuple[dict, ...]:
    """The rules' priority groups, lowest priority first.  A group maps each
    member kind it takes to the (rule, name, row, premise position) tuples
    that take it, in table order."""
    groups: dict[int, dict[FormulaKind, list]] = {}
    for rule, row in RULES.items():
        if rule in rules:
            uses = groups.setdefault(row.priority, {})
            for at, kind in enumerate(row.kinds):
                uses.setdefault(kind, []).append((rule, rule.value, row, at))
    return tuple(
        {kind: tuple(t) for kind, t in groups[p].items()} for p in sorted(groups)
    )


def instances(
    calculus: Calculus,
    branch: Branch,
    fuel: int = 3,
    reserved: tuple[Name, ...] = (),
    memo: dict | None = None,
    dead: dict | None = None,
) -> Iterator[RuleInstance]:
    """The calculus's instances on the branch, lazily, in search order, and
    without its gate: members no rule takes are passed over.

    The order is rule priority, then the insertion order of the (last)
    premise, then the order of the other premise, the witness or the
    candidate term; the calculus's candidates list the instantiation terms
    of a "term" rule, enumerated up to fuel where they range over all
    terms.  Witness rules avoid the reserved names.  An instance helps only
    if every alternative adds something new; the others are skipped.

    Every rule but the fresh-witness ones builds its instance from the
    rule, premises and term alone, so memo keeps it under the key (rule
    name, premises[, term]) (see `memo_instance`).  An instance found
    unproductive stays so on every extension of the branch, so its key
    goes into dead (an insertion-ordered dict), and the generator skips the
    keys there.  The caller owns both: search passes an `Agenda`'s, which
    scopes dead to the path from the root, and leaving them out makes the
    walk cache-free.
    """
    if branch.is_closed:
        return
    memo = {} if memo is None else memo
    dead = {} if dead is None else dead
    for uses in _groups(calculus.rules):
        if len(uses) == 1:
            members = branch.members(next(iter(uses)))
        else:
            members = [s for s in branch.formulas if branch.info(s).kind in uses]
        earlier: dict[FormulaKind, list[Term]] = {kind: [] for kind in uses}
        for s in members:
            info = branch.info(s)
            for rule, name, row, at in uses[info.kind]:
                if row.inst == "fresh":
                    if not concluded(branch, rule, info):
                        x = _fresh_witness(branch, inst_type(info), reserved)
                        alts = row.alts(info, x)
                        if productive(branch, alts):
                            yield RuleInstance(rule, (s,), alts, x)
                    continue
                if row.inst == "term":
                    keys = (
                        (name, (s,), u)
                        for u in calculus.candidates(branch, info, fuel, reserved)
                    )
                elif len(row.kinds) == 2:
                    # pair s with the earlier members that fill the other premise
                    keys = (
                        (name, (s, other) if at == 0 else (other, s))
                        for other in earlier[row.kinds[1 - at]]
                    )
                else:
                    keys = ((name, (s,)),)
                for key in keys:
                    if key in dead:
                        continue
                    r = memo.get(key) or memo_instance(memo, branch, row, key)
                    if r is _REJECTED:
                        continue
                    if productive(branch, r.alternatives):
                        yield r
                    else:
                        dead[key] = None
            earlier[info.kind].append(s)


def productive(branch: Branch, alternatives) -> bool:
    """Does every alternative add something the branch lacks?"""
    return all(any(f not in branch for f in alt) for alt in alternatives)


#: The memo entry of premises that a row's shape rejects.
_REJECTED = object()


def memo_instance(memo: dict, branch: Branch, row: Rule, key: tuple):
    """The instance a memo key (name, premises[, term]) of the row's rule
    names, built into memo once; _REJECTED where the shape rejects it."""
    if key not in memo:
        name, premises, *inst = key
        infos = tuple(map(branch.info, premises))
        if row.shape is not None and not row.shape(premises, infos):
            memo[key] = _REJECTED
        else:
            alts = row.alts(*infos, *inst)
            memo[key] = RuleInstance(RuleId(name), premises, alts, *inst)
    return memo[key]


def _fresh_witness(branch: Branch, ty: Type, reserved: tuple[Name, ...]) -> Term:
    return ref(fresh_var(ty, branch.free_names + tuple(reserved)))


def _forall_instances(branch: Branch, info, reserved) -> list[Term]:
    """Admissible quantifier instances under the restrictions.

    With discriminating terms at the sort: exactly those terms.  Without:
    nothing if some instance is already present; otherwise a single
    variable — the first free one of the sort, or a fresh one.
    """
    discs = branch.discriminating_terms(info.sort)
    if discs:
        return list(discs)
    if concluded(branch, RuleId.FORALL_INST, info):
        return []
    xs = branch.vars_of_type(info.sort)
    if xs:
        return [ref(xs[0])]
    return [_fresh_witness(branch, info.sort, reserved)]


@dataclass(frozen=True)
class Calculus:
    """One row of the calculus table: a rule set over the shared engine.

    rules: the rules search applies.  outside(branch, s): the calculus's
    language test, the reason member s is outside it, or None.
    candidates(branch, info, fuel, reserved): the instantiation terms of a
    "term" rule's premise with this info, in search order.
    """

    name: str
    rules: frozenset[RuleId]
    outside: Callable[[Branch, Term], str | None]
    candidates: Callable[..., object]

    def gate(self, branch: Branch, members) -> None:
        """Raise FragmentViolation for the first of the branch's members the
        calculus cannot take: one outside its language, or, on an open
        branch, one no rule consumes."""
        for s in members:
            reason = self.outside(branch, s)
            if reason is not None:
                raise FragmentViolation(reason)
        if not branch.is_closed:
            for s in members:
                if branch.info(s).kind is FormulaKind.OTHER:
                    raise FragmentViolation(f"no rule for {show_term(s)}")


#: The two calculi, in the order `route_calculus` tries them.  The
#: restricted one instantiates quantifiers under its restrictions,
#: independently of fuel; the unrestricted one enumerates instances of
#: functional equations up to the fuel.
CALCULI: dict[str, Calculus] = {
    "efo": Calculus(
        "efo",
        EFO_RULES,
        _outside_efo,
        lambda b, info, fuel, reserved: _forall_instances(b, info, reserved),
    ),
    "stt": Calculus(
        "stt",
        STT_RULES,
        _outside_stt,
        lambda b, info, fuel, reserved: instantiation_candidates(
            b, inst_type(info), fuel
        ),
    ),
}


def calculus_named(name: str) -> Calculus:
    """The named row of the calculus table; ValueError for any other name."""
    row = CALCULI.get(name)
    if row is None:
        raise ValueError(f"unknown calculus {name!r}")
    return row


def route_calculus(branch: Branch) -> str:
    """Pick the calculus for a branch by its language: the first row whose
    language takes every member.

    Branches of restricted formulas (and disequations between restricted
    terms) go to the restricted calculus; branches in the pure negation and
    equality language go to the unrestricted one.  A branch mixing the two
    extensions fits neither and raises FragmentViolation.
    """
    for row in CALCULI.values():
        offender = next((s for s in branch.formulas if row.outside(branch, s)), None)
        if offender is None:
            return row.name
    raise FragmentViolation(
        f"mixed input: {show_term(offender)} needs the restricted calculus, "
        "but other members use equality outside its fragment"
    )


def as_branch(obj) -> Branch:
    """A branch as given, or the branch of the normalized formulas."""
    if isinstance(obj, Branch):
        return obj
    return branch_of(*(normalize(s) for s in obj))


def applicable_stt(
    branch: Branch, fuel: int = 3, reserved: tuple[Name, ...] = ()
) -> list[RuleInstance]:
    """Instances the unrestricted calculus admits on the branch.

    fuel bounds the size of enumerated instances of functional equations;
    reserved names are avoided when introducing witness variables.  On a
    closed branch nothing is applicable.  Raises FragmentViolation for
    members outside the negation-and-equality language.  Search reads the
    same instances lazily (`instances`).
    """
    CALCULI["stt"].gate(branch, branch.formulas)
    return list(instances(CALCULI["stt"], branch, fuel, reserved))


def applicable_efo(
    branch: Branch, reserved: tuple[Name, ...] = ()
) -> list[RuleInstance]:
    """Instances the restricted calculus admits on the branch.

    The branch must consist of restricted formulas or disequations between
    restricted terms; anything else raises FragmentViolation.  On a closed
    branch nothing is applicable.  The result is empty exactly when the
    branch is closed or satisfies the model-existence conditions.  Search
    reads the same instances lazily (`instances`).
    """
    CALCULI["efo"].gate(branch, branch.formulas)
    return list(instances(CALCULI["efo"], branch, reserved=reserved))


def _forall_admissible(branch: Branch, info, u: Term) -> bool:
    """Whether u is a quantifier instance the restrictions allow.

    As `_forall_instances`, except that without discriminating terms any
    free variable of the sort (or, if there is none, any variable not free
    on the branch) will do.
    """
    if efo_violation(u) is not None:
        return False
    discs = branch.discriminating_terms(info.sort)
    if discs:
        return u in discs
    if concluded(branch, RuleId.FORALL_INST, info) or not is_var_ref(u):
        return False
    xs = branch.vars_of_type(info.sort)
    return u.name in xs if xs else u.name not in branch.free_names


def support(branch: Branch, r: RuleInstance) -> tuple[Term, ...]:
    """The members of branch that instance r needs to pass `check_instance`
    on a smaller branch: its premises, and for `forall-inst` one member that
    keeps its term admissible (`_forall_admissible`).  A discriminating term
    needs a disequation at the sort with it as a side; otherwise a term that
    is a free variable of the branch needs a member it is free in.  (A
    variable not free on the branch stays so on a smaller one, and
    witnesses, "not concluded" and openness all survive shrinking the
    branch.)  Search's backjumping rests on this set."""
    if r.rule is not RuleId.FORALL_INST:
        return r.premises
    u = r.inst
    for d in branch.disequations(u.ty):
        info = branch.info(d)
        if u == info.lhs or u == info.rhs:
            return r.premises + (d,)
    if is_var_ref(u) and u.name in branch.free_names:
        s = next(s for s in branch.formulas if u.name in free_vars(s))
        return r.premises + (s,)
    return r.premises


# ---------------------------------------------------------------------------
# Closing at once: a formula whose complement is on the branch, or a
# reflexive disequation.  Eager closing, the closers of an instance and the
# side pairs the agenda indexes all read these two.


def complements(s: Term) -> tuple[Term, ...]:
    """The formulas that close a branch with s at once, either way round:
    the body of s when s is a negation, then the negation of s."""
    w = as_neg(s)
    return (neg(s),) if w is None else (w, neg(s))


def is_reflexive(s: Term) -> bool:
    """Is s a disequation between identical sides?"""
    d = as_diseq(s)
    return d is not None and d[1] == d[2]


def side_pairs(s: Term) -> tuple[Term, Term] | None:
    """The sides (x, y) of the disequation among the `complements` of s (s
    is x = y or not not (x = y)): the side pair s closes at once."""
    return next((d[1:] for d in map(as_diseq, complements(s)) if d), None)


def closing_instance(
    branch: Branch, eager: bool = False, added: tuple[Term, ...] | None = None
) -> RuleInstance | None:
    """The leaf instance witnessing that the branch is closed, if any.

    Closure proper: a variable with its negation, or a reflexive
    disequation between identical variables at a sort — witnessed by a
    zero-alternative mate or decompose instance.  With eager=True the wider
    conditions are also reported, as dedicated leaf rules, for the first
    member of added (by default every member), in insertion order, that has
    a complement before it or is reflexive.  Search passes a node's new
    members, as the others closed nothing at its parent.
    """
    w = branch.closing_witness
    if w is not None:
        if w[0] == "compl":
            return RuleInstance(RuleId.MATE, (w[1], w[2]), ())
        return RuleInstance(RuleId.DECOMPOSE, (w[1],), ())
    if eager:
        added = branch.formulas if added is None else added
        later = set(added)
        for s in added:
            later.discard(s)
            for c in complements(s):
                if c in branch and c not in later:
                    pair = (c, s) if as_neg(s) == c else (s, c)
                    return RuleInstance(RuleId.CLOSE_COMPL, pair, ())
            if is_reflexive(s):
                return RuleInstance(RuleId.CLOSE_REFL, (s,), ())
    return None


# ---------------------------------------------------------------------------
# Closing-first selection


class Agenda:
    """What one saturation found on the path from the root, for search to
    apply first a branching instance whose alternatives all close at once
    but one at most.  `undo` cuts it back to the `mark` of a node whose
    frame is popped.

    dead: the keys of unproductive instances, which `instances` skips.
    closing: (search order, memo key, row, closers) entries with one open
    alternative at most (a closed one stays so).  waiting: per closer, the
    entries that had two open or more.  present: per side pair (x, y), the
    members that close x != y at once (`side_pairs`).
    """

    def __init__(self, calculus: Calculus, memo: dict):
        self.groups = _groups(calculus.rules & BRANCHING_RULES)
        self.memo = memo
        self.dead: dict = {}  # insertion-ordered, so popitem drops the newest
        self.closing: dict = {}  # likewise
        self.waiting: dict = {}
        self.present: dict = {}
        self.log: list = []  # the lists of the last two, as extended

    def mark(self) -> tuple[int, int, int]:
        return len(self.dead), len(self.closing), len(self.log)

    def undo(self, mark: tuple[int, int, int]) -> None:
        while len(self.dead) > mark[0]:
            self.dead.popitem()
        while len(self.closing) > mark[1]:
            self.closing.popitem()
        while len(self.log) > mark[2]:
            self.log.pop().pop()

    def _push(self, index: dict, key, value) -> None:
        self.log.append(index.setdefault(key, []))
        self.log[-1].append(value)

    def add(self, branch: Branch, added: tuple[Term, ...]) -> None:
        """Index what added, the branch's newest members, complete, close or
        are.  An instance is completed by its last premise; a pair rule pairs
        it with each earlier member of the other premise's kind.  Its search
        order is that of `instances`: priority, position of the last premise,
        rank of the other among the members of its kind.  A rule with sides
        is not built: its closers are its side pairs (x, y), each closing at
        once where x == y or a member closes x != y.  The others give the
        `closers` of the instance built over the memo."""
        joined = list(added)
        for s in added:
            closes = side_pairs(s)
            if closes:
                self._push(self.present, closes, s)
                joined.append(closes)
        later = set(added)
        for i, s in enumerate(added, len(branch) - len(added)):
            later.discard(s)
            info = branch.info(s)
            for uses in self.groups:
                for _, name, row, at in uses.get(info.kind, ()):
                    keys = [((row.priority, i, 0), (name, (s,)))]
                    if len(row.kinds) == 2:
                        others = enumerate(branch.members(row.kinds[1 - at]))
                        keys = [
                            ((row.priority, i, j), (name, (p, s) if at else (s, p)))
                            for j, p in others
                            if p not in later
                        ]
                    for order, key in keys:
                        if row.sides is None:
                            r = memo_instance(self.memo, branch, row, key)
                            closers = () if r is _REJECTED else r.closers
                        else:
                            infos = tuple(map(branch.info, key[1]))
                            ok = row.shape is None or row.shape(key[1], infos)
                            closers = row.sides(*infos) if ok else ()
                        if len(closers) >= 2:
                            self._test(branch, (order, key, row, closers), True)
        for c in joined:
            for entry in self.waiting.get(c, ()):
                self._test(branch, entry, False)

    def _test(self, branch: Branch, entry: tuple, new: bool) -> None:
        if entry[2].sides is None:
            shut = [cl is None or any(c in branch for c in cl) for cl in entry[3]]
        else:
            get = self.present.get
            shut = [any(x == y or get((x, y)) for x, y in alt) for alt in entry[3]]
        if shut.count(False) <= 1:
            self.closing.setdefault(entry[1], entry)
        elif new:
            for alt, done in zip(entry[3], shut):
                for c in () if done else alt:
                    self._push(self.waiting, c, entry)

    def pick(self, branch: Branch) -> RuleInstance | None:
        """The first closing instance in search order that is productive."""
        for _, key, row, _ in sorted(self.closing.values()):
            if key in self.dead:
                continue
            r = memo_instance(self.memo, branch, row, key)
            if productive(branch, r.alternatives):
                return r
            self.dead[key] = None
        return None


# ---------------------------------------------------------------------------
# Instance checking


def check_instance(branch: Branch, inst: RuleInstance, eager: bool = False) -> bool:
    """Validate a claimed rule instance against a branch.

    The premises must be members, the instance must equal what the rule's
    row builds from them, and the branch-dependent conditions must hold:
    the admissibility restrictions, and that branching instances only fire
    on non-closed branches.  The eager flag admits the two wider leaf
    rules.
    """
    try:
        return _check(branch, inst, eager)
    except (TypeError, ValueError, AttributeError):
        return False


def _check(branch: Branch, r: RuleInstance, eager: bool) -> bool:
    if any(p not in branch for p in r.premises):
        return False
    if r.alternatives and branch.is_closed:
        return False
    infos = tuple(branch.info(p) for p in r.premises)
    if r != _instance(r.rule, r.premises, infos, r.inst):
        return False
    if r.rule in EAGER_RULES:
        return eager
    taken = RULES[r.rule].inst
    if taken is None:
        return True
    info, u = infos[0], r.inst
    if u.ty != inst_type(info):
        return False
    if taken == "fresh":
        return (
            is_var_ref(u)
            and u.name not in branch.free_names
            and not concluded(branch, r.rule, info)
        )
    if not is_normal(u):
        return False
    return r.rule is not RuleId.FORALL_INST or _forall_admissible(branch, info, u)


# ---------------------------------------------------------------------------
# Evidence: the rule table read backwards


@dataclass(frozen=True)
class Violation:
    """One unmet model-existence condition."""

    condition: str
    members: tuple[Term, ...]
    detail: str


@dataclass(frozen=True)
class EvidenceReport:
    """Outcome of the member-by-member model-existence check.

    bounded is True when conditions ranging over all terms (instances of
    functional equations) were only checked up to the fuel bound, so
    `evident` is then an "up to this bound" statement.
    """

    evident: bool
    scope: str
    bounded: bool
    fuel: int | None
    violations: tuple[Violation, ...]

    def describe(self) -> str:
        head = "evident" if self.evident else "not evident"
        qual = " (bounded check)" if self.bounded else ""
        lines = [f"{head} [{self.scope}]{qual}"]
        for v in self.violations:
            on = ", ".join(show_term(m) for m in v.members)
            lines.append(f"  {v.condition}: {v.detail} (on {on})")
        return "\n".join(lines)


#: Per rule that search applies, the detail of a violation of its condition.
_VIOLATED = {
    RuleId.DOUBLE_NEG: "body is missing",
    RuleId.BOOL_EQ: "sides are not jointly settled",
    RuleId.BOOL_EXT: "sides are not settled opposite",
    RuleId.FUN_EQ: "instance {} is missing",
    RuleId.FUN_EXT: "no variable witnesses the sides apart",
    RuleId.IMP: "neither side is settled",
    RuleId.IMP_NEG: "components are missing",
    RuleId.FORALL_INST: "discriminating term {} is not instantiated",
    RuleId.FORALL_NEG: "no variable witnesses the negation",
    RuleId.DECOMPOSE: "no argument disequation supports the disequation",
    RuleId.MATE: "no argument disequation separates the pair",
    RuleId.CONFRONT: "equation is not confronted with the disequation",
}

#: The rule that search applies to premises of these kinds, in table order.
_RULE_OF = {row.kinds: rule for rule, row in RULES.items() if rule in _VIOLATED}


def _concluded_on(branch: Branch, rule: RuleId, premises, inst=()) -> bool:
    """Whether the branch holds the rule's conclusion from these premises
    (and instantiation term): vacuously where the row's shape rejects them;
    for a witness rule, some variable's instance (`concluded`); otherwise
    all of some alternative of the instance the row builds."""
    row = RULES[rule]
    infos = tuple(map(branch.info, premises))
    if row.shape is not None and not row.shape(premises, infos):
        return True
    if row.inst == "fresh":
        return concluded(branch, rule, infos[0])
    return not productive(branch, row.alts(*infos, *inst))


def is_evident(
    branch_or_formulas, scope: str = "auto", fuel: int = 3
) -> EvidenceReport:
    """Check the model-existence conditions member by member.

    A member, then a pair of members, violates the condition of the rule
    that takes premises of their kinds unless the rule's conclusion from
    them is on the branch (`_concluded_on`); a quantifier also needs some
    instance.  scope "efo" checks the restricted-calculus conditions (exact); "stt"
    checks the unrestricted ones, where instance conditions on functional
    equations are bounded by fuel; "auto" picks by language.  A forced
    scope runs its calculus's gate first; any other name raises ValueError.
    On non-closed branches in the restricted language, evident coincides
    with `applicable_efo` returning nothing.
    """
    branch = as_branch(branch_or_formulas)
    if scope == "auto":
        scope = route_calculus(branch)
    else:
        calculus_named(scope).gate(branch, branch.formulas)
    out: list[Violation] = []
    bounded = False

    def check(rule, premises, inst=()) -> bool:
        if _concluded_on(branch, rule, premises, inst):
            return True
        detail = _VIOLATED[rule].format(*map(show_term, inst))
        out.append(Violation(rule.value, premises, detail))
        return False

    for s in branch.formulas:
        info = branch.info(s)
        if info.kind is FormulaKind.OTHER:
            raise FragmentViolation(f"no conditions cover {show_term(s)}")
        rule = _RULE_OF.get((info.kind,))
        if rule is None:
            continue
        if RULES[rule].inst != "term":
            check(rule, (s,))
            continue
        if rule is RuleId.FUN_EQ:
            bounded = True
            terms = instantiation_candidates(branch, inst_type(info), fuel)
        else:
            terms = branch.discriminating_terms(inst_type(info))
        for u in terms:
            if not check(rule, (s,), (u,)):
                break
        if rule is RuleId.FORALL_INST and not concluded(branch, rule, info):
            out.append(
                Violation("forall-inst-default", (s,), "no instance on the branch")
            )

    for kinds, rule in _RULE_OF.items():
        if len(kinds) == 2:
            for p in branch.members(kinds[0]):
                for q in branch.members(kinds[1]):
                    check(rule, (p, q))

    return EvidenceReport(
        evident=not out,
        scope=scope,
        bounded=bounded,
        fuel=fuel if bounded else None,
        violations=tuple(out),
    )
