"""Tableau rules and their checking: the trusted core.

One table states every rule once, and proof parsing, proof checking, search
and evidence all read it.  An `unsat` answer rests on this module and the
three below it (kernel, normalize, branch) alone: `check_proof` replays a
proof with `check_instance`, which compares every instance with the one the
rule table builds.  Choosing instances is `selection`'s, above this module.

A rule instance names the rule, the branch members it consumes, an optional
instantiation term (the chosen instance of a functional equation or a
quantifier, or the variable a witness rule introduces), and the alternatives:
a tuple of formula tuples, one per successor branch.  An instance with no
alternatives is a leaf — it witnesses that the branch is closed.

`RULES` has one row per rule.  A row gives the formula kind of each premise,
any further shape condition on the premises, the builder of the
alternatives, the instantiation the rule takes (none, a term, or a fresh
witness variable), and the rule's priority in search.  `instance_of`, the
one builder of instances, checks premises against a row and keeps what it
builds, or the rejection, in a bounded table that search, `make_instance`
(proof files carry no conclusions) and `check_instance` share.
`check_instance` validates a claimed instance against a branch: its
premises are members, it equals the table's, and the branch-dependent
admissibility conditions hold.

`CALCULI` has one row per calculus: a rule set and a language test, which
`route_calculus` and `selection.gate` read.  Two rule sets run over one engine.

The restricted calculus (its language is checked by `quasi_efo_violation`
here) enforces, per branch A:

  * witness rules (functional disequations, negated quantifiers) only fire
    when no variable already witnesses them in A, and introduce a variable
    not free in A;
  * a quantifier at a sort with discriminating terms is instantiated only
    with those terms;
  * with no discriminating terms, a quantifier that already has some
    instance in A gets no further ones, and otherwise one variable: a free
    one of the sort (search takes the first), or a fresh one if none is.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .branch import Branch, FormulaInfo, FormulaKind, branch_of, classify
from . import kernel
from .kernel import (
    App,
    Lam,
    Name,
    Ref,
    Term,
    Type,
    as_diseq,
    as_neg,
    diseq,
    eq,
    is_var_ref,
    neg,
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
    in, lower first; None for the `LEAF_RULES`, which search closes with
    before it reads its agenda.
    """

    kinds: tuple[FormulaKind | None, ...]
    alts: Callable[..., tuple]
    shape: Callable[[tuple, tuple], bool] | None = None
    inst: str | None = None
    priority: int | None = None


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
    ),
    RuleId.DECOMPOSE: Rule(
        (_K.SORT_DISEQ,),
        _diseqs(_sides_decompose),
        shape=lambda ps, infos: infos[0].decomposable,
        priority=9,
    ),
    RuleId.CONFRONT: Rule(
        (_K.SORT_EQ, _K.SORT_DISEQ),
        _diseqs(_sides_confront),
        shape=lambda ps, infos: infos[0].ty == infos[1].ty,
        priority=10,
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
    RuleId.CLOSE_REFL: Rule(
        (None,), _alts_leaf, shape=lambda ps, infos: is_reflexive(ps[0])
    ),
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

#: The leaf rules of both calculi beside the atomic mate and decompose
#: leaves: a formula with its negation, and a reflexive disequation.
LEAF_RULES = frozenset({RuleId.CLOSE_COMPL, RuleId.CLOSE_REFL})


def _premise_kinds(rules) -> frozenset[FormulaKind]:
    return frozenset(k for r in rules for k in RULES[r].kinds)


#: Formula kinds that only the restricted calculus has rules for.
EFO_ONLY_KINDS = _premise_kinds(EFO_RULES) - _premise_kinds(STT_RULES)


#: (rule, premises, inst) -> instance, or None where the row rejects the
#: premises.  Only `instance_of` writes it; emptied at kernel.SHARED_BOUND.
_built: dict[tuple, RuleInstance | None] = {}


def instance_of(
    rule: RuleId, premises: tuple[Term, ...], inst: Term | None = None
) -> RuleInstance | None:
    """The instance the rule's row builds from the premises (and the
    instantiation term), or None where the row's premise kinds, arity or
    shape reject them, kept in the table.  The infos are `classify`'s, so
    the result is a function of the arguments: a table hit equals a
    rebuild.  ValueError for a rule with no row; a TypeError from building
    stores nothing."""
    key = (rule, premises, inst)
    r = _built.get(key, False)
    if r is not False:
        return r
    row = RULES.get(rule)
    if row is None:
        raise ValueError(f"unknown rule {rule!r}")
    infos = tuple(map(classify, premises))
    if not (
        len(premises) == len(row.kinds)
        and (inst is None) == (row.inst is None)
        and all(k is None or i.kind is k for k, i in zip(row.kinds, infos))
        and (row.shape is None or row.shape(premises, infos))
    ):
        r = None
    else:
        given = () if inst is None else (inst,)
        r = RuleInstance(rule, premises, row.alts(*infos, *given), inst)
    if len(_built) >= kernel.SHARED_BOUND:
        _built.clear()
    _built[key] = r
    return r


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
    r = instance_of(rule, premises, inst)
    if r is None:
        shown = ", ".join(show_term(p) for p in premises)
        raise ValueError(f"{rule.value}: premises have the wrong shape: {shown}")
    return r


# ---------------------------------------------------------------------------
# The restricted language.  Each check returns the first offending subterm,
# or None when the term is inside, so reports carry witnesses.


class FragmentViolation(Exception):
    """Input lies outside the fragment a caller committed to."""


def efo_violation(t: Term) -> Term | None:
    """First subterm using a constant outside the restricted signature (see
    `kernel.Ref`): the `efo` fact t got when it was built."""
    return t.efo


def quasi_efo_violation(t: Term) -> Term | None:
    """Restricted formula, or a disequation (at any type) between such terms."""
    w = efo_violation(t)
    d = None if w is None else as_diseq(t)
    return w if d is None else efo_violation(d[1]) or efo_violation(d[2])


# ---------------------------------------------------------------------------
# The calculus table


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


@dataclass(frozen=True)
class Calculus:
    """One row of the calculus table: a rule set over the shared engine.

    rules: the rules search applies.  outside(branch, s): the calculus's
    language test, the reason member s is outside it, or None.
    """

    name: str
    rules: frozenset[RuleId]
    outside: Callable[[Branch, Term], str | None]


#: The two calculi, in the order `route_calculus` tries them.
CALCULI: dict[str, Calculus] = {
    "efo": Calculus("efo", EFO_RULES, _outside_efo),
    "stt": Calculus("stt", STT_RULES, _outside_stt),
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


def _forall_admissible(branch: Branch, info, u: Term) -> bool:
    """Whether u is a quantifier instance the restrictions allow.

    With discriminating terms at the sort: one of them.  Without: none if
    some instance is already present, else any free variable of the sort
    (or, if there is none, any variable not free on the branch).
    """
    if efo_violation(u) is not None:
        return False
    discs = branch.sides.get(info.sort)
    if discs:
        return u in discs
    if concluded(branch, RuleId.FORALL_INST, info) or not is_var_ref(u):
        return False
    xs = branch.vars_of_type(info.sort)
    return u.name in xs if xs else u.name not in branch.free_names


# ---------------------------------------------------------------------------
# Closing at once: a formula whose complement is on the branch, or a
# reflexive disequation.  The leaf rules read these two, and so does
# search's closing-first choice (`selection.Agenda`).


def complements(s: Term) -> tuple[Term, ...]:
    """The formulas that close a branch with s at once, either way round:
    the body of s when s is a negation, then the negation of s."""
    w = as_neg(s)
    return (neg(s),) if w is None else (w, neg(s))


def is_reflexive(s: Term) -> bool:
    """Is s a disequation between identical sides?"""
    d = as_diseq(s)
    return d is not None and d[1] == d[2]


# ---------------------------------------------------------------------------
# Instance and proof checking


def check_instance(branch: Branch, inst: RuleInstance) -> bool:
    """Validate a claimed rule instance against a branch.

    The premises must be members, the instance must equal what the rule's
    row builds from them, and the branch-dependent conditions must hold:
    the admissibility restrictions, and that branching instances only fire
    on non-closed branches.
    """
    try:
        return _check(branch, inst)
    except (TypeError, ValueError, AttributeError):
        return False


def _check(branch: Branch, r: RuleInstance) -> bool:
    if any(p not in branch for p in r.premises):
        return False
    if r.alternatives and branch.is_closed:
        return False
    built = instance_of(r.rule, r.premises, r.inst)
    if built is None or (r is not built and r != built):
        return False
    taken = RULES[r.rule].inst
    if taken is None:
        return True
    info, u = branch.info(r.premises[0]), r.inst
    if taken == "fresh":
        return (
            is_var_ref(u)
            and u.name not in branch.free_names
            and not concluded(branch, r.rule, info)
        )
    if not is_normal(u):
        return False
    return r.rule is not RuleId.FORALL_INST or _forall_admissible(branch, info, u)


def check_proof(branch_or_formulas, proof, calculus: str = "auto") -> bool:
    """Replay a proof against the assumptions it claims to refute.

    A proof is a tree of rule instances (`search.Proof`).  Every node's
    instance must pass check_instance on its branch, use only the
    calculus's rules or the `LEAF_RULES`, and have one child per
    alternative.  The branches are rebuilt depth-first on one copy of the
    given branch: a child is its parent's trail mark plus its alternative.
    A calculus name other than "auto", "efo" and "stt" raises ValueError.
    """
    try:
        branch = as_branch(branch_or_formulas)
    except (TypeError, ValueError, AttributeError):
        return False
    if calculus == "auto":
        try:
            calculus = route_calculus(branch)
        except FragmentViolation:
            return False
    allowed = calculus_named(calculus).rules | LEAF_RULES

    b = branch.copy()
    stack = [(0, (), proof)]
    while stack:
        mark, alt, node = stack.pop()
        b.undo(mark)
        for s in alt:
            b.add(s)
        r = node.instance
        if r.rule not in allowed:
            return False
        if len(node.children) != len(r.alternatives):
            return False
        if not check_instance(b, r):
            return False
        mark = len(b.trail)
        stack.extend((mark, alt, c) for alt, c in zip(r.alternatives, node.children))
    return True
