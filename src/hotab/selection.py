"""Choosing rule instances: search order, closing first, and evidence.

Nothing here is trusted.  A proof built with these functions is replayed by
`rules.check_proof`, and a model is certified by `models.check_model`, so a
fault here can cost a verdict but cannot make a wrong one.

`Agenda` is search's one index of instance keys, scoped to the path by the
branch's trail: it builds each key of a row of the calculus table
`rules.CALCULI` once, when its last premise arrives, and queues it in
search order; a pair rule reads a premise's partners from the branch's
groups (`Branch.group`), as `is_evident` does.  Its walk
(`Agenda.instances`) yields the productive instances lazily and skips the
dead ones; `pick` reads what closes at once (`rules.complements`,
`RuleInstance.closers`) for the keys with two alternatives or more,
closing first.  Nothing here builds an instance:
instances are read from the table that `rules.instance_of` fills, the
builder proof reading and replay use too.  Together with the admissibility
restrictions this makes "no instance applicable" coincide with the closure
conditions that guarantee a model exists.  `CANDIDATES` gives the
instantiation terms of each calculus's one "term" rule, and `fresh_var`
names witnesses.  `instances` reads a fresh agenda over a copy of a branch,
and `applicable_efo` and `applicable_stt` list its instances behind `gate`,
which holds members to a calculus (its language test, and some rule for
each).  `support` names the members an instance needs to keep passing
`rules.check_instance` on a smaller branch, read off the branch's `sides`
and `free_names`; backjumping rests on it.
`is_evident` reads the rule table backwards: the model-existence conditions.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

from .branch import Branch, FormulaKind
from .kernel import (
    NOT,
    App,
    Bound,
    Fun,
    Lam,
    Name,
    Term,
    Type,
    as_diseq,
    as_eq,
    as_neg,
    diseq,
    eq_const,
    is_var_ref,
    o,
    ref,
    show_term,
)
from .rules import (
    CALCULI,
    RULES,
    Calculus,
    FragmentViolation,
    RuleId,
    RuleInstance,
    as_branch,
    calculus_named,
    complements,
    concluded,
    inst_type,
    instance_of,
    is_reflexive,
    route_calculus,
)


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
    """Ordered k-tuples (k >= 1) of positive ints summing to total, in
    lexicographic order: the gaps between k - 1 cut points."""
    for cuts in itertools.combinations(range(1, total), k - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


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
    return tuple(branch.free_names), tuple(eq_tys)


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
# Instances in search order


def instances(
    calculus: Calculus, branch: Branch, fuel: int = 3, reserved: tuple[Name, ...] = ()
) -> Iterator[RuleInstance]:
    """The calculus's instances on the branch, lazily, in search order, and
    without its gate: members no rule takes are passed over.  A fresh
    `Agenda` over a copy of the branch reads them (`Agenda.instances`), so
    nothing is kept from one call to the next."""
    if branch.is_closed:
        return iter(())
    copy, agenda = branch.copy(), Agenda(calculus)
    agenda.add(copy, tuple(copy))
    return agenda.instances(copy, fuel, reserved)


def productive(branch: Branch, alternatives) -> bool:
    """Does every alternative add something the branch lacks?"""
    return all(any(f not in branch for f in alt) for alt in alternatives)


def fresh_var(ty: Type, avoid: Iterable[Name]) -> Name:
    """A variable of type ty whose identifier collides with nothing in avoid.

    Deterministic: picks x0, x1, ... at the lowest unused index, so equal
    avoid sets always yield the same name.
    """
    used = {n.ident for n in avoid}
    i = 0
    while f"x{i}" in used:
        i += 1
    return Name(f"x{i}", ty)


def _fresh_witness(branch: Branch, ty: Type, reserved: tuple[Name, ...]) -> Term:
    return ref(fresh_var(ty, (*branch.free_names, *reserved)))


def _forall_instances(branch: Branch, info, fuel, reserved) -> list[Term]:
    """Admissible quantifier instances under the restrictions, whatever the
    fuel.

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


#: Per rule that takes an instantiation term, a premise's terms in search
#: order: each calculus has one such rule.
CANDIDATES = {
    RuleId.FORALL_INST: _forall_instances,
    RuleId.FUN_EQ: lambda branch, info, fuel, reserved: instantiation_candidates(
        branch, inst_type(info), fuel
    ),
}


def gate(calculus: Calculus, branch: Branch, members) -> None:
    """Raise FragmentViolation for the first of the branch's members the
    calculus cannot take: one outside its language, or, on an open branch,
    one no rule consumes."""
    for s in members:
        reason = calculus.outside(branch, s)
        if reason is not None:
            raise FragmentViolation(reason)
    if not branch.is_closed:
        for s in members:
            if branch.info(s).kind is FormulaKind.OTHER:
                raise FragmentViolation(f"no rule for {show_term(s)}")


def applicable_stt(
    branch: Branch, fuel: int = 3, reserved: tuple[Name, ...] = ()
) -> list[RuleInstance]:
    """Instances the unrestricted calculus admits on the branch.

    fuel bounds the size of enumerated instances of functional equations;
    reserved names are avoided when introducing witness variables.  On a
    closed branch nothing is applicable.  Raises FragmentViolation for
    members outside the negation-and-equality language.  Search reads the
    same instances lazily (`Agenda.instances`).
    """
    gate(CALCULI["stt"], branch, branch.formulas)
    return list(instances(CALCULI["stt"], branch, fuel, reserved))


def applicable_efo(
    branch: Branch, reserved: tuple[Name, ...] = ()
) -> list[RuleInstance]:
    """Instances the restricted calculus admits on the branch.

    The branch must consist of restricted formulas or disequations between
    restricted terms; anything else raises FragmentViolation.  On a closed
    branch nothing is applicable.  The result is empty exactly when the
    branch is closed or satisfies the model-existence conditions.  Search
    reads the same instances lazily (`Agenda.instances`).
    """
    gate(CALCULI["efo"], branch, branch.formulas)
    return list(instances(CALCULI["efo"], branch, reserved=reserved))


def support(branch: Branch, r: RuleInstance) -> tuple[Term, ...]:
    """The members of branch that instance r needs to pass `check_instance`
    on a smaller branch: its premises, and for `forall-inst` one member that
    keeps its term admissible (`rules._forall_admissible`): a disequation
    at the sort with the term as a side, else, for a free variable of the
    branch, the first member it is free in.  (A variable not free on the
    branch stays so on a smaller one, and witnesses, "not concluded" and
    openness all survive shrinking the branch.)  Backjumping rests on it."""
    if r.rule is not RuleId.FORALL_INST:
        return r.premises
    u = r.inst
    first = branch.sides.get(u.ty, {}).get(u)
    if first is None and is_var_ref(u):
        first = branch.free_names.get(u.name)
    return r.premises if first is None else r.premises + (first,)


# ---------------------------------------------------------------------------
# Closing at once, and closing-first selection


def side_pairs(s: Term) -> tuple[Term, Term] | None:
    """The sides (x, y) of the disequation among the `complements` of s (s
    is x = y or not not (x = y)): the side pair s closes at once.  Read off
    s itself, as `closing_instance` has built the complements of s."""
    d = as_eq(s) or as_diseq(as_neg(s))
    return None if d is None else d[1:]


def closing_instance(
    branch: Branch, added: tuple[Term, ...] | None = None
) -> RuleInstance | None:
    """The leaf instance witnessing that the branch is closed, if any.

    First the branch's own closure: a variable with its negation, or a
    reflexive disequation between identical variables at a sort, witnessed
    by a zero-alternative mate or decompose instance.  Then the leaf rules
    (`rules.LEAF_RULES`) for the first member of added (by default every
    member), in insertion order, that has a complement before it or is
    reflexive.  Search passes a node's new members, as the others closed
    nothing at its parent.
    """
    w = branch.closing_witness
    if w is not None:
        if w[0] == "compl":
            return instance_of(RuleId.MATE, (w[1], w[2]))
        return instance_of(RuleId.DECOMPOSE, (w[1],))
    added = branch.formulas if added is None else added
    later = set(added)
    for s in added:
        later.discard(s)
        for c in complements(s):
            if c in branch and c not in later:
                pair = (c, s) if as_neg(s) == c else (s, c)
                return instance_of(RuleId.CLOSE_COMPL, pair)
        if is_reflexive(s):
            return instance_of(RuleId.CLOSE_REFL, (s,))
    return None


#: The confront row, whose pairs `Agenda` meets through its side index,
#: and the mate row, whose pairs it reads from the members with one head.
_CONFRONT, _MATE = RULES[RuleId.CONFRONT], RULES[RuleId.MATE]
_EQ, _DQ = _CONFRONT.kinds
_OTHER = {_EQ: _DQ, _DQ: _EQ}


class Agenda:
    """The one index of instance keys on the path from the root, for search
    to apply first a branching instance whose alternatives all close at once
    but one at most (`pick`), else the first productive one (`instances`).
    Each entry goes on the branch's trail, so undoing the branch cuts the
    agenda back with it.

    uses: per member kind, the calculus's (rule, row, premise position)
    triples that take it, in table order.  queues: per priority, in search
    order, the keys the rows' shapes accept and the (rule, (premise,), n)
    entries the walk expands (n: a `confront` premise's position).  dead:
    the keys of unproductive instances.  ordered: sorted (search order, key,
    row, closers) entries with one open alternative at most (a closed one
    stays so), one per key, less those `pick` found dead.  waiting: per
    closer, the entries with two open or more.

    A pair-rule premise is paired with the branch's group of the other
    kind at its sort or head (`Branch.group`), below its own position.  A
    `confront` pair closes once a side pair (x, y) is shut (x == y, or
    x != y closes at once: `side_pairs`); only such are tested.  A sort
    with members of both kinds is indexed by side: `by_side` has them per
    (kind, side) and (kind, lhs, rhs), and `shut` per (kind, side) the
    other sides of its shut pairs.
    """

    def __init__(self, calculus: Calculus):
        self.uses: dict = {}
        for rule, row in RULES.items():
            if rule in calculus.rules:
                for at, kind in enumerate(row.kinds):
                    self.uses.setdefault(kind, []).append((rule, row, at))
        self.queues = {p: [] for p in sorted(RULES[r].priority for r in calculus.rules)}
        self.dead: dict = {}  # insertion-ordered, so popitem drops the newest
        self.ordered: list = []
        self.waiting: dict = {}
        self.by_side, self.shut = {}, {}  # confront's side index

    @staticmethod
    def _push(branch: Branch, index: dict, key, value) -> None:
        entries = index.setdefault(key, [])
        entries.append(value)
        branch.trail.append(entries.pop)

    def add(self, branch: Branch, added: tuple[Term, ...]) -> None:
        """Index what added, the branch's newest members, complete, close or
        are.  A key is built once, by its last premise; `mate` pairs it with
        each earlier atom of the other kind in the branch's group of its
        head.  Its search order is priority, position of the last premise,
        position of the other.  A "term", witness or `confront` premise is
        queued alone, the last with its position.  A key with two closers or
        more is tested: a rule with sides gives its side pairs, the others
        the `closers` of the instance read from the table, and `confront` the
        side index (`_meet`)."""
        joined = list(added)
        pairs: dict = {}  # confront's (equation, disequation), with positions
        for s in added:
            closes = side_pairs(s)
            if closes:
                joined.append(closes)
                x, y = closes  # pair the members it shuts, then index it
                es, ds = self.by_side.get((_EQ, x), ()), self.by_side.get((_DQ, y), ())
                pairs.update(dict.fromkeys(itertools.product(es, ds)))
                self._push(branch, self.shut, (_EQ, x), y)
                self._push(branch, self.shut, (_DQ, y), x)
        for i, s in enumerate(added, len(branch) - len(added)):
            info = branch.info(s)
            if info.kind in _OTHER:
                self._meet(branch, s, i, info, pairs)
            for rule, row, at in self.uses.get(info.kind, ()):
                if row.inst is not None or row is _CONFRONT:  # the walk expands it
                    n = None if row.inst else i
                    self._push(branch, self.queues, row.priority, (rule, (s,), n))
                    continue
                keys = [((row.priority, i, 0), (rule, (s,), None))]
                if row is _MATE:  # the earlier atoms of the other kind, same head
                    others = branch.group(row.kinds[1 - at], info.head)
                    keys = [
                        ((row.priority, i, j), (rule, pair, None))
                        for p, j in others
                        if j < i
                        for pair in [(p, s) if at else (s, p)]
                    ]
                for order, key in keys:
                    if row.shape is not None:
                        infos = tuple(map(branch.info, key[1]))
                        if not row.shape(key[1], infos):
                            continue
                    self._push(branch, self.queues, row.priority, key)
                    sides = row.sides
                    closers = sides(*infos) if sides else instance_of(*key).closers
                    if len(closers) >= 2:
                        self._test(branch, (order, key, row, closers), True)
        for e, d in pairs:  # ordered by positions, as mate keys are
            key = (RuleId.CONFRONT, (e[0], d[0]), None)
            order = (_CONFRONT.priority, max(e[1], d[1]), min(e[1], d[1]))
            if not self._known(order, key):
                sides = _CONFRONT.sides(branch.info(e[0]), branch.info(d[0]))
                self._test(branch, (order, key, _CONFRONT, sides), False)
        for c in joined:
            for entry in self.waiting.get(c, ()):
                if not self._known(*entry[:2]):
                    self._test(branch, entry, False)

    def _meet(self, branch: Branch, s: Term, i: int, info, pairs: dict) -> None:
        """Index s, at position i, by side once its sort has an equation and
        a disequation before i; pair it with the members one shut pair away.
        The first member of its kind at the sort (its group's first position
        is i) reads the other kind's earlier members in."""
        others = branch.group(_OTHER[info.kind], info.ty)
        if not others or others[0][1] > i:
            return  # nothing to pair with yet
        new = [(s, i)]
        if branch.group(info.kind, info.ty)[0][1] == i:
            new += (m for m in others if m[1] < i)
        for m in new:  # the earlier ones are all of one kind: no pairs
            q = branch.info(m[0])
            keys = ((q.kind, q.lhs), (q.kind, q.rhs), (_DQ, q.lhs, q.rhs))
            for key in keys[: 3 if q.kind is _DQ else 2]:
                self._push(branch, self.by_side, key, m)
        for z in (info.lhs, info.rhs):
            for w in (z, *self.shut.get((info.kind, z), ())):
                for p in self.by_side.get((_OTHER[info.kind], w), ()):
                    pairs[(new[0], p) if info.kind is _EQ else (p, new[0])] = None

    def _known(self, order: tuple, key: tuple) -> bool:  # dead, or in `ordered`
        at = bisect_left(self.ordered, (order,))  # a key has one search order
        return key in self.dead or at < len(self.ordered) and self.ordered[at][1] == key

    def _test(self, branch: Branch, entry: tuple, new: bool) -> None:
        if entry[2].sides is None:
            shut = [cl is None or any(c in branch for c in cl) for cl in entry[3]]
        else:
            get = self.shut.get
            shut = [
                any(x == y or y in get((_EQ, x), ()) for x, y in a) for a in entry[3]
            ]
        if shut.count(False) <= 1:
            at = bisect_left(self.ordered, entry)
            self.ordered.insert(at, entry)
            branch.trail.append(functools.partial(self.ordered.pop, at))
        elif new:
            for alt, done in zip(entry[3], shut):
                for c in () if done else alt:
                    self._push(branch, self.waiting, c, entry)

    def instances(
        self, branch: Branch, fuel: int = 3, reserved: tuple[Name, ...] = ()
    ) -> Iterator[RuleInstance]:
        """The productive instances of the queues, lazily, in search order:
        a "term" premise gives a key per term of `CANDIDATES` (up to fuel), a
        witness premise one with a variable that avoids the reserved names
        unless its conclusion is on the branch (`concluded`), a `confront`
        premise one per earlier member of the other kind at its sort.  An
        unproductive key or concluded premise stays so on every extension of
        the branch: it goes into dead, on the trail, and is skipped."""
        dead, trail = self.dead, branch.trail
        for queue in self.queues.values():
            for entry in queue:
                if entry in dead:
                    continue
                rule, ps, n = entry
                inst = RULES[rule].inst
                if inst == "fresh":
                    info = branch.info(ps[0])
                    if concluded(branch, rule, info):
                        dead[entry] = None
                        trail.append(dead.popitem)
                        continue
                    x = _fresh_witness(branch, inst_type(info), reserved)
                    keys = ((rule, ps, x),)
                elif inst == "term":
                    us = CANDIDATES[rule](branch, branch.info(ps[0]), fuel, reserved)
                    keys = ((rule, ps, u) for u in us)
                elif n is None:
                    keys = (entry,)
                else:  # confront: the other kind at its sort, below position n
                    info = branch.info(ps[0])
                    others = branch.group(_OTHER[info.kind], info.ty)
                    keys = (
                        (rule, ps + (p,) if info.kind is _EQ else (p,) + ps, None)
                        for p, at in itertools.takewhile(lambda m: m[1] < n, others)
                    )
                for key in keys:
                    if key in dead:
                        continue
                    r = instance_of(*key)
                    if productive(branch, r.alternatives):
                        yield r
                    else:
                        dead[key] = None
                        trail.append(dead.popitem)

    def pick(self, branch: Branch) -> RuleInstance | None:
        """The first productive closing instance in search order; the dead
        entries before it leave `ordered`.  Builds a `confront` one to return."""
        ordered, dead, get = self.ordered, self.dead, self.by_side.get
        while ordered:
            entry = _, key, row, closers = ordered[0]
            if key not in dead:
                if row is not _CONFRONT:
                    r = instance_of(*key)
                    if productive(branch, r.alternatives):
                        return r
                elif all(any(not get((_DQ, *p)) for p in a) for a in closers):
                    return instance_of(*key)
                dead[key] = None
                branch.trail.append(dead.popitem)
            del ordered[0]
            branch.trail.append(functools.partial(ordered.insert, 0, entry))
        return None


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
    all of some alternative of the instance the row builds, one at a time
    where it adds disequations."""
    row = RULES[rule]
    infos = tuple(map(branch.info, premises))
    if row.shape is not None and not row.shape(premises, infos):
        return True
    if row.inst == "fresh":
        return concluded(branch, rule, infos[0])
    if row.sides is not None:
        return any(all(diseq(x, y) in branch for x, y in a) for a in row.sides(*infos))
    return not productive(branch, row.alts(*infos, *inst))


def is_evident(
    branch_or_formulas, scope: str = "auto", fuel: int = 3
) -> EvidenceReport:
    """Check the model-existence conditions member by member.

    A member, then a pair of members (at one sort or head: `Branch.group`),
    violates the condition of the rule that takes premises of their kinds
    unless the rule's conclusion from them is on the branch
    (`_concluded_on`); a quantifier also needs some instance.  scope "efo"
    checks the restricted-calculus conditions (exact); "stt" checks the
    unrestricted ones, where instance conditions on functional equations
    are bounded by fuel; "auto" picks by language.  A forced
    scope runs its calculus's gate first; any other name raises ValueError.
    On non-closed branches in the restricted language, evident coincides
    with `applicable_efo` returning nothing.
    """
    branch = as_branch(branch_or_formulas)
    if scope == "auto":
        scope = route_calculus(branch)
    else:
        gate(calculus_named(scope), branch, branch.formulas)
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
        if len(kinds) == 2:  # pairs at one sort or head (an atom has no type)
            for p in branch.members(kinds[0]):
                info = branch.info(p)
                for q, _ in branch.group(kinds[1], info.ty or info.head):
                    check(rule, (p, q))

    return EvidenceReport(
        evident=not out,
        scope=scope,
        bounded=bounded,
        fuel=fuel if bounded else None,
        violations=tuple(out),
    )
