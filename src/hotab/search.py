"""Refutation search, checkable proofs, and evidence detection.

`refute` picks a row of the calculus table `rules.CALCULI` (by
`route_calculus` in auto mode) and runs one engine with it: the row gives
the rule set, the fragment gate and the instantiation terms.  It develops
a branch depth-first and puts off real splits (Hähnle, "Tableaux and
related methods", 2001; leanTAP): each node applies the first instance in
search order (rule priority, then member insertion order) with two or
more alternatives that all close at once but one at most, found by
`rules.Agenda`, else the first applicable instance, read lazily from
`rules.instances`.  Runs are deterministic.  Instances that take no fresh
witness are memoised for one `refute` call.  The agenda's state is scoped
to the path from the root: search marks it before a node adds to it and
undoes it to that mark when the node's frame is popped.  No cache changes
which instance is applied.  This module keeps the depth-first path,
backjumping and the budgets.

The search backjumps (proof condensation).  A closed subtree reports the
branch members it used: the premises of its instances, plus, for each
`forall-inst`, the one member that keeps its term admissible.  When the
subtree under an alternative used nothing that alternative added, it
closes the branch the alternative was added to, so the frame is dropped
with its remaining alternatives and the subtree takes its place.  A
condensed proof is an ordinary proof: `check_proof` replays it unchanged.

Each fuel of the schedule gets one saturation.  It either closes every
branch — yielding a Refuted verdict with a proof tree — or reaches a
branch with no applicable instance.  Without functional equations that
branch satisfies the model-existence conditions and yields a Satisfiable
verdict with an extracted, certified model.  With them it does not (their
instance condition ranges over infinitely many terms), so the next fuel is
tried, and after the last the search answers Unknown.  The restricted
calculus admits no functional equations, so its first round decides.

A Proof is a tree of rule instances, one child per alternative; leaves are
instances with no alternatives, witnessing closure.  `check_proof` replays
a proof against the initial branch using only `rules.check_instance`, so
its soundness rests on the instance checker alone.

`is_evident` reports the model-existence conditions member by member: the
rule table read backwards (some alternative of each instance is on the
branch).  On a branch in the restricted language it is exact, and agrees
with "no applicable instance" on non-closed branches.  In the unrestricted
language the conditions on functional equations are checked up to a fuel
bound and the report says so (`bounded`).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from .branch import Branch, FormulaKind, branch_of
from .kernel import Name, Term, free_vars, is_var_ref, show_term
from .normalize import apply_norm  # noqa: F401  (callers look it up here)
from .normalize import normalize
from .rules import (
    CALCULI,
    EAGER_RULES,
    EFO_ONLY_KINDS,
    RULES,
    Agenda,
    Calculus,
    FragmentViolation,
    RuleId,
    RuleInstance,
    applicable_efo,  # noqa: F401  (callers look these two up here)
    applicable_stt,  # noqa: F401
    check_instance,
    closing_instance,
    concluded,
    instances,
    instantiation_candidates,
    productive,
    quasi_efo_violation,
)
from .semantics import (
    DEFAULT_MAX_TABLE,
    CardinalityError,
    Model,
    NotEvident,
    extract_model,
)

__all__ = [
    "BudgetExceeded",
    "EvidenceReport",
    "Proof",
    "Refuted",
    "Satisfiable",
    "SearchConfig",
    "Unknown",
    "Violation",
    "check_proof",
    "is_evident",
    "refute",
    "route_calculus",
]


# ---------------------------------------------------------------------------
# Proofs and verdicts


@dataclass(frozen=True, eq=False)
class Proof:
    """A closed tableau: a rule instance and one subproof per alternative.

    Each node has one child per alternative of its instance, so the
    instances in depth-first order determine the tree: equality and hashing
    compare that sequence, without recursing once per proof level.
    """

    instance: RuleInstance
    children: tuple["Proof", ...]

    def __post_init__(self):
        if len(self.children) != len(self.instance.alternatives):
            raise ValueError("proof arity does not match the instance")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Proof):
            return NotImplemented
        return self is other or _preorder(self) == _preorder(other)

    def __hash__(self) -> int:
        return hash(tuple(_preorder(self)))

    def nodes(self):
        """All proof nodes, depth-first, this node first."""
        stack = [self]
        while stack:
            p = stack.pop()
            yield p
            stack.extend(reversed(p.children))

    def size(self) -> int:
        return sum(1 for _ in self.nodes())

    def rule_counts(self) -> dict[str, int]:
        return dict(Counter(p.instance.rule.value for p in self.nodes()))


def _preorder(proof: Proof) -> list[RuleInstance]:
    return [p.instance for p in proof.nodes()]


@dataclass(frozen=True)
class Refuted:
    """The assumptions are unsatisfiable; proof closes every branch."""

    proof: Proof
    calculus: str


@dataclass(frozen=True)
class Satisfiable:
    """A saturated branch was reached and a model extracted from it."""

    model: Model
    branch: Branch


@dataclass(frozen=True)
class Unknown:
    """Search gave up: budget exhausted, or saturation was inconclusive."""

    reason: str


Verdict = Refuted | Satisfiable | Unknown


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters; defaults suit interactive use.

    calculus: "stt", "efo", or "auto" (route by the input's language).
    fuel_schedule: strictly increasing integer instantiation-size bounds
    tried in turn by the unrestricted calculus.  max_nodes counts rule
    applications across the whole run; timeout is wall-clock seconds;
    neither may be negative, and either may be None for no limit.  eager_close also
    closes on complementary non-atoms and reflexive disequations, recorded
    with dedicated leaf rules.  reserved names are never chosen for
    introduced variables.  max_table bounds function-space enumeration
    during model extraction; it may not be negative or None.
    """

    calculus: str = "auto"
    fuel_schedule: tuple[int, ...] = (1, 2, 3, 4)
    max_nodes: int | None = 100_000
    timeout: float | None = 10.0
    eager_close: bool = False
    reserved: tuple[Name, ...] = ()
    max_table: int = DEFAULT_MAX_TABLE

    def __post_init__(self):
        if self.calculus != "auto":
            _calculus(self.calculus)
        sched = tuple(self.fuel_schedule)
        if (
            not sched
            or not all(isinstance(f, int) and f >= 1 for f in sched)
            or list(sched) != sorted(set(sched))
        ):
            raise ValueError("fuel_schedule must be strictly increasing integers >= 1")
        object.__setattr__(self, "fuel_schedule", sched)
        for name in ("max_nodes", "timeout"):
            limit = getattr(self, name)
            if limit is not None and not limit >= 0:  # also rejects nan
                raise ValueError(f"{name} must be >= 0 or None, got {limit}")
        if self.max_table is None or not self.max_table >= 0:
            raise ValueError(f"max_table must be >= 0, got {self.max_table}")


def _as_branch(obj) -> Branch:
    if isinstance(obj, Branch):
        return obj
    return branch_of(*(normalize(s) for s in obj))


def _calculus(name: str) -> Calculus:
    """The named row of the calculus table; ValueError for any other name."""
    row = CALCULI.get(name)
    if row is None:
        raise ValueError(f"unknown calculus {name!r}")
    return row


def route_calculus(branch: Branch) -> str:
    """Pick the calculus for a branch by its language.

    Branches of restricted formulas (and disequations between restricted
    terms) go to the restricted calculus; branches in the pure negation and
    equality language go to the unrestricted one.  A branch mixing the two
    extensions fits neither and raises FragmentViolation.
    """
    if all(quasi_efo_violation(s) is None for s in branch.formulas):
        return "efo"
    offender = next(
        (s for s in branch.formulas if branch.info(s).kind in EFO_ONLY_KINDS), None
    )
    if offender is None:
        return "stt"
    raise FragmentViolation(
        f"mixed input: {show_term(offender)} needs the restricted calculus, "
        "but other members use equality outside its fragment"
    )


# ---------------------------------------------------------------------------
# Depth-first saturation


@dataclass
class _Frame:
    instance: RuleInstance
    branch: Branch
    mark: tuple  # the agenda's mark before this node added to it
    added: tuple = ()  # the members the current alternative added
    used: set = field(default_factory=set)  # members of branch its children use
    children: list = field(default_factory=list)


def _saturate(branch, calc: Calculus, fuel, cfg, memo, deadline, counter):
    """Develop a branch depth-first, backjumping over unused alternatives.

    Each node applies the agenda's closing instance, or else the first of
    the calculus's `instances` at this fuel, both over the search's memo.
    The calculus's gate raises FragmentViolation for members it cannot
    take, and sees each member once, at the first open node that has it.
    counter[0] counts the rule applications of the whole search against
    cfg.max_nodes.  Returns ("closed", Proof) when every branch closes, or
    ("open", Branch) for the leftmost branch with no applicable instance.
    Raises BudgetExceeded when limits run out.

    A closed subtree comes with the members its instances use (see
    `_uses`).  If it uses none that its alternative added, it closes the
    frame's own branch, so it takes the frame's place and the frame's other
    alternatives are dropped.  The result replays unchanged: every instance
    still finds its premises, a witness fresh on a branch is fresh on a
    smaller one, and an instance not concluded on a branch is not concluded
    on a smaller one.  In the restricted calculus the skipped alternatives
    would have closed too, so open branches and models do not change; in
    the unrestricted one a skipped alternative could have stayed open with
    functional equations, so a fuel round can close where it would not
    without backjumping.  The agenda's state, and so the choice at a node,
    depends on the node's branch alone.
    """
    stack: list[_Frame] = []
    agenda = Agenda(calc, memo)
    cur, added = branch, branch.formulas
    while True:
        leaf = closing_instance(cur, cfg.eager_close, added)
        if leaf is None:
            calc.gate(cur, added)
            mark = agenda.mark()
            rest = instances(calc, cur, fuel, cfg.reserved, memo, agenda.dead)
            agenda.add(cur, added)
            r = agenda.pick(cur) or next(rest, None)
            if r is None:
                return "open", cur
            counter[0] += 1
            if cfg.max_nodes is not None and counter[0] > cfg.max_nodes:
                raise BudgetExceeded(f"node budget exhausted ({cfg.max_nodes})")
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded("timeout")
            frame = _Frame(r, cur, mark)
            stack.append(frame)
            cur, added = _extend(cur, r.alternatives[0])
            frame.added = added
            continue
        proof, used = Proof(leaf, ()), set(leaf.premises)
        while stack:
            frame = stack[-1]
            # a subtree that used nothing its alternative added closes
            # frame.branch by itself: it skips the frame and goes up
            if not used.isdisjoint(frame.added):
                frame.children.append(proof)
                frame.used |= used.difference(frame.added)
                if len(frame.children) < len(frame.instance.alternatives):
                    cur, added = _extend(
                        frame.branch, frame.instance.alternatives[len(frame.children)]
                    )
                    frame.added = added
                    break
                proof = Proof(frame.instance, tuple(frame.children))
                used = frame.used
                used.update(_uses(frame.branch, frame.instance))
            stack.pop()
            agenda.undo(frame.mark)
        else:
            return "closed", proof


def _uses(branch: Branch, r: RuleInstance) -> tuple[Term, ...]:
    """The members of branch that instance r needs to stay checkable on a
    smaller branch: its premises, and for `forall-inst` one member that
    keeps its term admissible.  A discriminating term needs a disequation
    at the sort with it as a side; otherwise a term that is a free variable
    of the branch needs a member it is free in.  (A variable not free on
    the branch stays so on a smaller one, and witnesses, "not concluded"
    and openness all survive shrinking the branch.)"""
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


def _extend(branch: Branch, alternative) -> tuple[Branch, tuple[Term, ...]]:
    """The branch with an alternative's formulas, and the members it gains."""
    b = branch.add_all(alternative)
    return b, b.formulas[len(branch.formulas) :]


def refute(branch_or_formulas, cfg: SearchConfig | None = None) -> Verdict:
    """Decide or attempt to decide a set of assumptions.

    Returns Refuted (with a checkable proof), Satisfiable (with a certified
    model and the saturated branch), or Unknown.  Raises FragmentViolation
    when the input fits no calculus (or not the requested one), and
    NotEvident when a saturated branch fails `is_evident`, before any model
    is extracted from it.

    One saturation runs per fuel of the schedule, over one memo, node count
    and deadline.  A round that ends open without functional equations is
    final, so the restricted calculus, whose gate keeps them out, always
    stops after its first round.
    """
    cfg = cfg or SearchConfig()
    branch = _as_branch(branch_or_formulas)
    name = route_calculus(branch) if cfg.calculus == "auto" else cfg.calculus
    calc = CALCULI[name]
    deadline = None if cfg.timeout is None else time.monotonic() + cfg.timeout
    counter = [0]
    memo: dict = {}  # instances, shared by the fuel rounds
    try:
        for fuel in cfg.fuel_schedule:
            status, payload = _saturate(
                branch, calc, fuel, cfg, memo, deadline, counter
            )
            if status == "closed":
                return Refuted(payload, calc.name)
            if not payload.members(FormulaKind.FUN_EQ):
                report = is_evident(payload)
                if not report.evident:
                    raise NotEvident(report)
                try:
                    model = extract_model(payload, max_table=cfg.max_table)
                except CardinalityError as e:
                    return Unknown(f"saturated, but model extraction overflowed: {e}")
                return Satisfiable(model, payload)
        return Unknown(
            "saturation left functional equations open at every fuel in "
            f"{cfg.fuel_schedule}; cannot certify satisfiability"
        )
    except BudgetExceeded as e:
        return Unknown(str(e))


# ---------------------------------------------------------------------------
# Proof checking


def check_proof(
    branch_or_formulas, proof: Proof, calculus: str = "auto", eager: bool = False
) -> bool:
    """Replay a proof against the assumptions it claims to refute.

    Every node's instance must pass check_instance on the reconstructed
    branch, use only the calculus's rules (plus the eager leaf rules when
    eager is set), and have one child per alternative.  A calculus name
    other than "auto", "efo" and "stt" raises ValueError.
    """
    try:
        branch = _as_branch(branch_or_formulas)
    except (TypeError, ValueError):
        return False
    if calculus == "auto":
        try:
            calculus = route_calculus(branch)
        except FragmentViolation:
            return False
    allowed = _calculus(calculus).rules
    if eager:
        allowed = allowed | EAGER_RULES

    stack = [(branch, proof)]
    while stack:
        b, node = stack.pop()
        r = node.instance
        if r.rule not in allowed:
            return False
        if len(node.children) != len(r.alternatives):
            return False
        if not check_instance(b, r, eager):
            return False
        for alt, child in zip(r.alternatives, node.children):
            stack.append((b.add_all(alt), child))
    return True


# ---------------------------------------------------------------------------
# Evidence


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


_K = FormulaKind
_MATE = RULES[RuleId.MATE].kinds
_CONFRONT = RULES[RuleId.CONFRONT].kinds

#: Per member kind (per premise kinds for the pair rules), the rule that
#: evidence reads backwards and the detail of a violation.
_CONDITIONS = {
    _K.DOUBLE_NEG: (RuleId.DOUBLE_NEG, "body is missing"),
    _K.BOOL_EQ: (RuleId.BOOL_EQ, "sides are not jointly settled"),
    _K.BOOL_DISEQ: (RuleId.BOOL_EXT, "sides are not settled opposite"),
    _K.FUN_EQ: (RuleId.FUN_EQ, "instance {} is missing"),
    _K.FUN_DISEQ: (RuleId.FUN_EXT, "no variable witnesses the sides apart"),
    _K.IMP: (RuleId.IMP, "neither side is settled"),
    _K.NEG_IMP: (RuleId.IMP_NEG, "components are missing"),
    _K.FORALL: (RuleId.FORALL_INST, "discriminating term {} is not instantiated"),
    _K.NEG_FORALL: (RuleId.FORALL_NEG, "no variable witnesses the negation"),
    _K.SORT_DISEQ: (
        RuleId.DECOMPOSE, "no argument disequation supports the disequation"
    ),
    _MATE: (RuleId.MATE, "no argument disequation separates the pair"),
    _CONFRONT: (RuleId.CONFRONT, "equation is not confronted with the disequation"),
}


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

    scope "efo" checks the restricted-calculus conditions (exact); "stt"
    checks the unrestricted ones, where instance conditions on functional
    equations are bounded by fuel; "auto" picks by language.  A forced
    scope runs its calculus's gate first; any other name raises ValueError.
    On non-closed branches in the restricted language, evident coincides
    with `applicable_efo` returning nothing.
    """
    branch = _as_branch(branch_or_formulas)
    if scope == "auto":
        scope = route_calculus(branch)
    else:
        _calculus(scope).gate(branch, branch.formulas)
    out: list[Violation] = []
    bounded = False

    def check(premises, key, inst=()) -> bool:
        rule, detail = _CONDITIONS[key]
        if _concluded_on(branch, rule, premises, inst):
            return True
        shown = map(show_term, inst)
        out.append(Violation(rule.value, premises, detail.format(*shown)))
        return False

    for s in branch.formulas:
        info = branch.info(s)
        kind = info.kind
        if kind is FormulaKind.FUN_EQ:
            bounded = True
            for u in instantiation_candidates(branch, info.ty.dom, fuel):
                if not check((s,), kind, (u,)):
                    break
        elif kind is FormulaKind.FORALL:
            for u in branch.discriminating_terms(info.sort):
                if not check((s,), kind, (u,)):
                    break
            if not concluded(branch, RuleId.FORALL_INST, info):
                out.append(
                    Violation("forall-inst-default", (s,), "no instance on the branch")
                )
        elif kind is FormulaKind.OTHER:
            raise FragmentViolation(f"no conditions cover {show_term(s)}")
        elif kind in _CONDITIONS:
            check((s,), kind)

    for p in branch.members(FormulaKind.POS_ATOM):
        for q in branch.members(FormulaKind.NEG_ATOM):
            check((p, q), _MATE)
    for e in branch.members(FormulaKind.SORT_EQ):
        for d in branch.disequations(branch.info(e).ty):
            check((e, d), _CONFRONT)

    return EvidenceReport(
        evident=not out,
        scope=scope,
        bounded=bounded,
        fuel=fuel if bounded else None,
        violations=tuple(out),
    )
