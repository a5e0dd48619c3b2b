"""Refutation search and proof objects.

`refute` picks a row of the calculus table `rules.CALCULI` (by
`rules.route_calculus` in auto mode) and runs one engine with it: the row
gives the rule set and `selection.gate`'s language test.  It develops a
branch depth-first and puts off real splits (Hähnle, "Tableaux and related
methods", 2001; leanTAP).  A node closes as soon as its branch holds a
formula and its negation or a reflexive disequation (the leaf
`selection.closing_instance` returns; Smullyan, "First-Order Logic",
1968).  Otherwise it applies the first instance in search order (rule
priority, then member insertion order) with two or more alternatives
that all close at once but one at most, else the first applicable
instance; `selection.Agenda`, the one index of instance keys, finds both.
Runs are deterministic.  Instances are read from the table
`rules.instance_of` fills, which proof reading and replay share; no cache
changes which instance is applied.  The path is one branch, extended in
place: the branch and the agenda record every change on the branch's
trail, and a frame keeps the trail mark its alternatives start from.  This
module keeps the depth-first path, backjumping and the budgets; every rule
condition it relies on is stated in `rules`, every choice it makes in
`selection`.

The search backjumps (proof condensation).  A closed subtree reports the
branch members it used, the `selection.support` of each of its instances:
the premises, plus, for each `forall-inst`, the one member that keeps its
term admissible.  When the subtree under an alternative used nothing that
alternative added, it closes the branch the alternative was added to, so
the frame is dropped with its remaining alternatives and the subtree takes
its place.  A condensed proof is an ordinary proof: each instance still
checks on the branch of its support.  In the restricted calculus the
skipped alternatives would have closed too, so open branches and models do
not change; in the unrestricted one a skipped alternative could have stayed
open with functional equations, so a fuel round can close where it would
not without backjumping.

Each fuel of the schedule gets one saturation.  It either closes every
branch or reaches a branch with no applicable instance.  Without
functional equations that branch satisfies the model-existence conditions
(`selection.is_evident`, the rule table read backwards) and yields a
Satisfiable verdict with an extracted, certified model.  With them it does
not (their instance condition ranges over infinitely many terms), so the
next fuel is tried, and after the last the search answers Unknown.  The
restricted calculus admits no functional equations, so its first round
decides.

A Proof is a tree of rule instances, one child per alternative; leaves are
instances with no alternatives, witnessing closure.  A closed saturation
gives a Refuted verdict only once `rules.check_proof` has replayed its proof
with the calculus of the search, and Unknown if the replay fails: an
`unsat` rests on the trusted core in `rules` alone.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from .branch import Branch, FormulaKind
from .kernel import Name, Term
from .normalize import apply_norm  # noqa: F401  (the tracer patches it here)
from .models import DEFAULT_MAX_TABLE, CardinalityError, Model
from .rules import (
    Calculus,
    RuleInstance,
    as_branch,
    calculus_named,
    check_instance,  # noqa: F401  (perfbench's tracer patches the noqa names)
    check_proof,
    quasi_efo_violation,  # noqa: F401
    route_calculus,
)
from .selection import (
    Agenda,
    applicable_efo,  # noqa: F401
    applicable_stt,  # noqa: F401
    closing_instance,
    gate,
    is_evident,
    support,
)
from .semantics import NotEvident, extract_model

__all__ = [
    "BudgetExceeded",
    "Proof",
    "Refuted",
    "Satisfiable",
    "SearchConfig",
    "Unknown",
    "refute",
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
    neither may be negative, and either may be None for no limit.
    reserved names are never chosen for introduced variables.  max_table
    bounds function-space enumeration during model extraction; it may not
    be negative or None.
    """

    calculus: str = "auto"
    fuel_schedule: tuple[int, ...] = (1, 2, 3, 4)
    max_nodes: int | None = 100_000
    timeout: float | None = 10.0
    reserved: tuple[Name, ...] = ()
    max_table: int = DEFAULT_MAX_TABLE

    def __post_init__(self):
        if self.calculus != "auto":
            calculus_named(self.calculus)
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


# ---------------------------------------------------------------------------
# Depth-first saturation


@dataclass
class _Frame:
    instance: RuleInstance
    mark: int  # the branch's trail length before an alternative is added
    added: tuple = ()  # the members the current alternative added
    used: set = field(default_factory=set)  # members of branch its children use
    children: list = field(default_factory=list)


def _saturate(branch, calc: Calculus, fuel, cfg, deadline, counter):
    """Develop the branch depth-first in place; the module docstring says
    how a node chooses its instance and how search backjumps.

    The calculus's gate raises FragmentViolation for members it cannot
    take, and sees each member once, at the first open node that has it.
    counter[0] counts the rule applications of the whole search against
    cfg.max_nodes.  Returns ("closed", Proof) when every branch closes, or
    ("open", branch) at the leftmost branch with no applicable instance;
    raises BudgetExceeded when limits run out.  Search undoes the branch
    to a frame's mark before it adds the frame's next alternative or reads
    the frame's branch.
    """
    stack: list[_Frame] = []
    agenda = Agenda(calc)
    added = tuple(branch)
    while True:
        leaf = closing_instance(branch, added)
        if leaf is None:
            gate(calc, branch, added)
            agenda.add(branch, added)
            rest = agenda.instances(branch, fuel, cfg.reserved)
            r = agenda.pick(branch) or next(rest, None)
            if r is None:
                return "open", branch
            counter[0] += 1
            if cfg.max_nodes is not None and counter[0] > cfg.max_nodes:
                raise BudgetExceeded(f"node budget exhausted ({cfg.max_nodes})")
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded("timeout")
            frame = _Frame(r, len(branch.trail))
            stack.append(frame)
            added = frame.added = _extend(branch, r.alternatives[0])
            continue
        proof, used = Proof(leaf, ()), set(leaf.premises)
        while stack:
            frame = stack[-1]
            branch.undo(frame.mark)
            # a subtree that used nothing its alternative added closes
            # the frame's branch by itself: it skips the frame and goes up
            if not used.isdisjoint(frame.added):
                frame.children.append(proof)
                frame.used |= used.difference(frame.added)
                if len(frame.children) < len(frame.instance.alternatives):
                    alt = frame.instance.alternatives[len(frame.children)]
                    added = frame.added = _extend(branch, alt)
                    break
                proof = Proof(frame.instance, tuple(frame.children))
                used = frame.used
                used.update(support(branch, frame.instance))
            stack.pop()
        else:
            return "closed", proof


def _extend(branch: Branch, alternative) -> tuple[Term, ...]:
    """Add an alternative's formulas to the branch; the members it gains."""
    n = len(branch)
    for s in alternative:
        branch.add(s)
    return tuple(branch.formulas[n:])


def refute(branch_or_formulas, cfg: SearchConfig | None = None) -> Verdict:
    """Decide or attempt to decide a set of assumptions.

    Returns Refuted (with a proof `check_proof` has replayed), Satisfiable
    (with a certified model and the saturated branch), or Unknown.  Raises
    FragmentViolation when the input fits no calculus (or not the requested
    one), and NotEvident when a saturated branch fails `is_evident`, before
    any model is extracted from it.  Each fuel round saturates its own
    copy of the branch, over one node count and deadline.
    """
    cfg = cfg or SearchConfig()
    branch = as_branch(branch_or_formulas)
    name = route_calculus(branch) if cfg.calculus == "auto" else cfg.calculus
    calc = calculus_named(name)
    deadline = None if cfg.timeout is None else time.monotonic() + cfg.timeout
    counter = [0]
    try:
        for fuel in cfg.fuel_schedule:
            status, payload = _saturate(
                branch.copy(), calc, fuel, cfg, deadline, counter
            )
            if status == "closed":
                if not check_proof(branch, payload, calc.name):
                    return Unknown("search found a proof, but it failed replay")
                return Refuted(payload, calc.name)
            if not payload.members(FormulaKind.FUN_EQ):
                report = is_evident(payload)
                if not report.evident:
                    raise NotEvident(report)
                try:
                    model = extract_model(payload, max_table=cfg.max_table)
                except CardinalityError as e:
                    return Unknown(f"saturated, but model extraction overflowed: {e}")
                return Satisfiable(model, payload.copy())  # drops the search's trail
        return Unknown(
            "saturation left functional equations open at every fuel in "
            f"{cfg.fuel_schedule}; cannot certify satisfiability"
        )
    except BudgetExceeded as e:
        return Unknown(str(e))

