"""Tableau branches: the path state of a depth-first search, with one trail.

A branch stores its members in insertion order, a classification of each
formula (what shape it has for rule application; its keys also answer
membership and equality), the members of each kind, the free variables in
first-occurrence order, each with the first member it is free in, and the
witness of closure proper (a variable with its negation, or x != x at a
sort).  `add` extends the branch in place and puts one undo step on
`trail` per container it changes; `undo(mark)` restores the state of when
`len(trail)` was mark.  `selection.Agenda` records on the same trail.
`copy` gives a branch with an empty trail, so that search and replay never
change a caller's branch.

Two indexes also grow as members arrive.  `group` lists the (dis)equations
of a kind at a type and the atoms of a kind with a head, with positions,
for the pair rules, evidence and extraction.  `sides` maps each side of a
disequation at a type (a discriminating term: candidate terms, `support`
and the quantifier restriction read them) to its first disequation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .kernel import (
    Name,
    Ref,
    Term,
    Type,
    as_eq,
    as_forall,
    as_imp,
    as_neg,
    free_vars_ordered,
    is_sort,
    is_var_ref,
    neg,
    o,
    spine,
)
from .normalize import is_normal


class FormulaKind(Enum):
    DOUBLE_NEG = "double-neg"
    BOOL_EQ = "bool-eq"
    BOOL_DISEQ = "bool-diseq"
    FUN_EQ = "fun-eq"
    FUN_DISEQ = "fun-diseq"
    SORT_EQ = "sort-eq"
    SORT_DISEQ = "sort-diseq"
    POS_ATOM = "pos-atom"
    NEG_ATOM = "neg-atom"
    IMP = "imp"
    NEG_IMP = "neg-imp"
    FORALL = "forall"
    NEG_FORALL = "neg-forall"
    OTHER = "other"

    __hash__ = object.__hash__  # by identity, in C (Enum's hashes the name)


@dataclass(frozen=True)
class FormulaInfo:
    """Shape of one formula: its kind plus the decomposed payload."""

    kind: FormulaKind
    ty: Type | None = None  # operand type of an (dis)equation
    lhs: Term | None = None  # eq/diseq/imp left, or the body under double-neg
    rhs: Term | None = None
    head: Name | None = None  # head variable of an atom / decomposable diseq
    args: tuple[Term, ...] | None = None  # atom arguments
    largs: tuple[Term, ...] | None = None  # decomposable diseq, left spine args
    rargs: tuple[Term, ...] | None = None
    sort: Type | None = None  # quantified sort
    pred: Term | None = None  # quantified predicate
    decomposable: bool = False


#: Each shape's kind, and its kind under one negation.
_POLAR = {
    "bool": (FormulaKind.BOOL_EQ, FormulaKind.BOOL_DISEQ),
    "sort": (FormulaKind.SORT_EQ, FormulaKind.SORT_DISEQ),
    "fun": (FormulaKind.FUN_EQ, FormulaKind.FUN_DISEQ),
    "imp": (FormulaKind.IMP, FormulaKind.NEG_IMP),
    "forall": (FormulaKind.FORALL, FormulaKind.NEG_FORALL),
    "atom": (FormulaKind.POS_ATOM, FormulaKind.NEG_ATOM),
}


def classify(s: Term) -> FormulaInfo:
    """Classify a normal formula by the rule shapes that can consume it.  The
    info is kept in the `info` slot of s; a term that is not a formula raises
    TypeError on every call and keeps nothing."""
    info = getattr(s, "info", None)
    if info is None:
        info = _shape(s)
        object.__setattr__(s, "info", info)
    return info


def _shape(s: Term) -> FormulaInfo:
    if s.ty != o:
        raise TypeError(f"not a formula: {s!r}")
    w = as_neg(s)
    if w is not None and as_neg(w) is not None:
        return FormulaInfo(FormulaKind.DOUBLE_NEG, lhs=as_neg(w))
    t, negated = (s, 0) if w is None else (w, 1)
    e = as_eq(t)
    if e is not None:
        ty, l, r = e
        shape = "bool" if ty == o else "sort" if is_sort(ty) else "fun"
        if negated and shape == "sort":
            (lh, largs), (rh, rargs) = spine(l), spine(r)
            if is_var_ref(lh) and lh == rh:
                return FormulaInfo(
                    FormulaKind.SORT_DISEQ,
                    ty=ty,
                    lhs=l,
                    rhs=r,
                    head=lh.name,
                    largs=largs,
                    rargs=rargs,
                    decomposable=True,
                )
        return FormulaInfo(_POLAR[shape][negated], ty=ty, lhs=l, rhs=r)
    i = as_imp(t)
    if i is not None:
        return FormulaInfo(_POLAR["imp"][negated], lhs=i[0], rhs=i[1])
    f = as_forall(t)
    if f is not None:
        return FormulaInfo(_POLAR["forall"][negated], sort=f[0], pred=f[1])
    head, args = spine(t)
    if is_var_ref(head):
        return FormulaInfo(_POLAR["atom"][negated], head=head.name, args=args)
    return FormulaInfo(FormulaKind.OTHER)


_DISEQ_KINDS = (FormulaKind.BOOL_DISEQ, FormulaKind.SORT_DISEQ, FormulaKind.FUN_DISEQ)
#: The kinds a branch also groups: (dis)equations by type, atoms by head.
_GROUPED = frozenset(
    (*_DISEQ_KINDS, FormulaKind.SORT_EQ, FormulaKind.POS_ATOM, FormulaKind.NEG_ATOM)
)


class Branch:
    """A branch; build with `Branch()` / `branch_of` and extend with `add`."""

    __slots__ = (
        "formulas",
        "_info",
        "_by_kind",
        "free_names",
        "closing_witness",
        "sides",
        "trail",
    )

    def __init__(self):
        self.formulas: list[Term] = []
        self._info: dict[Term, FormulaInfo] = {}
        self._by_kind: dict = {}  # kind: members; (kind, type or head): groups
        self.free_names: dict[Name, Term] = {}  # to the first member with it
        self.closing_witness: tuple | None = None
        self.sides: dict[Type, dict[Term, Term]] = {}  # to the first diseq
        self.trail: list = []  # undo steps, newest last

    def copy(self) -> "Branch":
        """A branch with the same members and indexes, and an empty trail."""
        b = Branch()
        b.formulas = self.formulas.copy()
        b._info = self._info.copy()
        b._by_kind = {kind: ms.copy() for kind, ms in self._by_kind.items()}
        b.free_names = self.free_names.copy()
        b.closing_witness = self.closing_witness
        b.sides = {ty: ts.copy() for ty, ts in self.sides.items()}
        return b

    # -- queries --

    def __contains__(self, s: Term) -> bool:
        return s in self._info

    def __iter__(self):
        return iter(self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)

    def __eq__(self, other) -> bool:
        return isinstance(other, Branch) and self._info.keys() == other._info.keys()

    def __repr__(self) -> str:
        return "{" + ", ".join(str(f) for f in self.formulas) + "}"

    def info(self, s: Term) -> FormulaInfo:
        return self._info[s]

    def members(self, kind: FormulaKind) -> tuple[Term, ...]:
        return tuple(self._by_kind.get(kind, ()))

    def group(self, kind: FormulaKind, at: Type | Name) -> list[tuple[Term, int]]:
        """The (member, position) pairs of a kind at a type or head, in order."""
        return self._by_kind.get((kind, at), ())

    def disequations(self, at: Type) -> tuple[Term, ...]:
        """The disequations at a type (a sort, o or a function type), in order."""
        return tuple(d for k in _DISEQ_KINDS for d, _ in self.group(k, at))

    def discriminating_terms(self, at: Type) -> tuple[Term, ...]:
        """Sides of the disequations at the given type, deduplicated, in order."""
        return tuple(self.sides.get(at, ()))

    @property
    def is_closed(self) -> bool:
        return self.closing_witness is not None

    def vars_of_type(self, ty: Type) -> tuple[Name, ...]:
        return tuple(n for n in self.free_names if n.ty == ty)

    # -- construction and undo --

    def add(self, s: Term) -> None:
        """Extend the branch by s in place, recording each change on the trail."""
        if s in self._info:
            return
        if s.ty != o:
            raise TypeError(f"branch member must be a formula, got {s!r}")
        if not is_normal(s):
            raise ValueError(f"branch member must be normal, got {s!r}")
        info, trail = classify(s), self.trail
        if self.closing_witness is None:
            self.closing_witness = self._closing_after(s, info)
            if self.closing_witness is not None:
                trail.append(lambda: setattr(self, "closing_witness", None))
        self.formulas.append(s)
        self._info[s] = info
        kind = self._by_kind.setdefault(info.kind, [])
        kind.append(s)
        trail += (self.formulas.pop, self._info.popitem, kind.pop)
        if info.kind in _GROUPED:  # an atom has a head and no type
            group = self._by_kind.setdefault((info.kind, info.ty or info.head), [])
            group.append((s, len(self.formulas) - 1))
            trail.append(group.pop)
        for n in free_vars_ordered(s):
            if n not in self.free_names:
                self.free_names[n] = s
                trail.append(self.free_names.popitem)
        if info.kind in _DISEQ_KINDS:
            sides = self.sides.setdefault(info.ty, {})
            for t in (info.lhs, info.rhs):
                if t not in sides:
                    sides[t] = s
                    trail.append(sides.popitem)

    def undo(self, mark: int) -> None:
        """Undo every change recorded on the trail after position mark."""
        while len(self.trail) > mark:
            self.trail.pop()()

    def _closing_after(self, s: Term, info: FormulaInfo) -> tuple | None:
        """Closure per the calculus: x with not x, or x != x at a sort."""
        if is_var_ref(s) and neg(s) in self._info:
            return ("compl", s, neg(s))
        if info.kind is FormulaKind.NEG_ATOM and not info.args:
            x = Ref(info.head)
            if x in self._info:
                return ("compl", x, s)
        refl = info.kind is FormulaKind.SORT_DISEQ and info.lhs == info.rhs
        if refl and is_var_ref(info.lhs):
            return ("refl", s)
        return None


def branch_of(*formulas: Term) -> Branch:
    b = Branch()
    for s in formulas:
        b.add(s)
    return b
