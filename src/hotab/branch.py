"""Tableau branches: immutable sets of normal formulas with lookup caches.

A branch stores its members in insertion order, a classification of each
formula (what shape it has for rule application; its keys also answer
membership, equality and hashing), the members of each kind in insertion
order, the free variables in first-occurrence order, and the witness of
closure proper (a variable with its negation, or x != x at a sort).  `add`
returns a new branch and shares nothing mutable, so branches behave
persistently; adding a member that is already present returns the branch
itself (identity-preserving no-op).

The discriminating terms of a type (the sides of its disequations) and its
discriminants — maximal sets of disequation sides with no disequation
between members — are computed lazily per type and memoized on the
branch.  The memo is idempotent, so concurrent readers at worst repeat
the computation; nothing observable ever mutates.
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


def classify(s: Term) -> FormulaInfo:
    """Classify a normal formula by the rule shapes that can consume it."""
    if s.ty != o:
        raise TypeError(f"not a formula: {s!r}")
    w = as_neg(s)
    if w is not None:
        inner = as_neg(w)
        if inner is not None:
            return FormulaInfo(FormulaKind.DOUBLE_NEG, lhs=inner)
        e = as_eq(w)
        if e is not None:
            ty, l, r = e
            if ty == o:
                return FormulaInfo(FormulaKind.BOOL_DISEQ, ty=ty, lhs=l, rhs=r)
            if is_sort(ty):
                lh, largs = spine(l)
                rh, rargs = spine(r)
                if (
                    type(lh) is Ref
                    and lh.name.is_var
                    and type(rh) is Ref
                    and lh.name == rh.name
                ):
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
                return FormulaInfo(FormulaKind.SORT_DISEQ, ty=ty, lhs=l, rhs=r)
            return FormulaInfo(FormulaKind.FUN_DISEQ, ty=ty, lhs=l, rhs=r)
        i = as_imp(w)
        if i is not None:
            return FormulaInfo(FormulaKind.NEG_IMP, lhs=i[0], rhs=i[1])
        f = as_forall(w)
        if f is not None:
            return FormulaInfo(FormulaKind.NEG_FORALL, sort=f[0], pred=f[1])
        head, args = spine(w)
        if type(head) is Ref and head.name.is_var:
            return FormulaInfo(FormulaKind.NEG_ATOM, head=head.name, args=args)
        return FormulaInfo(FormulaKind.OTHER)
    e = as_eq(s)
    if e is not None:
        ty, l, r = e
        if ty == o:
            return FormulaInfo(FormulaKind.BOOL_EQ, ty=ty, lhs=l, rhs=r)
        if is_sort(ty):
            return FormulaInfo(FormulaKind.SORT_EQ, ty=ty, lhs=l, rhs=r)
        return FormulaInfo(FormulaKind.FUN_EQ, ty=ty, lhs=l, rhs=r)
    i = as_imp(s)
    if i is not None:
        return FormulaInfo(FormulaKind.IMP, lhs=i[0], rhs=i[1])
    f = as_forall(s)
    if f is not None:
        return FormulaInfo(FormulaKind.FORALL, sort=f[0], pred=f[1])
    head, args = spine(s)
    if type(head) is Ref and head.name.is_var:
        return FormulaInfo(FormulaKind.POS_ATOM, head=head.name, args=args)
    return FormulaInfo(FormulaKind.OTHER)


class Branch:
    """An immutable branch; build with `empty()` / `branch_of` and `add`."""

    __slots__ = (
        "formulas",
        "_info",
        "_by_kind",
        "free_names",
        "closing_witness",
        "_disc_terms_cache",
        "_disc_cache",
    )

    def __init__(self):
        self.formulas: tuple[Term, ...] = ()
        self._info: dict[Term, FormulaInfo] = {}
        self._by_kind: dict[FormulaKind, tuple[Term, ...]] = {}
        self.free_names: tuple[Name, ...] = ()
        self.closing_witness: tuple | None = None
        self._disc_terms_cache: dict[Type, tuple[Term, ...]] = {}
        self._disc_cache: dict[Type, tuple[frozenset[Term], ...]] = {}

    @staticmethod
    def empty() -> "Branch":
        return Branch()

    # -- queries --

    def __contains__(self, s: Term) -> bool:
        return s in self._info

    def __iter__(self):
        return iter(self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)

    def __eq__(self, other) -> bool:
        return isinstance(other, Branch) and self._info.keys() == other._info.keys()

    def __hash__(self) -> int:
        return hash(frozenset(self._info))

    def __repr__(self) -> str:
        return "{" + ", ".join(str(f) for f in self.formulas) + "}"

    def info(self, s: Term) -> FormulaInfo:
        return self._info[s]

    def members(self, kind: FormulaKind) -> tuple[Term, ...]:
        return self._by_kind.get(kind, ())

    def disequations(self, at: Type) -> tuple[Term, ...]:
        """The disequations at a type (a sort, o or a function type), in order."""
        k = FormulaKind
        kind = k.BOOL_DISEQ if at == o else k.SORT_DISEQ if is_sort(at) else k.FUN_DISEQ
        return tuple(d for d in self.members(kind) if self._info[d].ty == at)

    @property
    def is_closed(self) -> bool:
        return self.closing_witness is not None

    def vars_of_type(self, ty: Type) -> tuple[Name, ...]:
        return tuple(n for n in self.free_names if n.ty == ty)

    # -- construction --

    def add(self, s: Term) -> "Branch":
        if s in self._info:
            return self
        if s.ty != o:
            raise TypeError(f"branch member must be a formula, got {s!r}")
        if not is_normal(s):
            raise ValueError(f"branch member must be normal, got {s!r}")
        info = classify(s)
        b = Branch()
        b.formulas = self.formulas + (s,)
        b._info = {**self._info, s: info}
        b._by_kind = {**self._by_kind}
        b._by_kind[info.kind] = b._by_kind.get(info.kind, ()) + (s,)
        known = set(self.free_names)
        b.free_names = self.free_names + tuple(
            n for n in free_vars_ordered(s) if n not in known
        )
        b.closing_witness = self.closing_witness
        if b.closing_witness is None:
            b.closing_witness = self._closing_after(s, info)
        return b

    def add_all(self, formulas) -> "Branch":
        b = self
        for s in formulas:
            b = b.add(s)
        return b

    def _closing_after(self, s: Term, info: FormulaInfo) -> tuple | None:
        """Closure per the calculus: x with not x, or x != x at a sort."""
        if is_var_ref(s) and neg(s) in self._info:
            return ("compl", s, neg(s))
        if info.kind is FormulaKind.NEG_ATOM and not info.args:
            x = Ref(info.head)
            if x in self._info:
                return ("compl", x, s)
        if (
            info.kind is FormulaKind.SORT_DISEQ
            and info.lhs == info.rhs
            and is_var_ref(info.lhs)
        ):
            return ("refl", s)
        return None

    # -- discriminants --

    def discriminating_terms(self, at: Type) -> tuple[Term, ...]:
        """Sides of the disequations at the given type, deduplicated."""
        cached = self._disc_terms_cache.get(at)
        if cached is not None:
            return cached
        seen: dict[Term, None] = {}
        for d in self.disequations(at):
            info = self._info[d]
            seen.setdefault(info.lhs)
            seen.setdefault(info.rhs)
        out = self._disc_terms_cache[at] = tuple(seen)
        return out

    def discriminants(self, at: Type) -> tuple[frozenset[Term], ...]:
        """Maximal sets of discriminating terms with no internal disequation.

        With no disequations at the sort this is (frozenset(),): the branch
        induces a one-element domain.
        """
        cached = self._disc_cache.get(at)
        if cached is not None:
            return cached
        vs = self.discriminating_terms(at)
        conflict: dict[Term, set[Term]] = {v: set() for v in vs}
        for d in self.disequations(at):
            info = self._info[d]
            conflict[info.lhs].add(info.rhs)
            conflict[info.rhs].add(info.lhs)
        out = _max_independent_sets(vs, conflict)
        self._disc_cache[at] = out
        return out


def branch_of(*formulas: Term) -> Branch:
    return Branch.empty().add_all(formulas)


def _max_independent_sets(
    vs: tuple[Term, ...], conflict: dict[Term, set[Term]]
) -> tuple[frozenset[Term], ...]:
    """All maximal independent sets of the conflict graph, deterministically.

    Bron-Kerbosch with pivoting on the complement graph.  Vertices that
    conflict with themselves (s != s on the branch) can join no independent
    set and are dropped up front.
    """
    idx = {v: i for i, v in enumerate(vs)}
    ok = [v for v in vs if v not in conflict[v]]
    adj = {v: {w for w in ok if w != v and w not in conflict[v]} for v in ok}
    out: list[frozenset[Term]] = []

    def bk(r: frozenset[Term], p: set[Term], x: set[Term]) -> None:
        if not p and not x:
            out.append(r)
            return
        pivot = max(
            sorted(p | x, key=lambda v: idx[v]), key=lambda v: len(p & adj[v])
        )
        for v in sorted(p - adj[pivot], key=lambda v: idx[v]):
            bk(r | {v}, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    bk(frozenset(), set(ok), set())
    out.sort(key=lambda s: sorted(idx[v] for v in s))
    return tuple(out)
