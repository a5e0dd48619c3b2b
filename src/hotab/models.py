"""Standard finite models: frames, evaluation, certification, printing.

A frame fixes a finite domain for every type: truth values are 0/1, each
sort gets an explicitly sized domain (elements are indices 0..n-1, optionally
labelled), and a function domain is the full space of tables.  A function
value is a tuple indexed by the position of the argument in the argument
type's domain enumeration, so values are hashable and comparable and the
full space D(a->b) is exactly `itertools.product(D(b), repeat=|D(a)|)`.

Logical constants always denote their canonical interpretations (negation,
implication, typed identity, universal quantification as the constant-true
test); a model therefore only carries values for variables.

`check_model` is the trusted core behind a satisfiable verdict: it needs
nothing but this module and `kernel`.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .kernel import (
    App,
    Base,
    Bound,
    Fun,
    Lam,
    Name,
    Ref,
    Term,
    Type,
    arg_types,
    is_sort,
    o,
    show_term,
    show_type,
)

#: Refuse to enumerate a function space with more tables than this.
DEFAULT_MAX_TABLE = 2**25


class CardinalityError(Exception):
    """A function space exceeded the configured enumeration ceiling."""


class Frame:
    """Finite domains for every type over a fixed set of sorts."""

    def __init__(
        self,
        sort_sizes: dict[Base, int],
        sort_labels: dict[Base, tuple] | None = None,
        max_table: int = DEFAULT_MAX_TABLE,
    ):
        for s, n in sort_sizes.items():
            if not is_sort(s):
                raise ValueError(f"not a sort: {s!r}")
            if n < 1:
                raise ValueError(f"domain of {s!r} must be non-empty")
        self.sort_sizes = dict(sort_sizes)
        self.sort_labels = dict(sort_labels or {})
        self.max_table = max_table
        self._domains: dict[Type, tuple] = {}
        self._index: dict[Type, dict] = {}
        self._consts: dict[Name, object] = {}

    def size(self, ty: Type) -> int:
        """|D(ty)|, computed arithmetically with the ceiling enforced."""
        if ty == o:
            return 2
        if type(ty) is Base:
            if ty not in self.sort_sizes:
                raise ValueError(f"frame has no domain for sort {show_type(ty)}")
            return self.sort_sizes[ty]
        n = self.size(ty.cod) ** self.size(ty.dom)
        if n > self.max_table:
            raise CardinalityError(
                f"|D({show_type(ty)})| = {n} exceeds the ceiling {self.max_table}"
            )
        return n

    def domain(self, ty: Type) -> tuple:
        """The full domain of ty, in a fixed enumeration order."""
        d = self._domains.get(ty)
        if d is not None:
            return d
        if ty == o:
            d = (0, 1)
        elif type(ty) is Base:
            d = tuple(range(self.size(ty)))
        else:
            self.size(ty)  # ceiling check before materializing
            cod = self.domain(ty.cod)
            dom_n = self.size(ty.dom)
            d = tuple(itertools.product(cod, repeat=dom_n))
        self._domains[ty] = d
        self._index[ty] = {v: i for i, v in enumerate(d)}
        return d

    def index(self, ty: Type, v) -> int:
        if ty not in self._index:
            self.domain(ty)
        return self._index[ty][v]

    def apply(self, fty: Fun, fval: tuple, aval):
        return fval[self.index(fty.dom, aval)]

    def constant(self, n: Name):
        """Canonical value of a logical constant in this frame: its
        eta-expansion (λx. not x, λx y. imp x y, λx y. x = y, λp. forall p)
        evaluated by `eval_term`, whose applied cases define all four."""
        v = self._consts.get(n)
        if v is None:
            if n.ident not in ("not", "imp", "=", "forall"):
                raise ValueError(f"unknown logical constant {n!r}")
            args = arg_types(n.ty)
            t = Ref(n)
            for i, ty in enumerate(args):
                t = App(t, Bound(len(args) - 1 - i, ty))
            for ty in reversed(args):
                t = Lam(ty, t)
            v = self._consts[n] = eval_term(Model(self, {}), t)
        return v


class Model:
    """A frame plus values for variables; constants are always canonical."""

    def __init__(self, frame: Frame, interp: dict[Name, object]):
        for n in interp:
            if not n.is_var:
                raise ValueError(f"models interpret variables only, got {n!r}")
        self.frame = frame
        self.interp = dict(interp)

    def value(self, n: Name):
        if n.is_var:
            if n not in self.interp:
                raise KeyError(f"model assigns no value to {n!r}")
            return self.interp[n]
        return self.frame.constant(n)

    def __repr__(self) -> str:
        return show_model(self)


def eval_term(model: Model, t: Term, env: dict[Name, object] | None = None):
    """Evaluate t in the model; env overrides values of free names.

    An applied negation, implication, equation or quantifier is evaluated
    from its definition, so no table of a logical constant is built: a
    quantifier's table would index the whole space D(s -> o).
    """
    frame = model.frame

    def go(t: Term, stack: list):
        if type(t) is Ref:
            if env is not None and t.name in env:
                return env[t.name]
            return model.value(t.name)
        if type(t) is Bound:
            return stack[-1 - t.index]
        if type(t) is App:
            h = t.fun
            if type(h) is Ref and not h.name.is_var:
                if h.name.ident == "not":
                    return 1 - go(t.arg, stack)
                if h.name.ident == "forall":
                    return int(all(go(t.arg, stack)))
            elif type(h) is App and type(h.fun) is Ref and not h.fun.name.is_var:
                if h.fun.name.ident == "imp":
                    x = go(h.arg, stack)
                    return int(go(t.arg, stack) >= x)
                if h.fun.name.ident == "=":
                    x = go(h.arg, stack)
                    return int(go(t.arg, stack) == x)
            f = go(t.fun, stack)
            a = go(t.arg, stack)
            return frame.apply(t.fun.ty, f, a)
        dom = frame.domain(t.dom)
        stack.append(None)
        out = []
        for v in dom:
            stack[-1] = v
            out.append(go(t.body, stack))
        stack.pop()
        return tuple(out)

    return go(t, [])


def check_model(model: Model, formulas: Iterable[Term]) -> bool:
    """True iff every formula evaluates to 1."""
    return all(eval_term(model, s) == 1 for s in formulas)


# ---------------------------------------------------------------------------
# Printing


def show_value(frame: Frame, ty: Type, v) -> str:
    if ty == o:
        return str(v)
    if type(ty) is Base:
        return f"{ty.name}{v}"
    dom = frame.domain(ty.dom)
    cells = [
        f"{show_value(frame, ty.dom, x)} -> {show_value(frame, ty.cod, v[i])}"
        for i, x in enumerate(dom)
    ]
    return "{" + ", ".join(cells) + "}"


def show_model(model: Model) -> str:
    """Sorts with their labelled elements, then each variable's value."""
    frame = model.frame
    lines = []
    for s in sorted(frame.sort_sizes, key=lambda b: b.name):
        n = frame.sort_sizes[s]
        lines.append(f"sort {s.name} : {n} element" + ("s" if n != 1 else ""))
        labels = frame.sort_labels.get(s)
        for i in range(frame.sort_sizes[s]):
            if labels is not None:
                inside = ", ".join(sorted(show_term(t) for t in labels[i]))
                lines.append(f"  {s.name}{i} = {{{inside}}}")
            else:
                lines.append(f"  {s.name}{i}")
    for n in sorted(model.interp, key=lambda n: n.ident):
        v = model.interp[n]
        lines.append(
            f"var {n.ident} : {show_type(n.ty)} = {show_value(frame, n.ty, v)}"
        )
    return "\n".join(lines)
