"""Typed term kernel: simple types, names, and alpha-canonical lambda terms.

Terms are stored locally nameless: bound variables are de Bruijn indices,
free variables and logical constants are named references.  Structural
equality therefore coincides with alpha-equivalence, and substitution can
never capture.  Everything is immutable with a cached hash, so terms are
shared freely across tableau branches and used as set/dict keys.  Each type,
name and term class returns the value already built from equal arguments
while its table holds it.  Types and names are few, and their table is never
emptied: equal ones are one object, and equality is identity.  The term
table is emptied at SHARED_BOUND (2^15) entries, so equal terms may be
distinct objects, and term equality stays structural.  Hashing is structural
throughout.
Each term also carries two facts computed from its children when it is
built: `fv`, its free variables in order of first occurrence (constants
excluded), and `normal`, whether it holds no beta redex.  Reading either
walks nothing.

Binding (`lam`), shifting, instantiation and substitution are leaf maps
over one traversal, `rebuild`, which counts the binders above each leaf
and returns every subterm it leaves unchanged as the same object.

The logical signature is fixed: negation, implication, equality at every
type, and universal quantification at every sort.  Equality and quantifier
constants are instantiated lazily per type and interned.
"""

from __future__ import annotations

from typing import Iterator


# ---------------------------------------------------------------------------
# Sharing


_kept: dict[tuple, object] = {}  # (class, *arguments) -> type or name
_shared: dict[tuple, "Term"] = {}  # (class, *arguments) -> term
SHARED_BOUND = 1 << 15


class _Shared(type):
    def __call__(cls, *args):  # the value built from equal arguments, if kept
        table = cls._table
        key = (cls, *args)
        t = table.get(key)
        if t is None:
            t = super().__call__(*args)  # __init__ type-checks before the entry
            if table is _shared and len(table) >= SHARED_BOUND:
                table.clear()
            table[key] = t
        return t


# ---------------------------------------------------------------------------
# Types


class Type(metaclass=_Shared):
    """A simple type: the base type `o`, a sort, or a function type."""

    __slots__ = ("_hash",)
    _table = _kept

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Type is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return show_type(self)


class Base(Type):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Base", name)))


class Fun(Type):
    __slots__ = ("dom", "cod")

    def __init__(self, dom: Type, cod: Type):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "_hash", hash(("Fun", dom, cod)))


#: The type of truth values.  Every other base type is a sort.
o = Base("o")


def sort(name: str) -> Base:
    """Declare a sort; `o` is reserved for the type of truth values."""
    if name == "o":
        raise ValueError("'o' is reserved for the type of truth values")
    return Base(name)


def fun(*tys: Type) -> Type:
    """Right-associated function type: fun(a, b, c) = a -> (b -> c)."""
    if len(tys) < 2:
        raise ValueError("fun needs at least two types")
    out = tys[-1]
    for t in reversed(tys[:-1]):
        out = Fun(t, out)
    return out


def is_sort(ty: Type) -> bool:
    return type(ty) is Base and ty.name != "o"


def arg_types(ty: Type) -> tuple[Type, ...]:
    """Argument types of a fully applied use: arg_types(a->b->o) = (a, b)."""
    out = []
    while type(ty) is Fun:
        out.append(ty.dom)
        ty = ty.cod
    return tuple(out)


def result_type(ty: Type) -> Type:
    while type(ty) is Fun:
        ty = ty.cod
    return ty


# ---------------------------------------------------------------------------
# Names


class _SharedName(_Shared):
    def __call__(cls, ident, ty, is_var=True):  # one key for every spelling
        return super().__call__(ident, ty, is_var)


class Name(metaclass=_SharedName):
    """A free name: a variable or a logical constant, with its type."""

    __slots__ = ("ident", "ty", "is_var", "_hash")
    _table = _kept

    def __init__(self, ident: str, ty: Type, is_var: bool):
        object.__setattr__(self, "ident", ident)
        object.__setattr__(self, "ty", ty)
        object.__setattr__(self, "is_var", is_var)
        object.__setattr__(self, "_hash", hash(("Name", ident, ty, is_var)))

    def __setattr__(self, *a):
        raise AttributeError("Name is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.ident}:{show_type(self.ty)}"


NOT = Name("not", Fun(o, o), is_var=False)
IMP = Name("imp", Fun(o, Fun(o, o)), is_var=False)


def eq_const(ty: Type) -> Name:
    """The equality constant at type ty (ty -> ty -> o)."""
    return Name("=", Fun(ty, Fun(ty, o)), is_var=False)


def forall_const(s: Type) -> Name:
    """The universal quantifier at sort s ((s -> o) -> o)."""
    if not is_sort(s):
        raise ValueError(f"quantification is only supported at sorts, not {s!r}")
    return Name("forall", Fun(Fun(s, o), o), is_var=False)


def eq_operand_type(n: Name) -> Type | None:
    """The type sigma if n is the equality constant at sigma, else None."""
    if not n.is_var and n.ident == "=":
        return n.ty.dom
    return None


def forall_sort(n: Name) -> Type | None:
    """The sort alpha if n is the quantifier at alpha, else None."""
    if not n.is_var and n.ident == "forall":
        return n.ty.dom.dom
    return None


# ---------------------------------------------------------------------------
# Terms


class Term(metaclass=_Shared):
    """An intrinsically typed lambda term in alpha-canonical form."""

    __slots__ = ("ty", "_hash", "fv", "normal")
    _table = _shared

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Term is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return show_term(self)


class Ref(Term):
    """Occurrence of a free name (variable or logical constant)."""

    __slots__ = ("name",)

    __hash__ = Term.__hash__

    def __init__(self, name: Name):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ty", name.ty)
        object.__setattr__(self, "_hash", hash(("Ref", name)))
        object.__setattr__(self, "fv", (name,) if name.is_var else ())
        object.__setattr__(self, "normal", True)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return type(other) is Ref and self.name == other.name


class Bound(Term):
    """A bound variable as a de Bruijn index (0 = innermost binder)."""

    __slots__ = ("index",)

    __hash__ = Term.__hash__

    def __init__(self, index: int, ty: Type):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "ty", ty)
        object.__setattr__(self, "_hash", hash(("Bound", index, ty)))
        object.__setattr__(self, "fv", ())
        object.__setattr__(self, "normal", True)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            type(other) is Bound
            and self.index == other.index
            and self.ty == other.ty
        )


class App(Term):
    __slots__ = ("fun", "arg")

    __hash__ = Term.__hash__

    def __init__(self, f: Term, a: Term):
        fty = f.ty
        if type(fty) is not Fun:
            raise TypeError(f"cannot apply non-function {f!r} : {show_type(fty)}")
        if fty.dom != a.ty:
            raise TypeError(
                f"type mismatch in application: expected {show_type(fty.dom)}, "
                f"got {a!r} : {show_type(a.ty)}"
            )
        object.__setattr__(self, "fun", f)
        object.__setattr__(self, "arg", a)
        object.__setattr__(self, "ty", fty.cod)
        object.__setattr__(self, "_hash", hash(("App", f._hash, a._hash)))
        ff, af = f.fv, a.fv
        if ff and af and af != ff:
            ff = tuple(dict.fromkeys(ff + af))
        object.__setattr__(self, "fv", ff or af)
        object.__setattr__(self, "normal", type(f) is not Lam and f.normal and a.normal)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            type(other) is App
            and self._hash == other._hash
            and self.fun == other.fun
            and self.arg == other.arg
        )


class Lam(Term):
    """Abstraction over the domain type; the binder itself is nameless."""

    __slots__ = ("dom", "body")

    __hash__ = Term.__hash__

    def __init__(self, dom: Type, body: Term):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "ty", Fun(dom, body.ty))
        object.__setattr__(self, "_hash", hash(("Lam", dom, body._hash)))
        object.__setattr__(self, "fv", body.fv)
        object.__setattr__(self, "normal", body.normal)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            type(other) is Lam
            and self._hash == other._hash
            and self.dom == other.dom
            and self.body == other.body
        )


def ref(name: Name) -> Ref:
    return Ref(name)


def app(f: Term, *args: Term) -> Term:
    for a in args:
        f = App(f, a)
    return f


def rebuild(t: Term, leaf, depth: int = 0) -> Term:
    """t with each leaf s (a Ref or a Bound) replaced by leaf(s, d), where d is
    depth plus the number of binders around s in t.  A subterm in which leaf
    changed nothing is returned as the same object, not as a copy.
    """
    if type(t) is App:
        f, a = rebuild(t.fun, leaf, depth), rebuild(t.arg, leaf, depth)
        return t if f is t.fun and a is t.arg else App(f, a)
    if type(t) is Lam:
        b = rebuild(t.body, leaf, depth + 1)
        return t if b is t.body else Lam(t.dom, b)
    return leaf(t, depth)


def lam(x: Name, body: Term) -> Lam:
    """Bind the free variable x in body, yielding the abstraction over x."""
    if not x.is_var:
        raise ValueError(f"cannot bind logical constant {x!r}")
    v = Ref(x)
    return Lam(x.ty, rebuild(body, lambda s, d: Bound(d, x.ty) if s == v else s))


def shift(t: Term, by: int) -> Term:
    """Raise dangling de Bruijn indices by the given amount."""

    def lift(s: Term, d: int) -> Term:
        return Bound(s.index + by, s.ty) if type(s) is Bound and s.index >= d else s

    return rebuild(t, lift)


def instantiate(body: Term, u: Term) -> Term:
    """Replace the outermost binder's variable in a Lam body by u.

    u may itself contain dangling indices (references to binders enclosing
    the redex); they are shifted past the binders u is pushed under.
    """

    def put(s: Term, d: int) -> Term:
        if type(s) is not Bound or s.index < d:
            return s
        if s.index == d:
            return u if d == 0 else shift(u, d)
        return Bound(s.index - 1, s.ty)

    return rebuild(body, put)


def type_of(t: Term) -> Type:
    return t.ty


def spine(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Split nested applications: spine(h a b) = (h, (a, b))."""
    args: list[Term] = []
    while type(t) is App:
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, tuple(args)


def names(t: Term) -> Iterator[Name]:
    """Every free-name occurrence in t (constants included), leftmost first."""
    stack = [t]
    while stack:
        s = stack.pop()
        if type(s) is Ref:
            yield s.name
        elif type(s) is App:
            stack.append(s.arg)
            stack.append(s.fun)
        elif type(s) is Lam:
            stack.append(s.body)


def free_vars(t: Term) -> frozenset[Name]:
    """The free variables of t; logical constants are excluded."""
    return frozenset(t.fv)


def free_vars_ordered(t: Term) -> tuple[Name, ...]:
    """Free variables in order of first (leftmost) occurrence."""
    return t.fv


# ---------------------------------------------------------------------------
# Formula builders and destructurers (formulas are terms of type o)


_NOT_REF = Ref(NOT)
_IMP_REF = Ref(IMP)


def neg(s: Term) -> Term:
    return App(_NOT_REF, s)


def imp(s: Term, t: Term) -> Term:
    return App(App(_IMP_REF, s), t)


def eq(s: Term, t: Term) -> Term:
    if s.ty != t.ty:
        raise TypeError(
            f"equation between distinct types {show_type(s.ty)} and {show_type(t.ty)}"
        )
    return App(App(Ref(eq_const(s.ty)), s), t)


def diseq(s: Term, t: Term) -> Term:
    return neg(eq(s, t))


def forall(s: Term) -> Term:
    """Quantify over the domain of the predicate s : alpha -> o."""
    ty = s.ty
    if type(ty) is not Fun or ty.cod != o:
        raise TypeError(f"forall needs a predicate, got {show_type(ty)}")
    return App(Ref(forall_const(ty.dom)), s)


def as_neg(t: Term) -> Term | None:
    if type(t) is App and type(t.fun) is Ref and t.fun.name == NOT:
        return t.arg
    return None


def as_imp(t: Term) -> tuple[Term, Term] | None:
    if (
        type(t) is App
        and type(t.fun) is App
        and type(t.fun.fun) is Ref
        and t.fun.fun.name == IMP
    ):
        return t.fun.arg, t.arg
    return None


def as_eq(t: Term) -> tuple[Type, Term, Term] | None:
    """Destructure an equation: returns (sigma, lhs, rhs)."""
    if (
        type(t) is App
        and type(t.fun) is App
        and type(t.fun.fun) is Ref
        and not t.fun.fun.name.is_var
        and t.fun.fun.name.ident == "="
    ):
        return t.fun.arg.ty, t.fun.arg, t.arg
    return None


def as_diseq(t: Term) -> tuple[Type, Term, Term] | None:
    s = as_neg(t)
    return as_eq(s) if s is not None else None


def as_forall(t: Term) -> tuple[Type, Term] | None:
    """Destructure a quantified formula: returns (alpha, predicate)."""
    if (
        type(t) is App
        and type(t.fun) is Ref
        and not t.fun.name.is_var
        and t.fun.name.ident == "forall"
    ):
        return t.fun.name.ty.dom.dom, t.arg
    return None


def is_var_ref(t: Term) -> bool:
    return type(t) is Ref and t.name.is_var


# ---------------------------------------------------------------------------
# Printing (concrete syntax shared with the problem-file grammar)


def show_type(ty: Type) -> str:
    if type(ty) is Base:
        return ty.name
    parts: list[str] = []
    while type(ty) is Fun:
        parts.append(show_type(ty.dom))
        ty = ty.cod
    parts.append(show_type(ty))
    return "(> " + " ".join(parts) + ")"


_DISPLAY_SCHEME = ("x", "y", "z", "u", "v", "w")


def _display_names(used: set[str]) -> Iterator[str]:
    for d in _DISPLAY_SCHEME:
        if d not in used:
            yield d
    i = 1
    while True:
        for d in _DISPLAY_SCHEME:
            c = f"{d}{i}"
            if c not in used:
                yield c
        i += 1


def show_term(t: Term, memo: dict | None = None) -> str:
    """Concrete syntax for t; reparses to exactly t when grammar-expressible.

    Bare quantifier applications (forall applied to a non-abstraction) have
    no grammar form and print as a loud (!forall ...) marker instead.  The
    text of an application with no Lam and no Bound inside does not depend
    on binder names, so a caller printing many terms may pass one memo,
    which keeps that text per such subterm.
    """
    used: set[str] | None = None  # the names of t, read at the first binder
    binders = 0  # binders and bound variables printed so far

    def binder(env: tuple[str, ...]) -> str:
        nonlocal used, binders
        binders += 1
        if used is None:
            used = {n.ident for n in names(t)}
        for d in _display_names(used.union(env)):
            return d
        raise AssertionError

    def go(t: Term, env: tuple[str, ...]) -> str:
        nonlocal binders
        if type(t) is Ref:
            return t.name.ident
        if type(t) is Bound:
            binders += 1
            return env[-1 - t.index]
        if type(t) is Lam:
            x = binder(env)
            return f"(lam ({x} {show_type(t.dom)}) {go(t.body, env + (x,))})"
        text = None if memo is None else memo.get(t)
        if text is None:
            seen = binders
            text = app_text(t, env)
            if memo is not None and binders == seen:
                memo[t] = text
        return text

    def app_text(t: Term, env: tuple[str, ...]) -> str:
        head, args = spine(t)
        if type(head) is Ref and not head.name.is_var:
            n = head.name
            if n == NOT and len(args) == 1:
                return f"(not {go(args[0], env)})"
            if n == IMP and len(args) == 2:
                return f"(imp {go(args[0], env)} {go(args[1], env)})"
            if n.ident == "=" and len(args) == 2:
                return f"(= {go(args[0], env)} {go(args[1], env)})"
            if n.ident == "forall" and len(args) == 1:
                body = args[0]
                if type(body) is Lam:
                    x = binder(env)
                    return (
                        f"(forall ({x} {show_type(body.dom)}) "
                        f"{go(body.body, env + (x,))})"
                    )
                return f"(!forall {go(body, env)})"
            # Partially applied logical constant: not grammar-expressible.
            inner = " ".join(go(a, env) for a in args)
            return f"(!partial {n.ident}" + (f" {inner})" if inner else ")")
        parts = [go(head, env)] + [go(a, env) for a in args]
        return "(" + " ".join(parts) + ")"

    return go(t, ())
