"""Capture-avoiding substitution and beta-normalization.

Normalization is pure beta reduction (no eta), contracting the leftmost
outermost redex first; on simply typed terms every strategy reaches the same
unique normal form, so the choice only fixes the reduction order.  In the
index-based term representation name-keyed substitution cannot capture:
replacement terms carry no loose indices and bound variables carry no names.
Substitution is a leaf map over `kernel.rebuild`, so a term it leaves
unchanged comes back as the same object.  Index instantiation inside a redex
can meet loose indices (the argument may refer to binders enclosing the
redex); the kernel shifts them as it pushes the argument under binders.

Laws relied on elsewhere (and pinned by the test suite):
  * normalize is idempotent and type-preserving;
  * normalize(App(normalize(s), t)) == normalize(App(s, t));
  * a normal term of base type with a name at the head normalizes argumentwise;
  * substitution commutes with application and, through one beta step, with
    abstraction: normalize(App(substitute(th, lam(x, s)), t)) equals
    normalize(substitute(th | {x: t}, s)) whenever t is free for the binding.
"""

from __future__ import annotations

from .kernel import App, Lam, Name, Ref, Term, instantiate, rebuild

Substitution = dict[Name, Term]


def check_substitution(theta: Substitution) -> None:
    """Reject ill-typed or constant-rebinding substitutions loudly."""
    for x, u in theta.items():
        if not x.is_var:
            raise TypeError(f"substitution rebinds logical constant {x!r}")
        if x.ty != u.ty:
            raise TypeError(
                f"substitution maps {x!r} to a term of type {u.ty!r}"
            )


def substitute(theta: Substitution, t: Term) -> Term:
    """Replace free occurrences of theta's domain in t by their images."""
    if not theta:
        return t
    check_substitution(theta)

    return rebuild(t, lambda s, d: theta.get(s.name, s) if type(s) is Ref else s)


def normalize(t: Term) -> Term:
    """The beta-normal form of t; a normal t is returned as it is."""
    if t.normal:
        return t
    if type(t) is App:
        f = normalize(t.fun)
        if type(f) is Lam:
            return normalize(instantiate(f.body, t.arg))
        a = normalize(t.arg)
        return t if f is t.fun and a is t.arg else App(f, a)
    if type(t) is Lam:
        b = normalize(t.body)
        return t if b is t.body else Lam(t.dom, b)
    return t


def is_normal(t: Term) -> bool:
    """True iff t contains no beta redex: the flag t got when it was built."""
    return t.normal


def apply_norm(f: Term, *args: Term) -> Term:
    """Normal form of f applied to args, for f and args already normal.

    Each application step contracts at most one redex (the abstraction case),
    so this is cheap inside rule instantiation where everything is normal.
    """
    for a in args:
        if type(f) is Lam:
            f = normalize(instantiate(f.body, a))
        else:
            f = App(f, a)
    return f
