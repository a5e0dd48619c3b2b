"""Fragment classification and the terminating decision procedures.

The restricted calculus decides three branch classes outright:

  * lambda-free: restricted-signature branches with no abstraction anywhere;
  * pure: branches of disequations whose names all have o-free types;
  * relational prefix class: restricted-signature branches where every
    variable's type is a sort, o, or sorts -> o, and no quantifier occurs
    beneath a negation or implication.

`classify_branch` reports, for each fragment flag, the first violating
member and subterm; `decide` runs budget-free restricted-calculus search on
branches inside one of the decidable classes and refuses everything else
loudly.  `efo_violation`, `quasi_efo_violation` and `FragmentViolation`
come from `rules`, whose restricted-calculus language test uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branch import Branch
from .kernel import (
    App,
    Base,
    Fun,
    Lam,
    Ref,
    Term,
    Type,
    as_diseq,
    as_forall,
    as_imp,
    as_neg,
    is_sort,
    o,
    show_term,
)
from .rules import FragmentViolation, efo_violation, quasi_efo_violation
from .search import SearchConfig, refute


# ---------------------------------------------------------------------------
# Term- and formula-level classifiers.  Each returns the first offending
# subterm, or None when the property holds, so reports carry witnesses.


def lam_subterm(t: Term) -> Term | None:
    if type(t) is Lam:
        return t
    if type(t) is App:
        return lam_subterm(t.fun) or lam_subterm(t.arg)
    return None


def _o_free(ty: Type) -> bool:
    if ty == o:
        return False
    if type(ty) is Base:
        return True
    return _o_free(ty.dom) and _o_free(ty.cod)


def pure_violation(s: Term) -> Term | None:
    """A pure member is a disequation whose sides use only o-free names."""
    d = as_diseq(s)
    if d is None:
        return s

    def check(t: Term) -> Term | None:
        if type(t) is Ref:
            return None if _o_free(t.name.ty) else t
        if type(t) is App:
            return check(t.fun) or check(t.arg)
        if type(t) is Lam:
            if not _o_free(t.dom):
                return t
            return check(t.body)
        return None

    return check(d[1]) or check(d[2])


def _relational_type(ty: Type) -> bool:
    """A sort, o, or a chain of sorts ending in o."""
    if ty == o or is_sort(ty):
        return True
    while type(ty) is Fun:
        if not is_sort(ty.dom):
            return False
        ty = ty.cod
    return ty == o


def bsr_violation(s: Term) -> Term | None:
    """Restricted signature, relational variable types, and no quantifier
    beneath a negation or implication."""
    v = efo_violation(s)
    if v is not None:
        return v

    def walk(t: Term, guarded: bool) -> Term | None:
        if type(t) is Ref:
            if t.name.is_var and not _relational_type(t.name.ty):
                return t
            return None
        if type(t) is Lam:
            if not _relational_type(t.dom):
                return t
            return walk(t.body, guarded)
        if type(t) is App:
            w = as_neg(t)
            if w is not None:
                return walk(w, True)
            i = as_imp(t)
            if i is not None:
                return walk(i[0], True) or walk(i[1], True)
            f = as_forall(t)
            if f is not None:
                if guarded:
                    return t
                return walk(f[1], False)
            return walk(t.fun, guarded) or walk(t.arg, guarded)
        return None

    return walk(s, False)


# ---------------------------------------------------------------------------
# Branch-level report


@dataclass(frozen=True)
class FragmentReport:
    """Per-branch fragment flags with first-violation witnesses.

    Each witness is a (member, subterm) pair explaining why the flag is
    False, or None when the flag holds.
    """

    is_efo: bool
    is_quasi_efo: bool
    is_lambda_free: bool
    is_pure: bool
    is_bsr: bool
    witnesses: dict

    def decidable(self) -> bool:
        return self.is_quasi_efo and (
            self.is_lambda_free or self.is_pure or self.is_bsr
        )

    def describe(self) -> str:
        lines = []
        for flag in ("efo", "quasi-efo", "lambda-free", "pure", "bsr"):
            ok = getattr(self, "is_" + flag.replace("-", "_"))
            if ok:
                lines.append(f"{flag}: yes")
            else:
                member, sub = self.witnesses[flag]
                lines.append(
                    f"{flag}: no ({show_term(sub)} in {show_term(member)})"
                )
        return "\n".join(lines)


def classify_branch(branch_or_formulas) -> FragmentReport:
    formulas = tuple(branch_or_formulas)
    checks = {
        "efo": efo_violation,
        "quasi-efo": quasi_efo_violation,
        "lambda-free": lam_subterm,
        "pure": pure_violation,
        "bsr": bsr_violation,
    }
    flags = {}
    witnesses = {}
    for flag, check in checks.items():
        witness = None
        for s in formulas:
            sub = check(s)
            if sub is not None:
                witness = (s, sub)
                break
        flags[flag] = witness is None
        witnesses[flag] = witness
    if flags["lambda-free"] and not flags["quasi-efo"]:
        # the flag is conjunctive: a branch outside the restricted language
        # is not lambda-free in the decidable sense even without abstractions
        witnesses["lambda-free"] = witnesses["quasi-efo"]
    return FragmentReport(
        is_efo=flags["efo"],
        is_quasi_efo=flags["quasi-efo"],
        is_lambda_free=flags["lambda-free"] and flags["quasi-efo"],
        is_pure=flags["pure"],
        is_bsr=flags["bsr"],
        witnesses=witnesses,
    )


def decide(branch: Branch):
    """Decide a branch in one of the terminating fragments.

    Returns a Verdict (Refuted with proof, or Satisfiable with a checked
    model); raises FragmentViolation outside the decidable classes.  The
    search terminates on these classes, so it runs without node or time
    limits.  (`refute` in auto mode takes the same path on this input, as
    the command line does.)
    """
    report = classify_branch(branch)
    if not report.decidable():
        raise FragmentViolation(
            "branch is not in a decidable fragment:\n" + report.describe()
        )
    return refute(branch, SearchConfig(calculus="efo", max_nodes=None, timeout=None))
