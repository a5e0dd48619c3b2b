"""Problem files and external text representations.

The input grammar is s-expressions; `;` starts a comment running to the
end of the line:

  file    ::=  form*
  form    ::=  (sort SYM)  |  (var SYM type)  |  (assume term)
  type    ::=  o  |  SYM  |  (> type type+)            right-associative
  term    ::=  SYM
            |  (not term)  |  (imp term term)
            |  (= term term)  |  (neq term term)
            |  (forall (SYM SYM) term)  |  (lam (SYM type) term)
            |  (term term+)                            left-associative

`neq` abbreviates a negated equation; `forall` binds a variable of a
declared sort.  Every symbol is resolved against the declarations (or an
enclosing binder), sorts must be declared before use, and duplicate
declarations are errors.  Assumptions must have type o; they are
normalized on ingest and a notice records each assumption this changed.

Proof files use one line per rule application:

  <dots> <alt> <rule> (<premise term>*) [<instantiation>]

where the leading dots give the tree depth, <alt> is the index of the
alternative the line's subtree closes (omitted on the root line), and the
instantiation is `(name type)` for the witness rules introducing a fresh
variable, or `(term)` for the instantiation rules.  A `(term)` that is one
undeclared name introduces a new variable of the type the rule instantiates
at (the quantifier's sort for `forall-inst`, the domain for `fun-eq`).  A
new or fresh variable is in scope for the line's subtree.  Conclusions are
not written: they are recomputed from the rule, premises, and instantiation,
and replay validates every step against the branch it claims to extend.

Both formats are read from one regular-expression scan for tokens, and an
error's line and column are worked out only when it is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .branch import Branch, branch_of, classify
from .kernel import (
    App,
    Base,
    Bound,
    Lam,
    Name,
    Ref,
    Term,
    Type,
    diseq,
    eq,
    forall,
    forall_sort,
    fun,
    imp,
    is_sort,
    lam,
    neg,
    o,
    shift,
    show_term,
    show_type,
    sort,
)
from .normalize import normalize
from .rules import RULES, RuleId, RuleInstance, inst_type, make_instance
from .search import Proof

__all__ = [
    "ParseError",
    "Problem",
    "parse",
    "parse_proof",
    "serialize_problem",
    "serialize_proof",
]

_RESERVED = frozenset(
    {"o", ">", "not", "imp", "=", "neq", "forall", "lam", "sort", "var", "assume"}
)


class ParseError(Exception):
    """Input text rejected, with a 1-based line/column position."""

    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = f"{line}:{col}: " if line is not None else ""
        super().__init__(where + msg)


# ---------------------------------------------------------------------------
# Reading.  One regex scan gives the tokens: "(", ")" or a symbol, a maximal
# run of characters other than space, tab, CR, LF, parentheses and ";".  The
# list ends in "", so `tok not in "()"` holds for symbols only.  Readers build
# terms and lines from it and raise `_Bad(message, token index)`; only then
# come the checks the format puts first, for an unbalanced parenthesis
# (`_located`, which also finds line and column) and a form's item count
# (`_count`).  A `_Bad` with no message, a form cut short, is always replaced.

_TOKEN = re.compile(r";[^\n]*|([()]|[^ \t\r\n();]+)")


class _Bad(Exception):
    """A reader error at a token index; see `_located`."""


def _count(toks: list[str], i: int) -> int:
    """The number of items after toks[i] up to the parenthesis closing it."""
    n = depth = 0
    for tok in toks[i + 1 :]:
        if depth == 0 and tok in ")":  # ")" or the end
            break
        n += depth == 0
        depth += (tok == "(") - (tok == ")")
    return n


def _located(text: str, toks: list[str], bad, first_line: int = 1) -> ParseError:
    opened: list[int] = []
    for k, tok in enumerate(toks):
        if tok == "(":
            opened.append(k)
        elif tok == ")":
            if not opened:
                msg, at = "unmatched ')'", k
                break
            opened.pop()
    else:
        if opened:
            msg, at = "unclosed parenthesis", opened[-1]
        elif isinstance(bad, ParseError):
            return bad
        else:
            msg, at = bad.args
    pos = [m.start(1) for m in _TOKEN.finditer(text) if m.group(1)][at]
    line = first_line + text.count("\n", 0, pos)
    return ParseError(msg, line, pos - text.rfind("\n", 0, pos))


# ---------------------------------------------------------------------------
# Problems


@dataclass(frozen=True)
class Problem:
    """Declared sorts and variables plus the normalized assumptions."""

    sorts: tuple[Base, ...]
    variables: tuple[Name, ...]
    assumptions: tuple[Term, ...]
    notices: tuple[str, ...] = field(default=(), compare=False)

    def branch(self) -> Branch:
        return branch_of(*self.assumptions)


def _type(toks, i, sorts: dict[str, Base]) -> tuple[Type, int]:
    tok = toks[i]
    if tok not in "()":
        ty = o if tok == "o" else sorts.get(tok)
        if ty is None:
            raise _Bad(f"undeclared sort {tok!r}", i)
        return ty, i + 1
    if tok != "(" or toks[i + 1] != ">":
        raise _Bad("expected a type: o, a sort, or (> ...)", i)
    parts, j = [], i + 2
    try:
        while toks[j] != ")":
            ty, j = _type(toks, j, sorts)
            parts.append(ty)
        return fun(*parts), j + 1
    except (_Bad, ValueError):  # fun() wants two types at least
        if _count(toks, i) < 3:
            raise _Bad("(> ...) needs at least two types", i) from None
        raise


def _binder(toks, i, sorts, k=1, shape="expected a binder: (name type)", taken=()):
    """(name type) at toks[i], or the form there read from its k-th item."""
    try:
        ident = toks[i + k] if toks[i] == "(" else ")"
        if ident in "()":
            raise _Bad("", i)
        if ident in _RESERVED:
            raise _Bad(f"{ident!r} is reserved", i + k)
        if ident in taken:
            raise _Bad(f"duplicate variable {ident!r}", i + k)
        ty, j = _type(toks, i + k + 1, sorts)
        if toks[j] != ")":
            raise _Bad("", j)
    except _Bad:
        if toks[i] != "(" or toks[i + k] in "()" or _count(toks, i) != k + 1:
            raise _Bad(shape, i) from None
        raise
    return Name(ident, ty), j + 1


#: keyword -> items in its form, the keyword included, and its builder
_FORMS = {
    "not": (2, neg), "imp": (3, imp), "=": (3, eq), "neq": (3, diseq),
    "forall": (3, lambda x, body: forall(lam(x, body))), "lam": (3, lam),
}


def _term(toks, i, variables, sorts, scope) -> tuple[Term, int]:
    tok = toks[i]
    if tok not in "()":
        n = scope.get(tok) or variables.get(tok)
        if n is None:
            raise _Bad(f"undeclared name {tok!r}", i)
        return Ref(n), i + 1
    if tok != "(":
        raise _Bad("expected a term", i)
    kw = toks[i + 1]
    form = _FORMS.get(kw)
    if form is not None:
        n, build = form
        try:
            if kw != "forall" and kw != "lam":
                args, j = [], i + 2
                for _ in range(n - 1):
                    t, j = _term(toks, j, variables, sorts, scope)
                    args.append(t)
            else:
                x, j = _binder(toks, i + 2, sorts)
                if kw == "forall" and not is_sort(x.ty):
                    msg = "quantification needs a declared sort, got "
                    raise _Bad(msg + show_type(x.ty), i + 2)
                body, j = _term(toks, j, variables, sorts, {**scope, x.ident: x})
                args = [x, body]
            if toks[j] != ")":
                raise _Bad("", j)
        except _Bad:
            if _count(toks, i) != n:
                raise _Bad(
                    f"{kw} takes {n - 1} argument{'s' if n > 2 else ''}", i
                ) from None
            raise
        try:
            return build(*args), j + 1
        except TypeError as ex:
            raise _Bad(str(ex), i) from None
    if kw == ")":
        raise _Bad("empty application", i)
    t, j = _term(toks, i + 1, variables, sorts, scope)
    if toks[j] == ")":
        raise _Bad("application needs at least one argument", i)
    while toks[j] != ")":
        u, k = _term(toks, j, variables, sorts, scope)
        try:
            t = App(t, u)
        except TypeError as ex:
            raise _Bad(str(ex), j) from None
        j = k
    return t, j + 1


def parse(text: str) -> Problem:
    """Parse a problem file into declarations and a normalized branch."""
    sorts: dict[str, Base] = {}
    variables: dict[str, Name] = {}
    assumptions: list[Term] = []
    notices: list[str] = []
    toks = [*filter(None, _TOKEN.findall(text)), ""]
    i = 0
    try:
        while toks[i]:
            if toks[i] != "(" or toks[i + 1] in "()":
                raise _Bad("expected (sort ...), (var ...), or (assume ...)", i)
            kw, j = toks[i + 1], i + 2
            if kw == "sort":
                name = toks[j]
                if name in "()" or toks[j + 1] != ")":
                    raise _Bad("expected (sort name)", i)
                if name in _RESERVED:
                    raise _Bad(f"{name!r} is reserved", j)
                if name in sorts:
                    raise _Bad(f"duplicate sort {name!r}", j)
                sorts[name] = sort(name)
                i = j + 2
            elif kw == "var":
                x, i = _binder(toks, i, sorts, 2, "expected (var name type)", variables)
                variables[x.ident] = x
            elif kw == "assume":
                try:
                    t, k = _term(toks, j, variables, sorts, {})
                    if toks[k] != ")":
                        raise _Bad("", k)
                except _Bad:
                    if _count(toks, i) != 2:
                        raise _Bad("expected (assume term)", i) from None
                    raise
                if t.ty != o:
                    raise _Bad(
                        f"assumption must have type o, got {show_type(t.ty)}", j
                    )
                nt = normalize(t)
                if nt != t:
                    notices.append(
                        f"assumption {len(assumptions) + 1} was normalized to "
                        + show_term(nt)
                    )
                assumptions.append(nt)
                i = k + 1
            else:
                raise _Bad(f"unknown form {kw!r}", i + 1)
    except _Bad as bad:
        raise _located(text, toks, bad) from None
    return Problem(
        tuple(sorts.values()),
        tuple(variables.values()),
        tuple(assumptions),
        tuple(notices),
    )


def serialize_problem(p: Problem) -> str:
    """Problem as grammar text.  It parses back to the same Problem, except
    that a quantifier over a term that is not an abstraction, `forall p`,
    has no grammar form and is written as `forall x. p x`; the Problem
    parsed from the text serializes to the same text."""
    lines = [f"(sort {s.name})" for s in p.sorts]
    lines += [f"(var {n.ident} {show_type(n.ty)})" for n in p.variables]
    lines += [f"(assume {_show_eta(s)})" for s in p.assumptions]
    return "\n".join(lines) + ("\n" if lines else "")


def _show_eta(t: Term, memo: dict | None = None) -> str:
    """show_term(_eta_quantifiers(t)), with no walk if t has no bare
    quantifier; memo is show_term's."""
    text = show_term(t, memo)
    return show_term(_eta_quantifiers(t), memo) if "(!forall " in text else text


def _eta_quantifiers(t: Term) -> Term:
    """t with each quantifier operand p that is not an abstraction replaced
    by its eta-expansion `lam x. p x`."""
    if type(t) is Lam:
        body = _eta_quantifiers(t.body)
        return t if body is t.body else Lam(t.dom, body)
    if type(t) is not App:
        return t
    f, u = _eta_quantifiers(t.fun), _eta_quantifiers(t.arg)
    if type(f) is Ref and forall_sort(f.name) is not None and type(u) is not Lam:
        u = Lam(u.ty.dom, App(shift(u, 1), Bound(0, u.ty.dom)))
    return t if f is t.fun and u is t.arg else App(f, u)


# ---------------------------------------------------------------------------
# Proof files

def serialize_proof(proof: Proof) -> str:
    """One line per rule application, children indented under parents.
    Terms are written as `serialize_problem` writes assumptions, so the proof
    of a problem parses against that problem's text; each subterm's text is
    worked out once per proof (`show_term`'s memo)."""
    lines, memo = [], {}
    stack = [(proof, 0, None)]
    while stack:
        node, depth, alt = stack.pop()
        r = node.instance
        parts = []
        if depth:
            parts.append("." * depth)
            parts.append(str(alt))
        parts.append(r.rule.value)
        premises = (_show_eta(p, memo) for p in r.premises)
        parts.append("(" + " ".join(premises) + ")")
        if r.inst is not None:
            if RULES[r.rule].inst == "fresh":
                parts.append(
                    f"({r.inst.name.ident} {show_type(r.inst.name.ty)})"
                )
            else:
                parts.append(f"({_show_eta(r.inst, memo)})")
        lines.append(" ".join(parts))
        for i in range(len(node.children) - 1, -1, -1):
            stack.append((node.children[i], depth + 1, i))
    return "\n".join(lines) + "\n"


@dataclass
class _Node:
    lineno: int
    instance: RuleInstance
    child_scope: dict[str, Name]
    children: list


def _new_variable(toks, j, rule, premises, variables) -> Name | None:
    """The variable that a term instantiation `(name)` at toks[j] introduces
    when the name is undeclared and not reserved, typed as the rule
    instantiates its one premise; None otherwise."""
    ident = toks[j + 1]
    if ident in "()" or ident in variables or ident in _RESERVED or toks[j + 2] != ")":
        return None
    if len(premises) != 1 or premises[0].ty != o:
        return None
    info = classify(premises[0])
    return Name(ident, inst_type(info)) if info.kind in RULES[rule].kinds else None


def _proof_line(toks, i, lineno, variables, sorts):
    """One proof line from its rule name on: rule, premises, optional inst."""
    name = toks[i]
    if name in "()":
        raise ParseError("expected a rule name", lineno, 1)
    try:
        rule = RuleId(name)
    except ValueError:
        raise ParseError(f"unknown rule {name!r}", lineno, 1) from None
    if toks[i + 1] != "(":
        raise ParseError("expected a premise list", lineno, 1)
    premises, j = [], i + 2
    while toks[j] != ")":
        t, j = _term(toks, j, variables, sorts, {})
        premises.append(t)
    j += 1
    inst = fresh = None
    taken = RULES[rule].inst
    if taken is not None:
        try:
            if toks[j] != "(":
                raise _Bad("", j)
            if taken == "fresh":
                fresh, k = _binder(toks, j, sorts)
                inst = Ref(fresh)
            else:
                fresh = _new_variable(toks, j, rule, premises, variables)
                if fresh is not None:
                    inst, k = Ref(fresh), j + 2
                else:
                    inst, k = _term(toks, j + 1, variables, sorts, {})
                if toks[k] != ")":
                    raise _Bad("", k)
                k += 1
            if toks[k]:
                raise _Bad("", k)
        except _Bad:
            if toks[j] != "(" or _count(toks, j - 1) != 1:
                msg = f"{rule.value} needs an instantiation"
            elif taken == "term" and _count(toks, j) != 1:
                msg = f"{rule.value} takes one instantiation term"
            else:
                raise
            raise ParseError(msg, lineno, 1) from None
        if fresh is not None and fresh.ident in variables:
            raise ParseError(f"witness {fresh.ident!r} is already in scope", lineno, 1)
    elif toks[j]:
        raise ParseError(f"{rule.value} takes no instantiation", lineno, 1)
    try:
        instance = make_instance(rule, tuple(premises), inst)
    except (TypeError, ValueError) as ex:
        raise ParseError(str(ex), lineno, 1) from None
    return instance, fresh


def parse_proof(text: str, problem: Problem) -> Proof:
    """Parse a proof file against a problem's declarations.

    Witness rules bring their fresh variable, and a term instantiation its
    new variable, into scope for the lines of their subtree.  The resulting
    Proof still needs check_proof to be believed; parsing validates shapes
    only.
    """
    base_scope = {n.ident: n for n in problem.variables}
    sorts = {s.name: s for s in problem.sorts}
    root: Proof | None = None
    stack: list[_Node] = []

    def finalize(down_to: int) -> None:
        nonlocal root
        while len(stack) > down_to:
            nd = stack.pop()
            try:
                proof = Proof(nd.instance, tuple(nd.children))
            except ValueError:
                raise ParseError(
                    f"{nd.instance.rule.value} has "
                    f"{len(nd.instance.alternatives)} alternatives, "
                    f"{len(nd.children)} subtrees given",
                    nd.lineno,
                    1,
                ) from None
            if stack:
                stack[-1].children.append(proof)
            else:
                root = proof

    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split(";", 1)[0]
        line = body.strip()
        if not line:
            continue
        content = line.lstrip(".")
        depth = len(line) - len(content)
        start = len(body) - len(body.lstrip()) + depth  # content's offset in raw
        toks = [*filter(None, _TOKEN.findall(content)), ""]
        try:
            if depth:
                if not toks[0].isdecimal():
                    raise ParseError("expected an alternative index", lineno, start + 1)
                alt = int(toks[0])
            finalize(depth)
            if depth == 0:
                if root is not None or stack:
                    raise ParseError("a proof has a single root line", lineno, 1)
                scope = base_scope
            else:
                if len(stack) != depth:
                    raise ParseError("indentation skips a level", lineno, 1)
                if alt != len(stack[-1].children):
                    raise ParseError(
                        f"alternative {len(stack[-1].children)} expected, got {alt}",
                        lineno,
                        start + 1,
                    )
                scope = stack[-1].child_scope
            instance, fresh = _proof_line(toks, 1 if depth else 0, lineno, scope, sorts)
        except (_Bad, ParseError) as bad:
            # padded, so that columns count from the line as written
            raise _located(" " * start + content, toks, bad, lineno) from None
        child_scope = scope if fresh is None else {**scope, fresh.ident: fresh}
        stack.append(_Node(lineno, instance, child_scope, []))
    finalize(0)
    if root is None:
        raise ParseError("empty proof")
    return root
