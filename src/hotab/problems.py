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
variable, or `(term)` for the instantiation rules.  Conclusions are not
written: they are recomputed from the rule, premises, and instantiation,
and replay validates every step against the branch it claims to extend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .branch import Branch, branch_of
from .kernel import (
    Base,
    Name,
    Term,
    Type,
    app,
    eq,
    forall,
    fun,
    imp,
    is_sort,
    lam,
    neg,
    o,
    ref,
    show_term,
    show_type,
    sort,
)
from .normalize import normalize
from .rules import RULES, RuleId, RuleInstance, make_instance
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
# Lexing and reading: tokens -> nested ("sym"|"list", payload, line, col)


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _lex(text: str, first_line: int = 1):
    toks = []
    line, col = first_line, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in "()":
            toks.append(_Tok(c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            toks.append(_Tok(text[i:j], line, col))
            col += j - i
            i = j
    return toks


def _read(toks, i):
    t = toks[i]
    if t.text == "(":
        items = []
        i += 1
        while True:
            if i >= len(toks):
                raise ParseError("unclosed parenthesis", t.line, t.col)
            if toks[i].text == ")":
                return ("list", tuple(items), t.line, t.col), i + 1
            node, i = _read(toks, i)
            items.append(node)
    if t.text == ")":
        raise ParseError("unmatched ')'", t.line, t.col)
    return ("sym", t.text, t.line, t.col), i + 1


def _read_all(toks):
    out, i = [], 0
    while i < len(toks):
        node, i = _read(toks, i)
        out.append(node)
    return out


def _is_sym(sx, text=None) -> bool:
    return sx[0] == "sym" and (text is None or sx[1] == text)


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


def _parse_type(sx, sorts: dict[str, Base]) -> Type:
    if _is_sym(sx):
        if sx[1] == "o":
            return o
        ty = sorts.get(sx[1])
        if ty is None:
            raise ParseError(f"undeclared sort {sx[1]!r}", sx[2], sx[3])
        return ty
    items = sx[1]
    if not items or not _is_sym(items[0], ">"):
        raise ParseError("expected a type: o, a sort, or (> ...)", sx[2], sx[3])
    if len(items) < 3:
        raise ParseError("(> ...) needs at least two types", sx[2], sx[3])
    return fun(*(_parse_type(p, sorts) for p in items[1:]))


def _parse_binder(sx, sorts: dict[str, Base]) -> Name:
    if sx[0] != "list" or len(sx[1]) != 2 or not _is_sym(sx[1][0]):
        raise ParseError("expected a binder: (name type)", sx[2], sx[3])
    ident_sx, ty_sx = sx[1]
    if ident_sx[1] in _RESERVED:
        raise ParseError(f"{ident_sx[1]!r} is reserved", ident_sx[2], ident_sx[3])
    return Name(ident_sx[1], _parse_type(ty_sx, sorts))


def _parse_term(sx, variables, sorts, scope) -> Term:
    if _is_sym(sx):
        ident = sx[1]
        for known, n in reversed(scope):
            if known == ident:
                return ref(n)
        n = variables.get(ident)
        if n is None:
            raise ParseError(f"undeclared name {ident!r}", sx[2], sx[3])
        return ref(n)
    items = sx[1]
    if not items:
        raise ParseError("empty application", sx[2], sx[3])
    head = items[0]
    if _is_sym(head):
        kw = head[1]
        if kw == "not":
            _arity(items, 2, sx)
            return neg(_parse_term(items[1], variables, sorts, scope))
        if kw == "imp":
            _arity(items, 3, sx)
            return imp(
                _parse_term(items[1], variables, sorts, scope),
                _parse_term(items[2], variables, sorts, scope),
            )
        if kw in ("=", "neq"):
            _arity(items, 3, sx)
            l = _parse_term(items[1], variables, sorts, scope)
            r = _parse_term(items[2], variables, sorts, scope)
            try:
                e = eq(l, r)
            except TypeError as ex:
                raise ParseError(str(ex), sx[2], sx[3]) from None
            return neg(e) if kw == "neq" else e
        if kw in ("forall", "lam"):
            _arity(items, 3, sx)
            binder = _parse_binder(items[1], sorts)
            if kw == "forall" and not is_sort(binder.ty):
                raise ParseError(
                    f"quantification needs a declared sort, got {show_type(binder.ty)}",
                    items[1][2],
                    items[1][3],
                )
            body = _parse_term(
                items[2], variables, sorts, scope + ((binder.ident, binder),)
            )
            f = lam(binder, body)
            if kw == "lam":
                return f
            try:
                return forall(f)
            except TypeError as ex:
                raise ParseError(str(ex), sx[2], sx[3]) from None
    t = _parse_term(head, variables, sorts, scope)
    if len(items) == 1:
        raise ParseError("application needs at least one argument", sx[2], sx[3])
    for arg_sx in items[1:]:
        u = _parse_term(arg_sx, variables, sorts, scope)
        try:
            t = app(t, u)
        except TypeError as ex:
            raise ParseError(str(ex), arg_sx[2], arg_sx[3]) from None
    return t


def _arity(items, n, sx) -> None:
    if len(items) != n:
        raise ParseError(
            f"{items[0][1]} takes {n - 1} argument{'s' if n > 2 else ''}",
            sx[2],
            sx[3],
        )


def parse(text: str) -> Problem:
    """Parse a problem file into declarations and a normalized branch."""
    sorts: dict[str, Base] = {}
    variables: dict[str, Name] = {}
    assumptions: list[Term] = []
    notices: list[str] = []
    for form in _read_all(_lex(text)):
        if form[0] != "list" or not form[1] or not _is_sym(form[1][0]):
            raise ParseError(
                "expected (sort ...), (var ...), or (assume ...)", form[2], form[3]
            )
        head, *args = form[1]
        kw = head[1]
        if kw == "sort":
            if len(args) != 1 or not _is_sym(args[0]):
                raise ParseError("expected (sort name)", form[2], form[3])
            name = args[0][1]
            if name in _RESERVED:
                raise ParseError(f"{name!r} is reserved", args[0][2], args[0][3])
            if name in sorts:
                raise ParseError(f"duplicate sort {name!r}", args[0][2], args[0][3])
            sorts[name] = sort(name)
        elif kw == "var":
            if len(args) != 2 or not _is_sym(args[0]):
                raise ParseError("expected (var name type)", form[2], form[3])
            name = args[0][1]
            if name in _RESERVED:
                raise ParseError(f"{name!r} is reserved", args[0][2], args[0][3])
            if name in variables:
                raise ParseError(
                    f"duplicate variable {name!r}", args[0][2], args[0][3]
                )
            variables[name] = Name(name, _parse_type(args[1], sorts))
        elif kw == "assume":
            if len(args) != 1:
                raise ParseError("expected (assume term)", form[2], form[3])
            t = _parse_term(args[0], variables, sorts, ())
            if t.ty != o:
                raise ParseError(
                    f"assumption must have type o, got {show_type(t.ty)}",
                    args[0][2],
                    args[0][3],
                )
            nt = normalize(t)
            if nt != t:
                notices.append(
                    f"assumption {len(assumptions) + 1} was normalized to "
                    + show_term(nt)
                )
            assumptions.append(nt)
        else:
            raise ParseError(f"unknown form {kw!r}", head[2], head[3])
    return Problem(
        tuple(sorts.values()),
        tuple(variables.values()),
        tuple(assumptions),
        tuple(notices),
    )


def serialize_problem(p: Problem) -> str:
    """Problem as grammar text; parses back to an equal Problem."""
    lines = [f"(sort {s.name})" for s in p.sorts]
    lines += [f"(var {n.ident} {show_type(n.ty)})" for n in p.variables]
    lines += [f"(assume {show_term(s)})" for s in p.assumptions]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Proof files

def serialize_proof(proof: Proof) -> str:
    """One line per rule application, children indented under parents."""
    lines = []
    stack = [(proof, 0, None)]
    while stack:
        node, depth, alt = stack.pop()
        r = node.instance
        parts = []
        if depth:
            parts.append("." * depth)
            parts.append(str(alt))
        parts.append(r.rule.value)
        parts.append("(" + " ".join(show_term(p) for p in r.premises) + ")")
        if r.inst is not None:
            if RULES[r.rule].inst == "fresh":
                parts.append(
                    f"({r.inst.name.ident} {show_type(r.inst.name.ty)})"
                )
            else:
                parts.append(f"({show_term(r.inst)})")
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


def _parse_proof_line(lineno, depth, sexps, variables, sorts):
    """One proof line after the dots: rule, premises, optional inst."""
    if not sexps or not _is_sym(sexps[0]):
        raise ParseError("expected a rule name", lineno, 1)
    try:
        rule = RuleId(sexps[0][1])
    except ValueError:
        raise ParseError(f"unknown rule {sexps[0][1]!r}", lineno, 1) from None
    if len(sexps) < 2 or sexps[1][0] != "list":
        raise ParseError("expected a premise list", lineno, 1)
    premises = tuple(
        _parse_term(p, variables, sorts, ()) for p in sexps[1][1]
    )
    inst = None
    fresh = None
    taken = RULES[rule].inst
    if taken is not None:
        if len(sexps) != 3 or sexps[2][0] != "list":
            raise ParseError(f"{rule.value} needs an instantiation", lineno, 1)
        box = sexps[2][1]
        if taken == "fresh":
            fresh = _parse_binder(sexps[2], sorts)
            if fresh.ident in variables:
                raise ParseError(
                    f"witness {fresh.ident!r} is already in scope", lineno, 1
                )
            inst = ref(fresh)
        else:
            if len(box) != 1:
                raise ParseError(
                    f"{rule.value} takes one instantiation term", lineno, 1
                )
            inst = _parse_term(box[0], variables, sorts, ())
    elif len(sexps) != 2:
        raise ParseError(f"{rule.value} takes no instantiation", lineno, 1)
    try:
        instance = make_instance(rule, premises, inst)
    except (TypeError, ValueError) as ex:
        raise ParseError(str(ex), lineno, 1) from None
    return instance, fresh


def parse_proof(text: str, problem: Problem) -> Proof:
    """Parse a proof file against a problem's declarations.

    Witness rules bring their fresh variable into scope for the lines of
    their subtree.  The resulting Proof still needs check_proof to be
    believed; parsing validates shapes only.
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
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        depth = 0
        while depth < len(line) and line[depth] == ".":
            depth += 1
        sexps = _read_all(_lex(line[depth:], first_line=lineno))
        if depth:
            if not sexps or not _is_sym(sexps[0]) or not sexps[0][1].isdigit():
                raise ParseError("expected an alternative index", lineno, depth + 1)
            alt = int(sexps[0][1])
            sexps = sexps[1:]
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
                    depth + 1,
                )
            scope = stack[-1].child_scope
        instance, fresh = _parse_proof_line(lineno, depth, sexps, scope, sorts)
        child_scope = scope
        if fresh is not None:
            child_scope = {**scope, fresh.ident: fresh}
        stack.append(_Node(lineno, instance, child_scope, []))
    finalize(0)
    if root is None:
        raise ParseError("empty proof")
    return root
