"""Models of branches, over the frames of `models`: extraction, enumeration.

`extract_model` realizes a saturated branch as a finite model, following
the model-existence argument: each sort's domain is the branch's
`discriminants` at that sort (maximal sets of its discriminating terms with
no disequation between members), and first-order variables' values are read off
the branch (a cell, one tuple of discriminants, takes the truth value of the
atoms or the discriminant of the applications found there; a sort or truth
variable is one cell with no arguments).  Each variable's values are
streamed lazily as the product of per-cell candidate lists, branch-read
values first, so the whole function space is still searched but never
built.  Backtracking over these streams keeps an explicit stack, and the
result is certified by `check_model` before it is returned.

`enumerate_models` lists every model up to a domain size by brute force:
the test oracle and the satisfiability cross-check.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .branch import Branch, FormulaKind
from .kernel import (
    App,
    Base,
    Fun,
    Lam,
    Name,
    Ref,
    Term,
    Type,
    arg_types,
    free_vars,
    free_vars_ordered,
    is_sort,
    o,
    result_type,
    show_term,
    spine,
)
from .models import DEFAULT_MAX_TABLE, Frame, Model, check_model, eval_term


class NotEvident(Exception):
    """A saturated branch is not evident (`selection.is_evident`)."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"branch is not evident: {report.describe()}")


class ExtractionFailure(Exception):
    """No admissible assignment exists (internal invariant violation)."""


# ---------------------------------------------------------------------------
# Sort/variable collection


def _collect_types(t: Term, acc: set[Type]) -> None:
    acc.add(t.ty)
    if type(t) is App:
        _collect_types(t.fun, acc)
        _collect_types(t.arg, acc)
    elif type(t) is Lam:
        acc.add(t.dom)
        _collect_types(t.body, acc)


def sorts_in(formulas: Iterable[Term]) -> tuple[Base, ...]:
    """Every sort occurring in any type of any subterm, deterministically."""
    tys: set[Type] = set()
    for s in formulas:
        _collect_types(s, tys)
    out: dict[Base, None] = {}

    def walk(ty: Type):
        if type(ty) is Base:
            if ty != o:
                out.setdefault(ty)
        else:
            walk(ty.dom)
            walk(ty.cod)

    for ty in tys:
        walk(ty)
    return tuple(sorted(out, key=lambda s: s.name))


def variables_in(formulas: Iterable[Term]) -> tuple[Name, ...]:
    """Free variables of the formulas in first-occurrence order."""
    seen: dict[Name, None] = {}
    for s in formulas:
        for n in free_vars_ordered(s):
            seen.setdefault(n)
    return tuple(seen)


# ---------------------------------------------------------------------------
# Discriminants


def discriminants(branch: Branch, at: Type) -> tuple[frozenset[Term], ...]:
    """Maximal sets of the branch's discriminating terms at a type with no
    disequation between members, deterministically.

    With no disequations at the type this is (frozenset(),): the branch
    induces a one-element domain.
    """
    vs = branch.discriminating_terms(at)
    conflict: dict[Term, set[Term]] = {v: set() for v in vs}
    for d in branch.disequations(at):
        info = branch.info(d)
        conflict[info.lhs].add(info.rhs)
        conflict[info.rhs].add(info.lhs)
    return _max_independent_sets(vs, conflict)


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


# ---------------------------------------------------------------------------
# Model extraction from a saturated branch


def extract_model(branch: Branch, max_table: int = DEFAULT_MAX_TABLE) -> Model:
    """Build a finite model of a saturated (evident) branch.

    Sorts take their discriminants as domains.  Every variable gets a lazy
    stream of values, the product of one candidate list per cell of its
    table (a sort or truth variable has one cell), where a first-order
    variable's cells offer the values read off the branch first
    (`_cell_candidates`): a sort variable's discriminants that hold it, a
    truth variable's sign on the branch.  Each stream still covers the
    whole space of the variable's type.  Variables are assigned depth-first
    with an explicit stack of these streams, each member is checked as soon
    as its variables are assigned, and the result is certified by
    check_model before it is returned.  The table ceiling is checked before
    each stream is opened.  Evidence is the caller's to check (`refute` runs
    `selection.is_evident` first); on a branch that is not evident, extraction
    may fail with ExtractionFailure.
    """
    discs: dict[Base, tuple[frozenset, ...]] = {
        s: discriminants(branch, s) for s in sorts_in(branch.formulas)
    }
    frame = Frame(
        {s: len(d) for s, d in discs.items()},
        sort_labels={s: d for s, d in discs.items()},
        max_table=max_table,
    )

    variables = branch.free_names
    sort_vars = [n for n in variables if is_sort(n.ty)]
    bool_vars = [n for n in variables if n.ty == o]
    fun_vars = [n for n in variables if type(n.ty) is Fun]
    order = sort_vars + bool_vars + fun_vars

    def candidates(n: Name) -> Iterator:
        frame.size(n.ty)  # ceiling check before streaming any table
        cells, shape = _cell_candidates(branch, frame, discs, n)
        return (_nest(row, shape) for row in itertools.product(*cells))

    # check each formula as soon as all its variables are assigned
    position = {n: i for i, n in enumerate(order)}
    triggers: dict[int, list[Term]] = {}
    for s in branch.formulas:
        fv = free_vars(s)
        trigger = max((position[n] for n in fv), default=-1)
        triggers.setdefault(trigger, []).append(s)

    model = Model(frame, {})
    for s in triggers.get(-1, ()):  # variable-free members
        if eval_term(model, s) != 1:
            raise ExtractionFailure(f"closed formula {show_term(s)} is false")

    assignment = model.interp
    streams: list[Iterator] = []  # streams[i]: the untried values of order[i]
    i = 0
    while i < len(order):
        n = order[i]
        if i == len(streams):
            streams.append(iter(candidates(n)))
        for v in streams[i]:
            assignment[n] = v
            if all(eval_term(model, s) == 1 for s in triggers.get(i, ())):
                i += 1
                break
        else:  # no value left for order[i]: revise order[i - 1]
            streams.pop()
            assignment.pop(n, None)
            i -= 1
            if i < 0:
                raise ExtractionFailure(
                    "no admissible assignment over the discriminant frame"
                )
    if not check_model(model, branch.formulas):
        raise ExtractionFailure("extracted model failed certification")
    return model


def _cell_candidates(
    branch: Branch, frame: Frame, discs: dict[Base, tuple[frozenset, ...]], n: Name
) -> tuple[list, tuple[int, ...]]:
    """The candidate values of each cell of n's table, and the table's shape.

    A cell is one argument point of the table; cells are listed in the
    table's enumeration order.  A first-order variable (sort arguments, sort
    or o result) has one cell per tuple of discriminants, and the cell lists
    first the values the branch shows there: 1 for a positive and 0 for a
    negative atom of n whose arguments lie in those discriminants, or each
    discriminant holding an application of n to such arguments.  The other
    values follow in ascending order.  A sort or truth variable is the case
    with no arguments: one cell, and the shape ().  A higher-order variable's cells are
    the points of its domain, each ranging over the whole codomain.
    """
    args, res = arg_types(n.ty), result_type(n.ty)
    if not (all(is_sort(s) for s in args) and (res == o or is_sort(res))):
        size = frame.size(n.ty.dom)
        return [frame.domain(n.ty.cod)] * size, (size,)

    where: dict[Base, dict[Term, list[int]]] = {s: {} for s in args}
    for s, terms in where.items():  # term -> the discriminants holding it
        for i, d in enumerate(discs[s]):
            for t in d:
                terms.setdefault(t, []).append(i)

    def cells_of(ts: tuple[Term, ...]) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(where[s].get(t, ()) for s, t in zip(args, ts)))

    shown: dict[tuple[int, ...], dict[int, None]] = {}
    if res == o:
        for value, kind in ((1, FormulaKind.POS_ATOM), (0, FormulaKind.NEG_ATOM)):
            for s, _ in branch.group(kind, n):
                for cell in cells_of(branch.info(s).args):
                    shown.setdefault(cell, {})[value] = None
    else:
        for j, d in enumerate(discs[res]):
            for t in d:
                head, ts = spine(t)
                if type(head) is Ref and head.name == n:
                    for cell in cells_of(ts):
                        shown.setdefault(cell, {})[j] = None
    shape = tuple(frame.size(s) for s in args)
    values = range(frame.size(res))
    cells = [
        list(dict.fromkeys((*shown.get(cell, ()), *values)))
        for cell in itertools.product(*map(range, shape))
    ]
    return cells, shape


def _nest(row: tuple, shape: tuple[int, ...]) -> tuple:
    """Regroup a row of cell values into the curried table of that shape;
    the shape () takes one cell, whose value is returned."""
    if not shape:
        return row[0]
    for m in reversed(shape[1:]):
        row = tuple(row[i : i + m] for i in range(0, len(row), m))
    return row


# ---------------------------------------------------------------------------
# Brute-force enumeration (test oracle and sat cross-check)


def enumerate_models(
    formulas: Iterable[Term],
    max_size: int = 3,
    max_table: int = DEFAULT_MAX_TABLE,
) -> Iterator[Model]:
    """All models over all standard frames with sort domains up to max_size.

    Exhaustive and deterministic; exponential in everything, so callers keep
    the inputs small.  Sorts not mentioned by the formulas are omitted.
    """
    formulas = tuple(formulas)
    sorts = sorts_in(formulas)
    variables = variables_in(formulas)
    for sizes in itertools.product(range(1, max_size + 1), repeat=len(sorts)):
        frame = Frame(dict(zip(sorts, sizes)), max_table=max_table)
        domains = [frame.domain(n.ty) for n in variables]
        for values in itertools.product(*domains):
            model = Model(frame, dict(zip(variables, values)))
            if check_model(model, formulas):
                yield model


def has_model(formulas: Iterable[Term], max_size: int = 3) -> bool:
    for _ in enumerate_models(formulas, max_size):
        return True
    return False
