"""
Extracting a finite model from a saturated branch
=================================================

When saturation ends without a contradiction the branch is evidence for
satisfiability, and a concrete finite model can be read off.  The domain
of each sort is its set of discriminants: maximal collections of terms
that the branch never forces apart.
"""

from hotab import (
    Name, Satisfiable, app, branch_of, check_model, decide, diseq,
    fun, ref, show_model, show_term, sort,
)
from hotab.semantics import discriminants

# three disequations over one sort: x, y, z cannot all be identified,
# but two element values suffice (x and z may coincide)
a = sort("a")
x, y, z = (Name(n, a) for n in ("x", "y", "z"))
g = Name("g", fun(a, a))
assumptions = (
    diseq(ref(x), ref(y)),
    diseq(ref(y), ref(z)),
    diseq(app(ref(g), ref(x)), ref(y)),
)
for s in assumptions:
    print("assume", show_term(s))

# this set is pure (disequations over o-free terms), so the restricted
# calculus decides it outright, with no node or time budget
verdict = decide(branch_of(*assumptions))
assert isinstance(verdict, Satisfiable)

# the saturated branch groups the discriminating terms into discriminants
# (model extraction computes them); each discriminant becomes one element of
# the extracted domain
for i, d in enumerate(discriminants(verdict.branch, a)):
    print(f"domain element {i}:", "{" + ", ".join(sorted(show_term(t) for t in d)) + "}")

# the extracted model is certified against the original assumptions
print("\n" + show_model(verdict.model))
assert check_model(verdict.model, assumptions)
print("model satisfies all assumptions: yes")
