"""
Problem files, fragment classification, and the command line
============================================================

Problems live in a small s-expression format: sort declarations,
variable declarations, assumptions.  The classifier reports which
decidable fragments a problem falls into, and the hotab command line
wires parsing, routing, proof output, and proof checking together.
"""

import tempfile
from pathlib import Path

from hotab import branch_of, classify_branch, parse
from hotab.cli import main

# a relational problem with a universal premise and an instance failure:
# every element is r-related to itself, but c is not related to c
text = """\
(sort a)
(var r (> a a o))
(var c a)
(assume (forall (x a) (r x x)))
(assume (not (r c c)))
"""
problem = parse(text)

# the quantifier prefix is outermost and every variable is relational or
# a sort element, so this is in the relational prefix class
report = classify_branch(problem.branch())
print(report.describe())

# the files go into a temporary directory that is removed at the end
with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    path = work / "relational.tab"
    path.write_text(text)

    # exit code 20 announces unsat; the proof file is written alongside
    proof = work / "relational.proof"
    code = main([str(path), "--proof-out", str(proof)])
    print("\nexit code:", code)

    print("\nproof file:")
    print(proof.read_text())

    # the checker replays the proof against the problem: exit code 0 is a pass
    code = main([str(path), "--check-proof", str(proof)])
    print("check exit code:", code)

    # dropping the universal premise leaves a satisfiable problem (exit 10)
    sat_path = work / "relational_sat.tab"
    lines = text.splitlines()
    sat_path.write_text("\n".join(lines[:3] + [lines[4]]) + "\n")
    code = main([str(sat_path)])
    print("\nexit code for the weakened problem:", code)
