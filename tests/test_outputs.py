"""Every output of a fixed problem set, pinned by digest.

Each problem is refuted with calculus auto, efo and stt, and decided
where `classify_branch` says it is decidable.  A run's output is its
verdict with the proof file text, the model text with the evidence report,
the `Unknown` reason, or the exception's type and message.  The first 16
hex digits of its sha256 are kept in outputs.json, keyed
"problem|calculus" ("problem|decide").

A change that is meant to keep every proof, model and message the same
must leave the digests as they are.  No output may depend on which terms
the kernel shares, or on which instances the table `rules.instance_of`
fills shares: the digests must come out the same when every term, or every
instance, is built afresh.  Run this file as a script to compare without
pytest (`PYTHONPATH=src python tests/test_outputs.py`), or with `--record`
to write the digests of the code on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from hotab import kernel, rules
from hotab.branch import branch_of
from hotab.fragments import classify_branch, decide
from hotab.normalize import normalize
from hotab.models import show_model
from hotab.problems import parse, serialize_proof
from hotab.search import Refuted, Satisfiable, SearchConfig, refute
from hotab.selection import is_evident

from helpers import (
    Gen,
    acceptance_corpus,
    chain_text,
    clique_text,
    double_neg_mate_text,
    fclique_text,
    rel_text,
)

DIGESTS = Path(__file__).with_name("outputs.json")

_TEXTS = {
    **{f"chain({n})": chain_text(n) for n in (2, 3, 4, 6)},
    "cliqueU(5)": clique_text(
        5, "(assume (forall (x a) (imp (neq x c0) (= x c1))))"
    ),
    **{f"rel({k})": rel_text(k) for k in range(2, 6)},
    **{f"fclique({k})": fclique_text(k) for k in range(3, 8)},
    **{f"double-neg({r})": double_neg_mate_text(r) for r in ("=", "neq")},
    # x0 occurs in no assumption, but it is declared, so the witness of the
    # negated quantifier must be named otherwise
    "reserved-x0": "(sort a)(var p (> a o))(var x0 a)"
    "(assume (not (forall (x a) (p x))))(assume (forall (x a) (p x)))",
}


def problems():
    """(key, formulas, reserved names, node budget) per pinned problem."""
    for key, text in _TEXTS.items():
        p = parse(text)
        yield key, p.assumptions, p.variables, 3000
    for i, (tag, forms) in enumerate(acceptance_corpus()):
        yield f"corpus#{i}:{tag}", forms, (), 3000
    for i in range(50):
        g = Gen(20000 + i)
        forms = tuple(normalize(g.efo_formula(2, quasi=True)) for _ in range(3))
        yield f"efo-gen({20000 + i})", forms, (), 200
    for i in range(50):
        g = Gen(21000 + i)
        forms = tuple(normalize(g.formula(2)) for _ in range(3))
        yield f"stt-gen({21000 + i})", forms, (), 200


def _output(run, *args) -> str:
    try:
        v = run(*args)
        if isinstance(v, Refuted):
            return f"unsat {v.calculus}\n{serialize_proof(v.proof)}"
        if isinstance(v, Satisfiable):
            return f"sat\n{show_model(v.model)}\n{is_evident(v.branch).describe()}"
        return f"unknown\n{v.reason}"
    except Exception as ex:
        return f"{type(ex).__name__}: {ex}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(pinned=None) -> dict[str, str]:
    """Digest of every output of the pinned problems (default: problems())."""
    out = {}
    for key, forms, reserved, budget in pinned or problems():
        for calculus in ("auto", "efo", "stt"):
            cfg = SearchConfig(
                calculus=calculus, max_nodes=budget, timeout=None, reserved=reserved
            )
            out[f"{key}|{calculus}"] = _digest(_output(refute, forms, cfg))
        branch = branch_of(*forms)
        if classify_branch(branch).decidable():
            out[f"{key}|decide"] = _digest(_output(decide, branch))
    return out


def differing(recorded: dict[str, str], got: dict[str, str]) -> list[str]:
    keys = recorded.keys() | got.keys()
    return sorted(k for k in keys if recorded.get(k) != got.get(k))


def test_every_output_matches_its_recorded_digest():
    differ = differing(json.loads(DIGESTS.read_text()), digests())
    assert not differ, f"{len(differ)} outputs differ: " + ", ".join(differ)


def test_outputs_do_not_depend_on_term_sharing(monkeypatch):
    # the kernel's table is emptied before each problem and keeps one term
    # at most, so nearly every term is built afresh
    monkeypatch.setattr(kernel, "SHARED_BOUND", 1)

    def emptied_first():
        for pinned in problems():
            kernel._shared.clear()
            yield pinned

    differ = differing(json.loads(DIGESTS.read_text()), digests(emptied_first()))
    assert not differ, f"{len(differ)} outputs differ: " + ", ".join(differ)


def test_outputs_do_not_depend_on_instance_sharing(monkeypatch):
    # the instance table is emptied before each problem and keeps one
    # instance at most, so nearly every instance is built afresh (the term
    # table, which reads the same bound, keeps one term at most too)
    monkeypatch.setattr(kernel, "SHARED_BOUND", 1)

    def emptied_first():
        for pinned in problems():
            rules._built.clear()
            yield pinned

    differ = differing(json.loads(DIGESTS.read_text()), digests(emptied_first()))
    assert not differ, f"{len(differ)} outputs differ: " + ", ".join(differ)


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    else:
        differ = differing(json.loads(DIGESTS.read_text()), digests())
        if differ:
            sys.exit(f"{len(differ)} outputs differ: " + ", ".join(differ))
