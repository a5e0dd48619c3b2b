"""Spans and counters around the calls into each hotab module.

Modules import each other by name (`from .rules import applicable_efo`),
so a wrapper has to be installed in every namespace where the name is
looked up, not only where it is defined.  `Tracer.install` does that and
`uninstall` puts the originals back.

A span is (name, start, end, parent, problem); spans live in flat arrays
and are written out by `dump` when the run ends.  Counters are kept where
the work happens: App objects built, fragment checks, instances returned
by the `applicable_*` functions, function tables materialised by
`Frame.domain`.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from array import array
from collections import Counter

# layer -> the (module, attribute) pairs where callers look its functions
# up; a span is named "<layer>.<function>".  Branch.add is patched on the
# class.
SPANS = {
    "problems": [("problems", "parse"), ("problems", "serialize_proof"),
                 ("problems", "parse_proof")],
    "fragments": [("fragments", "classify_branch"), ("fragments", "decide")],
    "rules": [("search", "applicable_efo"), ("search", "applicable_stt"),
              ("search", "closing_instance"), ("search", "check_instance")],
    "search": [("search", "refute"), ("search", "_saturate"),
               ("search", "check_proof")],
    "normalize": [("normalize", "apply_norm"), ("rules", "apply_norm"),
                  ("search", "apply_norm")],
    "semantics": [("search", "extract_model"), ("semantics", "extract_model"),
                  ("search", "is_evident"), ("semantics", "check_model")],
}

# where the fragment check is looked up: counted, not spanned (too frequent
# to be worth a span, and its time shows as its callers' self time)
_VIOLATION_SITES = ("fragments", "rules", "search")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.problem = array("l")
        self.counts: Counter = Counter()
        self.problem_id = -1
        self.peak_alloc = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.problem.append(self.problem_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        # by module path: the package exports a function named normalize
        modules = {
            name: importlib.import_module(f"hotab.{name}")
            for name in ("branch", "fragments", "kernel", "normalize",
                         "problems", "rules", "search", "semantics")
        }
        branch, kernel, semantics = (
            modules["branch"], modules["kernel"], modules["semantics"]
        )
        fragments = modules["fragments"]
        counts = self.counts
        wrapped: dict[int, object] = {}  # one wrapper per original function
        for layer, sites in SPANS.items():
            for mod_name, attr in sites:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrapper_for(layer, attr, fn)
                self._patch(mod, attr, wrapped[id(fn)])

        self._patch(branch.Branch, "add",
                    self.wrap("branch.add", branch.Branch.add))

        check = fragments.quasi_efo_violation

        def counted_check(t):
            counts["violation_checks"] += 1
            return check(t)

        for mod_name in _VIOLATION_SITES:
            self._patch(modules[mod_name], "quasi_efo_violation", counted_check)

        app_init = kernel.App.__init__

        def counted_app(obj, f, a):
            counts["apps_built"] += 1
            app_init(obj, f, a)

        self._patch(kernel.App, "__init__", counted_app)

        domain = semantics.Frame.domain

        def counted_domain(frame, ty):
            fresh = ty not in frame._domains
            d = domain(frame, ty)
            if fresh and type(ty) is kernel.Fun:
                counts["tables_built"] += len(d)
            return d

        self._patch(semantics.Frame, "domain", counted_domain)

    def _wrapper_for(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr.lstrip('_')}"
        counts = self.counts
        if attr.startswith("applicable_"):
            def after(instances):
                counts["applicable_calls"] += 1
                counts["instances_built"] += len(instances)
                if instances:
                    counts["applicable_nonempty"] += 1

            return self.wrap(name, fn, after)
        if attr == "refute":
            def refute(*args, **kwargs):
                before = counts["applicable_nonempty"]
                verdict = traced(*args, **kwargs)
                # the instance fetched when the node budget ran out is not
                # applied
                reason = getattr(verdict, "reason", "")
                applied = counts["applicable_nonempty"] - before
                if reason.startswith("node budget exhausted"):
                    applied -= 1
                counts["rule_apps"] += applied
                proof = getattr(verdict, "proof", None)
                if proof is not None:
                    counts["proof_nodes"] += proof.size()
                return verdict

            traced = self.wrap(name, fn)
            return refute
        if attr == "_saturate":
            traced_round = self.wrap(name, fn)

            def saturate(*args, **kwargs):
                counts["saturation_rounds"] += 1  # also when the budget runs out
                return traced_round(*args, **kwargs)

            return saturate
        if attr == "extract_model":
            return self._alloc_tracked(self.wrap(name, fn))
        return self.wrap(name, fn)

    def _alloc_tracked(self, fn):
        def tracked(*args, **kwargs):
            if tracemalloc.is_tracing():  # nested call
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return tracked

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans, as columns, and the counters as JSON."""
        data = {
            "names": self.names,
            "spans": {"name": list(self.name), "start": list(self.start),
                      "end": list(self.end), "parent": list(self.parent),
                      "problem": list(self.problem)},
            "counts": dict(self.counts),
            "peak_alloc": self.peak_alloc,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)

    # -- analysis -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total time, self time, and number of calls.

        Self time is a span's duration minus the time its child spans
        cover.  A span nested in a span of the same name (recursion) does
        not add to its name's total time again.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            own[name] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                total[name] += dur[i]
        return dict(total), dict(own), dict(calls)
