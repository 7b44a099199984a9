"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public layer-boundary functions of each bicaut module
by rebinding them in every namespace that looks them up (the defining
module, modules that did `from .x import f`, and the package itself), so
calls between modules are caught as well as calls from the benchmark.
`RootedTree` is a class, so its `__init__` is wrapped instead.  Nothing on
disk is touched: `uninstall` restores the original bindings.

A span is (id, parent id, name index, input index, start ns, end ns).  A
function's self time is its span's duration minus the time its wrapped
children cover.
"""
from __future__ import annotations

import gzip
import os
import sys
from itertools import count
from time import perf_counter_ns

WRAPPED = {
    "graphs": (
        "induced_subgraph",
        "core_vertices",
        "attached_trees",
        "skeleton",
        "splice",
        "link",
    ),
    "trees": (
        "RootedTree",
        "rooted_aut_expr",
        "tree_aut_expr",
        "rooted_aut_generators",
        "tree_aut_generators",
        "aligned_iso",
    ),
    "groups": ("normalize", "order", "classify", "print_expr", "parse_expr"),
    "bicyclic": (
        "decompose",
        "candidate_symmetries",
        "core_symmetries",
        "analyze",
        "emit_generators",
    ),
    "oracle": ("automorphism_count", "close_generators"),
    "realize": ("realize", "realize_tree", "asymmetric_trees"),
    "generate": (
        "free_trees",
        "skeleton_core",
        "all_unicyclic",
        "all_bicyclic",
        "random_bicyclic",
        "random_tree",
    ),
}


class Tracer:
    def __init__(self, bc) -> None:
        self.names: list[str] = []
        self._originals = []  # the unwrapped objects, by name index
        for mod_name, attrs in WRAPPED.items():
            mod = getattr(bc, mod_name)
            for attr in attrs:
                self.names.append("%s.%s" % (mod_name, attr))
                self._originals.append(getattr(mod, attr))
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.candidates = 0  # summed len of candidate_symmetries' results
        self.spans: list[tuple] | None = None
        self.input_id = -1
        self._stack: list[list[int]] = []
        self._ids = count()
        self._undo: list[tuple] = []

    def _wrap(self, idx: int, fn):
        stack, calls, self_ns, ids = self._stack, self.calls, self.self_ns, self._ids
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                d = t1 - t0
                self_ns[idx] += d - frame[1]
                calls[idx] += 1
                if stack:
                    stack[-1][1] += d
                if tracer.spans is not None:
                    tracer.spans.append(
                        (frame[0], parent, idx, tracer.input_id, t0, t1)
                    )
            return result

        return traced

    def _count_candidates(self, fn):
        def counted(dec):
            result = fn(dec)
            self.candidates += len(result)
            return result

        return counted

    def install(self) -> None:
        """Wrap every target; bicyclic.candidate_symmetries also counts the
        candidates it returns."""
        modules = [
            m
            for k, m in list(sys.modules.items())
            if m is not None and (k == "bicaut" or k.startswith("bicaut."))
        ]
        for idx, orig in enumerate(self._originals):
            if isinstance(orig, type):
                self._undo.append((orig, "__init__", orig.__init__))
                orig.__init__ = self._wrap(idx, orig.__init__)
                continue
            fn = orig
            if self.names[idx] == "bicyclic.candidate_symmetries":
                fn = self._count_candidates(orig)
            wrapped = self._wrap(idx, fn)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def reset(self) -> None:
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.self_ns[i] = 0
        self.candidates = 0

    def write_spans(self, path: str, inputs: list[str]) -> int:
        """Write the recorded spans as gzipped CSV; returns the span count."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = self.spans or []
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("id,parent,name,input,start_ns,end_ns\n")
            for sid, parent, idx, inp, t0, t1 in spans:
                fh.write(
                    "%d,%d,%s,%s,%d,%d\n"
                    % (sid, parent, self.names[idx], inputs[inp] if inp >= 0 else "-", t0, t1)
                )
        return len(spans)
