"""Outside-in call tracing for the dualham layers.

The tracer wraps public functions without touching the library: for each
traced function it replaces the name in every `dualham` module that bound
it (the defining module and every `from .x import f`), and replaces class
attributes for methods of `Graph` and `EmbeddedGraph`.  Each wrapped call
records one span (name, start, end, parent, op id) in flat arrays held in
memory; generator functions record one span per resumption.  Self time is
a span's duration minus the durations of its direct child spans.

A few wrapped functions also feed counters read off their public inputs
and outputs, so the rule tiers show without instrumenting the library.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

from dualham.errors import ConditionViolated
from layers import TRACED

# the seven-way dispatch names plus the local-search fallback, as they
# appear in the `case` field of a face-sparse report's steps
STEP_CASES = (
    "pole-pair-branching",
    "pole-pair-degree2-shielded",
    "pole-pair-degree2-split",
    "end-pair-branching",
    "end-pair-degree2-shielded",
    "end-pair-degree2-split",
    "far-end-shielded",
    "far-end-split",
    "small-pole-branching",
    "small-pole-degree2",
    "local-search",
)

OP_SPAN = "op"


def _resolve(qualname: str):
    """(owner, attribute, original function) for `module.func` or
    `module.Class.method`; None when the library no longer defines it."""
    parts = qualname.split(".")
    owner = sys.modules.get("dualham." + parts[0])
    for name in parts[1:-1]:
        owner = getattr(owner, name, None)
    if owner is None:
        return None
    raw = inspect.getattr_static(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, parts[-1], raw


class Tracer:
    """Span recorder; `install()` patches the library, `uninstall()`
    restores every patched binding."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN, *TRACED]
        self._id = {n: i for i, n in enumerate(self.names)}
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = [-1]
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []
        self._split_inputs: dict[int, object] = {}

    # --- spans ----------------------------------------------------------

    def _open(self, fid: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(fid)
        self.parent.append(self._stack[-1])
        self.op_of.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def op(self, op_index: int, fn, *args):
        """Run one benchmark op under a root span."""
        self._op = op_index
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._end_op()

    def _end_op(self) -> None:
        # the graphs split_vertex expands are the tetrahedron plus every
        # triangulation kept at an earlier level
        if self._split_inputs:
            self.counters["gen.kept"] += len(self._split_inputs) - 1
        self._split_inputs = {}

    # --- wrapping -------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        fid = self._id[qualname]
        before = _BEFORE.get(qualname)
        after = _AFTER.get(qualname)
        on_raise = _RAISED.get(qualname)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.calls[qualname] += 1
                it = fn(*args, **kwargs)
                pulled = 0
                while True:
                    idx = tracer._open(fid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    pulled += 1
                    tracer.counters[qualname + _PULLS[qualname]] += 1
                    if pulled > 1:
                        tracer.counters[qualname + ".later"] += 1
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[qualname] += 1
            if before is not None:
                before(tracer, args, kwargs)
            idx = tracer._open(fid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.counters[qualname + ".raised"] += 1
                if on_raise is not None:
                    on_raise(tracer, exc)
                raise
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out
        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("dualham.") and m is not None]
        for qualname in TRACED:
            found = _resolve(qualname)
            if found is None:
                self.missing.append(qualname)
                continue
            owner, attr, raw = found
            if isinstance(owner, type):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(qualname, fn)
                self._patch(owner, attr, raw,
                            staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                continue
            wrapped = self._wrap(qualname, raw)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, name, raw, wrapped)

    def _patch(self, owner, attr: str, old, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # --- results --------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        n = len(self.name_of)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            out[self.names[self.name_of[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path) -> None:
        """All spans as gzipped JSON columns; times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "name": list(self.name_of),
            "parent": list(self.parent),
            "op": list(self.op_of),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            json.dump(doc, f, separators=(",", ":"))


# --- counters read off public inputs and outputs ---------------------------


def _observe_solve(tracer: Tracer, args, kwargs) -> None:
    if kwargs.get("enforce_path_condition", True) is False:
        tracer.counters["treesplit.tree_partition_solve.relaxed"] += 1


def _observe_face_sparse(tracer: Tracer, args, kwargs, out) -> None:
    _, report = out
    for step in report["steps"]:
        tracer.counters["steps." + step["case"]] += 1
        if step["case"] == "local-search":
            tracer.counters["local_search"] += 1


def _observe_sequence_failure(tracer: Tracer, exc: BaseException) -> None:
    # in the sequence extension only the local search raises this, when no
    # colouring of a fan's fresh vertices passes the audit
    if isinstance(exc, ConditionViolated):
        tracer.counters["local_search"] += 1


def _observe_split(tracer: Tracer, args, kwargs, out) -> None:
    g = args[0]
    # hold the graph so its id stays unique for the rest of the op
    tracer._split_inputs[id(g)] = g


def _observe_gen(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counters["gen.kept"] += len(out)


# counter suffix per generator function: one count per item handed out
_PULLS = {
    "ugraph.Graph.simple_cycles": ".yields",
    "treesplit.base_coloring_candidates": ".pulls",
}
_RAISED = {"treesplit.extend_coloring_path_sequence": _observe_sequence_failure}
_BEFORE = {"treesplit.tree_partition_solve": _observe_solve}
_AFTER = {
    "treesplit.tree_partition_face_sparse": _observe_face_sparse,
    "gen.split_vertex": _observe_split,
    "gen.gen_triangulations": _observe_gen,
}
