"""Spans around qforge's public functions, and the per-layer metrics built
from them.

``Tracer.install()`` replaces every public module-level function of the
traced modules (in every qforge module namespace that refers to it) with a
wrapper that records a span: name, start, end, parent span and question id.
``Relation.tuples`` is wrapped too, recording a span only when it
materializes a formula-backed relation.  Spans stay in memory until
``write``.  Only the benchmark's traced run installs the tracer; the
end-to-end runs never wrap anything.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

TRACED_MODULES = ("cli", "files", "model", "clone", "powers", "gadgets", "qcsp", "classify")

#: leaf helpers called per tuple or per formula node; a wrapper there would
#: cost more than the work it measures, so their time counts to the caller
UNTRACED = {"model.eval_formula", "powers.switch_count"}

CANON_DETECT = {
    "gadgets.is_almost_existentially_trivial",
    "gadgets.is_existentially_trivial",
    "gadgets.proj_single",
    "gadgets.proj_pair",
}
CANON_SELF = {
    "qcsp.solve_via_canon",
    "qcsp.eliminate_constant_atoms",
    "qcsp.solve_universal_conjunction",
}


def layer_of(name: str, high_arity: bool = False) -> str:
    """The per-layer time metric a span's self time counts toward."""
    module = name.split(".", 1)[0]
    if module in ("cli", "clone", "classify"):
        return {"cli": "cli.self_ms", "clone": "clone.ms", "classify": "classify.self_ms"}[module]
    if module == "files":
        return "files.load_ms"
    if name == "model.materialize":
        return "model.materialize_ms"
    if name.startswith("gadgets.build_"):
        return "gadgets.build_ms"
    if name in CANON_DETECT:
        return "gadgets.canon_detect_ms"
    if name in CANON_SELF:
        return "qcsp.canon_self_ms"
    if name == "qcsp.qcsp_eval":
        return "qcsp.eval_ms"
    if name == "qcsp.qcsp_to_csp":
        return "qcsp.expand_self_ms"
    if name == "qcsp.csp_solve":
        return "qcsp.csp_solve_ms"
    if name == "powers.power_closure":
        return "powers.closure_ms." + ("high_arity" if high_arity else "binary")
    if name == "powers.min_generating_size":
        return "powers.gen_ms"
    return module + ".other"


TIME_METRICS = (
    "cli.self_ms",
    "files.load_ms",
    "model.materialize_ms",
    "gadgets.canon_detect_ms",
    "gadgets.build_ms",
    "qcsp.canon_self_ms",
    "qcsp.eval_ms",
    "qcsp.expand_self_ms",
    "qcsp.csp_solve_ms",
    "powers.closure_ms.high_arity",
    "powers.closure_ms.binary",
    "powers.gen_ms",
    "clone.ms",
    "classify.self_ms",
)
COUNT_METRICS = (
    "model.materialized_assignments",
    "qcsp.csp_constraints",
    "powers.closure_calls",
    "powers.closure_repeat_calls",
    "powers.closure_tuples",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, question id, high arity]
        self.stack: list = []
        self.question = None
        self.counts: dict = {}
        self.closed_keys: set = set()
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def start_round(self):
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.closed_keys = set()

    def _open(self, name: str, high: bool = False) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.question, high]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "powers.power_closure":

            @functools.wraps(fn)
            def closure(algebra, seed, budget=None):
                seed = [tuple(t) for t in seed]
                high = any(op.arity > 2 for op in algebra.ops.values())
                key = (
                    tuple((n, op.arity, op.table) for n, op in sorted(algebra.ops.items())),
                    frozenset(seed),
                )
                tracer.counts["powers.closure_calls"] += 1
                if key in tracer.closed_keys:
                    tracer.counts["powers.closure_repeat_calls"] += 1
                span = tracer._open(name, high)
                try:
                    result = fn(algebra, seed, budget)
                finally:
                    tracer._close(span)
                tracer.closed_keys.add(key)
                tracer.counts["powers.closure_tuples"] += len(result)
                return result

            return closure

        if name == "qcsp.csp_solve":

            @functools.wraps(fn)
            def solve(inst, struct):
                tracer.counts["qcsp.csp_constraints"] += len(inst.constraints)
                span = tracer._open(name)
                try:
                    return fn(inst, struct)
                finally:
                    tracer._close(span)

            return solve

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return wrapper

    def _wrap_tuples(self, fn):
        tracer = self

        @functools.wraps(fn)
        def tuples(rel):
            if rel._tuples is not None:
                return fn(rel)
            span = tracer._open("model.materialize")
            try:
                result = fn(rel)
            finally:
                tracer._close(span)
            tracer.counts["model.materialized_assignments"] += rel.domain.size**rel.arity
            return result

        return tuples

    # -- installing --------------------------------------------------------

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "qforge" or name.startswith("qforge.")
        }
        wrappers = {}
        for short in TRACED_MODULES:
            mod = modules[f"qforge.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                    or name in UNTRACED
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        relation = modules["qforge.model"].Relation
        self._restore.append((relation, "tuples", relation.tuples))
        relation.tuples = self._wrap_tuples(relation.tuples)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def layer_ms(self, first_span: int = 0) -> dict:
        """Self time per layer metric over spans[first_span:], in ms: a
        span's duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans[first_span:]:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for i in range(first_span, len(self.spans)):
            name, start, end, _, _, high = self.spans[i]
            layer = layer_of(name, high)
            out[layer] = out.get(layer, 0.0) + (end - start - child_time[i]) * 1000
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, question, _) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "question": question}
                    )
                    + "\n"
                )
