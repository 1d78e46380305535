"""Span tracer installed from the benchmark's side, around cakelab's
public functions.

Each wrapped call opens a span whose parent is the innermost open span.
A span's self time is its duration minus the time covered by its child
spans, so the self times of a tree add up to the duration of its root.
Spans are aggregated per function as they close; the full span records
(id, parent, name, start, end) are kept only for the first few items.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> public functions; "Class.method" names a method
TRACED = {
    "factoring": ("factor_over_Q", "is_irreducible"),
    "polys": ("rational_roots", "resultant", "sturm_isolate", "refine_root", "poly_gcd", "squarefree_part"),
    "algebraic": (
        "AlgebraicNumber.approx",
        "AlgebraicNumber.decimal",
        "AlgebraicNumber.sign",
        "AlgebraicNumber.minimal_polynomial",
        "AlgebraicNumber.real_root",
        "AlgebraicNumber.root",
    ),
    "tower": ("Tower.adjoin", "Tower.adjoin_trivial", "Tower.is_pth_power", "Tower.verify_lemma1"),
    "cake": ("Session.cut", "Session.eval", "check_fairness", "max_welfare", "welfare"),
    "protocols": ("run_protocol",),
    "certificates": (
        "check_impossibility_equitable",
        "check_impossibility_welfare",
        "selmer_classify",
        "solvability_verdict",
        "isolate_equitable_cutpoint",
    ),
    "parsing": ("parse_measures",),
    "cli": ("main",),
}

STEP_KINDS = ("trivial", "radical", "algebraic")
SPAN_ITEMS = 20  # items whose individual spans are written out


def function_names():
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in function_names()}  # calls, self_s, errors
        self.counts = {f"tower.steps.{k}": 0 for k in STEP_KINDS}
        self.counts["protocols.rw_query_count"] = 0
        self.counts["protocols.bss_op_count"] = 0
        self.stack = []  # open spans: [span_id, child_s]
        self.root_s = 0.0  # summed duration of root spans
        self.active = False
        self.item = -1
        self.spans = []
        self.next_id = 0
        self.bindings = {}  # function -> number of namespaces rebound
        self.checked = {"self_s": 0.0, "root_s": 0.0, "item_s": 0.0}  # over complete items

    def _total_self(self):
        return sum(st[1] for st in self.stats.values())

    def begin_item(self, index):
        self.item = index
        self.stack.clear()
        self._self_at = self._total_self()
        self._root_at = self.root_s
        self.active = True

    def end_item(self, seconds, complete):
        """complete is false when the item timed out: the timer can fire
        inside a wrapper's bookkeeping and leave that span half counted, so
        only complete items enter the add-up check."""
        self.active = False
        self.stack.clear()
        if complete:
            self.checked["self_s"] += self._total_self() - self._self_at
            self.checked["root_s"] += self.root_s - self._root_at
            self.checked["item_s"] += seconds

    def wrap(self, name, fn, on_result=None):
        stats = self.stats[name]
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [self.next_id, 0.0]
            self.next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                if stack and stack[-1] is span:
                    stack.pop()
                stats[0] += 1
                stats[1] += dt - span[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.root_s += dt
                if self.item < SPAN_ITEMS:
                    self.spans.append((self.item, span[0], parent, name, t0, t1))
            if on_result is not None:
                on_result(result)
            return result

        return functools.wraps(fn)(traced)

    # -- counts read from results ---------------------------------------------------

    def _count_step(self, step):
        key = f"tower.steps.{step.kind.value}"
        if key in self.counts:
            self.counts[key] += 1

    def _count_transcript(self, run):
        self.counts["protocols.rw_query_count"] += run.transcript.rw_query_count
        self.counts["protocols.bss_op_count"] += run.transcript.bss_op_count

    def install(self):
        """Wrap every traced function in every cakelab namespace that binds
        it, so calls through direct imports (algebraic's factor_over_Q,
        cli's run_protocol, ...) are seen too."""
        importlib.import_module("cakelab.cli")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "cakelab" or n.startswith("cakelab.")]
        hooks = {
            "tower.Tower.adjoin": self._count_step,
            "tower.Tower.adjoin_trivial": self._count_step,
            "protocols.run_protocol": self._count_transcript,
        }
        for layer, fns in TRACED.items():
            home = importlib.import_module(f"cakelab.{layer}")
            for qual in fns:
                name = f"{layer}.{qual}"
                hook = hooks.get(name)
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if static else raw
                    wrapped = self.wrap(name, fn, hook)
                    replacement = staticmethod(wrapped) if static else wrapped
                    bound = 0
                    for attr, val in list(vars(cls).items()):
                        if val is raw:
                            setattr(cls, attr, replacement)
                            bound += 1
                else:
                    fn = getattr(home, qual)
                    wrapped = self.wrap(name, fn, hook)
                    bound = 0
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is fn:
                                setattr(mod, attr, wrapped)
                                bound += 1
                if bound == 0:
                    raise RuntimeError(f"{name} is bound nowhere")
                self.bindings[name] = bound

    def summary(self):
        return {
            "functions": {n: {"calls": c, "self_s": s, "errors": e} for n, (c, s, e) in self.stats.items()},
            "counts": dict(self.counts),
            "checked": self.checked,
            "bindings": self.bindings,
        }
