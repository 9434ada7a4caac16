"""Span wrappers for the traced benchmark run.

Nothing in danaut is instrumented: this module replaces, from outside,
every module-level binding of each public function of the named modules
(``from .poly import substitute`` leaves separate bindings in varieties,
derivations and autgroup, and all of them are wrapped), and the methods
of ``MultiPoly``, ``CycElem`` and ``GeneratorMap`` other than their
constructors (``__init__`` and the static ``zero``/``const``/``variable``/
``monomial``/``from_rational``): those run once per term or scalar, so
their cost stays in the caller's self time.  A span is named
``<defining module>.<function>``; dunder methods take plain names
(``MultiPoly.__mul__`` is ``poly.MultiPoly.mul`` and the dataclass check
``GeneratorMap.__post_init__`` is ``derivations.GeneratorMap.validate``).

Every span is aggregated (calls, self time, total time excluding
recursive re-entry).  Spans up to ``RECORD_DEPTH`` below the root are
also kept individually, with parent links, and written once at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("cli", "varieties", "lattice", "cyclotomic", "poly", "derivations",
           "autgroup", "report", "fmt")
CLASSES = (("poly", "MultiPoly"), ("cyclotomic", "CycElem"), ("derivations", "GeneratorMap"))
METHOD_NAMES = {
    "__post_init__": "validate", "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__pow__": "pow", "__eq__": "eq",
}
RECORD_DEPTH = 3
MARK = "__perfbench_span__"


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # name -> [calls, self_s, total_s, active]
        self.counters: dict = {}
        self.records: list = []  # [id, parent id, name, start, end]
        self.stack: list = []  # frames: [start, child time, record id]
        self.patched: list = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------------------

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]
        self.counters.clear()
        self.records.clear()

    def count(self, name: str, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name: str, hook=None):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, records, clock = self.stack, self.records, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rid = -1
            if len(stack) <= RECORD_DEPTH:
                rid = len(records)
                records.append([rid, stack[-1][2] if stack else -1, name, 0.0, 0.0])
            frame = [clock(), 0.0, rid]
            stack.append(frame)
            st[3] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                st[0] += 1
                st[1] += dur - frame[1]
                st[3] -= 1
                if st[3] == 0:
                    st[2] += dur
                if stack:
                    stack[-1][1] += dur
                if rid >= 0:
                    records[rid][3] = frame[0]
                    records[rid][4] = end
            if hook is not None:
                hook(self, args, result)
            return result

        setattr(span, MARK, name)
        return span

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("spans are already installed")
        pkg = sys.modules["danaut"]
        owners = [pkg] + [sys.modules[f"danaut.{m}"] for m in MODULES]
        wrappers = {}
        for mod_name in MODULES:
            mod = sys.modules[f"danaut.{mod_name}"]
            for obj in vars(mod).values():
                if (
                    callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == mod.__name__
                    and not obj.__name__.startswith("_")
                ):
                    name = f"{mod_name}.{obj.__name__}"
                    wrappers[id(obj)] = self.wrap(obj, name, HOOKS.get(name))
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers:
                    self._patch(owner, attr, wrappers[id(obj)])
        for mod_name, cls_name in CLASSES:
            cls = getattr(sys.modules[f"danaut.{mod_name}"], cls_name)
            for attr, obj in list(vars(cls).items()):
                label = METHOD_NAMES.get(attr, attr)
                if label.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    if id(obj) not in wrappers:
                        name = f"{mod_name}.{cls_name}.{label}"
                        wrappers[id(obj)] = self.wrap(obj, name, HOOKS.get(name))
                    self._patch(cls, attr, wrappers[id(obj)])

    def _patch(self, owner, attr: str, new) -> None:
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------------

    def table(self) -> dict:
        return {
            name: {"calls": st[0], "self_s": st[1], "total_s": st[2]}
            for name, st in sorted(self.stats.items())
            if st[0]
        }

    def write(self, path: str) -> None:
        """All kept spans as JSON lines, then the aggregate table and counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for rid, parent, name, start, end in self.records:
                fh.write(json.dumps({"id": rid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"table": self.table(), "counters": self.counters}) + "\n")


def installed_wrappers() -> list:
    """Names of span wrappers currently bound anywhere in danaut."""
    found = []
    pkg = sys.modules.get("danaut")
    if pkg is None:
        return found
    owners = [pkg] + [sys.modules[f"danaut.{m}"] for m in MODULES if f"danaut.{m}" in sys.modules]
    owners += [getattr(sys.modules[f"danaut.{m}"], c) for m, c in CLASSES
               if f"danaut.{m}" in sys.modules]
    for owner in owners:
        for obj in vars(owner).values():
            if hasattr(obj, MARK):
                found.append(getattr(obj, MARK))
    return found


# -- counters read from arguments and results ---------------------------------------


def _canonical_group(tracer, args, G):
    tracer.count("autgroup.branches_tried", len(G.branches))
    tracer.count("autgroup.branches_feasible", sum(1 for b in G.branches if b.feasible))
    if G.finite and G.elements is None:
        tracer.count("autgroup.tables_skipped")


def _finite_part(tracer, args, fp):
    tracer.count("autgroup.table_order_sum", fp.order)


def _cyc_order(tracer, args, result):
    order = getattr(result, "order", 0)
    if order > tracer.counters.get("cyclotomic.max_order", 0):
        tracer.counters["cyclotomic.max_order"] = order


def _poly_mul(tracer, args, result):
    if result is NotImplemented:
        return
    a, b = args
    tracer.count("poly.mul.term_products",
                 len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1))


HOOKS = {
    "autgroup.canonical_group": _canonical_group,
    "autgroup.finite_part_from_elements": _finite_part,
    "cyclotomic.CycElem.mul": _cyc_order,
    "cyclotomic.CycElem.lift": _cyc_order,
    "poly.MultiPoly.mul": _poly_mul,
}
