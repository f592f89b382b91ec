"""Spans around every public callable of the solvcrit layers.

The tracer wraps, from outside the program, each public function and
public method of the layer modules, and rebinds each wrapped function in
every loaded solvcrit module that binds it by name (``criterion`` imports
``conjugacy_classes`` from ``structure``, so patching ``structure`` alone
would miss those calls).  Work done through private names is attributed to
the nearest wrapped public caller.

A span is ``[name id, parent span, operation, start ns, end ns, items]``;
spans stay in memory until :func:`write_spans`.  A callable that returns a
generator is drained inside its span, so the span covers the enumeration
it drives and ``items`` counts what it yielded.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter_ns
from types import GeneratorType

LAYERS = ("catalog", "permutation", "engine", "structure", "criterion",
          "tables", "numbertheory")
OPERATORS = ("__mul__", "__pow__")

NAME, PARENT, OP, START, END, ITEMS = range(6)


def _report_counts(name: str, result) -> dict:
    """Work counts read from the reports at the criterion boundary."""
    if name == "criterion.verify_witness_pair":
        return {"pairs_covered": result.pairs_checked}
    if name == "criterion.check_criterion":
        recheck = 0
        if result.counterexample is not None:
            c, d = result.counterexample
            recheck = c.size * d.size
        return {"pairs_covered": result.subgroups_examined + recheck,
                "recheck_pairs": recheck}
    return {}


class Tracer:
    def __init__(self):
        self.names: list = []      # (layer, qualified name) per name id
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None             # spans are recorded only while set
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original value)

    def _wrap(self, layer: str, qualname: str, fn):
        name_id = len(self.names)
        self.names.append((layer, qualname))
        full = f"{layer}.{qualname}"
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name_id, stack[-1] if stack else -1, tracer.op, 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                if type(out) is GeneratorType:
                    out = list(out)
                    span[ITEMS] = len(out)
                    out = iter(out)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if layer == "criterion":
                tracer.counts.update(_report_counts(full, out))
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "solvcrit") -> None:
        """Wrap every public callable of the layer modules."""
        wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(layer, attr, obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, attr, wrappers[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(layer, qualname,
                                                  member.__func__))
            elif inspect.isfunction(member):
                wrapped = self._wrap(layer, qualname, member)
            else:
                continue
            self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def layer_of(self, span: list) -> str:
        return self.names[span[NAME]][0]

    def qualname(self, span: list) -> str:
        layer, name = self.names[span[NAME]]
        return f"{layer}.{name}"


def self_times(spans: list) -> list:
    """Self time (ns) of each span: its duration minus the part of its
    interval that its child spans cover."""
    children: dict = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Tab-separated spans: id, parent, operation, name, start, end, items."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\top\tname\tstart_ns\tend_ns\titems\n")
        for i, s in enumerate(tracer.spans):
            fh.write(f"{i}\t{s[PARENT]}\t{s[OP]}\t{tracer.qualname(s)}\t"
                     f"{s[START]}\t{s[END]}\t{s[ITEMS]}\n")
