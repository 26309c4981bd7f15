"""Spans and counters around the public callables of ``ncdga``.

The tracer wraps functions and methods from outside the library: a
function is replaced in its own module and in every ``ncdga`` module (and
the package namespace) that bound it at import, a method is replaced on
its class.  Everything is restored on exit.

A span records its name, start, end and parent span.  Spans are kept in
flat arrays in memory and reduced once the traced phase ends: a span's
self time is its duration minus the durations of its child spans, which
in one thread are disjoint intervals inside it.  ``s`` sums only the
outermost span of each name, so recursion is not counted twice.
Counters sit at the same points; the hot arithmetic entry points get a
counter only, because a span there would cost more than the work.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# name -> (module, attribute path); spans give calls, s and self_s
SPANS = {
    "cli.main": ("ncdga.cli", "main"),
    "dsl.parse_dga": ("ncdga.dsl", "parse_dga"),
    "dsl.parse_augmentation": ("ncdga.dsl", "parse_augmentation"),
    "homology.bilinearized_complex": ("ncdga.homology", "bilinearized_complex"),
    "homology.homology": ("ncdga.homology", "homology"),
    "homology.kernel_basis": ("ncdga.homology", "kernel_basis"),
    "ainfinity.verify_ainfty": ("ncdga.ainfinity", "verify_ainfty"),
    "ainfinity.candidate_patterns": ("ncdga.ainfinity", "candidate_patterns"),
    "ainfinity.mu_eps_case1": ("ncdga.ainfinity", "mu_eps_case1"),
    "ainfinity.mu_case1": ("ncdga.ainfinity", "mu_case1"),
    "ainfinity.mu_eps_case2": ("ncdga.ainfinity", "mu_eps_case2"),
    "tensor.tensor_product": ("ncdga.tensor", "tensor_product"),
    "tensor.adjoint_formula": ("ncdga.tensor", "adjoint_formula"),
    "tensor.TensorElement.__mul__": ("ncdga.tensor", "TensorElement.__mul__"),
    "tensor.TensorElement.__str__": ("ncdga.tensor", "TensorElement.__str__"),
    "tensor.DualElement.__str__": ("ncdga.tensor", "DualElement.__str__"),
    "algebra.AlgebraElement.__mul__": ("ncdga.algebra", "AlgebraElement.__mul__"),
    "augmentation.Augmentation.check": ("ncdga.augmentation", "Augmentation.check"),
    "dga.SemifreeDGA.d": ("ncdga.dga", "SemifreeDGA.d"),
}

# name -> (module, attribute path); counters give calls only
COUNTED = {
    "ainfinity.ainfty_residual_case1": ("ncdga.ainfinity", "ainfty_residual_case1"),
    "tensor.TensorElement.__add__": ("ncdga.tensor", "TensorElement.__add__"),
    "rings.Ring.mul": ("ncdga.rings", "Ring.mul"),
    "rings.Ring.add": ("ncdga.rings", "Ring.add"),
    "augmentation.Augmentation.dual": ("ncdga.augmentation", "Augmentation.dual"),
    "dga.SemifreeDGA.d_component": ("ncdga.dga", "SemifreeDGA.d_component"),
    "dga.SemifreeDGA.max_word_arity": ("ncdga.dga", "SemifreeDGA.max_word_arity"),
}


def _params(names: tuple[str, ...], args, kwargs) -> dict:
    params = dict(zip(names, args))
    params.update(kwargs)
    return params


def _observe_candidates(counters, args, kwargs, result):
    params = _params(("dga", "augs", "n"), args, kwargs)
    counters["ainfinity.patterns.candidate"] += len(result)
    counters["ainfinity.patterns.full"] += len(params["dga"].names) ** params["n"]


def _observe_verify(counters, args, kwargs, result):
    counters["report.Report.checks"] += result.checks
    params = _params(("dga", "objects", "case", "max_arity", "coeff_pool", "exhaustive"),
                     args, kwargs)
    if params.get("exhaustive"):
        # exhaustive runs attempt the full pattern space without pruning
        k = len(params["dga"].names)
        space = sum(k**n for n in range(1, params["max_arity"] + 1))
        counters["ainfinity.patterns.candidate"] += space
        counters["ainfinity.patterns.full"] += space


def _observe_complex(counters, args, kwargs, result):
    counters["homology.complex.dim"] += sum(len(labels) for labels in result.basis.values())


def _observe_homology(counters, args, kwargs, result):
    counters["homology.complex.rank"] += sum(span.rank for span in result.image_spans.values())


OBSERVERS = {
    "ainfinity.candidate_patterns": _observe_candidates,
    "ainfinity.verify_ainfty": _observe_verify,
    "homology.bilinearized_complex": _observe_complex,
    "homology.homology": _observe_homology,
}


class Tracer:
    """Context manager that installs the wrappers; reuse needs a new one."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")      # span -> name id
        self.parent = array("l")       # span -> parent span, -1 for a root
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")    # 1 unless a span of the same name is open
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._open = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one item."""
        index = self._enter(self._name_id(name), name)
        try:
            yield
        finally:
            self._exit(index, name)

    def _enter(self, nid: int, name: str) -> int:
        index = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.outermost.append(0 if self._open[name] else 1)
        self.end.append(0.0)
        self._stack.append(index)
        self._open[name] += 1
        self.start.append(perf_counter())
        return index

    def _exit(self, index: int, name: str) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()
        self._open[name] -= 1

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)
        enter, leave, counters = self._enter, self._exit, self.counters

        def wrapper(*args, **kwargs):
            index = enter(nid, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(index, name)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------

    def _patch(self, module_name: str, path: str, make):
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(module, owner_path)
            original = owner.__dict__[attr]
            self._replace(owner, attr, make(original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "ncdga" and not name.startswith("ncdga."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapped)

    def _replace(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        for name, (module, path) in SPANS.items():
            self._patch(module, path, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, (module, path) in COUNTED.items():
            self._patch(module, path, lambda fn, name=name: self._count_wrapper(name, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reduction ----------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.start))]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """name -> {calls, s, self_s} over every span of that name."""
        out: dict[str, dict[str, float]] = {}
        for i, self_time in enumerate(self.self_times()):
            row = out.setdefault(self.names[self.name_of[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_time
            if self.outermost[i]:
                row["s"] += self.end[i] - self.start[i]
        return out

    def call_tree(self) -> dict[str, dict[str, float]]:
        """Spans aggregated by their path of names from the root."""
        paths: list[str] = []
        tree: dict[str, dict[str, float]] = {}
        for i, self_time in enumerate(self.self_times()):
            name = self.names[self.name_of[i]]
            parent = self.parent[i]
            path = name if parent < 0 else f"{paths[parent]} > {name}"
            paths.append(path)
            row = tree.setdefault(path, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += self.end[i] - self.start[i]
            row["self_s"] += self_time
        return tree
