"""Spans around wrapped functions, and the arithmetic over them.

The traced run patches functions of the program from outside: every module
binding of a function is replaced (``density`` imports ``triangle_counts`` by
name, so patching ``graph.triangle_counts`` alone would miss its calls), and
methods are replaced on their class. Spans stay in memory as parallel arrays
(name, parent, start, end) until the run ends. This module imports nothing
from the program, so its arithmetic can be tested on its own.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter
from typing import Callable, Iterable, Sequence

NO_PARENT = -1


class Spans:
    """Spans recorded in call order; a span's parent always precedes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [NO_PARENT]

    def __len__(self) -> int:
        return len(self.start)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self.name_index(name))
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()

    def name_of(self, index: int) -> str:
        return self.names[self.name_id[index]]


def traced(spans: Spans, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        index = spans.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            spans.close(index)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class Patches:
    """Replace functions of a package at every binding, and put them back.

    A target is ``"package.module:function"`` or ``"package.module:Class.method"``.
    """

    def __init__(self, package: str) -> None:
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, target: str, make: Callable[[Callable], Callable]) -> None:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, make(original))
            return
        original = getattr(module, qualname)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class RepeatCounter:
    """Counts evaluations of a graph already evaluated in the same search or
    in the same run. Graphs are identified by a key the caller computes."""

    def __init__(self) -> None:
        self.evaluations = 0
        self.repeats_in_search = 0
        self.repeats_in_run = 0
        self._search: set = set()
        self._run: set = set()

    def start_search(self) -> None:
        self._search = set()

    def observe(self, key) -> None:
        self.evaluations += 1
        if key in self._search:
            self.repeats_in_search += 1
        else:
            self._search.add(key)
        if key in self._run:
            self.repeats_in_run += 1
        else:
            self._run.add(key)

    def fractions(self) -> tuple[float, float]:
        if self.evaluations == 0:
            return 0.0, 0.0
        return (
            self.repeats_in_search / self.evaluations,
            self.repeats_in_run / self.evaluations,
        )


def self_times(parent: Sequence[int], start: Sequence[float], end: Sequence[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are serial, so children never overlap and their durations add up
    to the part of the parent's interval they cover.
    """
    own = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(own)
    for index, p in enumerate(parent):
        if p != NO_PARENT:
            covered[p] += own[index]
    return [d - c for d, c in zip(own, covered)]


def roots(parent: Sequence[int]) -> list[int]:
    """Index of the outermost ancestor of every span (itself for a root)."""
    out: list[int] = []
    for index, p in enumerate(parent):
        out.append(index if p == NO_PARENT else out[p])
    return out


def has_ancestor(parent: Sequence[int], name_id: Sequence[int], index: int, wanted: int) -> bool:
    p = parent[index]
    while p != NO_PARENT:
        if name_id[p] == wanted:
            return True
        p = parent[p]
    return False


def totals_by_name(
    spans: Spans, selected: Iterable[int]
) -> dict[str, tuple[int, float, float]]:
    """(calls, total seconds, self seconds) per span name over the selected spans."""
    own = self_times(spans.parent, spans.start, spans.end)
    out: dict[str, list] = {}
    for index in selected:
        name = spans.name_of(index)
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += spans.end[index] - spans.start[index]
        entry[2] += own[index]
    return {name: (c, t, s) for name, (c, t, s) in out.items()}
