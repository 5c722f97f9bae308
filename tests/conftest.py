"""Shared helpers: random graphs and independent brute-force oracles."""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import combinations
from unittest.mock import patch

from densecf import Graph, density


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def brute_force_maximal_cliques(g: Graph) -> set[frozenset[int]]:
    """Enumerate every maximal clique by scanning all node subsets (n <= ~15)."""
    nodes = range(g.node_count)
    cliques = []
    for size in range(1, g.node_count + 1):
        for subset in combinations(nodes, size):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                cliques.append(frozenset(subset))
    maximal = set()
    for c in cliques:
        if not any(c < other for other in cliques):
            maximal.add(c)
    return maximal


def is_clique(g: Graph, nodes: frozenset[int]) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(sorted(nodes), 2))


def is_maximal_clique(g: Graph, nodes: frozenset[int]) -> bool:
    if not is_clique(g, nodes):
        return False
    outside = set(range(g.node_count)) - nodes
    return not any(all(g.has_edge(w, v) for v in nodes) for w in outside)


def brute_force_triangle_total(g: Graph) -> int:
    return sum(
        1
        for a, b, c in combinations(range(g.node_count), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )


def neighbors(edges, v):
    """The neighbours of ``v`` in a plain edge set."""
    return {w for e in edges if v in e for w in e if w != v}


def triangles_at(edges, v):
    """Triangles through ``v`` in a plain edge set of (u, w), u < w, pairs."""
    return sum(1 for pair in combinations(sorted(neighbors(edges, v)), 2) if pair in edges)


def edge_hash_rule(cut):
    """Class 1 when the first byte of a digest of the sorted edges is below ``cut``."""
    return lambda g: int(hashlib.sha256(repr(list(g.sorted_edges())).encode()).digest()[0] < cut)


class CountingClassifier:
    """External instrumentation: counts invocations independently of Oracle."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, g: Graph) -> int:
        self.calls += 1
        return self.fn(g)


@dataclass(frozen=True)
class CliqueStep:
    """One ``cli``/``rcli`` outer iteration, as its two steps saw it."""

    removed_clique: frozenset[int]
    added_cliques: tuple[frozenset[int], ...]  # one per densify round, saturated ones too
    edges_removed: int
    edges_added: int  # the summed edge growth of the densify rounds


@contextmanager
def recorded_clique_steps():
    """Yield a list that gets one ``CliqueStep`` per ``cli``/``rcli``
    iteration run inside the block, from wrapped ``sparsify_cli`` and
    ``densify_cli`` (``cli_search`` calls both through module globals).
    ``patch.object`` rather than pytest's ``monkeypatch``, so hypothesis
    tests can use it per example."""
    steps = []
    sparsify, densify = density.sparsify_cli, density.densify_cli

    def recording_sparsify(g_orig, g_cur, n, removed, usage):
        updated, clique = sparsify(g_orig, g_cur, n, removed, usage)
        steps.append(CliqueStep(clique, (), g_cur.edge_count - updated.edge_count, 0))
        return updated, clique

    def recording_densify(g_cur, n, usage, s):
        updated, clique = densify(g_cur, n, usage, s)
        step = steps[-1]
        steps[-1] = replace(
            step,
            added_cliques=step.added_cliques + (clique,),
            edges_added=step.edges_added + updated.edge_count - g_cur.edge_count,
        )
        return updated, clique

    with patch.object(density, "sparsify_cli", recording_sparsify), patch.object(
        density, "densify_cli", recording_densify
    ):
        yield steps


class SerialPool:
    """Stands in for ``ProcessPoolExecutor`` in ``runner``: records the pool
    size asked for and maps in this process, so no process starts."""

    sizes: list[int] = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@contextmanager
def serial_pool():
    """Patch ``SerialPool`` into ``runner`` and yield the pool sizes it is
    asked for; the worker context ``_init_worker`` sets is put back after,
    and its BLAS pin is a no-op, so this process keeps its own thread count."""
    from densecf import runner

    SerialPool.sizes = []
    with patch.object(runner, "ProcessPoolExecutor", SerialPool), patch.object(
        runner, "_WORKER_CTX", None
    ), patch.object(runner, "_blas_thread_setter", lambda: lambda threads: None):
        yield SerialPool.sizes
