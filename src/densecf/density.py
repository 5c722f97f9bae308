"""Density-driven counterfactual searches.

Two families of edits share one loop shape: swap single edges guided by
triangle scores, or rewrite whole maximal cliques around ranked nodes
(optionally with a region-aware two-level ranking). Each search repeatedly
perturbs the input graph and queries the oracle until the predicted class
flips or an iteration budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from typing import Sequence

import numpy as np

from .evaluation import RegionPartition
from .graph import (
    Edge,
    EditList,
    Graph,
    adjacency_matrix,
    apply_edits,
    edges_within,
    edit_distance_ratio,
    eigenvector_centrality,
    maximal_cliques_containing,
    symmetric_difference_distance,
    triangle_counts,
    two_hop_neighborhood,
)
from .spectral import Oracle

DEFAULT_MAX_ITERATIONS = 200

RANKING_STRATEGIES = ("triangles", "eigenvector")


class ConfigurationError(ValueError):
    """Invalid search configuration (unknown strategy, missing partition, ...)."""


@dataclass(frozen=True)
class RunOptions:
    """Settings shared by every search method, validated once here.

    ``max_iterations`` of None means the method default: clique searches cap
    at 200 outer iterations, ``edg`` at 2000 flips, and the triangle search
    runs until either candidate list is exhausted. ``seed`` drives ``edg``'s
    random flips; the runner derives one per instance with
    ``dataclasses.replace``.
    """

    max_iterations: int | None = None
    ranking: str = "triangles"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ConfigurationError("max_iterations must be non-negative")
        if self.ranking not in RANKING_STRATEGIES:
            raise ConfigurationError(
                f"unknown ranking strategy {self.ranking!r}, expected one of {RANKING_STRATEGIES}"
            )


@dataclass(frozen=True)
class CounterfactualResult:
    """Outcome of one counterfactual search.

    ``input_class`` is the oracle's class for the input, charged once by the
    search. When ``found``, the counterfactual is guaranteed (re-checked at
    construction with an uncounted classifier call) to classify opposite to
    it, and ``edits`` reproduces it from the input via ``apply_edits``.
    """

    input_class: int
    found: bool
    counterfactual: Graph | None
    edits: EditList
    iterations: int
    oracle_calls: int
    distance: int
    distance_ratio: float | None
    note: str | None = None


def _finish(
    oracle: Oracle,
    original: Graph,
    original_class: int,
    final: Graph,
    found: bool,
    iterations: int,
    calls_before: int,
    note: str | None = None,
) -> CounterfactualResult:
    calls = oracle.call_count - calls_before
    if not found:
        return CounterfactualResult(
            input_class=original_class,
            found=False,
            counterfactual=None,
            edits=EditList.empty(),
            iterations=iterations,
            oracle_calls=calls,
            distance=0,
            distance_ratio=None,
            note=note,
        )
    if final == original:
        raise RuntimeError("search reported the unchanged input as a counterfactual")
    if int(oracle.classifier(final)) == original_class:
        raise RuntimeError("search produced a candidate that does not flip the class")
    edits = EditList.between(original, final)
    return CounterfactualResult(
        input_class=original_class,
        found=True,
        counterfactual=final,
        edits=edits,
        iterations=iterations,
        oracle_calls=calls,
        distance=edits.size,
        distance_ratio=edit_distance_ratio(original, final),
        note=note,
    )


def triangle_score_lists(g: Graph) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    """Order every node pair by the summed per-node triangle counts.

    Existing edges become removal candidates (ascending score, so the least
    triangle-entangled edges go first); absent edges become addition
    candidates (descending score, so new edges close as many wedges as
    possible). Score ties break on lexicographic edge order.
    """
    u, v = np.triu_indices(g.node_count, k=1)  # every pair, in lexicographic order
    scores = np.asarray(triangle_counts(g), dtype=np.int64)
    scores = scores[u] + scores[v]
    present = adjacency_matrix(g)[u, v] == 1.0
    # a stable sort keeps lexicographic pair order among equal scores
    out = np.flatnonzero(present)
    out = out[np.argsort(scores[out], kind="stable")]
    into = np.flatnonzero(~present)
    into = into[np.argsort(-scores[into], kind="stable")]
    return (
        tuple(zip(u[out].tolist(), v[out].tolist())),
        tuple(zip(u[into].tolist(), v[into].tolist())),
    )


def tri_search(
    oracle: Oracle, g: Graph, options: RunOptions | None = None
) -> CounterfactualResult:
    """Swap the next removal and addition candidate per iteration.

    The edge count of every intermediate graph equals the input's. Stops on a
    class flip or when either list is exhausted, i.e. after at most
    min(|removals|, |additions|) iterations.
    """
    options = options or RunOptions()
    calls_before = oracle.call_count
    y0 = oracle.predict(g)
    removals, additions = triangle_score_lists(g)
    swaps = list(zip(removals, additions))[: options.max_iterations]
    current = g
    found = False
    i = 0
    for edge_out, edge_in in swaps:
        current = apply_edits(current, EditList(removals=(edge_out,), additions=(edge_in,)))
        i += 1
        if oracle.predict(current) != y0:
            found = True
            break
    return _finish(oracle, g, y0, current, found, i, calls_before)


def rank_nodes(g: Graph, strategy: str = "triangles") -> tuple[int, ...]:
    """Order nodes by how dense their surroundings are (descending).

    Strategies: per-node triangle counts or eigenvector centrality. Ties break
    on ascending node index.
    """
    if strategy == "triangles":
        scores = triangle_counts(g)
    elif strategy == "eigenvector":
        scores = eigenvector_centrality(g)
    else:
        raise ConfigurationError(f"unknown ranking strategy {strategy!r}")
    return tuple(sorted(range(g.node_count), key=lambda v: (-scores[v], v)))


def rank_nodes_regional(g: Graph, partition: RegionPartition) -> tuple[int, ...]:
    """Two-level ranking: regions by induced edge count, nodes by triangles.

    Regions with denser induced subgraphs come first; within a region, nodes
    are ordered by descending triangle count. Ties break on lexicographic
    region name, then node index.
    """
    partition.check_covers(g.node_count)
    tri = triangle_counts(g)
    density = {name: edges_within(g, partition.nodes_in(name)) for name in partition.names}
    region_order = sorted(partition.names, key=lambda name: (-density[name], name))
    order: list[int] = []
    for name in region_order:
        order.extend(sorted(partition.nodes_in(name), key=lambda v: (-tri[v], v)))
    return tuple(order)


@dataclass
class CliqueBookkeeping:
    """Memory of the clique rewrites performed so far.

    ``usage`` goes up for nodes whose clique was removed and down for nodes
    included in an added clique (it may go negative). Densification prefers
    low-usage nodes, steering additions away from freshly sparsified regions;
    within the two-hop block of the densify center it ranks adjacency to the
    center above usage (see ``densify_cli``).
    """

    removed: list[frozenset[int]]
    usage: list[int]

    @classmethod
    def fresh(cls, node_count: int) -> "CliqueBookkeeping":
        return cls(removed=[], usage=[0] * node_count)


def _clique_sort_key(clique: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (-len(clique), tuple(sorted(clique)))


def sparsify_cli(
    g_orig: Graph, g_cur: Graph, n: int, book: CliqueBookkeeping
) -> tuple[Graph, frozenset[int]]:
    """Remove one maximal clique around ``n`` from the current graph.

    Cliques are enumerated in the ORIGINAL graph, so edges already dropped in
    earlier iterations may be gone; only still-present edges are removed. The
    first call takes the largest clique; afterwards, the clique with the
    lowest maximum overlap against previously removed ones (ties: larger
    clique, then lexicographically smallest node set).
    """
    cliques = maximal_cliques_containing(g_orig, n)
    if not book.removed:
        chosen = min(cliques, key=_clique_sort_key)
    else:
        def overlap(c: frozenset[int]) -> int:
            return max(len(c & removed) for removed in book.removed)

        chosen = min(cliques, key=lambda c: (overlap(c),) + _clique_sort_key(c))
    still_present = tuple(
        sorted(edge for edge in combinations(sorted(chosen), 2) if g_cur.has_edge(*edge))
    )
    updated = apply_edits(g_cur, EditList(removals=still_present, additions=()))
    book.removed.append(frozenset(chosen))
    for v in chosen:
        book.usage[v] += 1
    return updated, frozenset(chosen)


def densify_cli(
    g_cur: Graph, n: int, book: CliqueBookkeeping, s: int
) -> tuple[Graph, frozenset[int]]:
    """Add a clique of up to ``s`` nodes near ``n``.

    Candidates are the two-hop neighborhood of ``n`` followed by the remaining
    nodes. Within the two-hop block, direct neighbors of ``n`` come first, then
    ascending usage count, then ascending triangle count in ``g_cur`` (the
    sparsest surroundings first), then node index. The remaining nodes are
    sorted by ascending usage count (ties: node index). All absent edges among
    the chosen nodes are added and their usage counts are decremented. With
    fewer than two nodes to pick this is a no-op.
    """
    if s < 2:
        return g_cur, frozenset()
    neighborhood = two_hop_neighborhood(g_cur, n)
    adjacent = g_cur.neighbors(n)
    triangles = triangle_counts(g_cur)
    near = sorted(
        neighborhood, key=lambda v: (v not in adjacent, book.usage[v], triangles[v], v)
    )
    far = sorted(
        (v for v in range(g_cur.node_count) if v not in neighborhood),
        key=lambda v: (book.usage[v], v),
    )
    chosen = (near + far)[:s]
    additions = tuple(
        sorted(
            edge
            for edge in combinations(sorted(chosen), 2)
            if not g_cur.has_edge(*edge)
        )
    )
    updated = apply_edits(g_cur, EditList(removals=(), additions=additions))
    for v in chosen:
        book.usage[v] -= 1
    return updated, frozenset(chosen)


def _clique_size_within(edges: int) -> int:
    """Largest node count k with k(k-1)/2 <= ``edges``."""
    return (1 + isqrt(1 + 8 * edges)) // 2


@dataclass(frozen=True)
class CliIteration:
    """Per-iteration record of one clique-rewrite step (for instrumentation)."""

    removed_clique: frozenset[int]
    added_cliques: tuple[frozenset[int], ...]
    edges_removed: int
    edges_added: int


def cli_search(
    oracle: Oracle,
    g: Graph,
    order: Sequence[int] | None = None,
    options: RunOptions | None = None,
    trace: list[CliIteration] | None = None,
) -> CounterfactualResult:
    """Rewrite cliques: sparsify around top-ranked nodes, densify around
    bottom-ranked ones.

    ``order`` ranks the nodes densest first (default: ``rank_nodes`` with
    ``options.ranking``). Outer iteration i removes one maximal clique around
    ``order[i]``, then adds cliques around ``order[-1 - i]`` until the
    cumulative number of edges added reaches the number removed (or the class
    flips, or a round adds nothing). Each densify round turns the remaining
    edge deficit d into a node count: the largest k with k(k-1)/2 <= d. So a
    round never overshoots, and no iteration adds more edges than it removed.
    Since the removed clique C had at most |C|(|C|-1)/2 edges, no added clique
    has more nodes than C. The search stops on a flip, after
    ``max_iterations`` outer iterations, or after floor(n/2) iterations, when
    the ranking runs out of fresh node pairs.
    """
    options = options or RunOptions()
    calls_before = oracle.call_count
    y0 = oracle.predict(g)
    if order is None:
        order = rank_nodes(g, options.ranking)
    max_iterations = (
        options.max_iterations if options.max_iterations is not None else DEFAULT_MAX_ITERATIONS
    )
    book = CliqueBookkeeping.fresh(g.node_count)
    current = g
    found = False
    i = 0
    while i < min(max_iterations, len(order) // 2):
        n_dense, n_sparse = order[i], order[-1 - i]
        before = current
        current, removed_clique = sparsify_cli(g, current, n_dense, book)
        i += 1
        edges_removed = symmetric_difference_distance(before, current)
        added_cliques: list[frozenset[int]] = []
        edges_added = 0
        if oracle.predict(current) != y0:
            found = True
        else:
            while edges_added < edges_removed:
                size = _clique_size_within(edges_removed - edges_added)
                updated, added_clique = densify_cli(current, n_sparse, book, size)
                round_added = symmetric_difference_distance(current, updated)
                current = updated
                if added_clique:
                    added_cliques.append(added_clique)
                edges_added += round_added
                if round_added == 0:
                    break  # chosen region is saturated; class of current is already known
                if oracle.predict(current) != y0:
                    found = True
                    break
        if trace is not None:
            trace.append(
                CliIteration(
                    removed_clique=removed_clique,
                    added_cliques=tuple(added_cliques),
                    edges_removed=edges_removed,
                    edges_added=edges_added,
                )
            )
        if found:
            break
    return _finish(oracle, g, y0, current, found, i, calls_before)


def rcli_search(
    oracle: Oracle,
    g: Graph,
    partition: RegionPartition,
    options: RunOptions | None = None,
    trace: list[CliIteration] | None = None,
) -> CounterfactualResult:
    """Clique rewriting driven by the region-aware two-level node ranking."""
    if partition is None:
        raise ConfigurationError("rcli requires a region partition")
    order = rank_nodes_regional(g, partition)
    return cli_search(oracle, g, order=order, options=options, trace=trace)
