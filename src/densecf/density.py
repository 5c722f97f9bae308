"""Density-driven counterfactual searches.

Two families of edits share one loop shape: swap single edges guided by
triangle scores, or rewrite whole maximal cliques around ranked nodes
(optionally with a region-aware two-level ranking). Each search repeatedly
perturbs the input graph and queries the oracle until the predicted class
flips or an iteration budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import isqrt
from typing import Sequence

import numpy as np

from .data import RegionPartition
from .graph import (
    Edge,
    EditList,
    Graph,
    adjacency_matrix,
    edges_within,
    edit_distance_ratio,
    eigenvector_centrality,
    least_overlapping_clique,
    triangle_counts,
    two_hop_neighborhood,
    with_clique,
    with_swap,
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
        if self.seed < 0:  # derive_seed reduces mod 2**63: -1 would repeat seed 2**63 - 1's flips
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class CounterfactualResult:
    """Outcome of one counterfactual search.

    ``input_class`` is the oracle's class for the input, charged once by the
    search. ``found`` is whether ``counterfactual`` is set. A counterfactual
    is guaranteed (re-checked at construction with an uncounted classifier
    call) to classify opposite to the input, and ``edits`` (``distance`` of
    them) reproduces it from the input via ``apply_edits``.
    """

    input_class: int
    counterfactual: Graph | None
    edits: EditList
    iterations: int
    oracle_calls: int
    distance_ratio: float | None
    note: str | None = None

    @property
    def found(self) -> bool:
        return self.counterfactual is not None

    @property
    def distance(self) -> int:
        return self.edits.size


def finish_result(
    oracle: Oracle,
    original: Graph,
    original_class: int,
    final: Graph,
    found: bool,
    iterations: int,
    calls_before: int,
    note: str | None = None,
) -> CounterfactualResult:
    """The search's result: its charged calls since ``calls_before`` and, when
    ``found``, the edits to ``final`` after an uncharged check that it flips."""
    calls = oracle.call_count - calls_before
    edits, counterfactual, ratio = EditList.empty(), None, None
    if found:
        if final == original:
            raise RuntimeError("search reported the unchanged input as a counterfactual")
        if oracle.check(final) == original_class:
            raise RuntimeError("search produced a candidate that does not flip the class")
        edits = EditList.between(original, final)
        counterfactual, ratio = final, edit_distance_ratio(original, final)
    return CounterfactualResult(
        input_class=original_class,
        counterfactual=counterfactual,
        edits=edits,
        iterations=iterations,
        oracle_calls=calls,
        distance_ratio=ratio,
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
    oracle: Oracle, g: Graph, options: RunOptions = RunOptions()
) -> CounterfactualResult:
    """Swap the next removal and addition candidate per iteration.

    The edge count of every intermediate graph equals the input's. Stops on a
    class flip or when either list is exhausted, i.e. after at most
    min(|removals|, |additions|) iterations.
    """
    calls_before = oracle.call_count
    y0 = oracle.predict(g)
    removals, additions = triangle_score_lists(g)
    current = g
    found = False
    i = 0
    for edge_out, edge_in in islice(zip(removals, additions), options.max_iterations):
        current = with_swap(current, edge_out, edge_in)
        i += 1
        if oracle.predict(current) != y0:
            found = True
            break
    return finish_result(oracle, g, y0, current, found, i, calls_before)


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
    region = partition.labels
    return tuple(
        sorted(range(g.node_count), key=lambda v: (-density[region[v]], region[v], -tri[v], v))
    )


def sparsify_cli(
    g_orig: Graph, g_cur: Graph, n: int, removed: list[frozenset[int]], usage: list[int]
) -> tuple[Graph, frozenset[int]]:
    """Remove one maximal clique around ``n`` from the current graph.

    Cliques are enumerated in the ORIGINAL graph, so edges already dropped in
    earlier iterations may be gone; only still-present edges are removed. The
    chosen clique minimizes (largest overlap with any clique in ``removed``,
    0 with none; minus its size; its sorted nodes): the least overlapping,
    then the largest, then the lexicographically smallest. With no history
    every overlap is 0, so the first call takes the largest clique. The
    chosen clique is appended to ``removed`` and the ``usage`` count of each
    of its nodes goes up by one, which steers ``densify_cli`` away from it.
    """
    chosen = least_overlapping_clique(g_orig, n, removed)
    removed.append(chosen)
    for v in chosen:
        usage[v] += 1
    return with_clique(g_cur, chosen, present=False), chosen


def densify_cli(g_cur: Graph, n: int, usage: list[int], s: int) -> tuple[Graph, frozenset[int]]:
    """Add a clique of up to ``s`` nodes near ``n``.

    Candidates are the two-hop neighborhood of ``n`` followed by the remaining
    nodes. Within the two-hop block, direct neighbors of ``n`` come first, then
    ascending ``usage`` count, then ascending triangle count in ``g_cur`` (the
    sparsest surroundings first), then node index. The remaining nodes, ``n``
    among them, are sorted by ascending usage count (ties: node index). All
    absent edges among the chosen nodes are added and their usage counts go
    down by one (they may go negative). With fewer than two nodes to pick
    this is a no-op.
    """
    if s < 2:
        return g_cur, frozenset()
    near, adjacent = two_hop_neighborhood(g_cur, n), g_cur.neighbors(n)
    tri = triangle_counts(g_cur)
    chosen = sorted(
        range(g_cur.node_count),
        key=lambda v: (v not in near, v not in adjacent, usage[v], tri[v] if v in near else 0, v),
    )[:s]
    for v in chosen:
        usage[v] -= 1
    return with_clique(g_cur, chosen, present=True), frozenset(chosen)


def _clique_size_within(edges: int) -> int:
    """Largest node count k with k(k-1)/2 <= ``edges``."""
    return (1 + isqrt(1 + 8 * edges)) // 2


def cli_search(
    oracle: Oracle,
    g: Graph,
    order: Sequence[int] | None = None,
    options: RunOptions = RunOptions(),
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
    calls_before = oracle.call_count
    y0 = oracle.predict(g)
    if order is None:
        order = rank_nodes(g, options.ranking)
    max_iterations = (
        options.max_iterations if options.max_iterations is not None else DEFAULT_MAX_ITERATIONS
    )
    removed: list[frozenset[int]] = []
    usage = [0] * g.node_count
    current = g
    found = False
    i = 0
    while not found and i < min(max_iterations, len(order) // 2):
        n_dense, n_sparse = order[i], order[-1 - i]
        # sparsify only removes edges and densify only adds them, so the
        # rounds refill up to the edge count the iteration started with
        target = current.edge_count
        current, _ = sparsify_cli(g, current, n_dense, removed, usage)
        i += 1
        found = oracle.predict(current) != y0
        while not found and current.edge_count < target:
            size = _clique_size_within(target - current.edge_count)
            grown, _ = densify_cli(current, n_sparse, usage, size)
            if grown.edge_count == current.edge_count:
                break  # chosen region is saturated; class of current is already known
            current = grown
            found = oracle.predict(current) != y0
    return finish_result(oracle, g, y0, current, found, i, calls_before)


def rcli_search(
    oracle: Oracle,
    g: Graph,
    partition: RegionPartition,
    options: RunOptions = RunOptions(),
) -> CounterfactualResult:
    """Clique rewriting driven by the region-aware two-level node ranking."""
    order = rank_nodes_regional(g, partition)
    return cli_search(oracle, g, order=order, options=options)
