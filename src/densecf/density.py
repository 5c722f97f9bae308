"""Density-driven counterfactual searches.

Two families of edits share one loop shape: swap single edges guided by
triangle scores, or rewrite whole maximal cliques around ranked nodes
(optionally with a region-aware two-level ranking). Each search repeatedly
perturbs the input graph and queries the oracle until the predicted class
flips or an iteration budget runs out.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain, filterfalse, islice
from math import isqrt
from typing import Collection, Iterator, Sequence

import numpy as np

from .data import ConfigurationError, RegionPartition
from .graph import (
    Edge,
    EditList,
    Graph,
    edges_within,
    edit_distance_ratio,
    eigenvector_centrality,
    least_overlapping_clique,
    pair_triangle_scores,
    symmetric_difference_distance,
    triangle_counts,
    triangles_at,
    two_hop_neighborhood,
    with_clique,
)
from .spectral import Oracle

DEFAULT_MAX_ITERATIONS = 200

RANKING_STRATEGIES = ("triangles", "eigenvector")


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
        if self.max_iterations is not None and not 0 <= self.max_iterations <= sys.maxsize:
            raise ConfigurationError(f"max_iterations must lie in 0..{sys.maxsize}")
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
    call) to classify opposite to ``input_graph``. ``edits``, which
    reproduce it from ``input_graph`` via ``apply_edits``, their number
    ``distance`` and its share ``distance_ratio`` are derived from the two
    graphs when read; with nothing found they are empty, 0 and None.
    """

    input_class: int
    input_graph: Graph
    counterfactual: Graph | None
    iterations: int
    oracle_calls: int
    note: str | None = None

    @property
    def found(self) -> bool:
        return self.counterfactual is not None

    @property
    def edits(self) -> EditList:
        if self.counterfactual is None:
            return EditList((), ())
        return EditList.between(self.input_graph, self.counterfactual)

    @property
    def distance(self) -> int:
        if self.counterfactual is None:
            return 0
        return symmetric_difference_distance(self.input_graph, self.counterfactual)

    @property
    def distance_ratio(self) -> float | None:
        if self.counterfactual is None:
            return None
        return edit_distance_ratio(self.input_graph, self.counterfactual)


def finish_result(
    oracle: Oracle,
    original: Graph,
    original_class: int,
    counterfactual: Graph | None,
    iterations: int,
    calls_before: int,
    note: str | None = None,
) -> CounterfactualResult:
    """The search's result: its charged calls since ``calls_before`` and its
    ``counterfactual``, if any, after an uncharged check that it flips."""
    if counterfactual is not None:
        if counterfactual == original:
            raise RuntimeError("search reported the unchanged input as a counterfactual")
        if oracle.check(counterfactual) == original_class:
            raise RuntimeError("search produced a candidate that does not flip the class")
    return CounterfactualResult(
        input_class=original_class, input_graph=original, counterfactual=counterfactual,
        iterations=iterations, oracle_calls=oracle.call_count - calls_before, note=note,
    )


def triangle_score_lists(g: Graph) -> tuple[Iterator[Edge], Iterator[Edge]]:
    """Order every node pair by the summed per-node triangle counts.

    Existing edges become removal candidates (ascending score, so the least
    triangle-entangled edges go first); absent edges become addition
    candidates (descending score, so new edges close as many wedges as
    possible). Score ties break on lexicographic edge order. Each list is an
    iterator that builds a pair only when it is reached.
    """
    u, v, scores, present = pair_triangle_scores(g)
    # one stable sort, ties in lexicographic pair order: an edge's key is its
    # score, and a non-edge's, 2 * top + 1 - score, lies above every edge's and
    # falls as the score rises. The keys take the smallest unsigned type that
    # holds them (uint16 at n = 60 and 116), on which the sort is a radix sort
    top = int(scores.max(initial=0))
    key = np.where(present, scores, 2 * top + 1 - scores).astype(np.min_scalar_type(2 * top + 1))
    order = np.argsort(key, kind="stable")
    edges = g.edge_count
    out, head, rest = order[:edges], order[edges : 2 * edges], order[2 * edges :]
    # ``tri_search`` zips the two lists, so it reads at most as many additions
    # as there are removals; only those are turned into Python ints up front
    additions = chain(zip(u.take(head).tolist(), v.take(head).tolist()), _pairs_at(u, v, rest))
    return zip(u.take(out).tolist(), v.take(out).tolist()), additions


def _pairs_at(u: np.ndarray, v: np.ndarray, order: np.ndarray) -> Iterator[Edge]:
    # a generator, so nothing is converted unless a reader reaches it
    yield from zip(u.take(order).tolist(), v.take(order).tolist())


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
    swaps = islice(zip(removals, additions), options.max_iterations)  # fixed before any answer
    i, flipped = oracle.walk(g, y0, swaps)
    return finish_result(oracle, g, y0, flipped, i, calls_before)


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
    region = partition.labels
    masks = dict.fromkeys(partition.names, 0)
    for v, name in enumerate(region):
        masks[name] |= 1 << v
    density = {name: edges_within(g, mask) for name, mask in masks.items()}
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

    The choice is the first ``s`` nodes of that order, taken block by block
    (neighbors, the rest of the two-hop neighborhood, every other node): a
    block that fits in the room left is taken whole, and only the block that
    holds the ``s``-th node is ordered. Triangles are counted only for the
    nodes of a two-hop block tied on usage across the cut.
    """
    if s < 2:
        return g_cur, frozenset()
    chosen: list[int] = []
    for block, by_triangles in _densify_blocks(g_cur, n):
        room = s - len(chosen)
        if len(block) > room:  # the s-th node is in this block
            ordered = sorted(block)
            ordered.sort(key=usage.__getitem__)  # stable: (usage, index)
            cut = usage[ordered[room]]
            if by_triangles and usage[ordered[room - 1]] == cut:  # a tie runs across the cut
                tied = [v for v in ordered if usage[v] == cut]
                tri = triangles_at(g_cur, tied)
                tied.sort(key=tri.__getitem__)  # stable: (triangles, index)
                ordered = [v for v in ordered if usage[v] < cut] + tied
            block = ordered[:room]
        chosen += block
        if len(chosen) == s:
            break
    for v in chosen:
        usage[v] -= 1
    return with_clique(g_cur, chosen, present=True), frozenset(chosen)


def _densify_blocks(g: Graph, n: int) -> Iterator[tuple[Collection[int], bool]]:
    """``densify_cli``'s candidate blocks in order, each with whether triangle
    counts break its usage ties; each is built only when the one before it
    did not fill the clique."""
    adjacent = g.neighbors(n)
    yield adjacent, True
    near = two_hop_neighborhood(g, n)
    yield near - adjacent, True
    yield list(filterfalse(near.__contains__, range(g.node_count))), False


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
    current, i = g, 0
    while i < min(max_iterations, len(order) // 2):
        n_dense, n_sparse = order[i], order[-1 - i]
        # sparsify only removes edges and densify only adds them, so the
        # rounds refill up to the edge count the iteration started with
        target = current.edge_count
        current, _ = sparsify_cli(g, current, n_dense, removed, usage)
        i += 1
        while oracle.predict(current) == y0:  # the else runs only on a flip
            if current.edge_count >= target:
                break
            size = _clique_size_within(target - current.edge_count)
            grown, _ = densify_cli(current, n_sparse, usage, size)
            if grown.edge_count == current.edge_count:
                break  # chosen region is saturated; class of current is already known
            current = grown
        else:
            return finish_result(oracle, g, y0, current, i, calls_before)
    return finish_result(oracle, g, y0, None, i, calls_before)


def rcli_search(
    oracle: Oracle,
    g: Graph,
    partition: RegionPartition,
    options: RunOptions = RunOptions(),
) -> CounterfactualResult:
    """Clique rewriting driven by the region-aware two-level node ranking."""
    order = rank_nodes_regional(g, partition)
    return cli_search(oracle, g, order=order, options=options)
