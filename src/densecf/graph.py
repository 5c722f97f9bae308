"""Immutable undirected graphs over a fixed node set.

All graphs in a dataset share one node set 0..node_count-1; searches only ever
edit the edge set. Edits return new graphs, so instances can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np

Edge = tuple[int, int]


class GraphMismatchError(ValueError):
    """Two graphs do not live on the same node set."""


class UndefinedRatioError(ValueError):
    """Relative edit distance is undefined because both edge sets are empty."""


class EditConflictError(ValueError):
    """An edit removes an absent edge or adds a present one."""


def _normalize_edge(u: int, v: int, node_count: int) -> Edge:
    u, v = index(u), index(v)  # numpy integers would overflow as shift counts
    if u == v:
        raise ValueError(f"self-loop ({u},{v}) not allowed")
    if not (0 <= u < node_count and 0 <= v < node_count):
        raise ValueError(f"edge ({u},{v}) outside node range 0..{node_count - 1}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on nodes 0..node_count-1.

    The edge set is one int bitmask per node: bit v of row u is set when uv is
    an edge. Edge views are built from the rows when asked for, as (u, v) with
    u < v; self-loops are rejected and repeated pairs collapse. Instances are
    immutable: ``add_edge``, ``remove_edge``, ``apply_edits``, ``with_clique``
    and ``with_swap`` return new graphs, each sharing the row objects of the
    nodes it does not touch with its input.

    Provenance: a graph one of those edits made records, in ``_origin``, its
    input's row tuple and the ``node_mask`` of the rows the edit rebuilt;
    every row outside that mask is the input's own row object. Any other
    graph has ``_origin`` None; ``edited`` tells the two apart. Equality,
    hashing and pickling ignore it, and it holds the input's rows, never the
    input graph.
    """

    __slots__ = ("node_count", "_rows", "_edge_count", "_origin")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        rows = [0] * node_count
        for u, v in edges:
            u, v = index(u), index(v)
            if u == v or not (0 <= u < node_count and 0 <= v < node_count):
                _normalize_edge(u, v, node_count)  # raises the edge's error
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.node_count = node_count
        self._rows = tuple(rows)
        self._edge_count = sum(row.bit_count() for row in rows) // 2
        self._origin = None

    @classmethod
    def _from_rows(
        cls,
        rows: tuple[int, ...],
        edge_count: int,
        origin: tuple[tuple[int, ...], int] | None = None,
    ) -> "Graph":
        # rows already symmetric, loop-free and within range; skips revalidation
        g = object.__new__(cls)
        g.node_count = len(rows)
        g._rows = rows
        g._edge_count = edge_count
        g._origin = origin
        return g

    @classmethod
    def from_neighbor_masks(cls, masks: Iterable[int]) -> "Graph":
        """The graph on ``len(masks)`` nodes in which the neighbours of node u
        are the set bits of ``masks[u]``, a ``node_mask``. Raises ValueError
        unless every mask lies within the node range, no node is its own
        neighbour, and v is in u's mask exactly when u is in v's; the check
        runs on the whole bit matrix at once, not pair by pair."""
        rows = tuple(masks)
        n = len(rows)
        if n and (min(rows) < 0 or max(rows) >> n):
            raise ValueError(f"neighbour masks outside node range 0..{n - 1}")
        bits = _bit_matrix(rows)
        if bits.diagonal().any():
            raise ValueError("a node is in its own neighbour mask")
        if not np.array_equal(bits, bits.T):
            raise ValueError("neighbour masks are not symmetric")
        return cls._from_rows(rows, int(np.count_nonzero(bits)) // 2)

    @classmethod
    def complete(cls, node_count: int) -> "Graph":
        full = (1 << node_count) - 1
        rows = tuple(full ^ (1 << u) for u in range(node_count))
        return cls._from_rows(rows, node_count * (node_count - 1) // 2)

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(_pairs(self._rows))

    def sorted_edges(self) -> Iterator[Edge]:
        """The edges as (u, v), u < v, in ascending order, without building a set."""
        return _pairs(self._rows)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def edited(self) -> bool:
        """Whether one of the edits above made this graph (see Provenance)."""
        return self._origin is not None

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[_check_node(self, u)] >> _check_node(self, v) & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_members(self._rows[_check_node(self, v)]))

    def degree(self, v: int) -> int:
        return self._rows[_check_node(self, v)].bit_count()

    def add_edge(self, u: int, v: int) -> "Graph":
        a, b = _normalize_edge(u, v, self.node_count)
        if self._rows[a] >> b & 1:
            raise EditConflictError(f"edge {(a, b)} already present")
        return _toggled(self, ((a, b),), self._edge_count + 1)

    def remove_edge(self, u: int, v: int) -> "Graph":
        a, b = _normalize_edge(u, v, self.node_count)
        if not self._rows[a] >> b & 1:
            raise EditConflictError(f"edge {(a, b)} not present")
        return _toggled(self, ((a, b),), self._edge_count - 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __reduce__(self) -> tuple:
        return Graph._from_rows, (self._rows, self._edge_count)

    def __repr__(self) -> str:
        return f"Graph(node_count={self.node_count}, edge_count={self.edge_count})"


def _members(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pairs(rows: Iterable[int]) -> Iterator[Edge]:
    """The pairs (u, v), u < v, with bit v set in row u, in sorted order."""
    for u, row in enumerate(rows):
        row >>= u + 1
        while row:
            low = row & -row
            yield (u, u + low.bit_length())
            row ^= low


def _toggled(g: Graph, pairs: Iterable[Edge], edge_count: int) -> Graph:
    """``g`` with each of the distinct ``pairs`` flipped, ``edge_count`` edges."""
    out, touched = list(g._rows), 0
    for a, b in pairs:
        out[a] ^= 1 << b
        out[b] ^= 1 << a
        touched |= 1 << a | 1 << b
    return Graph._from_rows(tuple(out), edge_count, (g._rows, touched))


def node_mask(nodes: int | Iterable[int]) -> int:
    """The bitmask with bit u set for every node u in ``nodes``; an int is
    taken to be such a bitmask already."""
    if isinstance(nodes, int):
        return nodes
    mask = 0
    for u in nodes:
        mask |= 1 << index(u)
    return mask


@dataclass(frozen=True)
class EditList:
    """Edge removals and additions relative to some original graph."""

    removals: tuple[Edge, ...]
    additions: tuple[Edge, ...]

    @classmethod
    def between(cls, original: Graph, target: Graph) -> "EditList":
        """Edits turning ``original`` into ``target``, each list sorted."""
        _check_same_nodes(original, target)
        rows = tuple(zip(original._rows, target._rows))
        return cls(
            removals=tuple(_pairs(a & ~b for a, b in rows)),
            additions=tuple(_pairs(b & ~a for a, b in rows)),
        )

    @property
    def size(self) -> int:
        return len(self.removals) + len(self.additions)


def _check_same_nodes(g: Graph, h: Graph) -> None:
    if g.node_count != h.node_count:
        raise GraphMismatchError(
            f"graphs live on different node sets ({g.node_count} vs {h.node_count})"
        )


def symmetric_difference_distance(g: Graph, h: Graph) -> int:
    """Number of edges present in exactly one of the two graphs."""
    _check_same_nodes(g, h)
    return sum((a ^ b).bit_count() for a, b in zip(g._rows, h._rows)) // 2


def edit_distance_ratio(g: Graph, h: Graph) -> float:
    """Symmetric-difference distance normalized by the size of the edge union."""
    _check_same_nodes(g, h)
    union = sum((a | b).bit_count() for a, b in zip(g._rows, h._rows)) // 2
    if union == 0:
        raise UndefinedRatioError("both edge sets are empty")
    return symmetric_difference_distance(g, h) / union


def apply_edits(g: Graph, edits: EditList) -> Graph:
    """Apply an edit list, verifying it is consistent with ``g``. This is the
    validating path for any edit list; ``with_swap`` and ``with_clique`` make
    the two edits the searches repeat without building one."""
    removals = {_normalize_edge(u, v, g.node_count) for u, v in edits.removals}
    additions = {_normalize_edge(u, v, g.node_count) for u, v in edits.additions}
    if removals & additions:
        raise EditConflictError("an edge appears both as removal and addition")
    rows = g._rows
    missing = [(a, b) for a, b in removals if not rows[a] >> b & 1]
    if missing:
        raise EditConflictError(f"removal of absent edges: {sorted(missing)}")
    present = [(a, b) for a, b in additions if rows[a] >> b & 1]
    if present:
        raise EditConflictError(f"addition of present edges: {sorted(present)}")
    return _toggled(g, chain(removals, additions), g.edge_count - len(removals) + len(additions))


def triangle_counts(g: Graph) -> list[int]:
    """Per-node count of distinct triangles the node participates in."""
    return _triangles_at_rows(g, slice(None))


def _triangles_at_rows(g: Graph, rows: slice | list[int]) -> list[int]:
    """The per-node triangle counts of ``g`` at ``rows`` of its bit matrix A,
    in that order: with S those rows, row w of (S @ A) * S counts each
    triangle at w twice, once per ordered pair of its other nodes. Every
    entry of S @ A is an integer of at most n - 1, exact in float32 for
    n <= 2**24, and the rows are summed in float64, so the counts do not
    depend on the BLAS or its thread count."""
    a = _bit_matrix(g._rows).astype(np.float32)
    s = a[rows]
    return (((s @ a) * s).sum(axis=1, dtype=np.float64) // 2).astype(np.int64).tolist()


def _within(g: Graph, nodes: int | Iterable[int]) -> int:
    mask = node_mask(nodes if isinstance(nodes, int) else (_check_node(g, u) for u in nodes))
    if mask >> g.node_count:
        raise ValueError(f"nodes outside node range 0..{g.node_count - 1}")
    return mask


# The most neighbour bits, summed over the asked nodes, that ``triangles_at``
# counts on their rows. Timed alone on densify's tie sets from the benchmark
# workloads (best of 7 calls each, one BLAS thread, 2-CPU machine), the row
# loop costs about 0.19 us a bit, and the kernel, which builds the whole bit
# matrix, 18-27 us at n = 60 and 28-32 us at n = 116, so the two meet near
# 95-170 bits. End to end on whitebox60-2sg, a cut of 128 against 160 read
# search_ms_p50 +1.9% at seed 0 (faster in 2 of 10 alternating pairs) and
# level at seed 5, so the cut stays at 160.
_ROW_COUNT_BITS = 160


def triangles_at(g: Graph, nodes: int | Iterable[int]) -> dict[int, int]:
    """For each of ``nodes`` (node indices, or their ``node_mask``), the
    ``triangle_counts`` entry of ``g``, counted on the nodes' rows while
    their degrees sum to at most ``_ROW_COUNT_BITS`` and by the kernel
    above that."""
    at = list(_members(_within(g, nodes)))
    rows = g._rows
    if sum(rows[u].bit_count() for u in at) > _ROW_COUNT_BITS:
        return dict(zip(at, _triangles_at_rows(g, at)))
    # the triangles at u are the edges among u's neighbours
    return {u: _edges_among(rows, rows[u]) for u in at}


def triangles_within(g: Graph, nodes: int | Iterable[int]) -> int:
    """Number of triangles of ``g`` whose three nodes all lie in ``nodes``
    (node indices, or their ``node_mask``)."""
    rest = _within(g, nodes)
    rows = g._rows
    total = 0
    # each triangle u < v < w is counted once, at u and v; bits are taken
    # lowest first, so ``rest`` holds the subset's nodes above u and ``later``
    # u's neighbors in it above v
    while rest:
        low = rest & -rest
        rest ^= low
        later = rows[low.bit_length() - 1] & rest
        while later:
            low = later & -later
            later ^= low
            total += (rows[low.bit_length() - 1] & later).bit_count()
    return total


def edges_within(g: Graph, nodes: int | Iterable[int]) -> int:
    """Number of edges of ``g`` with both ends in ``nodes`` (node indices, or
    their ``node_mask``)."""
    return _edges_among(g._rows, _within(g, nodes))


def _edges_among(rows: tuple[int, ...], mask: int) -> int:
    """Number of edges of the graph with bit rows ``rows`` whose ends both
    lie in ``mask``, counted at both ends and halved."""
    twice, rest = 0, mask
    while rest:
        low = rest & -rest
        rest ^= low
        twice += (rows[low.bit_length() - 1] & mask).bit_count()
    return twice // 2


def within_deltas(before: Graph, after: Graph, masks: Sequence[int]) -> list | None:
    """For each of the disjoint node ``masks``, the change from ``before`` to
    ``after`` in (triangles within it, edges within it), read from the rows
    the edit rebuilt; None unless ``after`` was edited from ``before`` (see
    ``Graph``: its origin's rows are ``before``'s row tuple)."""
    origin = after._origin
    old, new = before._rows, after._rows
    if origin is None or origin[0] is not old:
        return None
    rows, deltas = list(old), [(0, 0)] * len(masks)
    # row u's changed pairs uv, v > u: each toggle of uv within a mask moves
    # that mask's triangles by the common neighbors of u and v in it, in the
    # graph as it stands then
    for u in _members(origin[1]):
        diff = (old[u] ^ new[u]) >> (u + 1)
        while diff:
            low = diff & -diff
            diff ^= low
            v = u + low.bit_length()
            for k, mask in enumerate(masks):
                if mask >> u & mask >> v & 1:
                    sign = 1 if new[u] >> v & 1 else -1
                    t, e = deltas[k]
                    deltas[k] = (t + sign * (rows[u] & rows[v] & mask).bit_count(), e + sign)
                    rows[u] ^= 1 << v
                    rows[v] ^= 1 << u
    return deltas


def with_clique(g: Graph, nodes: int | Iterable[int], present: bool) -> Graph:
    """``g`` with every pair among ``nodes`` (node indices, or their
    ``node_mask``) made an edge when ``present``, else a non-edge, without
    the checks of ``apply_edits``: pairs already so are left as they are.
    Only the rows of ``nodes`` are rebuilt."""
    mask = _within(g, nodes)
    rows, change = list(g._rows), 0
    for u in _members(mask):
        row = (rows[u] | mask) & ~(1 << u) if present else rows[u] & ~mask
        change += row.bit_count() - rows[u].bit_count()
        rows[u] = row
    return Graph._from_rows(tuple(rows), g._edge_count + change // 2, (g._rows, mask))


def with_swap(g: Graph, removal: Edge, addition: Edge) -> Graph:
    """``g`` with the edge ``removal`` made a non-edge and the non-edge
    ``addition`` made an edge, so the edge count stays. Equal to
    ``apply_edits(g, EditList((removal,), (addition,)))`` and raises its
    errors, but rebuilds only the rows of the pairs' ends."""
    (a, b), (c, d), n = removal, addition, g.node_count
    # the searches pass ordered int pairs in range; anything else is normalized
    if not (type(a) is type(b) is type(c) is type(d) is int and 0 <= a < b < n and 0 <= c < d < n):
        a, b = _normalize_edge(a, b, n)
        c, d = _normalize_edge(c, d, n)
    rows = g._rows
    if a == c and b == d:
        raise EditConflictError("an edge appears both as removal and addition")
    if not rows[a] >> b & 1:
        raise EditConflictError(f"removal of absent edges: {[(a, b)]}")
    if rows[c] >> d & 1:
        raise EditConflictError(f"addition of present edges: {[(c, d)]}")
    out = list(rows)
    out[a] ^= 1 << b
    out[b] ^= 1 << a
    out[c] ^= 1 << d
    out[d] ^= 1 << c
    return Graph._from_rows(tuple(out), g._edge_count, (rows, 1 << a | 1 << b | 1 << c | 1 << d))


def _check_node(g: Graph, v: int) -> int:
    """``v`` as an int row of ``g``, or ValueError; node sets go through ``_within``."""
    v = index(v)  # numpy integers would overflow as shift counts
    if not 0 <= v < g.node_count:
        raise ValueError(f"node {v} outside node range 0..{g.node_count - 1}")
    return v


def _clique_search(
    g: Graph, v: int, masks: list[int], union: int, every: list[int] | None = None
) -> int:
    """Pivoted Bron-Kerbosch (Tomita et al., 2006) seeded with {v}, so only
    the closed neighborhood of ``v`` is explored; node sets are bitmasks and
    ``union`` is the union of ``masks``. Returns the maximal clique around
    ``v`` of least key (largest overlap with any of ``masks``, 0 with none;
    minus its size; its sorted nodes) by branch and bound (Carraghan and
    Pardalos, 1990): a branch is entered only when its clique's overlap and
    the size it can still reach make a key no greater than the best one's
    first two parts. When ``every`` is a list, each maximal clique is
    appended to it instead and nothing is pruned.

    The branch order sets how early the bound bites, never the answer: a
    dropped branch holds only strictly worse keys, and ties go to the sorted
    node lists. With no masks the pivot is branched on first, so the first
    dive follows the densest part; with masks, the branches outside all of
    them come first. A child's overlap is recounted only when the node it
    adds lies in a mask.
    """
    around = g._rows[v]
    nbr = [0] * g.node_count  # neighborhoods restricted to N(v)
    for u in _members(around):
        nbr[u] = g._rows[u] & around
    # (overlap, -size) as one int: size is at most node_count < scale
    scale = g.node_count + 1
    best_key, best = scale * scale, 0  # above every clique's key

    def expand(clique: int, overlap: int, candidates: int, excluded: int) -> None:
        nonlocal best_key, best
        if not candidates:
            if excluded:
                return
            if every is not None:
                every.append(clique)
                return
            # of two equal-size cliques, the one holding the lowest node in
            # which they differ has the smaller sorted node list
            key = overlap * scale - clique.bit_count()
            differ = clique ^ best
            if key < best_key or (key == best_key and differ & -differ & clique):
                best_key, best = key, clique
            return
        # pivot: the node of candidates | excluded with most candidate
        # neighbors, lowest index on ties; the scan stops at the first node
        # that leaves at most one branch
        most, enough = -1, candidates.bit_count() - 1
        rest = candidates | excluded
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            count = (candidates & nbr[u]).bit_count()
            if count > most:
                most, pivot = count, u
                if count >= enough:
                    break
            rest ^= low
        branches = candidates & ~nbr[pivot]
        if union:
            outside = branches & ~union
            order = (outside, branches ^ outside)
        else:
            first = branches & (1 << pivot)
            order = (first, branches ^ first)
        for rest in order:
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                grown = clique | low
                lap = max([(grown & m).bit_count() for m in masks]) if low & union else overlap
                below = candidates & nbr[u]
                if lap * scale - (grown | below).bit_count() <= best_key:
                    expand(grown, lap, below, excluded & nbr[u])
                candidates ^= low
                excluded |= low

    expand(1 << v, union >> v & 1, around, 0)
    return best


def maximal_cliques_containing(g: Graph, v: int) -> set[frozenset[int]]:
    """All maximal cliques of ``g`` that contain node ``v``.

    Pivoted Bron-Kerbosch seeded with {v}, so only the closed neighborhood of
    ``v`` is explored. An isolated node yields the 1-clique {v}.
    """
    v = _check_node(g, v)
    every: list[int] = []
    _clique_search(g, v, [], 0, every)
    return {frozenset(_members(clique)) for clique in every}


def least_overlapping_clique(g: Graph, v: int, removed: Iterable[Iterable[int]]) -> frozenset[int]:
    """The maximal clique of ``g`` around ``v`` that minimizes (largest
    overlap with any of the ``removed`` node sets, 0 with none; minus its
    size; its sorted nodes): the search of ``maximal_cliques_containing``,
    by branch and bound. A node of ``removed`` outside the node range is a
    ValueError, checked once over their union.
    """
    v = _check_node(g, v)
    try:
        masks = [node_mask(m) for m in removed]
    except ValueError:  # a negative node as a shift count
        masks = [-1]
    union = 0
    for mask in masks:
        union |= mask
    if union < 0 or union >> g.node_count:
        raise ValueError(f"removed nodes outside node range 0..{g.node_count - 1}")
    return frozenset(_members(_clique_search(g, v, masks, union)))


def two_hop_neighborhood(g: Graph, v: int) -> frozenset[int]:
    """Nodes at shortest-path distance 1 or 2 from ``v``, excluding ``v``."""
    v = _check_node(g, v)
    reach = g._rows[v]
    for u in _members(g._rows[v]):
        reach |= g._rows[u]
    return frozenset(_members(reach & ~(1 << v)))


def adjacency_matrix(g: Graph) -> np.ndarray:
    return _bit_matrix(g._rows).astype(np.float64)


def _bit_matrix(rows: tuple[int, ...]) -> np.ndarray:
    """The n x n uint8 matrix whose row u holds the low n bits of ``rows[u]``."""
    n = len(rows)
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in rows), np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")


def eigenvector_centrality(g: Graph) -> list[float]:
    """Principal-eigenvector node scores, non-negative, scaled to unit maximum.

    Returns the all-zero vector for a graph with no edges.
    """
    if g.node_count == 0:
        return []
    if g.edge_count == 0:
        return [0.0] * g.node_count
    _, vectors = np.linalg.eigh(adjacency_matrix(g))
    vec = vectors[:, -1]
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    vec = np.clip(vec, 0.0, None)
    return [float(x) for x in vec / vec.max()]
