import random
from itertools import combinations

import numpy as np
import pytest

from densecf import graph
from densecf import (
    EditConflictError,
    EditList,
    Graph,
    GraphMismatchError,
    UndefinedRatioError,
    apply_edits,
    edit_distance_ratio,
    eigenvector_centrality,
    maximal_cliques_containing,
    symmetric_difference_distance,
    triangle_counts,
    two_hop_neighborhood,
)
from densecf.graph import (
    adjacency_matrix,
    edges_within,
    least_overlapping_clique,
    node_mask,
    triangles_at,
    triangles_within,
    with_clique,
    with_swap,
)

from conftest import (
    brute_force_maximal_cliques,
    brute_force_triangle_total,
    is_maximal_clique,
    random_graph,
    triangles_at as reference_triangles_at,
)


def triangle(*extra_edges):
    return Graph(5, [(0, 1), (1, 2), (0, 2), *extra_edges])


class TestGraphBasics:
    def test_normalizes_and_dedupes_edges(self):
        g = Graph(3, [(1, 0), (0, 1), (2, 1)])
        assert g.edges == {(0, 1), (1, 2)}

    def test_numpy_integer_endpoints_beyond_63(self):
        # a node index is a shift count in the bitmask rows
        g = Graph(100, [(np.int64(99), np.int64(70)), (np.int64(80), 99)])
        assert g.edges == {(70, 99), (80, 99)}
        assert all(type(x) is int for edge in g.edges for x in edge)
        assert g.has_edge(np.int64(70), np.int64(99)) and not g.has_edge(70, 80)
        assert two_hop_neighborhood(g, np.int64(70)) == {80, 99}
        assert triangles_within(g.add_edge(70, 80), np.arange(100)) == 1
        swapped = with_swap(g, (np.int64(70), np.int64(99)), (np.int64(70), np.int64(80)))
        assert swapped == with_swap(g, (70, 99), (70, 80))
        assert all(type(row) is int for row in swapped._rows)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_rejects_negative_node_count(self):
        with pytest.raises(ValueError, match="node_count must be non-negative"):
            Graph(-1)

    def test_equality_with_a_non_graph_is_left_to_the_other_side(self):
        assert Graph(2).__eq__(object()) is NotImplemented
        assert Graph(0) != object()

    def test_from_neighbor_masks_equals_edge_constructor(self):
        rng = random.Random(4)
        for n in (0, 1, 5, 70, 130):
            g = random_graph(n, 0.3, rng)
            masks = [sum(1 << v for v in g.neighbors(u)) for u in range(n)]
            h = Graph.from_neighbor_masks(masks)
            assert h == g and h.node_count == n and h.edge_count == g.edge_count

    @pytest.mark.parametrize(
        "masks, message",
        [
            ([0b010, 0b101, 0b1010], "outside node range 0..2"),
            ([0b10, -1], "outside node range 0..1"),
            ([0b11, 0b01], "its own neighbour mask"),
            ([0b010, 0b001, 0b001], "not symmetric"),
        ],
        ids=["beyond-range", "negative", "self-loop", "one-sided"],
    )
    def test_from_neighbor_masks_rejects(self, masks, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_neighbor_masks(masks)

    def test_add_remove_edges_are_persistent(self):
        g = Graph(3, [(0, 1)])
        h = g.add_edge(1, 2)
        assert g.edges == {(0, 1)}
        assert h.edges == {(0, 1), (1, 2)}
        assert h.remove_edge(0, 1).edges == {(1, 2)}

    def test_add_present_edge_conflicts(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(EditConflictError):
            g.add_edge(1, 0)
        with pytest.raises(EditConflictError):
            g.remove_edge(1, 2)

    def test_equality_and_hash(self):
        g = Graph(4, [(0, 1), (2, 3)])
        h = Graph(4, [(2, 3), (1, 0)])
        assert g == h
        assert hash(g) == hash(h)
        assert g != Graph(5, [(0, 1), (2, 3)])

    def test_adjacency_matrix_matches_edge_loop(self):
        rng = random.Random(2)
        for n in (0, 1, 5, 12, 30):
            g = random_graph(n, rng.uniform(0.0, 0.9), rng)
            expected = np.zeros((n, n))
            for u, v in g.edges:
                expected[u, v] = expected[v, u] = 1.0
            a = adjacency_matrix(g)
            assert a.dtype == expected.dtype
            assert np.array_equal(a, expected)


class TestDistance:
    def test_identical_graphs_distance_zero(self):
        g = random_graph(8, 0.4, random.Random(1))
        assert symmetric_difference_distance(g, g) == 0

    def test_direct_formula(self):
        g = Graph(4, [(0, 1), (1, 2)])
        h = Graph(4, [(0, 1), (2, 3)])
        assert symmetric_difference_distance(g, h) == 2

    def test_mismatched_node_count(self):
        with pytest.raises(GraphMismatchError):
            symmetric_difference_distance(Graph(3), Graph(4))

    def test_matches_set_xor_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_graph(10, rng.uniform(0.1, 0.9), rng)
            h = random_graph(10, rng.uniform(0.1, 0.9), rng)
            assert symmetric_difference_distance(g, h) == len(set(g.edges) ^ set(h.edges))

    def test_metric_axioms_on_random_triples(self):
        rng = random.Random(13)
        for _ in range(1000):
            g = random_graph(8, rng.uniform(0.1, 0.9), rng)
            h = random_graph(8, rng.uniform(0.1, 0.9), rng)
            k = random_graph(8, rng.uniform(0.1, 0.9), rng)
            assert symmetric_difference_distance(g, g) == 0
            assert symmetric_difference_distance(g, h) == symmetric_difference_distance(h, g)
            assert symmetric_difference_distance(g, k) <= (
                symmetric_difference_distance(g, h) + symmetric_difference_distance(h, k)
            )


class TestDistanceRatio:
    def test_identical_nonempty(self):
        g = Graph(3, [(0, 1)])
        assert edit_distance_ratio(g, g) == 0.0

    def test_disjoint_edge_sets(self):
        g = Graph(4, [(0, 1)])
        h = Graph(4, [(2, 3)])
        assert edit_distance_ratio(g, h) == 1.0

    def test_direct_formula(self):
        g = Graph(4, [(0, 1), (1, 2)])
        h = Graph(4, [(0, 1), (2, 3)])
        assert edit_distance_ratio(g, h) == pytest.approx(2 / 3)

    def test_undefined_for_two_empty_graphs(self):
        with pytest.raises(UndefinedRatioError):
            edit_distance_ratio(Graph(4), Graph(4))

    def test_always_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_graph(9, rng.uniform(0.1, 0.9), rng)
            h = random_graph(9, rng.uniform(0.1, 0.9), rng)
            if g.edge_count or h.edge_count:
                assert 0.0 <= edit_distance_ratio(g, h) <= 1.0


class TestTriangleCounts:
    def test_k3(self):
        assert triangle_counts(Graph(3, [(0, 1), (1, 2), (0, 2)])) == [1, 1, 1]

    def test_k4(self):
        assert triangle_counts(Graph.complete(4)) == [3, 3, 3, 3]

    def test_path_has_no_triangles(self):
        assert triangle_counts(Graph(3, [(0, 1), (1, 2)])) == [0, 0, 0]

    def test_sum_equals_three_times_total(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(10, rng.uniform(0.2, 0.8), rng)
            assert sum(triangle_counts(g)) == 3 * brute_force_triangle_total(g)

    def test_per_node_counts_match_brute_force(self):
        rng = random.Random(12)
        for _ in range(30):
            g = random_graph(rng.randrange(0, 14), rng.uniform(0.2, 0.9), rng)
            expected = [0] * g.node_count
            for trio in combinations(range(g.node_count), 3):
                if all(g.has_edge(u, v) for u, v in combinations(trio, 2)):
                    for w in trio:
                        expected[w] += 1
            counts = triangle_counts(g)
            assert counts == expected
            assert all(type(c) is int for c in counts)

    def test_triangles_at_equal_the_counts_at_the_listed_nodes(self):
        # triangle_counts counts through the float32 kernel, and triangles_at
        # on the rows up to a degree sum of _ROW_COUNT_BITS, through the kernel
        # above it; n runs across the 64-bit row boundary, and the reference
        # counts on a plain edge set
        rng = random.Random(29)
        sizes = (*range(0, 131, 13), 63, 64, 65, 127, 128)
        graphs = [random_graph(n, rng.uniform(0.1, 0.6), rng) for n in sizes]
        graphs += [Graph(0), Graph(6), Graph.complete(1), Graph.complete(18), Graph.complete(70)]
        graphs += [random_graph(70, 0.9, rng), random_graph(24, 0.8, rng)]
        graphs.append(Graph(7, [(0, 1), (1, 2), (0, 2), (4, 5)]))  # isolated nodes 3 and 6
        for g in graphs:
            n, edges = g.node_count, g.edges
            counts = triangle_counts(g)
            assert counts == [reference_triangles_at(edges, v) for v in range(n)]
            assert all(type(c) is int for c in counts)
            node_sets = [rng.sample(range(n), rng.randint(0, n)), list(range(n))]
            if n:  # node n - 1 is above 63 from n = 65
                node_sets.append(rng.sample(range(n), min(n, 12)) + [n - 1])
            # the longest run of the highest nodes whose degree sum is at most
            # the cut, and that run and one node more
            under, bits = [], 0
            for v in reversed(range(n)):
                bits += g.degree(v)
                if bits > graph._ROW_COUNT_BITS:
                    node_sets += [under, [*under, v]]
                    break
                under.append(v)
            for nodes in node_sets:
                expected = {v: counts[v] for v in nodes}
                at = triangles_at(g, nodes)
                assert at == expected
                assert all(type(v) is int and type(c) is int for v, c in at.items())
                assert triangles_at(g, [np.int64(v) for v in nodes]) == expected
            for bad in (-1, n, np.int64(n)):
                with pytest.raises(ValueError, match=rf"outside node range 0\.\.{n - 1}"):
                    triangles_at(g, [0, bad])
        assert triangles_at(Graph(4), []) == {}

    def test_triangles_at_builds_the_bit_matrix_only_above_the_cut(self, monkeypatch):
        # densify asks mostly about a few sparse nodes, for which building the
        # whole bit matrix costs more than reading their rows
        g = Graph.complete(70)
        counts = triangle_counts(g)
        under = graph._ROW_COUNT_BITS // 69  # nodes of degree 69 whose degrees sum to at most the cut

        def kernel_reached(rows):
            raise AssertionError("the bit matrix was built")

        monkeypatch.setattr(graph, "_bit_matrix", kernel_reached)
        nodes = list(range(70 - under, 70))
        assert triangles_at(g, nodes) == {v: counts[v] for v in nodes}
        with pytest.raises(AssertionError, match="the bit matrix was built"):
            triangles_at(g, [0, *nodes])

    def test_triangles_within_subset(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        assert triangles_within(g, {0, 1, 2}) == 1
        assert triangles_within(g, {0, 1, 2, 3}) == 1
        assert triangles_within(g, range(6)) == 2


# each of the graph core's functions that takes a node or a node set, called
# with the node ``v`` (as a set member where the function takes a set)
NODE_ARGUMENTS = {
    "has_edge": lambda g, v: (g.has_edge(v, 71), g.has_edge(71, v)),
    "neighbors": lambda g, v: g.neighbors(v),
    "degree": lambda g, v: g.degree(v),
    "two_hop_neighborhood": two_hop_neighborhood,
    "maximal_cliques_containing": maximal_cliques_containing,
    "least_overlapping_clique": lambda g, v: least_overlapping_clique(g, v, [{70, 71}]),
    "least_overlapping_clique(removed)": lambda g, v: least_overlapping_clique(
        g, 70, [{2}, {v, 71}]
    ),
    "triangles_within": lambda g, v: triangles_within(g, [71, 99, v]),
    "triangles_at": lambda g, v: triangles_at(g, [71, 99, v]),
    "edges_within": lambda g, v: edges_within(g, [71, 99, v]),
    "with_clique": lambda g, v: with_clique(g, [0, 99, v], True),
}


def node_rule_graph():
    """100 nodes: the triangle 70-71-99, the path 1-2-70 and the edge 2-71."""
    return Graph(100, [(70, 71), (70, 99), (71, 99), (1, 2), (2, 70), (2, 71)])


@pytest.mark.parametrize("call", NODE_ARGUMENTS.values(), ids=NODE_ARGUMENTS)
def test_every_node_argument_follows_one_rule(call):
    # a numpy id answers as the int does, also above 63 where it would
    # overflow as a shift count; -1 and node_count are outside the range
    # (-1 is not the last node), whether alone or as a set member
    g = node_rule_graph()
    for v in (2, 70, 99):
        assert call(g, np.int64(v)) == call(g, v)
    for bad in (-1, 100, np.int64(100)):
        with pytest.raises(ValueError, match=r"outside node range 0\.\.99"):
            call(g, bad)


def test_node_sets_are_checked_not_clipped():
    g = triangle((3, 4))
    calls = (
        triangles_within,
        edges_within,
        lambda g, m: with_clique(g, m, False),
        lambda g, m: least_overlapping_clique(g, 0, [{1}, m]),  # over the history's union
    )
    for call in calls:
        for nodes in ([0, 1, 2, 9], [0, 1, 2, -1], 0b100111, -1):
            with pytest.raises(ValueError, match=r"outside node range 0\.\.4"):
                call(g, nodes)
    assert triangles_within(g, 0b00111) == 1 and edges_within(g, np.array([0, 3, 4])) == 1


def test_a_node_is_not_its_own_neighbour():
    g = node_rule_graph()
    assert not any(g.has_edge(v, v) or g.has_edge(np.int64(v), v) for v in range(100))
    assert all(v not in g.neighbors(v) for v in range(100))


class TestMaximalCliques:
    def test_k4_single_clique(self):
        assert maximal_cliques_containing(Graph.complete(4), 0) == {frozenset({0, 1, 2, 3})}

    def test_triangle_plus_pendant(self):
        g = triangle((2, 3))
        assert maximal_cliques_containing(g, 2) == {frozenset({0, 1, 2}), frozenset({2, 3})}

    def test_isolated_node_yields_singleton(self):
        assert maximal_cliques_containing(Graph(3), 1) == {frozenset({1})}

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(10, 0.5, rng)
            expected = brute_force_maximal_cliques(g)
            for v in range(g.node_count):
                got = maximal_cliques_containing(g, v)
                assert got == {c for c in expected if v in c}

    def test_every_result_passes_independent_checker(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(11, rng.uniform(0.3, 0.7), rng)
            v = rng.randrange(g.node_count)
            for clique in maximal_cliques_containing(g, v):
                assert v in clique
                assert is_maximal_clique(g, clique)

    def test_matches_networkx_at_brain_graph_size(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(19)
        for p in (0.1, 0.25):
            g = random_graph(116, p, rng)
            h = nx.Graph()
            h.add_nodes_from(range(116))
            h.add_edges_from(g.edges)
            expected = {frozenset(c) for c in nx.find_cliques(h)}
            for v in range(0, 116, 5):
                got = maximal_cliques_containing(g, v)
                assert got == {c for c in expected if v in c}


class TestLeastOverlappingClique:
    # around 0 the triangles {0,1,2}, {0,3,4} and {0,3,5} tie on size, and on
    # overlap with HISTORY; node 3 is the pivot and outside HISTORY, so the
    # search reaches {0,3,4} first either way
    TIED = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (3, 5)])
    HISTORY = [{1}, {2}, {4}, {5}]

    @pytest.mark.parametrize("history", [[], HISTORY], ids=["no history", "history"])
    def test_a_tie_goes_to_the_smaller_node_list_not_the_first_found(self, history):
        g = self.TIED
        masks = [node_mask(h) for h in history]
        reached = []
        graph._clique_search(g, 0, masks, node_mask(set().union(*history)), reached)
        assert reached[0] == node_mask({0, 3, 4})
        assert least_overlapping_clique(g, 0, history) == {0, 1, 2}


class TestTwoHop:
    def test_path(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert two_hop_neighborhood(g, 0) == {1, 2}

    def test_isolated(self):
        assert two_hop_neighborhood(Graph(4), 2) == frozenset()

    def test_complete(self):
        assert two_hop_neighborhood(Graph.complete(4), 0) == {1, 2, 3}

    def test_excludes_center(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(9, 0.4, rng)
            v = rng.randrange(9)
            assert v not in two_hop_neighborhood(g, v)


class TestApplyEdits:
    def test_empty_edits_is_identity(self):
        g = random_graph(7, 0.5, random.Random(2))
        assert apply_edits(g, EditList((), ())) == g

    def test_k3_minus_edge_is_path(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        h = apply_edits(g, EditList(removals=((0, 1),), additions=()))
        assert h.edges == {(1, 2), (0, 2)}
        assert symmetric_difference_distance(g, h) == 1

    def test_round_trip_through_inverse(self):
        rng = random.Random(31)
        for _ in range(100):
            g = random_graph(8, 0.5, rng)
            h = random_graph(8, 0.5, rng)
            edits = EditList.between(g, h)
            assert apply_edits(g, edits) == h
            assert apply_edits(h, EditList.between(h, g)) == g
            assert edits.size == symmetric_difference_distance(g, h)

    def test_conflicting_edits_rejected(self):
        g = Graph(4, [(0, 1)])
        with pytest.raises(EditConflictError):
            apply_edits(g, EditList(removals=((2, 3),), additions=()))
        with pytest.raises(EditConflictError):
            apply_edits(g, EditList(removals=(), additions=((0, 1),)))
        with pytest.raises(EditConflictError):
            apply_edits(g, EditList(removals=((0, 1),), additions=((0, 1),)))


def power_iteration_centrality(g: Graph, tol: float = 1e-12) -> list[float]:
    a = adjacency_matrix(g)
    vec = np.ones(g.node_count)
    for _ in range(100_000):
        nxt = a @ vec
        norm = np.linalg.norm(nxt)
        if norm == 0:
            return [0.0] * g.node_count
        nxt /= norm
        if np.linalg.norm(nxt - vec) < tol:
            vec = nxt
            break
        vec = nxt
    vec = np.clip(vec, 0.0, None)
    return list(vec / vec.max())


class TestEigenvectorCentrality:
    def test_complete_graph_all_equal(self):
        for n in (3, 5, 8):
            scores = eigenvector_centrality(Graph.complete(n))
            assert scores == pytest.approx([1.0] * n)

    def test_star_center_highest(self):
        star = Graph(6, [(0, i) for i in range(1, 6)])
        scores = eigenvector_centrality(star)
        assert scores[0] == 1.0
        assert all(scores[0] > s for s in scores[1:])

    def test_empty_graph_zero_vector(self):
        assert eigenvector_centrality(Graph(4)) == [0.0] * 4

    def test_graph_without_nodes_has_no_scores(self):
        assert eigenvector_centrality(Graph(0)) == []

    def test_matches_power_iteration_oracle(self):
        rng = random.Random(41)
        checked = 0
        while checked < 30:
            g = random_graph(10, 0.4, rng)
            expected = power_iteration_centrality(g)
            if g.edge_count == 0 or max(expected) == 0:
                continue
            # connected check via reachability from the highest-degree node
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = [w for v in frontier for w in g.neighbors(v) if w not in seen]
                seen.update(nxt)
                frontier = nxt
            if len(seen) != g.node_count:
                continue
            got = eigenvector_centrality(g)
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-6)
            checked += 1
