import random
from collections import Counter
from itertools import combinations, compress

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from densecf import data, density, graph
from densecf import (
    ConfigurationError,
    CoverageError,
    Graph,
    Oracle,
    RegionPartition,
    RunOptions,
    SyntheticSpec,
    apply_edits,
    cli_search,
    densify_cli,
    generate_synthetic,
    make_whitebox,
    maximal_cliques_containing,
    node_halves,
    rank_nodes,
    rank_nodes_regional,
    rcli_search,
    sparsify_cli,
    symmetric_difference_distance,
    tri_search,
    triangle_counts,
    triangle_score_lists,
    two_hop_neighborhood,
)
from densecf.graph import with_clique

from conftest import (
    CountingClassifier,
    brute_force_maximal_cliques,
    random_graph,
    recorded_clique_steps,
)


def edge_score(g, edge):
    scores = triangle_counts(g)
    return scores[edge[0]] + scores[edge[1]]


class TestTriangleScoreLists:
    def test_triangle_plus_isolated_edge(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        removals, additions = map(tuple, triangle_score_lists(g))
        assert removals[0] == (3, 4)
        assert edge_score(g, (3, 4)) == 0
        assert all(edge_score(g, edge) == 2 for edge in removals[1:])
        assert len(removals) == 4
        assert len(additions) == 6

    def test_empty_graph(self):
        removals, additions = map(tuple, triangle_score_lists(Graph(5)))
        assert removals == ()
        assert additions == tuple(combinations(range(5), 2))  # all scores 0: edge order

    def test_orderings_match_recomputed_scores(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(9, rng.uniform(0.2, 0.8), rng)
            removals, additions = map(tuple, triangle_score_lists(g))
            rem = [(edge_score(g, e), e) for e in removals]
            assert rem == sorted(rem, key=lambda x: (x[0], x[1]))
            add = [(edge_score(g, e), e) for e in additions]
            assert add == sorted(add, key=lambda x: (-x[0], x[1]))
            assert set(removals) == set(g.edges)
            assert not set(additions) & set(g.edges)
            assert len(rem) + len(add) == g.node_count * (g.node_count - 1) // 2


class TestTriSearch:
    def test_complete_graph_has_no_additions(self):
        oracle = Oracle(lambda g: 0)
        result = tri_search(oracle, Graph.complete(5))
        assert not result.found
        assert result.iterations == 0
        assert result.oracle_calls == 1  # only the initial classification

    def test_single_swap_fixture(self):
        # class = "edge (3,4) present"; the isolated edge has the lowest score
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        oracle = Oracle(lambda h: int(h.has_edge(3, 4)))
        result = tri_search(oracle, g)
        assert result.found
        assert result.iterations == 1
        assert result.counterfactual.edge_count == g.edge_count
        assert not result.counterfactual.has_edge(3, 4)
        assert result.edits.removals == ((3, 4),)

    def test_constant_oracle_exhausts_lists_exactly(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(9, rng.uniform(0.3, 0.7), rng)
            removals, additions = map(tuple, triangle_score_lists(g))
            expected_iterations = min(len(removals), len(additions))
            classifier = CountingClassifier(lambda h: 0)
            oracle = Oracle(classifier)
            result = tri_search(oracle, g)
            assert not result.found
            assert result.iterations == expected_iterations
            assert result.oracle_calls == expected_iterations + 1
            assert classifier.calls == result.oracle_calls

    def test_edge_count_conserved_in_every_intermediate(self):
        rng = random.Random(11)
        g = random_graph(10, 0.5, rng)
        seen_counts = []
        oracle = Oracle(lambda h: seen_counts.append(h.edge_count) or 0)
        tri_search(oracle, g)
        assert all(c == g.edge_count for c in seen_counts)

    def test_never_repeats_an_edit(self):
        rng = random.Random(13)
        g = random_graph(8, 0.5, rng)
        previous = [g]

        def classifier(h):
            # every queried graph after the first differs from its predecessor
            # by exactly one removal and one addition, never undoing an edit
            previous.append(h)
            return 0

        tri_search(Oracle(classifier), g)
        removed_total = set()
        added_total = set()
        for before, after in zip(previous[1:], previous[2:]):
            removed = before.edges - after.edges
            added = after.edges - before.edges
            assert len(removed) == 1 and len(added) == 1
            assert not removed & added_total, "re-removed a previously added edge"
            assert not added & removed_total, "re-added a previously removed edge"
            removed_total |= removed
            added_total |= added

    def test_max_iterations_cap(self):
        g = Graph.complete(6).remove_edge(0, 1).remove_edge(2, 3)
        oracle = Oracle(lambda h: 0)
        result = tri_search(oracle, g, options=RunOptions(max_iterations=1))
        assert result.iterations == 1

    def test_stops_at_the_shorter_list(self):
        # 2 removal and 4 addition candidates: the swaps stop after 2, with
        # both lists consumed front to back
        g = Graph(4, [(0, 1), (2, 3)])
        removals, additions = map(tuple, triangle_score_lists(g))
        queried = []
        oracle = Oracle(lambda h: queried.append(h) or 0)
        result = tri_search(oracle, g, options=RunOptions(max_iterations=10))
        assert (len(removals), len(additions)) == (2, 4)
        assert result.iterations == 2
        assert result.oracle_calls == 3
        assert queried[-1].edges == frozenset(additions[:2])

    def test_orders_its_pairs_through_the_module_global(self, monkeypatch):
        # perfbench's density.triangle_score_lists layer wraps the function
        # at its module binding, so each search must look it up there once
        calls, order = [], density.triangle_score_lists
        monkeypatch.setattr(density, "triangle_score_lists", lambda g: calls.append(g) or order(g))
        graphs = [Graph(4, [(0, 1), (2, 3)]), Graph.complete(5).remove_edge(0, 1)]
        for g in graphs:
            tri_search(Oracle(lambda h: 0), g)
        assert calls == graphs

    def test_whitebox_search_builds_only_its_counterfactual(self, monkeypatch):
        # the white-box rule answers tri's whole walk on one row list: no
        # graph per swap, and no edit replayed through within_deltas
        spec = SyntheticSpec(node_count=24, num_graphs=10, subgroups_per_class=2, seed=1)
        dataset, rule = generate_synthetic(spec), make_whitebox(*node_halves(24))
        built, replayed, from_rows = [], [], Graph._from_rows.__func__
        monkeypatch.setattr(Graph, "_from_rows", classmethod(
            lambda cls, *args: built.append(args) or from_rows(cls, *args)
        ))
        for module in (graph, data):
            monkeypatch.setattr(module, "within_deltas", lambda *args: replayed.append(args))
        swaps, outcomes = 0, set()
        for entry in dataset:
            built.clear()
            result = tri_search(Oracle(rule), entry.graph)
            assert len(built) == result.found
            swaps += result.iterations
            outcomes.add(result.found)
        assert outcomes == {True, False} and swaps > 500 and replayed == []


class TestRankNodes:
    def test_k4_nodes_first_by_triangles(self):
        g = Graph(6, list(combinations(range(4), 2)))
        order = rank_nodes(g, "triangles")
        assert set(order[:4]) == {0, 1, 2, 3}
        assert order[4:] == (4, 5)

    def test_star_center_first_by_eigenvector(self):
        star = Graph(5, [(0, i) for i in range(1, 5)])
        assert rank_nodes(star, "eigenvector")[0] == 0

    def test_all_isolated_gives_index_order(self):
        assert rank_nodes(Graph(5), "triangles") == (0, 1, 2, 3, 4)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            rank_nodes(Graph(3), "degree")

    def test_is_a_permutation(self):
        rng = random.Random(5)
        for strategy in ("triangles", "eigenvector"):
            g = random_graph(9, 0.5, rng)
            assert sorted(rank_nodes(g, strategy)) == list(range(9))


class TestRankNodesRegional:
    def test_dense_region_first(self):
        g = Graph(8, list(combinations(range(4), 2)))
        partition = RegionPartition(("a",) * 4 + ("b",) * 4)
        assert set(rank_nodes_regional(g, partition)[:4]) == {0, 1, 2, 3}

    def test_equal_density_lexicographic(self):
        g = Graph(4, [(0, 1), (2, 3)])
        partition = RegionPartition(("zeta", "zeta", "alpha", "alpha"))
        assert rank_nodes_regional(g, partition) == (2, 3, 0, 1)

    def test_region_blocks_match_induced_edge_counts(self):
        rng = random.Random(17)
        names = ["r0", "r1", "r2"]
        for _ in range(20):
            g = random_graph(12, rng.uniform(0.2, 0.7), rng)
            labels = tuple(rng.choice(names) for _ in range(12))
            partition = RegionPartition(labels)
            order = rank_nodes_regional(g, partition)
            induced = {
                name: sum(1 for u, v in g.edges if labels[u] == labels[v] == name)
                for name in partition.names
            }
            block_order = []
            for v in order:
                if not block_order or block_order[-1] != labels[v]:
                    block_order.append(labels[v])
            assert block_order == sorted(partition.names, key=lambda n: (-induced[n], n))

    def test_partial_partition_rejected(self):
        with pytest.raises(CoverageError):
            rank_nodes_regional(Graph(6), RegionPartition(("a",) * 5))


def documented_key(removed):
    """sparsify_cli's key over ``removed``, as its docstring states it."""
    return lambda c: (max([len(c & r) for r in removed] or [0]), -len(c), sorted(c))


@st.composite
def clique_choices(draw):
    """A graph of up to 20 nodes, a center and a removal history. Half the
    graphs are unions of equal-size cliques through the center, so keys often
    tie on overlap and size and the sorted node lists decide."""
    n = draw(st.integers(2, 20))
    nodes = st.integers(0, n - 1)
    center = draw(nodes)
    if draw(st.booleans()):
        size = draw(st.integers(2, n))
        cliques = draw(st.lists(st.sets(nodes, min_size=size - 1, max_size=size - 1), max_size=6))
        edges = {pair for c in cliques for pair in combinations(sorted(c | {center}), 2)}
    else:
        pairs = list(combinations(range(n), 2))
        present = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
        edges = compress(pairs, draw(present))
    removed = [
        frozenset(v for v in range(n) if mask >> v & 1)
        for mask in draw(st.lists(st.integers(0, 2**n - 1), max_size=5))
    ]
    return Graph(n, edges), center, removed


class TestSparsify:
    def test_largest_clique_when_no_history(self):
        g = Graph(5, list(combinations(range(4), 2)) + [(3, 4)])
        removed, usage = [], [0] * 5
        updated, clique = sparsify_cli(g, g, 0, removed, usage)
        assert clique == frozenset({0, 1, 2, 3})
        assert updated.edges == {(3, 4)}
        assert removed == [frozenset({0, 1, 2, 3})]
        assert usage == [1, 1, 1, 1, 0]

    def test_lowest_overlap_clique_chosen(self):
        # node 0 sits in K4 {0,1,2,3} and in triangle {0,4,5}
        g = Graph(6, list(combinations(range(4), 2)) + [(0, 4), (0, 5), (4, 5)])
        removed, usage = [], [0] * 6
        removed.append(frozenset({1, 2, 3}))
        # brute-force the expected choice, independently
        candidates = {frozenset({0, 1, 2, 3}), frozenset({0, 4, 5})}
        expected = min(
            candidates,
            key=lambda c: (max(len(c & r) for r in removed), -len(c), tuple(sorted(c))),
        )
        assert expected == frozenset({0, 4, 5})
        _, clique = sparsify_cli(g, g, 0, removed, usage)
        assert clique == expected

    def test_isolated_node_degenerates(self):
        g = Graph(4, [(0, 1)])
        removed, usage = [], [0] * 4
        updated, clique = sparsify_cli(g, g, 3, removed, usage)
        assert updated == g
        assert clique == frozenset({3})
        assert usage[3] == 1

    def test_choice_is_the_brute_force_minimum_of_one_key(self):
        # the key, restated: least overlap with any removed clique (0 with no
        # history), then the largest clique, then the smallest sorted node list
        rng = random.Random(61)
        for trial in range(200):
            n = rng.randint(2, 8)
            g_orig = random_graph(n, rng.uniform(0.2, 0.9), rng)
            g_cur = Graph(n, [e for e in g_orig.edges if rng.random() < 0.7])
            history = [] if trial % 4 == 0 else [
                frozenset(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 3))
            ]
            center = rng.randrange(n)
            removed, usage = list(history), [0] * n

            def key(c):
                overlap = max([len(c & r) for r in history] or [0])
                return (overlap, -len(c), tuple(sorted(c)))

            containing = [c for c in brute_force_maximal_cliques(g_orig) if center in c]
            expected = min(containing, key=key)
            updated, clique = sparsify_cli(g_orig, g_cur, center, removed, usage)
            assert clique == expected
            assert updated.edges == {
                (u, v) for u, v in g_cur.edges if not (u in clique and v in clique)
            }
            assert removed == history + [expected]
            assert usage == [int(v in expected) for v in range(n)]

    @settings(max_examples=300, deadline=None)
    @given(clique_choices())
    def test_choice_is_the_minimum_of_the_key_over_every_maximal_clique(self, case):
        g, center, history = case
        cliques = maximal_cliques_containing(g, center)
        key = documented_key(history)
        expected = min(cliques, key=key)
        best = key(expected)[:2]
        if sum(key(c)[:2] == best for c in cliques) > 1:
            event("tie on overlap and size")
        removed, usage = list(history), [0] * g.node_count
        _, clique = sparsify_cli(g, g, center, removed, usage)
        assert clique == expected

    def test_choice_at_brain_graph_size_along_the_ranked_centers(self):
        # each graph's first 50 ranked centers, the history growing as in
        # cli_search: 200 choices at n = 116, over both subgroup families
        graphs = [
            entry.graph
            for k in (1, 2)
            for entry in generate_synthetic(SyntheticSpec(116, 2, subgroups_per_class=k))
        ]
        ties = 0
        for g in graphs:
            removed, usage, current = [], [0] * g.node_count, g
            for center in rank_nodes(g)[:50]:
                cliques = maximal_cliques_containing(g, center)
                key = documented_key(removed)
                expected = min(cliques, key=key)
                ties += sum(key(c)[:2] == key(expected)[:2] for c in cliques) > 1
                current, clique = sparsify_cli(g, current, center, removed, usage)
                assert clique == expected
        assert ties  # the sorted node lists decided some choices

    def test_choice_in_the_rcli_regime_along_both_rankings(self):
        # the whitebox60-2sg regime: n = 60, two subgroups per class, centers
        # from rank_nodes and from rank_nodes_regional over 8 contiguous
        # blocks, each for cli_search's floor(n/2) iterations with the history
        # growing as there: 240 choices
        partition = RegionPartition(tuple(f"block{v * 8 // 60}" for v in range(60)))
        ties = 0
        for entry in generate_synthetic(SyntheticSpec(60, 4, subgroups_per_class=2)):
            g = entry.graph
            for order in (rank_nodes(g), rank_nodes_regional(g, partition)):
                removed, usage, current = [], [0] * g.node_count, g
                for center in order[: g.node_count // 2]:
                    cliques = maximal_cliques_containing(g, center)
                    key = documented_key(removed)
                    expected = min(cliques, key=key)
                    ties += sum(key(c)[:2] == key(expected)[:2] for c in cliques) > 1
                    current, clique = sparsify_cli(g, current, center, removed, usage)
                    assert clique == expected
        assert ties  # the sorted node lists decided some choices

    def test_only_still_present_edges_removed(self):
        g_orig = Graph.complete(4)
        g_cur = g_orig.remove_edge(0, 1)  # an earlier step already cut this edge
        removed, usage = [], [0] * 4
        updated, clique = sparsify_cli(g_orig, g_cur, 0, removed, usage)
        assert clique == frozenset({0, 1, 2, 3})
        assert updated.edge_count == 0


def full_sort_choice(g, center, usage, s, tri=None):
    """densify_cli's choice as one sort of every node by its documented key,
    and the usage it leaves; the key reads every node's count in ``tri``
    (default: ``triangle_counts(g)``)."""
    usage = list(usage)
    if s < 2:
        return frozenset(), usage
    near, adjacent = two_hop_neighborhood(g, center), g.neighbors(center)
    tri = triangle_counts(g) if tri is None else tri
    chosen = sorted(
        range(g.node_count),
        key=lambda v: (v not in near, v not in adjacent, usage[v], tri[v] if v in near else 0, v),
    )[:s]
    for v in chosen:
        usage[v] -= 1
    return frozenset(chosen), usage


def densify_cut(g, center, s):
    """Where the ``s``-th node of densify_cli's order falls: its block, or
    None when fewer than two nodes are picked or ``s`` passes every node,
    and whether it is the last node of that block."""
    if s < 2 or s > g.node_count:
        return None, False
    ends = (len(g.neighbors(center)), len(two_hop_neighborhood(g, center)), g.node_count)
    block = next(k for k, end in enumerate(ends) if s <= end)
    return ("neighbours", "rest of the two-hop block", "other nodes")[block], s in ends


@st.composite
def densify_choices(draw):
    """A graph of 1-130 nodes (so ids above 63 occur), a center, usage counts
    in -3..3 (so ties at the cut are common) and s in 0..n+2, drawn often at
    a block's edge. The center may have many neighbours or none, or a hub
    may put every other node in its two-hop block."""
    n = draw(st.integers(1, 130))
    center = draw(st.integers(0, n - 1))
    shape = draw(
        st.sampled_from(
            ("random", "busy center", "isolated center", "two-hop block covers the graph")
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from((0.06, 0.15, 0.4)))
    edges = [pair for pair in combinations(range(n), 2) if rng.random() < p]
    if shape == "busy center":
        edges += [(center, v) for v in range(n) if v != center and rng.random() < 0.3]
    elif shape == "isolated center":
        edges = [pair for pair in edges if center not in pair]
    elif shape != "random" and n > 1:
        hub = (center + draw(st.integers(1, n - 1))) % n
        edges += [(hub, v) for v in range(n) if v != hub]
    g = Graph(n, edges)
    usage = [rng.randint(-3, 3) for _ in range(n)]
    ends = (len(g.neighbors(center)), len(two_hop_neighborhood(g, center)), n)
    at_edge = st.sampled_from([max(0, end + d) for end in ends for d in (-1, 0, 1)])
    s = draw(st.integers(0, n + 2) | at_edge)
    event(shape)
    return g, center, usage, s


class TestDensify:
    def test_empty_graph_takes_lowest_index_nodes(self):
        g = Graph(6)
        usage = [0] * 6
        updated, clique = densify_cli(g, 0, usage, s=3)
        assert clique == frozenset({0, 1, 2})
        assert updated.edges == {(0, 1), (0, 2), (1, 2)}
        assert usage == [-1, -1, -1, 0, 0, 0]

    def test_two_hop_block_precedes_rest(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        usage = [0] * 4
        # 2-hop of 0 is {1, 2}; rest is {0, 3}
        _, clique = densify_cli(g, 0, usage, s=3)
        assert clique == frozenset({1, 2, 0})

    def test_usage_orders_candidates(self):
        g = Graph(5)
        usage = [2, 1, 0, 0, 0]
        _, clique = densify_cli(g, 4, usage, s=2)
        assert clique == frozenset({2, 3})

    def test_saturated_choice_adds_nothing(self):
        g = Graph.complete(3)
        usage = [0] * 3
        updated, clique = densify_cli(g, 0, usage, s=3)
        assert updated == g
        assert clique == frozenset({1, 2, 0})
        assert usage == [-1, -1, -1]

    def test_below_two_nodes_is_noop(self):
        g = Graph(4)
        usage = [0] * 4
        updated, clique = densify_cli(g, 0, usage, s=1)
        assert updated == g
        assert clique == frozenset()
        assert usage == [0, 0, 0, 0]

    def test_node_cap_limits_clique(self):
        g = Graph(8)
        usage = [0] * 8
        _, clique = densify_cli(g, 0, usage, s=3)
        assert len(clique) == 3

    def test_two_hop_order_neighbors_then_usage_then_triangles(self):
        # center 0: neighbors 1, 2, 3 (triangle {0, 1, 2}), two-hop-only 4, 5,
        # far 0 (the center itself) and isolated 6
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (1, 5)])
        usage = [0, 0, -1, 0, -5, 0, 0]
        # 2 leads on usage; 3 beats 1 on triangles; 4 trails every neighbor
        # despite its low usage; the far block keeps (usage, index)
        order = [2, 3, 1, 4, 5, 0, 6]
        for size in range(2, 8):
            counts = list(usage)
            _, clique = densify_cli(g, 0, counts, s=size)
            assert clique == frozenset(order[:size])

    @settings(max_examples=300, deadline=None)
    @given(densify_choices())
    def test_choice_equals_one_sort_of_every_node(self, case):
        g, center, usage, s = case
        expected, expected_usage = full_sort_choice(g, center, usage, s)
        block, on_boundary = densify_cut(g, center, s)
        if block is not None:
            event(f"cut in the {block}" + (", on its boundary" if on_boundary else ""))
        if full_sort_choice(g, center, usage, s, [0] * g.node_count)[0] != expected:
            event("triangle counts decide the choice")
        if g.node_count > 64:
            event("ids above 63")
        updated, clique = densify_cli(g, center, usage, s)
        assert clique == expected
        assert usage == expected_usage
        assert updated == with_clique(g, expected, present=True)

    def test_choice_at_brain_graph_size_along_the_ranked_centers(self):
        # each graph's 50 lowest-ranked centers, after sparsifying around the
        # matching top-ranked ones so usage grows as in cli_search: 200
        # choices at n = 116, over both subgroup families
        graphs = [
            entry.graph
            for k in (1, 2)
            for entry in generate_synthetic(SyntheticSpec(116, 2, subgroups_per_class=k))
        ]
        cuts = Counter()
        for g in graphs:
            removed, usage, current = [], [0] * g.node_count, g
            order = rank_nodes(g)
            for dense, sparse in zip(order[:50], order[::-1]):
                current, clique = sparsify_cli(g, current, dense, removed, usage)
                s = len(clique)
                expected, expected_usage = full_sort_choice(current, sparse, usage, s)
                cuts[densify_cut(current, sparse, s)[0]] += 1
                untied, _ = full_sort_choice(current, sparse, usage, s, [0] * g.node_count)
                cuts["triangle counts decide"] += untied != expected
                current, chosen = densify_cli(current, sparse, usage, s)
                assert chosen == expected
                assert usage == expected_usage
        assert cuts["neighbours"] and cuts["rest of the two-hop block"], cuts
        assert cuts["triangle counts decide"], cuts

class TestCliSearch:
    def test_flip_after_first_sparsify(self):
        # class = "K4 {0,1,2,3} fully present"; removing it flips immediately
        g = Graph(6, list(combinations(range(4), 2)))
        oracle = Oracle(
            lambda h: int(all(h.has_edge(u, v) for u, v in combinations(range(4), 2)))
        )
        with recorded_clique_steps() as trace:
            result = cli_search(oracle, g)
        assert result.found
        assert result.iterations == 1
        assert trace[0].added_cliques == ()  # no densify round ran

    def test_constant_oracle_exhausts_ranking(self):
        rng = random.Random(19)
        for n in (6, 7, 10):
            g = random_graph(n, 0.5, rng)
            oracle = Oracle(lambda h: 0)
            result = cli_search(oracle, g, options=RunOptions(max_iterations=500))
            assert not result.found
            assert result.iterations == n // 2

    def test_n5_runs_two_iterations_with_distinct_centers(self, monkeypatch):
        # 5 nodes give floor(5/2) = 2 (dense, sparse) center pairs; the middle
        # node of the ranking is never used, and no node is both centers
        dense, sparse = [], []
        sparsify, densify = density.sparsify_cli, density.densify_cli

        def recording_sparsify(g_orig, g_cur, n, removed, usage):
            dense.append(n)
            return sparsify(g_orig, g_cur, n, removed, usage)

        def recording_densify(g_cur, n, usage, s):
            sparse.append(n)
            return densify(g_cur, n, usage, s)

        monkeypatch.setattr(density, "sparsify_cli", recording_sparsify)
        monkeypatch.setattr(density, "densify_cli", recording_densify)
        g = Graph.complete(5)
        order = rank_nodes(g, "triangles")
        result = cli_search(Oracle(lambda h: 0), g, options=RunOptions(max_iterations=10))
        assert not result.found
        assert result.iterations == 2
        assert dense == [order[0], order[1]]
        assert sparse == [order[4], order[3]]
        assert not set(dense) & set(sparse)

    def test_trace_sizes_equal_the_steps_symmetric_differences(self, monkeypatch):
        # record every graph the two steps return; each iteration's recorded
        # sizes must equal the symmetric differences of its steps
        steps = []
        sparsify, densify = density.sparsify_cli, density.densify_cli

        def recording_sparsify(g_orig, g_cur, n, removed, usage):
            updated, clique = sparsify(g_orig, g_cur, n, removed, usage)
            steps.append(("sparsify", symmetric_difference_distance(g_cur, updated)))
            return updated, clique

        def recording_densify(g_cur, n, usage, s):
            updated, clique = densify(g_cur, n, usage, s)
            steps.append(("densify", symmetric_difference_distance(g_cur, updated)))
            return updated, clique

        monkeypatch.setattr(density, "sparsify_cli", recording_sparsify)
        monkeypatch.setattr(density, "densify_cli", recording_densify)
        rng = random.Random(67)
        iterations = 0
        for trial in range(40):
            n = rng.randint(4, 14)
            g = random_graph(n, rng.uniform(0.2, 0.8), rng)
            modulus = rng.choice([2, 3, 7, 1000])  # 1000: the class never flips
            oracle = Oracle(lambda h: int(h.edge_count % modulus == 0))
            steps.clear()
            with recorded_clique_steps() as trace:
                if trial % 2:
                    partition = RegionPartition(tuple(rng.choice("abc") for _ in range(n)))
                    rcli_search(oracle, g, partition)
                else:
                    cli_search(oracle, g)
            per_iteration = []
            for kind, size in steps:
                if kind == "sparsify":
                    per_iteration.append((size, []))
                else:
                    per_iteration[-1][1].append(size)
            assert len(per_iteration) == len(trace)
            for step, (removed, added) in zip(trace, per_iteration):
                assert step.edges_removed == removed
                assert step.edges_added == sum(added)
                assert len(step.added_cliques) == len(added)
            iterations += len(trace)
        assert iterations > 50

    def test_numpy_order_equals_the_list_order(self):
        # an order held in a numpy array hands the searches numpy ids, which
        # overflow as shift counts above 63
        g = random_graph(80, 0.3, random.Random(71))
        order = rank_nodes(g)
        assert max(order[:8] + order[-8:]) >= 63
        options = RunOptions(max_iterations=8)
        fn = lambda h: int(h.edge_count % 11 == 0)
        expected = cli_search(Oracle(fn), g, order=list(order), options=options)
        assert expected.iterations > 1
        assert cli_search(Oracle(fn), g, order=np.array(order), options=options) == expected

    def test_max_iterations_respected(self):
        g = random_graph(12, 0.5, random.Random(23))
        oracle = Oracle(lambda h: 0)
        result = cli_search(oracle, g, options=RunOptions(max_iterations=3))
        assert result.iterations == 3

    def test_budget_bound_on_added_cliques(self):
        rng = random.Random(29)
        for _ in range(25):
            g = random_graph(12, rng.uniform(0.3, 0.8), rng)
            rng.choice([0, 2, 10])  # unused draw, kept so the same 25 graphs are checked
            oracle = Oracle(lambda h: 0)
            with recorded_clique_steps() as trace:
                cli_search(oracle, g)
            for step in trace:
                for added in step.added_cliques:
                    assert len(added) <= len(step.removed_clique)

    def test_cumulative_additions_track_removals(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_graph(10, 0.6, rng)
            oracle = Oracle(lambda h: 0)
            with recorded_clique_steps() as trace:
                result = cli_search(oracle, g)
            assert not result.found
            total = sum(s.edges_removed + s.edges_added for s in trace)
            assert total >= 0
            for step in trace:
                if step.edges_removed > 0 and step.edges_added > 0:
                    cap = len(step.removed_clique)
                    assert step.edges_added <= step.edges_removed + cap * (cap - 1) // 2

    def test_iteration_never_adds_more_edges_than_it_removed(self):
        rng = random.Random(59)
        iterations = 0
        for _ in range(100):
            g = random_graph(rng.randrange(6, 30), rng.uniform(0.2, 0.8), rng)
            with recorded_clique_steps() as trace:
                cli_search(Oracle(lambda h: 0), g)
            iterations += len(trace)
            for step in trace:
                assert step.edges_added <= step.edges_removed
        assert iterations > 500

    @pytest.mark.parametrize("entry", ("cli", "rcli"))
    def test_triangles_are_counted_once_per_search_for_the_ranking(self, entry, monkeypatch):
        # densify orders its candidates from bit rows, never from a
        # whole-graph triangle_counts, however many rounds it runs
        calls = Counter()
        for module in (density, graph):
            counts = module.triangle_counts

            def counting(g, counts=counts):
                calls["triangle_counts"] += 1
                return counts(g)

            monkeypatch.setattr(module, "triangle_counts", counting)
        s0, s1 = node_halves(116)
        partition = RegionPartition(tuple("ab"[v in s1] for v in range(116)))
        rounds = 0
        for entry_graph in generate_synthetic(SyntheticSpec(116, 4, subgroups_per_class=2)):
            oracle, before = Oracle(make_whitebox(s0, s1)), calls["triangle_counts"]
            with recorded_clique_steps() as trace:
                if entry == "cli":
                    cli_search(oracle, entry_graph.graph)
                else:
                    rcli_search(oracle, entry_graph.graph, partition)
            assert calls["triangle_counts"] - before == 1
            rounds += sum(len(step.added_cliques) for step in trace)
        assert rounds > 20

    def test_divergence_bounded_by_edit_volume(self):
        rng = random.Random(53)
        for _ in range(20):
            g = random_graph(11, rng.uniform(0.3, 0.8), rng)
            fn = lambda h: int(h.edge_count % 8 == 0)
            with recorded_clique_steps() as trace:
                result = cli_search(Oracle(fn), g)
            volume = sum(s.edges_removed + s.edges_added for s in trace)
            if result.found:
                assert result.distance <= volume

    def test_deterministic(self):
        g = random_graph(12, 0.5, random.Random(37))
        fn = lambda h: int(h.edge_count % 5 == 0)
        r1 = cli_search(Oracle(fn), g)
        r2 = cli_search(Oracle(fn), g)
        assert r1 == r2

    def test_oracle_call_accounting_is_exact(self):
        rng = random.Random(41)
        for _ in range(10):
            g = random_graph(10, 0.5, rng)
            classifier = CountingClassifier(lambda h: int(h.edge_count % 7 == 0))
            oracle = Oracle(classifier)
            result = cli_search(oracle, g)
            expected = classifier.calls - (1 if result.found else 0)  # validation re-check
            assert result.oracle_calls == expected

    def test_found_result_validates(self):
        g = Graph(6, list(combinations(range(4), 2)))
        oracle = Oracle(lambda h: int(h.edge_count >= 6))
        result = cli_search(oracle, g)
        if result.found:
            assert oracle.classifier(result.counterfactual) != oracle.classifier(g)
            assert apply_edits(g, result.edits) == result.counterfactual

    def test_regional_ranking_requires_partition(self):
        # the regional ranking is rcli_search's, which takes the partition;
        # no RunOptions ranking names it
        with pytest.raises(ConfigurationError):
            RunOptions(ranking="regional")

    def test_negative_seed_rejected(self):
        # derive_seed reduces mod 2**63, so -1 would silently repeat another seed's flips
        with pytest.raises(ConfigurationError, match="seed must be non-negative, got -1"):
            RunOptions(seed=-1)


class TestRcliSearch:
    def test_single_region_equals_plain_cli(self):
        g = random_graph(10, 0.5, random.Random(43))
        fn = lambda h: int(h.edge_count % 4 == 0)
        partition = RegionPartition(("all",) * 10)
        r_regional = rcli_search(Oracle(fn), g, partition)
        r_plain = cli_search(Oracle(fn), g, options=RunOptions(ranking="triangles"))
        assert r_regional == r_plain

    def test_two_region_fixture_prefers_dense_region(self):
        # region "a" holds a K4, region "b" is empty: iteration 1 must remove
        # a clique fully inside "a"
        g = Graph(8, list(combinations(range(4), 2)))
        partition = RegionPartition(("a",) * 4 + ("b",) * 4)
        oracle = Oracle(lambda h: 0)
        with recorded_clique_steps() as trace:
            rcli_search(oracle, g, partition)
        assert trace[0].removed_clique <= {0, 1, 2, 3}

    def test_partition_must_cover_all_nodes(self):
        with pytest.raises(CoverageError):
            rcli_search(Oracle(lambda h: 0), Graph(6), RegionPartition(("a",) * 5))


class TestFinish:
    """A found result flips the class and differs from the input, so its
    distance ratio is always defined."""

    def test_unchanged_input_is_rejected_without_a_classifier_call(self):
        g = Graph(4, [(0, 1), (1, 2)])
        classify = CountingClassifier(lambda h: h.edge_count % 2)
        oracle = Oracle(classify)
        with pytest.raises(RuntimeError, match="unchanged"):
            density.finish_result(oracle, g, 0, g, 1, 0)
        assert classify.calls == 0

    def test_candidate_that_does_not_flip_is_rejected(self):
        g = Graph(4, [(0, 1), (1, 2)])
        oracle = Oracle(lambda h: 0)
        with pytest.raises(RuntimeError, match="flip"):
            density.finish_result(oracle, g, 0, g.add_edge(2, 3), 1, 0)
