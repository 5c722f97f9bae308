import random
from itertools import combinations

import pytest

from densecf import (
    ConfigurationError,
    Graph,
    GraphDataset,
    InvalidCandidateError,
    Oracle,
    RegionPartition,
    RunOptions,
    backward_search,
    dat_search,
    edg_search,
    rcli_search,
    refine_with_backward,
    symmetric_difference_distance,
)
from densecf.baselines import pair_at
from densecf.data import DatasetEntry

from conftest import CountingClassifier, random_graph


def dataset_of(graphs, labels=None, n=None):
    n = n if n is not None else graphs[0].node_count
    entries = tuple(
        DatasetEntry(g, labels[i] if labels else 0, f"g{i}") for i, g in enumerate(graphs)
    )
    return GraphDataset(tuple(str(i) for i in range(n)), entries)


class TestEdgSearch:
    def test_constant_oracle_runs_full_budget(self):
        g = random_graph(8, 0.4, random.Random(1))
        oracle = Oracle(lambda h: 0)
        result = edg_search(oracle, g)
        assert not result.found
        assert result.iterations == 2000
        assert result.oracle_calls == 2001

    def test_any_single_flip_oracle(self):
        g = Graph(6, [(0, 1), (2, 3)])
        oracle = Oracle(lambda h: int(h != g))
        result = edg_search(oracle, g, RunOptions(seed=5))
        assert result.found
        assert result.iterations == 1
        assert result.distance <= 1

    def test_same_seed_identical_result(self):
        g = random_graph(9, 0.5, random.Random(2))
        fn = lambda h: int(h.edge_count % 6 == 0)
        r1 = edg_search(Oracle(fn), g, RunOptions(seed=11))
        r2 = edg_search(Oracle(fn), g, RunOptions(seed=11))
        assert r1 == r2

    def test_refined_by_backward_search(self):
        # class depends only on edge (0,1); random flips will add noise that
        # the backward pass strips, leaving distance 1
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        oracle = Oracle(lambda h: int(h.has_edge(0, 1)))
        result = edg_search(oracle, g, RunOptions(seed=3))
        assert result.found
        assert result.distance == 1
        assert result.edits.removals == ((0, 1),)

    def test_iteration_bound_respected(self):
        g = random_graph(7, 0.5, random.Random(4))
        oracle = Oracle(lambda h: 0)
        result = edg_search(oracle, g, RunOptions(max_iterations=25))
        assert result.iterations == 25
        assert result.oracle_calls == 26


    def test_pair_at_decodes_the_lexicographic_pairs(self):
        for n in range(2, 131):
            pairs = [pair_at(n, k) for k in range(n * (n - 1) // 2)]
            assert pairs == list(combinations(range(n), 2)), n


class TestDatSearch:
    def test_returns_the_opposite_class_graph(self):
        g = Graph(5, [(0, 1)])
        h = Graph(5, [(0, 1), (1, 2)])
        oracle = Oracle(lambda x: int(x.edge_count >= 2))
        result = dat_search(oracle, g, dataset_of([g, h]))
        assert result.found
        assert result.counterfactual == h

    def test_found_whenever_both_classes_present(self):
        rng = random.Random(7)
        for _ in range(20):
            graphs = [random_graph(8, rng.uniform(0.2, 0.8), rng) for _ in range(12)]
            oracle = Oracle(lambda h: int(h.edge_count % 2 == 0))
            predictions = {oracle.classifier(x) for x in graphs}
            g = random_graph(8, 0.5, rng)
            result = dat_search(oracle, g, dataset_of(graphs))
            if len(predictions | {oracle.classifier(g)}) == 2 and len(predictions) == 2:
                assert result.found

    def test_matches_brute_force_scan(self):
        rng = random.Random(9)
        for _ in range(25):
            graphs = [random_graph(8, rng.uniform(0.2, 0.8), rng) for _ in range(10)]
            fn = lambda h: int(h.edge_count % 3 == 0)
            g = random_graph(8, 0.5, rng)
            y0 = fn(g)
            candidates = [
                (symmetric_difference_distance(g, x), i)
                for i, x in enumerate(graphs)
                if fn(x) != y0
            ]
            oracle = Oracle(fn)
            result = dat_search(oracle, g, dataset_of(graphs))
            if not candidates:
                assert not result.found
                assert result.note is not None
            else:
                best_d, best_i = min(candidates)
                assert result.found
                assert result.distance == best_d
                assert result.counterfactual == graphs[best_i]

    def test_distance_ties_take_lowest_index(self):
        g = Graph(4)
        a = Graph(4, [(0, 1)])
        b = Graph(4, [(2, 3)])
        oracle = Oracle(lambda h: int(h.edge_count > 0))
        result = dat_search(oracle, g, dataset_of([b, a]))
        assert result.counterfactual == b

    def test_call_accounting(self):
        graphs = [random_graph(6, 0.5, random.Random(s)) for s in range(8)]
        classifier = CountingClassifier(lambda h: int(h.edge_count % 2))
        oracle = Oracle(classifier)
        g = random_graph(6, 0.5, random.Random(99))
        result = dat_search(oracle, g, dataset_of(graphs))
        expected = 1 + len(graphs)
        assert result.oracle_calls == expected
        assert classifier.calls == expected + (1 if result.found else 0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError, match="dat needs a dataset with at least one graph"):
            dat_search(Oracle(lambda h: 0), Graph(4), dataset_of([], n=4))

    def test_missing_dataset_rejected_before_any_call(self):
        oracle = Oracle(lambda h: 0)
        with pytest.raises(ConfigurationError, match="dat needs a dataset with at least one graph"):
            dat_search(oracle, Graph(4), None)
        assert oracle.call_count == 0


class TestBackwardSearch:
    def test_locked_candidate_returned_unchanged(self):
        g = Graph(4)
        candidate = Graph(4, [(0, 1), (2, 3)])
        # opposite only when both edits are present: every revert flips back
        oracle = Oracle(lambda h: int(h.has_edge(0, 1) and h.has_edge(2, 3)))
        assert backward_search(oracle, g, candidate, 0, 1) == candidate

    def test_spurious_edits_stripped(self):
        g = Graph(8, [(4, 5), (5, 6), (6, 7)])
        oracle = Oracle(lambda h: int(h.has_edge(0, 1)))
        candidate = Graph(8, [(0, 1), (0, 2), (1, 3), (5, 6)])  # 5 edits from g
        assert symmetric_difference_distance(g, candidate) == 5
        refined = backward_search(oracle, g, candidate, 0, 1)
        assert symmetric_difference_distance(g, refined) == 1
        assert refined.has_edge(0, 1)

    def test_distance_never_increases(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(8, 0.5, rng)
            candidate = random_graph(8, 0.5, rng)
            fn = lambda h: int(h.edge_count % 2 == 0)
            if fn(candidate) == fn(g):
                continue
            oracle = Oracle(fn)
            refined = backward_search(oracle, g, candidate, fn(g), fn(candidate))
            assert symmetric_difference_distance(g, refined) <= symmetric_difference_distance(
                g, candidate
            )
            assert fn(refined) != fn(g)

    def test_precondition_violation(self):
        g = Graph(4, [(0, 1)])
        oracle = Oracle(lambda h: 0)
        with pytest.raises(InvalidCandidateError):
            backward_search(oracle, g, Graph(4, [(2, 3)]), 0, 0)
        assert oracle.call_count == 0

    def test_known_classes_skip_verification_calls(self):
        g = Graph(4)
        candidate = Graph(4, [(0, 1)])
        classifier = CountingClassifier(lambda h: int(h.edge_count > 0))
        oracle = Oracle(classifier)
        backward_search(oracle, g, candidate, input_class=0, candidate_class=1)
        assert classifier.calls == 1  # only the single tentative revert


class TestCompositions:
    def test_dat_bw_shrinks_distance(self):
        rng = random.Random(17)
        graphs = [random_graph(9, rng.uniform(0.3, 0.7), rng) for _ in range(12)]
        fn = lambda h: int(h.edge_count % 2 == 0)
        g = random_graph(9, 0.5, rng)
        base = dat_search(Oracle(fn), g, dataset_of(graphs))
        oracle = Oracle(fn)
        composed = refine_with_backward(oracle, g, dat_search(oracle, g, dataset_of(graphs)))
        assert composed.found == base.found
        if base.found:
            assert composed.distance <= base.distance
            assert fn(composed.counterfactual) != fn(g)
            assert composed.oracle_calls >= base.oracle_calls
            assert composed.oracle_calls == oracle.call_count

    def test_rcli_bw_shrinks_distance(self):
        rng = random.Random(19)
        g = random_graph(10, 0.6, rng)
        partition = RegionPartition(tuple("ab"[i % 2] for i in range(10)))
        fn = lambda h: int(h.edge_count < g.edge_count - 4)
        base = rcli_search(Oracle(fn), g, partition)
        oracle = Oracle(fn)
        composed = refine_with_backward(oracle, g, rcli_search(oracle, g, partition))
        assert composed.found == base.found
        if base.found:
            assert composed.distance <= base.distance
            assert fn(composed.counterfactual) != fn(g)

    def test_dat_bw_not_found_passthrough(self):
        graphs = [Graph(5, [(0, 1)]), Graph(5, [(1, 2)])]
        oracle = Oracle(lambda h: 0)
        base = dat_search(oracle, Graph(5), dataset_of(graphs))
        assert refine_with_backward(oracle, Graph(5), base) is base
        assert not base.found
