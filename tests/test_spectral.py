import pickle
import random
import sys
import threading
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

from densecf import (
    METHODS,
    DegenerateLabelsError,
    Graph,
    GraphDataset,
    Oracle,
    OracleSpec,
    RegionPartition,
    RunOptions,
    SFKnnModel,
    knn_predict,
    load_model,
    save_model,
    spectral,
    spectral_features,
    train_sf_knn,
)
from densecf.data import DatasetEntry
from densecf.density import finish_result
from densecf.graph import adjacency_matrix
from densecf.runner import run_instance
from densecf.spectral import POSITIVE_EIGENVALUE_TOL, knn_classifier, normalized_laplacian

from conftest import random_graph


def independent_spectral_oracle(g: Graph, k: int) -> list[float]:
    """Laplacian built from scratch plus a different LAPACK path."""
    n = g.node_count
    deg = [g.degree(v) for v in range(n)]
    lap = [[0.0] * n for _ in range(n)]
    for i in range(n):
        lap[i][i] = 1.0
    for u, v in g.edges:
        w = -1.0 / (deg[u] ** 0.5 * deg[v] ** 0.5)
        lap[u][v] = w
        lap[v][u] = w
    eigs = sorted(float(x) for x in scipy.linalg.eigh(np.array(lap), eigvals_only=True))
    positives = [x for x in eigs if x > POSITIVE_EIGENVALUE_TOL]
    out = positives[:k]
    out += [0.0] * (k - len(out))
    return out


class TestSpectralFeatures:
    def test_k3(self):
        feats = spectral_features(Graph(3, [(0, 1), (1, 2), (0, 2)]), 2)
        assert feats == pytest.approx((1.5, 1.5), abs=1e-12)

    def test_star(self):
        star = Graph(5, [(0, i) for i in range(1, 5)])
        feats = spectral_features(star, 3)
        assert feats == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            spectral_features(Graph(3), 0)

    def test_padding_when_not_enough_positive_eigenvalues(self):
        feats = spectral_features(Graph(3, [(0, 1), (1, 2), (0, 2)]), 3)
        assert feats.dtype == np.float64 and feats.shape == (3,)
        assert feats[2] == 0.0
        assert feats[:2] == pytest.approx((1.5, 1.5))

    def test_isolated_nodes_contribute_eigenvalue_one(self):
        feats = spectral_features(Graph(3), 3)
        assert feats == pytest.approx((1.0, 1.0, 1.0))

    def test_matches_independent_eigensolver(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_graph(20, rng.uniform(0.1, 0.8), rng)
            k = rng.choice([3, 5, 10])
            got = spectral_features(g, k)
            expected = independent_spectral_oracle(g, k)
            assert got == pytest.approx(expected, abs=1e-8)

    def test_laplacian_equals_the_matrix_expression_bit_for_bit(self):
        rng = random.Random(41)
        for n in (1, 2, 15, 116):
            g = random_graph(n, rng.uniform(0.0, 0.9), rng)
            a = adjacency_matrix(g)
            with np.errstate(divide="ignore"):
                s = 1.0 / np.sqrt(a.sum(axis=1))
            s[~np.isfinite(s)] = 0.0
            expected = np.eye(n) - (s[:, None] * a) * s[None, :]
            assert normalized_laplacian(g).tobytes() == expected.tobytes()

    def test_eigenvalues_in_zero_two_range(self):
        rng = random.Random(37)
        for _ in range(60):
            g = random_graph(15, rng.uniform(0.05, 0.95), rng)
            eigs = np.linalg.eigvalsh(normalized_laplacian(g))
            assert eigs.min() >= -1e-9
            assert eigs.max() <= 2 + 1e-9

    def test_isomorphism_invariance(self):
        rng = random.Random(43)
        for _ in range(20):
            g = random_graph(12, 0.4, rng)
            perm = list(range(12))
            rng.shuffle(perm)
            h = Graph(12, [(perm[u], perm[v]) for u, v in g.edges])
            assert spectral_features(g, 6) == pytest.approx(
                spectral_features(h, 6), abs=1e-9
            )


def features_of(g: Graph, k: int) -> tuple[float, ...]:
    return tuple(spectral_features(g, k))


class TestKnnPredict:
    def make_model(self, graphs, labels, n_neighbors, k=4, metric="euclidean"):
        return SFKnnModel(
            training_features=tuple(features_of(g, k) for g in graphs),
            training_labels=tuple(labels),
            n_neighbors=n_neighbors,
            n_eigs=k,
            metric=metric,
        )

    def test_identical_training_graph_wins_with_one_neighbor(self):
        rng = random.Random(53)
        graphs = [random_graph(8, 0.5, rng) for _ in range(6)]
        labels = [0, 1, 0, 1, 1, 0]
        model = self.make_model(graphs, labels, n_neighbors=1)
        for g, label in zip(graphs, labels):
            assert knn_predict(model, g) == label

    def test_vote_tie_goes_to_zero(self):
        a = Graph(4, [(0, 1)])
        b = Graph(4, [(2, 3)])  # isomorphic: identical features, distance ties
        model = self.make_model([a, b], [1, 0], n_neighbors=2)
        assert knn_predict(model, a) == 0

    def test_distance_tie_prefers_lower_training_index(self):
        a = Graph(4, [(0, 1)])
        b = Graph(4, [(2, 3)])
        c = Graph.complete(4)
        model = self.make_model([a, b, c], [1, 0, 0], n_neighbors=1)
        # query equidistant (zero) from items 0 and 1; index 0 wins
        assert knn_predict(model, Graph(4, [(1, 2)])) == 1

    def test_matches_brute_force_scan(self):
        # each metric against its own scan; L1 must rank some query's
        # neighbours apart from L2, so the scans tell the two branches apart
        rng = random.Random(59)
        graphs = [random_graph(10, rng.uniform(0.2, 0.8), rng) for _ in range(15)]
        labels = [rng.randrange(2) for _ in graphs]
        distance = {
            "euclidean": lambda d: float(np.linalg.norm(d)),
            "manhattan": lambda d: float(np.abs(d).sum()),
        }
        apart = 0
        for nn in (1, 3, 5):
            models = {m: self.make_model(graphs, labels, nn, metric=m) for m in distance}
            for _ in range(20):
                q = random_graph(10, rng.uniform(0.2, 0.8), rng)
                qf = np.array(features_of(q, 4))
                nearest = {}
                for metric, model in models.items():
                    dists = [
                        (distance[metric](np.array(f) - qf), i)
                        for i, f in enumerate(model.training_features)
                    ]
                    dists.sort()
                    nearest[metric] = [i for _, i in dists[:nn]]
                    votes = [labels[i] for i in nearest[metric]]
                    expected = 1 if votes.count(1) > votes.count(0) else 0
                    assert knn_predict(model, q) == expected
                apart += nearest["euclidean"] != nearest["manhattan"]
        assert apart > 0

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"training_labels": (0,)}, "features and labels must have the same length"),
            ({"training_labels": (0, 2)}, "labels must be 0 or 1"),
            ({"n_neighbors": 0}, "n_neighbors must be positive"),
            ({"n_eigs": 0}, "n_eigs must be positive"),
            ({"n_eigs": 3}, "every feature vector must have length n_eigs"),
        ],
        ids=["length-mismatch", "label-2", "no-neighbors", "no-eigenvalues", "short-features"],
    )
    def test_invalid_field_rejected(self, change, message):
        fields = dict(
            training_features=((0.0, 1.0), (1.0, 0.0)), training_labels=(0, 1),
            n_neighbors=1, n_eigs=2,
        )
        SFKnnModel(**fields)
        with pytest.raises(ValueError, match=message):
            SFKnnModel(**{**fields, **change})

    def test_empty_model_raises(self):
        # a model without training rows cannot be built, so none can predict
        with pytest.raises(ValueError, match="training-set size"):
            SFKnnModel((), (), n_neighbors=1, n_eigs=4)

    def test_training_order_invariance_given_tie_breaks(self):
        rng = random.Random(61)
        graphs = [random_graph(9, 0.5, rng) for _ in range(8)]
        labels = [0, 1, 1, 0, 1, 0, 0, 1]
        model = self.make_model(graphs, labels, n_neighbors=3)
        # reversing the training list preserves predictions when no distances tie
        rev = self.make_model(list(reversed(graphs)), list(reversed(labels)), n_neighbors=3)
        for _ in range(25):
            q = random_graph(9, rng.uniform(0.3, 0.7), rng)
            qf = np.array(features_of(q, 4))
            dists = sorted(float(np.linalg.norm(np.array(f) - qf)) for f in model.training_features)
            if len(set(dists)) == len(dists):
                assert knn_predict(model, q) == knn_predict(rev, q)


class TestKnnClassifier:
    """The SF-KNN classifier an ``OracleSpec`` builds keeps its last graph."""

    PAIRS = list(combinations(range(10), 2))

    def model(self):
        rng = random.Random(3)
        graphs = [random_graph(10, rng.uniform(0.2, 0.8), rng) for _ in range(12)]
        return SFKnnModel(
            training_features=tuple(tuple(spectral_features(g, 4)) for g in graphs),
            training_labels=tuple(i % 2 for i in range(12)),
            n_neighbors=1,
            n_eigs=4,
        )

    def toggled(self, g, pair):
        return g.remove_edge(*pair) if g.has_edge(*pair) else g.add_edge(*pair)

    def test_shared_across_threads_equals_knn_predict(self):
        # each thread walks its own edit chain through one classifier and asks
        # for every graph ten times, all but the first from the slot unless
        # another thread got in between; a slot holding one thread's graph
        # with another's class gives wrong labels. Each edited graph is
        # followed by the last two graphs of the chain built afresh: the
        # first goes into the shared class table, the second is answered
        # from it
        model = self.model()
        classify = OracleSpec(kind="model", model=model).build().classifier
        walks = []
        for seed in range(4):
            rng, steps = random.Random(seed), []
            g = random_graph(10, 0.5, rng)
            chain = [(g, knn_predict(model, g))] * 2
            for _ in range(1000):
                g = self.toggled(g, rng.choice(self.PAIRS))
                chain = [(g, knn_predict(model, g)), *chain[:2]]
                steps += [chain[0], *((Graph(10, h.edges), c) for h, c in chain[1:])]
            walks.append(steps)
        wrong = []

        def walk(steps):
            for g, expected in steps:
                if any(classify(g) != expected for _ in range(10)):
                    wrong.append(g)

        threads = [threading.Thread(target=walk, args=(steps,)) for steps in walks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert {c for steps in walks for _, c in steps} == {0, 1}  # the walks cross classes
        assert not wrong
        built = {g for steps in walks for g, _ in steps if not g.edited}
        assert model.class_table == {g: knn_predict(model, g) for g in built}

    def test_flip_check_classifies_any_other_graph_again(self, monkeypatch):
        model = self.model()
        g = random_graph(10, 0.5, random.Random(4))
        y0 = knn_predict(model, g)
        edits = [self.toggled(g, pair) for pair in self.PAIRS]
        flipped = next(h for h in edits if knn_predict(model, h) != y0)
        kept = next(h for h in edits if knn_predict(model, h) == y0)
        computed = []

        def counting(model, h):
            computed.append(h)
            return knn_predict(model, h)

        monkeypatch.setattr(spectral, "knn_predict", counting)
        oracle = OracleSpec(kind="model", model=model).build()
        assert oracle.predict(g) == y0
        assert oracle.predict(flipped) != y0  # the slot now holds the flipped graph
        # a candidate that is not the slot's graph is classified, and fails
        with pytest.raises(RuntimeError, match="does not flip"):
            finish_result(oracle, g, y0, kept, True, 1, 0)
        assert computed == [g, flipped, kept]
        # the graph the search charged last is answered from the slot
        assert oracle.predict(flipped) != y0
        result = finish_result(oracle, g, y0, Graph(10, flipped.edges), True, 1, 0)
        assert result.found and result.oracle_calls == oracle.call_count == 3
        assert computed == [g, flipped, kept, flipped]


class TestClassTable:
    """Every classifier of one SF-KNN model shares the class of each graph no
    edit made: a dataset graph is computed once while the model lives."""

    SEARCHES = ("tri", "cli", "rcli", "dat")

    def inputs(self):
        rng = random.Random(8)
        n = 12
        graphs = [random_graph(n, rng.uniform(0.3, 0.6), rng) for _ in range(6)]
        entries = tuple(DatasetEntry(g, i % 2, f"g{i}") for i, g in enumerate(graphs))
        dataset = GraphDataset(tuple(str(v) for v in range(n)), entries)
        partition = RegionPartition(tuple("abc"[v % 3] for v in range(n)))
        model = SFKnnModel(
            training_features=tuple(tuple(spectral_features(g, 4)) for g in graphs),
            training_labels=dataset.labels,
            n_neighbors=3,
            n_eigs=4,
        )
        return dataset, partition, model

    def run(self, model_for, methods, dataset, partition):
        options = RunOptions(max_iterations=6)
        records = []
        for method in methods:
            for i in range(len(dataset)):
                oracle = OracleSpec("model", model_for()).build()
                records.append(run_instance(method, i, oracle, dataset, partition, options))
        return records

    def test_each_dataset_graph_is_computed_once_per_model(self, monkeypatch):
        dataset, partition, model = self.inputs()
        fresh = self.run(lambda: replace(model), self.SEARCHES, dataset, partition)
        unedited = []

        def counting(model, g):
            if not g.edited:
                unedited.append(g)
            return knn_predict(model, g)

        monkeypatch.setattr(spectral, "knn_predict", counting)
        shared = self.run(lambda: model, self.SEARCHES, dataset, partition)
        assert shared == fresh
        assert sorted(Counter(unedited).values()) == [1] * len(dataset)
        assert set(unedited) == {e.graph for e in dataset}

    def test_no_edited_graph_enters_the_table(self):
        dataset, partition, model = self.inputs()
        self.run(lambda: model, METHODS, dataset, partition)
        classify = knn_classifier(model)
        g = dataset.entries[0].graph
        for h in (g.remove_edge(*min(g.edges)), g):
            classify(h)
        assert model.class_table.keys() == {e.graph for e in dataset}
        assert not any(h.edited for h in model.class_table)

    def test_the_table_leaves_the_model_unchanged(self, tmp_path):
        dataset, partition, model = self.inputs()
        before = (hash(model), repr(model), pickle.dumps(model), replace(model))
        save_model(model, tmp_path / "before.json")
        self.run(lambda: model, METHODS, dataset, partition)
        assert model.class_table
        save_model(model, tmp_path / "after.json")
        assert (hash(model), repr(model), pickle.dumps(model), model) == before
        assert (tmp_path / "before.json").read_bytes() == (tmp_path / "after.json").read_bytes()
        assert pickle.loads(pickle.dumps(model)).class_table == {}


class TestOracle:
    def test_single_call_counts_once(self):
        oracle = Oracle(lambda g: 1)
        assert oracle.predict(Graph(3)) == 1
        assert oracle.call_count == 1

    def test_n_calls_count_n(self):
        oracle = Oracle(lambda g: 0)
        for _ in range(17):
            oracle.predict(Graph(2))
        assert oracle.call_count == 17

    def test_direct_classifier_access_is_uncounted(self):
        oracle = Oracle(lambda g: 1)
        assert oracle.classifier(Graph(2)) == 1
        assert oracle.call_count == 0

    def test_check_is_uncounted_and_reads_the_current_classifier(self):
        oracle = Oracle(lambda g: 1)
        assert oracle.check(Graph(2)) == 1
        oracle.classifier = lambda g: 0  # as a wrapping counter replaces it
        assert oracle.check(Graph(2)) == 0 and oracle.predict(Graph(2)) == 0
        assert oracle.call_count == 1

    def test_per_worker_clones_sum_to_aggregate(self):
        base = Oracle(lambda g: g.edge_count % 2)
        clones = [Oracle(base.classifier) for _ in range(4)]
        rng = random.Random(67)
        per_clone = []
        for clone in clones:
            n = rng.randrange(1, 20)
            for _ in range(n):
                clone.predict(random_graph(6, 0.5, rng))
            per_clone.append(n)
        assert sum(c.call_count for c in clones) == sum(per_clone)


def _has_triangle(g: Graph) -> bool:
    return any(g.neighbors(u) & g.neighbors(v) for u, v in g.edges)


def triangle_class_dataset(num_graphs: int = 40, n: int = 12, seed: int = 101) -> GraphDataset:
    """Sparse graphs at a fixed edge count, labeled by triangle presence.

    Class 0 is built by rejection (no edge that would close a triangle); class
    1 plants a few triangles and fills with random edges to the same count.
    """
    from itertools import combinations

    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    target_edges = 13
    entries = []
    for i in range(num_graphs):
        label = i % 2
        g = Graph(n)
        if label == 0:
            tries = 0
            while g.edge_count < target_edges and tries < 20000:
                tries += 1
                u, v = pairs[rng.randrange(len(pairs))]
                if g.has_edge(u, v):
                    continue
                grown = g.add_edge(u, v)
                if _has_triangle(grown):
                    continue
                g = grown
        else:
            for _ in range(3):
                nodes = rng.sample(range(n), 3)
                for e in combinations(nodes, 2):
                    if not g.has_edge(*e):
                        g = g.add_edge(*e)
            while g.edge_count < target_edges:
                u, v = pairs[rng.randrange(len(pairs))]
                if not g.has_edge(u, v):
                    g = g.add_edge(u, v)
        assert _has_triangle(g) == bool(label)
        entries.append(DatasetEntry(graph=g, label=label, name=f"g{i}"))
    return GraphDataset(tuple(str(i) for i in range(n)), tuple(entries))


class TestTraining:
    def test_triangle_class_dataset_reaches_high_accuracy(self):
        dataset = triangle_class_dataset()
        model, report = train_sf_knn(dataset, folds=5, seed=0)
        assert report.accuracy >= 0.9
        assert model.n_eigs == report.n_eigs
        assert model.n_neighbors == report.n_neighbors

    def test_single_configuration_grid(self):
        dataset = triangle_class_dataset(num_graphs=20)
        model, report = train_sf_knn(dataset, neighbor_grid=[3], eig_grid=[7], folds=4, seed=1)
        assert (model.n_neighbors, model.n_eigs) == (3, 7)
        assert report.grid_scores[0][:2] == (3, 7)

    def test_single_class_dataset_rejected(self):
        rng = random.Random(71)
        entries = tuple(
            DatasetEntry(random_graph(8, 0.3, rng), 0, f"g{i}") for i in range(10)
        )
        dataset = GraphDataset(tuple(str(i) for i in range(8)), entries)
        with pytest.raises(DegenerateLabelsError):
            train_sf_knn(dataset)

    def test_more_folds_than_graphs_rejected(self):
        dataset = triangle_class_dataset(num_graphs=4)
        with pytest.raises(ValueError):
            train_sf_knn(dataset, folds=5)

    def test_unknown_metric_rejected_before_any_eigenvalue(self, monkeypatch):
        def no_laplacian(g):
            raise AssertionError("eigenvalues computed for an unusable metric")

        monkeypatch.setattr(spectral, "positive_laplacian_eigenvalues", no_laplacian)
        dataset = triangle_class_dataset(num_graphs=10)
        with pytest.raises(ValueError, match=r"metric must be one of \('euclidean', 'manhattan'\)"):
            train_sf_knn(dataset, folds=2, metric="cosine")

    def test_negative_seed_rejected_before_any_eigenvalue(self, monkeypatch):
        # random.Random seeds from abs(seed): -1 would silently repeat seed 1's folds
        def no_laplacian(g):
            raise AssertionError("eigenvalues computed for an unusable seed")

        monkeypatch.setattr(spectral, "positive_laplacian_eigenvalues", no_laplacian)
        dataset = triangle_class_dataset(num_graphs=10)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            train_sf_knn(dataset, folds=2, seed=-1)

    def test_same_seed_reproduces_report(self):
        dataset = triangle_class_dataset(num_graphs=24)
        _, r1 = train_sf_knn(dataset, folds=4, seed=9)
        _, r2 = train_sf_knn(dataset, folds=4, seed=9)
        assert r1 == r2

    def test_different_seed_changes_fold_assignment(self):
        dataset = triangle_class_dataset(num_graphs=24)
        _, r1 = train_sf_knn(dataset, folds=4, seed=0)
        _, r2 = train_sf_knn(dataset, folds=4, seed=1)
        assert r1.fold_assignment != r2.fold_assignment


class TestPersistence:
    def test_round_trip(self, tmp_path):
        dataset = triangle_class_dataset(num_graphs=20)
        model, _ = train_sf_knn(dataset, folds=4, seed=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model and hash(loaded) == hash(model)
        assert loaded.training_matrix is not model.training_matrix
        assert "training_matrix" not in path.read_text()
        again = tmp_path / "again.json"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_model(path)
