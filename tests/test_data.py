import random
import statistics

import numpy as np
import pytest

from densecf import (
    DatasetFormatError,
    Graph,
    GraphDataset,
    PartitionError,
    RegionPartition,
    SyntheticSpec,
    generate_synthetic,
    ingest_correlation_listing,
    load_dataset,
    node_halves,
    save_dataset,
    threshold_correlations,
    triangle_counts,
    whitebox_classify,
)
from densecf.data import DatasetEntry, load_partition

from conftest import random_graph


def symmetric_matrix(values_3x3_offdiag):
    a, b, c = values_3x3_offdiag  # (0,1), (0,2), (1,2)
    return np.array([[1.0, a, b], [a, 1.0, c], [b, c, 1.0]])


class TestThresholding:
    def test_ninetieth_percentile_keeps_only_top_pair(self):
        m = symmetric_matrix((0.1, 0.2, 0.9))
        # threshold = 90th percentile of {0.1, 0.2, 0.9} = 0.76 under linear
        # interpolation; only 0.9 strictly exceeds it
        assert np.percentile([0.1, 0.2, 0.9], 90) == pytest.approx(0.76)
        g = threshold_correlations(m, 90)
        assert g.edges == {(1, 2)}

    def test_constant_matrix_yields_no_edges(self):
        m = np.full((4, 4), 0.5)
        np.fill_diagonal(m, 1.0)
        assert threshold_correlations(m, 50).edge_count == 0

    def test_percentile_zero_excludes_only_minimum(self):
        rng = random.Random(5)
        n = 6
        m = np.ones((n, n))
        values = rng.sample(range(100), n * (n - 1) // 2)
        it = iter(values)
        for i in range(n):
            for j in range(i + 1, n):
                m[i, j] = m[j, i] = next(it) / 100
        g = threshold_correlations(m, 0)
        assert g.edge_count == n * (n - 1) // 2 - 1  # all pairs except the minimum

    def test_edge_count_monotone_in_percentile(self):
        rng = np.random.default_rng(7)
        base = rng.uniform(-1, 1, size=(8, 8))
        m = (base + base.T) / 2
        np.fill_diagonal(m, 1.0)
        counts = [threshold_correlations(m, p).edge_count for p in (0, 20, 50, 80, 95)]
        assert counts == sorted(counts, reverse=True)

    def test_rejects_asymmetric(self):
        m = np.eye(3)
        m[0, 1] = 0.5
        with pytest.raises(DatasetFormatError):
            threshold_correlations(m, 50)

    def test_rejects_non_square(self):
        with pytest.raises(DatasetFormatError):
            threshold_correlations(np.ones((2, 3)), 50)

    @pytest.mark.parametrize(
        "offdiag, percentile",
        [
            ((np.inf, -np.inf, 0.2), 50),
            ((np.nan, 0.1, 0.2), 50),
            ((1.7e308, -1.7e308, 1.7e308), 25),
        ],
        ids=["inf", "nan", "overflow"],
    )
    def test_rejects_matrix_without_a_finite_threshold(self, offdiag, percentile):
        # overflow: the 25th percentile lies between -1.7e308 and 1.7e308, whose
        # difference overflows; the threshold would read -inf and keep every pair
        with pytest.raises(DatasetFormatError):
            threshold_correlations(symmetric_matrix(offdiag), percentile)


class TestSyntheticGeneration:
    def test_paper_scale_defaults_resolve(self):
        spec = SyntheticSpec(node_count=100, num_graphs=100).resolved()
        assert spec.subgroup_size == 25
        assert spec.cliques_per_graph == 10
        assert spec.attachment == 25
        spec2 = SyntheticSpec(node_count=96, num_graphs=100, subgroups_per_class=2).resolved()
        assert spec2.subgroup_size == 12
        assert spec2.cliques_per_graph == 20

    def test_sizes_and_balanced_labels(self):
        dataset = generate_synthetic(SyntheticSpec(node_count=40, num_graphs=12, seed=3))
        assert len(dataset) == 12
        assert dataset.node_count == 40
        assert sum(dataset.labels) == 6

    def test_same_seed_identical(self):
        spec = SyntheticSpec(node_count=40, num_graphs=10, seed=9)
        assert generate_synthetic(spec) == generate_synthetic(spec)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticSpec(node_count=40, num_graphs=10, seed=1))
        b = generate_synthetic(SyntheticSpec(node_count=40, num_graphs=10, seed=2))
        assert a != b

    @pytest.mark.parametrize("subgroups", [1, 2])
    def test_triangle_mass_concentrates_on_own_half(self, subgroups):
        dataset = generate_synthetic(
            SyntheticSpec(node_count=60, num_graphs=40, subgroups_per_class=subgroups, seed=17)
        )
        s0, s1 = node_halves(60)
        hits = 0
        for entry in dataset:
            tri = triangle_counts(entry.graph)
            own = s0 if entry.label == 0 else s1
            other = s1 if entry.label == 0 else s0
            if statistics.mean(tri[v] for v in own) > statistics.mean(tri[v] for v in other):
                hits += 1
        assert hits >= 0.95 * len(dataset)

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(node_count=20, num_graphs=10, subgroup_size=11).resolved()
        with pytest.raises(ValueError):
            SyntheticSpec(node_count=40, num_graphs=9).resolved()
        with pytest.raises(ValueError):
            SyntheticSpec(node_count=40, num_graphs=10, subgroups_per_class=3).resolved()


class TestWhitebox:
    def test_dense_half_detected(self):
        g = Graph(20, [(u, v) for u in range(10, 20) for v in range(u + 1, 20)])
        s0, s1 = node_halves(20)
        assert whitebox_classify(g, s0, s1) == 1

    def test_perfect_accuracy_on_generated_data(self):
        for subgroups in (1, 2):
            dataset = generate_synthetic(
                SyntheticSpec(node_count=60, num_graphs=20, subgroups_per_class=subgroups, seed=23)
            )
            s0, s1 = node_halves(60)
            assert all(whitebox_classify(e.graph, s0, s1) == e.label for e in dataset)

    def test_symmetric_graph_ties_to_zero(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert whitebox_classify(g, (0, 1, 2), (3, 4, 5)) == 0

    def test_edge_tiebreak(self):
        g = Graph(6, [(0, 1), (1, 2)])  # no triangles; two edges in s0
        assert whitebox_classify(g, (0, 1, 2), (3, 4, 5)) == 0
        h = Graph(6, [(3, 4), (4, 5)])
        assert whitebox_classify(h, (0, 1, 2), (3, 4, 5)) == 1

    def test_overlapping_subsets_rejected(self):
        with pytest.raises(PartitionError):
            whitebox_classify(Graph(4), (0, 1), (1, 2, 3))

    def test_partial_cover_rejected(self):
        with pytest.raises(PartitionError):
            whitebox_classify(Graph(4), (0,), (1, 2))


class TestPersistence:
    def make_dataset(self, with_partition=True):
        rng = random.Random(31)
        entries = tuple(
            DatasetEntry(random_graph(7, 0.4, rng), i % 2, f"graph-{i}") for i in range(6)
        )
        partition = RegionPartition(("left",) * 3 + ("right",) * 4) if with_partition else None
        node_ids = tuple(f"roi{i}" for i in range(7))
        return GraphDataset(7, node_ids, entries, partition)

    def test_round_trip(self, tmp_path):
        dataset = self.make_dataset()
        manifest = save_dataset(dataset, tmp_path / "ds")
        assert load_dataset(manifest) == dataset

    def test_round_trip_without_partition(self, tmp_path):
        dataset = self.make_dataset(with_partition=False)
        manifest = save_dataset(dataset, tmp_path / "ds")
        loaded = load_dataset(manifest)
        assert loaded == dataset
        assert loaded.partition is None

    def test_empty_dataset(self, tmp_path):
        dataset = GraphDataset(4, tuple("abcd"), ())
        manifest = save_dataset(dataset, tmp_path / "empty")
        loaded = load_dataset(manifest)
        assert len(loaded) == 0
        assert loaded.node_count == 4

    def test_byte_stable_output(self, tmp_path):
        dataset = self.make_dataset()
        m1 = save_dataset(dataset, tmp_path / "a")
        m2 = save_dataset(dataset, tmp_path / "b")
        assert m1.read_bytes() == m2.read_bytes()
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_synthetic_round_trip(self, tmp_path):
        dataset = generate_synthetic(SyntheticSpec(node_count=30, num_graphs=6, seed=4))
        manifest = save_dataset(dataset, tmp_path / "synth")
        assert load_dataset(manifest) == dataset

    @pytest.mark.parametrize(
        "node_id", ["", "#a", "a b", "a\tb", " a", "a\n", "a\u2028b", "\ud800"]
    )
    def test_ids_that_cannot_round_trip_are_rejected_before_writing(self, tmp_path, node_id):
        # "#a" would start a comment line: its edges would reload as absent
        dataset = GraphDataset(2, (node_id, "b"), (DatasetEntry(Graph(2, [(0, 1)]), 0, "g"),))
        with pytest.raises(DatasetFormatError, match="node id"):
            save_dataset(dataset, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_unknown_node_id_diagnosed(self, tmp_path):
        dataset = self.make_dataset(with_partition=False)
        save_dataset(dataset, tmp_path / "ds")
        bad = tmp_path / "ds" / "graph-0000.edges"
        bad.write_text("roi0 roi9\n")
        with pytest.raises(DatasetFormatError, match="roi9"):
            load_dataset(tmp_path / "ds")

    def test_bad_label_diagnosed(self, tmp_path):
        dataset = self.make_dataset(with_partition=False)
        manifest = save_dataset(dataset, tmp_path / "ds")
        text = manifest.read_text().replace('"label": 1', '"label": 3', 1)
        manifest.write_text(text)
        with pytest.raises(DatasetFormatError, match="label"):
            load_dataset(manifest)

    def test_partition_missing_node_diagnosed(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("node_id,region_name\na,left\n")
        with pytest.raises(DatasetFormatError):
            load_partition(path, ["a", "b"])


class TestIngest:
    def write_matrix(self, path, m):
        with open(path, "w") as fh:
            for row in m:
                fh.write(",".join(str(x) for x in row) + "\n")

    def test_ingest_listing(self, tmp_path):
        rng = np.random.default_rng(41)
        names = []
        for i in range(4):
            base = rng.uniform(-1, 1, size=(5, 5))
            m = (base + base.T) / 2
            np.fill_diagonal(m, 1.0)
            self.write_matrix(tmp_path / f"m{i}.csv", m)
            names.append(f"m{i}.csv")
        listing = tmp_path / "listing.csv"
        listing.write_text(
            "file,label,name\n"
            + "\n".join(f"{name},{i % 2},subj{i}" for i, name in enumerate(names))
            + "\n"
        )
        dataset = ingest_correlation_listing(listing, percentile=80)
        assert len(dataset) == 4
        assert dataset.node_count == 5
        assert dataset.labels == (0, 1, 0, 1)
        # strict-threshold check against a direct recomputation
        m0 = np.loadtxt(tmp_path / "m0.csv", delimiter=",")
        iu = np.triu_indices(5, k=1)
        t = np.percentile(m0[iu], 80)
        expected = {(int(u), int(v)) for u, v in zip(*iu) if m0[u, v] > t}
        assert dataset.entries[0].graph.edges == expected

    def test_mismatched_sizes_rejected(self, tmp_path):
        self.write_matrix(tmp_path / "a.csv", np.eye(3))
        self.write_matrix(tmp_path / "b.csv", np.eye(4))
        listing = tmp_path / "l.csv"
        listing.write_text("file,label\na.csv,0\nb.csv,1\n")
        with pytest.raises(DatasetFormatError):
            ingest_correlation_listing(listing, percentile=90)

    def test_bad_label_rejected(self, tmp_path):
        self.write_matrix(tmp_path / "a.csv", np.eye(3))
        listing = tmp_path / "l.csv"
        listing.write_text("file,label\na.csv,yes\n")
        with pytest.raises(DatasetFormatError):
            ingest_correlation_listing(listing, percentile=90)

    def test_error_names_the_physical_line(self, tmp_path):
        self.write_matrix(tmp_path / "m.csv", np.eye(3))
        listing = tmp_path / "l1.csv"
        listing.write_text("file,label\n\nm.csv,0\n\nm.csv,3\n")
        with pytest.raises(DatasetFormatError, match=r"l1\.csv:5:"):
            ingest_correlation_listing(listing, percentile=90)
