import json
import random
import re
import statistics
import sys
import threading

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
    make_whitebox,
    node_halves,
    save_dataset,
    threshold_correlations,
    triangle_counts,
    whitebox_classify,
)
from densecf import data
from densecf.data import DatasetEntry, load_correlation_matrix, load_partition
from densecf.graph import with_clique, with_swap

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

    def test_negative_clique_count_rejected(self):
        with pytest.raises(ValueError, match="cliques_per_graph"):
            SyntheticSpec(node_count=40, num_graphs=10, cliques_per_graph=-1).resolved()
        spec = SyntheticSpec(node_count=40, num_graphs=10, cliques_per_graph=0).resolved()
        assert spec.cliques_per_graph == 0


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

    def test_rule_checks_the_cover_after_classifying(self):
        rule = make_whitebox((0, 1, 2), (3, 4, 5))
        assert rule(Graph(6, [(3, 4)])) == 1
        assert rule(Graph(6, [(3, 4), (0, 1), (1, 2)])) == 0
        with pytest.raises(PartitionError):
            rule(Graph(7))

    def test_rule_with_overlapping_halves_raises_on_first_call(self):
        with pytest.raises(PartitionError):
            make_whitebox((0, 1, 2), (2, 3, 4, 5))(Graph(6))

    def test_rule_shared_across_threads_equals_the_reference(self):
        # each thread walks its own edit chain through one rule, so a memo
        # holding one thread's graph with another's counts gives wrong labels
        s0, s1 = node_halves(10)
        rule = make_whitebox(s0, s1)
        pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)]
        wrong = []

        def walk(seed):
            rng = random.Random(seed)
            g = random_graph(10, 0.5, rng)
            for _ in range(2000):
                u, v = rng.choice(pairs)
                g = g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
                if rule(g) != whitebox_classify(g, s0, s1):
                    wrong.append(seed)

        threads = [threading.Thread(target=walk, args=(seed,)) for seed in range(4)]
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
        assert not wrong

    def test_rule_recounts_only_a_graph_not_edited_from_the_last(self, monkeypatch):
        # a built graph, an edge added to it, a sibling of that child, then a
        # swap and a clique each edited from the graph before, and the last
        # graph's edges built afresh
        s0, s1 = node_halves(12)
        built = random_graph(12, 0.5, random.Random(5))
        absent = [(u, v) for u in range(12) for v in range(u + 1, 12) if not built.has_edge(u, v)]
        sibling = built.add_edge(*absent[1])
        swapped = with_swap(sibling, min(sibling.edges), absent[2])
        clique = with_clique(swapped, range(5), True)
        graphs = [built, built.add_edge(*absent[0]), sibling, swapped, clique]
        graphs.append(Graph(12, clique.edges))
        labels = [whitebox_classify(g, s0, s1) for g in graphs]
        calls = []
        count = data.triangles_within
        monkeypatch.setattr(data, "triangles_within", lambda g, m: calls.append(g) or count(g, m))
        rule, counted = make_whitebox(s0, s1), []
        for g, label in zip(graphs, labels):
            calls.clear()
            assert rule(g) == label
            counted.append(len(calls))
        assert counted == [2, 0, 2, 0, 0, 2]


class TestPersistence:
    def make_dataset(self, with_partition=True):
        rng = random.Random(31)
        entries = tuple(
            DatasetEntry(random_graph(7, 0.4, rng), i % 2, f"graph-{i}") for i in range(6)
        )
        partition = RegionPartition(("left",) * 3 + ("right",) * 4) if with_partition else None
        node_ids = tuple(f"roi{i}" for i in range(7))
        return GraphDataset(node_ids, entries, partition)

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
        dataset = GraphDataset(tuple("abcd"), ())
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
        "node_id", ["", "#a", "\ufeffa", "a b", "a\tb", " a", "a\n", "a\u2028b", "\ud800"]
    )
    def test_ids_that_cannot_round_trip_are_rejected_before_writing(self, tmp_path, node_id):
        # "#a" would start a comment line: its edges would reload as absent;
        # "\ufeffa" first in a file would reload as "a", its mark skipped
        dataset = GraphDataset((node_id, "b"), (DatasetEntry(Graph(2, [(0, 1)]), 0, "g"),))
        with pytest.raises(DatasetFormatError, match="node id"):
            save_dataset(dataset, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("node_id", ["#a", "\ufeffa", "", "a b", " a", "a\u2028b"])
    def test_ids_the_writer_rejects_are_rejected_at_load(self, tmp_path, node_id):
        # a "#a" line reads as a comment, so its edges would load as absent;
        # a leading "\ufeff" on the first line is skipped as a byte-order mark
        (tmp_path / "g.edges").write_text(f"{node_id} b\nb c\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "format": "densecf-dataset", "version": 1, "node_ids": [node_id, "b", "c"],
            "graphs": [{"file": "g.edges", "label": 0}],
        }))
        message = f"{re.escape(str(manifest))}: node id {re.escape(repr(node_id))} "
        with pytest.raises(DatasetFormatError, match=message):
            load_dataset(manifest)

    @pytest.mark.parametrize("field", ["node id", "graph name"])
    def test_unencodable_text_is_rejected_at_load(self, tmp_path, field):
        # JSON's "\ud800x" loads as a lone surrogate, which no output file can hold
        dataset = self.make_dataset(with_partition=False)
        manifest = save_dataset(dataset, tmp_path / "ds")
        payload = json.loads(manifest.read_text())
        if field == "node id":
            payload["node_ids"].append("\ud800x")
        else:
            payload["graphs"][0]["name"] = "\ud800x"
        manifest.write_text(json.dumps(payload))
        with pytest.raises(DatasetFormatError, match=f"{field} .* is not UTF-8 encodable"):
            load_dataset(manifest)

    def test_unknown_node_id_diagnosed(self, tmp_path):
        dataset = self.make_dataset(with_partition=False)
        save_dataset(dataset, tmp_path / "ds")
        bad = tmp_path / "ds" / "graph-0000.edges"
        bad.write_text("roi0 roi9\n")
        with pytest.raises(DatasetFormatError, match="roi9"):
            load_dataset(tmp_path / "ds")

    def test_self_loop_diagnosed_at_its_line(self, tmp_path):
        dataset = self.make_dataset(with_partition=False)
        save_dataset(dataset, tmp_path / "ds")
        bad = tmp_path / "ds" / "graph-0000.edges"
        bad.write_text("roi0 roi1\n\nroi2 roi2\n")
        message = r"graph-0000\.edges:3: self-loop at node id 'roi2'$"
        with pytest.raises(DatasetFormatError, match=message):
            load_dataset(tmp_path / "ds")

    def test_bad_label_diagnosed(self, tmp_path):
        dataset = self.make_dataset(with_partition=False)
        manifest = save_dataset(dataset, tmp_path / "ds")
        text = manifest.read_text().replace('"label": 1', '"label": 3', 1)
        manifest.write_text(text)
        with pytest.raises(DatasetFormatError, match="label"):
            load_dataset(manifest)

    @pytest.mark.parametrize("label", ["true", "1.0"])
    def test_non_integer_label_diagnosed(self, tmp_path, label):
        # true == 1 and 1.0 == 1 in Python, but neither is a JSON integer label
        dataset = self.make_dataset(with_partition=False)
        manifest = save_dataset(dataset, tmp_path / "ds")
        manifest.write_text(manifest.read_text().replace('"label": 1', f'"label": {label}', 1))
        with pytest.raises(DatasetFormatError, match=f"has label {label.title()}"):
            load_dataset(manifest)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: GraphDataset(("a", "a"), ()), "node ids must be unique"),
            (
                lambda: GraphDataset(("a", "b"), (DatasetEntry(Graph(3), 0, "g"),)),
                "graph 'g' has a different node count",
            ),
            (
                lambda: GraphDataset(("a", "b"), (DatasetEntry(Graph(2), 2, "g"),)),
                "label of 'g' must be 0 or 1",
            ),
            (lambda: RegionPartition(()), "partition needs at least one node"),
        ],
        ids=["duplicate-ids", "node-count", "label-2", "empty-partition"],
    )
    def test_inconsistent_dataset_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_partition_missing_node_diagnosed(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("node_id,region_name\na,left\n")
        with pytest.raises(DatasetFormatError):
            load_partition(path, ["a", "b"])

    @pytest.mark.parametrize(
        "row, message",
        [("b, ", "blank region name for node id 'b'"), ("b,left,x", "3 fields, expected 2")],
        ids=["blank-region", "extra-field"],
    )
    def test_partition_row_errors_name_the_line(self, tmp_path, row, message):
        path = tmp_path / "p.csv"
        path.write_text(f"node_id,region_name\na,left\n{row}\n")
        with pytest.raises(DatasetFormatError, match=rf"p\.csv:3: {message}$"):
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

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        # line 2 names a missing matrix and line 3 has a bad label: line 2 is reported
        self.write_matrix(tmp_path / "m.csv", np.eye(3))
        listing = tmp_path / "l.csv"
        listing.write_text("file,label\nmissing.csv,0\nm.csv,3\n")
        with pytest.raises(DatasetFormatError, match=r"cannot read .*missing\.csv"):
            ingest_correlation_listing(listing, percentile=90)

    @pytest.mark.parametrize(
        "text, read",
        [
            # a region name spans lines 2-3, so the bad row is line 4
            ('node_id,region_name\na,"left\nside"\nb\n', lambda p: load_partition(p, "ab")),
            # a first cell spans lines 1-2, so the bad value is on line 3
            ('"1\n",0\n0,x\n', load_correlation_matrix),
            # the same, with a row one cell short on line 3
            ('"1\n",0\n0\n', load_correlation_matrix),
        ],
        ids=["partition", "matrix", "matrix-ragged"],
    )
    def test_csv_errors_name_the_physical_line(self, tmp_path, text, read):
        path = tmp_path / "f.csv"
        path.write_text(text)
        line = text.count("\n")
        with pytest.raises(DatasetFormatError, match=rf"f\.csv:{line}:"):
            read(path)
