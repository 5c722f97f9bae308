"""Property tests: the bitmask graph core against a plain edge-set model,
edit round trips, and the dataset and ingest loaders' contracts."""

import json
import string
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from densecf import (
    DatasetFormatError,
    EditConflictError,
    EditList,
    Graph,
    GraphDataset,
    RegionPartition,
    SFKnnModel,
    UndefinedRatioError,
    apply_edits,
    edit_distance_ratio,
    ingest_correlation_listing,
    load_dataset,
    load_model,
    save_dataset,
    symmetric_difference_distance,
    threshold_correlations,
    triangle_counts,
)
from densecf.cli import EXIT_INTERNAL, main
from densecf.data import DATASET_FORMAT, DATASET_VERSION, DatasetEntry, load_correlation_matrix
from densecf.density import triangle_score_lists
from densecf.graph import adjacency_matrix, edges_within, node_mask, triangles_within
from densecf.spectral import KNN_METRICS, MODEL_FORMAT, MODEL_VERSION

# Node ids and region names as the dataset formats hold them: one token each,
# no surrounding whitespace, not starting an edge-list comment.
TOKENS = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=6)


def graphs_on(n):
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return st.just(Graph(n))
    return st.sets(st.sampled_from(pairs)).map(lambda edges: Graph(n, edges))


@st.composite
def graph_pairs(draw):
    n = draw(st.integers(0, 9))
    return draw(graphs_on(n)), draw(graphs_on(n))


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 7))
    node_ids = tuple(draw(st.lists(TOKENS, min_size=n, max_size=n, unique=True)))
    entries = tuple(
        DatasetEntry(draw(graphs_on(n)), draw(st.sampled_from((0, 1))), draw(st.text(max_size=8)))
        for _ in range(draw(st.integers(0, 4)))
    )
    partition = draw(
        st.none() | st.lists(TOKENS, min_size=n, max_size=n).map(tuple).map(RegionPartition)
    )
    return GraphDataset(n, node_ids, entries, partition)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
# File names that exist, are missing, name a directory, or name the manifest.
FILE_NAMES = st.sampled_from(["g.edges", "missing.edges", "", ".", "/", "manifest.json"])
GRAPH_ENTRIES = (
    st.fixed_dictionaries(
        {"file": FILE_NAMES | JSON, "label": st.sampled_from((0, 1)) | JSON},
        optional={"name": JSON},
    )
    | JSON
)
# Manifests that pass the format and version checks, each field well formed
# about half the time, so every later check is reached.
MANIFESTS = st.fixed_dictionaries(
    {
        "format": st.just(DATASET_FORMAT),
        "version": st.just(DATASET_VERSION),
        "node_ids": st.just(["a", "b", "c"]) | JSON,
        "graphs": st.lists(GRAPH_ENTRIES, min_size=1, max_size=3) | JSON,
    },
    optional={"partition": FILE_NAMES | st.just("part.csv") | JSON},
)


class EdgeSetModel:
    """The reference: a graph as a plain set of (u, v) pairs, u < v."""

    def __init__(self, n, edges=()):
        self.n = n
        self.edges = {(min(u, v), max(u, v)) for u, v in edges}

    def apply(self, removals, additions):
        removals = {(min(u, v), max(u, v)) for u, v in removals}
        additions = {(min(u, v), max(u, v)) for u, v in additions}
        if removals & additions or not removals <= self.edges or additions & self.edges:
            raise EditConflictError("inconsistent edit")
        return EdgeSetModel(self.n, (self.edges - removals) | additions)


@st.composite
def edit_runs(draw):
    """A node count and a sequence of edit lists over random node pairs, some
    of them inconsistent with the graph they meet."""
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    steps = draw(
        st.lists(
            st.tuples(st.lists(pair, max_size=4), st.lists(pair, max_size=4)), max_size=12
        )
    )
    return n, steps


def assert_agrees(g, model):
    n = model.n
    assert g.edges == model.edges
    assert g.edge_count == len(model.edges)
    for u in range(n):
        nbrs = {v for e in model.edges for v in e if u in e and v != u}
        assert g.neighbors(u) == nbrs
        assert g.degree(u) == len(nbrs)
        for v in range(n):
            if u != v:
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in model.edges)
    expected = np.zeros((n, n))
    for u, v in model.edges:
        expected[u, v] = expected[v, u] = 1.0
    a = adjacency_matrix(g)
    assert a.dtype == np.float64 and a.flags.c_contiguous
    assert np.array_equal(a, expected)


@settings(max_examples=150, deadline=None)
@given(edit_runs())
def test_edits_agree_with_edge_set_model(run):
    n, steps = run
    g, model = Graph(n), EdgeSetModel(n)
    for removals, additions in steps:
        edits = EditList(removals=tuple(removals), additions=tuple(additions))
        try:
            expected = model.apply(removals, additions)
        except EditConflictError:
            with pytest.raises(EditConflictError):
                apply_edits(g, edits)
            continue
        g, model = apply_edits(g, edits), expected
        assert_agrees(g, model)
        for u, v in sorted(model.edges)[:3]:
            h = g.remove_edge(u, v)
            assert h.add_edge(v, u) == g and hash(h.add_edge(v, u)) == hash(g)
            assert_agrees(h, EdgeSetModel(n, model.edges - {(u, v)}))


@settings(max_examples=150, deadline=None)
@given(graph_pairs())
def test_equality_edits_and_distances_agree_with_edge_sets(pair):
    g, h = pair
    eg, eh = set(g.edges), set(h.edges)
    assert (g == h) == (eg == eh)
    assert Graph(g.node_count, sorted(eg)) == g
    assert hash(Graph(g.node_count, sorted(eg, reverse=True))) == hash(g)
    edits = EditList.between(g, h)
    assert edits.removals == tuple(sorted(eg - eh))
    assert edits.additions == tuple(sorted(eh - eg))
    assert symmetric_difference_distance(g, h) == len(eg ^ eh)
    if eg | eh:
        assert edit_distance_ratio(g, h) == len(eg ^ eh) / len(eg | eh)
    else:
        with pytest.raises(UndefinedRatioError):
            edit_distance_ratio(g, h)


@settings(max_examples=150, deadline=None)
@given(graph_pairs(), st.data())
def test_counts_within_a_node_subset_agree_with_brute_force(pair, data):
    g, _ = pair
    nodes = data.draw(st.sets(st.integers(0, max(g.node_count - 1, 0))))
    nodes = {v for v in nodes if v < g.node_count}
    edges = {e for e in g.edges if set(e) <= nodes}
    triangles = sum(
        1
        for a, b, c in combinations(sorted(nodes), 3)
        if {(a, b), (a, c), (b, c)} <= edges
    )
    for arg in (nodes, sorted(nodes), node_mask(nodes)):
        assert edges_within(g, arg) == len(edges)
        assert triangles_within(g, arg) == triangles


def sorted_triangle_score_lists(g):
    """The sort-based body ``triangle_score_lists`` had before it used argsort."""
    scores = triangle_counts(g)
    removals, additions = [], []
    for u, v in combinations(range(g.node_count), 2):
        entry = (scores[u] + scores[v], (u, v))
        if g.has_edge(u, v):
            removals.append(entry)
        else:
            additions.append(entry)
    removals.sort(key=lambda e: (e[0], e[1]))
    additions.sort(key=lambda e: (-e[0], e[1]))
    return tuple(edge for _, edge in removals), tuple(edge for _, edge in additions)


@settings(max_examples=100, deadline=None)
@given(graph_pairs())
def test_triangle_score_lists_match_the_sort_based_order(pair):
    g, _ = pair
    removals, additions = triangle_score_lists(g)
    assert (removals, additions) == sorted_triangle_score_lists(g)
    assert all(type(x) is int for edge in removals + additions for x in edge)


@given(graph_pairs())
def test_edit_list_between_reproduces_target(pair):
    g, h = pair
    assert apply_edits(g, EditList.between(g, h)) == h


@settings(max_examples=50, deadline=None)
@given(datasets())
def test_save_load_round_trip(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        assert load_dataset(save_dataset(dataset, tmp)) == dataset


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(MANIFESTS | JSON)
def test_any_json_manifest_loads_or_raises_format_error(manifest):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "g.edges").write_text("a b\nb c\n")
        (base / "part.csv").write_text("node_id,region_name\na,x\nb,x\nc,y\n")
        (base / "manifest.json").write_text(json.dumps(manifest))
        try:
            load_dataset(base / "manifest.json")
        except DatasetFormatError:
            pass


# Model files: the right header over fields that are well formed, ill typed
# (including non-finite numbers) or missing, or any JSON value at all.
MODELS = st.fixed_dictionaries(
    {"format": st.just(MODEL_FORMAT), "version": st.just(MODEL_VERSION)},
    optional={
        "n_neighbors": st.integers(-1, 3) | st.floats() | JSON,
        "n_eigs": st.integers(-1, 3) | st.floats() | JSON,
        "metric": st.sampled_from(KNN_METRICS) | JSON,
        "seed": st.integers() | JSON,
        "training_labels": st.lists(st.sampled_from((0, 1)), max_size=3) | JSON,
        "training_features": st.lists(st.lists(st.floats(), max_size=3), max_size=3) | JSON,
    },
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given((MODELS | JSON).map(json.dumps) | st.text(max_size=12))
def test_any_json_model_loads_or_raises_format_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(text, encoding="utf-8")
        try:
            assert isinstance(load_model(path), SFKnnModel)
        except DatasetFormatError:
            pass


def csv_text(cells):
    return st.lists(st.lists(cells, max_size=4).map(",".join), max_size=4).map("\n".join)


# Matrix cells: numbers, non-finite and non-numeric values, and arbitrary text.
MATRIX_TEXT = csv_text(
    st.sampled_from(["1", "0", "-0.5", " 2e-1", "nan", "inf", "1e999", "x", ""])
    | st.text(max_size=4)
)
# Listing cells: a matrix file that exists, the listing itself, a missing
# file, names of directories, labels in and out of range, and text without
# "/", so every name the listing gives stays inside its directory.
FILES = st.sampled_from(["m.csv", "listing.csv", "missing.csv", "", ".."])
LABELS = st.sampled_from(["0", "1", "2", "", "x"])
LISTING_CELLS = FILES | LABELS | st.text(
    st.characters(blacklist_characters="/", blacklist_categories=("Cs",)), max_size=4
)


@st.composite
def listings(draw):
    """A header naming file, label and name in any order, or arbitrary cells;
    then rows that fill the header's columns in its order (a good file and
    label more often than not), some of them cut short, or arbitrary cells."""
    header = draw(st.permutations(["file", "label", "name"]) | st.lists(LISTING_CELLS, max_size=4))
    column = {
        "file": st.just("m.csv") | FILES,
        "label": st.sampled_from(["0", "1"]) | LABELS,
        "name": LISTING_CELLS,
    }
    rows = [header]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["full", "full", "short", "arbitrary"]))
        if kind == "arbitrary":
            rows.append(draw(st.lists(LISTING_CELLS, max_size=4)))
            continue
        row = [draw(column.get(name, LISTING_CELLS)) for name in header]
        rows.append(row if kind == "full" else row[: draw(st.integers(0, len(row)))])
    return "\n".join(",".join(row) for row in rows)


SQUARE_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.floats(), min_size=n * n, max_size=n * n).map(
        lambda xs: np.array(xs).reshape(n, n)
    )
)


@settings(max_examples=300, deadline=None)
@given(SQUARE_MATRICES, st.floats(0, 100))
def test_any_symmetric_matrix_thresholds_or_raises_format_error(m, percentile):
    """Values anywhere in float range, inf and nan included: the result is a
    graph only for a finite matrix, never an edgeless stand-in for one the
    percentile cannot be taken of (a RuntimeWarning fails the test)."""
    m = np.triu(m) + np.triu(m, 1).T
    try:
        g = threshold_correlations(m, percentile)
    except DatasetFormatError:
        return
    assert np.isfinite(m).all() and g.node_count == len(m)


SYMMETRIC_MATRICES = st.sampled_from(["1", "1,0.5\n0.5,1", "1,inf\ninf,1", "0,1,2\n1,0,3\n2,3,0"])


@settings(max_examples=200, deadline=None)
@given(MATRIX_TEXT.map(str.encode) | st.binary(max_size=24))
def test_any_matrix_csv_loads_or_raises_format_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(content)
        try:
            matrix = load_correlation_matrix(path)
        except DatasetFormatError:
            return
        assert matrix.ndim == 2


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(listings(), SYMMETRIC_MATRICES | MATRIX_TEXT)
def test_any_listing_ingests_or_raises_format_error(listing, matrix):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "m.csv").write_text(matrix, encoding="utf-8")
        (base / "listing.csv").write_text(listing, encoding="utf-8")
        try:
            ingest_correlation_listing(base / "listing.csv", percentile=90.0)
        except DatasetFormatError:
            pass
        argv = ["ingest", "--listing", str(base / "listing.csv"), "--out-dir", str(base / "out")]
        assert main(argv) != EXIT_INTERNAL
