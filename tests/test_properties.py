"""Property tests: the bitmask graph core against a plain edge-set model,
edit round trips, and the dataset and ingest loaders' contracts."""

import json
import pickle
import string
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from densecf import (
    DatasetFormatError,
    EditConflictError,
    EditList,
    Graph,
    GraphDataset,
    InstanceRecord,
    MethodRunSummary,
    PartitionError,
    RegionPartition,
    SFKnnModel,
    UndefinedRatioError,
    apply_edits,
    edit_distance_ratio,
    ingest_correlation_listing,
    load_dataset,
    load_model,
    make_whitebox,
    save_dataset,
    save_model,
    symmetric_difference_distance,
    threshold_correlations,
    triangle_counts,
    whitebox_classify,
)
from densecf.cli import EXIT_INTERNAL, main
from densecf.data import (
    DATASET_FORMAT,
    DATASET_VERSION,
    DatasetEntry,
    _Draws,
    _weighted_picks,
    _WORDS_PER_BLOCK,
    load_correlation_matrix,
    load_partition,
)
from densecf.density import triangle_score_lists
from densecf.evaluation import RECORDS_CSV_COLUMNS, read_records_csv, write_records_csv
from densecf.graph import (
    adjacency_matrix,
    edges_within,
    node_mask,
    triangles_within,
    with_clique,
    with_swap,
    within_deltas,
)
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
    return GraphDataset(node_ids, entries, partition)


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


# Endpoint types a caller may pass: Python ints and numpy integers, whose
# shifts would overflow if they reached the bitmask rows unconverted.
INT_TYPES = st.sampled_from([int, np.int64, np.int32, np.intp, np.uint8])


@st.composite
def edge_inputs(draw):
    """A node count and a list of its node pairs, each written either way
    round with endpoints of any integer type, some of them repeated."""
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(pair, max_size=30))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    edges = []
    for u, v in draw(st.permutations(pairs)):
        if draw(st.booleans()):
            u, v = v, u
        edges.append((draw(INT_TYPES)(u), draw(INT_TYPES)(v)))
    return n, edges


@settings(max_examples=150, deadline=None)
@given(edge_inputs())
def test_graph_from_edges_agrees_with_edge_set_model(case):
    n, edges = case
    g, model = Graph(n, edges), EdgeSetModel(n, [(int(u), int(v)) for u, v in edges])
    assert_agrees(g, model)
    assert list(g.sorted_edges()) == sorted(model.edges)
    assert g == Graph(n, iter(edges)) == Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


def first_edge_error(n, edges):
    """The message of the constructor's error for an edge list: the first
    edge, in input order, that is a self-loop or leaves 0..n-1."""
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            return f"self-loop ({u},{v}) not allowed"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) outside node range 0..{n - 1}"
    return None


@st.composite
def bad_edge_inputs(draw):
    """A node count and a list of edges with at least one self-loop, negative
    node or node past the end among valid ones, in any position."""
    n = draw(st.integers(2, 10))
    node = st.integers(0, n - 1)
    bad = st.one_of(
        node.map(lambda u: (u, u)),
        st.tuples(st.integers(-5, -1), st.integers(-5, n + 5)),
        st.tuples(st.integers(-5, n + 5), st.integers(n, n + 5)),
    )
    good = st.tuples(node, node).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(good, max_size=8)) + draw(st.lists(bad, min_size=1, max_size=3))
    edges = draw(st.permutations(edges))
    signed = st.sampled_from([int, np.int64, np.int32])
    return n, [(draw(signed)(u), draw(signed)(v)) for u, v in edges]


@settings(max_examples=200, deadline=None)
@given(bad_edge_inputs())
def test_graph_rejects_the_first_bad_edge_with_its_message(case):
    n, edges = case
    with pytest.raises(ValueError) as exc:
        Graph(n, edges)
    assert str(exc.value) == first_edge_error(n, edges)


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


def toggled(g, pairs):
    """``g`` with each pair in ``pairs`` flipped, through ``apply_edits`` so
    that unchanged rows are shared as a search's edits share them."""
    removals = tuple(p for p in pairs if g.has_edge(*p))
    return apply_edits(g, EditList(removals, tuple(p for p in pairs if p not in removals)))


def edited(draw, g, how):
    """``g`` edited by the edit function ``how`` names: one swap, one edge
    added or removed, a clique of 2-3 nodes set or cleared, or else 1-3
    pairs toggled through ``apply_edits``."""
    n = g.node_count
    pairs = list(combinations(range(n), 2))
    present = [p for p in pairs if g.has_edge(*p)]
    absent = [p for p in pairs if not g.has_edge(*p)]
    if how == "swap" and present and absent:
        return with_swap(g, draw(st.sampled_from(present)), draw(st.sampled_from(absent)))
    if how == "edge":
        u, v = draw(st.sampled_from(pairs))
        return g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
    if how == "clique":
        nodes = draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=3))
        return with_clique(g, nodes, draw(st.booleans()))
    return toggled(g, draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=3)))


EDITS = ("apply_edits", "swap", "edge", "clique")


@st.composite
def before_after(draw):
    """Two graphs on 3-12 nodes and whether ``after`` was edited from
    ``before``: unrelated; ``after`` made from ``before`` by each edit
    function; or both edited from a third graph, as ``backward_search``
    classifies a tentative revert it rejects and then one made from the graph
    before it."""
    n = draw(st.integers(3, 12))
    before = draw(graphs_on(n))
    how = draw(st.sampled_from(("unrelated", "third", *EDITS)))
    if how == "unrelated":
        return before, draw(graphs_on(n)), False
    if how == "third":
        source = before
        before = edited(draw, source, draw(st.sampled_from(EDITS)))
        return before, edited(draw, source, draw(st.sampled_from(EDITS))), False
    return before, edited(draw, before, how), True


def disjoint_masks(draw, n, parts):
    """``parts`` disjoint node masks; a node may lie in none of them."""
    owner = draw(st.lists(st.integers(-1, parts - 1), min_size=n, max_size=n))
    return [node_mask(v for v in range(n) if owner[v] == k) for k in range(parts)]


@settings(max_examples=300, deadline=None)
@given(before_after(), st.data())
def test_within_deltas_equal_the_change_in_counts(pair, data):
    before, after, edited_from_before = pair
    masks = disjoint_masks(data.draw, after.node_count, data.draw(st.integers(1, 3)))
    deltas = within_deltas(before, after, masks)
    assert (deltas is not None) == edited_from_before
    if deltas is not None:
        # the edit's record names every row it rebuilt (see ``Graph``)
        rebuilt = after._origin[1]
        kept = [u for u in range(after.node_count) if not rebuilt >> u & 1]
        assert all(after._rows[u] is before._rows[u] for u in kept)
        assert deltas == [
            (
                triangles_within(after, m) - triangles_within(before, m),
                edges_within(after, m) - edges_within(before, m),
            )
            for m in masks
        ]
    assert within_deltas(Graph(after.node_count + 1), after, masks) is None
    direct = Graph(after.node_count, after.edges)  # the same edges, built apart
    assert within_deltas(before, direct, masks) is None
    assert after == direct and hash(after) == hash(direct)
    assert pickle.dumps(after) == pickle.dumps(direct)


@settings(max_examples=200, deadline=None)
@given(graph_pairs(), st.data())
def test_with_clique_sets_exactly_the_pairs_among_its_nodes(pair, data):
    g, _ = pair
    n = g.node_count
    nodes = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
    present = data.draw(st.booleans())
    h = with_clique(g, nodes, present)
    among = set(combinations(sorted(nodes), 2))
    assert_agrees(h, EdgeSetModel(n, g.edges | among if present else g.edges - among))
    assert with_clique(g, node_mask(nodes), present) == h
    assert all(h._rows[u] is g._rows[u] for u in range(n) if u not in nodes)
    masks = disjoint_masks(data.draw, n, data.draw(st.integers(1, 3)))
    assert within_deltas(g, h, masks) == [
        (
            triangles_within(h, m) - triangles_within(g, m),
            edges_within(h, m) - edges_within(g, m),
        )
        for m in masks
    ]
    with pytest.raises(ValueError):
        with_clique(g, nodes | {n}, present)


@st.composite
def swaps(draw):
    """A graph on 0-9 nodes and a (removal, addition) pair of node pairs, each
    one of its edges, one of its non-edges, or any two nodes in -1..n, so a
    self-loop or a node out of range; either way round."""
    n = draw(st.integers(0, 9))
    g = draw(graphs_on(n))
    absent = set(combinations(range(n), 2)) - g.edges
    kinds = [st.tuples(st.integers(-1, n), st.integers(-1, n))]
    kinds += [st.sampled_from(sorted(pairs)) for pairs in (g.edges, absent) if pairs]

    def pair():
        u, v = draw(st.one_of(kinds))
        return (u, v) if draw(st.booleans()) else (v, u)

    return g, pair(), pair()


@settings(max_examples=300, deadline=None)
@given(swaps())
@example((Graph(3, [(0, 1)]), (1, 0), (0, 2)))  # a swap
@example((Graph(3, [(0, 1)]), (1, 2), (0, 2)))  # an absent removal
@example((Graph(3, [(0, 1), (1, 2)]), (0, 1), (2, 1)))  # a present addition
@example((Graph(3, [(0, 1)]), (0, 1), (0, 1)))  # one pair both ways
@example((Graph(3, [(0, 1)]), (0, 1), (2, 2)))  # a self-loop
@example((Graph(3, [(0, 1)]), (0, 3), (0, 2)))  # out of range
@example((Graph(3, [(0, 1)]), (0, 1), (-1, 2)))  # out of range
def test_with_swap_equals_apply_edits(swap):
    g, removal, addition = swap
    try:
        expected = apply_edits(g, EditList((removal,), (addition,)))
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            with_swap(g, removal, addition)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    h = with_swap(g, removal, addition)
    assert h == expected and h.edge_count == len(h.edges) == g.edge_count
    ends = {*removal, *addition}
    assert all(h._rows[u] is g._rows[u] for u in range(g.node_count) if u not in ends)


@st.composite
def graph_walks(draw):
    """Halves of 3-12 nodes, which may overlap or miss a node, and a sequence
    of graphs: mostly chains of edits by each edit function, with unrelated
    graphs and runs of edited graphs of another node count."""
    n = draw(st.integers(3, 12))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    halves = [v for v in range(n) if not side[v]], [v for v in range(n) if side[v]]
    flaw = draw(st.sampled_from((None, None, None, "overlap", "gap")))
    v = draw(st.integers(0, n - 1))
    if flaw == "overlap":
        halves[not side[v]].append(v)
    elif flaw == "gap":
        halves[side[v]].remove(v)
    g = draw(graphs_on(n))
    walk = [g]
    for _ in range(draw(st.integers(1, 20))):
        step = draw(st.sampled_from(("edit", "edit", "edit", "unrelated", "other size")))
        if step == "other size":
            m = draw(st.integers(0, 12).filter(lambda m: m != n))
            h = draw(graphs_on(m))
            walk.append(h)
            for _ in range(draw(st.integers(0, 3)) if m > 1 else 0):
                h = edited(draw, h, draw(st.sampled_from(EDITS)))
                walk.append(h)
            continue
        if step == "edit":
            g = edited(draw, g, draw(st.sampled_from(EDITS)))
        else:
            g = draw(graphs_on(n))
        walk.append(g)
    return halves, walk


def outcome(classify, g):
    try:
        return classify(g)
    except PartitionError as exc:
        return PartitionError, str(exc)


@settings(max_examples=200, deadline=None)
@given(graph_walks())
def test_shared_whitebox_rule_equals_the_reference_along_a_walk(walk):
    (s0, s1), graphs = walk
    rule = make_whitebox(s0, s1)
    for g in graphs:
        assert outcome(rule, g) == outcome(lambda h: whitebox_classify(h, s0, s1), g)


@st.composite
def graph_trees(draw):
    """Complementary halves of 3-12 nodes and the graph objects put to the
    rule: each step edits a graph drawn among all graphs so far (with each
    edit function), or asks about one of them again, so an edit's source may
    be the last graph asked, the one before, or one no slot holds."""
    n = draw(st.integers(3, 12))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    halves = [v for v in range(n) if not side[v]], [v for v in range(n) if side[v]]
    seen = [draw(graphs_on(n))]
    asked = [seen[0]]
    for _ in range(draw(st.integers(1, 30))):
        g = seen[draw(st.integers(0, len(seen) - 1))]
        if draw(st.integers(0, 2)):
            g = edited(draw, g, draw(st.sampled_from(EDITS)))
            seen.append(g)
        asked.append(g)
    return halves, asked


@settings(max_examples=200, deadline=None)
@given(graph_trees())
def test_whitebox_rule_equals_the_reference_over_edits_from_any_graph(tree):
    (s0, s1), graphs = tree
    rule = make_whitebox(s0, s1)
    for g in graphs:
        assert rule(g) == whitebox_classify(g, s0, s1)


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


@st.composite
def weighted_draws(draw):
    """Node ids, positive int weights (some far apart), a size 1 <= k <= n
    and a seed: the generator's weighted background draw."""
    n = draw(st.integers(1, 40))
    top = draw(st.sampled_from((2, 50, 10**6)))
    weights = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    active = draw(st.lists(st.integers(0, 200), min_size=n, max_size=n, unique=True))
    return active, weights, draw(st.integers(1, n)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(weighted_draws())
@example(([5, 9, 2], [1000, 1, 1], 2, 0))  # seed 0's first block picks node 5 twice
@example(([7, 3, 8, 1, 4], [3, 1, 4, 1, 5], 5, 0))  # k == len(active)
def test_weighted_picks_equal_generator_choice(case):
    active, weights, k, seed = case
    ours, numpys = _Draws(np.random.PCG64(seed)), np.random.default_rng(seed)
    w = np.asarray(weights, dtype=float)
    expected = numpys.choice(active, size=k, replace=False, p=w / w.sum())
    assert [active[i] for i in _weighted_picks(ours, weights, k)] == expected.tolist()
    assert ours.random() == numpys.random()


# Each draw kind of the generator's _Draws beside the Generator call it restates.
STREAM_DRAWS = {
    "integers(k)": (lambda d, k: d.integers(0, k), lambda g, k: g.integers(k)),
    "integers(3, hi)": (lambda d, hi: d.integers(3, hi), lambda g, hi: g.integers(3, hi)),
    "random()": (lambda d: d.random(), lambda g: g.random()),
    "random(k)": (lambda d, k: d.randoms(k), lambda g, k: g.random(k).tolist()),
    "permutation": (
        lambda d, seq: d.permutation(seq),
        lambda g, seq: g.permutation(seq).tolist(),
    ),
    "choice": (
        lambda d, seq, size: d.choice(seq, size),
        lambda g, seq, size: g.choice(seq, size, replace=False).tolist(),
    ),
}
NODE_IDS = st.lists(st.integers(0, 999), max_size=40)
STREAM_OPS = st.one_of(
    # spans from 2**31 up reject up to half their first draws
    st.tuples(st.just("integers(k)"), st.integers(1, 64) | st.integers(2**31, 2**32 - 1)),
    st.tuples(st.just("integers(3, hi)"), st.integers(4, 64)),
    st.tuples(st.just("random()")),
    st.tuples(st.just("random(k)"), st.integers(0, 8)),
    st.tuples(st.just("permutation"), NODE_IDS),
    NODE_IDS.filter(bool).flatmap(
        lambda seq: st.tuples(st.just("choice"), st.just(seq), st.integers(0, len(seq)))
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(STREAM_OPS, max_size=30))
@example(  # a double takes the first word of a new block while a 32-bit half is kept
    0,
    [("random(k)", _WORDS_PER_BLOCK - 1), ("integers(k)", 10), ("random()",), ("integers(k)", 10)],
)
@example(7, [("integers(k)", 5), ("random()",), ("integers(k)", 5)])  # a double between halves
@example(3, [("integers(3, hi)", 4), ("integers(k)", 1), ("random()",)])  # spans of 1 draw nothing
@example(1, [("choice", list(range(10_001)), 300)])  # numpy's tail shuffle above 10,000
@example(0, [("integers(k)", 2**31 + 1)] * 8)  # about half of these draws are rejected
def test_draws_equal_generator_draw_for_draw(seed, ops):
    ours, numpys = _Draws(np.random.PCG64(seed)), np.random.default_rng(seed)
    for name, *args in ops:
        mine, theirs = STREAM_DRAWS[name]
        assert mine(ours, *args) == theirs(numpys, *args), name
    # the same state afterwards: a kept 32-bit half, then a fresh word
    assert ours.integers(0, 2**32 - 1) == numpys.integers(2**32 - 1)
    assert ours.random() == numpys.random()


@settings(max_examples=50, deadline=None)
@given(datasets())
def test_save_load_round_trip(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        assert load_dataset(save_dataset(dataset, tmp)) == dataset


# Pieces of an edge-list file: edges, blanks and comments whose tokens may be
# split by characters that str.splitlines() treats as line breaks but file
# iteration does not (form feed, NEL, LINE SEPARATOR), ended by "\n", "\r\n"
# or a lone "\r"; and the lines that stop the load with a numbered error: each
# holds the unknown id "zz" or is a self-loop. An edge line may be a self-loop
# too, so the error numbers the first bad line.
SPACES = st.sampled_from([" ", "\t", "\x0c", "\x85", "\u2028", " \x0c "])
EDGE_LINES = st.one_of(
    st.tuples(st.sampled_from("abc"), SPACES, st.sampled_from("abc")).map("".join),
    SPACES,
    st.just(""),
    st.tuples(SPACES, st.just("# a\x85b \u2028c")).map("".join),
)
BAD_LINES = st.sampled_from(["a zz", "zz\x85a", "a\x0cb\u2028zz", "zz", "c\u2028c"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


def is_bad_edge_line(line):
    parts = line.split()
    return "zz" in line or (len(parts) == 2 and parts[0] == parts[1])


@st.composite
def numbered_edge_files(draw):
    lines = draw(st.lists(EDGE_LINES, max_size=8))
    lines.insert(draw(st.integers(0, len(lines))), draw(BAD_LINES))
    return "".join(line + draw(ENDINGS) for line in lines)


@settings(max_examples=300, deadline=None)
@given(numbered_edge_files())
def test_edge_list_errors_name_the_physical_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        path = base / "g.edges"
        path.write_bytes(text.encode("utf-8"))
        manifest = {
            "format": DATASET_FORMAT,
            "version": DATASET_VERSION,
            "node_ids": ["a", "b", "c"],
            "graphs": [{"file": "g.edges", "label": 0}],
        }
        (base / "manifest.json").write_text(json.dumps(manifest))
        # the reference numbering: the file read one line at a time, as open() splits it
        with open(path, newline="", encoding="utf-8") as fh:
            lineno = next(i for i, line in enumerate(fh, start=1) if is_bad_edge_line(line))
        with pytest.raises(DatasetFormatError) as exc:
            load_dataset(base / "manifest.json")
        assert str(exc.value).startswith(f"{path}:{lineno}: ")


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


# Partition files over one of a few node id lists, the empty one included:
# often a row per id with a region name, among rows of any width over ids,
# unknown and padded ids, blank names, header words and arbitrary text, with
# or without the header first.
PARTITION_IDS = st.sampled_from([(), ("a",), ("a", "b"), ("0", "1", "2")])
PARTITION_CELLS = st.sampled_from(
    ["a", "b", "0", " a", "zz", "", " ", "x", "node_id", "region_name"]
) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)


@st.composite
def partition_files(draw):
    ids = draw(PARTITION_IDS)
    rows = [f"{v},{draw(st.sampled_from(['x', 'y']))}" for v in ids] if draw(st.booleans()) else []
    rows += draw(st.lists(st.lists(PARTITION_CELLS, max_size=4).map(",".join), max_size=3))
    header = ["node_id,region_name"] if draw(st.booleans()) else []
    return ids, "\n".join(header + draw(st.permutations(rows))) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(partition_files())
@example(((), "node_id,region_name\n"))  # no ids: nothing to partition
def test_any_partition_file_loads_covering_its_ids_or_raises_format_error(case):
    ids, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "partition.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            partition = load_partition(path, ids)
        except DatasetFormatError as exc:
            assert str(path) in str(exc)
            return
        partition.check_covers(len(ids))


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


# A scalar a model field may hold in a file: of the right JSON type or not.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-1, 3)
    | st.floats(-1, 3)
    | st.text(max_size=2)
    | st.lists(st.integers(0, 2), max_size=2)
)


@st.composite
def retyped_models(draw):
    """A well-typed model payload, perhaps with no training rows or with
    non-finite features, with up to two of its scalars (a count, the seed, a
    label or a feature) replaced by ``SCALARS``."""
    n_eigs = draw(st.integers(1, 2))
    labels = draw(st.lists(st.sampled_from((0, 1)), max_size=3))
    feature = st.floats(0, 2) | st.sampled_from([float("nan"), float("inf"), -float("inf")])
    features = [draw(st.lists(feature, min_size=n_eigs, max_size=n_eigs)) for _ in labels]
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "n_neighbors": 1,
        "n_eigs": n_eigs,
        "metric": "euclidean",
        "seed": draw(st.none() | st.integers()),
        "training_labels": labels,
        "training_features": features,
    }
    slots = [(payload, "n_neighbors"), (payload, "n_eigs"), (payload, "seed")]
    slots += [(labels, i) for i in range(len(labels))]
    slots += [(row, j) for row in features for j in range(n_eigs)]
    for holder, key in draw(st.lists(st.sampled_from(slots), max_size=2)):
        holder[key] = draw(SCALARS)
    return payload


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given((MODELS | retyped_models() | JSON).map(json.dumps) | st.text(max_size=12))
def test_any_json_model_loads_or_raises_format_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(text, encoding="utf-8")
        try:
            model = load_model(path)
        except DatasetFormatError:
            return
        save_model(model, path)
        saved = json.loads(path.read_text())
    hash(model)
    assert model.training_features and np.isfinite(model.training_matrix).all()
    # a model that loads is its file unchanged, up to ints written as
    # features and the defaults of the optional fields
    expected = {"metric": "euclidean", "seed": None, **json.loads(text)}
    expected["training_features"] = [list(map(float, row)) for row in expected["training_features"]]
    assert json.dumps(saved, sort_keys=True) == json.dumps(expected, sort_keys=True)


# Names as records.csv must carry them: with commas, quotes, line breaks and
# non-ASCII text among any other characters that UTF-8 can encode.
NAMES = st.text(
    st.sampled_from(',"\n\r\u00e9\u540d') | st.characters(blacklist_categories=("Cs",))
)
@st.composite
def consistent_records(draw):
    """Records whose fields hold as ``InstanceRecord`` requires: counts are
    non-negative, and a found one has a distance of at least 1 and a finite
    ratio, any other distance 0 and no ratio."""
    found = draw(st.booleans())
    return InstanceRecord(
        instance=draw(st.integers(min_value=0)),
        name=draw(NAMES),
        true_label=draw(st.sampled_from((0, 1))),
        predicted_label=draw(st.sampled_from((0, 1))),
        found=found,
        iterations=draw(st.integers(min_value=0)),
        oracle_calls=draw(st.integers(min_value=0)),
        distance=draw(st.integers(min_value=1)) if found else 0,
        distance_ratio=draw(st.floats(allow_nan=False, allow_infinity=False)) if found else None,
    )


RECORDS = consistent_records()
# a run holds each instance once, as a records file must, and names its
# method, as MethodRunSummary requires
RUNS = st.dictionaries(
    st.tuples(NAMES.filter(bool), NAMES),
    st.lists(RECORDS, min_size=1, max_size=3, unique_by=lambda r: r.instance),
    max_size=3,
).map(lambda runs: [MethodRunSummary(m, d, tuple(rs)) for (m, d), rs in runs.items()])


@settings(max_examples=200, deadline=None)
@given(RUNS)
# the CLI names a dataset whose manifest sits at the root ''
@example([MethodRunSummary("tri", "", (InstanceRecord(0, "g", 0, 1, True, 1, 2, 1, 0.5),))])
def test_records_csv_round_trip(summaries):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        write_records_csv(summaries, path)
        assert read_records_csv(path) == summaries


# A good cell for each records column, and cells wrong for most of them.
GOOD_CELLS = dict(zip(RECORDS_CSV_COLUMNS, "tri,d,0,g,0,1,true,1,2,1,0.5".split(",")))
RECORD_CELLS = st.text(max_size=3) | st.sampled_from(
    ["1", "7", "-1", "false", "maybe", "", "nan", '"a\nb"']
)


@st.composite
def records_texts(draw):
    """A header of records columns, in any order or some of them, then rows
    of about its width, each cell right for its column more often than not."""
    columns = st.sampled_from(RECORDS_CSV_COLUMNS)
    header = draw(st.permutations(RECORDS_CSV_COLUMNS) | st.lists(columns))
    rows = [header]
    for _ in range(draw(st.integers(0, 3))):
        row = [draw(st.just(GOOD_CELLS[name]) | RECORD_CELLS) for name in header]
        rows.append(row[: draw(st.sampled_from([len(row), len(row), len(row) - 1]))])
    return "\n".join(",".join(row) for row in rows)


@settings(max_examples=300, deadline=None)
@given(records_texts().map(str.encode) | st.text().map(str.encode) | st.binary(max_size=24))
def test_any_records_csv_reads_or_raises_format_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        path.write_bytes(content)
        try:
            summaries = read_records_csv(path)
        except DatasetFormatError:
            return
        # what reads is written back in one text, which reads back the same
        write_records_csv(summaries, path)
        written = path.read_bytes()
        write_records_csv(read_records_csv(path), path)
        assert path.read_bytes() == written


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
