"""Slow references for the triangle search ``tri``, the random flips of
``edg``, the nearest unlike neighbor of ``dat`` and for ``backward_search``,
written from their docstrings (and ``triangle_score_lists``') on plain edge
sets, and the properties that the package's searches agree with them on
every outcome, edit, charged call and note."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densecf import (
    DatasetEntry,
    Graph,
    GraphDataset,
    InvalidCandidateError,
    Oracle,
    RunOptions,
    backward_search,
    dat_search,
    edg_search,
    make_whitebox,
    node_halves,
    refine_with_backward,
    tri_search,
    whitebox_classify,
)

from conftest import edge_hash_rule, neighbors, triangles_at


class Counted:
    """A rule on edge sets that counts its calls, as the oracle charges them."""

    def __init__(self, classify, node_count):
        self.classify, self.node_count, self.calls = classify, node_count, 0

    def __call__(self, edges):
        self.calls += 1
        return self.classify(Graph(self.node_count, edges))


def score_lists(node_count, edges):
    """Every node pair scored by its two nodes' triangle counts: edges by
    ascending score, non-edges by descending score, ties in pair order."""
    tri = [triangles_at(edges, v) for v in range(node_count)]
    pairs = list(combinations(range(node_count), 2))
    removals = sorted((p for p in pairs if p in edges), key=lambda p: (tri[p[0]] + tri[p[1]], p))
    additions = sorted(
        (p for p in pairs if p not in edges), key=lambda p: (-(tri[p[0]] + tri[p[1]]), p)
    )
    return removals, additions


def reference_tri(predict, g, max_iterations):
    """(input class, found, final edge set, iterations): swap the next removal
    and addition candidate until the class flips, either list runs out or
    ``max_iterations`` swaps (None: no cap) are done."""
    original = set(g.edges)
    y0 = predict(original)
    removals, additions = score_lists(g.node_count, original)
    current, found, iterations = original, False, 0
    for edge_out, edge_in in zip(removals, additions):
        if iterations == max_iterations:
            break
        current = (current - {edge_out}) | {edge_in}
        iterations += 1
        if predict(current) != y0:
            found = True
            break
    return y0, found, current, iterations


def reference_backward(predict, original, candidate, input_class, candidate_class):
    """The candidate's edge set after reverting, pass after pass, each edit
    (removals then additions, each in pair order, as they stood when the pass
    began) whose revert keeps the class unlike the input's, until a pass
    keeps nothing; None when the given classes agree."""
    if candidate_class == input_class:
        return None
    current = candidate
    while True:
        changed = False
        for edge in sorted(original - current):
            if predict(current | {edge}) != input_class:
                current, changed = current | {edge}, True
        for edge in sorted(current - original):
            if predict(current - {edge}) != input_class:
                current, changed = current - {edge}, True
        if not changed:
            return current


def outcome(g, y0, found, final, iterations, calls, note=None):
    """A search result's fields as the reference predicts them: no edits and
    no counterfactual unless found."""
    if not found:
        return y0, False, (), (), None, iterations, calls, note
    original = set(g.edges)
    removals, additions = tuple(sorted(original - final)), tuple(sorted(final - original))
    return y0, True, removals, additions, Graph(g.node_count, final), iterations, calls, note


def fields(result):
    edits = result.edits
    return (
        result.input_class,
        result.found,
        edits.removals,
        edits.additions,
        result.counterfactual,
        result.iterations,
        result.oracle_calls,
        result.note,
    )


@st.composite
def graphs(draw, n):
    pairs = list(combinations(range(n), 2))
    density = draw(st.integers(0, 10))
    draws = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, x in zip(pairs, draws) if x < density])


@st.composite
def rules(draw, n):
    """(reference rule, package rule): the white-box rule, an edge-count
    threshold or a digest of the sorted edges."""
    rule = draw(st.sampled_from(("whitebox", "edge count", "edge hash")))
    if rule == "whitebox":
        halves = node_halves(n)
        return (lambda h: whitebox_classify(h, *halves)), make_whitebox(*halves)
    if rule == "edge count":
        threshold = draw(st.integers(0, n * (n - 1) // 2))
        classify = lambda h: int(h.edge_count >= threshold)
    else:
        classify = edge_hash_rule(draw(st.integers(0, 256)))
    return classify, classify


@st.composite
def tri_searches(draw):
    """A graph of 4-14 nodes of any density, an iteration cap and a rule."""
    n = draw(st.integers(4, 14))
    g = draw(graphs(n))
    max_iterations = draw(st.none() | st.integers(0, 6))
    return g, max_iterations, *draw(rules(n))


@settings(max_examples=200, deadline=None)
@given(tri_searches())
def test_tri_search_and_its_refinement_equal_the_reference(case):
    g, max_iterations, classify, package_classify = case
    oracle = Oracle(package_classify)
    result = tri_search(oracle, g, RunOptions(max_iterations=max_iterations))
    predict = Counted(classify, g.node_count)
    y0, found, final, iterations = reference_tri(predict, g, max_iterations)
    assert fields(result) == outcome(g, y0, found, final, iterations, predict.calls)
    assert oracle.call_count == predict.calls

    # "+bw": the refinement charges its calls on top of the search's
    refined = refine_with_backward(oracle, g, result)
    if found:
        final = reference_backward(predict, set(g.edges), final, y0, 1 - y0)
    assert fields(refined) == outcome(g, y0, found, final, iterations, predict.calls)
    assert oracle.call_count == predict.calls


@st.composite
def backward_searches(draw):
    """A graph of 4-14 nodes, a candidate some node pairs away from it, and
    a rule."""
    n = draw(st.integers(4, 14))
    g = draw(graphs(n))
    pairs = list(combinations(range(n), 2))
    flips = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    candidate = Graph(n, set(g.edges) ^ flips)
    return g, candidate, *draw(rules(n))


@settings(max_examples=200, deadline=None)
@given(backward_searches())
def test_backward_search_equals_the_reference(case):
    g, candidate, classify, package_classify = case
    classes = (classify(g), classify(candidate))
    oracle = Oracle(package_classify)
    predict = Counted(classify, g.node_count)
    final = reference_backward(predict, set(g.edges), set(candidate.edges), *classes)
    if final is None:
        with pytest.raises(InvalidCandidateError):
            backward_search(oracle, g, candidate, *classes)
    else:
        assert backward_search(oracle, g, candidate, *classes) == Graph(g.node_count, final)
    assert oracle.call_count == predict.calls


def reference_edg(predict, g, max_iterations, seed):
    """(input class, found, final edge set, iterations, note): flip the node
    pair ``random.Random(seed).randrange`` picks, one charged call a flip,
    until the class flips or ``max_iterations`` flips are done; a flip is
    refined by the backward reference."""
    original = set(g.edges)
    y0 = predict(original)
    pairs = list(combinations(range(g.node_count), 2))
    if not pairs:
        return y0, False, original, 0, "graph has no node pairs"
    rng = random.Random(seed)
    current = original
    for iterations in range(1, max_iterations + 1):
        current = current ^ {pairs[rng.randrange(len(pairs))]}
        if predict(current) != y0:
            final = reference_backward(predict, original, current, y0, 1 - y0)
            return y0, True, final, iterations, None
    return y0, False, current, max_iterations, None


@st.composite
def edg_searches(draw):
    """A graph of 4-14 nodes, a small flip cap, a seed and a rule."""
    n = draw(st.integers(4, 14))
    g = draw(graphs(n))
    return g, draw(st.integers(0, 25)), draw(st.integers(0, 2**32)), *draw(rules(n))


def nonempty(h):
    return int(h.edge_count > 0)


@settings(max_examples=200, deadline=None)
@given(edg_searches())
@example((Graph(0), 5, 0, nonempty, nonempty))  # no node pairs to flip
@example((Graph(1), 5, 0, nonempty, nonempty))
def test_edg_search_equals_the_reference(case):
    g, max_iterations, seed, classify, package_classify = case
    oracle = Oracle(package_classify)
    result = edg_search(oracle, g, RunOptions(max_iterations=max_iterations, seed=seed))
    predict = Counted(classify, g.node_count)
    y0, found, final, iterations, note = reference_edg(predict, g, max_iterations, seed)
    assert fields(result) == outcome(g, y0, found, final, iterations, predict.calls, note)
    assert oracle.call_count == predict.calls


def reference_dat(predict, g, pool):
    """(input class, found, final edge set, iterations, note): charge the
    input, then every graph of ``pool`` in order; the counterfactual is the
    minimum (symmetric difference size, index) among those classified
    opposite to the input."""
    original = set(g.edges)
    y0 = predict(original)
    opposite = [
        (len(original ^ set(h.edges)), i) for i, h in enumerate(pool) if predict(set(h.edges)) != y0
    ]
    if not opposite:
        note = f"no graph among {len(pool)} classifies opposite to the input"
        return y0, False, original, len(pool), note
    return y0, True, set(pool[min(opposite)[1]].edges), len(pool), None


@st.composite
def dat_searches(draw):
    """A graph of 4-14 nodes, 1-8 dataset graphs on its nodes and a rule.
    A dataset graph either keeps each node pair with a seeded random chance
    or is the input with k node pairs flipped, one k for all, so that
    distances tie between different graphs."""
    n = draw(st.integers(4, 14))
    g = draw(graphs(n))
    pairs = list(combinations(range(n), 2))
    k = draw(st.integers(1, 3))

    def seeded(seed):
        rng = random.Random(seed)
        density = rng.random()
        return Graph(n, [pair for pair in pairs if rng.random() < density])

    fresh = st.integers(0, 2**32).map(seeded)
    flips = st.sets(st.sampled_from(pairs), min_size=k, max_size=k)
    near = flips.map(lambda f: Graph(n, set(g.edges) ^ f))
    pool = draw(st.lists(near | fresh, min_size=1, max_size=8))
    return g, pool, *draw(rules(n))


@settings(max_examples=200, deadline=None)
@given(dat_searches())
# two graphs classify opposite at distance 1: the lower index wins
@example((Graph(4), [Graph(4, [(2, 3)]), Graph(4), Graph(4, [(0, 1)])], nonempty, nonempty))
def test_dat_search_equals_the_reference(case):
    g, pool, classify, package_classify = case
    entries = tuple(DatasetEntry(h, 0, f"g{i}") for i, h in enumerate(pool))
    dataset = GraphDataset(tuple(map(str, range(g.node_count))), entries)
    oracle = Oracle(package_classify)
    result = dat_search(oracle, g, dataset)
    predict = Counted(classify, g.node_count)
    y0, found, final, iterations, note = reference_dat(predict, g, pool)
    assert fields(result) == outcome(g, y0, found, final, iterations, predict.calls, note)
    assert oracle.call_count == predict.calls

