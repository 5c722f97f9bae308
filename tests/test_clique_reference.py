"""A slow reference for the clique-rewrite searches ``cli`` and ``rcli``,
written from the docstrings of ``sparsify_cli``, ``densify_cli`` and
``cli_search`` on plain edge sets, and the property that the package's
searches agree with it on every outcome and every recorded iteration."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from densecf import (
    Graph,
    Oracle,
    RegionPartition,
    RunOptions,
    cli_search,
    make_whitebox,
    node_halves,
    rank_nodes,
    rank_nodes_regional,
    rcli_search,
    whitebox_classify,
)

from conftest import edge_hash_rule, neighbors, recorded_clique_steps, triangles_at

DEFAULT_MAX_ITERATIONS = 200


def is_clique(edges, nodes):
    return all(pair in edges for pair in combinations(sorted(nodes), 2))


def maximal_cliques_containing(edges, v):
    """Every clique through ``v`` no larger clique contains: subsets of v's
    neighborhood, largest first."""
    around = sorted(neighbors(edges, v))
    found = []
    for size in range(len(around), -1, -1):
        for rest in combinations(around, size):
            clique = frozenset(rest) | {v}
            if not any(clique <= other for other in found) and is_clique(edges, clique):
                found.append(clique)
    return found


def sparsify(original, current, n, removed, usage):
    """Pick the maximal clique around ``n`` in the original graph with the
    least overlap with any removed clique (0 with none), then the most nodes,
    then the smallest sorted node list; drop its still-present edges."""
    chosen = min(
        maximal_cliques_containing(original, n),
        key=lambda c: (max([len(c & r) for r in removed] or [0]), -len(c), sorted(c)),
    )
    removed.append(chosen)
    for v in chosen:
        usage[v] += 1
    return current - set(combinations(sorted(chosen), 2)), chosen


def densify(current, node_count, n, usage, s):
    """Take up to ``s`` nodes: the two-hop neighborhood of ``n`` (neighbors
    first, then usage, then triangles, then index), then every other node by
    (usage, index); make them a clique."""
    if s < 2:
        return current, frozenset()
    adjacent = neighbors(current, n)
    two_hop = (adjacent | {w for u in adjacent for w in neighbors(current, u)}) - {n}
    near = sorted(
        two_hop, key=lambda v: (v not in adjacent, usage[v], triangles_at(current, v), v)
    )
    far = sorted(set(range(node_count)) - two_hop, key=lambda v: (usage[v], v))
    chosen = (near + far)[:s]
    for v in chosen:
        usage[v] -= 1
    return current | set(combinations(sorted(chosen), 2)), frozenset(chosen)


def reference_search(classify, g, order, max_iterations):
    """(found, final edge set, iterations, charged calls, per-iteration
    (removed clique, added cliques, edges removed, edges added))."""
    node_count, original = g.node_count, set(g.edges)
    calls = 0

    def predict(edges):
        nonlocal calls
        calls += 1
        return classify(Graph(node_count, edges))

    y0 = predict(original)
    removed, usage = [], [0] * node_count
    current, found, iterations, records = original, False, 0, []
    for i in range(min(max_iterations, len(order) // 2)):
        before = current
        current, clique = sparsify(original, current, order[i], removed, usage)
        iterations += 1
        deficit = len(before - current)
        found = predict(current) != y0
        added_cliques, added = [], 0
        while not found and added < deficit:
            size = max(k for k in range(deficit + 2) if k * (k - 1) // 2 <= deficit - added)
            grown, added_clique = densify(current, node_count, order[-1 - i], usage, size)
            added_cliques.append(added_clique)
            if grown == current:
                break
            added += len(grown - current)
            current = grown
            found = predict(current) != y0
        records.append((clique, tuple(added_cliques), deficit, added))
        if found:
            break
    return found, current, iterations, calls, records


@st.composite
def clique_searches(draw):
    """A graph of 4-14 nodes of any density, an entry point (``cli`` with
    either ranking, or ``rcli`` over a 1-3 region partition), an iteration
    cap and one of three deterministic rules."""
    n = draw(st.integers(4, 14))
    pairs = list(combinations(range(n), 2))
    density = draw(st.integers(0, 10))
    draws = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [pair for pair, x in zip(pairs, draws) if x < density])
    max_iterations = draw(st.none() | st.integers(0, 6))
    entry = draw(st.sampled_from(("triangles", "eigenvector", "regional")))
    partition = None
    if entry == "regional":
        labels = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
        partition = RegionPartition(tuple(labels))
    rule = draw(st.sampled_from(("whitebox", "edge count", "edge hash")))
    if rule == "whitebox":
        halves = node_halves(n)
        classify = lambda h: whitebox_classify(h, *halves)
        package_classify = make_whitebox(*halves)  # the runner's rule, updated by deltas
    else:
        if rule == "edge count":
            threshold = draw(st.integers(0, len(pairs)))
            classify = lambda h: int(h.edge_count >= threshold)
        else:
            classify = edge_hash_rule(draw(st.integers(0, 256)))
        package_classify = classify
    return g, max_iterations, entry, partition, classify, package_classify


@settings(max_examples=250, deadline=None)
@given(clique_searches())
def test_clique_searches_equal_the_reference(case):
    g, max_iterations, entry, partition, classify, package_classify = case
    oracle = Oracle(package_classify)
    with recorded_clique_steps() as trace:
        if entry == "regional":
            options = RunOptions(max_iterations=max_iterations)
            result = rcli_search(oracle, g, partition, options=options)
            order = rank_nodes_regional(g, partition)
        else:
            options = RunOptions(max_iterations=max_iterations, ranking=entry)
            result = cli_search(oracle, g, options=options)
            order = rank_nodes(g, entry)
    cap = DEFAULT_MAX_ITERATIONS if max_iterations is None else max_iterations
    found, final, iterations, calls, records = reference_search(classify, g, order, cap)

    assert result.found == found
    assert result.iterations == iterations
    assert result.oracle_calls == calls == oracle.call_count
    original = set(g.edges)
    if found:
        assert result.edits.removals == tuple(sorted(original - final))
        assert result.edits.additions == tuple(sorted(final - original))
        assert result.counterfactual == Graph(g.node_count, final)
    else:
        assert result.edits.size == 0 and result.counterfactual is None
    assert [
        (step.removed_clique, step.added_cliques, step.edges_removed, step.edges_added)
        for step in trace
    ] == records
