"""A slow reference for the planted-subgroup generator, written with numpy's
``Generator`` methods on plain edge sets, and the check that
``generate_synthetic`` builds the same datasets from the same seeds.

The package draws every value itself from the stream's raw words; this
reference asks numpy for each draw, one call per draw, so it pins those
draws to numpy's own ``integers``, ``random``, ``permutation`` and
``choice``. Its specs reach what the golden digests of
``tests/test_golden_outputs.py`` do not: odd node counts, one and two
subgroups with each of the redirect extremes, no extra edges and no
cliques, an attachment of at least half the nodes, subgroups of three
(whose clique size is a span-1 draw), and a seed above 2**32.
"""

from itertools import combinations

import numpy as np
import pytest

from densecf import Graph, SyntheticSpec, generate_synthetic, node_halves


def reference_graph(spec, label, s0, s1, rng):
    own = list(s0 if label == 0 else s1)
    other = list(s1 if label == 0 else s0)
    edges = set()
    degree = [0] * spec.node_count

    def add(u, v):
        edge = (min(u, v), max(u, v))
        if u != v and edge not in edges:
            edges.add(edge)
            degree[u] += 1
            degree[v] += 1

    pool = rng.permutation(own).tolist()
    size = spec.subgroup_size
    subgroups = [pool[i * size : (i + 1) * size] for i in range(spec.subgroups_per_class)]
    for _ in range(spec.cliques_per_graph):
        group = subgroups[rng.integers(len(subgroups))]
        members = rng.choice(group, size=rng.integers(3, size + 1), replace=False).tolist()
        for u, v in combinations(members, 2):
            add(u, v)

    seed_count = min(spec.attachment, len(other))
    active = other[:seed_count]
    for w in other[seed_count:]:
        weights = np.array([degree[a] + 1 for a in active], dtype=float)
        k = min(spec.attachment, len(active))
        targets = rng.choice(active, size=k, replace=False, p=weights / weights.sum()).tolist()
        active.append(w)
        for v in targets:
            if rng.random() < spec.cross_probability:
                v = own[rng.integers(len(own))]
            add(w, v)
        for _ in range(spec.extra_edges):
            u = active[rng.integers(len(active))]
            v = active[rng.integers(len(active))]
            if rng.random() < spec.cross_probability:
                v = own[rng.integers(len(own))]
            add(u, v)
    return Graph(spec.node_count, edges)


def reference_dataset(spec):
    spec = spec.resolved()
    s0, s1 = node_halves(spec.node_count)
    labels = [0 if idx < spec.num_graphs // 2 else 1 for idx in range(spec.num_graphs)]
    return [
        (label, reference_graph(spec, label, s0, s1, np.random.default_rng([spec.seed, idx])))
        for idx, label in enumerate(labels)
    ]


SPECS = {
    "one-subgroup-odd": SyntheticSpec(node_count=33, num_graphs=4, seed=21),
    "two-subgroups-odd": SyntheticSpec(node_count=45, num_graphs=4, subgroups_per_class=2, seed=22),
    "two-subgroups-no-cross": SyntheticSpec(
        node_count=50, num_graphs=4, subgroups_per_class=2, cross_probability=0.0, seed=23
    ),
    "two-subgroups-all-cross": SyntheticSpec(
        node_count=41, num_graphs=4, subgroups_per_class=2, cross_probability=1.0, seed=24
    ),
    "one-subgroup-all-cross": SyntheticSpec(
        node_count=27, num_graphs=4, cross_probability=1.0, seed=25
    ),
    "two-subgroups-no-extra-edges": SyntheticSpec(
        node_count=48, num_graphs=4, subgroups_per_class=2, extra_edges=0, seed=26
    ),
    "no-cliques": SyntheticSpec(node_count=29, num_graphs=4, cliques_per_graph=0, seed=27),
    "attachment-half-the-nodes": SyntheticSpec(
        node_count=31, num_graphs=4, attachment=16, seed=28
    ),
    "attachment-most-of-a-half": SyntheticSpec(
        node_count=37, num_graphs=4, subgroups_per_class=2, attachment=14, seed=29
    ),
    "subgroups-of-three": SyntheticSpec(
        node_count=21, num_graphs=4, subgroups_per_class=2, subgroup_size=3, seed=30
    ),
    "seed-above-2-32": SyntheticSpec(node_count=35, num_graphs=4, attachment=1, seed=2**40 + 5),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generator_equals_numpy_reference(name):
    spec = SPECS[name]
    dataset = generate_synthetic(spec)
    assert [(e.label, e.graph) for e in dataset] == reference_dataset(spec)
