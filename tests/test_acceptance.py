"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.
"""

import os
import random
import time

import numpy as np
import pytest
import scipy.linalg

from densecf import (
    Graph,
    GraphDataset,
    Oracle,
    OracleSpec,
    RegionPartition,
    RunOptions,
    SyntheticSpec,
    backward_search,
    cli_search,
    dat_search,
    edit_distance_ratio,
    generate_synthetic,
    make_whitebox,
    node_halves,
    rcli_search,
    region_change_summary,
    run_benchmark,
    run_method,
    spectral_features,
    symmetric_difference_distance,
    train_sf_knn,
    triangle_score_lists,
    tri_search,
)
from densecf.data import DatasetEntry, ingest_correlation_listing
from densecf.graph import EditList
from densecf.runner import METHODS, run_instance
from densecf.spectral import POSITIVE_EIGENVALUE_TOL, normalized_laplacian

from conftest import CountingClassifier, brute_force_maximal_cliques, random_graph
from test_spectral import triangle_class_dataset


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _pool_dataset(n: int, count: int, seed: int) -> GraphDataset:
    rng = random.Random(seed)
    entries = tuple(
        DatasetEntry(random_graph(n, rng.uniform(0.25, 0.75), rng), i % 2, f"g{i}")
        for i in range(count)
    )
    return GraphDataset(n, tuple(str(i) for i in range(n)), entries)


def test_01_counterfactual_validity_sweep():
    """Every found counterfactual classifies opposite to its input, across all
    seven methods, two oracle families, and graphs of up to 40 nodes."""
    start = time.time()
    model, _ = train_sf_knn(
        triangle_class_dataset(num_graphs=24, n=15, seed=7),
        neighbor_grid=(1, 3),
        eig_grid=(5, 10),
        folds=4,
        seed=0,
    )
    model_spec = OracleSpec(kind="model", model=model)
    searches = 0
    found = 0
    invalid = 0
    for n in (15, 25, 40):
        pool = _pool_dataset(n, 12, seed=n)
        partition = RegionPartition(tuple("abcd"[i % 4] for i in range(n)))
        oracle_specs = [model_spec, OracleSpec(kind="whitebox", node_count=n)]
        rng = random.Random(n * 7 + 1)
        for rep in range(12):
            g = random_graph(n, rng.uniform(0.2, 0.8), rng)
            for spec in oracle_specs:
                for method in METHODS:
                    oracle = spec.build()
                    result = run_method(
                        method,
                        oracle,
                        g,
                        dataset=pool,
                        partition=partition,
                        options=RunOptions(
                            max_iterations=None if method != "edg" else 300,
                            seed=rep * 31 + n,
                        ),
                    )
                    searches += 1
                    if result.found:
                        found += 1
                        if oracle.classifier(result.counterfactual) == oracle.classifier(g):
                            invalid += 1
    elapsed = time.time() - start
    _report(
        "counterfactual validity",
        searches >= 500 and invalid == 0 and elapsed < 120,
        f"{searches} searches, {found} found, {invalid} invalid, {elapsed:.1f}s",
    )


def test_02_nearest_unlike_neighbor_always_succeeds():
    """When the oracle predicts both classes in the dataset, the dataset
    lookup always finds a counterfactual at the brute-force minimum distance."""
    start = time.time()
    rng = random.Random(2)
    attempted = 0
    oracles = [
        lambda h: int(h.edge_count % 2 == 0),
        lambda h: int(h.edge_count % 3 == 0),
    ]
    failures = []
    while attempted < 60:
        n = rng.choice([10, 14, 18])
        pool = _pool_dataset(n, rng.randrange(6, 14), seed=rng.randrange(10**6))
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        fn = rng.choice(oracles)
        y0 = fn(g)
        opposite = [
            (symmetric_difference_distance(g, e.graph), i)
            for i, e in enumerate(pool)
            if fn(e.graph) != y0
        ]
        if not opposite:
            continue
        attempted += 1
        result = dat_search(Oracle(fn), g, pool)
        if not result.found or result.distance != min(opposite)[0]:
            failures.append((n, result.found, result.distance, min(opposite)[0]))
    elapsed = time.time() - start
    _report(
        "nearest-unlike-neighbor flip rate and optimality",
        not failures and elapsed < 10,
        f"{attempted} datasets, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_03_synthetic_validation_flip_rate():
    """Clique search with the white-box rule on the planted-subgroup datasets:
    flip rate must be every instance of each class on both the one- and
    two-subgroup variants."""
    start = time.time()
    s0, s1 = node_halves(60)
    whitebox = make_whitebox(s0, s1)
    outcomes = {}
    for subgroups in (1, 2):
        dataset = generate_synthetic(
            SyntheticSpec(node_count=60, num_graphs=20, subgroups_per_class=subgroups, seed=0)
        )
        per_class = {0: [0, 0], 1: [0, 0]}  # class -> [found, attempted]
        for entry in dataset:
            oracle = Oracle(whitebox)
            predicted = whitebox(entry.graph)
            result = cli_search(oracle, entry.graph, options=RunOptions(max_iterations=200))
            per_class[predicted][1] += 1
            per_class[predicted][0] += int(result.found)
        outcomes[subgroups] = per_class
    elapsed = time.time() - start
    ok = all(
        found == attempted and attempted > 0
        for per_class in outcomes.values()
        for found, attempted in per_class.values()
    )
    detail = "; ".join(
        f"{k}SG class0 {v[0][0]}/{v[0][1]}, class1 {v[1][0]}/{v[1][1]}"
        for k, v in outcomes.items()
    )
    _report("synthetic validation flip rate", ok and elapsed < 60, f"{detail}, {elapsed:.1f}s")


def test_04_triangle_search_conservation():
    """Edge count is conserved in every intermediate graph and the iteration
    count never exceeds the shorter candidate list."""
    rng = random.Random(4)
    violations = 0
    for run in range(200):
        n = rng.randrange(6, 16)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        removals, additions = triangle_score_lists(g)
        cap = min(len(removals), len(additions))
        sizes = []
        fn = (lambda h: 0) if run % 2 else (lambda h: int(h.edge_count % 6 == 0))
        oracle = Oracle(lambda h: (sizes.append(h.edge_count), fn(h))[1])
        result = tri_search(oracle, g)
        if any(s != g.edge_count for s in sizes):
            violations += 1
        if result.iterations > cap:
            violations += 1
        if result.found and result.counterfactual.edge_count != g.edge_count:
            violations += 1
    _report("triangle-search edge conservation", violations == 0, "200 runs")


def test_05_backward_search_monotonicity():
    """Refinement never increases the distance to the input and always keeps
    the class opposite."""
    rng = random.Random(5)
    checked = 0
    violations = 0
    while checked < 200:
        n = rng.randrange(6, 14)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        candidate = random_graph(n, rng.uniform(0.2, 0.8), rng)
        modulus = rng.choice([2, 3, 4])
        fn = lambda h: int(h.edge_count % modulus == 0)
        if fn(candidate) == fn(g):
            continue
        checked += 1
        refined = backward_search(Oracle(fn), g, candidate)
        if symmetric_difference_distance(g, refined) > symmetric_difference_distance(g, candidate):
            violations += 1
        if fn(refined) == fn(g):
            violations += 1
    _report("backward-search monotonicity", violations == 0, "200 candidates")


def test_06_spectral_oracle_agreement():
    start = time.time()
    k3 = spectral_features(Graph(3, [(0, 1), (1, 2), (0, 2)]), 2)
    star = spectral_features(Graph(5, [(0, i) for i in range(1, 5)]), 3)
    exact_ok = max(abs(x - 1.5) for x in k3) < 1e-12 and max(abs(x - 1.0) for x in star) < 1e-12

    rng = random.Random(6)
    range_ok = True
    agree_ok = True
    for _ in range(100):
        g = random_graph(20, rng.uniform(0.05, 0.95), rng)
        eigs = np.linalg.eigvalsh(normalized_laplacian(g))
        if eigs.min() < -1e-9 or eigs.max() > 2 + 1e-9:
            range_ok = False
        # independent construction + a different solver
        n = g.node_count
        deg = [g.degree(v) for v in range(n)]
        lap = np.eye(n)
        for u, v in g.edges:
            w = -1.0 / (deg[u] ** 0.5 * deg[v] ** 0.5)
            lap[u, v] = w
            lap[v, u] = w
        ref = scipy.linalg.eigh(lap, eigvals_only=True)
        positives = [float(x) for x in ref if x > POSITIVE_EIGENVALUE_TOL]
        k = 8
        expected = (positives[:k] + [0.0] * k)[:k]
        got = spectral_features(g, k)
        if max(abs(a - b) for a, b in zip(got, expected)) > 1e-8:
            agree_ok = False
    elapsed = time.time() - start
    _report(
        "spectral features range and solver agreement",
        exact_ok and range_ok and agree_ok and elapsed < 10,
        f"100 graphs, {elapsed:.1f}s",
    )


def test_07_maximal_clique_correctness():
    from densecf import maximal_cliques_containing

    start = time.time()
    rng = random.Random(7)
    mismatches = 0
    for _ in range(50):
        n = rng.randrange(5, 13)
        g = random_graph(n, rng.uniform(0.3, 0.7), rng)
        expected = brute_force_maximal_cliques(g)
        for v in range(n):
            if maximal_cliques_containing(g, v) != {c for c in expected if v in c}:
                mismatches += 1
    elapsed = time.time() - start
    _report(
        "maximal-clique enumeration vs exhaustive oracle",
        mismatches == 0 and elapsed < 30,
        f"50 graphs, all nodes, {elapsed:.1f}s",
    )


def test_08_metric_axioms():
    rng = random.Random(8)
    violations = 0
    for _ in range(1000):
        n = rng.randrange(4, 12)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        h = random_graph(n, rng.uniform(0.1, 0.9), rng)
        k = random_graph(n, rng.uniform(0.1, 0.9), rng)
        if symmetric_difference_distance(g, g) != 0:
            violations += 1
        if symmetric_difference_distance(g, h) != symmetric_difference_distance(h, g):
            violations += 1
        if symmetric_difference_distance(g, k) > symmetric_difference_distance(
            g, h
        ) + symmetric_difference_distance(h, k):
            violations += 1
        if g.edge_count or h.edge_count:
            if not 0.0 <= edit_distance_ratio(g, h) <= 1.0:
                violations += 1
    _report("edit-distance metric axioms", violations == 0, "1000 triples")


def test_09_oracle_call_accounting():
    """Reported call counts equal an externally instrumented counter for every
    method, and the parallel benchmark path reports the same records."""
    dataset = _pool_dataset(10, 6, seed=9)
    partition = RegionPartition(tuple("ab"[i % 2] for i in range(10)))

    def uncounted_accesses(method: str, found: bool) -> int:
        # the classifier is touched outside the charged path only to validate
        # a found result: once, and for the composed methods once more for
        # the base result
        if not found:
            return 0
        return 2 if method in ("dat+bw", "rcli+bw") else 1

    mismatches = []
    for method in METHODS:
        for idx in range(len(dataset)):
            counting = CountingClassifier(lambda h: int(h.edge_count % 2 == 0))
            oracle = Oracle(counting)
            record = run_instance(
                method, idx, oracle, dataset, partition, RunOptions(max_iterations=25, seed=3)
            )
            external = counting.calls - uncounted_accesses(method, record.found)
            if record.oracle_calls != external or record.oracle_calls != oracle.call_count:
                mismatches.append((method, idx, record.oracle_calls, external))
    serial = run_benchmark(
        OracleSpec(kind="whitebox", node_count=10),
        dataset,
        list(METHODS),
        dataset_name="d",
        partition=partition,
        options=RunOptions(max_iterations=25, seed=3),
        workers=1,
    )
    parallel = run_benchmark(
        OracleSpec(kind="whitebox", node_count=10),
        dataset,
        list(METHODS),
        dataset_name="d",
        partition=partition,
        options=RunOptions(max_iterations=25, seed=3),
        workers=2,
    )
    parallel_ok = serial == parallel
    _report(
        "oracle-call accounting",
        not mismatches and parallel_ok,
        f"{len(METHODS) * len(dataset)} instrumented runs"
        + ("" if parallel_ok else "; parallel benchmark diverged"),
    )


def test_10_clique_budget_feasibility():
    """In every clique-rewrite iteration, an added clique never has more
    nodes than the removed clique."""
    rng = random.Random(10)
    violations = 0
    iterations_checked = 0
    for _ in range(40):
        n = rng.randrange(8, 16)
        g = random_graph(n, rng.uniform(0.3, 0.8), rng)
        rng.choice([0, 5, 10])  # unused draw, kept so the same 40 graphs are checked
        trace = []
        fn = rng.choice([lambda h: 0, lambda h: int(h.edge_count % 9 == 0)])
        partition = RegionPartition(tuple("abc"[i % 3] for i in range(n)))
        if rng.random() < 0.5:
            cli_search(Oracle(fn), g, trace=trace)
        else:
            rcli_search(Oracle(fn), g, partition, trace=trace)
        for step in trace:
            iterations_checked += 1
            cap = len(step.removed_clique)
            if any(len(added) > cap for added in step.added_cliques):
                violations += 1
    _report(
        "clique-addition budget",
        violations == 0 and iterations_checked > 0,
        f"{iterations_checked} iterations checked",
    )


def test_11_region_summary_accounting():
    rng = random.Random(11)
    violations = 0
    for _ in range(100):
        n = rng.randrange(6, 14)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        h = random_graph(n, rng.uniform(0.2, 0.8), rng)
        names = ["u", "v", "w"]
        partition = RegionPartition(tuple(rng.choice(names) for _ in range(n)))
        summary = region_change_summary(g, h, partition)
        edits = EditList.between(g, h)
        if summary.added_total != len(edits.additions):
            violations += 1
        if summary.removed_total != len(edits.removals):
            violations += 1
        if edits.additions and abs(sum(r.added_pct for r in summary.rows) - 100) > 1e-9:
            violations += 1
        if edits.removals and abs(sum(r.removed_pct for r in summary.rows) - 100) > 1e-9:
            violations += 1
    _report("region change accounting", violations == 0, "100 random edit sets")


def test_12_original_dataset_ingestion():
    """Optional integration: reproduces the published AUT dataset shape when
    the original correlation matrices are supplied via DENSECF_ORIGINAL_DATA."""
    root = os.environ.get("DENSECF_ORIGINAL_DATA")
    if not root:
        print("[SKIP] original-dataset ingestion -- DENSECF_ORIGINAL_DATA not set")
        pytest.skip("original datasets not supplied")
    listing = os.path.join(root, "aut", "listing.csv")
    dataset = ingest_correlation_listing(listing, percentile=90)
    ok = len(dataset) == 101 and dataset.node_count == 116
    _report(
        "original AUT ingestion",
        ok,
        f"{len(dataset)} graphs on {dataset.node_count} nodes",
    )
