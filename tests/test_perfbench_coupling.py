"""What the benchmark in perfbench/ relies on: the functions its traced run
wraps, and the runner calls it makes. perfbench/ is read, never changed."""

import importlib
from pathlib import Path

import pytest

from densecf import (
    METHODS,
    SFKnnModel,
    SyntheticSpec,
    apply_edits,
    generate_synthetic,
    runner,
    spectral,
    symmetric_difference_distance,
)
from densecf.evaluation import RegionPartition

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    tracing = importlib.import_module("perfbench.tracing")
    return workloads, tracing


def resolve(target):
    module_name, _, qualname = target.partition(":")
    value = importlib.import_module(module_name)
    for attr in qualname.split("."):
        value = getattr(value, attr)
    return value


def small_inputs():
    dataset = generate_synthetic(
        SyntheticSpec(node_count=16, num_graphs=4, subgroup_size=4, cliques_per_graph=3, seed=2)
    )
    partition = RegionPartition(tuple(f"block{v // 4}" for v in range(16)))
    return dataset, partition


def test_every_traced_target_resolves(perfbench):
    workloads, _ = perfbench
    targets = [t for _, _, group in workloads.LAYERS for t in group]
    targets.append(workloads.PREDICT_TARGET)
    for target in targets:
        assert callable(resolve(target)), target


def test_harness_runner_calls(perfbench):
    _, tracing = perfbench
    dataset, partition = small_inputs()
    model = SFKnnModel(
        training_features=((0.1, 0.2), (0.3, 0.4)), training_labels=(0, 1), n_neighbors=1, n_eigs=2
    )
    specs = [
        runner.OracleSpec(kind="whitebox", model=None, node_count=dataset.node_count),
        runner.OracleSpec(kind="model", model=model, node_count=None),
    ]
    options = runner.RunOptions(max_iterations=5)
    g = dataset.entries[1].graph
    captured, found = [], 0

    def capture(run_method):
        def capturing(*args, **kwargs):
            captured.append(run_method(*args, **kwargs))
            return captured[-1]

        return capturing

    patches = tracing.Patches("densecf")
    patches.replace("densecf.runner:run_method", capture)
    try:
        for spec in specs:
            for method in METHODS:
                oracle = spec.build()
                record = runner.run_instance(method, 1, oracle, dataset, partition, options)
                result = captured.pop()
                assert not captured
                assert (record.found, record.iterations, record.oracle_calls) == (
                    result.found,
                    result.iterations,
                    result.oracle_calls,
                )
                assert (record.distance, record.distance_ratio) == (
                    result.distance,
                    result.distance_ratio,
                )
                assert record.oracle_calls == oracle.call_count
                if result.found:  # the checks harness.check_search makes
                    found += 1
                    assert result.edits.size == result.distance
                    assert symmetric_difference_distance(g, result.counterfactual) == (
                        result.distance
                    )
                    assert apply_edits(g, result.edits) == result.counterfactual
    finally:
        patches.restore()
    assert found


def test_wrapped_searches_see_every_method(perfbench):
    # the traced run wraps functions at their module bindings, so the method
    # table must reach each search through a module global
    workloads, tracing = perfbench
    searches = [
        t
        for name, _, group in workloads.LAYERS
        if name in ("density.search", "baselines.dat_search", "baselines.edg_search")
        for t in group
    ]
    calls = {target: 0 for target in searches}

    def counting(target):
        def make(fn):
            def wrapper(*args, **kwargs):
                calls[target] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    dataset, partition = small_inputs()
    spec = runner.OracleSpec(kind="whitebox", node_count=dataset.node_count)
    patches = tracing.Patches("densecf")
    for target in searches:
        patches.replace(target, counting(target))
    try:
        for method in METHODS:
            runner.run_instance(
                method, 0, spec.build(), dataset, partition, runner.RunOptions(max_iterations=5)
            )
    finally:
        patches.restore()
    assert all(calls.values()), calls


def test_a_wrapped_classifier_sees_every_predict(monkeypatch):
    # the traced run counts charged calls as classifier calls under
    # Oracle.predict, so the class table must sit inside the classifier:
    # a table hit still reaches a counter wrapped around it
    dataset, _ = small_inputs()
    model = SFKnnModel(
        training_features=((0.1, 0.2), (0.3, 0.4)), training_labels=(0, 1), n_neighbors=1, n_eigs=2
    )
    spec = runner.OracleSpec(kind="model", model=model)
    g, h = (e.graph for e in dataset.entries[:2])
    spec.build().predict(g)  # g's class is now in the table
    computed, knn_predict = [], spectral.knn_predict
    counting = lambda m, x: computed.append(x) or knn_predict(m, x)
    monkeypatch.setattr(spectral, "knn_predict", counting)
    oracle = spec.build()
    seen = []
    classify = oracle.classifier
    oracle.classifier = lambda x: seen.append(x) or classify(x)
    edited = g.remove_edge(*min(g.edges))
    for graph in (g, h, g, edited):  # a table hit, a miss, a hit, an edited graph
        y0 = oracle.predict(graph)
    assert computed == [h, edited]
    assert len(seen) == oracle.call_count == 4
    # a walk charges each step it takes through Oracle.predict, so the
    # wrapper sees every step's graph, each one edited and computed
    steps = [((0, 1),), ((2, 3), (0, 2)), ((1, 2),), ((0, 3),)]
    taken, reached = oracle.walk(edited, 1 - y0, steps)  # stops at the first step of class y0
    assert taken >= 1 and len(seen) == oracle.call_count == 4 + taken
    assert computed == [h, edited, *seen[4:]] and all(x.edited for x in seen[4:])
    assert reached is seen[-1]
    # the white-box rule's own walk is bypassed by a wrapper, as the traced run needs
    rule = runner.OracleSpec(kind="whitebox", node_count=dataset.node_count).build()
    inner, seen = rule.classifier, []
    rule.classifier = lambda x: seen.append(x) or inner(x)
    taken, _ = rule.walk(g, rule.check(g), steps)  # the check is one uncharged evaluation
    assert len(seen) == 1 + rule.call_count == 1 + taken
