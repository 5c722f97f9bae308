import random

import pytest

from densecf import (
    ConfigurationError,
    Graph,
    GraphDataset,
    METHODS,
    OracleSpec,
    RegionPartition,
    RunOptions,
    SFKnnModel,
    run_benchmark,
    run_method,
    spectral_features,
)
from densecf.data import DatasetEntry
from densecf.runner import derive_seed, run_instance

from conftest import random_graph


def small_dataset(n=8, count=6, seed=51, partition=True):
    rng = random.Random(seed)
    entries = tuple(
        DatasetEntry(random_graph(n, rng.uniform(0.3, 0.7), rng), i % 2, f"g{i}")
        for i in range(count)
    )
    part = RegionPartition(tuple("ab"[i % 2] for i in range(n))) if partition else None
    return GraphDataset(n, tuple(str(i) for i in range(n)), entries, part)


def whitebox_spec(dataset):
    return OracleSpec(kind="whitebox", node_count=dataset.node_count)


def model_spec(dataset, k=3):
    model = SFKnnModel(
        training_features=tuple(tuple(spectral_features(e.graph, k)) for e in dataset),
        training_labels=dataset.labels,
        n_neighbors=1,
        n_eigs=k,
    )
    return OracleSpec(kind="model", model=model)


class TestRunMethod:
    def test_every_method_runs(self):
        dataset = small_dataset()
        spec = whitebox_spec(dataset)
        for method in METHODS:
            oracle = spec.build()
            result = run_method(
                method,
                oracle,
                dataset.entries[0].graph,
                dataset=dataset,
                partition=dataset.partition,
                options=RunOptions(max_iterations=20, seed=1),
            )
            assert result.oracle_calls == oracle.call_count

    def test_dataset_required_for_dat(self):
        with pytest.raises(ConfigurationError):
            run_method("dat", whitebox_spec(small_dataset()).build(), Graph(8))

    def test_partition_required_for_rcli(self):
        with pytest.raises(ConfigurationError):
            run_method("rcli", whitebox_spec(small_dataset()).build(), Graph(8))

    def test_cli_regional_ranking_without_partition_rejected(self):
        dataset = small_dataset(partition=False)
        with pytest.raises(ConfigurationError):
            run_method(
                "cli",
                whitebox_spec(dataset).build(),
                dataset.entries[0].graph,
                options=RunOptions(ranking="regional"),
            )

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            run_method("magic", whitebox_spec(small_dataset()).build(), Graph(8))


class TestBenchmark:
    def test_records_ordered_and_complete(self):
        dataset = small_dataset()
        summaries = run_benchmark(
            whitebox_spec(dataset),
            dataset,
            ["tri", "dat"],
            dataset_name="demo",
            partition=dataset.partition,
            options=RunOptions(seed=3),
            workers=1,
        )
        assert [s.method for s in summaries] == ["tri", "dat"]
        for summary in summaries:
            assert [r.instance for r in summary.records] == list(range(len(dataset)))
            assert all(r.name == f"g{r.instance}" for r in summary.records)

    def test_parallel_equals_serial(self):
        dataset = small_dataset(count=5)
        kwargs = dict(
            dataset=dataset,
            methods=["tri", "cli", "edg", "dat"],
            dataset_name="demo",
            partition=dataset.partition,
            options=RunOptions(max_iterations=30, seed=7),
        )
        for spec in (whitebox_spec(dataset), model_spec(dataset)):
            serial = run_benchmark(spec, workers=1, **kwargs)
            parallel = run_benchmark(spec, workers=2, **kwargs)
            assert serial == parallel

    def test_per_instance_seed_is_schedule_independent(self):
        assert derive_seed(3, 5) == derive_seed(3, 5)
        assert derive_seed(3, 5) != derive_seed(3, 6)
        assert derive_seed(4, 5) != derive_seed(3, 5)

    def test_rcli_without_partition_rejected(self):
        dataset = small_dataset(partition=False)
        with pytest.raises(ConfigurationError):
            run_benchmark(
                whitebox_spec(dataset), dataset, ["rcli"], dataset_name="demo", workers=1
            )

    def test_records_carry_exact_call_counts(self):
        dataset = small_dataset(count=4)
        spec = whitebox_spec(dataset)
        summaries = run_benchmark(
            spec,
            dataset,
            ["tri", "edg"],
            dataset_name="demo",
            options=RunOptions(max_iterations=15, seed=2),
            workers=1,
        )
        for summary in summaries:
            for r in summary.records:
                fresh = spec.build()
                rerun = run_instance(
                    summary.method,
                    r.instance,
                    fresh,
                    dataset,
                    None,
                    RunOptions(max_iterations=15, seed=2),
                )
                assert rerun == r
                assert fresh.call_count == r.oracle_calls
