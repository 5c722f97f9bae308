import ctypes
import gc
import multiprocessing
import pickle
import random
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from densecf import (
    ConfigurationError,
    EditList,
    Graph,
    GraphDataset,
    METHODS,
    OracleSpec,
    RegionPartition,
    RunOptions,
    SFKnnModel,
    SyntheticSpec,
    apply_edits,
    generate_synthetic,
    run_benchmark,
    run_method,
    spectral_features,
    whitebox_classify,
)
from densecf import data, runner, spectral
from densecf.data import DatasetEntry
from densecf.runner import derive_seed, pool_size, run_instance

from conftest import random_graph, serial_pool


def _blas_threads() -> int:
    """The thread count of numpy's scipy-openblas in this process."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        if hasattr(lib, name):
            return getattr(lib, name)()
    raise AssertionError("no scipy-openblas thread count")


def small_dataset(n=8, count=6, seed=51, partition=True):
    rng = random.Random(seed)
    entries = tuple(
        DatasetEntry(random_graph(n, rng.uniform(0.3, 0.7), rng), i % 2, f"g{i}")
        for i in range(count)
    )
    part = RegionPartition(tuple("ab"[i % 2] for i in range(n))) if partition else None
    return GraphDataset(tuple(str(i) for i in range(n)), entries, part)


def whitebox_spec(dataset):
    return OracleSpec(kind="whitebox", node_count=dataset.node_count)


def counted_triangles(monkeypatch):
    """The graphs of every ``triangles_within`` call the white-box rule makes
    from now on, one entry a call."""
    calls, count = [], data.triangles_within
    monkeypatch.setattr(data, "triangles_within", lambda g, m: calls.append(g) or count(g, m))
    return calls


def model_spec(dataset, k=3):
    model = SFKnnModel(
        training_features=tuple(tuple(spectral_features(e.graph, k)) for e in dataset),
        training_labels=dataset.labels,
        n_neighbors=1,
        n_eigs=k,
    )
    return OracleSpec(kind="model", model=model)


SPECS = {"model": model_spec, "whitebox": whitebox_spec}


def computed(kind, monkeypatch):
    """The graphs that the classifier of a ``kind`` spec computes from now on,
    one entry a computation: a KNN prediction, or a white-box count."""
    calls = []
    if kind == "model":
        predict = spectral.knn_predict
        monkeypatch.setattr(spectral, "knn_predict", lambda m, g: calls.append(g) or predict(m, g))
        return calls
    count = data.triangles_within

    def counting(g, mask):
        if mask & 1:  # a count asks about both halves; keep the half of node 0
            calls.append(g)
        return count(g, mask)

    monkeypatch.setattr(data, "triangles_within", counting)
    return calls


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

    @pytest.mark.parametrize("make_spec", [whitebox_spec, model_spec], ids=["whitebox", "model"])
    def test_edits_and_distance_are_derived_from_the_counterfactual(self, make_spec):
        # a result keeps the input and the counterfactual; its edits and
        # distance are computed from the two when read
        dataset = small_dataset(n=24, count=4, seed=24)
        spec = make_spec(dataset)
        outcomes = set()
        for method in METHODS:
            for entry in dataset:
                result = run_method(
                    method,
                    spec.build(),
                    entry.graph,
                    dataset=dataset,
                    partition=dataset.partition,
                    options=RunOptions(max_iterations=20, seed=1),
                )
                edits = result.edits
                if result.found:
                    assert apply_edits(entry.graph, edits) == result.counterfactual
                    assert result.distance == edits.size > 0
                else:
                    assert edits == EditList((), ()) and result.distance == 0
                outcomes.add(result.found)
        assert outcomes == {True, False}

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


class TestOracleSpec:
    def test_model_kind_needs_a_model(self):
        with pytest.raises(ConfigurationError, match="needs model"):
            OracleSpec("model")

    def test_whitebox_kind_needs_a_node_count(self):
        with pytest.raises(ConfigurationError, match="needs node_count"):
            OracleSpec("whitebox")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown oracle kind 'magic'"):
            OracleSpec("magic", node_count=8)

    @pytest.mark.parametrize("kind", SPECS)
    def test_oracles_of_one_spec_compute_a_dataset_graph_once(self, kind, monkeypatch):
        dataset = small_dataset(count=2)
        g, h = (e.graph for e in dataset)
        labels = [SPECS[kind](dataset).build().predict(x) for x in (g, h)]
        spec, calls = SPECS[kind](dataset), computed(kind, monkeypatch)
        first, second = spec.build(), spec.build()
        assert [first.predict(g), first.predict(h)] == labels
        assert calls == [g, h]
        # the last graph is h now; the memo, shared with ``first``, holds g
        assert second.predict(g) == labels[0]
        assert calls == [g, h] and second.call_count == 1
        SPECS[kind](dataset).build().predict(g)  # another spec, another memo
        assert calls == [g, h, g]

    @pytest.mark.parametrize("kind", SPECS)
    def test_a_pickled_spec_starts_with_an_empty_memo(self, kind, monkeypatch):
        dataset = small_dataset(count=2)
        g, h = (e.graph for e in dataset)
        spec, calls = SPECS[kind](dataset), computed(kind, monkeypatch)
        spec.build().predict(g)
        spec.build().predict(h)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec) and repr(copy) == repr(spec)
        calls.clear()
        copy.build().predict(g)
        assert calls == [g]
        calls.clear()
        spec.build().predict(g)
        assert calls == []

    @pytest.mark.parametrize("kind", SPECS)
    def test_one_spec_for_every_search_gives_a_spec_per_search_records(self, kind, monkeypatch):
        dataset, options = small_dataset(count=4), RunOptions(max_iterations=6, seed=1)
        tasks = [(m, i) for m in ("tri", "cli", "rcli", "dat") for i in range(len(dataset))]

        def run(spec_for):
            return [
                run_instance(m, i, spec_for().build(), dataset, dataset.partition, options)
                for m, i in tasks
            ]

        fresh = run(lambda: SPECS[kind](dataset))
        spec, calls = SPECS[kind](dataset), computed(kind, monkeypatch)
        assert run(lambda: spec) == fresh
        unedited = Counter(g for g in calls if not g.edited)
        assert unedited == Counter(e.graph for e in dataset)  # each one once

    def test_dat_after_the_datasets_searches_counts_nothing_afresh(self, monkeypatch):
        dataset = small_dataset(count=4)
        spec, calls = whitebox_spec(dataset), counted_triangles(monkeypatch)
        for index in range(len(dataset)):
            run_instance("tri", index, spec.build(), dataset, None, RunOptions(seed=1))
        calls.clear()
        record = run_instance("dat", 0, spec.build(), dataset, None, RunOptions())
        assert record.found and record.oracle_calls == len(dataset) + 1
        assert calls == []


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

    def test_serial_run_keeps_no_reference_to_its_dataset(self):
        dataset = small_dataset(count=3)
        summaries = run_benchmark(
            whitebox_spec(dataset), dataset, ["tri", "cli"], dataset_name="demo", workers=1
        )
        alive = weakref.ref(dataset)
        del dataset
        gc.collect()
        assert alive() is None
        assert [len(s) for s in summaries] == [3, 3]

    def test_pool_size_is_capped_at_the_task_count(self):
        assert pool_size(64, 2) == 2
        assert pool_size(2, 64) == 2
        assert pool_size(64, 1) == 1
        assert pool_size(64, 0) == 1

    def test_pool_never_exceeds_the_tasks(self):
        dataset = small_dataset(count=2)
        kwargs = dict(dataset=dataset, methods=["tri"], dataset_name="demo")
        serial = run_benchmark(whitebox_spec(dataset), workers=1, **kwargs)
        with serial_pool() as sizes:
            pooled = run_benchmark(whitebox_spec(dataset), workers=64, **kwargs)
        assert sizes == [2]
        assert pooled == serial

    @pytest.mark.skipif(
        runner._blas_thread_setter() is None, reason="numpy's BLAS is not scipy-openblas"
    )
    @pytest.mark.parametrize("method", ("fork", "spawn"))
    def test_a_pool_worker_runs_one_blas_thread(self, method, monkeypatch):
        # two threads where a worker starts: inherited under fork, read from
        # the environment under spawn; the worker's initializer pins one
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        before = _blas_threads()
        runner._blas_thread_setter()(2)
        try:
            context = multiprocessing.get_context(method)
            with ProcessPoolExecutor(1, mp_context=context) as pool:
                assert pool.submit(_blas_threads).result(timeout=60) == 2
            with ProcessPoolExecutor(
                1, mp_context=context, initializer=runner._init_worker, initargs=(None,) * 4
            ) as pool:
                assert pool.submit(_blas_threads).result(timeout=60) == 1
        finally:
            runner._blas_thread_setter()(before)

    def test_one_task_runs_serially_whatever_the_workers(self):
        dataset = small_dataset(count=1)
        with serial_pool() as sizes:
            run_benchmark(
                whitebox_spec(dataset), dataset, ["cli"], dataset_name="demo", workers=64
            )
        assert sizes == []

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

    def test_repeated_method_rejected_before_any_search(self, monkeypatch):
        dataset = small_dataset()
        monkeypatch.setattr(runner, "run_instance", lambda *args: pytest.fail("a search ran"))
        with pytest.raises(ConfigurationError, match="'tri' is given twice"):
            run_benchmark(
                whitebox_spec(dataset), dataset, ["tri", "cli", "tri"], dataset_name="demo"
            )

    def test_whitebox_work_count_is_pinned(self, monkeypatch):
        # every fresh count the white-box rule makes over a seeded run, so a
        # count table or slot that stops answering fails here: the oracles
        # of one spec share the rule, each dataset graph is counted once, and
        # every edited graph is updated from a slot
        dataset = generate_synthetic(
            SyntheticSpec(node_count=24, num_graphs=6, subgroups_per_class=2, seed=3)
        )
        partition = RegionPartition(tuple(f"r{u // 3}" for u in range(24)))
        calls = counted_triangles(monkeypatch)
        summaries = run_benchmark(
            whitebox_spec(dataset),
            dataset,
            ["tri", "cli", "rcli", "dat+bw"],
            dataset_name="synth",
            partition=partition,
            workers=1,
        )
        assert [sum(r.oracle_calls for r in s.records) for s in summaries] == [376, 73, 52, 672]
        assert len(calls) == 12  # each of the 6 dataset graphs, once per half

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
