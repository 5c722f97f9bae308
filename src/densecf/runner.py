"""Method dispatch and batch execution of searches over whole datasets."""

from __future__ import annotations

import ctypes
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .baselines import dat_search, edg_search, refine_with_backward
from .data import ConfigurationError, DatasetEntry, GraphDataset, RegionPartition
from .data import make_whitebox, node_halves
from .density import (
    CounterfactualResult,
    RunOptions,
    cli_search,
    rcli_search,
    tri_search,
)
from .evaluation import InstanceRecord, MethodRunSummary
from .graph import Graph
from .spectral import Oracle, SFKnnModel, knn_classifier

logger = logging.getLogger(__name__)


# The searches are looked up as module globals when a method runs (not bound
# here), so rebinding ``runner.tri_search`` and friends takes effect. Each
# entry maps (oracle, graph, dataset, partition, options) to the result.
_METHOD_TABLE = {
    "tri": lambda o, g, d, p, opts: tri_search(o, g, options=opts),
    "cli": lambda o, g, d, p, opts: cli_search(o, g, options=opts),
    "rcli": lambda o, g, d, p, opts: rcli_search(o, g, p, opts),
    "edg": lambda o, g, d, p, opts: edg_search(o, g, opts),
    "dat": lambda o, g, d, p, opts: dat_search(o, g, d),
    "dat+bw": lambda o, g, d, p, opts: refine_with_backward(o, g, dat_search(o, g, d)),
    "rcli+bw": lambda o, g, d, p, opts: refine_with_backward(o, g, rcli_search(o, g, p, opts)),
}

METHODS = tuple(_METHOD_TABLE)
_NEEDS_PARTITION = ("rcli", "rcli+bw")
_ORACLE_NEEDS = {"model": "model", "whitebox": "node_count"}  # kind -> the field it needs


@dataclass(frozen=True)
class OracleSpec:
    """Picklable recipe for building an oracle inside a worker process; an
    incomplete recipe is a ConfigurationError when it is made. The spec makes
    one classifier, ``knn_classifier(model)`` or ``make_whitebox`` over the
    node halves, and every oracle it builds wraps it, so they share its memo
    of the dataset graphs for as long as the spec lives: one run, or one pool
    worker. Equality, hashing, ``repr`` and pickling ignore the classifier:
    an unpickled spec starts with a fresh one."""

    kind: str  # "model" or "whitebox"
    model: SFKnnModel | None = None
    node_count: int | None = None
    _classifier: Callable[[Graph], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        needs = _ORACLE_NEEDS.get(self.kind)
        if needs is None:
            raise ConfigurationError(
                f"unknown oracle kind {self.kind!r}, expected one of {tuple(_ORACLE_NEEDS)}"
            )
        if getattr(self, needs) is None:
            raise ConfigurationError(f"a {self.kind!r} oracle needs {needs}")
        if self.kind == "model":
            classifier = knn_classifier(self.model)
        else:
            classifier = make_whitebox(*node_halves(self.node_count))
        object.__setattr__(self, "_classifier", classifier)

    def __reduce__(self) -> tuple:
        # rebuilt from the declared fields, so a pool worker's copy starts an empty memo
        return OracleSpec, (self.kind, self.model, self.node_count)

    def build(self) -> Oracle:
        return Oracle(self._classifier)


def derive_seed(base: int, index: int) -> int:
    """Per-instance stream so parallel scheduling cannot change results."""
    return (base * 1_000_003 + index) % (2**63)


def _search_for(method: str, has_partition: bool):
    """The table entry that runs ``method``, after checking that it can run."""
    search = _METHOD_TABLE.get(method)
    if search is None:
        raise ConfigurationError(f"unknown method {method!r}, expected one of {METHODS}")
    if method in _NEEDS_PARTITION and not has_partition:
        raise ConfigurationError(f"method {method!r} requires a region partition")
    return search


def run_method(
    method: str,
    oracle: Oracle,
    g: Graph,
    dataset: GraphDataset | None = None,
    partition: RegionPartition | None = None,
    options: RunOptions = RunOptions(),
) -> CounterfactualResult:
    """Run one named search method on one graph."""
    return _search_for(method, partition is not None)(oracle, g, dataset, partition, options)


def search_instance(
    method: str,
    index: int,
    oracle: Oracle,
    dataset: GraphDataset,
    partition: RegionPartition | None,
    options: RunOptions,
) -> CounterfactualResult:
    """Run one method on one dataset instance, with the instance's own seed
    derived from ``options.seed``."""
    options = replace(options, seed=derive_seed(options.seed, index))
    g = dataset.entries[index].graph
    return run_method(method, oracle, g, dataset=dataset, partition=partition, options=options)


def instance_record(
    index: int, entry: DatasetEntry, result: CounterfactualResult
) -> InstanceRecord:
    """The record of ``result``, a search of dataset instance ``index``, ``entry``."""
    return InstanceRecord(
        instance=index,
        name=entry.name,
        true_label=entry.label,
        predicted_label=result.input_class,
        found=result.found,
        iterations=result.iterations,
        oracle_calls=result.oracle_calls,
        distance=result.distance,
        distance_ratio=result.distance_ratio,
    )


def run_instance(
    method: str,
    index: int,
    oracle: Oracle,
    dataset: GraphDataset,
    partition: RegionPartition | None,
    options: RunOptions,
) -> InstanceRecord:
    """Run one method on one dataset instance and record the outcome."""
    result = search_instance(method, index, oracle, dataset, partition, options)
    return instance_record(index, dataset.entries[index], result)


_WORKER_CTX: tuple | None = None  # (oracle spec, dataset, partition, options) in a pool worker


def _init_worker(*ctx) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx
    setter = _blas_thread_setter()
    if setter is not None:
        setter(1)


@cache
def _blas_thread_setter() -> Callable[[int], None] | None:
    """OpenBLAS's own thread-count setter when numpy runs on its bundled
    scipy-openblas, else None. A pool worker runs one search at a time
    beside the others, and OpenBLAS's threads in each worker contend for the
    same CPUs: on a 2-CPU machine, a 116-node ``benchmark`` of tri, cli, edg
    and dat over two workers took 7.2-7.3 s with them and 2.0-2.1 s with one
    thread each, with the same records."""
    if np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name") != "scipy-openblas":
        return None
    try:  # numpy's extension links the library, so its handle reaches the symbols
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):  # a numpy laid out otherwise
        return None
    for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
        if hasattr(lib, name):
            return getattr(lib, name)
    return None


def _run_task(task: tuple[str, int]) -> InstanceRecord:
    oracle_spec, dataset, partition, options = _WORKER_CTX
    method, index = task
    return run_instance(method, index, oracle_spec.build(), dataset, partition, options)


def pool_size(workers: int, task_count: int) -> int:
    """The worker processes a run of ``task_count`` searches uses when asked
    for ``workers``: never more than it has tasks, at least 1 (serial). A
    forked pool starts every worker up front, each with a copy of the
    dataset, so idle workers are not free."""
    return max(1, min(workers, task_count))


def run_benchmark(
    oracle_spec: OracleSpec,
    dataset: GraphDataset,
    methods: Sequence[str],
    dataset_name: str,
    partition: RegionPartition | None = None,
    options: RunOptions = RunOptions(),
    workers: int = 1,
) -> list[MethodRunSummary]:
    """Run every method on every dataset instance.

    Instances fan out over a process pool of ``pool_size(workers, tasks)``
    processes when that is above 1; each task owns a fresh oracle, so
    per-record call counts are exact regardless of scheduling, and output
    order is fixed to (method, instance index).
    """
    for k, method in enumerate(methods):
        _search_for(method, partition is not None)
        if method in methods[:k]:
            raise ConfigurationError(f"method {method!r} is given twice")
    tasks = [(method, index) for method in methods for index in range(len(dataset))]
    workers = pool_size(workers, len(tasks))
    if workers == 1:
        build = oracle_spec.build  # a fresh counter per search
        records = [run_instance(m, i, build(), dataset, partition, options) for m, i in tasks]
    else:
        ctx = (oracle_spec, dataset, partition, options)
        if _blas_thread_setter() is None:  # looked up here, so a forked worker has it
            logger.warning("no scipy-openblas thread setter: pool workers keep the BLAS's threads")
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=ctx) as pool:
            records = list(pool.map(_run_task, tasks, chunksize=4))  # in task order
    n = len(dataset)
    return [
        MethodRunSummary(method, dataset_name, tuple(records[k * n : (k + 1) * n]))
        for k, method in enumerate(methods)
    ]
