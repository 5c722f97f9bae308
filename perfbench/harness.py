"""Set up a workload, run its searches as the runner does, check the outputs
and compute the metrics.

A search is one (method, instance) pair run the way
``runner.run_benchmark(workers=1)`` runs it: a fresh oracle from the
replicate's ``OracleSpec``, then ``runner.run_instance`` with the CLI's
default ``RunOptions``. A run sets up one replicate at a time, runs its
searches once each, checks every search as soon as it ends and keeps only its
record, then lets the replicate's dataset and oracle go before the next.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import densecf
from densecf import cli, data, evaluation, graph, runner, spectral

from . import stats, tracing
from .workloads import (
    CLASSIFIER_SPAN,
    LAYERS,
    NOMINAL_SECONDS,
    PREDICT_SPAN,
    PREDICT_TARGET,
    RUN,
    SETUP,
    Workload,
)

# replicate r of workload seed s is generated with synthetic seed s * 1000 + r
SYNTH_SEED_STRIDE = 1000
PARTITION_BLOCKS = 8
CLI_TIMEOUT_S = 170
REFERENCE_KERNEL_S = 0.001
CALIBRATION_WINDOW = 5
CLI_WORKERS = 2  # CLI re-runs of the traced check, after all timing
EXPECTED = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Replicate:
    """What a run keeps of a replicate once its searches are done."""

    name: str
    instances: dict[str, tuple[int, ...]]  # method -> dataset indices searched
    manifest: Path
    partition_path: Path
    model_path: Path | None


@dataclass
class Loaded:
    """A replicate's inputs, held only while its searches run."""

    dataset: data.GraphDataset
    partition: evaluation.RegionPartition
    spec: runner.OracleSpec


@dataclass
class Search:
    replicate: int
    method: str
    index: int
    seconds: float = 0.0
    scale: float = 1.0  # calibration factor when the search ran
    record: evaluation.InstanceRecord | None = None
    problem: str | None = None
    span: int = tracing.NO_PARENT

    @property
    def calibrated(self) -> float:
        return self.seconds * self.scale


def calibrated_rate(searches: list[Search]) -> float:
    """Calibrated searches per second."""
    return len(searches) / sum(s.calibrated for s in searches)


class Calibration:
    """The machine's current speed, from a fixed kernel timed before each
    search and each set-up.

    On a shared machine the same work takes 10-20% longer at some moments
    than at others. A calibrated time is the measured time scaled by
    REFERENCE_KERNEL_S over the median of the last CALIBRATION_WINDOW kernel
    times: what the work would have taken with the kernel at its reference
    speed. The kernel is one ``eigvalsh`` of a fixed symmetric 116 x 116
    matrix, the LAPACK call that bounds an oracle call; it runs no program
    code, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        a = np.random.default_rng(0).random((116, 116))
        self._matrix = a + a.T
        self._recent: deque[float] = deque(maxlen=CALIBRATION_WINDOW)
        self.samples: list[float] = []

    def scale(self) -> float:
        start = perf_counter()
        np.linalg.eigvalsh(self._matrix)
        elapsed = perf_counter() - start
        self._recent.append(elapsed)
        self.samples.append(elapsed)
        return REFERENCE_KERNEL_S / statistics.median(self._recent)


@dataclass
class Trace:
    spans: tracing.Spans = field(default_factory=tracing.Spans)
    repeats: tracing.RepeatCounter = field(default_factory=tracing.RepeatCounter)
    patches: tracing.Patches = field(default_factory=lambda: tracing.Patches("densecf"))

    @contextlib.contextmanager
    def installed(self):
        for metric, _, targets in LAYERS:
            for target in targets:
                self.patches.replace(target, lambda fn, m=metric: tracing.traced(self.spans, m, fn))
        self.patches.replace(
            PREDICT_TARGET, lambda fn: tracing.traced(self.spans, PREDICT_SPAN, fn)
        )
        try:
            yield
        finally:
            self.patches.restore()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.spans.open(name)
        try:
            yield index
        finally:
            self.spans.close(index)

    def counting_classifier(self, replicate: int, classify):
        """Counts every classifier evaluation, independently of ``Oracle``."""
        spans, repeats = self.spans, self.repeats

        def classifier(g):
            repeats.observe((replicate, hash(g.edges)))
            index = spans.open(CLASSIFIER_SPAN)
            try:
                return classify(g)
            finally:
                spans.close(index)

        return classifier


class Capture:
    """Keeps the result of the search in flight: ``run_instance`` returns only
    the record, and the checks need the counterfactual and its edits."""

    def __init__(self) -> None:
        self.last = None

    def wrap(self, run_method):
        def capturing(*args, **kwargs):
            self.last = run_method(*args, **kwargs)
            return self.last

        return capturing


# --- setup ---------------------------------------------------------------


def _cli(*argv) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"densecf {argv[0]} exited with code {code}")


def _write_partition(path: Path, node_count: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "region_name"])
        for v in range(node_count):
            writer.writerow([v, f"block{v * PARTITION_BLOCKS // node_count}"])


def replicate_count(w: Workload, seconds: int) -> int:
    """A workload's replicates for a run of ``seconds``: its own count at
    NOMINAL_SECONDS, scaled. The work depends on the arguments only, never on
    the measured speed."""
    return max(w.subset_replicates or 1, round(w.replicates * seconds / NOMINAL_SECONDS))


def set_up_replicate(w: Workload, seed: int, r: int, work: Path) -> tuple[Replicate, Loaded]:
    """Generate, save, reload and (for the KNN oracle) train one replicate,
    through the CLI as a user would."""
    name = f"{w.family}-r{r}"
    synth_seed = seed * SYNTH_SEED_STRIDE + r
    manifest = work / name / "manifest.json"
    _cli(
        "synth", "--nodes", w.node_count, "--num-graphs", w.graphs,
        "--subgroups", w.subgroups, "--seed", synth_seed, "--out-dir", work / name,
    )
    partition_path = work / f"{name}-partition.csv"
    _write_partition(partition_path, w.node_count)
    model_path = None
    if w.oracle == "knn":
        model_dir = work / f"{name}-model"
        _cli("train", "--dataset", manifest, "--seed", synth_seed, "--out-dir", model_dir)
        model_path = model_dir / "model.json"
    dataset = data.load_dataset(manifest)
    partition = data.load_partition(partition_path, dataset.node_ids)
    if model_path is None:
        spec = runner.OracleSpec(kind="whitebox", node_count=dataset.node_count)
    else:
        spec = runner.OracleSpec(kind="model", model=spectral.load_model(model_path))
    every = tuple(range(len(dataset)))
    in_subset = w.subset_replicates is None or r < w.subset_replicates
    balanced = (dataset.labels.index(r % 2),) if in_subset else ()
    instances = {m: balanced if m in w.subset_methods else every for m in w.methods}
    rep = Replicate(name, instances, manifest, partition_path, model_path)
    return rep, Loaded(dataset, partition, spec)


# --- the measured searches -----------------------------------------------


def run_options(w: Workload) -> runner.RunOptions:
    return runner.RunOptions(max_iterations=w.max_iterations)


def run_searches(
    w: Workload,
    r: int,
    rep: Replicate,
    loaded: Loaded,
    capture: Capture,
    calibration: Calibration,
    trace: Trace | None = None,
) -> list[Search]:
    """Every search of one replicate, each checked as soon as it ends; only
    its record, time and verdict are kept."""
    options = run_options(w)
    classify = loaded.spec.build().classifier  # uncharged, for the checks
    searches = []
    for method in w.methods:
        for index in rep.instances[method]:
            search = Search(r, method, index, scale=calibration.scale())
            capture.last = None
            if trace:
                trace.repeats.start_search()
                search.span = trace.spans.open("bench.search")
            start = perf_counter()
            try:
                oracle = loaded.spec.build()
                if trace:
                    oracle.classifier = trace.counting_classifier(r, oracle.classifier)
                search.record = runner.run_instance(
                    method, index, oracle, loaded.dataset, loaded.partition, options
                )
            except Exception:  # a failed search is counted, the run goes on
                search.problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
                traceback.print_exc(file=sys.stderr)
            search.seconds = perf_counter() - start
            if trace:
                trace.spans.close(search.span)
            result, capture.last = capture.last, None
            if not search.problem:
                # traced checks sit under their own root, outside both phases
                with trace.span("bench.check") if trace else contextlib.nullcontext():
                    search.problem = check_search(loaded, search, result, classify)
            searches.append(search)
    return searches


# --- checks ----------------------------------------------------------------


def check_search(loaded: Loaded, search: Search, result, classify) -> str | None:
    """Why a search's output is wrong, or None."""
    record = search.record
    if result is None:
        return "no search result captured"
    if (record.found, record.oracle_calls, record.distance, record.iterations) != (
        result.found, result.oracle_calls, result.distance, result.iterations
    ):
        return "record disagrees with the search result"
    if record.oracle_calls < 1:
        return "no charged oracle call"
    if not result.found:
        return None
    g = loaded.dataset.entries[search.index].graph
    if result.edits.size != result.distance:
        return f"distance {result.distance} differs from edit count {result.edits.size}"
    if graph.symmetric_difference_distance(g, result.counterfactual) != result.distance:
        return "distance differs from the counterfactual's distance to the input"
    if graph.apply_edits(g, result.edits) != result.counterfactual:
        return "edits do not reproduce the counterfactual"
    if classify(result.counterfactual) == classify(g):
        return "counterfactual does not flip the class"
    return None


def check_repeats(first: list[Search], again: list[Search]) -> None:
    """Mark every search of ``again`` whose record differs from ``first``'s."""
    for before, search in zip(first, again):
        if not search.problem and search.record != before.record:
            search.problem = "traced record differs from the untraced one"


def check_expected(
    w: Workload, seed: int, seconds: int, oracle_calls: int, fingerprint: dict
) -> str | None:
    """Compare the run's charged calls and records fingerprint with those
    ``sweep.py --record`` stored for this workload, length and seed."""
    if not EXPECTED.is_file():
        return None
    stored = json.loads(EXPECTED.read_text())
    expected = stored.get(w.name, {}).get(str(seconds), {}).get(str(seed))
    if expected is None:
        return None
    if oracle_calls != expected["oracle_calls"]:
        return f"{oracle_calls} charged oracle calls, {expected['oracle_calls']} recorded"
    if fingerprint["records_sha256"] != expected["records_sha256"]:
        return "records differ from those recorded"
    return None


def charged_by_spans(trace: Trace, searches: list[Search]) -> dict:
    """Charged calls per traced search, counted as classifier spans directly
    under an ``Oracle.predict`` span, plus the run's totals."""
    spans = trace.spans
    classifier_id = spans.name_index(CLASSIFIER_SPAN)
    predict_id = spans.name_index(PREDICT_SPAN)
    backward_id = spans.name_index("baselines.backward_search")
    root = tracing.roots(spans.parent)
    per_search = {s.span: 0 for s in searches}
    charged = uncharged = in_backward = 0
    for i in range(len(spans)):
        if spans.name_id[i] != classifier_id or root[i] not in per_search:
            continue
        p = spans.parent[i]
        if p != tracing.NO_PARENT and spans.name_id[p] == predict_id:
            charged += 1
            per_search[root[i]] += 1
            if tracing.has_ancestor(spans.parent, spans.name_id, i, backward_id):
                in_backward += 1
        else:
            uncharged += 1
    for search in searches:
        if not search.problem and per_search[search.span] != search.record.oracle_calls:
            search.problem = (
                f"oracle_calls {search.record.oracle_calls} but "
                f"{per_search[search.span]} charged classifier calls"
            )
    return {"charged": charged, "uncharged": uncharged, "backward": in_backward}


# --- outputs and fingerprints -------------------------------------------------


def _sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _records_file(out: Path, rep: Replicate) -> Path:
    return out / f"{rep.name}-records.csv"


def _aggregates_file(out: Path, rep: Replicate) -> Path:
    return out / f"{rep.name}-aggregates.json"


def write_outputs(w: Workload, rep: Replicate, searches: list[Search], out: Path) -> bool:
    """records.csv and aggregates.json of one replicate through evaluation's
    writers; False, writing nothing, when some search produced no record."""
    records = {(s.method, s.index): s.record for s in searches}
    if any(r is None for r in records.values()):
        return False
    summaries = [
        evaluation.MethodRunSummary(
            method=m,
            dataset=rep.name,
            records=tuple(records[(m, i)] for i in rep.instances[m]),
        )
        for m in w.methods
        if rep.instances[m]
    ]
    evaluation.write_records_csv(summaries, _records_file(out, rep))
    report = evaluation.build_aggregate_report(summaries)
    _aggregates_file(out, rep).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return True


def fingerprint(replicates: list[Replicate], out: Path) -> dict:
    """The SHA-256 of each kind of output file over all replicates in order."""
    return {
        "records_sha256": _sha256(_records_file(out, rep) for rep in replicates),
        "aggregates_sha256": _sha256(_aggregates_file(out, rep) for rep in replicates),
    }


def write_search_times(searches: list[Search], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "method", "instance", "seconds", "scale", "oracle_calls", "found"])
        for s in searches:
            calls = s.record.oracle_calls if s.record else ""
            found = s.record.found if s.record else ""
            row = [s.replicate, s.method, s.index, repr(s.seconds), repr(s.scale)]
            writer.writerow(row + [calls, found])


def _densecf(root: Path, *argv) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "densecf", *[str(a) for a in argv]],
        cwd=root, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"densecf {argv[0]} exited with code {done.returncode}: {done.stderr.strip()}"
        )


def _cli_records(
    root: Path, w: Workload, rep: Replicate, methods: tuple[str, ...], out: Path
) -> list:
    """Records of some methods on one replicate, as the shipped command
    writes them: all methods in one ``benchmark`` run, or a single subset
    method through ``explain``."""
    flags = ["--dataset", rep.manifest, "--partition", rep.partition_path]
    flags += ["--model", rep.model_path] if rep.model_path else ["--whitebox"]
    if w.max_iterations is not None:
        flags += ["--max-iters", w.max_iterations]
    if methods[0] not in w.subset_methods:
        _densecf(
            root, "benchmark", *flags, "--methods", ",".join(methods), "--workers", 1,
            "--out-dir", out,
        )
        return evaluation.read_records_csv(out / "records.csv")
    (method,) = methods
    records = []
    for index in rep.instances[method]:
        one = out / str(index)
        _densecf(
            root, "explain", *flags, "--method", method, "--instance", index,
            "--format", "json", "--out-dir", one,
        )
        res = json.loads((one / "result.json").read_text())
        records.append(
            evaluation.InstanceRecord(
                instance=res["instance"], name=res["name"], true_label=res["true_label"],
                predicted_label=res["predicted_class"], found=res["found"],
                iterations=res["iterations"], oracle_calls=res["oracle_calls"],
                distance=res["distance"], distance_ratio=res["distance_ratio"],
            )
        )
    return [evaluation.MethodRunSummary(method, res["dataset"], tuple(records))]


def compare_with_cli(w: Workload, replicates: list[Replicate], out: Path, root: Path) -> list[str]:
    """Re-run every search through the shipped command and compare records.

    Methods searched on every graph go through ``densecf benchmark
    --workers 1``, methods searched on a subset through ``densecf explain``,
    once per search. The records.csv written from their records must equal
    the benchmark's own byte for byte.
    """
    full = tuple(m for m in w.methods if m not in w.subset_methods)
    jobs = [(rep, full) for rep in replicates if full]
    jobs += [(rep, (m,)) for rep in replicates for m in w.subset_methods if rep.instances[m]]
    with ThreadPoolExecutor(max_workers=CLI_WORKERS) as pool:
        futures = [
            pool.submit(_cli_records, root, w, rep, methods, out / f"cli-{rep.name}" / methods[0])
            for rep, methods in jobs
        ]
        by_method = {}
        for (rep, _), future in zip(jobs, futures):
            by_method.update(((rep.name, s.method), s) for s in future.result())
    problems = []
    for rep in replicates:
        theirs = out / f"cli-{rep.name}" / "records.csv"
        evaluation.write_records_csv(
            [by_method[(rep.name, m)] for m in w.methods if rep.instances[m]], theirs
        )
        if theirs.read_bytes() != _records_file(out, rep).read_bytes():
            problems.append(f"{_records_file(out, rep).name} differs from the CLI's {theirs}")
    return problems


# --- metrics -----------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(
    setup_seconds: list[tuple[float, float]], searches: list[Search], rss_before: float
) -> dict:
    """The end-to-end metrics as name -> (value, unit, detail). Times are
    calibrated; the measured ones are in the detail."""
    per_search = [s.calibrated for s in searches]
    raw_per_search = [s.seconds for s in searches]
    n = len(searches)
    failed = sum(1 for s in searches if s.problem)
    measured = sum(per_search)
    raw_measured = sum(raw_per_search)
    calls = [s.record.oracle_calls for s in searches if s.record]
    found = sum(1 for s in searches if s.record and s.record.found)
    label, tail, beyond = stats.tail_percentile(per_search)
    raw_tail = stats.tail_percentile(raw_per_search)[1]
    peak = peak_rss_mb()
    return {
        "setup_s": (
            statistics.median(c for _, c in setup_seconds), "s",
            f"median of {len(setup_seconds)} replicate set-ups; measured "
            f"{statistics.median(m for m, _ in setup_seconds):.4f} s",
        ),
        "searches_per_s": (
            n / measured, "1/s",
            f"{n} searches in {measured:.2f} s; measured {n / raw_measured:.4g}",
        ),
        "search_ms_p50": (
            1000 * statistics.median(per_search), "ms",
            f"n={n}; measured {1000 * statistics.median(raw_per_search):.4g}",
        ),
        "search_ms_tail": (
            1000 * tail, "ms", f"{label}, n={n}, {beyond} beyond; measured {1000 * raw_tail:.4g}"
        ),
        "oracle_calls_per_search": (
            statistics.fmean(calls) if calls else 0.0,
            "count",
            f"n={len(calls)}, total {sum(calls)}",
        ),
        "found_frac": (found / n, "frac", f"{found}/{n}"),
        "failed_frac": (failed / n, "frac", f"{failed}/{n}"),
        "peak_rss_mb": (
            peak - rss_before, "MB",
            f"ru_maxrss {peak:.1f} MB less the {rss_before:.1f} MB held before the first set-up",
        ),
    }


def per_layer(
    trace: Trace, untraced: list[Search], traced: list[Search], charged: dict
) -> dict:
    """The per-layer metrics as name -> (value, unit, detail)."""
    spans = trace.spans
    root = tracing.roots(spans.parent)
    phase_of_root = {"bench.setup": SETUP, "bench.search": RUN, "bench.report": RUN}
    selected = {SETUP: [], RUN: []}
    phase_seconds = {SETUP: 0.0, RUN: 0.0}
    for i in range(len(spans)):
        phase = phase_of_root.get(spans.name_of(root[i]))
        if phase is None:  # the checks
            continue
        selected[phase].append(i)
        if root[i] == i:
            phase_seconds[phase] += spans.end[i] - spans.start[i]
    totals = {phase: tracing.totals_by_name(spans, idx) for phase, idx in selected.items()}
    metrics = {}
    for metric, phase, _ in LAYERS:
        calls, total, own = totals[phase].get(metric, (0, 0.0, 0.0))
        share = 100.0 / phase_seconds[phase]
        metrics[f"{metric}.calls"] = (calls, "count", f"{phase} phase")
        metrics[f"{metric}.total_pct"] = (total * share, "%", f"{1000 * total:.1f} ms")
        metrics[f"{metric}.self_pct"] = (own * share, "%", f"{1000 * own:.1f} ms")
    in_search, in_run = trace.repeats.fractions()
    plain, with_trace = calibrated_rate(untraced), calibrated_rate(traced)
    evaluations = trace.repeats.evaluations
    metrics.update(
        {
            "spectral.charged_calls": (
                charged["charged"], "count", "classifier calls under Oracle.predict"
            ),
            "spectral.uncharged_calls": (charged["uncharged"], "count", "direct classifier calls"),
            "spectral.repeat_frac_search": (
                in_search, "frac", f"{trace.repeats.repeats_in_search}/{evaluations}"
            ),
            "spectral.repeat_frac_run": (
                in_run, "frac", f"{trace.repeats.repeats_in_run}/{evaluations}"
            ),
            "baselines.backward_search.charged_calls": (
                charged["backward"], "count", "charged calls inside backward_search"
            ),
            "trace.overhead_pct": (
                100.0 * (plain - with_trace) / plain,
                "%",
                f"calibrated searches_per_s {plain:.4g} untraced, {with_trace:.4g} traced",
            ),
        }
    )
    return metrics


# --- environment -------------------------------------------------------------


def _blas() -> tuple[str, int | None]:
    import ctypes
    import glob

    try:
        vendor = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        vendor = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return vendor, int(fn())
    return vendor, None


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(seed: int, root: Path) -> dict:
    vendor, threads = _blas()
    nproc = len(os.sched_getaffinity(0))
    if threads is not None and threads > nproc:
        raise RuntimeError(f"BLAS uses {threads} threads on {nproc} CPUs")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc,
        "seed": seed,
        "commit": _commit(root),
        "densecf": densecf.__version__,
    }


# --- a whole run -----------------------------------------------------------


def run(w: Workload, seed: int, seconds: int, trace_on: bool, root: Path, work: Path) -> dict:
    """Run one workload; returns the metrics, counts, checks and environment.

    Untraced, each replicate is set up and its searches run once. Traced,
    each replicate is set up with tracing on, its searches run once untraced
    and once traced, and the traced records must equal the untraced ones.
    """
    env = environment(seed, root)
    calibration = Calibration()
    capture = Capture()
    patches = tracing.Patches("densecf")
    patches.replace("densecf.runner:run_method", capture.wrap)
    trace = Trace() if trace_on else None
    replicates: list[Replicate] = []
    setup_seconds: list[tuple[float, float]] = []
    untraced: list[Search] = []
    traced: list[Search] = []
    complete = True
    rss_before = peak_rss_mb()
    try:
        for r in range(replicate_count(w, seconds)):
            scale = calibration.scale()
            with trace.installed() if trace else contextlib.nullcontext():
                with trace.span("bench.setup") if trace else contextlib.nullcontext():
                    start = perf_counter()
                    rep, loaded = set_up_replicate(w, seed, r, work)
                    elapsed = perf_counter() - start
            replicates.append(rep)
            setup_seconds.append((elapsed, elapsed * scale))
            first = run_searches(w, r, rep, loaded, capture, calibration)
            untraced += first
            if trace:
                with trace.installed():
                    again = run_searches(w, r, rep, loaded, capture, calibration, trace)
                    with trace.span("bench.report"):
                        complete &= write_outputs(w, rep, again, work)
                check_repeats(first, again)
                traced += again
            else:
                complete &= write_outputs(w, rep, first, work)
            del loaded  # before the next replicate is set up
    finally:
        patches.restore()
    searches = untraced + traced
    oracle_calls = sum(s.record.oracle_calls for s in untraced if s.record)
    fingerprint_ = fingerprint(replicates, work) if complete else None
    problems: list[str] = []
    if trace:
        charged = charged_by_spans(trace, traced)
        if fingerprint_:
            try:
                problems += compare_with_cli(w, replicates, work, root)
            except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
                problems.append(f"re-running through the CLI failed: {exc}")
        metrics = per_layer(trace, untraced, traced, charged)
        _save_spans(trace.spans, work / "spans.npz")
    else:
        write_search_times(untraced, work / "searches.csv")
        metrics = end_to_end(setup_seconds, untraced, rss_before)
    failed = [s for s in searches if s.problem]
    problems += [
        f"{s.method} instance {s.index} of replicate {s.replicate}: {s.problem}" for s in failed
    ]
    if fingerprint_ is None:
        problems.append("no fingerprint: some search produced no record")
    else:
        mismatch = check_expected(w, seed, seconds, oracle_calls, fingerprint_)
        if mismatch:
            problems.append(f"{mismatch} for this seed in {EXPECTED.name}")
    env["calibration_kernel_ms"] = 1000 * statistics.median(calibration.samples)
    return {
        "workload": w.name,
        "trace": bool(trace),
        "environment": env,
        "attempted": len(searches),
        "failed": len(failed),
        "correct": not problems,
        "problems": problems,
        "fingerprint": fingerprint_,
        "oracle_calls": oracle_calls,
        "metrics": metrics,
    }


def _save_spans(spans: tracing.Spans, path: Path) -> None:
    np.savez_compressed(
        path,
        names=np.array(spans.names),
        name_id=np.array(spans.name_id, dtype=np.int32),
        parent=np.array(spans.parent, dtype=np.int32),
        start=np.array(spans.start),
        end=np.array(spans.end),
    )
