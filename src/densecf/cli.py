"""Command-line entry point.

Subcommands: train, explain, benchmark, synth, ingest, report. Every run
writes a run_manifest.json with the resolved configuration and the sha256 of
every file the run read; all other outputs are byte-stable for identical
invocations.

Exit codes: 0 success (a not-found counterfactual is still a success),
1 usage or configuration error, 2 data error, 3 internal error: a defect in
densecf, whose traceback is logged. Set DENSECF_LOG to control logging verbosity.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .data import (
    MANIFEST_FILE,
    SUBGROUPS_PER_CLASS,
    ConfigurationError,
    DatasetFormatError,
    GraphDataset,
    RegionPartition,
    SyntheticSpec,
    dataset_manifest,
    generate_synthetic,
    ingest_correlation_listing,
    load_dataset,
    load_partition,
    read_digits,
    recording_reads,
    save_dataset,
    write_csv_rows,
    write_json,
)
from .density import RANKING_STRATEGIES, RunOptions
from .evaluation import (
    build_aggregate_report,
    read_records_csv,
    region_change_summary,
    write_records_csv,
    write_region_csv,
)
from .runner import METHODS, OracleSpec, instance_record, pool_size, run_benchmark, search_instance
from .spectral import KNN_METRICS, load_model, save_model, train_sf_knn

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

RESULT_SCHEMA_VERSION = 2
EDITS_CSV_COLUMNS = ["action", "node_u", "node_v"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; remap to the documented code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _configure_logging() -> None:
    level_name = os.environ.get("DENSECF_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _write_manifest(args, inputs: dict[str, str]) -> None:
    """Record the arguments as the command resolved them, and ``inputs``."""
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in ("command", "func")},
        "toolkit_version": __version__,
        "inputs": inputs,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    write_json(manifest, Path(args.out_dir) / "run_manifest.json")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset_name(path: str) -> str:
    # abspath names the directory of "." or a bare manifest name, following no symlink
    p = Path(os.path.abspath(dataset_manifest(path)))
    return p.parent.name if p.name == MANIFEST_FILE else p.stem


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _search_setup(args) -> tuple[GraphDataset, RegionPartition | None, OracleSpec]:
    """An explain or benchmark run's dataset, region partition and oracle."""
    dataset = load_dataset(args.dataset)
    if not dataset.entries:
        raise ConfigurationError(f"dataset {args.dataset} has no graphs")
    partition = dataset.partition
    if args.partition:
        partition = load_partition(args.partition, dataset.node_ids)
    if args.whitebox:
        return dataset, partition, OracleSpec("whitebox", node_count=dataset.node_count)
    return dataset, partition, OracleSpec("model", model=load_model(args.model))


def _run_options(args) -> RunOptions:
    return RunOptions(max_iterations=args.max_iters, ranking=args.ranking, seed=args.seed)


# --- subcommands ----------------------------------------------------------


def cmd_train(args) -> None:
    dataset = load_dataset(args.dataset)
    model, report = train_sf_knn(
        dataset,
        neighbor_grid=args.neighbors,
        eig_grid=args.eigs,
        folds=args.folds,
        seed=args.seed,
        metric=args.metric,
    )
    out = _out_dir(args)
    save_model(model, out / "model.json")
    write_json(asdict(report), out / "train_report.json")
    print(
        f"trained sf-knn: accuracy={report.accuracy:.3f} f1={report.f1:.3f} "
        f"n_neighbors={report.n_neighbors} n_eigs={report.n_eigs}"
    )


def _select_instance(dataset: GraphDataset, selector: str) -> int:
    try:
        index = read_digits(selector)
    except ValueError:
        names = [e.name for e in dataset.entries]
        if selector not in names:
            raise ConfigurationError(f"no instance named {selector!r} in dataset")
        return names.index(selector)
    if index >= len(dataset):
        raise ConfigurationError(f"instance index {index} out of range 0..{len(dataset) - 1}")
    return index


def cmd_explain(args) -> None:
    dataset, partition, spec = _search_setup(args)
    index = _select_instance(dataset, args.instance)
    entry = dataset.entries[index]
    oracle = spec.build()
    result = search_instance(args.method, index, oracle, dataset, partition, _run_options(args))

    out = _out_dir(args)
    ids = dataset.node_ids
    edits = result.edits
    removals = [[ids[u], ids[v]] for u, v in edits.removals]
    additions = [[ids[u], ids[v]] for u, v in edits.additions]
    if args.format in ("both", "json"):
        payload = asdict(instance_record(index, entry, result))
        payload["predicted_class"] = payload.pop("predicted_label")
        payload.update(method=args.method, dataset=_dataset_name(args.dataset), note=result.note)
        payload.update(schema_version=RESULT_SCHEMA_VERSION, removals=removals, additions=additions)
        write_json(payload, out / "result.json")
    if args.format in ("both", "csv"):
        rows = [*(["remove", *e] for e in removals), *(["add", *e] for e in additions)]
        write_csv_rows(out / "edits.csv", EDITS_CSV_COLUMNS, rows)
        if partition is not None and result.found:
            write_region_csv(
                region_change_summary(entry.graph, result.counterfactual, partition),
                out / "regions.csv",
            )
    status = "found" if result.found else "not found"
    print(
        f"{args.method} on instance {index} ({entry.name}): {status}, "
        f"d={result.distance}, calls={result.oracle_calls}, iterations={result.iterations}"
    )


def cmd_benchmark(args) -> None:
    if args.workers is not None and args.workers < 1:
        raise ConfigurationError(f"--workers must be at least 1, got {args.workers}")
    dataset, partition, spec = _search_setup(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigurationError("no methods given")
    workers = pool_size(args.workers or os.cpu_count() or 1, len(methods) * len(dataset))
    summaries = run_benchmark(
        spec,
        dataset,
        methods,
        dataset_name=_dataset_name(args.dataset),
        partition=partition,
        options=_run_options(args),
        workers=workers,
    )
    out = _out_dir(args)
    if args.format in ("both", "csv"):
        write_records_csv(summaries, out / "records.csv")
    if args.format in ("both", "json"):
        write_json(build_aggregate_report(summaries), out / "aggregates.json")
    args.workers = workers  # the manifest records the pool size used
    for summary in summaries:
        found = sum(1 for r in summary.records if r.found)
        print(f"{summary.method}: {found}/{len(summary.records)} found")


def cmd_synth(args) -> None:
    spec = SyntheticSpec(
        node_count=args.nodes,
        num_graphs=args.num_graphs,
        subgroups_per_class=args.subgroups,
        subgroup_size=args.subgroup_size,
        cliques_per_graph=args.cliques,
        attachment=args.attach_m,
        extra_edges=args.extra_p,
        cross_probability=args.cross_q,
        seed=args.seed,
    )
    dataset = generate_synthetic(spec)
    out = _out_dir(args)
    manifest_path = save_dataset(dataset, out)
    print(f"wrote {len(dataset)} graphs on {dataset.node_count} nodes to {manifest_path}")


def cmd_ingest(args) -> None:
    dataset = ingest_correlation_listing(
        args.listing, percentile=args.percentile, partition_path=args.partition
    )
    out = _out_dir(args)
    manifest_path = save_dataset(dataset, out)
    avg_edges = sum(e.graph.edge_count for e in dataset) / len(dataset)
    print(
        f"ingested {len(dataset)} graphs on {dataset.node_count} nodes "
        f"(avg edges {avg_edges:.1f}) to {manifest_path}"
    )


def cmd_report(args) -> None:
    summaries = read_records_csv(args.records)
    report = build_aggregate_report(summaries)
    out = _out_dir(args)
    write_json(report, out / "aggregates.json")
    print(f"aggregated {sum(len(s) for s in summaries)} records from {len(summaries)} runs")


# --- parser ---------------------------------------------------------------


def _defaults(declaration) -> dict:
    """The parameter defaults a library function or dataclass declares."""
    return {name: p.default for name, p in inspect.signature(declaration).parameters.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="densecf",
        description="Density-based counterfactual explanations for binary graph classifiers.",
    )
    parser.add_argument("--version", action="version", version=f"densecf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = _defaults(RunOptions)

    def add_common_run_flags(p) -> None:
        p.add_argument("--dataset", required=True, help="dataset manifest path")
        oracle = p.add_mutually_exclusive_group(required=True)
        oracle.add_argument("--model", help="trained model JSON")
        oracle.add_argument(
            "--whitebox",
            action="store_true",
            help="use the half-vs-half triangle rule instead of a trained model",
        )
        p.add_argument(
            "--max-iters", type=int, default=run["max_iterations"], help="iteration cap override"
        )
        p.add_argument(
            "--ranking",
            choices=RANKING_STRATEGIES,
            default=run["ranking"],
            help="node ranking for the cli method (rcli ranks by region)",
        )
        p.add_argument("--partition", help="node_id,region_name CSV overriding the dataset's")
        p.add_argument("--seed", type=int, default=run["seed"])
        p.add_argument("--out-dir", required=True)
        p.add_argument("--format", choices=["both", "json", "csv"], default="both")

    p_train = sub.add_parser("train", help="train the spectral KNN classifier")
    p_train.add_argument("--dataset", required=True)
    train = _defaults(train_sf_knn)
    p_train.add_argument("--folds", type=int, default=train["folds"])
    p_train.add_argument("--neighbors", type=_int_list, default=train["neighbor_grid"])
    p_train.add_argument("--eigs", type=_int_list, default=train["eig_grid"])
    p_train.add_argument("--metric", choices=KNN_METRICS, default=train["metric"])
    p_train.add_argument("--seed", type=int, default=train["seed"])
    p_train.add_argument("--out-dir", required=True)
    p_train.set_defaults(func=cmd_train)

    p_explain = sub.add_parser("explain", help="explain one dataset instance")
    add_common_run_flags(p_explain)
    p_explain.add_argument("--instance", required=True, help="index or graph name")
    p_explain.add_argument("--method", required=True, choices=list(METHODS))
    p_explain.set_defaults(func=cmd_explain)

    p_bench = sub.add_parser("benchmark", help="run methods over a whole dataset")
    add_common_run_flags(p_bench)
    p_bench.add_argument(
        "--methods", default=",".join(METHODS), help="comma-separated method names"
    )
    p_bench.add_argument("--workers", type=int, default=None, help="pool size (default: CPUs)")
    p_bench.set_defaults(func=cmd_benchmark)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--nodes", type=int, required=True)
    p_synth.add_argument("--num-graphs", type=int, default=100)
    spec = _defaults(SyntheticSpec)
    p_synth.add_argument(
        "--subgroups", type=int, choices=SUBGROUPS_PER_CLASS, default=spec["subgroups_per_class"]
    )
    p_synth.add_argument("--subgroup-size", type=int, default=spec["subgroup_size"])
    p_synth.add_argument("--cliques", type=int, default=spec["cliques_per_graph"])
    p_synth.add_argument("--attach-m", type=int, default=spec["attachment"])
    p_synth.add_argument("--extra-p", type=int, default=spec["extra_edges"])
    p_synth.add_argument("--cross-q", type=float, default=spec["cross_probability"])
    p_synth.add_argument("--seed", type=int, default=spec["seed"])
    p_synth.add_argument("--out-dir", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_ingest = sub.add_parser("ingest", help="threshold correlation CSVs into a dataset")
    p_ingest.add_argument("--listing", required=True, help="file,label[,name] CSV")
    p_ingest.add_argument("--percentile", type=float, default=90.0)
    p_ingest.add_argument("--partition", help="node_id,region_name CSV")
    p_ingest.add_argument("--out-dir", required=True)
    p_ingest.set_defaults(func=cmd_ingest)

    p_report = sub.add_parser("report", help="recompute aggregates from a records CSV")
    p_report.add_argument("--records", required=True)
    p_report.add_argument("--out-dir", required=True)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        with recording_reads() as inputs:
            args.func(args)
        _write_manifest(args, inputs)
    except (DatasetFormatError, OSError) as exc:
        print(f"densecf: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigurationError as exc:
        print(f"densecf: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # a defect in densecf, not the input's fault
        logger.exception("internal error")
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
