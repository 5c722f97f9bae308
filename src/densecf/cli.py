"""Command-line entry point.

Subcommands: train, explain, benchmark, synth, ingest, report. Every run
writes a run_manifest.json with the resolved configuration and input hashes;
all other outputs are byte-stable for identical invocations.

Exit codes: 0 success (a not-found counterfactual is still a success),
1 usage or configuration error, 2 data error, 3 internal error.
Set DENSECF_LOG to control logging verbosity.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .data import (
    DatasetFormatError,
    GraphDataset,
    PartitionError,
    SyntheticSpec,
    generate_synthetic,
    ingest_correlation_listing,
    load_dataset,
    load_partition,
    save_dataset,
)
from .density import RANKING_STRATEGIES, ConfigurationError
from .evaluation import (
    RegionPartition,
    build_aggregate_report,
    read_records_csv,
    region_change_summary,
    write_records_csv,
    write_region_csv,
)
from .runner import METHODS, OracleSpec, RunOptions, derive_seed, run_benchmark, run_method
from .spectral import DegenerateLabelsError, load_model, save_model, train_sf_knn

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


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: Path, args, inputs: list[Path | None], **resolved) -> None:
    """Record the parsed arguments, with ``resolved`` overriding defaults the
    command worked out, plus input hashes."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    manifest = {
        "command": args.command,
        "config": {**config, **resolved},
        "toolkit_version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(manifest, out_dir / "run_manifest.json")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset_name(path: str) -> str:
    p = Path(path)
    return p.parent.name if p.name == "manifest.json" else p.stem


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _load_dataset_and_partition(args) -> tuple[GraphDataset, "RegionPartition | None"]:
    dataset = load_dataset(args.dataset)
    partition = dataset.partition
    if getattr(args, "partition", None):
        partition = load_partition(args.partition, dataset.node_ids)
    return dataset, partition


def _oracle_spec(args, dataset: GraphDataset) -> OracleSpec:
    if args.whitebox:
        return OracleSpec(kind="whitebox", node_count=dataset.node_count)
    if not args.model:
        raise ConfigurationError("provide --model PATH or --whitebox")
    return OracleSpec(kind="model", model=load_model(args.model))


def _run_options(args) -> RunOptions:
    return RunOptions(
        max_iterations=args.max_iters,
        ranking=args.ranking,
        seed=args.seed,
    )


# --- subcommands ----------------------------------------------------------


def cmd_train(args) -> int:
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
    _write_json(asdict(report), out / "train_report.json")
    _write_manifest(out, args, [Path(args.dataset)])
    print(
        f"trained sf-knn: accuracy={report.accuracy:.3f} f1={report.f1:.3f} "
        f"n_neighbors={report.n_neighbors} n_eigs={report.n_eigs}"
    )
    return EXIT_OK


def _select_instance(dataset: GraphDataset, selector: str) -> int:
    try:
        index = int(selector)
    except ValueError:
        names = [e.name for e in dataset.entries]
        if selector not in names:
            raise ConfigurationError(f"no instance named {selector!r} in dataset")
        return names.index(selector)
    if not 0 <= index < len(dataset):
        raise ConfigurationError(f"instance index {index} out of range 0..{len(dataset) - 1}")
    return index


def cmd_explain(args) -> int:
    dataset, partition = _load_dataset_and_partition(args)
    spec = _oracle_spec(args, dataset)
    oracle = spec.build()
    index = _select_instance(dataset, args.instance)
    entry = dataset.entries[index]
    options = replace(_run_options(args), seed=derive_seed(args.seed, index))
    result = run_method(
        args.method, oracle, entry.graph, dataset=dataset, partition=partition, options=options
    )

    out = _out_dir(args)
    ids = dataset.node_ids
    payload = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "method": args.method,
        "dataset": _dataset_name(args.dataset),
        "instance": index,
        "name": entry.name,
        "true_label": entry.label,
        "predicted_class": result.input_class,
        "found": result.found,
        "iterations": result.iterations,
        "oracle_calls": result.oracle_calls,
        "distance": result.distance,
        "distance_ratio": result.distance_ratio,
        "removals": [[ids[u], ids[v]] for u, v in result.edits.removals],
        "additions": [[ids[u], ids[v]] for u, v in result.edits.additions],
        "note": result.note,
    }
    if args.format in ("both", "json"):
        _write_json(payload, out / "result.json")
    if args.format in ("both", "csv"):
        with open(out / "edits.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(EDITS_CSV_COLUMNS)
            for u, v in result.edits.removals:
                writer.writerow(["remove", ids[u], ids[v]])
            for u, v in result.edits.additions:
                writer.writerow(["add", ids[u], ids[v]])
        if partition is not None and result.found:
            write_region_csv(
                region_change_summary(entry.graph, result.counterfactual, partition),
                out / "regions.csv",
            )
    _write_manifest(
        out, args, [Path(args.dataset), Path(args.model) if args.model else None]
    )
    status = "found" if result.found else "not found"
    print(
        f"{args.method} on instance {index} ({entry.name}): {status}, "
        f"d={result.distance}, calls={result.oracle_calls}, iterations={result.iterations}"
    )
    return EXIT_OK


def cmd_benchmark(args) -> int:
    dataset, partition = _load_dataset_and_partition(args)
    spec = _oracle_spec(args, dataset)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigurationError("no methods given")
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
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
        _write_json(build_aggregate_report(summaries), out / "aggregates.json")
    _write_manifest(
        out,
        args,
        [Path(args.dataset), Path(args.model) if args.model else None],
        workers=workers,
    )
    for summary in summaries:
        found = sum(1 for r in summary.records if r.found)
        print(f"{summary.method}: {found}/{len(summary.records)} found")
    return EXIT_OK


def cmd_synth(args) -> int:
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
    _write_manifest(out, args, [])
    print(f"wrote {len(dataset)} graphs on {dataset.node_count} nodes to {manifest_path}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    dataset = ingest_correlation_listing(
        args.listing, percentile=args.percentile, partition_path=args.partition
    )
    out = _out_dir(args)
    manifest_path = save_dataset(dataset, out)
    _write_manifest(out, args, [Path(args.listing)])
    avg_edges = sum(e.graph.edge_count for e in dataset) / len(dataset)
    print(
        f"ingested {len(dataset)} graphs on {dataset.node_count} nodes "
        f"(avg edges {avg_edges:.1f}) to {manifest_path}"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    summaries = read_records_csv(args.records)
    out = _out_dir(args)
    _write_json(build_aggregate_report(summaries), out / "aggregates.json")
    _write_manifest(out, args, [Path(args.records)])
    print(f"aggregated {sum(len(s) for s in summaries)} records from {len(summaries)} runs")
    return EXIT_OK


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="densecf",
        description="Density-based counterfactual explanations for binary graph classifiers.",
    )
    parser.add_argument("--version", action="version", version=f"densecf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_run_flags(p) -> None:
        p.add_argument("--dataset", required=True, help="dataset manifest path")
        p.add_argument("--model", help="trained model JSON")
        p.add_argument(
            "--whitebox",
            action="store_true",
            help="use the half-vs-half triangle rule instead of a trained model",
        )
        p.add_argument("--max-iters", type=int, default=None, help="iteration cap override")
        p.add_argument(
            "--ranking",
            choices=RANKING_STRATEGIES,
            default="triangles",
            help="node ranking for the cli method (rcli ranks by region)",
        )
        p.add_argument("--partition", help="node_id,region_name CSV overriding the dataset's")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--format", choices=["both", "json", "csv"], default="both")

    p_train = sub.add_parser("train", help="train the spectral KNN classifier")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--folds", type=int, default=5)
    p_train.add_argument("--neighbors", type=_int_list, default=[1, 3, 5, 7])
    p_train.add_argument("--eigs", type=_int_list, default=[5, 10, 15, 20])
    p_train.add_argument("--metric", choices=["euclidean", "manhattan"], default="euclidean")
    p_train.add_argument("--seed", type=int, default=0)
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
    p_synth.add_argument("--subgroups", type=int, choices=[1, 2], default=1)
    p_synth.add_argument("--subgroup-size", type=int, default=None)
    p_synth.add_argument("--cliques", type=int, default=None)
    p_synth.add_argument("--attach-m", type=int, default=None)
    p_synth.add_argument("--extra-p", type=int, default=5)
    p_synth.add_argument("--cross-q", type=float, default=0.7)
    p_synth.add_argument("--seed", type=int, default=0)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetFormatError, PartitionError, DegenerateLabelsError, OSError) as exc:
        print(f"densecf: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # ConfigurationError, CoverageError, ...
        print(f"densecf: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # pragma: no cover - defensive
        logger.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
