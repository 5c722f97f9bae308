"""Run-level metrics, distribution summaries, and per-region change reports."""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .graph import EditList, Graph

RECORDS_CSV_COLUMNS = [
    "method",
    "dataset",
    "instance",
    "name",
    "true_label",
    "predicted_label",
    "found",
    "iterations",
    "oracle_calls",
    "distance",
    "distance_ratio",
]

REGION_CSV_COLUMNS = ["region", "added_pct", "removed_pct"]

REPORT_SCHEMA_VERSION = 1


class CoverageError(ValueError):
    """A region partition does not cover the full node set."""


class EmptyDistributionError(ValueError):
    """No values to summarize."""


@dataclass(frozen=True)
class RegionPartition:
    """Assignment of every node to a named region (e.g. a brain lobe)."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("partition needs at least one node")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.labels)))

    def nodes_in(self, name: str) -> tuple[int, ...]:
        return tuple(v for v, label in enumerate(self.labels) if label == name)

    def check_covers(self, node_count: int) -> None:
        if len(self.labels) != node_count:
            raise CoverageError(
                f"partition labels {len(self.labels)} nodes, graph has {node_count}"
            )


@dataclass(frozen=True)
class QuartileSummary:
    """Five-number summary: min, quartiles, max."""

    q0: float
    q1: float
    q2: float
    q3: float
    q4: float

    def __post_init__(self) -> None:
        values = self.as_tuple()
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError(f"quartiles must be non-decreasing, got {values}")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.q0, self.q1, self.q2, self.q3, self.q4)


def summarize_distribution(values: Sequence[float]) -> QuartileSummary:
    """Order statistics with linear interpolation between closest ranks."""
    if len(values) == 0:
        raise EmptyDistributionError("cannot summarize an empty distribution")
    q = np.percentile(np.asarray(values, dtype=float), [0, 25, 50, 75, 100])
    return QuartileSummary(*(float(x) for x in q))


@dataclass(frozen=True)
class InstanceRecord:
    """Outcome of one counterfactual search on one dataset graph."""

    instance: int
    name: str
    true_label: int
    predicted_label: int
    found: bool
    iterations: int
    oracle_calls: int
    distance: int
    distance_ratio: float | None


@dataclass(frozen=True)
class MethodRunSummary:
    """All per-instance records of one method over one dataset."""

    method: str
    dataset: str
    records: tuple[InstanceRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


def flip_rate(summary: MethodRunSummary) -> tuple[float | None, float | None]:
    """Percentage of found counterfactuals per predicted input class.

    A class with no attempted instances is reported as None.
    """
    if not summary.records:
        raise ValueError("summary has no records")
    rates: list[float | None] = []
    for cls in (0, 1):
        group = [r for r in summary.records if r.predicted_label == cls]
        if not group:
            rates.append(None)
        else:
            rates.append(100.0 * sum(1 for r in group if r.found) / len(group))
    return (rates[0], rates[1])


@dataclass(frozen=True)
class RegionRow:
    region: str
    added_pct: float
    removed_pct: float


@dataclass(frozen=True)
class RegionChangeSummary:
    """Where added and removed edges land, as endpoint percentages per region."""

    rows: tuple[RegionRow, ...]
    added_total: int
    removed_total: int


def region_change_summary(
    g: Graph, counterfactual: Graph, partition: RegionPartition
) -> RegionChangeSummary:
    """Distribute edge changes over regions by counting edge endpoints.

    Each changed edge contributes its two endpoints, so each percentage column
    sums to 100 whenever the corresponding edit set is nonempty.
    """
    partition.check_covers(g.node_count)
    edits = EditList.between(g, counterfactual)

    def shares(edges: tuple) -> dict[str, float]:
        counts = {name: 0 for name in partition.names}
        for u, v in edges:
            counts[partition.labels[u]] += 1
            counts[partition.labels[v]] += 1
        denom = 2 * len(edges)
        if denom == 0:
            return {name: 0.0 for name in partition.names}
        return {name: 100.0 * c / denom for name, c in counts.items()}

    added = shares(edits.additions)
    removed = shares(edits.removals)
    rows = tuple(RegionRow(name, added[name], removed[name]) for name in partition.names)
    return RegionChangeSummary(
        rows=rows, added_total=len(edits.additions), removed_total=len(edits.removals)
    )


def write_records_csv(summaries: Iterable[MethodRunSummary], path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORDS_CSV_COLUMNS)
        for summary in summaries:
            for r in summary.records:
                writer.writerow(
                    [
                        summary.method,
                        summary.dataset,
                        r.instance,
                        r.name,
                        r.true_label,
                        r.predicted_label,
                        "true" if r.found else "false",
                        r.iterations,
                        r.oracle_calls,
                        r.distance,
                        "" if r.distance_ratio is None else repr(r.distance_ratio),
                    ]
                )


def read_records_csv(path: Path | str) -> list[MethodRunSummary]:
    groups: dict[tuple[str, str], list[InstanceRecord]] = {}
    order: list[tuple[str, str]] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RECORDS_CSV_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"records file missing columns: {missing}")
        for row in reader:
            key = (row["method"], row["dataset"])
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(
                InstanceRecord(
                    instance=int(row["instance"]),
                    name=row["name"],
                    true_label=int(row["true_label"]),
                    predicted_label=int(row["predicted_label"]),
                    found=row["found"] == "true",
                    iterations=int(row["iterations"]),
                    oracle_calls=int(row["oracle_calls"]),
                    distance=int(row["distance"]),
                    distance_ratio=float(row["distance_ratio"]) if row["distance_ratio"] else None,
                )
            )
    return [
        MethodRunSummary(method=m, dataset=d, records=tuple(groups[(m, d)])) for m, d in order
    ]


def write_region_csv(summary: RegionChangeSummary, path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REGION_CSV_COLUMNS)
        for row in summary.rows:
            writer.writerow([row.region, repr(row.added_pct), repr(row.removed_pct)])


def build_aggregate_report(summaries: Iterable[MethodRunSummary]) -> dict:
    """Aggregate metrics recomputable from the per-instance records.

    Distance-ratio quartiles cover found instances only; the found counts are
    reported alongside so the omission is visible.
    """
    per_method: dict[str, dict] = {}
    datasets = set()
    for summary in summaries:
        datasets.add(summary.dataset)
        fr0, fr1 = flip_rate(summary)
        found = [r for r in summary.records if r.found]
        ratios = [r.distance_ratio for r in found if r.distance_ratio is not None]
        entry = {
            "attempted": len(summary.records),
            "found": len(found),
            "flip_rate": {"class0": fr0, "class1": fr1},
            "distance_ratio": asdict(summarize_distribution(ratios)) if ratios else None,
            "oracle_calls": asdict(
                summarize_distribution([r.oracle_calls for r in summary.records])
            ),
            "iterations": asdict(summarize_distribution([r.iterations for r in summary.records])),
        }
        per_method[summary.method] = entry
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "datasets": sorted(datasets),
        "settings": {
            "distance_ratio_excludes_not_found": True,
            "calls_include_backward_search": True,
            "percentile_interpolation": "linear",
        },
        "per_method": per_method,
    }
