"""Run-level metrics, distribution summaries, and per-region change reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import DatasetFormatError, RegionPartition, read_csv_rows, read_digits, write_csv_rows
from .graph import EditList, Graph

REGION_CSV_COLUMNS = ["region", "added_pct", "removed_pct"]

REPORT_SCHEMA_VERSION = 1


class EmptyDistributionError(ValueError):
    """No values to summarize."""


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
    """Order statistics with linear interpolation between closest ranks; values
    a float cannot hold or interpolate between are a DatasetFormatError."""
    if len(values) == 0:
        raise EmptyDistributionError("cannot summarize an empty distribution")
    try:
        data = np.asarray(values, dtype=float)
    except OverflowError as exc:  # an int beyond a float's range
        raise DatasetFormatError(f"values too large to summarize ({exc})") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.percentile(data, [0, 25, 50, 75, 100])
    if not np.isfinite(q).all():  # interpolating between neighbours overflowed
        raise DatasetFormatError("values too far apart to take their quartiles")
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

    def __post_init__(self) -> None:
        if self.true_label not in (0, 1) or self.predicted_label not in (0, 1):
            raise ValueError("labels must be 0 or 1")
        if min(self.instance, self.iterations, self.oracle_calls, self.distance) < 0:
            raise ValueError("instance, iterations, oracle_calls and distance must be non-negative")
        if self.distance_ratio is not None and not np.isfinite(self.distance_ratio):
            raise ValueError(f"distance_ratio must be finite, got {self.distance_ratio}")
        if self.found and (self.distance_ratio is None or self.distance <= 0):
            raise ValueError("a found record needs a distance_ratio and a positive distance")
        if not self.found and (self.distance_ratio is not None or self.distance != 0):
            raise ValueError("a record not found needs distance 0 and no distance_ratio")


# records.csv: one row per InstanceRecord after its method and dataset, each
# field's cell in the text form of its type, as (write, read) functions.
_CELL_TEXT = {
    "int": (str, read_digits),
    "str": (str, str),
    "bool": (lambda b: "true" if b else "false", {"true": True, "false": False}.__getitem__),
    "float | None": (lambda x: "" if x is None else repr(x), lambda s: float(s) if s else None),
}
_RECORD_CELLS = {f.name: _CELL_TEXT[f.type] for f in fields(InstanceRecord)}
RECORDS_CSV_COLUMNS = ["method", "dataset", *_RECORD_CELLS]


@dataclass(frozen=True)
class MethodRunSummary:
    """All per-instance records of one method over one dataset."""

    method: str
    dataset: str
    records: tuple[InstanceRecord, ...]

    def __post_init__(self) -> None:
        # a run is reported under its method; a blank dataset is a manifest at
        # the root of the file system
        if not self.method:
            raise ValueError("a run needs a method name")

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
    columns = _RECORD_CELLS.items()
    rows = (
        [s.method, s.dataset, *(write(getattr(r, name)) for name, (write, _) in columns)]
        for s in summaries
        for r in s.records
    )
    write_csv_rows(path, RECORDS_CSV_COLUMNS, rows)


def read_records_csv(path: Path | str) -> list[MethodRunSummary]:
    """The runs of a records file, in first-appearance order; any row with a
    blank method, or that does not read back as an InstanceRecord, or repeats
    an instance of its method and dataset, is a DatasetFormatError. A blank
    dataset reads back: a dataset whose manifest sits at the root of the
    file system has no name."""
    groups: dict[tuple[str, str], list[InstanceRecord]] = {}
    first_line: dict[tuple[str, str, int], int] = {}
    rows = read_csv_rows(path)
    lineno, header = next(rows, (1, []))
    missing = [c for c in RECORDS_CSV_COLUMNS if c not in header]
    if missing:
        raise DatasetFormatError(f"{path}:{lineno}: records file missing columns {missing}")
    for lineno, row in rows:
        if len(row) != len(header):
            raise DatasetFormatError(f"{path}:{lineno}: {len(row)} fields, expected {len(header)}")
        cell = dict(zip(header, row))
        if not cell["method"]:
            raise DatasetFormatError(f"{path}:{lineno}: blank method")
        try:
            record = InstanceRecord(**{n: read(cell[n]) for n, (_, read) in _RECORD_CELLS.items()})
        except (KeyError, ValueError) as exc:
            raise DatasetFormatError(f"{path}:{lineno}: malformed record ({exc!r})") from exc
        run = (cell["method"], cell["dataset"])
        first = first_line.setdefault((*run, record.instance), lineno)
        if first != lineno:
            raise DatasetFormatError(
                f"{path}:{lineno}: instance {record.instance} of method {run[0]!r} on dataset "
                f"{run[1]!r} repeats line {first}"
            )
        groups.setdefault(run, []).append(record)
    return [MethodRunSummary(m, d, tuple(records)) for (m, d), records in groups.items()]


def write_region_csv(summary: RegionChangeSummary, path: Path | str) -> None:
    rows = ([row.region, repr(row.added_pct), repr(row.removed_pct)] for row in summary.rows)
    write_csv_rows(path, REGION_CSV_COLUMNS, rows)


def build_aggregate_report(summaries: Iterable[MethodRunSummary]) -> dict:
    """Aggregate metrics recomputable from the per-instance records.

    Distance-ratio quartiles cover found instances only; the found counts are
    reported alongside so the omission is visible. The report keys its entries
    by method, so a method run on two datasets is a DatasetFormatError.
    """
    per_method: dict[str, dict] = {}
    dataset_of: dict[str, str] = {}
    for summary in summaries:
        first = dataset_of.setdefault(summary.method, summary.dataset)
        if summary.method in per_method:
            raise DatasetFormatError(
                f"method {summary.method!r} has records on datasets {first!r} and "
                f"{summary.dataset!r}; aggregate one dataset at a time"
            )
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
        "datasets": sorted(set(dataset_of.values())),
        "settings": {
            "distance_ratio_excludes_not_found": True,
            "calls_include_backward_search": True,
            "percentile_interpolation": "linear",
        },
        "per_method": per_method,
    }
