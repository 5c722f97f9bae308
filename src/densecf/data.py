"""Dataset ingestion, the planted-clique synthetic generator, and persistence.

Correlation matrices enter here and come out as graphs; synthetic datasets are
generated with dense subgroups on one half of the node set so that a white-box
triangle-count rule classifies them perfectly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .evaluation import RegionPartition
from .graph import Graph, edges_within, node_mask, triangles_within

DATASET_FORMAT = "densecf-dataset"
DATASET_VERSION = 1


class DatasetFormatError(ValueError):
    """A dataset, matrix, or partition file is malformed."""


class PartitionError(ValueError):
    """Node subsets passed to the white-box rule do not partition the node set."""


@dataclass(frozen=True)
class DatasetEntry:
    graph: Graph
    label: int
    name: str


@dataclass(frozen=True)
class GraphDataset:
    """Labeled graphs over one shared node set, with optional region partition."""

    node_count: int
    node_ids: tuple[str, ...]
    entries: tuple[DatasetEntry, ...]
    partition: RegionPartition | None = None

    def __post_init__(self) -> None:
        if len(self.node_ids) != self.node_count:
            raise ValueError("node_ids length must equal node_count")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("node ids must be unique")
        for entry in self.entries:
            if entry.graph.node_count != self.node_count:
                raise ValueError(f"graph {entry.name!r} has a different node count")
            if entry.label not in (0, 1):
                raise ValueError(f"label of {entry.name!r} must be 0 or 1")
        if self.partition is not None:
            self.partition.check_covers(self.node_count)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DatasetEntry]:
        return iter(self.entries)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(e.label for e in self.entries)


def threshold_correlations(matrix, percentile: float) -> Graph:
    """Build a graph by keeping pairs whose correlation strictly exceeds the
    given percentile of the off-diagonal values."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DatasetFormatError(f"correlation matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DatasetFormatError("correlation matrix must hold only finite values")
    if not np.allclose(m, m.T, atol=1e-9):
        raise DatasetFormatError("correlation matrix must be symmetric (tolerance 1e-9)")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {percentile}")
    n = m.shape[0]
    iu, iv = np.triu_indices(n, k=1)
    values = m[iu, iv]
    if values.size == 0:
        return Graph(n)
    with np.errstate(over="ignore", invalid="ignore"):
        threshold = float(np.percentile(values, percentile))
    if not np.isfinite(threshold):  # interpolating between neighbours overflowed
        raise DatasetFormatError("correlation values too far apart to take their percentile")
    edges = [(int(u), int(v)) for u, v in zip(iu, iv) if m[u, v] > threshold]
    return Graph(n, edges)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the planted-subgroup generator.

    Unset fields resolve to defaults tied to ``subgroups_per_class``:
    subgroup_size |V|/4 and 10 cliques for one subgroup, |V|/8 and 20 cliques
    for two. ``attachment`` defaults to the subgroup size.
    """

    node_count: int
    num_graphs: int
    subgroups_per_class: int = 1
    subgroup_size: int | None = None
    cliques_per_graph: int | None = None
    attachment: int | None = None
    extra_edges: int = 5
    cross_probability: float = 0.7
    seed: int = 0

    def resolved(self) -> "SyntheticSpec":
        if self.subgroups_per_class not in (1, 2):
            raise ValueError("subgroups_per_class must be 1 or 2")
        sg = self.subgroup_size
        if sg is None:
            sg = self.node_count // 4 if self.subgroups_per_class == 1 else self.node_count // 8
        cliques = self.cliques_per_graph
        if cliques is None:
            cliques = 10 if self.subgroups_per_class == 1 else 20
        attach = self.attachment if self.attachment is not None else sg
        spec = dataclasses.replace(
            self, subgroup_size=sg, cliques_per_graph=cliques, attachment=attach
        )
        spec._validate()
        return spec

    def _validate(self) -> None:
        if self.num_graphs <= 0 or self.num_graphs % 2 != 0:
            raise ValueError("num_graphs must be positive and even")
        if self.subgroup_size < 3:
            raise ValueError("subgroup_size must be at least 3 to plant cliques")
        if self.subgroups_per_class * self.subgroup_size > self.node_count // 2:
            raise ValueError("subgroups do not fit in half of the node set")
        if self.attachment < 1:
            raise ValueError("attachment must be positive")
        if self.extra_edges < 0:
            raise ValueError("extra_edges must be non-negative")
        if not 0.0 <= self.cross_probability <= 1.0:
            raise ValueError("cross_probability must lie in [0, 1]")


def node_halves(node_count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two node-set halves the generator and white-box rule agree on."""
    half = node_count // 2
    return tuple(range(half)), tuple(range(half, node_count))


def generate_synthetic(spec: SyntheticSpec) -> GraphDataset:
    """Generate a balanced dataset with dense subgroups on the class's half.

    Per graph: subgroups are sampled inside the class half, random cliques are
    planted within each subgroup, and a preferential-attachment background is
    grown over the opposite half with ``extra_edges`` uniform edges per step;
    each background edge is redirected across the half boundary with
    probability ``cross_probability``. Each graph draws from its own RNG
    stream (seed, index), so generation order cannot change the output.
    """
    spec = spec.resolved()
    s0, s1 = node_halves(spec.node_count)
    entries = []
    for idx in range(spec.num_graphs):
        label = 0 if idx < spec.num_graphs // 2 else 1
        rng = np.random.default_rng([spec.seed, idx])
        graph = _generate_one(spec, label, s0, s1, rng)
        entries.append(DatasetEntry(graph=graph, label=label, name=f"synth-{idx:03d}"))
    node_ids = tuple(str(i) for i in range(spec.node_count))
    return GraphDataset(spec.node_count, node_ids, tuple(entries))


def _generate_one(
    spec: SyntheticSpec,
    label: int,
    s0: tuple[int, ...],
    s1: tuple[int, ...],
    rng: np.random.Generator,
) -> Graph:
    own = list(s0 if label == 0 else s1)
    other = list(s1 if label == 0 else s0)
    edges: set[tuple[int, int]] = set()
    degree = [0] * spec.node_count

    def add(u: int, v: int) -> None:
        if u == v:
            return
        edge = (u, v) if u < v else (v, u)
        if edge not in edges:
            edges.add(edge)
            degree[u] += 1
            degree[v] += 1

    # dense subgroups: sample them fresh for every graph
    pool = [int(x) for x in rng.permutation(own)]
    subgroups = [
        pool[i * spec.subgroup_size : (i + 1) * spec.subgroup_size]
        for i in range(spec.subgroups_per_class)
    ]
    for _ in range(spec.cliques_per_graph):
        group = subgroups[int(rng.integers(len(subgroups)))]
        size = int(rng.integers(3, spec.subgroup_size + 1))
        members = [int(x) for x in rng.choice(group, size=size, replace=False)]
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                add(u, v)

    # preferential-attachment background over the opposite half; the seed
    # nodes start unconnected, as in the usual growth formulation
    own_arr = np.asarray(own)
    seed_count = min(spec.attachment, len(other))
    active: list[int] = list(other[:seed_count])
    for w in other[seed_count:]:
        weights = np.asarray([degree[a] + 1 for a in active], dtype=float)
        k = min(spec.attachment, len(active))
        targets = rng.choice(active, size=k, replace=False, p=weights / weights.sum())
        for t in targets:
            v = int(t)
            if rng.random() < spec.cross_probability:
                v = int(rng.choice(own_arr))
            add(w, v)
        candidates = active + [w]
        for _ in range(spec.extra_edges):
            if len(candidates) < 2:
                break
            u = int(rng.choice(candidates))
            v = int(rng.choice(candidates))
            if rng.random() < spec.cross_probability:
                v = int(rng.choice(own_arr))
            add(u, v)
        active.append(w)
    return Graph(spec.node_count, edges)


def whitebox_classify(g: Graph, s0: Sequence[int] | int, s1: Sequence[int] | int) -> int:
    """Label a graph by which node-set half holds more triangles.

    Each half is a sequence of node indices or its ``node_mask``. Ties fall
    back to induced edge counts, then to class 0.
    """
    m0, m1 = node_mask(s0), node_mask(s1)
    if m0 & m1:
        raise PartitionError("node subsets overlap")
    if m0 | m1 != (1 << g.node_count) - 1:
        raise PartitionError("node subsets must cover all nodes")
    t0, t1 = triangles_within(g, m0), triangles_within(g, m1)
    if t0 != t1:
        return 0 if t0 > t1 else 1
    e0, e1 = edges_within(g, m0), edges_within(g, m1)
    if e0 != e1:
        return 0 if e0 > e1 else 1
    return 0


def make_whitebox(s0: Sequence[int], s1: Sequence[int]) -> Callable[[Graph], int]:
    m0, m1 = node_mask(s0), node_mask(s1)
    return lambda g: whitebox_classify(g, m0, m1)


# --- persistence ---------------------------------------------------------


def save_dataset(dataset: GraphDataset, directory: Path | str) -> Path:
    """Write a dataset as a manifest plus one edge-list file per graph.

    Returns the manifest path. Output is byte-stable for equal datasets.
    """
    for node_id in dataset.node_ids:
        _check_node_id(node_id)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    graph_entries = []
    for idx, entry in enumerate(dataset.entries):
        filename = f"graph-{idx:04d}.edges"
        lines = [
            f"{dataset.node_ids[u]} {dataset.node_ids[v]}\n"
            for u, v in sorted(entry.graph.edges)
        ]
        (directory / filename).write_text("".join(lines), encoding="utf-8")
        graph_entries.append({"file": filename, "label": entry.label, "name": entry.name})
    partition_file = None
    if dataset.partition is not None:
        partition_file = "partition.csv"
        with open(directory / partition_file, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node_id", "region_name"])
            for v, node_id in enumerate(dataset.node_ids):
                writer.writerow([node_id, dataset.partition.labels[v]])
    manifest = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "node_ids": list(dataset.node_ids),
        "graphs": graph_entries,
        "partition": partition_file,
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def _check_node_id(node_id: str) -> None:
    """Reject an id that an edge-list line cannot carry: one that is empty,
    starts a comment, splits on whitespace, or has no UTF-8 encoding."""
    if not node_id or node_id.startswith("#") or any(ch.isspace() for ch in node_id):
        raise DatasetFormatError(f"node id {node_id!r} cannot be written to an edge list")
    try:
        node_id.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DatasetFormatError(f"node id {node_id!r} is not UTF-8 encodable") from exc


def load_dataset(path: Path | str) -> GraphDataset:
    """Load a dataset from its manifest file (or a directory containing one)."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    manifest = read_versioned_json(path, DATASET_FORMAT, DATASET_VERSION)
    node_ids = manifest.get("node_ids")
    if not isinstance(node_ids, list):
        raise DatasetFormatError(f"{path}: 'node_ids' must be a list")
    node_ids = [str(x) for x in node_ids]
    index_of = {node_id: i for i, node_id in enumerate(node_ids)}
    if len(index_of) != len(node_ids):
        raise DatasetFormatError(f"{path}: duplicate node ids")
    graphs = manifest.get("graphs", [])
    if not isinstance(graphs, list):
        raise DatasetFormatError(f"{path}: 'graphs' must be a list")
    base = path.parent
    entries = []
    for position, gspec in enumerate(graphs):
        if not isinstance(gspec, dict) or not isinstance(gspec.get("file"), str):
            raise DatasetFormatError(
                f"{path}: graph entry {position} must be an object with a 'file' name"
            )
        entries.append(
            DatasetEntry(
                graph=_load_edge_list(base / gspec["file"], index_of, len(node_ids)),
                label=_parse_label(gspec, path),
                name=str(gspec.get("name", gspec["file"])),
            )
        )
    partition_file = manifest.get("partition")
    if partition_file is not None and not isinstance(partition_file, str):
        raise DatasetFormatError(f"{path}: 'partition' must be a file name or null")
    partition = None
    if partition_file:
        partition = load_partition(base / partition_file, node_ids)
    return GraphDataset(len(node_ids), tuple(node_ids), tuple(entries), partition)


def read_versioned_json(path: Path | str, fmt: str, version: int) -> dict:
    """The JSON object in ``path``, checked to carry the given ``format`` and
    ``version`` keys. Any failure, reading included, is a DatasetFormatError."""
    path = Path(path)
    with _open_named(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise DatasetFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DatasetFormatError(f"{path}: must be a JSON object")
    if payload.get("format") != fmt:
        raise DatasetFormatError(f"{path}: not a {fmt} file")
    if payload.get("version") != version:
        raise DatasetFormatError(f"{path}: unsupported version {payload.get('version')!r}")
    return payload


def _parse_label(gspec: dict, manifest_path: Path) -> int:
    label = gspec.get("label")
    if label not in (0, 1):
        raise DatasetFormatError(
            f"{manifest_path}: graph {gspec.get('file')!r} has label {label!r}, expected 0 or 1"
        )
    return int(label)


@contextmanager
def _open_named(path: Path) -> Iterator[TextIO]:
    """Open a file that a manifest or flag names, for reading as UTF-8 text.

    A name that cannot be opened (missing, a directory, a NUL byte) and a
    file that is not UTF-8 are data errors, not internal ones.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _load_edge_list(path: Path, index_of: dict[str, int], node_count: int) -> Graph:
    edges = []
    with _open_named(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DatasetFormatError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = index_of[parts[0]], index_of[parts[1]]
            except KeyError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: unknown node id {exc.args[0]!r}")
            edges.append((u, v))
    try:
        return Graph(node_count, edges)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def load_partition(path: Path | str, node_ids: Sequence[str]) -> RegionPartition:
    """Read a node_id,region_name CSV into a partition over the given ids."""
    path = Path(path)
    index_of = {node_id: i for i, node_id in enumerate(node_ids)}
    labels: list[str | None] = [None] * len(node_ids)
    with _open_named(path) as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1 and row[:2] == ["node_id", "region_name"]:
                continue
            if len(row) < 2:
                raise DatasetFormatError(f"{path}:{lineno}: expected node_id,region_name")
            node_id, region = row[0].strip(), row[1].strip()
            if node_id not in index_of:
                raise DatasetFormatError(f"{path}:{lineno}: unknown node id {node_id!r}")
            labels[index_of[node_id]] = region
    missing = [node_ids[i] for i, label in enumerate(labels) if label is None]
    if missing:
        raise DatasetFormatError(f"{path}: no region for nodes {missing[:5]}")
    return RegionPartition(tuple(labels))  # type: ignore[arg-type]


def load_correlation_matrix(path: Path | str) -> np.ndarray:
    """Read an n x n numeric CSV."""
    path = Path(path)
    rows = []
    with _open_named(path) as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: non-numeric value ({exc})")
    if not rows:
        raise DatasetFormatError(f"{path}: empty matrix file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DatasetFormatError(f"{path}: ragged rows")
    return np.asarray(rows)


def ingest_correlation_listing(
    listing_path: Path | str,
    percentile: float,
    partition_path: Path | str | None = None,
) -> GraphDataset:
    """Build a dataset from a CSV listing of correlation-matrix files.

    The listing has a header ``file,label[,name]``; matrix paths are resolved
    relative to the listing. All matrices must agree on their size.
    """
    listing_path = Path(listing_path)
    base = listing_path.parent
    entries_raw = []
    with _open_named(listing_path) as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        if "file" not in fields or "label" not in fields:
            raise DatasetFormatError(f"{listing_path}: header must include file,label")
        for row in reader:
            lineno = reader.line_num
            try:
                label = int(row["label"])
            except (TypeError, ValueError):
                label = None
            if label not in (0, 1):
                raise DatasetFormatError(
                    f"{listing_path}:{lineno}: label {row['label']!r}, expected 0 or 1"
                )
            if not row["file"]:
                raise DatasetFormatError(f"{listing_path}:{lineno}: no file named")
            entries_raw.append((row["file"], label, row.get("name") or row["file"]))
    if not entries_raw:
        raise DatasetFormatError(f"{listing_path}: no graphs listed")
    node_count = None
    entries = []
    for filename, label, name in entries_raw:
        matrix = load_correlation_matrix(base / filename)
        if node_count is None:
            node_count = matrix.shape[0]
        elif matrix.shape[0] != node_count:
            raise DatasetFormatError(
                f"{filename}: matrix size {matrix.shape[0]} differs from {node_count}"
            )
        entries.append(DatasetEntry(threshold_correlations(matrix, percentile), label, name))
    node_ids = tuple(str(i) for i in range(node_count))
    partition = load_partition(partition_path, node_ids) if partition_path else None
    return GraphDataset(node_count, node_ids, tuple(entries), partition)
