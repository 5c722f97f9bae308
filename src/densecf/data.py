"""Dataset ingestion, the planted-clique synthetic generator, and persistence.

Correlation matrices enter here and come out as graphs; synthetic datasets are
generated with dense subgroups on one half of the node set so that a white-box
triangle-count rule classifies them perfectly. Below every other module but
``graph``, it also reads every file the package reads, and writes its files.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .graph import Graph, edges_within, node_mask, triangles_within, walk_within, within_deltas

DATASET_FORMAT = "densecf-dataset"
DATASET_VERSION = 1
MANIFEST_FILE = "manifest.json"  # in a dataset directory; it names the other files
PARTITION_HEADER = ("node_id", "region_name")  # save_dataset writes it, load_partition skips it

SUBGROUPS_PER_CLASS = (1, 2)  # the generator plants one or two dense subgroups per class


class DatasetFormatError(ValueError):
    """A dataset, matrix, partition, records or model file is malformed (CLI exit 2)."""


class ConfigurationError(ValueError):
    """An invalid setting: a flag, a spec field, a search option (CLI exit 1)."""


class PartitionError(ValueError):
    """Node subsets passed to the white-box rule do not partition the node set."""


class CoverageError(ValueError):
    """A region partition does not cover the full node set."""


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

    def check_covers(self, node_count: int) -> None:
        if len(self.labels) != node_count:
            raise CoverageError(
                f"partition labels {len(self.labels)} nodes, graph has {node_count}"
            )


@dataclass(frozen=True)
class DatasetEntry:
    graph: Graph
    label: int
    name: str


@dataclass(frozen=True)
class GraphDataset:
    """Labeled graphs over one shared node set, with optional region partition."""

    node_ids: tuple[str, ...]
    entries: tuple[DatasetEntry, ...]
    partition: RegionPartition | None = None

    def __post_init__(self) -> None:
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("node ids must be unique")
        for entry in self.entries:
            if entry.graph.node_count != self.node_count:
                raise ValueError(f"graph {entry.name!r} has a different node count")
            if entry.label not in (0, 1):
                raise ValueError(f"label of {entry.name!r} must be 0 or 1")
        if self.partition is not None:
            self.partition.check_covers(self.node_count)

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

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
        raise ConfigurationError(f"percentile must lie in [0, 100], got {percentile}")
    n = m.shape[0]
    iu, iv = np.triu_indices(n, k=1)
    values = m[iu, iv]
    if values.size == 0:
        return Graph(n)
    with np.errstate(over="ignore", invalid="ignore"):
        threshold = float(np.percentile(values, percentile))
    if not np.isfinite(threshold):  # interpolating between neighbours overflowed
        raise DatasetFormatError("correlation values too far apart to take their percentile")
    keep = values > threshold
    return Graph(n, zip(iu[keep].tolist(), iv[keep].tolist()))


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
        if not 1 <= self.node_count < 2**32:  # _Draws' spans stay below 2**32
            raise ConfigurationError(f"node_count must lie in 1..{2**32 - 1}")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.subgroups_per_class not in SUBGROUPS_PER_CLASS:
            raise ConfigurationError(f"subgroups_per_class must be one of {SUBGROUPS_PER_CLASS}")
        if self.num_graphs <= 0 or self.num_graphs % 2 != 0:
            raise ConfigurationError("num_graphs must be positive and even")
        one = self.subgroups_per_class == 1
        sg = self.subgroup_size
        if sg is None:
            sg = self.node_count // 4 if one else self.node_count // 8
        if sg < 3:
            raise ConfigurationError("subgroup_size must be at least 3 to plant cliques")
        if self.subgroups_per_class * sg > self.node_count // 2:
            raise ConfigurationError("subgroups do not fit in half of the node set")
        cliques = self.cliques_per_graph
        if cliques is None:
            cliques = 10 if one else 20
        if cliques < 0:
            raise ConfigurationError("cliques_per_graph must be non-negative")
        attach = self.attachment if self.attachment is not None else sg
        if attach < 1:
            raise ConfigurationError("attachment must be positive")
        if self.extra_edges < 0:
            raise ConfigurationError("extra_edges must be non-negative")
        if not 0.0 <= self.cross_probability <= 1.0:
            raise ConfigurationError("cross_probability must lie in [0, 1]")
        return dataclasses.replace(
            self, subgroup_size=sg, cliques_per_graph=cliques, attachment=attach
        )


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
    probability ``cross_probability``. Each graph draws from its own PCG64
    stream, seeded with (seed, index), so generation order cannot change the
    output. ``_Draws`` makes every draw from that stream's raw 64-bit words
    by the rules its docstring states, which are the rules numpy's
    ``Generator`` methods follow. So datasets depend on PCG64's raw words, not
    on numpy's sampling code, and every seed regenerates the datasets it gave
    when the generator called ``Generator.integers``, ``random``,
    ``permutation`` and ``choice``.
    """
    spec = spec.resolved()
    s0, s1 = node_halves(spec.node_count)
    entries = []
    for idx in range(spec.num_graphs):
        label = 0 if idx < spec.num_graphs // 2 else 1
        draws = _Draws(np.random.PCG64([spec.seed, idx]))
        graph = _generate_one(spec, label, s0, s1, draws)
        entries.append(DatasetEntry(graph=graph, label=label, name=f"synth-{idx:03d}"))
    node_ids = tuple(str(i) for i in range(spec.node_count))
    return GraphDataset(node_ids, tuple(entries))


def _generate_one(
    spec: SyntheticSpec,
    label: int,
    s0: tuple[int, ...],
    s1: tuple[int, ...],
    draws: _Draws,
) -> Graph:
    own = list(s0 if label == 0 else s1)
    other = list(s1 if label == 0 else s0)
    # bit v of masks[u] is set when uv is an edge; a node's degree is its bit count
    masks = [0] * spec.node_count

    def add(u: int, v: int) -> None:
        if u != v:
            masks[u] |= 1 << v
            masks[v] |= 1 << u

    # dense subgroups: sample them fresh for every graph
    pool = draws.permutation(own)
    subgroups = [
        pool[i * spec.subgroup_size : (i + 1) * spec.subgroup_size]
        for i in range(spec.subgroups_per_class)
    ]
    for _ in range(spec.cliques_per_graph):
        group = subgroups[draws.integers(0, len(subgroups))]
        members = draws.choice(group, draws.integers(3, spec.subgroup_size + 1))
        clique = node_mask(members)
        for u in members:
            masks[u] |= clique ^ (1 << u)

    # preferential-attachment background over the opposite half; the seed
    # nodes start unconnected, as in the usual growth formulation
    integers, random, cross = draws.integers, draws.random, spec.cross_probability
    seed_count = min(spec.attachment, len(other))
    active: list[int] = list(other[:seed_count])
    for w in other[seed_count:]:
        k = min(spec.attachment, len(active))
        weights = [masks[a].bit_count() + 1 for a in active]
        targets = [active[i] for i in _weighted_picks(draws, weights, k)]
        active.append(w)
        for v in targets:
            if random() < cross:
                v = own[integers(0, len(own))]
            add(w, v)
        for _ in range(spec.extra_edges):
            u = active[integers(0, len(active))]
            v = active[integers(0, len(active))]
            if random() < cross:
                v = own[integers(0, len(own))]
            add(u, v)
    return Graph.from_neighbor_masks(masks)


def _weighted_picks(draws: _Draws, weights: list[int], k: int) -> list[int]:
    """The indices ``Generator.choice(len(weights), size=k, replace=False,
    p=p)`` returns for ``p = weights / sum(weights)`` on the stream of ``draws``.

    This is numpy's without-replacement loop: each round draws one
    ``randoms`` block for the picks still missing, zeroes the picked
    probabilities, maps the block through the normalised running sum with
    ``bisect_right`` and keeps the new indices in order of first occurrence.
    The integer sum is exact, so every quotient equals numpy's bit for bit.
    """
    total = sum(weights)
    p = [w / total for w in weights]
    picked: list[int] = []
    while len(picked) < k:
        block = draws.randoms(k - len(picked))
        for i in picked:
            p[i] = 0.0
        cdf = list(accumulate(p))
        last = cdf[-1]
        cdf = [c / last for c in cdf]
        picked.extend(dict.fromkeys(bisect_right(cdf, x) for x in block))
    return picked


_WORDS_PER_BLOCK = 512
_LOW32 = 0xFFFF_FFFF


class _Draws:
    """The draws of a numpy ``Generator`` on a PCG64 stream, made in plain
    Python from the stream's raw 64-bit words.

    Words are pulled a block at a time with ``random_raw``. A stream serves
    one graph and is then dropped, so the words a block holds past the last
    draw change nothing. Each method consumes words as the numpy 2
    ``Generator`` method it names does, and returns the same value:

    - A 32-bit draw is the low half of a fresh word; the high half is kept
      for the next 32-bit draw. A double is a whole fresh word,
      ``(w >> 11) * 2**-53``, and leaves a kept half for a later 32-bit draw.
    - ``integers(low, high)`` is Lemire's bounded 32-bit draw: for a span
      ``k = high - low`` it rejects while the product's low half is below
      ``(2**32 - k) % k``. A span of 1 draws nothing.
    - ``random()`` is one double; ``randoms(count)`` is ``random(count)``,
      that many doubles.
    - ``permutation(seq)`` is Fisher–Yates from the top; index i's swap
      partner is a 32-bit draw masked to i's bit length, redrawn while above
      i (``random_interval``).
    - ``choice(seq, size)``, without replacement, is Floyd's algorithm with
      Lemire draws, then a Lemire shuffle of the picks (``_shuffle_int``).
      For a population over 10,000 and a size above a fiftieth of it, numpy
      instead shuffles the top ``size`` places of the whole index range and
      takes them; so does this method.

    Spans must be below 2**32, as ``SyntheticSpec.resolved`` keeps node
    counts; numpy draws whole words beyond that, which is not restated here.
    """

    def __init__(self, bits: np.random.PCG64) -> None:
        self._raw = bits.random_raw
        self._words: list[int] = []  # the block's unused words, the next one last
        self._half: int | None = None  # a word's high half, kept for a 32-bit draw

    def _word(self) -> int:
        words = self._words
        if not words:
            words = self._words = self._raw(_WORDS_PER_BLOCK).tolist()
            words.reverse()
        return words.pop()

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & _LOW32
        self._half = None
        return half

    def _below(self, span: int) -> int:
        if span == 1:
            return 0
        m = self._uint32() * span
        if (m & _LOW32) < span:
            threshold = (2**32 - span) % span
            while (m & _LOW32) < threshold:
                m = self._uint32() * span
        return m >> 32

    def integers(self, low: int, high: int) -> int:
        return low + self._below(high - low)

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def randoms(self, count: int) -> list[float]:
        return [self.random() for _ in range(count)]

    def permutation(self, seq: Sequence) -> list:
        out = list(seq)
        for i in range(len(out) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._uint32() & mask
            while j > i:
                j = self._uint32() & mask
            out[i], out[j] = out[j], out[i]
        return out

    def choice(self, seq: Sequence, size: int) -> list:
        n = len(seq)
        if n > 10_000 and size > n // 50:
            picks = list(range(n))
            self._shuffle(picks, max(n - size, 1))
            picks = picks[n - size :]
        else:
            picks, seen = [], set()
            for top in range(n - size, n):
                i = self._below(top + 1)
                i = top if i in seen else i
                seen.add(i)
                picks.append(i)
            self._shuffle(picks, 1)
        return [seq[i] for i in picks]

    def _shuffle(self, items: list, first: int) -> None:
        # swap each of positions len - 1 down to first with a Lemire pick at or below it
        for i in range(len(items) - 1, first - 1, -1):
            j = self._below(i + 1)
            items[i], items[j] = items[j], items[i]


def whitebox_classify(g: Graph, s0: Sequence[int] | int, s1: Sequence[int] | int) -> int:
    """Label a graph by which node-set half holds more triangles.

    Each half is a sequence of node indices or its ``node_mask``. Ties fall
    back to induced edge counts, then to class 0.
    """
    return _class_of(_counts(g, node_mask(s0), node_mask(s1)))


def _counts(g: Graph, m0: int, m1: int) -> tuple[int, int, int, int]:
    # (triangles, edges) within half 0, then within half 1, as one flat tuple;
    # a graph is counted here or from one counted here, so only here are the
    # halves checked against its node count
    if m0 & m1:
        raise PartitionError("node subsets overlap")
    if m0 | m1 != (1 << g.node_count) - 1:
        raise PartitionError("node subsets must cover all nodes")
    t0, t1 = triangles_within(g, m0), triangles_within(g, m1)
    return t0, edges_within(g, m0), t1, edges_within(g, m1)


def _by_counts(against: int) -> Callable[[Sequence[int]], int]:
    """The rule on a graph's counts, (triangles, edges) within half 0 then
    half 1: the half with more triangles wins, then the one with more edges;
    a full tie is class 0. The function returned answers the class xor
    ``against``: the class itself for 0, and for a walk's start class, 1
    exactly when the class differs, so a walk's stop test is one call."""

    def rule(counts: Sequence[int]) -> int:
        t0, e0, t1, e1 = counts
        return int(t1 > t0 or t1 == t0 and e1 > e0) ^ against

    return rule


_class_of = _by_counts(0)


def make_whitebox(s0: Sequence[int], s1: Sequence[int]) -> Callable[[Graph], int]:
    """``whitebox_classify`` over fixed halves, keeping the counts of two
    graphs: the last one classified, and the one whose counts those were
    updated from. A slot's own graph object is answered from its counts, a
    graph edited from a slot's graph has them updated by ``within_deltas``,
    and any other graph is counted afresh. The counts of every graph no edit
    made (``Graph.edited``: a dataset graph) are kept in a table for as long
    as the rule lives, so each is counted once; edited graphs never enter
    it. The rule's ``walk`` answers ``Oracle.walk`` through ``walk_within``
    and leaves the graph that flips, with its counts, in the last slot."""
    m0, m1 = masks = node_mask(s0), node_mask(s1)
    # ((last graph, its counts), (the graph they were updated from, its
    # counts)), ``empty`` where a slot holds none; replaced whole so the rule
    # can be shared
    empty = (None, None)
    slots = (empty, empty)
    table: dict[Graph, tuple[int, int, int, int]] = {}

    def counts_of(g: Graph) -> tuple[int, int, int, int]:
        nonlocal slots
        for slot in slots:
            base, base_counts = slot
            if g is base:
                return base_counts
            deltas = base is not None and g.edited and within_deltas(base, g, masks)
            if deltas:
                (dt0, de0), (dt1, de1) = deltas
                t0, e0, t1, e1 = base_counts
                counts = t0 + dt0, e0 + de0, t1 + dt1, e1 + de1
                slots = ((g, counts), slot)
                return counts
        if g.edited:
            counts = _counts(g, m0, m1)
        else:
            counts = table.get(g)
            if counts is None:  # two threads may both count it; both store the same counts
                counts = table[g] = _counts(g, m0, m1)
        slots = ((g, counts), empty)
        return counts

    def classify(g: Graph) -> int:
        return _class_of(counts_of(g))

    def walk(g: Graph, y0: int, steps: Iterable) -> Graph | None:
        nonlocal slots
        start = counts_of(g)
        counts = list(start)
        reached = walk_within(g, steps, masks, counts, _by_counts(y0))
        if reached is not None:
            slots = ((reached, tuple(counts)), (g, start))
        return reached

    classify.walk = walk
    return classify


# --- persistence ---------------------------------------------------------


def save_dataset(dataset: GraphDataset, directory: Path | str) -> Path:
    """Write a dataset as a manifest plus one edge-list file per graph.

    Returns the manifest path. Output is byte-stable for equal datasets.
    """
    for node_id in dataset.node_ids:
        _check_node_id(node_id)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ids = dataset.node_ids
    graph_entries = []
    for idx, entry in enumerate(dataset.entries):
        filename = f"graph-{idx:04d}.edges"
        text = "".join([f"{ids[u]} {ids[v]}\n" for u, v in entry.graph.sorted_edges()])
        (directory / filename).write_text(text, encoding="utf-8")
        graph_entries.append({"file": filename, "label": entry.label, "name": entry.name})
    partition_file = None
    if dataset.partition is not None:
        partition_file = "partition.csv"
        write_csv_rows(
            directory / partition_file,
            PARTITION_HEADER,
            zip(dataset.node_ids, dataset.partition.labels),
        )
    manifest = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "node_ids": list(dataset.node_ids),
        "graphs": graph_entries,
        "partition": partition_file,
    }
    manifest_path = directory / MANIFEST_FILE
    write_json(manifest, manifest_path)
    return manifest_path


def write_json(payload: dict, path: Path | str) -> None:
    """Write ``payload`` byte-stably: indent 2, sorted keys, trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _check_node_id(node_id: str, where: str = "") -> str:
    """``node_id``, unless an edge-list line cannot carry it: it is empty,
    starts a comment or a byte-order mark (which the reader skips at the
    start of a file), splits on whitespace, or has no UTF-8 encoding. The
    writer and the reader of a dataset both apply it; ``where`` starts the
    message."""
    if not node_id or node_id.startswith(("#", "\ufeff")) or any(ch.isspace() for ch in node_id):
        raise DatasetFormatError(f"{where}node id {node_id!r} cannot be written to an edge list")
    return _check_utf8(node_id, f"{where}node id")


def _check_utf8(text: str, what: str) -> str:
    """``text``, unless UTF-8 cannot encode it (a lone surrogate, as JSON's
    ``"\\ud800"`` loads); no output file could then hold it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DatasetFormatError(f"{what} {text!r} is not UTF-8 encodable") from exc
    return text


def dataset_manifest(path: Path | str) -> Path:
    """The manifest file a dataset path names: itself, or the one in it."""
    path = Path(path)
    return path / MANIFEST_FILE if path.is_dir() else path


def load_dataset(path: Path | str) -> GraphDataset:
    """Load a dataset from its manifest file (or a directory containing one)."""
    path = dataset_manifest(path)
    manifest = read_versioned_json(path, DATASET_FORMAT, DATASET_VERSION)
    node_ids = manifest.get("node_ids")
    if not isinstance(node_ids, list):
        raise DatasetFormatError(f"{path}: 'node_ids' must be a list")
    node_ids = [_check_node_id(str(x), f"{path}: ") for x in node_ids]
    index_of = {node_id: i for i, node_id in enumerate(node_ids)}
    if len(index_of) != len(node_ids):
        raise DatasetFormatError(f"{path}: duplicate node ids")
    bit_of = {node_id: 1 << i for node_id, i in index_of.items()}
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
                graph=_load_edge_list(base / gspec["file"], index_of, bit_of),
                label=_parse_label(gspec, path),
                name=_check_utf8(str(gspec.get("name", gspec["file"])), f"{path}: graph name"),
            )
        )
    partition_file = manifest.get("partition")
    if partition_file is not None and not isinstance(partition_file, str):
        raise DatasetFormatError(f"{path}: 'partition' must be a file name or null")
    partition = None
    if partition_file:
        partition = load_partition(base / partition_file, node_ids)
    return GraphDataset(tuple(node_ids), tuple(entries), partition)


def read_versioned_json(path: Path | str, fmt: str, version: int) -> dict:
    """The JSON object in ``path``, checked to carry the given ``format`` and
    ``version`` keys. Any failure, reading included, is a DatasetFormatError."""
    path = Path(path)
    text = _read_text(path).read()  # outside the try: a read error is no JSON error
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
    if type(label) is not int or label not in (0, 1):  # not true, false or 1.0
        raise DatasetFormatError(
            f"{manifest_path}: graph {gspec.get('file')!r} has label {label!r}, expected 0 or 1"
        )
    return label


_ledger: ContextVar[dict[str, str] | None] = ContextVar("_ledger", default=None)


@contextmanager
def recording_reads() -> Iterator[dict[str, str]]:
    """Within the block, in this thread, the dict this yields maps the path
    of each file the package reads to the sha256 of its bytes."""
    token = _ledger.set({})
    try:
        yield _ledger.get()
    finally:
        _ledger.reset(token)


def _read_text(path: Path) -> io.StringIO:
    """A file that a manifest or flag names, read once and decoded whole as
    UTF-8 text, a leading byte-order mark skipped so every input reads alike
    with one; under ``recording_reads`` the sha256 of its bytes is recorded.
    A name that cannot be read (missing, a directory, a NUL byte) and a file
    that is not UTF-8 are data errors, not internal ones."""
    try:
        raw = path.read_bytes()
    except (OSError, ValueError) as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    ledger = _ledger.get()
    if ledger is not None:
        ledger[str(path)] = hashlib.sha256(raw).hexdigest()
    try:
        return io.StringIO(raw.decode("utf-8-sig"), newline="")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def read_csv_rows(path: Path | str) -> Iterator[tuple[int, list[str]]]:
    """Each nonblank row of a UTF-8 CSV file with the physical line it ends
    on, so that a quoted field spanning lines does not shift later numbers."""
    path = Path(path)
    reader = csv.reader(_read_text(path))
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:
        raise DatasetFormatError(f"{path}:{reader.line_num}: {exc}") from exc


def write_csv_rows(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` then ``rows`` as UTF-8 CSV in the default dialect,
    the mirror of ``read_csv_rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_digits(text: str) -> int:
    """The integer that ``text`` writes in ASCII digits alone, the one form
    the writers emit; ValueError for anything else (a space, a sign, a ``_``
    separator, a non-ASCII digit), which ``int`` would take."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _load_edge_list(path: Path, index_of: dict[str, int], bit_of: dict[str, int]) -> Graph:
    # a good line ORs its pair into two node rows; a blank, a comment or a
    # fault raises out of the split or a lookup and is sorted out only then
    rows = [0] * len(index_of)
    for lineno, line in enumerate(_read_text(path), start=1):
        try:
            a, b = line.split()
            u, v = index_of[a], index_of[b]
        except (ValueError, KeyError) as exc:
            parts = line.split()
            if not parts or parts[0][0] == "#":  # blank or comment: no id starts with "#"
                continue
            where = f"{path}:{lineno}"
            if len(parts) != 2:
                raise DatasetFormatError(f"{where}: expected 'u v', got {line.strip()!r}")
            raise DatasetFormatError(f"{where}: unknown node id {exc.args[0]!r}")
        if u == v:
            raise DatasetFormatError(f"{path}:{lineno}: self-loop at node id {a!r}")
        rows[u] |= bit_of[b]
        rows[v] |= bit_of[a]
    return Graph.from_neighbor_masks(rows)


def load_partition(path: Path | str, node_ids: Sequence[str]) -> RegionPartition:
    """Read a node_id,region_name CSV into a partition over the given ids.
    Any fault, an empty id list included, is a DatasetFormatError naming the file."""
    path = Path(path)
    index_of = {node_id: i for i, node_id in enumerate(node_ids)}
    labels: list[str | None] = [None] * len(node_ids)
    for position, (lineno, row) in enumerate(read_csv_rows(path)):
        if position == 0 and tuple(row) == PARTITION_HEADER:
            continue
        if len(row) != 2:
            raise DatasetFormatError(f"{path}:{lineno}: {len(row)} fields, expected 2")
        node_id, region = row[0].strip(), row[1].strip()
        if not region:
            raise DatasetFormatError(f"{path}:{lineno}: blank region name for node id {node_id!r}")
        if node_id not in index_of:
            raise DatasetFormatError(f"{path}:{lineno}: unknown node id {node_id!r}")
        if labels[index_of[node_id]] is not None:
            raise DatasetFormatError(f"{path}:{lineno}: node id {node_id!r} listed twice")
        labels[index_of[node_id]] = region
    missing = [node_ids[i] for i, label in enumerate(labels) if label is None]
    if missing:
        raise DatasetFormatError(f"{path}: no region for nodes {missing[:5]}")
    if not labels:
        raise DatasetFormatError(f"{path}: partition needs at least one node, the dataset has none")
    return RegionPartition(tuple(labels))  # type: ignore[arg-type]


def load_correlation_matrix(path: Path | str) -> np.ndarray:
    """Read an n x n numeric CSV; a row wider or narrower than the first is
    a data error naming its line."""
    path = Path(path)
    rows = []
    for lineno, row in read_csv_rows(path):
        try:
            rows.append([float(x) for x in row])
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: non-numeric value ({exc})")
        if len(row) != len(rows[0]):
            raise DatasetFormatError(f"{path}:{lineno}: {len(row)} fields, expected {len(rows[0])}")
    if not rows:
        raise DatasetFormatError(f"{path}: empty matrix file")
    return np.asarray(rows)


def ingest_correlation_listing(
    listing_path: Path | str,
    percentile: float,
    partition_path: Path | str | None = None,
) -> GraphDataset:
    """Build a dataset from a CSV listing of correlation-matrix files.

    The listing has a header ``file,label[,name]``; matrix paths are resolved
    relative to the listing, and no two rows may name one file. All matrices
    must agree on their size. Each row is checked, then its matrix read and
    thresholded, in file order, so the first fault in the file is the one
    reported.
    """
    listing_path = Path(listing_path)
    rows = read_csv_rows(listing_path)
    _, fields = next(rows, (0, []))
    if "file" not in fields or "label" not in fields:
        raise DatasetFormatError(f"{listing_path}: header must include file,label")
    entries, line_of = [], {}  # each matrix path read so far, resolved -> its listing line
    for lineno, cells in rows:
        where = f"{listing_path}:{lineno}"
        if len(cells) > len(fields):
            raise DatasetFormatError(f"{where}: {len(cells)} fields, expected {len(fields)}")
        row = dict(zip(fields, cells))  # a short row lacks its last columns
        try:
            label = read_digits(row.get("label") or "")
        except ValueError:
            label = None
        if label not in (0, 1):
            raise DatasetFormatError(f"{where}: label {row.get('label')!r}, expected 0 or 1")
        filename = row.get("file")
        if not filename:
            raise DatasetFormatError(f"{where}: no file named")
        first = line_of.setdefault(os.path.realpath(listing_path.parent / filename), lineno)
        if first != lineno:
            raise DatasetFormatError(f"{where}: file {filename!r} already listed at line {first}")
        matrix = load_correlation_matrix(listing_path.parent / filename)
        n = entries[0].graph.node_count if entries else matrix.shape[0]
        if matrix.shape[0] != n:
            raise DatasetFormatError(f"{filename}: matrix size {matrix.shape[0]} differs from {n}")
        try:
            graph = threshold_correlations(matrix, percentile)
        except DatasetFormatError as exc:
            raise DatasetFormatError(f"{filename}: {exc}") from exc
        entries.append(DatasetEntry(graph, label, row.get("name") or filename))
    if not entries:
        raise DatasetFormatError(f"{listing_path}: no graphs listed")
    node_ids = tuple(str(i) for i in range(entries[0].graph.node_count))
    partition = load_partition(partition_path, node_ids) if partition_path else None
    return GraphDataset(node_ids, tuple(entries), partition)
