"""Property tests: edit round trips and the dataset loader's contract."""

import json
import string
import tempfile
from itertools import combinations
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from densecf import (
    DatasetFormatError,
    EditList,
    Graph,
    GraphDataset,
    RegionPartition,
    apply_edits,
    load_dataset,
    save_dataset,
)
from densecf.data import DATASET_FORMAT, DATASET_VERSION, DatasetEntry

# Node ids and region names as the dataset formats hold them: one token each,
# no surrounding whitespace, not starting an edge-list comment.
TOKENS = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=6)


def graphs_on(n):
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return st.just(Graph(n))
    return st.sets(st.sampled_from(pairs)).map(lambda edges: Graph(n, edges))


@st.composite
def graph_pairs(draw):
    n = draw(st.integers(0, 9))
    return draw(graphs_on(n)), draw(graphs_on(n))


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 7))
    node_ids = tuple(draw(st.lists(TOKENS, min_size=n, max_size=n, unique=True)))
    entries = tuple(
        DatasetEntry(draw(graphs_on(n)), draw(st.sampled_from((0, 1))), draw(st.text(max_size=8)))
        for _ in range(draw(st.integers(0, 4)))
    )
    partition = draw(
        st.none() | st.lists(TOKENS, min_size=n, max_size=n).map(tuple).map(RegionPartition)
    )
    return GraphDataset(n, node_ids, entries, partition)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
# File names that exist, are missing, name a directory, or name the manifest.
FILE_NAMES = st.sampled_from(["g.edges", "missing.edges", "", ".", "/", "manifest.json"])
GRAPH_ENTRIES = (
    st.fixed_dictionaries(
        {"file": FILE_NAMES | JSON, "label": st.sampled_from((0, 1)) | JSON},
        optional={"name": JSON},
    )
    | JSON
)
# Manifests that pass the format and version checks, each field well formed
# about half the time, so every later check is reached.
MANIFESTS = st.fixed_dictionaries(
    {
        "format": st.just(DATASET_FORMAT),
        "version": st.just(DATASET_VERSION),
        "node_ids": st.just(["a", "b", "c"]) | JSON,
        "graphs": st.lists(GRAPH_ENTRIES, min_size=1, max_size=3) | JSON,
    },
    optional={"partition": FILE_NAMES | st.just("part.csv") | JSON},
)


@given(graph_pairs())
def test_edit_list_between_reproduces_target(pair):
    g, h = pair
    assert apply_edits(g, EditList.between(g, h)) == h


@settings(max_examples=50, deadline=None)
@given(datasets())
def test_save_load_round_trip(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        assert load_dataset(save_dataset(dataset, tmp)) == dataset


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(MANIFESTS | JSON)
def test_any_json_manifest_loads_or_raises_format_error(manifest):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "g.edges").write_text("a b\nb c\n")
        (base / "part.csv").write_text("node_id,region_name\na,x\nb,x\nc,y\n")
        (base / "manifest.json").write_text(json.dumps(manifest))
        try:
            load_dataset(base / "manifest.json")
        except DatasetFormatError:
            pass
