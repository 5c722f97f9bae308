"""Golden outputs: every method's records.csv and aggregates.json on one small
fixed dataset, under the white-box rule and under a trained SF-KNN oracle; and
every file ``save_dataset`` writes for a set of synthetic generator specs.

The digests were recorded before the bitmask graph core replaced the
edge-set one. A change that is meant to be a pure speed-up must leave them
as they are; a change that alters search outputs on purpose re-records them
and says so.
"""

import hashlib
import json

import pytest

from densecf import (
    METHODS,
    RunOptions,
    SyntheticSpec,
    generate_synthetic,
    runner,
    save_dataset,
    train_sf_knn,
)
from densecf.evaluation import RegionPartition, build_aggregate_report, write_records_csv

SPEC = SyntheticSpec(node_count=24, num_graphs=8, subgroup_size=5, cliques_per_graph=4, seed=11)
OPTIONS = RunOptions(max_iterations=25, seed=3)

GOLDEN = {
    "whitebox": (
        "f12ea2843761b4b611ec63cd7ac82f917c9ca5e5b7a1d26ae40ca5c02f992a3b",
        "17f01c62ee52553523dc3f06077d1e183dd51007c4410ba11357bb34d938677c",
    ),
    "knn": (
        "920a225235094f9e26f3ea8af56f65c1c5e6957ed4603d6130389ba1ecf007a1",
        "d5108ffa9b3a12c0ff10e5e849ac83432147eb8cabde1b87eb86cd2d3ecb30b3",
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(SPEC)


@pytest.mark.parametrize("oracle", sorted(GOLDEN))
def test_outputs_match_recorded_digests(oracle, dataset, tmp_path):
    if oracle == "knn":
        model, _ = train_sf_knn(dataset, neighbor_grid=(1, 3), eig_grid=(4, 8), folds=4)
        spec = runner.OracleSpec(kind="model", model=model)
    else:
        spec = runner.OracleSpec(kind="whitebox", node_count=dataset.node_count)
    partition = RegionPartition(tuple(f"block{v // 6}" for v in range(dataset.node_count)))
    summaries = runner.run_benchmark(
        spec, dataset, METHODS, "golden", partition=partition, options=OPTIONS, workers=1
    )
    write_records_csv(summaries, tmp_path / "records.csv")
    report = json.dumps(build_aggregate_report(summaries), indent=2, sort_keys=True) + "\n"
    (tmp_path / "aggregates.json").write_text(report)
    digests = (sha256(tmp_path / "records.csv"), sha256(tmp_path / "aggregates.json"))
    assert digests == GOLDEN[oracle]


# For each spec, the SHA-256 of the ``sha256sum``-style listing ("digest  name"
# per line, by name) of every file save_dataset writes for its dataset. The
# first two are the benchmark's replicate families at seed 0; the others reach
# the generator's edge cases: no or every background edge redirected across
# the halves, no uniform extra edges, and an attachment so large that every
# node of the other half is a seed, leaving no background growth at all.
GOLDEN_SYNTHETIC = {
    "knn116": (
        SyntheticSpec(node_count=116, num_graphs=10, subgroups_per_class=1, seed=0),
        "b61eed7142e074fa21a5128de6d01cc55ce2bcef03551b9bf3b53e1e8ef18bae",
    ),
    "whitebox60": (
        SyntheticSpec(node_count=60, num_graphs=20, subgroups_per_class=2, seed=0),
        "c0df1643e0e8f131d6949d48dbe06a5c15c6f090034e969f15e323c94af7e95f",
    ),
    "no-cross": (
        SyntheticSpec(node_count=40, num_graphs=6, cross_probability=0.0, seed=5),
        "65835604d69a3ec6cd17ca177e13df1f444ef36eae6ee3af0af6e26d7f19f608",
    ),
    "all-cross": (
        SyntheticSpec(node_count=40, num_graphs=6, cross_probability=1.0, seed=6),
        "0071510c5c34a694895520ee933b83776f71e780923f5228017eff535418d58b",
    ),
    "no-extra-edges": (
        SyntheticSpec(node_count=40, num_graphs=6, extra_edges=0, seed=7),
        "e9fb312fc7fb2b89824b8f2e397f118f416024037dc28ee093f51e046195a4bd",
    ),
    "seeds-clamp": (
        SyntheticSpec(node_count=24, num_graphs=4, subgroup_size=4, attachment=15, seed=8),
        "f89d923f84d2687b433f75acfca13a86affb0bcf779a3eb387f723b697c50281",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SYNTHETIC))
def test_generated_datasets_match_recorded_digests(name, tmp_path):
    spec, digest = GOLDEN_SYNTHETIC[name]
    save_dataset(generate_synthetic(spec), tmp_path)
    listing = "".join(f"{sha256(p)}  {p.name}\n" for p in sorted(tmp_path.iterdir()))
    assert hashlib.sha256(listing.encode()).hexdigest() == digest, listing
