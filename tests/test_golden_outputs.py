"""Golden outputs: every method's records.csv and aggregates.json on one small
fixed dataset, under the white-box rule and under a trained SF-KNN oracle.

The digests were recorded before the bitmask graph core replaced the
edge-set one. A change that is meant to be a pure speed-up must leave them
as they are; a change that alters search outputs on purpose re-records them
and says so.
"""

import hashlib
import json

import pytest

from densecf import METHODS, RunOptions, SyntheticSpec, generate_synthetic, runner, train_sf_knn
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
