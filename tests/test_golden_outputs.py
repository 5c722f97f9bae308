"""Golden outputs: the methods' records.csv and aggregates.json on fixed
datasets, under the white-box rule and under a trained SF-KNN oracle; and
every file ``save_dataset`` writes for a set of synthetic generator specs.

The n = 24 digests were recorded before the bitmask graph core replaced the
edge-set one; the n = 116 ones, at the size of the paper's AUT brain graphs,
reach what only paper size reaches (rows above bit 63, densify's block cuts,
``pair_at`` over 6,670 pairs). A change that is meant to be a pure speed-up
must leave them as they are; a change that alters search outputs on purpose
re-records them and says so.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import densecf
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

SMALL = SyntheticSpec(node_count=24, num_graphs=8, subgroup_size=5, cliques_per_graph=4, seed=11)
PAPER_SIZE = SyntheticSpec(node_count=116, num_graphs=8, seed=5)


@dataclass(frozen=True)
class Case:
    spec: SyntheticSpec
    options: RunOptions
    blocks: int  # node v lies in region block{v * blocks // node_count}
    train: dict | None  # train_sf_knn's keyword arguments; None runs the white-box rule
    methods: tuple[str, ...]
    digests: tuple[str, str]  # records.csv, aggregates.json


# SF-KNN dat+bw and rcli+bw take 14.4 s and 2.3 s at n = 116, so that half
# leaves them out; their refinement runs under the white-box rule there.
GOLDEN = {
    "whitebox": Case(
        SMALL, RunOptions(max_iterations=25, seed=3), 4, None, METHODS,
        (
            "f12ea2843761b4b611ec63cd7ac82f917c9ca5e5b7a1d26ae40ca5c02f992a3b",
            "17f01c62ee52553523dc3f06077d1e183dd51007c4410ba11357bb34d938677c",
        ),
    ),
    "knn": Case(
        SMALL, RunOptions(max_iterations=25, seed=3), 4,
        dict(neighbor_grid=(1, 3), eig_grid=(4, 8), folds=4), METHODS,
        (
            "920a225235094f9e26f3ea8af56f65c1c5e6957ed4603d6130389ba1ecf007a1",
            "d5108ffa9b3a12c0ff10e5e849ac83432147eb8cabde1b87eb86cd2d3ecb30b3",
        ),
    ),
    "whitebox116": Case(
        PAPER_SIZE, RunOptions(max_iterations=20), 8, None, METHODS,
        (
            "3aa9313afc7be8635c7c5eb1f11db0ff6338ab29b84c0cb39201b98721f06d47",
            "0c319e778c45b2958f10ae4fb2e0a49390b99e4c2f0b597d1b3ef5d6b721f9e1",
        ),
    ),
    "knn116": Case(
        PAPER_SIZE, RunOptions(max_iterations=20), 8, dict(folds=4),
        ("tri", "cli", "rcli", "edg", "dat"),
        (
            "abd23eeb65c599fabf6707a00bb58fc54472cdef7420cadc88424af0e12e24af",
            "5beaa0e79b9cc7f70a83734f77c318f1349f4a9e2b4a964a7ab2647e0f26793d",
        ),
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@cache
def dataset(spec):
    return generate_synthetic(spec)


def case_digests(name, out_dir):
    """The (records.csv, aggregates.json) digests of golden case ``name``,
    with both files written into ``out_dir``."""
    case = GOLDEN[name]
    data = dataset(case.spec)
    if case.train is None:
        spec = runner.OracleSpec(kind="whitebox", node_count=data.node_count)
    else:
        spec = runner.OracleSpec(kind="model", model=train_sf_knn(data, **case.train)[0])
    n = data.node_count
    partition = RegionPartition(tuple(f"block{v * case.blocks // n}" for v in range(n)))
    summaries = runner.run_benchmark(
        spec, data, case.methods, "golden", partition=partition, options=case.options, workers=1
    )
    write_records_csv(summaries, out_dir / "records.csv")
    report = json.dumps(build_aggregate_report(summaries), indent=2, sort_keys=True) + "\n"
    (out_dir / "aggregates.json").write_text(report)
    return sha256(out_dir / "records.csv"), sha256(out_dir / "aggregates.json")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_recorded_digests(name, tmp_path):
    assert case_digests(name, tmp_path) == GOLDEN[name].digests


def _openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _openblas(), reason="numpy is not built on OpenBLAS")
@pytest.mark.parametrize("threads", [1, 2])
def test_blas_threads_leave_the_knn116_digests(threads, tmp_path):
    """The SF-KNN votes rest on LAPACK eigenvalues; in a fresh process with
    ``threads`` OpenBLAS threads they still give the recorded digests."""
    src = str(Path(densecf.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import pathlib, sys; import test_golden_outputs as g; "
        "print(*g.case_digests('knn116', pathlib.Path(sys.argv[1])))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        cwd=Path(__file__).parent, env=env, capture_output=True, text=True, check=True,
    )
    assert tuple(out.stdout.split()) == GOLDEN["knn116"].digests


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
