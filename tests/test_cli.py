import dataclasses
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import densecf
from densecf import METHODS, spectral
from densecf.cli import main
from densecf.evaluation import RECORDS_CSV_COLUMNS, InstanceRecord, read_records_csv

from conftest import serial_pool

RECORDS_HEADER = ",".join(RECORDS_CSV_COLUMNS)


def run(*argv):
    return main([str(a) for a in argv])


def write_partition(path, *extra_rows):
    """Nodes 0-11 in region front, 12-23 in back, then ``extra_rows``."""
    lines = ["node_id,region_name"] + [f"{i},{'front' if i < 12 else 'back'}" for i in range(24)]
    path.write_text("\n".join([*lines, *extra_rows]) + "\n")
    return path


def write_listing(root):
    """Three symmetric 6 x 6 correlation matrices and their ``file,label`` listing."""
    rng = np.random.default_rng(3)
    for i in range(3):
        base = rng.uniform(-1, 1, size=(6, 6))
        m = (base + base.T) / 2
        np.fill_diagonal(m, 1.0)
        with open(root / f"m{i}.csv", "w") as fh:
            for row in m:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
    listing = root / "listing.csv"
    listing.write_text("file,label\n" + "".join(f"m{i}.csv,{i % 2}\n" for i in range(3)))
    return listing


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    code = run(
        "synth", "--nodes", 24, "--num-graphs", 10, "--subgroups", 1,
        "--subgroup-size", 6, "--cliques", 5, "--seed", 5, "--out-dir", out,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("model")
    code = run(
        "train", "--dataset", synth_dir / "manifest.json", "--folds", 5,
        "--neighbors", "1,3", "--eigs", "4,8", "--seed", 0, "--out-dir", out,
    )
    assert code == 0
    return out


class TestSynth:
    def test_outputs_exist_and_reload(self, synth_dir):
        assert (synth_dir / "manifest.json").exists()
        assert (synth_dir / "run_manifest.json").exists()
        from densecf import load_dataset

        dataset = load_dataset(synth_dir / "manifest.json")
        assert len(dataset) == 10
        assert dataset.node_count == 24

    def test_seed_stability(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                "synth", "--nodes", 20, "--num-graphs", 4, "--subgroup-size", 5,
                "--cliques", 3, "--seed", 1, "--out-dir", out,
            ) == 0
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        for f in sorted(a.glob("graph-*.edges")):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_default_count_is_one_hundred(self, tmp_path):
        out = tmp_path / "defaults"
        assert run("synth", "--nodes", 16, "--seed", 2, "--out-dir", out) == 0
        from densecf import load_dataset

        assert len(load_dataset(out / "manifest.json")) == 100

    def test_bad_spec_exits_one(self, tmp_path):
        assert run(
            "synth", "--nodes", 20, "--num-graphs", 5, "--out-dir", tmp_path / "x",
        ) == 1

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--cliques", -1, "cliques_per_graph"),
            ("--nodes", 0, "node_count"),
            ("--nodes", -5, "node_count"),
            ("--nodes", 2**32, "node_count"),
            ("--nodes", 10**30, "node_count"),
            ("--seed", -1, "seed"),
            ("--subgroup-size", 2, "subgroup_size"),
            ("--attach-m", 0, "attachment"),
            ("--extra-p", -1, "extra_edges"),
            ("--cross-q", 1.5, "cross_probability"),
        ],
        ids=[
            "cliques_per_graph", "node_count-0", "node_count-negative", "node_count-2**32",
            "node_count-10**30", "seed",
            "subgroup_size", "attachment", "extra_edges", "cross_probability",
        ],
    )
    def test_bad_field_exits_one_naming_it_before_writing(
        self, tmp_path, flag, value, field, capsys
    ):
        out = tmp_path / "x"  # a repeated --nodes overrides the first
        code = run("synth", "--nodes", 20, "--num-graphs", 4, flag, value, "--out-dir", out)
        assert code == 1
        assert f"error: {field} must" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_log_level_falls_back_to_warning_and_runs(self, tmp_path, monkeypatch):
        levels = []
        monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
        monkeypatch.setenv("DENSECF_LOG", "LOUD")
        out = tmp_path / "x"
        assert run("synth", "--nodes", 16, "--num-graphs", 2, "--out-dir", out) == 0
        assert levels == [logging.WARNING]
        assert (out / "manifest.json").exists()


class TestTrain:
    def test_artifacts(self, trained_dir):
        report = json.loads((trained_dir / "train_report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert (trained_dir / "model.json").exists()
        manifest = json.loads((trained_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["seed"] == 0

    def test_separable_dataset_reaches_high_accuracy(self, tmp_path):
        from densecf import save_dataset
        from test_spectral import triangle_class_dataset

        ds_dir = tmp_path / "triangles"
        save_dataset(triangle_class_dataset(), ds_dir)
        out = tmp_path / "model"
        assert run(
            "train", "--dataset", ds_dir / "manifest.json", "--folds", 5,
            "--seed", 0, "--out-dir", out,
        ) == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["accuracy"] >= 0.9

    def test_manhattan_metric_reaches_the_model_and_its_searches(self, synth_dir, tmp_path):
        # the L1 vote itself is checked against a brute-force scan in test_spectral
        from densecf import load_model

        out = tmp_path / "l1"
        assert run(
            "train", "--dataset", synth_dir, "--folds", 5, "--neighbors", "1,3",
            "--eigs", "4,8", "--metric", "manhattan", "--out-dir", out,
        ) == 0
        assert load_model(out / "model.json").metric == "manhattan"
        assert json.loads((out / "run_manifest.json").read_text())["config"]["metric"] == "manhattan"
        assert run(
            "explain", "--dataset", synth_dir, "--model", out / "model.json",
            "--instance", 1, "--method", "tri", "--out-dir", tmp_path / "exp",
        ) == 0

    def test_too_many_folds_exits_one(self, synth_dir, tmp_path):
        assert run(
            "train", "--dataset", synth_dir / "manifest.json", "--folds", 99,
            "--out-dir", tmp_path,
        ) == 1

    def test_missing_dataset_exits_two(self, tmp_path):
        assert run(
            "train", "--dataset", tmp_path / "nope" / "manifest.json", "--out-dir", tmp_path,
        ) == 2

    @pytest.mark.parametrize("folds", [0, -1, 1])
    def test_fewer_than_two_folds_exits_one(self, synth_dir, tmp_path, folds, capsys):
        assert run(
            "train", "--dataset", synth_dir, "--folds", folds, "--out-dir", tmp_path / "x",
        ) == 1
        assert f"got {folds}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize(
        "flag, value", [("--neighbors", "0"), ("--neighbors", "3,-2"), ("--eigs", "-1")]
    )
    def test_non_positive_grid_value_exits_one_before_any_work(
        self, synth_dir, tmp_path, flag, value, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            spectral, "positive_laplacian_eigenvalues", lambda g: pytest.fail("work was done")
        )
        assert run(
            "train", "--dataset", synth_dir, flag, value, "--out-dir", tmp_path / "x",
        ) == 1
        assert f"got {min(map(int, value.split(',')))}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestExplain:
    def test_whitebox_explain_writes_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "exp"
        code = run(
            "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--instance", 0, "--method", "cli", "--out-dir", out,
        )
        assert code == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["method"] == "cli"
        assert (out / "edits.csv").exists()
        if payload["found"]:
            assert payload["distance"] == len(payload["removals"]) + len(payload["additions"])

    def test_model_explain(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "exp"
        code = run(
            "explain", "--dataset", synth_dir / "manifest.json",
            "--model", trained_dir / "model.json",
            "--instance", 1, "--method", "tri", "--out-dir", out,
        )
        assert code == 0

    def test_not_found_still_exits_zero(self, synth_dir, tmp_path):
        # triangle search on an instance with a tiny iteration cap
        out = tmp_path / "nf"
        code = run(
            "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--instance", 0, "--method", "edg", "--max-iters", 0, "--out-dir", out,
        )
        assert code == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["found"] is False

    def test_byte_identical_rerun(self, synth_dir, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run(
                "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
                "--instance", 2, "--method", "edg", "--seed", 13, "--out-dir", out,
            ) == 0
        assert (outs[0] / "result.json").read_bytes() == (outs[1] / "result.json").read_bytes()
        assert (outs[0] / "edits.csv").read_bytes() == (outs[1] / "edits.csv").read_bytes()

    def test_rcli_without_partition_exits_one(self, synth_dir, tmp_path):
        assert run(
            "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--instance", 0, "--method", "rcli", "--out-dir", tmp_path / "x",
        ) == 1

    def test_rcli_with_partition_writes_region_csv(self, synth_dir, tmp_path):
        partition = write_partition(tmp_path / "partition.csv")
        out = tmp_path / "rcli"
        code = run(
            "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--instance", 0, "--method", "rcli", "--partition", partition,
            "--out-dir", out,
        )
        assert code == 0
        payload = json.loads((out / "result.json").read_text())
        if payload["found"]:
            regions = (out / "regions.csv").read_text().splitlines()
            assert regions[0] == "region,added_pct,removed_pct"
            assert len(regions) == 3

    def test_duplicate_partition_row_exits_two(self, synth_dir, tmp_path, capsys):
        partition = write_partition(tmp_path / "partition.csv", "0,back")
        out = tmp_path / "dup"
        code = run(
            "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--instance", 0, "--method", "rcli", "--partition", partition,
            "--out-dir", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{partition}:26:" in err and "'0'" in err
        assert not (out / "result.json").exists()

    def test_partition_field_over_the_csv_limit_exits_two(self, synth_dir, tmp_path, capsys):
        partition = tmp_path / "partition.csv"
        partition.write_text("node_id,region_name\n0," + "x" * 131_073 + "\n")
        out = tmp_path / "out"
        code = run(
            "explain", "--dataset", synth_dir, "--whitebox", "--instance", 0,
            "--method", "rcli", "--partition", partition, "--out-dir", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: {partition}:2: field larger than field limit" in err
        assert not out.exists()

    def test_format_json_only(self, synth_dir, tmp_path):
        out = tmp_path / "fj"
        assert run(
            "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--instance", 0, "--method", "cli", "--format", "json", "--out-dir", out,
        ) == 0
        assert (out / "result.json").exists()
        assert not (out / "edits.csv").exists()

    def test_format_csv_only(self, synth_dir, tmp_path):
        partition = write_partition(tmp_path / "partition.csv")
        out, both = tmp_path / "fc", tmp_path / "both"
        for fmt, where in (("csv", out), ("both", both)):
            assert run(
                "explain", "--dataset", synth_dir, "--whitebox", "--partition", partition,
                "--instance", 0, "--method", "cli", "--format", fmt, "--out-dir", where,
            ) == 0
        assert json.loads((both / "result.json").read_text())["found"] is True
        assert sorted(p.name for p in out.iterdir()) == [
            "edits.csv", "regions.csv", "run_manifest.json",
        ]
        for name in ("edits.csv", "regions.csv"):
            assert (out / name).read_bytes() == (both / name).read_bytes()

    def test_composed_method_and_eigenvector_ranking(self, synth_dir, tmp_path):
        out1 = tmp_path / "datbw"
        assert run(
            "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--instance", 4, "--method", "dat+bw", "--out-dir", out1,
        ) == 0
        payload = json.loads((out1 / "result.json").read_text())
        assert payload["found"] is True
        out2 = tmp_path / "eig"
        assert run(
            "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--instance", 4, "--method", "cli", "--ranking", "eigenvector",
            "--out-dir", out2,
        ) == 0

    def test_instance_by_name(self, synth_dir, tmp_path):
        code = run(
            "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--instance", "synth-003", "--method", "dat", "--out-dir", tmp_path / "n",
        )
        assert code == 0
        payload = json.loads((tmp_path / "n" / "result.json").read_text())
        assert payload["instance"] == 3

    @pytest.mark.parametrize("selector", ["1_0", " 3", "+3", "\u0663"])
    def test_name_that_int_reads_as_an_index_picks_that_graph(
        self, synth_dir, tmp_path, selector
    ):
        # an index is ASCII digits alone; int() would read each of these as one
        from densecf import load_dataset, save_dataset

        dataset = load_dataset(synth_dir)
        entries = list(dataset.entries)
        entries[5] = dataclasses.replace(entries[5], name=selector)
        save_dataset(dataclasses.replace(dataset, entries=tuple(entries)), tmp_path / "ds")
        assert run(
            "explain", "--dataset", tmp_path / "ds", "--whitebox",
            "--instance", selector, "--method", "dat", "--out-dir", tmp_path / "n",
        ) == 0
        payload = json.loads((tmp_path / "n" / "result.json").read_text())
        assert (payload["instance"], payload["name"]) == (5, selector)

    def test_unknown_instance_exits_one(self, synth_dir, tmp_path):
        assert run(
            "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--instance", "missing", "--method", "dat", "--out-dir", tmp_path / "x",
        ) == 1


class TestBenchmarkAndReport:
    def test_benchmark_then_report_round_trip(self, synth_dir, tmp_path):
        out = tmp_path / "bench"
        code = run(
            "benchmark", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--methods", "tri,cli,dat", "--max-iters", 30, "--workers", 1,
            "--seed", 0, "--out-dir", out,
        )
        assert code == 0
        aggregates = json.loads((out / "aggregates.json").read_text())
        assert set(aggregates["per_method"]) == {"tri", "cli", "dat"}
        assert aggregates["per_method"]["dat"]["flip_rate"]["class0"] == 100.0
        assert aggregates["per_method"]["dat"]["flip_rate"]["class1"] == 100.0
        # the clique search flips every instance of this planted synthetic
        assert aggregates["per_method"]["cli"]["flip_rate"]["class0"] == 100.0
        assert aggregates["per_method"]["cli"]["flip_rate"]["class1"] == 100.0

        rep = tmp_path / "rep"
        assert run("report", "--records", out / "records.csv", "--out-dir", rep) == 0
        assert json.loads((rep / "aggregates.json").read_text()) == aggregates

    @pytest.mark.parametrize("fmt, written", [("json", "aggregates.json"), ("csv", "records.csv")])
    def test_format_writes_only_its_file(self, synth_dir, tmp_path, fmt, written):
        outs = {fmt: tmp_path / fmt, "both": tmp_path / "both"}
        for which, out in outs.items():
            assert run(
                "benchmark", "--dataset", synth_dir, "--whitebox", "--methods", "tri,cli",
                "--max-iters", 10, "--workers", 1, "--format", which, "--out-dir", out,
            ) == 0
        assert sorted(p.name for p in outs[fmt].iterdir()) == sorted([written, "run_manifest.json"])
        assert (outs[fmt] / written).read_bytes() == (outs["both"] / written).read_bytes()

    def test_explain_matches_the_benchmark_row_for_every_method(self, synth_dir, tmp_path):
        partition = write_partition(tmp_path / "partition.csv")
        common = [
            "--dataset", synth_dir / "manifest.json", "--whitebox", "--partition", partition,
            "--max-iters", 40, "--seed", 5,
        ]
        bench = tmp_path / "bench"
        assert run(
            "benchmark", *common, "--methods", ",".join(METHODS), "--workers", 1,
            "--out-dir", bench,
        ) == 0
        summaries = read_records_csv(bench / "records.csv")
        assert [s.method for s in summaries] == list(METHODS)
        # result.json key -> InstanceRecord field, for every field of the record
        keys = {f.name: f.name for f in dataclasses.fields(InstanceRecord)}
        keys["predicted_class"] = keys.pop("predicted_label")
        assert len(keys) == 9
        for summary in summaries:
            for index in (0, 7):
                out = tmp_path / f"{summary.method}-{index}"
                assert run(
                    "explain", *common, "--method", summary.method, "--instance", index,
                    "--out-dir", out,
                ) == 0
                payload = json.loads((out / "result.json").read_text())
                record = summary.records[index]
                assert {k: payload[k] for k in keys} == {
                    k: getattr(record, f) for k, f in keys.items()
                }

    def test_manifest_records_args_and_resolved_workers(self, synth_dir, tmp_path):
        out = tmp_path / "bench"
        assert run(
            "benchmark", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--methods", "dat", "--max-iters", 3, "--out-dir", out,
        ) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "benchmark"
        config = manifest["config"]
        assert config["methods"] == "dat"
        assert config["max_iters"] == 3
        assert config["ranking"] == "triangles"
        assert isinstance(config["workers"], int) and config["workers"] >= 1

    def test_manifest_records_the_pool_size_used(self, synth_dir, tmp_path):
        # 10 graphs and one method are 10 tasks, so 64 workers would idle
        out = tmp_path / "bench"
        with serial_pool() as sizes:
            assert run(
                "benchmark", "--dataset", synth_dir / "manifest.json", "--whitebox",
                "--methods", "tri", "--max-iters", 3, "--workers", 64, "--out-dir", out,
            ) == 0
        assert sizes == [10]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["workers"] == 10

    def test_benchmark_workers_do_not_change_outputs(self, synth_dir, tmp_path):
        outs = [tmp_path / "w1", tmp_path / "w2"]
        for out, workers in zip(outs, (1, 2)):
            assert run(
                "benchmark", "--dataset", synth_dir / "manifest.json", "--whitebox",
                "--methods", "tri,edg", "--max-iters", 20, "--workers", workers,
                "--seed", 4, "--out-dir", out,
            ) == 0
        assert (outs[0] / "records.csv").read_bytes() == (outs[1] / "records.csv").read_bytes()
        assert (outs[0] / "aggregates.json").read_bytes() == (outs[1] / "aggregates.json").read_bytes()


class TestEmptyDataset:
    @pytest.mark.parametrize(
        "flags",
        [
            ["benchmark", "--methods", "dat", "--workers", 1],
            ["explain", "--instance", 0, "--method", "dat"],
        ],
        ids=["benchmark", "explain"],
    )
    def test_exits_one_before_writing(self, tmp_path, flags, capsys):
        from densecf import GraphDataset, save_dataset

        save_dataset(GraphDataset(tuple("abcd"), ()), tmp_path / "empty")
        command, *rest = flags
        out = tmp_path / "out"
        code = run(command, "--dataset", tmp_path / "empty", "--whitebox", *rest, "--out-dir", out)
        assert code == 1
        assert "has no graphs" in capsys.readouterr().err
        assert not out.exists()  # so no records.csv either

    def test_partition_over_no_nodes_exits_two(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text("")
        (tmp_path / "partition.csv").write_text("node_id,region_name\n")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "format": "densecf-dataset", "version": 1, "node_ids": [],
            "graphs": [{"file": "g.edges", "label": 0}, {"file": "g.edges", "label": 1}],
            "partition": "partition.csv",
        }))
        out = tmp_path / "out"
        code = run(
            "explain", "--dataset", path, "--whitebox", "--instance", 0, "--method", "tri",
            "--out-dir", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: {tmp_path / 'partition.csv'}: partition needs at least one node" in err
        assert not out.exists()


class TestUnencodableName:
    @pytest.mark.parametrize(
        "flags, output",
        [
            (["benchmark", "--methods", "tri", "--workers", 1], "records.csv"),
            (["explain", "--instance", 1, "--method", "tri"], "result.json"),
        ],
        ids=["benchmark", "explain"],
    )
    def test_exits_two_before_writing(self, synth_dir, tmp_path, flags, output, capsys):
        # JSON's "\ud800x" loads as a lone surrogate, which UTF-8 cannot encode
        dataset = tmp_path / "ds"
        shutil.copytree(synth_dir, dataset)
        manifest = json.loads((dataset / "manifest.json").read_text())
        manifest["graphs"][1]["name"] = "\ud800x"
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        command, *rest = flags
        out = tmp_path / "out"
        code = run(command, "--dataset", dataset, "--whitebox", *rest, "--out-dir", out)
        assert code == 2
        assert "not UTF-8 encodable" in capsys.readouterr().err
        assert not (out / output).exists()


class TestIngestCommand:
    def test_ingest_round_trip(self, tmp_path):
        listing = write_listing(tmp_path)
        out = tmp_path / "ds"
        assert run(
            "ingest", "--listing", listing, "--percentile", 80, "--out-dir", out,
        ) == 0
        from densecf import load_dataset

        dataset = load_dataset(out / "manifest.json")
        assert len(dataset) == 3
        assert dataset.node_count == 6

    def test_malformed_listing_exits_two(self, tmp_path):
        listing = tmp_path / "bad.csv"
        listing.write_text("nope\n")
        assert run("ingest", "--listing", listing, "--out-dir", tmp_path / "x") == 2

    @pytest.mark.parametrize(
        "text",
        [
            "file,label\nm.csv,2\n",
            "label,file\n0\n",
            # int() reads each of these labels as 0 or 1; only ASCII digits are written
            "file,label\nm.csv, 1\n",
            "file,label\nm.csv,+1\n",
            "file,label\nm.csv,0_0\n",
            "file,label\nm.csv,\u0660\n",
        ],
        ids=[
            "label-2",
            "no-file",
            "label-spaced",
            "label-signed",
            "label-underscored",
            "label-arabic-indic",
        ],
    )
    def test_bad_listing_row_exits_two(self, tmp_path, text, capsys):
        (tmp_path / "m.csv").write_text("1,0.5\n0.5,1\n")
        listing = tmp_path / "listing.csv"
        listing.write_text(text, encoding="utf-8")
        assert run("ingest", "--listing", listing, "--out-dir", tmp_path / "x") == 2
        assert "listing.csv:2" in capsys.readouterr().err

    def test_row_longer_than_its_header_exits_two(self, tmp_path, capsys):
        # a short row lacks its last columns; a long one has cells no column names
        (tmp_path / "m.csv").write_text("1,0.5\n0.5,1\n")
        listing = tmp_path / "listing.csv"
        listing.write_text("file,label\nm.csv,1,EXTRA\nm.csv,0,more,cells\n")
        out = tmp_path / "x"
        assert run("ingest", "--listing", listing, "--out-dir", out) == 2
        assert f"data error: {listing}:2: 3 fields, expected 2" in capsys.readouterr().err
        assert not out.exists()


class TestMalformedManifest:
    @pytest.mark.parametrize(
        "manifest, message",
        [
            ([1, 2], "must be a JSON object"),
            ({"graphs": {"file": "g.edges"}}, "'graphs' must be a list"),
            ({"graphs": ["x"]}, "graph entry 0 must be an object with a 'file' name"),
            ({"graphs": [{"label": 0}]}, "graph entry 0 must be an object with a 'file' name"),
            ({"version": 2}, "unsupported version 2"),
            ({"partition": 5}, "'partition' must be a file name or null"),
            ({"node_ids": ["0", "0"]}, "duplicate node ids"),
        ],
        ids=[
            "top-level-not-object", "graphs-not-list", "entry-not-object", "entry-without-file",
            "version-2", "partition-not-a-name", "duplicate-node-ids",
        ],
    )
    def test_exits_two(self, tmp_path, manifest, message, capsys):
        if isinstance(manifest, dict):
            header = {"format": "densecf-dataset", "version": 1, "node_ids": ["0", "1"]}
            manifest = {**header, **manifest}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "x"
        code = run(
            "explain", "--dataset", path, "--whitebox",
            "--instance", 0, "--method", "tri", "--out-dir", out,
        )
        assert code == 2
        assert f"data error: {path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", [True, 1.0], ids=["true", "float"])
    def test_non_integer_label_exits_two(self, tmp_path, label, capsys):
        header = {"format": "densecf-dataset", "version": 1, "node_ids": ["0", "1"]}
        (tmp_path / "g.edges").write_text("0 1\n")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**header, "graphs": [{"file": "g.edges", "label": label}]}))
        out = tmp_path / "out"
        code = run(
            "benchmark", "--dataset", path, "--whitebox", "--methods", "dat",
            "--workers", 1, "--out-dir", out,
        )
        assert code == 2
        assert "expected 0 or 1" in capsys.readouterr().err
        assert not out.exists()

    def test_node_id_the_writer_rejects_exits_two(self, tmp_path, capsys):
        # "#a" starts a comment line, so "#a b" would load as no edge at all
        (tmp_path / "g.edges").write_text("#a b\nb c\n")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "format": "densecf-dataset", "version": 1, "node_ids": ["#a", "b", "c"],
            "graphs": [{"file": "g.edges", "label": 0}, {"file": "g.edges", "label": 1}],
        }))
        out = tmp_path / "out"
        code = run(
            "explain", "--dataset", path, "--whitebox", "--instance", 0, "--method", "tri",
            "--out-dir", out,
        )
        assert code == 2
        assert f"data error: {path}: node id '#a' " in capsys.readouterr().err
        assert not out.exists()


GOOD_RECORD = "tri,d,0,g,0,0,true,1,2,1,0.5"
BAD_RECORDS = {
    "short-row": "tri,d,0,g,0,0,true",
    "instance-not-int": GOOD_RECORD.replace("tri,d,0,", "tri,d,zero,"),
    "found-not-bool": GOOD_RECORD.replace("true", "maybe"),
    "label-out-of-range": GOOD_RECORD.replace(",0,0,true", ",0,7,true"),
    "ratio-nan": GOOD_RECORD.replace(",0.5", ",nan"),
    "ratio-inf": GOOD_RECORD.replace(",0.5", ",inf"),
    "found-without-ratio": GOOD_RECORD.replace(",0.5", ","),
    "not-found-with-distance": GOOD_RECORD.replace("true,1,2,1,0.5", "false,1,2,7,0.5"),
    "found-at-distance-zero": GOOD_RECORD.replace("true,1,2,1,", "true,1,2,0,"),
    # instance 0 again, read as found on line 2 and as not found here
    "repeated-instance": "tri,d,0,g,0,0,false,1,2,0,",
    # int() reads each of these integers; only ASCII digits are written
    "instance-spaced": GOOD_RECORD.replace("tri,d,0,", "tri,d, 1,"),
    "instance-signed": GOOD_RECORD.replace("tri,d,0,", "tri,d,+1,"),
    "instance-underscored": GOOD_RECORD.replace("tri,d,0,", "tri,d,1_0,"),
    "instance-arabic-indic": GOOD_RECORD.replace("tri,d,0,", "tri,d,\u0661,"),
    "instance-negative": GOOD_RECORD.replace("tri,d,0,", "tri,d,-1,"),
    "iterations-negative": GOOD_RECORD.replace("true,1,2,1,", "true,-1,2,1,"),
    "oracle-calls-negative": GOOD_RECORD.replace("true,1,2,1,", "true,1,-2,1,"),
    # a run is reported under its method
    "method-blank": GOOD_RECORD.replace("tri,d,0,", ",d,1,"),
}


class TestMalformedRecords:
    @pytest.mark.parametrize(
        "content, where",
        [
            *(
                (f"{RECORDS_HEADER}\n{GOOD_RECORD}\n{r}\n".encode(), ":3:")
                for r in BAD_RECORDS.values()
            ),
            (f"{RECORDS_HEADER.replace(',found', '')}\n{GOOD_RECORD}\n".encode(), ":1:"),
            (f"{RECORDS_HEADER}\n{GOOD_RECORD}\n".encode("utf-16"), ":"),
        ],
        ids=[*BAD_RECORDS, "missing-column", "not-utf8"],
    )
    def test_exits_two(self, tmp_path, content, where, capsys):
        path = tmp_path / "records.csv"
        path.write_bytes(content)
        assert run("report", "--records", path, "--out-dir", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert "data error" in err and f"{path}{where}" in err
        assert not (tmp_path / "x").exists()

    def test_method_on_two_datasets_exits_two(self, tmp_path, capsys):
        # aggregates are keyed by method, so the second dataset's run of tri
        # would replace the first's
        on_b = GOOD_RECORD.replace("tri,d,", "tri,b,")
        second = GOOD_RECORD.replace("tri,d,0,", "tri,d,1,")
        path = tmp_path / "records.csv"
        path.write_text("\n".join([RECORDS_HEADER, GOOD_RECORD, second, on_b]) + "\n")
        assert run("report", "--records", path, "--out-dir", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert "data error" in err and "'tri'" in err and "'d'" in err and "'b'" in err
        assert not (tmp_path / "x" / "aggregates.json").exists()

    @pytest.mark.parametrize(
        "rows",
        [
            [
                GOOD_RECORD.replace(",0.5", ",-1.7e308"),
                GOOD_RECORD.replace("tri,d,0,", "tri,d,1,").replace(",0.5", ",1.7e308"),
            ],
            [GOOD_RECORD.replace("true,1,2,1,", f"true,1,{10**400},1,")],
        ],
        ids=["ratios-too-far-apart", "oracle-calls-too-large"],
    )
    def test_values_the_aggregates_cannot_summarize_exit_two(self, tmp_path, rows, capsys):
        path = tmp_path / "records.csv"
        path.write_text("\n".join([RECORDS_HEADER, *rows]) + "\n")
        assert run("report", "--records", path, "--out-dir", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("densecf: data error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_row_error_names_its_line(self, tmp_path, capsys):
        # the name spans lines 2-3 and line 4 is blank: the short row is line 5
        two_line_name = GOOD_RECORD.replace(",g,", ',"a\nb",')
        path = tmp_path / "records.csv"
        path.write_text("\n".join([RECORDS_HEADER, two_line_name, "", BAD_RECORDS["short-row"]]))
        assert run("report", "--records", path, "--out-dir", tmp_path / "x") == 2
        assert f"{path}:5:" in capsys.readouterr().err


class TestNonUtf8Input:
    @pytest.mark.parametrize("named", ["graph", "partition", "manifest"])
    def test_exits_two(self, tmp_path, named, capsys):
        utf16 = b"\xff\xfe" + "0 1\n".encode("utf-16-le")
        (tmp_path / "g.edges").write_bytes(utf16 if named == "graph" else b"0 1\n")
        (tmp_path / "p.csv").write_bytes(
            utf16 if named == "partition" else b"node_id,region_name\n0,a\n1,b\n"
        )
        manifest = {
            "format": "densecf-dataset",
            "version": 1,
            "node_ids": ["0", "1"],
            "graphs": [{"file": "g.edges", "label": 0}],
            "partition": "p.csv",
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        if named == "manifest":
            path.write_bytes(b"\xff\xfe" + path.read_bytes())
        code = run(
            "explain", "--dataset", path, "--whitebox",
            "--instance", 0, "--method", "tri", "--out-dir", tmp_path / "x",
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err


class TestByteOrderMark:
    """Every input reads the same with a leading UTF-8 byte-order mark."""

    EXPLAIN = ["explain", "--dataset", "ds", "--instance", 1, "--method", "tri"]
    INGEST = ["ingest", "--listing", "listing.csv", "--percentile", 80]
    # the file given the mark, and the run that reads it (a second --method wins)
    CASES = {
        "manifest": ("ds/manifest.json", [*EXPLAIN, "--whitebox"]),
        "edges": ("ds/graph-0001.edges", [*EXPLAIN, "--whitebox"]),
        "partition": ("p.csv", [
            *EXPLAIN, "--whitebox", "--partition", "p.csv", "--method", "rcli",
        ]),
        "model": ("model.json", [*EXPLAIN, "--model", "model.json"]),
        "listing": ("listing.csv", INGEST),
        "matrix": ("m1.csv", INGEST),
        "records": ("records.csv", ["report", "--records", "records.csv"]),
    }

    def inputs(self, root, synth_dir, trained_dir):
        shutil.copytree(synth_dir, root / "ds")
        shutil.copy(trained_dir / "model.json", root)
        write_partition(root / "p.csv")
        write_listing(root)
        (root / "records.csv").write_text(f"{RECORDS_HEADER}\n{GOOD_RECORD}\n")

    @pytest.mark.parametrize("kind", list(CASES))
    def test_marked_input_gives_the_same_result(
        self, synth_dir, trained_dir, tmp_path, kind, capsys, monkeypatch
    ):
        marked, argv = self.CASES[kind]
        out = tmp_path / "out"
        results = []
        for name in ("plain", "marked"):
            root = tmp_path / name
            root.mkdir()
            self.inputs(root, synth_dir, trained_dir)
            if name == "marked":
                (root / marked).write_bytes(b"\xef\xbb\xbf" + (root / marked).read_bytes())
            monkeypatch.chdir(root)  # so the two runs name their inputs alike
            code = run(*argv, "--out-dir", out)
            written = {f.name: f.read_bytes() for f in out.glob("*")}
            written.pop("run_manifest.json", None)  # it holds a timestamp and the inputs' hashes
            results.append((code, capsys.readouterr(), written))
            shutil.rmtree(out, ignore_errors=True)
        assert results[0][0] == 0
        assert results[1] == results[0]


def retyped(*where_and_value):
    """A corruption setting one model field, or an item of a list field, to a value."""
    *keys, last, value = where_and_value

    def corrupt(text):
        payload = json.loads(text)
        holder = payload
        for key in keys:
            holder = holder[key]
        holder[last] = value
        return json.dumps(payload).encode()

    return corrupt


# a model field of the wrong JSON type, which the loader once coerced
RETYPED = {
    "n_neighbors-float": retyped("n_neighbors", 1.9),
    "n_neighbors-bool": retyped("n_neighbors", True),
    "n_eigs-string": retyped("n_eigs", "4"),
    "label-float": retyped("training_labels", 0, 1.7),
    "label-bool": retyped("training_labels", 0, False),
    "feature-string": retyped("training_features", 0, 0, "0.5"),
    "feature-bool": retyped("training_features", 0, 0, True),
    "seed-list": retyped("seed", [1, 2]),
    "seed-float": retyped("seed", 1.5),
    "seed-bool": retyped("seed", True),
}


def untrained(text):
    payload = json.loads(text)
    payload["training_features"], payload["training_labels"] = [], []
    return json.dumps(payload).encode()


# a well-typed model that SFKnnModel cannot be: features not finite, or none
INVALID = {
    "feature-nan": retyped("training_features", 0, 0, float("nan")),
    "feature-inf": retyped("training_features", 1, 0, float("inf")),
    "no-training-rows": untrained,
}


class TestMalformedModel:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text[:-3].encode(),
            lambda text: b"[1, 2]",
            lambda text: json.dumps(
                {k: v for k, v in json.loads(text).items() if k != "training_features"}
            ).encode(),
            lambda text: text.encode("utf-16"),
            lambda text: text.replace("densecf-sf-knn", "something-else").encode(),
            *RETYPED.values(),
            *INVALID.values(),
        ],
        ids=[
            "invalid-json", "list", "missing-key", "not-utf8", "wrong-format", *RETYPED, *INVALID,
        ],
    )
    def test_exits_two(self, synth_dir, trained_dir, tmp_path, corrupt, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(corrupt((trained_dir / "model.json").read_text()))
        code = run(
            "explain", "--dataset", synth_dir / "manifest.json", "--model", path,
            "--instance", 0, "--method", "tri", "--out-dir", tmp_path / "x",
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err


def truncated(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def byte_overwritten(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = 0xFF
    path.write_bytes(bytes(data))


def made_a_directory(path):
    path.unlink()
    path.mkdir()


def line_duplicated(path):
    lines = path.read_bytes().splitlines(keepends=True)
    lines.insert(len(lines) // 2, lines[len(lines) // 2])
    path.write_bytes(b"".join(lines))


def field_blanked(path):
    # the middle line's first field, after its indentation, up to a comma or space
    lines = path.read_text().splitlines(keepends=True)
    mid = len(lines) // 2
    lines[mid] = re.sub(r"^( *)[^, \n]*", r"\1", lines[mid], count=1)
    path.write_text("".join(lines))


def deleted(path):
    path.unlink()


class TestCorruptedBenchmarkInput:
    """One broken file among valid ones: each subcommand that reads it runs
    or exits 1 or 2 with one stderr line naming that file, never 3."""

    COMMANDS = {
        "benchmark": [
            "benchmark", "--dataset", "ds/manifest.json", "--model", "model.json",
            "--partition", "p.csv", "--methods", "rcli", "--max-iters", 2, "--workers", 1,
        ],
        "explain": [
            "explain", "--dataset", "ds/manifest.json", "--model", "model.json",
            "--partition", "p.csv", "--instance", 1, "--method", "rcli", "--max-iters", 2,
        ],
        "train": [
            "train", "--dataset", "ds/manifest.json", "--folds", 2, "--neighbors", 1, "--eigs", 2,
        ],
        "ingest": ["ingest", "--listing", "in/listing.csv", "--partition", "in/p.csv"],
        "report": ["report", "--records", "records.csv"],
    }
    # kind: (the subcommand run, the file broken)
    FILES = {
        "manifest": ("benchmark", "ds/manifest.json"),
        "edges": ("benchmark", "ds/graph-0001.edges"),
        "model": ("benchmark", "model.json"),
        "partition": ("benchmark", "p.csv"),
        "explain-manifest": ("explain", "ds/manifest.json"),
        "explain-edges": ("explain", "ds/graph-0001.edges"),
        "explain-model": ("explain", "model.json"),
        "explain-partition": ("explain", "p.csv"),
        "train-manifest": ("train", "ds/manifest.json"),
        "train-edges": ("train", "ds/graph-0001.edges"),
        "ingest-listing": ("ingest", "in/listing.csv"),
        "ingest-matrix": ("ingest", "in/m0.csv"),
        "ingest-partition": ("ingest", "in/p.csv"),
        "report-records": ("report", "records.csv"),
    }
    CORRUPTIONS = {
        "truncated": truncated,
        "byte-0xff": byte_overwritten,
        "directory": made_a_directory,
        "line-duplicated": line_duplicated,
        "field-blanked": field_blanked,
        "deleted": deleted,
    }

    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    @pytest.mark.parametrize("kind", list(FILES))
    def test_exit_is_never_internal(
        self, synth_dir, trained_dir, tmp_path, kind, corruption, capsys, monkeypatch
    ):
        shutil.copytree(synth_dir, tmp_path / "ds")
        shutil.copy(trained_dir / "model.json", tmp_path)
        write_partition(tmp_path / "p.csv")
        (tmp_path / "in").mkdir()
        write_listing(tmp_path / "in")
        (tmp_path / "in" / "p.csv").write_text(
            "node_id,region_name\n" + "".join(f"{v},{'ab'[v // 3]}\n" for v in range(6))
        )
        records = [GOOD_RECORD.replace("tri,d,0,", f"tri,d,{i},") for i in range(5)]
        (tmp_path / "records.csv").write_text("\n".join([RECORDS_HEADER, *records]) + "\n")
        command, name = self.FILES[kind]
        broken = tmp_path / name
        self.CORRUPTIONS[corruption](broken)
        monkeypatch.chdir(tmp_path)
        code = run(*self.COMMANDS[command], "--out-dir", "out")
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, err
        if (kind, corruption) == ("report-records", "field-blanked"):
            assert code == 2  # a blank method would read as a run named ''
        if code:
            lines = err.splitlines()
            assert len(lines) == 1 and broken.name in lines[0], err


class TestDatasetDirectory:
    @pytest.mark.parametrize("command", ["train", "explain", "benchmark"])
    def test_writes_manifest_hashing_the_dataset_manifest(self, synth_dir, tmp_path, command):
        out = tmp_path / "out"
        flags = {
            "train": ["--folds", 5, "--neighbors", 1, "--eigs", 4],
            "explain": ["--whitebox", "--instance", 0, "--method", "tri"],
            "benchmark": ["--whitebox", "--methods", "dat", "--max-iters", 3, "--workers", 1],
        }[command]
        assert run(command, "--dataset", synth_dir, *flags, "--out-dir", out) == 0
        inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
        manifest = synth_dir / "manifest.json"
        assert inputs == {str(manifest): hashlib.sha256(manifest.read_bytes()).hexdigest()}

    def test_records_name_the_dataset_as_its_manifest_does(self, tmp_path):
        # a dotted directory name is the dataset's name whole, not its stem
        data = tmp_path / "synth.v2"
        assert run("synth", "--nodes", 12, "--num-graphs", 10, "--out-dir", data) == 0
        outs = [tmp_path / "dir", tmp_path / "file"]
        for out, dataset in zip(outs, (data, data / "manifest.json")):
            assert run(
                "benchmark", "--dataset", dataset, "--whitebox", "--methods", "dat",
                "--workers", 1, "--out-dir", out,
            ) == 0
        records = [(out / "records.csv").read_text() for out in outs]
        assert records[0] == records[1] and ",synth.v2," in records[0]

    @pytest.mark.parametrize("dataset", [".", "manifest.json"])
    def test_bare_path_inside_the_dataset_names_its_directory(
        self, synth_dir, tmp_path, monkeypatch, dataset
    ):
        monkeypatch.chdir(synth_dir)
        bench, explain = tmp_path / "bench", tmp_path / "explain"
        assert run(
            "benchmark", "--dataset", dataset, "--whitebox", "--methods", "dat",
            "--workers", 1, "--out-dir", bench,
        ) == 0
        assert run(
            "explain", "--dataset", dataset, "--whitebox", "--instance", 0,
            "--method", "dat", "--out-dir", explain,
        ) == 0
        assert (bench / "records.csv").read_text().splitlines()[1].startswith("dat,synth,0,")
        assert json.loads((bench / "aggregates.json").read_text())["datasets"] == ["synth"]
        assert json.loads((explain / "result.json").read_text())["dataset"] == "synth"


class TestUnusablePaths:
    @pytest.mark.parametrize(
        "case", ["out-dir-is-a-file", "out-dir-under-a-file", "dataset-name-too-long"]
    )
    def test_exits_two(self, synth_dir, tmp_path, case, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        dataset, out = synth_dir / "manifest.json", tmp_path / "out"
        if case == "out-dir-is-a-file":
            out = blocker
        elif case == "out-dir-under-a-file":
            out = blocker / "out"
        else:
            dataset = "d" * 5000
        code = run(
            "explain", "--dataset", dataset, "--whitebox",
            "--instance", 0, "--method", "tri", "--out-dir", out,
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "method, flag",
        [
            ("tri", "--max-iters"),
            ("dat", "--max-iters"),
            ("cli", "--max-iters"),
            ("edg", "--max-iters"),
        ],
    )
    def test_negative_option_exits_one_for_every_method(self, synth_dir, tmp_path, method, flag):
        assert run(
            "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--instance", 0, "--method", method, flag, -1, "--out-dir", tmp_path,
        ) == 1

    @pytest.mark.parametrize("command", ["train", "explain", "benchmark"])
    def test_negative_seed_exits_one_naming_it_before_writing(
        self, synth_dir, tmp_path, command, capsys
    ):
        # as synth does: a negative seed would repeat a non-negative one's folds or flips
        flags = self.SEARCH_FLAGS.get(command, [])
        oracle = [] if command == "train" else ["--whitebox"]
        out = tmp_path / "out"
        code = run(
            command, "--dataset", synth_dir / "manifest.json", *oracle, *flags,
            "--seed", -1, "--out-dir", out,
        )
        assert code == 1
        assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_exits_one_before_writing(self, synth_dir, tmp_path, workers, capsys):
        out = tmp_path / "out"
        code = run(
            "benchmark", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--methods", "tri", "--workers", workers, "--out-dir", out,
        )
        assert code == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_method_exits_one_before_writing(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            "benchmark", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--methods", "tri,tri", "--workers", 1, "--out-dir", out,
        )
        assert code == 1
        assert "'tri' is given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_flag(self, synth_dir, tmp_path, capsys):
        for choice in (("--method", "bogus"), ("--method", "cli", "--ranking", "regional")):
            with pytest.raises(SystemExit) as exc:
                run(
                    "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
                    "--instance", 0, *choice, "--out-dir", tmp_path,
                )
            assert exc.value.code == 1

    SEARCH_FLAGS = {
        "explain": ["--instance", 0, "--method", "tri"],
        "benchmark": ["--methods", "tri", "--workers", 1],
    }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["explain", "--whitebox", "--instance", 99, "--method", "tri"],
             "instance index 99 out of range 0..9"),
            (["benchmark", "--whitebox", "--methods", ",", "--workers", 1], "no methods given"),
            (["train", "--folds", 2, "--neighbors", ","], "parameter grid must be nonempty"),
            (["train", "--folds", 2, "--neighbors", 9], "no feasible grid configuration"),
        ],
        ids=["instance-99", "no-methods", "grid-empty", "grid-infeasible"],
    )
    def test_bad_value_exits_one_naming_it_before_writing(
        self, synth_dir, tmp_path, argv, message, capsys
    ):
        command, *flags = argv
        out = tmp_path / "out"
        assert run(command, "--dataset", synth_dir, *flags, "--out-dir", out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_grid_not_integers_is_a_usage_error_before_writing(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run("train", "--dataset", synth_dir, "--neighbors", "1,x", "--out-dir", out)
        assert exc.value.code == 1
        assert "expected comma-separated integers, got '1,x'" in capsys.readouterr().err
        assert not out.exists()

    def test_percentile_above_one_hundred_exits_one_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        listing = write_listing(tmp_path)
        assert run("ingest", "--listing", listing, "--percentile", 101, "--out-dir", out) == 1
        assert "percentile must lie in [0, 100], got 101.0" in capsys.readouterr().err
        assert not out.exists()

    def test_no_oracle_choice_exits_one(self, synth_dir, tmp_path, capsys):
        for command, flags in self.SEARCH_FLAGS.items():
            out = tmp_path / command
            with pytest.raises(SystemExit) as exc:
                run(command, "--dataset", synth_dir / "manifest.json", *flags, "--out-dir", out)
            assert exc.value.code == 1
            assert "one of the arguments --model --whitebox is required" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["explain", "benchmark"])
    def test_model_with_whitebox_exits_one_before_writing(
        self, synth_dir, trained_dir, tmp_path, command, capsys
    ):
        # one oracle per run, so run_manifest.json lists only the files the run read
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(
                command, "--dataset", synth_dir / "manifest.json", "--whitebox",
                "--model", trained_dir / "model.json", *self.SEARCH_FLAGS[command],
                "--out-dir", out,
            )
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()


# Runs the command line with every search replaced by one that hands the graph
# core a node the graph lacks: a plain ValueError that no input can cause.
DEFECT = """
import sys
from densecf import Graph, cli, runner

runner.run_method = lambda *args, **kwargs: Graph(3).has_edge(0, 7)
sys.exit(cli.main(sys.argv[1:]))
"""


class TestDefect:
    @pytest.mark.parametrize(
        "flags",
        [
            ["explain", "--instance", 0, "--method", "tri"],
            ["benchmark", "--methods", "tri", "--workers", 1],
            ["benchmark", "--methods", "tri", "--workers", 2],
        ],
        ids=["explain", "benchmark-serial", "benchmark-pool"],
    )
    def test_exits_three_with_the_traceback_logged(self, synth_dir, tmp_path, flags):
        # a fresh process logs to stderr as the installed command does; a
        # forked pool worker inherits the replaced search
        src = str(Path(densecf.__file__).parents[1])
        env = dict(os.environ, DENSECF_LOG="WARNING")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        command, *rest = flags
        argv = [command, "--dataset", synth_dir, "--whitebox", *rest, "--out-dir", tmp_path]
        done = subprocess.run(
            [sys.executable, "-c", DEFECT, *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 3, done.stderr
        assert "internal error" in done.stderr and "Traceback" in done.stderr
        assert "node 7 outside node range 0..2" in done.stderr
        assert "configuration error" not in done.stderr
