import json

import numpy as np
import pytest

from densecf.cli import main


def run(*argv):
    return main([str(a) for a in argv])


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

    def test_too_many_folds_exits_one(self, synth_dir, tmp_path):
        assert run(
            "train", "--dataset", synth_dir / "manifest.json", "--folds", 99,
            "--out-dir", tmp_path,
        ) == 1

    def test_missing_dataset_exits_two(self, tmp_path):
        assert run(
            "train", "--dataset", tmp_path / "nope" / "manifest.json", "--out-dir", tmp_path,
        ) == 2


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
        partition = tmp_path / "partition.csv"
        lines = ["node_id,region_name"] + [f"{i},{'front' if i < 12 else 'back'}" for i in range(24)]
        partition.write_text("\n".join(lines) + "\n")
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

    def test_format_json_only(self, synth_dir, tmp_path):
        out = tmp_path / "fj"
        assert run(
            "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
            "--instance", 0, "--method", "cli", "--format", "json", "--out-dir", out,
        ) == 0
        assert (out / "result.json").exists()
        assert not (out / "edits.csv").exists()

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


class TestIngestCommand:
    def test_ingest_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        for i in range(3):
            base = rng.uniform(-1, 1, size=(6, 6))
            m = (base + base.T) / 2
            np.fill_diagonal(m, 1.0)
            with open(tmp_path / f"m{i}.csv", "w") as fh:
                for row in m:
                    fh.write(",".join(repr(float(x)) for x in row) + "\n")
        listing = tmp_path / "listing.csv"
        listing.write_text("file,label\n" + "".join(f"m{i}.csv,{i % 2}\n" for i in range(3)))
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
        "text", ["file,label\nm.csv,2\n", "label,file\n0\n"], ids=["label-2", "no-file"]
    )
    def test_bad_listing_row_exits_two(self, tmp_path, text, capsys):
        (tmp_path / "m.csv").write_text("1,0.5\n0.5,1\n")
        listing = tmp_path / "listing.csv"
        listing.write_text(text)
        assert run("ingest", "--listing", listing, "--out-dir", tmp_path / "x") == 2
        assert "listing.csv:2" in capsys.readouterr().err


class TestMalformedManifest:
    @pytest.mark.parametrize(
        "manifest",
        [
            [1, 2],
            {"graphs": {"file": "g.edges"}},
            {"graphs": ["x"]},
            {"graphs": [{"label": 0}]},
        ],
        ids=["top-level-not-object", "graphs-not-list", "entry-not-object", "entry-without-file"],
    )
    def test_exits_two(self, tmp_path, manifest, capsys):
        if isinstance(manifest, dict):
            header = {"format": "densecf-dataset", "version": 1, "node_ids": ["0", "1"]}
            manifest = {**header, **manifest}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code = run(
            "explain", "--dataset", path, "--whitebox",
            "--instance", 0, "--method", "tri", "--out-dir", tmp_path / "x",
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err


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
        ],
        ids=["invalid-json", "list", "missing-key", "not-utf8", "wrong-format"],
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

    def test_unknown_method_flag(self, synth_dir, tmp_path, capsys):
        for choice in (("--method", "bogus"), ("--method", "cli", "--ranking", "regional")):
            with pytest.raises(SystemExit) as exc:
                run(
                    "explain", "--dataset", synth_dir / "manifest.json", "--whitebox",
                    "--instance", 0, *choice, "--out-dir", tmp_path,
                )
            assert exc.value.code == 1

    def test_no_oracle_choice_exits_one(self, synth_dir, tmp_path):
        assert run(
            "explain", "--dataset", synth_dir / "manifest.json",
            "--instance", 0, "--method", "tri", "--out-dir", tmp_path,
        ) == 1
