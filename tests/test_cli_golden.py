"""Golden CLI run: one fixed script of ``densecf`` invocations over small
inputs, run in-process through ``cli.main``, and the digest of a
``sha256sum``-style listing of everything it produced: every file written
(``run_manifest.json``'s timestamp masked, the run directory written as
``<root>``), and each invocation's exit code, stdout and stderr.

``tests/test_golden_outputs.py`` pins the library's records and aggregates;
this pins what the CLI writes around them. A change that is meant to leave
CLI output alone must keep the digest; a change that alters it on purpose
re-records it and says which listing lines moved.
"""

import hashlib
import re

import numpy as np

from densecf import METHODS
from densecf.cli import main

GOLDEN_LISTING_SHA256 = "4c6c182daf7387c52c1e12d06a9f59dc5602de8e1a19d73f2c10853e773c3f5d"

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(root):
    """A node partition of the synthetic data, three correlation matrices
    with their listing and partition, and a records file with no header."""
    lines = [f"{v},{'front' if v < 12 else 'back'}" for v in range(24)]
    (root / "part.csv").write_text("node_id,region_name\n" + "\n".join(lines) + "\n")
    rng = np.random.default_rng(7)
    for i in range(3):
        base = rng.uniform(-1, 1, size=(8, 8))
        m = (base + base.T) / 2
        np.fill_diagonal(m, 1.0)
        rows = (",".join(repr(float(x)) for x in row) for row in m)
        (root / f"m{i}.csv").write_text("\n".join(rows) + "\n")
    (root / "ipart.csv").write_text(
        "node_id,region_name\n" + "".join(f"{v},r{v % 2}\n" for v in range(8))
    )
    (root / "listing.csv").write_text(
        "file,label,name\n" + "".join(f"m{i}.csv,{i % 2},subject{i}\n" for i in range(3))
    )
    (root / "bad-records.csv").write_text("nope\n")


def script(root):
    """(name, argv) of every invocation, in order; every path is absolute."""
    data, model = root / "d24" / "manifest.json", root / "model" / "model.json"
    run = ["--max-iters", 25, "--seed", 3]
    steps = [
        ("synth", ["synth", "--nodes", 24, "--num-graphs", 8, "--subgroup-size", 5,
                   "--cliques", 4, "--seed", 11, "--out-dir", root / "d24"]),
        ("train", ["train", "--dataset", data, "--folds", 4, "--neighbors", "1,3",
                   "--eigs", "4,8", "--seed", 0, "--out-dir", root / "model"]),
    ]
    for oracle, flags in (("whitebox", ["--whitebox"]), ("model", ["--model", model])):
        for i, method in enumerate(METHODS):
            name = f"explain-{oracle}-{method}"
            steps.append((name, [
                "explain", "--dataset", data, *flags, "--instance", i % 8, "--method", method,
                "--partition", root / "part.csv", *run, "--out-dir", root / name,
            ]))
    for oracle, flags, workers in (("whitebox", ["--whitebox"], 1), ("model", ["--model", model], 2)):
        name = f"benchmark-{oracle}"
        steps.append((name, [
            "benchmark", "--dataset", data, *flags, "--methods", ",".join(METHODS),
            "--partition", root / "part.csv", *run, "--workers", workers, "--out-dir", root / name,
        ]))
    steps += [
        ("report", ["report", "--records", root / "benchmark-model" / "records.csv",
                    "--out-dir", root / "report"]),
        ("ingest", ["ingest", "--listing", root / "listing.csv", "--percentile", 75,
                    "--partition", root / "ipart.csv", "--out-dir", root / "ingested"]),
        ("error-rcli-without-partition", [
            "explain", "--dataset", data, "--whitebox", "--instance", 0, "--method", "rcli",
            "--out-dir", root / "error-rcli"]),
        ("error-missing-model", [
            "benchmark", "--dataset", data, "--model", root / "missing.json", "--methods", "tri",
            "--workers", 1, "--out-dir", root / "error-model"]),
        ("error-malformed-records", [
            "report", "--records", root / "bad-records.csv", "--out-dir", root / "error-report"]),
    ]
    return steps


def test_cli_outputs_match_recorded_digest(tmp_path, capsys):
    root = tmp_path.resolve()
    marker = str(root).encode()
    write_inputs(root)
    inputs = set(root.iterdir())
    lines = []
    for name, argv in script(root):
        code = main([str(a) for a in argv])
        out, err = capsys.readouterr()
        lines.append(f"exit {code}  <{name}>")
        lines.append(f"{sha256(out.encode().replace(marker, b'<root>'))}  <{name}> stdout")
        lines.append(f"{sha256(err.encode().replace(marker, b'<root>'))}  <{name}> stderr")
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p not in inputs):
        data = path.read_bytes().replace(marker, b"<root>")
        if path.name == "run_manifest.json":
            data = _TIMESTAMP.sub(b'"timestamp": "<masked>"', data)
        lines.append(f"{sha256(data)}  {path.relative_to(root).as_posix()}")
    listing = "".join(line + "\n" for line in lines)
    assert sha256(listing.encode()) == GOLDEN_LISTING_SHA256, listing
