"""The benchmark's outputs at ``--seconds 1``, seed 0, pinned: every search
checks out, and the charged calls and the digests of the records and
aggregates files stay the same. perfbench/ is read, never changed; each run
writes only under its own temporary directory."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINNED = {  # workload: (charged oracle calls, records sha256, aggregates sha256)
    "knn116-dense": (
        192,
        "3db5d7f685f499f64caceff6e3b44d1f0ae87680e732d62fccfa9a9d2a56e8f2",
        "7cb4bce5c1dca9ebd5a0d7c31d73df03b15470ed08986c6f172c883f831233eb",
    ),
    "knn116-refine": (
        4744,
        "3216311b02cfb3df9caf42291c2351f6d146bca4f3a054254d8b1ee062a1009b",
        "48d9b48383924e6be5824611d6ac4ebc0162839c4d408d7b3e96f2a8abb08462",
    ),
    "whitebox60-2sg": (
        6532,
        "6fccb4dce99b1c17ca048b0a249bf33799e395702767b9917bf9b407f6ff255f",
        "16153efcd454c817c5ec0f85f5fc488571c43a354ee8c3a13f5ad7d4f1cb3fa0",
    ),
}


@pytest.mark.parametrize("workload", PINNED)
def test_one_second_run_reproduces_the_pinned_outputs(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT))
    harness = importlib.import_module("perfbench.harness")
    workloads = importlib.import_module("perfbench.workloads")
    outcome = harness.run(workloads.WORKLOADS[workload], 0, 1, False, ROOT, tmp_path)
    fingerprint = outcome["fingerprint"]
    assert outcome["failed"] == 0, outcome["problems"]
    assert (
        outcome["oracle_calls"],
        fingerprint["records_sha256"],
        fingerprint["aggregates_sha256"],
    ) == PINNED[workload]
