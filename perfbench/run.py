"""Run one densecf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload knn116-dense --seed 0 --seconds 20 --trace 0

The program under test is imported from ``src/`` beside this directory; the
run writes its files under ``.perfbench-work/`` there. Each metric is printed
on its own line with its unit and sample count. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The searches run serially: one BLAS thread, which never exceeds nproc and
# keeps eigvalsh timings free of thread start-up and contention. Set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

# The end-to-end metrics of the result line, those BENCHMARK.json bounds.
# found_frac and failed_frac are printed above it: found_frac is fixed for a
# seed and checked through the records fingerprint, and failures travel as
# "failed" out of "attempted".
RESULT_END_TO_END = (
    "setup_s",
    "searches_per_s",
    "search_ms_p50",
    "search_ms_tail",
    "oracle_calls_per_search",
    "peak_rss_mb",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=int, default=20,
        help="seconds to measure; scales the number of replicates, sized for 20",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "densecf" / "__init__.py").is_file():
        print(f"perfbench: the densecf sources are missing from {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from perfbench import harness

    work = ROOT / ".perfbench-work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcome = harness.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT, work
    )
    (work / "result.json").write_text(json.dumps(outcome, indent=2, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(outcome["environment"], sort_keys=True))
    for name, (value, unit, detail) in outcome["metrics"].items():
        print(f"{name:<48} {value:>14.6g} {unit:<6} {detail}")
    for key, digest in (outcome["fingerprint"] or {}).items():
        print(f"{key:<48} {digest}")
    for problem in outcome["problems"]:
        print(f"problem: {problem}")
    names = outcome["metrics"] if args.trace else RESULT_END_TO_END
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in outcome["metrics"].items()
                    if name in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
