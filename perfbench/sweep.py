"""Run a workload on several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workload knn116-dense --seeds 0-9 --seconds 20
    python3 perfbench/sweep.py --workload knn116-dense --seeds 0-9 --record LABEL

Each seed runs as its own process, one after another. For every metric the
summary gives the median, the first and third quartiles and the spread
(quartile distance over median), with quartiles as
``statistics.quantiles(values, n=4)`` gives them. ``--record LABEL`` adds the
summary to ``perfbench/baseline.json`` under that label, and stores each
seed's total charged oracle calls and records fingerprint in
``perfbench/expected.json``, which every later run of that workload, length
and seed must reproduce.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
EXPECTED = HERE / "expected.json"
WORK = HERE.parent / ".perfbench-work"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--record", help="label under which to add the summary to baseline.json")
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    outcomes: dict[str, dict] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ],
            capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs failed their checks", file=sys.stderr)
            return 1
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {shown}")
        # every metric the run printed, the unbounded outcome metrics included
        work = WORK / f"{args.workload}-seed{seed}-trace0"
        details = json.loads((work / "result.json").read_text())
        outcomes[str(seed)] = {
            "oracle_calls": details["oracle_calls"],
            "records_sha256": details["fingerprint"]["records_sha256"],
        }
        for name, (value, unit, _) in details["metrics"].items():
            values.setdefault(name, []).append(value)
            units[name] = unit

    summary = {name: dict(unit=units[name], **summarise(v)) for name, v in values.items()}
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:<48} median {s['median']:<12.6g} {s['unit']:<6} spread {spread}")
    if args.record:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        entry = baseline.setdefault(args.record, {})
        entry[args.workload] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "environment": {k: v for k, v in details["environment"].items() if k != "seed"},
            "metrics": summary,
        }
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        expected.setdefault(args.workload, {}).setdefault(str(args.seconds), {}).update(outcomes)
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
