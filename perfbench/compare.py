"""Compare two sets of benchmark records, metric by metric.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``--trace 0`` records ``run.py`` writes to
``.perfbench/records``, one per run.  For every workload and end-to-end
metric this prints both sides' medians and the change as a share of the
base median, flagged when it is worse than the metric's bound in
``BENCHMARK.json``.  Records measured on different hosts, Python or
NumPy versions, or backends are refused: exit code 2.  Exit code 1 means
some metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            records.append(record)
    return records


def compare(base: list[dict], new: list[dict], end_to_end: list[dict]) -> int:
    fingerprints = {
        json.dumps(record["fingerprint"], sort_keys=True) for record in base + new
    }
    if len(fingerprints) > 1:
        print("refusing to compare records from different hosts or builds:")
        for fingerprint in sorted(fingerprints):
            print(f"  {fingerprint}")
        return 2
    worse = False
    workloads = sorted({record["workload"] for record in base + new})
    for workload in workloads:
        sides = [
            [record for record in records if record["workload"] == workload]
            for records in (base, new)
        ]
        print(f"{workload}: {len(sides[0])} base runs, {len(sides[1])} new runs")
        if not all(sides):
            continue
        for metric in end_to_end:
            name = metric["name"]
            base_median, new_median = (
                statistics.median(record["metrics"][name] for record in side)
                for side in sides
            )
            change = (new_median - base_median) / base_median
            worsening = change if metric["better"] == "lower" else -change
            flag = ""
            if worsening > metric["bound"]:
                flag = f"  WORSE than bound {metric['bound']}"
                worse = True
            print(
                f"  {name:14s} {base_median:12.6g} -> {new_median:12.6g} "
                f"{metric['unit']:5s} {change:+8.2%}{flag}"
            )
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = (load_records(Path(arg)) for arg in args)
    return compare(base, new, benchmark["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
