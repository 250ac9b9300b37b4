"""Run the benchmark over many seeds and report how steady each metric is.

Usage, from the root of the repository:

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/.out/set1.json
    python3 perfbench/repeat.py --seeds 1-10 --against perfbench/.out/set1.json

Each seed runs every chosen workload once, in forward order for even
repeats and reverse order for odd ones, so a host that slows during the
series does not always hit the same workload. For every metric the
report gives the median and the quartile spread, (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json. Metrics that must repeat
exactly (the report-derived ones and every ``.calls``) are checked for
that. With ``--against`` each median is also compared with an earlier
set's median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
EXACT = {"score", "mean_plans", "mean_steps", "ok_frac"}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    probe = next((line for line in lines if line.startswith("host_probe_ms")), "")
    return {"workload": workload, "seed": seed, "probe": probe, **json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (q3 - q1) / median, as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def summarize(
    runs: list[dict[str, Any]], bench: dict[str, Any], against: list[dict[str, Any]] | None
) -> bool:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        print(f"\n{workload}: {len(mine)} runs")
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            median, rel = spread(values)
            bound = bounds.get(name)
            note = ""
            if name in EXACT or name.endswith(".calls"):
                if len(set(values)) != 1:
                    note, ok = "NOT EXACT", False
            elif bound is not None and name != "setup_s":
                if rel > bound:
                    note, ok = "OVER BOUND", False
                elif rel > bound / 3:
                    note = "over a third of bound"
            if against is not None and bound is not None:
                before = [r["metrics"][name]["value"] for r in against if r["workload"] == workload]
                first = statistics.median(before)
                worse = (median - first) / first
                if name in higher:
                    worse = -worse
                note += f"  vs earlier median {first:.6g} ({worse:+.3f} worse)"
                if worse > bound:
                    note, ok = note + " OVER BOUND", False
            shown = f"bound {bound}" if bound is not None else ""
            print(f"  {name:<40} median {median:>14.6g}  spread {rel:7.4f}  {shown:<12} {note}")
    return ok


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write every run's result here")
    parser.add_argument("--against", default=None, help="earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    runs: list[dict[str, Any]] = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in workloads if i % 2 == 0 else workloads[::-1]:
            result = run_once(workload, seed, args.seconds, args.trace)
            print(f"{workload} seed {seed}: correct={result['correct']}  {result['probe']}", flush=True)
            runs.append(result)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    against = json.loads(Path(args.against).read_text()) if args.against else None
    ok = summarize(runs, bench, against) and all(r["correct"] for r in runs)
    print("\nall steady" if ok else "\nNOT steady or not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
