"""End-to-end and per-layer benchmark for stepqa's episode loop.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload pinned --seed 1 --seconds 50 --trace 0

One run generates the workload's world and dataset files from the seed,
loads them the way ``stepqa bench`` does, and runs
``evaluation.run_benchmark`` over every record again and again until
``--seconds`` have passed. Every pass must produce the workload's
recorded report, byte for byte, and no episode may fail; otherwise the
run prints ``"correct": false`` and exits with code 1.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` untraced and traced passes
alternate; the traced ones wrap each layer's public functions (see
spans.py), the spans of one traced pass and a per-layer summary go to a
JSONL sidecar under perfbench/.out/, and the last line carries the
per-layer metrics, including the tracing slowdown.

Timings on a shared host drift with its load, so the timing metrics use
the fastest repetitions: throughput from each episode's fastest run plus
the smallest per-pass time outside episodes, episode latency from each
episode's two fastest runs, set-up time from the fastest of the set-ups
timed between passes. A fixed pure-Python loop
is timed before and after every run and printed next to the metrics, so
a slowed host shows up in the results.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / ".out"
WORK_DIR = BENCH_DIR / ".work"

SETUP_REPS_BEFORE_PASSES = 3
FASTEST_RUNS_PER_EPISODE = 2


def import_program() -> None:
    """Put the checkout's own sources first on the path, or refuse to run."""
    src = ROOT / "src"
    if not (src / "stepqa" / "__init__.py").is_file():
        raise SystemExit(f"error: stepqa sources not found under {src}")
    sys.path.insert(0, str(src))
    import stepqa

    if Path(stepqa.__file__).resolve().parent != (src / "stepqa").resolve():
        raise SystemExit(f"error: imported stepqa from {stepqa.__file__}, not from {src}")


def host_probe_ms() -> float:
    """Fastest of five timings of a fixed pure-Python loop, in ms."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


class EpisodeTimer:
    """Times every run_episode call made through ``stepqa.evaluation``.

    Passes are serial, so the i-th time of every pass belongs to the same
    record.
    """

    def __init__(self) -> None:
        self.current: list[float] = []

    def __enter__(self) -> EpisodeTimer:
        from stepqa import evaluation

        self._original = original = evaluation.run_episode
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = original(*args, **kwargs)
            self.current.append(clock() - start)
            return result

        evaluation.run_episode = timed
        return self

    def __exit__(self, *exc: object) -> None:
        from stepqa import evaluation

        evaluation.run_episode = self._original

    def take(self) -> list[float]:
        out, self.current = self.current, []
        return out


def fastest_runs(passes: list[list[float]], keep: int) -> list[float]:
    """Each episode's ``keep`` fastest times across passes, pooled."""
    return [t for times in zip(*passes) for t in sorted(times)[:keep]]


class Gate:
    """Checks every pass's report and counts attempted and failed episodes."""

    def __init__(self, expected_digest: str, scratch: Path) -> None:
        self.expected = expected_digest
        self.report_path = scratch / "report.json"
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, report: dict[str, Any], n: int) -> None:
        import workloads

        digest = workloads.report_digest(report, self.report_path)
        if digest != self.expected:
            self.errors.append(f"{label}: report sha256 {digest} != recorded {self.expected}")
        if report["overall"]["n"] != n:
            self.errors.append(f"{label}: report has {report['overall']['n']} rows for {n} records")
        failed = report["overall"]["failed"]
        if failed:
            self.errors.append(f"{label}: {failed} of {n} episodes failed")
        self.attempted += n
        self.failed += failed


def timed_setup(in_dir: Path) -> float:
    """Wall time of loading every world file plus the dataset."""
    import workloads

    gc.collect()
    start = time.perf_counter()
    workloads.load_inputs(in_dir)
    return time.perf_counter() - start


def timed_pass(
    workload: Any, records: list[Any], worlds: dict[str, Any], gate: Gate, label: str
) -> tuple[float, dict[str, Any]]:
    """Wall time of one run_benchmark pass, whose report the gate checks."""
    import workloads

    gc.collect()
    start = time.perf_counter()
    report = workloads.run_pass(workload, records, worlds)
    wall = time.perf_counter() - start
    gate.check(label, report, len(records))
    return wall, report


def peak_rss_mb(workload: Any, in_dir: Path) -> float:
    """Peak resident memory of a fresh process that runs one pass."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--rss-child", str(in_dir), "--workload", workload.name],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def rss_child(workload: Any, in_dir: Path) -> None:
    """Load and run one pass, then print this process's peak RSS in MB.

    VmHWM is read instead of ru_maxrss because on Linux ru_maxrss keeps
    the high-water mark of the forked parent image across exec.
    """
    import workloads

    records, worlds = workloads.load_inputs(in_dir)
    workloads.run_pass(workload, records, worlds)
    status = Path("/proc/self/status").read_text(encoding="utf-8")
    kb = next(line.split()[1] for line in status.splitlines() if line.startswith("VmHWM:"))
    print(int(kb) / 1024.0)


def end_to_end(
    workload: Any, records: list[Any], worlds: dict[str, Any],
    seconds: float, gate: Gate, in_dir: Path,
) -> dict[str, float]:
    """Timed passes until ``seconds`` pass, with one set-up timed before each.

    Set-up is timed between passes, not all at the start, so its fastest
    repetition can come from any part of the run.
    """
    setups = [timed_setup(in_dir) for _ in range(SETUP_REPS_BEFORE_PASSES)]
    walls: list[float] = []
    episode_times: list[list[float]] = []
    with EpisodeTimer() as timer:
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            setups.append(timed_setup(in_dir))
            wall, report = timed_pass(workload, records, worlds, gate, f"pass {len(walls) + 1}")
            walls.append(wall)
            episode_times.append(timer.take())
    n = len(records)
    samples = fastest_runs(episode_times, FASTEST_RUNS_PER_EPISODE)
    cuts = statistics.quantiles(samples, n=100)
    # the fastest pass this run saw evidence for: every episode at its
    # fastest, plus the smallest time any pass spent outside episodes
    episodes_s = sum(fastest_runs(episode_times, 1))
    overhead_s = min(wall - sum(times) for wall, times in zip(walls, episode_times))
    rows = report["rows"]
    print(
        f"passes {len(walls)}  set-ups {len(setups)}  latency samples {len(samples)}  "
        f"beyond p99 {sum(1 for s in samples if s > cuts[98])}  "
        f"fastest whole pass {n / min(walls):.1f} episodes/s"
    )
    return {
        "episodes_per_s": n / (episodes_s + overhead_s),
        "episode_us_p50": cuts[49] * 1e6,
        "episode_us_p99": cuts[98] * 1e6,
        "setup_s": min(setups),
        "peak_rss_mb": peak_rss_mb(workload, in_dir),
        "score": report["overall"]["score"],
        "mean_plans": sum(r["plans"] for r in rows) / n,
        "mean_steps": sum(r["steps"] for r in rows) / n,
        "ok_frac": 1.0 - report["overall"]["failed"] / n,
    }


def per_layer(
    workload: Any, records: list[Any], worlds: dict[str, Any], seconds: float,
    gate: Gate, in_dir: Path, sidecar: Path,
) -> dict[str, float]:
    """Alternate untraced and traced passes; summarize the traced ones.

    Each traced pass gets its own tracer and each per-layer metric is the
    median over those passes. The sidecar holds the first traced pass's
    spans and the summary.
    """
    import spans
    import workloads

    with spans.Tracer(spans.LOAD_TARGETS) as loader:
        workloads.load_inputs(in_dir)
    untraced: list[float] = []
    traced: list[float] = []
    summaries: list[dict[str, float]] = []
    first: spans.Tracer | None = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(timed_pass(workload, records, worlds, gate, f"untraced {len(untraced) + 1}")[0])
        tracer = spans.Tracer()
        with tracer:
            traced.append(timed_pass(workload, records, worlds, gate, f"traced {len(traced) + 1}")[0])
        summaries.append(tracer.summary(workers=1))
        first = first or tracer
    summary = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    summary[f"{spans.LOAD_WORLD}.self_us"] = loader.mean_self_us(spans.LOAD_WORLD)
    summary["tracing.episodes_per_s"] = len(records) / min(traced)
    summary["tracing.untraced_episodes_per_s"] = len(records) / min(untraced)
    summary["tracing.slowdown"] = min(traced) / min(untraced)
    first.write_jsonl(sidecar, summary)
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; spans of one traced pass in {sidecar}")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.rss_child:
        rss_child(workload, Path(args.rss_child))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    OUT_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    probe_before = host_probe_ms()
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        in_dir = Path(tmp) / "inputs"
        workloads.write_inputs(workload, args.seed, in_dir)
        records, worlds = workloads.load_inputs(in_dir)
        gate = Gate(workload.report_sha256, Path(tmp))

        # warm-up, then the report must not change when the evaluation
        # layer fans out to two workers (acceptance criterion 8)
        gate.check("serial warm-up", workloads.run_pass(workload, records, worlds), len(records))
        gate.check(
            "parallel=2", workloads.run_pass(workload, records, worlds, parallel=2), len(records)
        )

        if args.trace:
            sidecar = OUT_DIR / f"spans-{workload.name}-s{args.seed}.jsonl"
            metrics = per_layer(workload, records, worlds, args.seconds, gate, in_dir, sidecar)
        else:
            metrics = end_to_end(workload, records, worlds, args.seconds, gate, in_dir)
    probe_after = host_probe_ms()

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"host_probe_ms  before {probe_before:.3f}  after {probe_after:.3f}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host_probe_ms": [probe_before, probe_after],
        "correct": not gate.errors,
        "metrics": {} if gate.errors else metrics,
    }
    with (OUT_DIR / "results.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    if gate.errors:
        for error in gate.errors:
            print(f"incorrect: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": gate.attempted, "failed": gate.failed, "metrics": {}}))
        return 1
    print(f"report_sha256  {workload.report_sha256}  (matches the recorded digest)")
    for name, value in sorted(metrics.items()):
        print(f"  {name:<40} {value:>14.4f} {units.get(name, '')}")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    result = {
        "correct": True,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
