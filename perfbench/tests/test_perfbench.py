"""Tests for the benchmark harness itself, on shrunken workloads."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _shrunk(name: str, tmp_path: Path) -> workloads.Workload:
    """The named workload cut down to one world, with its report digest."""
    small = dataclasses.replace(workloads.WORKLOADS[name], world_seeds=range(1, 2), per_world=8)
    in_dir = tmp_path / f"inputs-{name}"
    workloads.write_inputs(small, 0, in_dir)
    records, worlds = workloads.load_inputs(in_dir)
    report = workloads.run_pass(small, records, worlds)
    digest = workloads.report_digest(report, tmp_path / "report.json")
    return dataclasses.replace(small, report_sha256=digest)


@pytest.fixture(scope="module")
def shrunk(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("shrunk")
    return {name: _shrunk(name, tmp_path) for name in workloads.WORKLOADS}


@pytest.fixture
def quiet_dirs(tmp_path, monkeypatch):
    """Send the run's files to a temporary directory."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    return tmp_path


def _inputs(tmp_path: Path, name: str = "pinned"):
    workload = _shrunk(name, tmp_path)
    records, worlds = workloads.load_inputs(tmp_path / f"inputs-{name}")
    return workload, records, worlds


def _report_bytes(workload, records, worlds, path: Path) -> bytes:
    report = workloads.run_pass(workload, records, worlds)
    workloads.report_digest(report, path)
    return path.read_bytes()


def test_wrappers_are_installed_and_restored_even_on_error():
    targets = spans.TARGETS + spans.LOAD_TARGETS
    originals = [(t.resolve(), t.attr, t.resolve().__dict__[t.attr]) for t in targets]
    tracer = spans.Tracer(targets)
    with pytest.raises(RuntimeError, match="boom"):
        with tracer:
            for owner, attr, original in originals:
                assert owner.__dict__[attr] is not original, attr
            raise RuntimeError("boom")
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr


def test_traced_runs_repeat_calls_exactly_and_keep_report_bytes(tmp_path):
    workload, records, worlds = _inputs(tmp_path, "room_level")
    untraced = _report_bytes(workload, records, worlds, tmp_path / "untraced.json")
    summaries = []
    for i in range(2):
        with spans.Tracer() as tracer:
            traced = _report_bytes(workload, records, worlds, tmp_path / f"traced{i}.json")
        assert traced == untraced
        summaries.append(tracer.summary(workers=1))
    calls = [{k: v for k, v in s.items() if k.endswith(".calls")} for s in summaries]
    assert calls[0] == calls[1]
    assert calls[0]["parsing.parse_question.calls"] == 1.0
    assert calls[0]["agent.room_level_plan.calls"] > 0
    assert calls[0]["rules.next_plan.calls"] == 0


def test_pool_spans_are_parented_to_the_dispatching_call(tmp_path):
    workload, records, worlds = _inputs(tmp_path)
    with spans.Tracer() as tracer:
        workloads.run_pass(workload, records, worlds, parallel=2)
    (bench_span,) = [s for s in tracer.spans if s[3] == spans.BENCHMARK]
    episodes = [s for s in tracer.spans if s[3] == spans.EPISODE]
    assert len(episodes) == len(records)
    assert all(s[1] == bench_span[0] for s in episodes)
    assert len({s[2] for s in episodes}) == len(records)
    self_times = tracer.self_times()
    assert all(t >= 0 for t in self_times.values())
    assert 0 < tracer.summary(workers=2)["evaluation.worker_busy_frac"] <= 1.0


def test_fastest_runs_keeps_each_episodes_fastest_times():
    passes = [[3.0, 5.0, 1.0], [2.0, 4.0, 6.0], [1.0, 2.0, 7.0]]
    assert run.fastest_runs(passes, keep=1) == [1.0, 2.0, 1.0]
    assert run.fastest_runs(passes, keep=2) == [1.0, 2.0, 2.0, 4.0, 1.0, 6.0]


@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_line_has_the_same_format_for_every_workload(
    trace, shrunk, quiet_dirs, monkeypatch, capsys
):
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    for name in workloads.WORKLOADS:
        monkeypatch.setitem(workloads.WORKLOADS, name, shrunk[name])
        argv = ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == list(wanted), name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        if trace:
            sidecar = quiet_dirs / "out" / f"spans-{name}-s5.jsonl"
            last = json.loads(sidecar.read_text(encoding="utf-8").splitlines()[-1])
            assert last["kind"] == "summary" and set(wanted) <= set(last)


def test_wrong_report_fails_the_run(shrunk, quiet_dirs, monkeypatch, capsys):
    broken = dataclasses.replace(shrunk["pinned"], report_sha256="0" * 64)
    monkeypatch.setitem(workloads.WORKLOADS, "pinned", broken)
    assert run.main(["--workload", "pinned", "--seconds", "0"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out.strip().splitlines()[-1])["correct"] is False
    assert "report sha256" in captured.err


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pinned", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
