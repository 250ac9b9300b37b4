"""Span tracer that wraps stepqa's layer functions from outside the package.

Each wrapper is installed on the attribute its caller looks up: a
module-level function is replaced in the module that imported it (the
agent calls ``stepqa.agent.next_plan``, not ``stepqa.rules.next_plan``),
and a method is replaced on its class. ``Tracer.restore`` puts every
original back, in reverse order of installation.

A timed target records one span per call: span id, parent span id,
episode id, name, start and end. A counted target only bumps a counter,
for hot leaves whose timing would distort the run. Spans stay in memory
until ``write_jsonl`` is called once at the end.

Self time is a span's duration minus the union of its children's
intervals, so overlapping children (episodes on a thread pool under one
``run_benchmark`` span) are counted once. A span opened on a thread
with no open span of its own is parented to the outermost span open in
the process, which links pool workers to the dispatching call.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

EPISODE = "agent.run_episode"
BENCHMARK = "evaluation.run_benchmark"
LOAD_WORLD = "environment.load_world_truth"


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner`` is a dotted module path, optionally
    followed by ``:Class``."""

    metric: str
    owner: str
    attr: str
    timed: bool = True

    def resolve(self) -> Any:
        module_name, _, class_name = self.owner.partition(":")
        obj = importlib.import_module(module_name)
        return getattr(obj, class_name) if class_name else obj


def _normalize_label_targets() -> list[Target]:
    modules = ("scene_graph", "parsing", "agent", "environment", "dataset")
    return [
        Target("scene_graph.normalize_label", f"stepqa.{m}", "normalize_label", timed=False)
        for m in modules
    ]


TARGETS: tuple[Target, ...] = (
    Target(BENCHMARK, "stepqa.evaluation", "run_benchmark"),
    Target("evaluation.judge", "stepqa.evaluation:MockJudge", "score"),
    Target(EPISODE, "stepqa.evaluation", "run_episode"),
    Target("parsing.parse_question", "stepqa.agent", "parse_question"),
    Target("rules.next_plan", "stepqa.agent", "next_plan"),
    Target("agent.room_level_plan", "stepqa.agent", "room_level_plan"),
    Target("agent.ingest_observation", "stepqa.agent", "ingest_observation"),
    Target("agent.check_feedback", "stepqa.agent", "check_feedback"),
    Target("agent.secondary_perception", "stepqa.agent", "secondary_perception", timed=False),
    Target("agent.extract_answer", "stepqa.agent", "extract_answer"),
    Target("llm_planner.fallback_plan", "stepqa.llm_planner:LookupPlanner", "fallback_plan"),
    Target(
        "llm_planner.simplify_question",
        "stepqa.llm_planner:LookupPlanner",
        "simplify_question",
        timed=False,
    ),
    Target(
        "llm_planner.classify_attribute",
        "stepqa.llm_planner:LookupPlanner",
        "classify_attribute",
        timed=False,
    ),
    Target("environment.prior_graph", "stepqa.environment:WorldTruth", "prior_graph"),
    Target("environment.reset", "stepqa.environment:Environment", "reset"),
    Target("environment.execute", "stepqa.environment:Environment", "execute"),
    Target("scene_graph.resolve_label", "stepqa.scene_graph:SceneGraph", "resolve_label"),
    Target("scene_graph.find_nodes", "stepqa.scene_graph:SceneGraph", "find_nodes"),
    Target("scene_graph.descendants", "stepqa.scene_graph:SceneGraph", "descendants"),
    *_normalize_label_targets(),
)

# Set-up is traced on its own, so its label normalization does not count
# against episodes.
LOAD_TARGETS: tuple[Target, ...] = (Target(LOAD_WORLD, "stepqa.environment", "load_world_truth"),)

# Planners whose self time is also reported as one sum, because each of
# them is never called on some workload.
PLANNERS = ("rules.next_plan", "agent.room_level_plan", "llm_planner.fallback_plan")


class Tracer:
    """Installs span and counter wrappers and summarizes what they saw."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.episodes: list[tuple[int, int, int]] = []  # (plans, feedback ok, fallback)
        self._counters: dict[str, itertools.count] = {}
        self._ids = itertools.count(1)
        self._episode_ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._saved: list[tuple[Any, str, Any]] = []

    # -- install and restore ---------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target in self.targets:
            owner = target.resolve()
            original = owner.__dict__[target.attr]
            if target.timed:
                wrapper = self._span_wrapper(target.metric, original)
            else:
                counter = self._counters.setdefault(target.metric, itertools.count())
                wrapper = _count_wrapper(counter, original)
            self._saved.append((owner, target.attr, original))
            setattr(owner, target.attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def _span_wrapper(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        episode = name == EPISODE

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = local.__dict__
            outer = state.get("span", 0)
            parent = outer or self._root
            span = next(ids)
            if not parent:
                self._root = span
            if episode:
                outer_episode = state.get("episode", 0)
                state["episode"] = next(self._episode_ids)
            episode_id = state.get("episode", 0)
            state["span"] = span
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                state["span"] = outer
                if self._root == span:
                    self._root = 0
                if episode:
                    state["episode"] = outer_episode
                spans.append((span, parent, episode_id, name, start, end))
            if episode:
                events = result.trace.events
                self.episodes.append(
                    (
                        len(events),
                        sum(1 for e in events if e.feedback),
                        sum(1 for e in events if e.plan.get("tool") == "fallback"),
                    )
                )
            return result

        return wrapper

    # -- results ---------------------------------------------------------

    def count(self, name: str) -> int:
        """Calls seen so far by a counted (untimed) target."""
        # itertools.count shows its position only through repr: "count(N)"
        return int(repr(self._counters[name])[6:-1])

    def mean_self_us(self, name: str) -> float:
        """Mean self time per call of one span name, in microseconds."""
        self_time = self.self_times()
        values = [self_time[s[0]] for s in self.spans if s[3] == name]
        return sum(values) / len(values) * 1e6

    def self_times(self) -> dict[int, float]:
        """Self time of every span, keyed by span id."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _span, parent, _ep, _name, start, end in self.spans:
            if parent:
                children[parent].append((start, end))
        out: dict[int, float] = {}
        for span, _parent, _ep, _name, start, end in self.spans:
            out[span] = (end - start) - _union_length(children.get(span, ()))
        return out

    def summary(self, workers: int) -> dict[str, float]:
        """Per-layer metrics keyed by metric name.

        ``.calls`` is calls per episode and ``.self_us`` mean self time per
        episode in microseconds.
        """
        episodes = len(self.episodes)
        if not episodes:
            raise ValueError("no traced episodes to summarize")
        self_time = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        episode_wall = 0.0
        benchmark_wall = 0.0
        for span, _parent, _ep, name, start, end in self.spans:
            totals[name] += self_time[span]
            calls[name] += 1
            if name == EPISODE:
                episode_wall += end - start
            elif name == BENCHMARK:
                benchmark_wall += end - start

        out: dict[str, float] = {}
        for target in self.targets:
            name = target.metric
            if name in out or f"{name}.calls" in out:
                continue
            if not target.timed:
                out[f"{name}.calls"] = self.count(name) / episodes
            else:
                if name not in (EPISODE, BENCHMARK):
                    out[f"{name}.calls"] = calls[name] / episodes
                out[f"{name}.self_us"] = totals[name] / episodes * 1e6
        out["planning.self_us"] = sum(totals[p] for p in PLANNERS) / episodes * 1e6

        plans = sum(e[0] for e in self.episodes)
        out["agent.feedback_ok_ratio"] = sum(e[1] for e in self.episodes) / plans
        out["llm_planner.fallback_share"] = sum(e[2] for e in self.episodes) / plans
        out["evaluation.worker_busy_frac"] = episode_wall / (benchmark_wall * workers)
        return out

    def write_jsonl(self, path: Path, summary: dict[str, Any]) -> None:
        """Write every span, then one summary line, to a JSONL sidecar."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as fh:
            for span, parent, episode, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "span": span,
                            "parent": parent,
                            "episode": episode,
                            "name": name,
                            "start_us": (start - t0) * 1e6,
                            "end_us": (end - t0) * 1e6,
                        }
                    )
                    + "\n"
                )
            fh.write(json.dumps({"kind": "summary", **summary}, sort_keys=True) + "\n")


def _count_wrapper(counter: itertools.count, fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        next(counter)
        return fn(*args, **kwargs)

    return wrapper


def _union_length(intervals: Any) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total
