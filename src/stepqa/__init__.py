"""Question answering over layered indoor scene graphs.

The package splits a question into a chain of layer subgoals, plans
movement and observation step by step against a four layer scene graph,
and grades answers with a coarse rubric. See the README for a tour.
"""

from .agent import AgentConfig, EpisodeResult, EpisodeStatus, run_episode
from .environment import Environment, WorldTruth, load_world_prior, load_world_truth
from .evaluation import ChatJudge, MockJudge, llm_match, run_benchmark
from .parsing import parse_question
from .patterns import PatternChain, SubGoal, TargetKind, parse_pattern_string, render, shape
from .rules import PerceptionRange, Plan, PlanKind, next_plan, observation_layer
from .scene_graph import Layer, SceneGraph

__version__ = "0.1.0"

__all__ = [
    "AgentConfig",
    "ChatJudge",
    "Environment",
    "EpisodeResult",
    "EpisodeStatus",
    "Layer",
    "MockJudge",
    "PatternChain",
    "PerceptionRange",
    "Plan",
    "PlanKind",
    "SceneGraph",
    "SubGoal",
    "TargetKind",
    "WorldTruth",
    "llm_match",
    "load_world_prior",
    "load_world_truth",
    "next_plan",
    "observation_layer",
    "parse_pattern_string",
    "parse_question",
    "render",
    "run_benchmark",
    "run_episode",
    "shape",
    "__version__",
]
