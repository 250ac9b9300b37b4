"""The episode loop: a question goes in, a traced answer comes out.

One episode grows its own overlay of the prior graph from
observations. The overlay shares the nodes and the label index of a
template each world builds once, on its first episode, and keeps only
what the episode adds or writes. A node object is never written once it
is in a graph: a write puts a new node in its place. A world's graph
must stay fixed while episodes run. Each anchor's view is folded in
once, unless that fold left something out. Planning, acting and
feedback checking alternate until the chain is exhausted, the plan
budget runs out, or the fallback gives up.
Every plan and observation lands in the trace, so an episode can be
replayed or audited after the fact.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, NamedTuple

from . import prompts
from .environment import AgentPose, Environment, Observation
from .llm_planner import LookupPlanner
from .parsing import TemplateBackend, UnparsedQuestionError, parse_question
from .patterns import (
    ATTRIBUTE_TARGET,
    COUNT_TARGET,
    EXISTENCE_TARGET,
    OBJECT_TARGET,
    ROOM_TARGET,
    PatternChain,
    SubGoal,
    render,
)
from .rules import (
    ANSWER,
    MOVE_TO,
    OBSERVE,
    PerceptionRange,
    Plan,
    PlanningDomainError,
    ResolutionFailure,
    chain_has_support,
    look_plan,
    next_plan,
    scope_node,
    target_expects,
)
from .scene_graph import ROOM, SceneGraph, SceneNode, has_value, labels_match
# perfbench/spans.py counts label normalization by wrapping this module's name.
from .scene_graph import normalize_label  # noqa: F401

# Feedback retries per subgoal before the fallback planner takes over.
RETRIES = 2


class EpisodeStatus(Enum):
    ANSWERED = "answered"
    NOT_FOUND = "not_found"
    FAILED = "failed"


ANSWERED, NOT_FOUND, FAILED = EpisodeStatus


@dataclass
class AgentConfig:
    """Knobs for one episode.

    room_level_only keeps the agent from ever anchoring below a room; it
    exists to measure how much the lower layers buy.
    """

    room_level_only: bool = False

    def plan_budget(self, chain_length: int) -> int:
        """Four plans per subgoal plus eight spare."""
        return 4 * chain_length + 8


class TraceEvent(NamedTuple):
    """One executed plan, an immutable record built positionally, as
    ``Plan`` and ``Observation`` are. The plan and the observation are
    kept as they are and serialized only when ``plan`` and
    ``observation`` are read. The plan's ``step_index`` is the event's
    ``k``, the observation's ``step`` is its ``t``, and a final look's
    ``content`` is the event's subquestion."""

    t: int
    k: int
    action: Plan
    obs: Observation | None
    feedback: bool | None
    secondary: bool = False
    subquestion: str | None = None

    @property
    def plan(self) -> dict[str, Any]:
        return self.action.to_dict(self.k, self.subquestion)

    @property
    def observation(self) -> dict[str, Any] | None:
        return self.obs.to_dict(self.t) if self.obs is not None else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "t": self.t,
            "k": self.k,
            "plan": self.plan,
            "observation": self.observation,
            "feedback": self.feedback,
            "secondary": self.secondary,
            "subquestion": self.subquestion,
        }


@dataclass
class EpisodeTrace:
    question: str
    world_id: str
    chain: PatternChain | None = None
    parse_source: str | None = None
    prompt_versions: dict[str, str] = field(default_factory=dict)
    entrance: Observation | None = None
    events: list[TraceEvent] = field(default_factory=list)
    answer: str | None = None
    status: str | None = None
    steps: int = 0
    plans: int = 0
    wall_ms: float = 0.0

    @property
    def pattern(self) -> str | None:
        """The parsed chain as text, rendered when read; None when the
        question did not parse."""
        return render(self.chain) if self.chain is not None else None

    @property
    def entrance_observation(self) -> dict[str, Any] | None:
        return self.entrance.to_dict(0) if self.entrance is not None else None

    def header(self) -> dict[str, Any]:
        return {
            "kind": "header",
            "question": self.question,
            "world_id": self.world_id,
            "pattern": self.pattern,
            "parse_source": self.parse_source,
            "prompt_versions": self.prompt_versions,
            "entrance_observation": self.entrance_observation,
        }

    def final(self) -> dict[str, Any]:
        return {
            "kind": "final",
            "answer": self.answer,
            "status": self.status,
            "steps": self.steps,
            "plans": self.plans,
            "wall_ms": round(self.wall_ms, 3),
        }

    def lines(self) -> list[str]:
        records = [self.header()]
        records.extend({"kind": "event", **e.to_dict()} for e in self.events)
        records.append(self.final())
        return [json.dumps(r, sort_keys=True) for r in records]

    def write(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.lines()) + "\n", encoding="utf-8")


@dataclass
class EpisodeResult:
    question: str
    answer: str
    status: EpisodeStatus
    steps: int
    plans: int
    chain: PatternChain | None
    trace: EpisodeTrace


def normalize_answer(text: str) -> str:
    """Lowercase, collapse whitespace, drop one leading article."""
    out = " ".join(str(text).strip().lower().split())
    out = out.rstrip(".!")
    for article in ("the ", "a ", "an "):
        if out.startswith(article):
            out = out[len(article):]
            break
    return out.strip()


# -- belief updates ---------------------------------------------------------


def ingest_observation(graph: SceneGraph, obs: Observation) -> bool:
    """Fold an observation into the agent's graph.

    The view's fold (``environment.Fold``) holds its nodes prebuilt, once
    per world, and the graph takes them by reference in one call
    (``SceneGraph.fold_in``): a node in a graph is never written in
    place. Newly seen small objects are adopted under the anchor they
    were seen from, keeping the environment's ids so later plans can
    address them directly. Revealed attribute values overwrite prior
    beliefs: a node that already has every revealed value is left as it
    is, one the fold's node may stand in for gives way to it, and any
    other is merged. Returns whether the fold left nothing out: the
    anchor and every node the observation shows or reveals are in the
    graph afterwards.
    """
    return graph.fold_in(obs.anchor_id, obs.fold)


# -- feedback ---------------------------------------------------------------


def check_feedback(plan: Plan, obs: Observation, graph: SceneGraph) -> bool:
    """First-pass success check for an executed plan.

    Move feedback compares raw labels only; it deliberately knows nothing
    about synonyms, so a move that lands on an aliased label fails here
    and is rescued by the secondary check.
    """
    if plan.kind is MOVE_TO:
        if obs.move_failed:
            return False
        if not plan.goal_label:
            return True
        anchor = graph.node(obs.anchor_id) if obs.anchor_id in graph else None
        return anchor is not None and labels_match(plan.goal_label, anchor.label)
    if plan.kind is OBSERVE:
        if plan.expects is None:
            return True
        what, name = plan.expects
        if what == "attribute":
            focus = plan.focus_id or obs.anchor_id
            if name in obs.revealed.get(focus, {}):
                return True
            return focus in graph and name in graph.node(focus).attributes
        if what == "relation":
            others = [v for v in obs.visible if v.node_id != obs.anchor_id]
            if name is None:
                return bool(others)
            return any(v.relation == name for v in others)
        # count and existence observations always settle by tallying
        return True
    return True


def secondary_perception(plan: Plan, obs: Observation, graph: SceneGraph) -> bool:
    """Identity check behind the label check.

    A move that failed the naive label comparison still counts as a
    success when the anchor is the planned node itself, or sits inside
    it. This is how a plan for "the couch" survives landing on a node
    labeled "sofa".
    """
    if plan.goal_id is None or obs.anchor_id not in graph:
        return False
    if plan.goal_id == obs.anchor_id:
        return True
    return any(a.id == plan.goal_id for a in graph.ancestors(obs.anchor_id))


# -- answer extraction ------------------------------------------------------


def _tally_scope(chain: PatternChain, plan: Plan, obs: Observation, graph: SceneGraph) -> str:
    """The node to count under, as the planner chose it: the support the
    final look focused on, when the chain names one before its target and
    the focus sits just above the target's layer; else the planner's room
    scope (``rules.scope_node``) from the anchor the count was observed
    at. A room-level look focuses on the target itself, so it counts
    under the room."""
    focus = graph.node(plan.focus_id) if plan.focus_id in graph else None
    if focus is not None and focus.layer == chain.steps[-1].layer - 1 and chain_has_support(chain):
        return focus.id
    return scope_node(chain, graph, AgentPose(obs.anchor_id)).id


def tally_matches(graph: SceneGraph, scope_id: str, step: SubGoal) -> list[SceneNode]:
    """Nodes under the scope that satisfy a count or existence target."""
    found = graph.matches_under(scope_id, step.label, step.layer)
    if step.attribute_constraint is None:
        return found
    attr, want = step.attribute_constraint
    return [n for n in found if has_value(n, attr, want)]


def extract_answer(
    chain: PatternChain,
    slots: dict[str, str],
    plan: Plan,
    obs: Observation,
    graph: SceneGraph,
) -> str | None:
    """Read the answer off the final observation, or None if absent."""
    kind = chain.target_kind
    if kind is ATTRIBUTE_TARGET:
        attr = chain.steps[-1].queried_attribute or ""
        focus = plan.focus_id or obs.anchor_id
        value = obs.revealed.get(focus, {}).get(attr)
        if value is None and focus in graph:
            value = graph.node(focus).attributes.get(attr)
        return value
    if kind is OBJECT_TARGET:
        relation = slots.get("relation")
        target_layer = chain.steps[-1].layer
        labels: list[str] = []
        for v in obs.visible:
            if v.node_id == obs.anchor_id or v.relation == "here":
                continue
            if v.layer is not target_layer:
                continue
            if relation is not None and v.relation != relation:
                continue
            if v.label not in labels:
                labels.append(v.label)
        return ", ".join(labels) if labels else None
    if kind in (COUNT_TARGET, EXISTENCE_TARGET):
        scope_id = _tally_scope(chain, plan, obs, graph)
        count = len(tally_matches(graph, scope_id, chain.steps[-1]))
        if kind is COUNT_TARGET:
            return str(count)
        return "yes" if count > 0 else "no"
    return None


# -- the room-only planner used for the layer ablation ----------------------


def _room_for_chain(chain: PatternChain, graph: SceneGraph) -> SceneNode | None:
    for step in reversed(chain.steps):
        if step.label and step.layer is ROOM:
            found = graph.resolve_label(step.label, layer=ROOM)
            if found:
                return found[0]
    for step in chain.steps:
        if step.label:
            found = graph.resolve_label(step.label, layer=step.layer)
            if found and found[0].layer >= ROOM:
                return graph.room_of(found[0].id)
    rooms = graph.nodes_at(ROOM)
    return rooms[0] if rooms else None


class RoomLook(NamedTuple):
    """What room_level_plan reads from the graph for one chain.

    room is the room to look from, or for a room query the room that
    holds its subject; focus_id is the chain's object or support inside
    that room; expects is target_expects. size is the graph's node count
    when the look was worked out.
    """

    size: int
    room: SceneNode | None
    focus_id: str | None
    expects: tuple[str, str | None]


def room_look(chain: PatternChain, graph: SceneGraph, slots: dict[str, str]) -> RoomLook:
    """Work out a chain's RoomLook.

    Its lookups pass no constraint and no position, and a graph only
    ever gains nodes (a clone keeps the id, label and layer), so the
    look holds for as long as ``len(graph)`` equals its size.
    """
    expects = target_expects(chain, slots)
    if chain.target_kind is ROOM_TARGET:
        subject = chain.steps[0]
        found = graph.resolve_label(subject.label or "", layer=subject.layer)
        return RoomLook(len(graph), graph.room_of(found[0].id) if found else None, None, expects)
    room = _room_for_chain(chain, graph)
    focus_id: str | None = None
    focus_label = slots.get("object") or slots.get("support")
    if room is not None and focus_label:
        found = graph.resolve_label(focus_label, scope_id=room.id)
        if found:
            focus_id = found[0].id
    return RoomLook(len(graph), room, focus_id, expects)


def room_level_plan(
    chain: PatternChain,
    k: int,
    graph: SceneGraph,
    pose: Any,
    slots: dict[str, str] | None = None,
    look: RoomLook | None = None,
) -> Plan:
    """Ablated planner that never anchors below the room layer.

    It looks from the chain's room with next_plan's look_plan, focused
    on the chain's object or support when the room holds it. look is
    the chain's room_look, which run_episode works out once per episode
    and again only when the graph has gained nodes; without it the look
    is worked out here. It is not a layer cap on next_plan because the
    benchmark counts the ablation by this name: perfbench/spans.py wraps
    ``stepqa.agent.room_level_plan``, and perfbench's tests assert that
    room_level runs call it and never call next_plan.
    """
    if look is None:
        look = room_look(chain, graph, slots or {})
    n = len(chain.steps)
    if chain.target_kind is ROOM_TARGET:
        if look.room is None:
            raise ResolutionFailure(chain.steps[0].label or "?", "room level")
        return Plan(kind=ANSWER, value=look.room.label, advance_to=n)
    if look.room is None:
        raise ResolutionFailure("room", "prior graph")
    return look_plan(pose, look.room, look.focus_id, look.expects, n)


# -- the loop ---------------------------------------------------------------


def run_episode(
    question: str,
    env: Environment,
    config: AgentConfig | None = None,
    parse_backends: list[Any] | None = None,
    planner: Any | None = None,
) -> EpisodeResult:
    """Answer one question against one environment instance."""
    config = config or AgentConfig()
    planner = planner or LookupPlanner()
    started = time.perf_counter()

    _, first_obs = env.reset()
    graph = env.world.prior_graph()
    # What an anchor shows is fixed for a world, so a second fold of an
    # anchor whose first fold left nothing out would change nothing.
    folded: set[str] = set()

    def fold(obs: Observation) -> None:
        if obs.anchor_id not in folded and ingest_observation(graph, obs):
            folded.add(obs.anchor_id)

    fold(first_obs)

    trace = EpisodeTrace(
        question=question,
        world_id=env.world.world_id,
        prompt_versions=dict(prompts.VERSIONS),
        entrance=first_obs,
    )

    def finish(answer: str, status: EpisodeStatus, chain: PatternChain | None) -> EpisodeResult:
        trace.answer = normalize_answer(answer)
        trace.status = status.value
        trace.steps = env.pose.steps_taken
        trace.plans = len(trace.events)
        trace.wall_ms = (time.perf_counter() - started) * 1000.0
        return EpisodeResult(
            question=question,
            answer=trace.answer,
            status=status,
            steps=trace.steps,
            plans=trace.plans,
            chain=chain,
            trace=trace,
        )

    try:
        parsed = parse_question(
            question,
            backends=parse_backends if parse_backends is not None else [TemplateBackend(graph)],
        )
    except UnparsedQuestionError:
        return finish("not found", FAILED, None)

    trace.chain = parsed.chain
    trace.parse_source = parsed.source.value
    slots = parsed.slots

    chain = parsed.chain
    n = len(chain.steps)
    budget = config.plan_budget(n)
    attr_class: PerceptionRange | None = None
    constraint_class: PerceptionRange | None = None
    # room_level_plan reads neither class, so the room-level agent asks for none.
    if chain.target_kind is ATTRIBUTE_TARGET and not config.room_level_only:
        attr_class = planner.classify_attribute(chain.steps[-1].queried_attribute or "", slots.get("object", ""))
    if chain.steps[-1].attribute_constraint is not None and not config.room_level_only:
        constraint_class = planner.classify_attribute(
            chain.steps[-1].attribute_constraint[0], chain.steps[-1].label or ""
        )

    # the planners read membership only, so a move to a new anchor makes a new set
    explored: frozenset[str] = frozenset()
    look: RoomLook | None = None
    t = 0
    k = 0
    step_retries = 0
    pending_fallback = False
    final_subquestion: str | None = None
    outcome: tuple[str, EpisodeStatus] | None = None

    while t < budget:
        if pending_fallback:
            pending_fallback = False
            plan = planner.fallback_plan(graph, env.pose, explored, question=question)
        else:
            try:
                if config.room_level_only:
                    if look is None or look.size != len(graph):
                        look = room_look(chain, graph, slots)
                    plan = room_level_plan(chain, k, graph, env.pose, slots, look)
                else:
                    plan = next_plan(
                        chain,
                        k,
                        graph,
                        env.pose,
                        attr_class=attr_class,
                        explored=explored,
                        slots=slots,
                        constraint_class=constraint_class,
                    )
            except ResolutionFailure:
                pending_fallback = True
                continue
            except PlanningDomainError:
                outcome = ("not found", FAILED)
                break
        t += 1

        subquestion: str | None = None
        if plan.kind is OBSERVE and plan.advance_to == n:
            if final_subquestion is None:
                final_subquestion = planner.simplify_question(question, chain, k, slots)
            subquestion = final_subquestion

        if plan.kind is ANSWER:
            echo = env.observe()
            fold(echo)
            trace.events.append(TraceEvent(t, k, plan, echo, True))
            if plan.tool != "fallback":  # a fallback answer gives up
                outcome = (plan.value or "not found", ANSWERED)
            break

        obs = env.execute(plan)
        fold(obs)
        ok = check_feedback(plan, obs, graph)
        secondary = False
        if not ok and plan.kind is MOVE_TO and not obs.move_failed:
            secondary = secondary_perception(plan, obs, graph)
            ok = ok or secondary
        trace.events.append(TraceEvent(t, k, plan, obs, ok, secondary, subquestion))
        if plan.kind is MOVE_TO and not obs.move_failed and env.pose.anchor_id not in explored:
            explored = explored | {env.pose.anchor_id}

        if ok:
            step_retries = 0
            if plan.tool == "fallback" or plan.advance_to is None:
                continue
            if plan.advance_to < n:
                k = plan.advance_to
                continue
            value = extract_answer(chain, slots, plan, obs, graph)
            if value is not None:
                outcome = (value, ANSWERED)
                break
        # a failed check, or a final look that did not yield the answer
        step_retries += 1
        if step_retries > RETRIES:
            step_retries = 0
            pending_fallback = True

    if outcome is None:
        outcome = ("not found", NOT_FOUND)
    return finish(outcome[0], outcome[1], chain)
