"""Placement rules and the step-by-step plan generator.

The rule table answers one question: to look at a target, which layer
should the agent stand at? Objects are observed from one layer above
them. Attributes split by how far away they can be perceived: a remote
attribute (color and the like) is read from one layer above the object,
a close-range attribute (title, material) requires standing at the
object itself.

next_plan walks a question chain one subgoal at a time against the
agent's current graph and pose, emitting MoveTo, Observe or Answer
plans. It never plans below the rule-mandated observation layer for the
final look.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any

from .patterns import PatternChain, SubGoal, TargetKind
from .scene_graph import Layer, SceneGraph, SceneNode

if TYPE_CHECKING:
    from .environment import AgentPose


class PerceptionRange(Enum):
    REMOTE = "remote"
    CLOSE_RANGE = "close_range"


class PlanKind(Enum):
    MOVE_TO = "move_to"
    OBSERVE = "observe"
    ANSWER = "answer"


class PlanningDomainError(ValueError):
    pass


class ResolutionFailure(Exception):
    """A chain label has no node under the current scope.

    The agent treats this as the cue to hand control to the fallback
    planner rather than as a hard error.
    """

    def __init__(self, label: str, scope: str) -> None:
        super().__init__(f"no node labeled {label!r} under {scope}")
        self.label = label
        self.scope = scope


@dataclass
class Plan:
    """One planned action.

    advance_to and expects are planner bookkeeping: the subgoal index
    reached if the plan succeeds, and what the observation must reveal
    for feedback to count it as a success.
    """

    kind: PlanKind
    goal_id: str | None = None
    goal_layer: Layer | None = None
    goal_label: str | None = None
    content: str | None = None
    focus_id: str | None = None
    value: str | None = None
    step_index: int = 0
    advance_to: int | None = None
    expects: tuple[str, str | None] | None = None
    tool: str = "rules"

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind.value,
            "step_index": self.step_index,
            "tool": self.tool,
        }
        if self.kind is PlanKind.MOVE_TO:
            out["goal"] = self.goal_id or self.goal_label
            if self.goal_layer is not None:
                out["goal_layer"] = self.goal_layer.tag
            if self.goal_label is not None:
                out["goal_label"] = self.goal_label
        elif self.kind is PlanKind.OBSERVE:
            out["content"] = self.content or ""
            if self.focus_id is not None:
                out["focus"] = self.focus_id
        else:
            out["value"] = self.value
        return out


def observation_layer(target: SubGoal, attr_class: PerceptionRange | None = None) -> Layer:
    """Layer to stand at when looking at the target subgoal.

    Objects: small objects are observed from a big object, big objects
    from a room. Attributes: remote ones from one layer above the owning
    object, close-range ones from the object itself.
    """
    if target.is_attribute_step:
        if attr_class is None:
            raise PlanningDomainError("attribute target needs a perception range")
        if target.layer is Layer.BIG_OBJECT:
            return Layer.ROOM if attr_class is PerceptionRange.REMOTE else Layer.BIG_OBJECT
        if target.layer is Layer.SMALL_OBJECT:
            return Layer.BIG_OBJECT if attr_class is PerceptionRange.REMOTE else Layer.SMALL_OBJECT
        raise PlanningDomainError(f"attributes live on object layers, not {target.layer.tag}")
    if target.layer is Layer.SMALL_OBJECT:
        return Layer.BIG_OBJECT
    if target.layer is Layer.BIG_OBJECT:
        return Layer.ROOM
    raise PlanningDomainError(f"no observation rule for a {target.layer.tag} object target")


# -- resolution against the agent's graph -----------------------------------


def _anchor_node(graph: SceneGraph, pose: AgentPose) -> SceneNode | None:
    return graph.node(pose.anchor_id) if pose.anchor_id in graph else None


def resolve_near_pose(
    graph: SceneGraph,
    pose: AgentPose,
    label: str,
    layer: Layer | None,
    constraint: tuple[str, str] | None = None,
) -> SceneNode | None:
    """Best node for a label, searching outward from the agent's anchor.

    The scopes are the anchor's subtree, its parent's, its room's, then the
    whole graph; nearest candidate first within each. The planner and the
    environment both resolve labels here.
    """
    anchor = _anchor_node(graph, pose)
    near = graph.position_of(anchor.id) if anchor else None
    scopes: list[str | None] = []
    if anchor is not None:
        scopes.append(anchor.id)
        parent = graph.parent(anchor.id)
        if parent is not None:
            scopes.append(parent.id)
        if anchor.layer > Layer.ROOM:
            scopes.append(graph.room_of(anchor.id).id)
    scopes.append(None)
    seen: set[str | None] = set()
    for scope in scopes:
        if scope in seen:
            continue
        seen.add(scope)
        candidates = graph.resolve_label(
            label, layer=layer, scope_id=scope, constraint=constraint, near=near
        )
        if candidates:
            return candidates[0]
    return None


def _scope_node(chain: PatternChain, graph: SceneGraph, pose: AgentPose) -> SceneNode:
    """Innermost room the chain names, else the floor under the agent."""
    anchor = _anchor_node(graph, pose)
    near = graph.position_of(anchor.id) if anchor else None
    for step in reversed(chain.steps):
        if step.is_attribute_step or step.label is None:
            continue
        if step.layer is Layer.ROOM:
            rooms = graph.resolve_label(step.label, layer=Layer.ROOM, near=near)
            if rooms:
                return rooms[0]
    if anchor is not None:
        if anchor.layer is Layer.FLOOR:
            return anchor
        path = graph.ancestors(anchor.id)
        if path:
            return path[-1]
        return anchor
    floors = graph.nodes_at(Layer.FLOOR)
    if not floors:
        raise PlanningDomainError("graph has no floor node")
    return floors[0]


def _sweep_anchors(graph: SceneGraph, scope: SceneNode, pose: AgentPose) -> list[SceneNode]:
    """Big objects under the scope, nearest room first, nearest object within."""
    if scope.layer is Layer.FLOOR:
        rooms = graph.nearest_first(graph.children(scope.id), pose.anchor_id)
    elif scope.layer is Layer.ROOM:
        rooms = [scope]
    else:
        rooms = []
    out: list[SceneNode] = []
    for room in rooms:
        bigs = [c for c in graph.children(room.id) if c.layer is Layer.BIG_OBJECT]
        out.extend(graph.nearest_first(bigs, pose.anchor_id))
    return out


def _move(node: SceneNode, label: str | None, advance_to: int | None, tool: str = "rules") -> Plan:
    return Plan(
        kind=PlanKind.MOVE_TO,
        goal_id=node.id,
        goal_layer=node.layer,
        goal_label=label if label is not None else node.label,
        advance_to=advance_to,
        tool=tool,
    )


def _sweep_move(
    chain: PatternChain,
    graph: SceneGraph,
    pose: AgentPose,
    explored: frozenset[str],
) -> Plan | None:
    """Next unexplored big object under the chain's scope, if any."""
    scope = _scope_node(chain, graph, pose)
    for node in _sweep_anchors(graph, scope, pose):
        if node.id not in explored:
            return _move(node, None, advance_to=None)
    if (
        scope.layer is Layer.ROOM
        and scope.id not in explored
        and pose.anchor_id != scope.id
    ):
        return _move(scope, None, advance_to=None)
    return None


def _chain_has_support(chain: PatternChain) -> bool:
    return any(
        s.layer is Layer.BIG_OBJECT and not s.is_attribute_step and s.label for s in chain.steps
    )


# -- the planner ------------------------------------------------------------


def next_plan(
    chain: PatternChain,
    k: int,
    graph: SceneGraph,
    pose: AgentPose,
    attr_class: PerceptionRange | None = None,
    explored: frozenset[str] = frozenset(),
    slots: dict[str, str] | None = None,
    constraint_class: PerceptionRange | None = None,
) -> Plan:
    """Plan for subgoal k of the chain given graph knowledge and pose.

    attr_class is the perception range of the queried attribute, when the
    chain ends in one. constraint_class is the range of the target step's
    attribute constraint, when it has one; a close range constraint makes
    tally plans visit each candidate before settling the count.

    Raises ResolutionFailure when a needed label has no node anywhere the
    planner is entitled to look; the caller then switches to the fallback
    planner.
    """
    n = len(chain.steps)
    if not 0 <= k < n:
        raise PlanningDomainError(f"subgoal index {k} outside chain of length {n}")
    slots = slots or {}

    if chain.target_kind is TargetKind.ROOM:
        return _room_query_plan(chain, graph, pose, explored)

    ref_index = n - 2
    if k < ref_index:
        step = chain.steps[k]
        node = resolve_near_pose(graph, pose, step.label or "", step.layer, step.attribute_constraint)
        if node is None:
            raise ResolutionFailure(step.label or step.layer.tag, pose.anchor_id)
        return _move(node, step.label, advance_to=k + 1)

    if chain.target_kind is TargetKind.ATTRIBUTE:
        return _attribute_target_plan(chain, graph, pose, attr_class, explored)
    if chain.target_kind is TargetKind.OBJECT:
        return _object_target_plan(chain, graph, pose, explored, slots)
    return _tally_target_plan(chain, graph, pose, explored, constraint_class)


def _attribute_target_plan(
    chain: PatternChain,
    graph: SceneGraph,
    pose: AgentPose,
    attr_class: PerceptionRange | None,
    explored: frozenset[str],
) -> Plan:
    n = len(chain.steps)
    target_step = chain.steps[-1]
    obj_step = chain.steps[-2]
    obs_layer = observation_layer(target_step, attr_class)
    obj = resolve_near_pose(graph, pose, obj_step.label or "", obj_step.layer, obj_step.attribute_constraint)
    if obj is None:
        if obj_step.layer is Layer.SMALL_OBJECT and not _chain_has_support(chain):
            sweep = _sweep_move(chain, graph, pose, explored)
            if sweep is not None:
                return sweep
        raise ResolutionFailure(obj_step.label or "?", pose.anchor_id)
    if obs_layer is obj.layer:
        required = obj
    else:
        required = graph.parent(obj.id)
        if required is None:
            raise ResolutionFailure(obj_step.label or "?", "containment")
    if pose.anchor_id != required.id:
        return _move(required, None, advance_to=n - 1)
    return Plan(
        kind=PlanKind.OBSERVE,
        focus_id=obj.id,
        expects=("attribute", target_step.queried_attribute),
        advance_to=n,
    )


def _object_target_plan(
    chain: PatternChain,
    graph: SceneGraph,
    pose: AgentPose,
    explored: frozenset[str],
    slots: dict[str, str],
) -> Plan:
    n = len(chain.steps)
    target_step = chain.steps[-1]
    relation = slots.get("relation")
    ref_step = chain.steps[-2] if n >= 2 else None

    if target_step.layer is Layer.SMALL_OBJECT:
        return _small_target_plan(chain, graph, pose, explored, ("relation", relation), visit_each=False)

    if target_step.layer is Layer.BIG_OBJECT:
        ref = None
        if ref_step is not None and ref_step.label and not ref_step.is_attribute_step:
            ref = resolve_near_pose(graph, pose, ref_step.label, ref_step.layer, ref_step.attribute_constraint)
            if ref is None:
                raise ResolutionFailure(ref_step.label, pose.anchor_id)
        if ref is not None and ref.layer >= Layer.BIG_OBJECT:
            room = graph.room_of(ref.id)
        else:
            room = _scope_node(chain, graph, pose)
            if room.layer is not Layer.ROOM:
                raise ResolutionFailure(target_step.label or "?", "no room scope")
        if pose.anchor_id != room.id:
            return _move(room, None, advance_to=n - 1)
        focus = ref.id if ref is not None else room.id
        return Plan(
            kind=PlanKind.OBSERVE,
            focus_id=focus,
            expects=("relation", relation),
            advance_to=n,
        )

    raise PlanningDomainError(f"object query cannot target a {target_step.layer.tag} node")


def _unverified_candidate(
    graph: SceneGraph,
    scope_id: str,
    target_step: SubGoal,
    explored: frozenset[str],
) -> SceneNode | None:
    """Next known candidate whose constraint attribute is still unseen."""
    attr = target_step.attribute_constraint[0] if target_step.attribute_constraint else None
    if attr is None or not target_step.label:
        return None
    found = [
        n
        for n in graph.matches_under(scope_id, target_step.label, Layer.SMALL_OBJECT)
        if n.id not in explored and attr not in n.attributes
    ]
    return min(found, key=lambda n: (n.instance_index, n.id), default=None)


def _tally_target_plan(
    chain: PatternChain,
    graph: SceneGraph,
    pose: AgentPose,
    explored: frozenset[str],
    constraint_class: PerceptionRange | None = None,
) -> Plan:
    """Counting and existence checks share one shape: look, then tally."""
    n = len(chain.steps)
    target_step = chain.steps[-1]
    expects_kind = "count" if chain.target_kind is TargetKind.COUNT else "existence"
    expects = (expects_kind, target_step.label)
    visit_each = (
        target_step.attribute_constraint is not None
        and constraint_class is PerceptionRange.CLOSE_RANGE
    )

    if target_step.layer is Layer.SMALL_OBJECT:
        return _small_target_plan(chain, graph, pose, explored, expects, visit_each)

    if target_step.layer is Layer.BIG_OBJECT:
        room = _scope_node(chain, graph, pose)
        if room.layer is not Layer.ROOM:
            raise ResolutionFailure(target_step.label or "?", "no room scope")
        if pose.anchor_id != room.id:
            return _move(room, None, advance_to=n - 1)
        return Plan(kind=PlanKind.OBSERVE, focus_id=room.id, expects=expects, advance_to=n)

    raise PlanningDomainError(f"tally query cannot target a {target_step.layer.tag} node")


def _small_target_plan(
    chain: PatternChain,
    graph: SceneGraph,
    pose: AgentPose,
    explored: frozenset[str],
    expects: tuple[str, str | None],
    visit_each: bool,
) -> Plan:
    """Look at a small-object target from its support, or sweep for one.

    A big-object reference step names the support to stand at; without one
    the planner sweeps the chain's scope. visit_each first moves to every
    candidate whose constraint attribute is still unseen.
    """
    n = len(chain.steps)
    target_step = chain.steps[-1]
    ref_step = chain.steps[-2] if n >= 2 else None
    if ref_step is not None and ref_step.layer is Layer.BIG_OBJECT and ref_step.label:
        ref = resolve_near_pose(graph, pose, ref_step.label, ref_step.layer, ref_step.attribute_constraint)
        if ref is None:
            raise ResolutionFailure(ref_step.label, pose.anchor_id)
        if pose.anchor_id != ref.id:
            return _move(ref, ref_step.label, advance_to=n - 1)
        if visit_each:
            pending = _unverified_candidate(graph, ref.id, target_step, explored)
            if pending is not None:
                return _move(pending, target_step.label, advance_to=None)
        return Plan(kind=PlanKind.OBSERVE, focus_id=ref.id, expects=expects, advance_to=n)
    sweep = _sweep_move(chain, graph, pose, explored)
    if sweep is not None:
        return sweep
    if visit_each:
        scope = _scope_node(chain, graph, pose)
        pending = _unverified_candidate(graph, scope.id, target_step, explored)
        if pending is not None:
            return _move(pending, target_step.label, advance_to=None)
    anchor = _anchor_node(graph, pose)
    return Plan(
        kind=PlanKind.OBSERVE,
        focus_id=anchor.id if anchor else None,
        expects=expects,
        advance_to=n,
    )


def _room_query_plan(
    chain: PatternChain,
    graph: SceneGraph,
    pose: AgentPose,
    explored: frozenset[str],
) -> Plan:
    n = len(chain.steps)
    subject = chain.steps[0]
    node = resolve_near_pose(graph, pose, subject.label or "", subject.layer, subject.attribute_constraint)
    if node is not None:
        room = graph.room_of(node.id)
        return Plan(kind=PlanKind.ANSWER, value=room.label, advance_to=n)
    if subject.layer is Layer.BIG_OBJECT:
        # the prior knows every big object; an unresolved label is a dead end
        raise ResolutionFailure(subject.label or "?", "prior graph")
    sweep = _sweep_move(chain, graph, pose, explored)
    if sweep is not None:
        return sweep
    raise ResolutionFailure(subject.label or "?", "searched all big objects")
