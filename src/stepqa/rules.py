"""Placement rules and the step-by-step plan generator.

The rule table (observation_layer) answers one question for every target
kind that ends in a look: which layer should the agent stand at to look
at the target? Objects, including the ones a count or existence question
tallies, are observed from one layer above them. Attributes split by how
far away they can be perceived: a remote attribute (color and the like)
is read from one layer above the object, a close-range attribute (title,
material) requires standing at the object itself.

next_plan walks a question chain one subgoal at a time against the
agent's current graph and pose, emitting MoveTo, Observe or Answer
plans. A chain whose target needs a look ends the same way whatever its
kind: move to a node at the layer the rule table names and observe
(look_plan), a final look that succeeds when the agent reads the answer
off it at its focus (``Plan``). It never plans below that layer for the
final look.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Any, NamedTuple

from .patterns import ATTRIBUTE_TARGET, OBJECT_TARGET, ROOM_TARGET, PatternChain, SubGoal
from .scene_graph import BIG_OBJECT, FLOOR, ROOM, SMALL_OBJECT, Layer, SceneGraph, SceneNode

if TYPE_CHECKING:
    from .environment import AgentPose


class PerceptionRange(Enum):
    REMOTE = "remote"
    CLOSE_RANGE = "close_range"


REMOTE, CLOSE_RANGE = PerceptionRange


class PlanKind(Enum):
    MOVE_TO = "move_to"
    OBSERVE = "observe"
    ANSWER = "answer"


MOVE_TO, OBSERVE, ANSWER = PlanKind


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


class Plan(NamedTuple):
    """One planned action, an immutable record.

    advance_to is planner bookkeeping: the subgoal index reached if the
    plan succeeds, the chain's length for its final look, whose focus_id
    is the node its answer is read at: an attribute's object, the node
    an object query reads relations to, or the node a count or existence
    counts under. The subgoal a plan was made for, and the subquestion a
    final look asks, belong to the trace event that executes it, which
    hands both to ``to_dict`` when the trace is read.
    """

    kind: PlanKind
    goal_id: str | None = None
    goal_layer: Layer | None = None
    goal_label: str | None = None
    content: str | None = None
    focus_id: str | None = None
    value: str | None = None
    advance_to: int | None = None
    tool: str = "rules"

    def to_dict(self, step_index: int = 0, content: str | None = None) -> dict[str, Any]:
        """The trace form; an Observe's content is ``content`` when given,
        else the plan's own."""
        out: dict[str, Any] = {
            "kind": self.kind.value,
            "step_index": step_index,
            "tool": self.tool,
        }
        if self.kind is MOVE_TO:
            out["goal"] = self.goal_id or self.goal_label
            if self.goal_layer is not None:
                out["goal_layer"] = self.goal_layer.tag
            if self.goal_label is not None:
                out["goal_label"] = self.goal_label
        elif self.kind is OBSERVE:
            out["content"] = (content if content is not None else self.content) or ""
            if self.focus_id is not None:
                out["focus"] = self.focus_id
        else:
            out["value"] = self.value
        return out


def observation_layer(target: SubGoal, attr_class: PerceptionRange | None = None) -> Layer:
    """Layer to stand at when looking at the target subgoal.

    Object, count and existence targets: small objects are observed from
    a big object, big objects from a room. Attributes: remote ones from
    one layer above the owning object, close-range ones from the object
    itself. Any other target has no rule and raises PlanningDomainError.
    """
    if target.attribute_step:
        if attr_class is None:
            raise PlanningDomainError("attribute target needs a perception range")
        if target.layer is BIG_OBJECT:
            return ROOM if attr_class is REMOTE else BIG_OBJECT
        if target.layer is SMALL_OBJECT:
            return BIG_OBJECT if attr_class is REMOTE else SMALL_OBJECT
        raise PlanningDomainError(f"attributes live on object layers, not {target.layer.tag}")
    if target.layer is SMALL_OBJECT:
        return BIG_OBJECT
    if target.layer is BIG_OBJECT:
        return ROOM
    raise PlanningDomainError(f"no observation rule for a {target.layer.tag} object target")


# -- resolution against the agent's graph -----------------------------------


def scope_node(chain: PatternChain, graph: SceneGraph, pose: AgentPose) -> SceneNode:
    """Innermost room the chain names, the one nearest the agent when two
    match, else the floor under the agent."""
    anchored = pose.anchor_id in graph
    for step in reversed(chain.steps):
        if step.layer is ROOM and step.label is not None:
            rooms = graph.resolve_label(step.label, ROOM)
            if len(rooms) > 1:
                rooms = graph.nearest_first(rooms, graph.position_of(pose.anchor_id) if anchored else None)
            if rooms:
                return rooms[0]
    if anchored:
        return graph.floor_of(pose.anchor_id)
    floors = graph.nodes_at(FLOOR)
    if not floors:
        raise PlanningDomainError("graph has no floor node")
    return floors[0]


def move_plan(
    node: SceneNode, label: str | None = None, advance_to: int | None = None, tool: str = "rules"
) -> Plan:
    """A MoveTo plan to a known node, its goal label the node's unless given."""
    goal_label = node.label if label is None else label
    return Plan(MOVE_TO, node.id, node.layer, goal_label, None, None, None, advance_to, tool)


def _sweep_move(
    scope: SceneNode,
    graph: SceneGraph,
    pose: AgentPose,
    explored: frozenset[str],
) -> Plan | None:
    """Next unexplored big object under a room or floor scope, if any.

    Rooms come nearest first, and each room's big objects nearest first.
    A floor scope goes on to the rooms of the other floors, in graph
    order, once its own are swept; a room scope ends with a move to the
    room. Distances are from the agent's anchor, whose position is read
    once. Each order is a tuple of ids sorted once per world and position
    (``SceneGraph.child_ids_nearest_first``), and a room is sorted only
    when the sweep reaches it.

    The walk reads only the floors, rooms and big objects, the anchor's
    position and ``explored``, and its answer is an immutable plan built
    from a node's id, layer and label. So from a floor, room or
    big-object anchor with a frozenset ``explored`` the answer is kept in
    the world's memo (``SceneGraph.prior_memo``) by scope id, anchor id
    and explored set, and a repeated step reads no position and sorts
    nothing. Any other anchor or container walks every time.
    """
    memo = graph.prior_memo(pose.anchor_id) if type(explored) is frozenset else None
    if memo is None:
        return _sweep_walk(scope, graph, pose, explored)
    key = (scope.id, pose.anchor_id, explored)
    if key not in memo:
        memo[key] = _sweep_walk(scope, graph, pose, explored)
    return memo[key]


def _sweep_walk(scope: SceneNode, graph: SceneGraph, pose: AgentPose, explored: frozenset[str]) -> Plan | None:
    here = graph.position_of(pose.anchor_id) if pose.anchor_id in graph else None
    order = graph.child_ids_nearest_first
    sweeps = [(scope.id,) if scope.layer is ROOM else order(scope.id, here)]
    for rooms in sweeps:  # the other floors join once the scope's rooms are swept
        for room_id in rooms:
            for big_id in order(room_id, here):
                if big_id not in explored:
                    return move_plan(graph.node(big_id))
        if scope.layer is FLOOR and len(sweeps) == 1:
            sweeps += [order(f.id, here) for f in graph.nodes_at(FLOOR) if f.id != scope.id]
    if scope.layer is ROOM and scope.id not in explored and pose.anchor_id != scope.id:
        return move_plan(scope)
    return None


# -- the planner ------------------------------------------------------------


def look_plan(
    pose: AgentPose,
    stand: SceneNode,
    focus_id: str | None,
    n: int,
    label: str | None = None,
) -> Plan:
    """Move to stand unless the agent is there, then observe the focus.

    The move reaches the chain's last subgoal (n - 1) and the look
    finishes the chain (n). label is the move's goal label, the stand's
    own unless given.
    """
    if pose.anchor_id != stand.id:
        return move_plan(stand, label, advance_to=n - 1)
    return Plan(OBSERVE, None, None, None, None, focus_id, None, n)


def _resolve_step(graph: SceneGraph, pose: AgentPose, step: SubGoal) -> SceneNode:
    node = graph.resolve_from(pose.anchor_id, step.label or "", step.layer, step.attribute_constraint)
    if node is None:
        raise ResolutionFailure(step.label or step.layer.tag, pose.anchor_id)
    return node


def next_plan(
    chain: PatternChain,
    k: int,
    graph: SceneGraph,
    pose: AgentPose,
    attr_class: PerceptionRange | None = None,
    explored: frozenset[str] = frozenset(),
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

    if chain.target_kind is ROOM_TARGET:
        return _room_query_plan(chain, graph, pose, explored)

    if k < n - 2:
        step = chain.steps[k]
        return move_plan(_resolve_step(graph, pose, step), step.label, advance_to=k + 1)

    if chain.target_kind is ATTRIBUTE_TARGET:
        return _attribute_target_plan(chain, graph, pose, attr_class, explored)
    return _object_target_plan(chain, graph, pose, constraint_class, explored)


def _attribute_target_plan(
    chain: PatternChain,
    graph: SceneGraph,
    pose: AgentPose,
    attr_class: PerceptionRange | None,
    explored: frozenset[str],
) -> Plan:
    """Stand at the object itself or at its parent, as the rule table
    says, and read the attribute."""
    stand_layer = observation_layer(chain.steps[-1], attr_class)
    obj_step = chain.steps[-2]
    obj = graph.resolve_from(pose.anchor_id, obj_step.label or "", obj_step.layer, obj_step.attribute_constraint)
    if obj is None:
        # a small object whose support the chain does not name is swept for
        if obj_step.layer is SMALL_OBJECT and not any(s.layer is BIG_OBJECT and s.label for s in chain.steps[:-2]):
            sweep = _sweep_move(scope_node(chain, graph, pose), graph, pose, explored)
            if sweep is not None:
                return sweep
        raise ResolutionFailure(obj_step.label or "?", pose.anchor_id)
    stand = obj if stand_layer is obj.layer else graph.parent(obj.id)
    if stand is None:
        raise ResolutionFailure(obj_step.label or "?", "containment")
    return look_plan(pose, stand, obj.id, len(chain.steps))


def _object_target_plan(
    chain: PatternChain,
    graph: SceneGraph,
    pose: AgentPose,
    constraint_class: PerceptionRange | None,
    explored: frozenset[str],
) -> Plan:
    """Look at an object, count or existence target from the stand layer.

    A big-object target is looked at from a room: for an object query
    the room of a big-object reference step, else the chain's room scope.
    A small-object target is looked at from the support a big-object
    reference step names; without one the planner sweeps the chain's
    scope and looks from where the sweep ended, focused on the scope. A
    count or existence target with a close-range constraint first moves
    to every candidate whose constraint attribute is still unseen.
    """
    n = len(chain.steps)
    target = chain.steps[-1]
    stand_layer = observation_layer(target)
    ref_step = chain.steps[-2] if n >= 2 else None
    if stand_layer is ROOM:
        ref = None
        if chain.target_kind is OBJECT_TARGET and ref_step is not None and ref_step.label:
            ref = _resolve_step(graph, pose, ref_step)
        if ref is not None and ref.layer >= BIG_OBJECT:
            room = graph.room_of(ref.id)
        else:
            room = scope_node(chain, graph, pose)
            if room.layer is not ROOM:
                raise ResolutionFailure(target.label or "?", "no room scope")
        return look_plan(pose, room, ref.id if ref is not None else room.id, n)

    visit_each = (
        chain.target_kind is not OBJECT_TARGET
        and target.attribute_constraint is not None
        and constraint_class is CLOSE_RANGE
    )
    if ref_step is not None and ref_step.layer is stand_layer and ref_step.label:
        support = _resolve_step(graph, pose, ref_step)
        if visit_each and pose.anchor_id == support.id:
            pending = _unverified_candidate(graph, support.id, target, explored)
            if pending is not None:
                return move_plan(pending, target.label)
        return look_plan(pose, support, support.id, n, ref_step.label)
    scope = scope_node(chain, graph, pose)
    sweep = _sweep_move(scope, graph, pose, explored)
    if sweep is not None:
        return sweep
    if visit_each:
        pending = _unverified_candidate(graph, scope.id, target, explored)
        if pending is not None:
            return move_plan(pending, target.label)
    return Plan(OBSERVE, None, None, None, None, scope.id, None, n)


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
        for n in graph.matches_under(scope_id, target_step.label, SMALL_OBJECT)
        if n.id not in explored and attr not in n.attributes
    ]
    return min(found, key=lambda n: (n.instance_index, n.id), default=None)


def _room_query_plan(
    chain: PatternChain,
    graph: SceneGraph,
    pose: AgentPose,
    explored: frozenset[str],
) -> Plan:
    n = len(chain.steps)
    subject = chain.steps[0]
    node = graph.resolve_from(pose.anchor_id, subject.label or "", subject.layer, subject.attribute_constraint)
    if node is not None:
        room = graph.room_of(node.id)
        return Plan(kind=ANSWER, value=room.label, advance_to=n)
    if subject.layer is BIG_OBJECT:
        # the prior knows every big object; an unresolved label is a dead end
        raise ResolutionFailure(subject.label or "?", "prior graph")
    sweep = _sweep_move(scope_node(chain, graph, pose), graph, pose, explored)
    if sweep is not None:
        return sweep
    raise ResolutionFailure(subject.label or "?", "searched all big objects")
